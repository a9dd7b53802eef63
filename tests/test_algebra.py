"""Core engine tests: validation, cancellation, reduction, homology."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from floercone import algebra, gf2
from floercone.algebra import (
    REDUCE_MODES,
    FilteredComplex,
    Generator,
    ReducedForm,
    _Reduction,
    check_complex,
    grading_key,
    homology,
    induced_map,
    reduce,
    slice_through,
)
from floercone.cone import MappingCone
from floercone.dual import build_dual_cone, g_map, split_to_summands
from floercone.errors import BadParameter, InternalError, NormalFormMismatch
from floercone.models import box, flip, minus_twist_knot, mirror, staircase, unknot

from oracles import (
    alexander_ranks,
    cancel_pair,
    check_complex_by_powers,
    dense_homology_by_maslov,
    filtered_accept,
    flattened_sectors,
    gf2_matrix_rank,
    induced_map_by_columns,
    j_drop,
    j_graded,
    pull,
    push,
    span_of_translates,
    split_legal,
    translates_in,
    two_bridge_alexander,
)
from random_complexes import (
    default_seed,
    random_filtered_complex,
    reference_eliminate,
    reflection_symmetric_complex,
    scrambled_dual_copies,
)


def shuffled_unit_reduction(c: FilteredComplex, seed: int) -> ReducedForm:
    """reduce(c, "over_U_units") with every pivot drawn at random."""
    state = _Reduction(c)
    reference_eliminate(state, lambda s, t, k: k == 0, rng=random.Random(seed))
    return state.finish()


def two_step(k: int = 0) -> FilteredComplex:
    gens = [Generator("e", k, 1), Generator("f", 0, 2 * k)]
    return FilteredComplex(gens, {"e": {"f": k}})


class TestGenerator:
    def test_grading_is_int_when_integral(self):
        g = Generator("g", Fraction(4, 2), Fraction(3, 4))
        assert type(g.alexander) is int and g.alexander == 2
        assert type(g.maslov) is Fraction and g.maslov == Fraction(3, 4)
        h = Generator("h", True, 2.5)  # other inputs go through Fraction(x)
        assert (type(h.alexander), h.maslov) == (int, Fraction(5, 2))


class TestCheckComplex:
    def test_box_is_valid(self):
        assert check_complex(box()).ok

    def test_empty_complex_is_valid(self):
        assert check_complex(FilteredComplex([], {})).ok

    def test_grading_violation_is_flagged_once(self):
        c = box()
        diff = {s: dict(r) for s, r in c.differential.items()}
        diff["a"]["d"] = 0  # drops Maslov by 2, fine on filtrations and d^2
        broken = FilteredComplex(c.generators, diff)
        report = check_complex(broken)
        assert len(report.violations) == 1
        assert "Maslov" in report.violations[0]

    def test_filtration_violation_flagged(self):
        gens = [Generator("u", 0, 1), Generator("v", 2, 0)]
        report = check_complex(FilteredComplex(gens, {"u": {"v": 0}}))
        assert any("raises j-filtration" in v for v in report.violations)

    def test_d_squared_violation_located(self):
        gens = [Generator("u", 1, 2), Generator("v", 0, 1), Generator("w", -1, 0)]
        report = check_complex(FilteredComplex(gens, {"u": {"v": 0}, "v": {"w": 0}}))
        assert any("d^2(u)" in v for v in report.violations)

    def test_duplicate_names_rejected(self):
        with pytest.raises(BadParameter):
            FilteredComplex([Generator("g", 0, 0), Generator("g", 1, 1)], {})

    def test_reports_match_the_check_by_powers(self):
        # d^2 is checked by name parity on a graded complex; on valid
        # complexes and on each fault the report is the reference's, line
        # for line
        rng = random.Random(default_seed() + 11)
        faulty = set()
        for _ in range(40):
            c, _ = random_filtered_complex(rng, rng.randint(0, 3), rng.randint(1, 5),
                                           rng.randint(0, 40))
            for name, copy in corrupted_copies(c, rng).items():
                report = check_complex(copy)
                assert report == check_complex_by_powers(copy), name
                if name != "dropped entry":  # which may leave c valid
                    assert report.ok == (name == "valid"), name
                if not report.ok:
                    faulty.add(name)
                if name == "non-graded paths":  # even in names, odd in (name, power)
                    assert {"d^2(ga) contains U^0 gd", "d^2(ga) contains U^1 gd"} <= \
                        set(report.violations)
        assert faulty == {"dropped entry", "unknown target", "unknown row", "negative power",
                          "j-raising entry", "non-graded paths"}
        dc = build_dual_cone(flip(minus_twist_knot(7)), 1).complex
        report = check_complex(dc)
        assert report.ok and report == check_complex_by_powers(dc)


def corrupted_copies(c: FilteredComplex, rng: random.Random) -> dict[str, FilteredComplex]:
    """c, then copies of c with one structural fault each."""
    names = [g.name for g in c.generators]
    copies = {"valid": c}

    def copy(edit, extra=()) -> FilteredComplex:
        diff = {s: dict(r) for s, r in c.differential.items()}
        edit(diff)
        return FilteredComplex([*c.generators, *extra], diff)

    entries = list(c.entries())
    if entries:
        s, t, k = rng.choice(entries)
        copies["dropped entry"] = copy(lambda d: d[s].pop(t))
        copies["negative power"] = copy(lambda d: d[s].update({t: -1 - k}))
    src = c.generators[rng.randrange(len(c))]
    copies["unknown target"] = copy(lambda d: d.setdefault(src.name, {}).update(ghost=0))
    copies["unknown row"] = copy(lambda d: d.update(ghost={rng.choice(names): 0}))
    # Maslov drops by 1, j rises by 1; entries into src now square to it
    up = Generator("up", src.alexander + 1, src.maslov - 1)
    copies["j-raising entry"] = copy(lambda d: d.setdefault(src.name, {}).update(up=0), [up])
    # ga -> gb -> gd at U^0 and ga -> gc -> U gd: gd twice, at two powers
    square = [Generator("ga", 0, 1), Generator("gb", 0, 0), Generator("gc", 0, 0),
              Generator("gd", 0, -1)]
    copies["non-graded paths"] = copy(
        lambda d: d.update(ga={"gb": 0, "gc": 0}, gb={"gd": 0}, gc={"gd": 1}), square)
    return copies


class TestCancelPair:
    def test_two_generator_complex_cancels_to_empty(self):
        rf = cancel_pair(two_step(0), "e", "f")
        assert len(rf.complex) == 0

    def test_requires_unit_entry(self):
        with pytest.raises(ValueError, match="no unit"):
            cancel_pair(two_step(1), "e", "f")
        with pytest.raises(ValueError, match="no unit"):
            cancel_pair(two_step(0), "f", "e")

    def test_drops_exactly_two_generators_and_stays_valid(self):
        c = box()
        rf = cancel_pair(c, "a", "c")
        assert len(rf.complex) == len(c) - 2
        assert check_complex(rf.complex).ok

    def test_trace_round_trip_is_identity(self):
        c = box()
        rf = cancel_pair(c, "a", "c")
        for g in rf.complex.generators:
            assert push(rf, pull(rf, {g.name: 0})) == {g.name: 0}

    def test_traces_are_chain_maps(self):
        c = box()
        rf = cancel_pair(c, "b", "d")
        for g in rf.complex.generators:
            chain = {g.name: 0}
            assert c.boundary(pull(rf, chain)) == pull(rf, rf.complex.boundary(chain))
        for g in c.generators:
            if g.name in ("b", "d"):
                continue
            chain = {g.name: 0}
            assert rf.complex.boundary(push(rf, chain)) == push(rf, c.boundary(chain))


class TestReduce:
    def test_zero_differential_fixed_point(self):
        c = FilteredComplex([Generator("g", 0, 0), Generator("h", 1, 3)], {})
        rf = reduce(c, "over_U_units")
        assert rf.complex.differential == {}
        assert len(rf.complex) == 2
        assert rf.moves == []
        assert [push(rf, {n: 0}) for n in "gh"] == [{"g": 0}, {"h": 0}]
        assert [pull(rf, {n: 0}) for n in "gh"] == [{"g": 0}, {"h": 0}]

    def test_nothing_to_do_returns_the_input(self):
        # a twist model has no filtered unit entry, so nothing moves
        c = minus_twist_knot(5)
        rf = reduce(c, "filtered")
        assert rf.complex is c
        assert rf.moves == []

    def test_staircase_full_field_leaves_one_generator(self):
        rf = reduce(staircase(), "full_field")
        assert len(rf.complex) == 1

    def test_box_over_units_cancels_completely(self):
        rf = reduce(box(), "over_U_units")
        assert len(rf.complex) == 0

    def test_box_filtered_mode_cannot_move(self):
        # no box entry preserves both filtration coordinates at power 0
        rf = reduce(box(), "filtered")
        assert len(rf.complex) == 4

    def test_unknown_mode_and_grading_key_are_refused(self):
        with pytest.raises(BadParameter, match="unknown reduce mode 'bogus'"):
            reduce(box(), "bogus")
        with pytest.raises(BadParameter, match="unknown grading key 'bogus'"):
            grading_key(Generator("g", 0, 0), ("bogus",))

    def test_modes_leave_no_cancellable_entries(self):
        c, _ = random_filtered_complex(random.Random(7), 4, 5, 40)
        for mode, bad in [
            ("filtered", lambda cx, s, t, k: k == 0 and j_drop(cx, s, t, 0) == 0),
            ("over_U_units", lambda cx, s, t, k: k == 0),
            ("full_field", lambda cx, s, t, k: True),
        ]:
            cx = reduce(c, mode).complex
            assert not [e for e in cx.entries() if bad(cx, *e)]


class TestHomology:
    def test_empty_complex(self):
        assert homology(FilteredComplex([], {})).total_rank == 0

    def test_free_and_torsion_of_two_step(self):
        ranks = homology(two_step(2))
        assert ranks.ranks == {}
        assert ranks.torsion == {(0, 4): (2,)}

    def test_box_hat_slice_rank_at_alexander_zero(self):
        assert alexander_ranks(box())[0] == 2

    def test_random_complexes_match_construction(self):
        rng = random.Random(default_seed())
        for _ in range(40):
            c, expected = random_filtered_complex(rng, rng.randint(0, 4),
                                                  rng.randint(0, 5), rng.randint(0, 50))
            assert check_complex(c).ok
            assert homology(c, ("maslov",)) == expected

    def test_ranks_invariant_under_reduction(self):
        rng = random.Random(default_seed() + 1)
        for _ in range(15):
            c, _ = random_filtered_complex(rng, 3, 4, 30)
            for mode in ("filtered", "over_U_units"):
                assert homology(reduce(c, mode).complex, ("maslov",)) == homology(c, ("maslov",))

    def test_confluence_of_random_cancellation_orders(self):
        rng = random.Random(default_seed() + 2)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 3, 4, 30)
            base = homology(reduce(c, "over_U_units").complex, ("maslov",))
            for seed in range(3):
                shuffled = shuffled_unit_reduction(c, seed)
                assert homology(shuffled.complex, ("maslov",)) == base

    def test_alexander_keys_canonical_on_j_graded_complexes(self):
        # on j-graded complexes every elimination step preserves Alexander
        # labels, so the full bigraded table is order-independent
        rng = random.Random(default_seed() + 5)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 3, 4, 30)
            graded = j_graded(c)
            base = homology(graded)
            for seed in range(3):
                shuffled = shuffled_unit_reduction(graded, seed)
                assert homology(shuffled.complex) == base

    def test_agrees_with_dense_oracle_on_hat_slices(self):
        rng = random.Random(default_seed() + 3)
        for _ in range(20):
            c, _ = random_filtered_complex(rng, 3, 4, 30)
            sliced = slice_through(c, {g.name: 0 for g in c.generators})
            got = {Fraction(k[0]): v for k, v in homology(sliced, ("maslov",)).ranks.items()}
            assert got == dense_homology_by_maslov(sliced)

    def test_maslov_drop_invariant_everywhere(self):
        rng = random.Random(default_seed() + 4)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 2, 4, 25)
            for mode in ("filtered", "over_U_units"):
                assert check_complex(reduce(c, mode).complex).ok


class TestTraces:
    @pytest.mark.parametrize("mode", ["filtered", "over_U_units", "full_field"])
    def test_project_and_include_are_chain_maps(self, mode):
        rng = random.Random(default_seed() + 6)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 2, 4, 30)
            rf = reduce(c, mode)
            for g in c.generators:
                chain = {g.name: 0}
                assert rf.complex.boundary(push(rf, chain)) == push(rf, c.boundary(chain))
            for g in rf.complex.generators:
                chain = {g.name: 0}
                assert c.boundary(pull(rf, chain)) == pull(rf, rf.complex.boundary(chain))

    @pytest.mark.parametrize("mode", ["filtered", "over_U_units", "full_field"])
    def test_project_include_is_identity(self, mode):
        rng = random.Random(default_seed() + 7)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 2, 4, 30)
            rf = reduce(c, mode)
            for g in rf.complex.generators:
                assert push(rf, pull(rf, {g.name: 0})) == {g.name: 0}

    @pytest.mark.parametrize("mode", REDUCE_MODES)
    def test_induced_map_matches_the_column_oracle(self, mode):
        # the same random complexes, under the identity and a graded map that
        # shifts U-powers: n -> U^k m, m of n's Maslov parity, k fixed by them
        rng = random.Random(default_seed() + 6)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 2, 4, 30)
            shift = {}
            for g in c.generators:
                h = rng.choice([h for h in c.generators if (h.maslov - g.maslov) % 2 == 0])
                shift[g.name] = (h.name, (h.maslov - g.maslov) // 2)
            rf, rf_full = reduce(c, mode), reduce(c, "full_field")
            for image in ({g.name: (g.name, 0) for g in c.generators}, shift):
                names = {n: m for n, (m, _) in image.items()}
                for dom, cod in ((rf, rf), (rf, rf_full), (rf_full, rf)):
                    assert induced_map(dom, cod, names) == induced_map_by_columns(dom, cod, image)

    @pytest.mark.parametrize("mode", REDUCE_MODES)
    def test_induced_map_matches_the_column_oracle_on_the_infinity_flip(self, mode):
        # the infinity cone's h: g -> U^(-A) sigma g, given to induced_map as sigma
        rng = random.Random(default_seed() + 10)
        for _ in range(10):
            c = reflection_symmetric_complex(rng)
            sigma = flip(c).pairing
            image = {n: (m, -c.by_name[n].alexander) for n, m in sigma.items()}
            rf = reduce(c, mode)
            assert induced_map(rf, rf, sigma) == induced_map_by_columns(rf, rf, image)

    def test_induced_map_walks_each_trace_once(self):
        class Walked(list):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

            def __reversed__(self):
                self.walks += 1
                return super().__reversed__()

        c, _ = random_filtered_complex(random.Random(default_seed() + 11), 3, 4, 30)
        dom, cod = reduce(c, "full_field"), reduce(c, "over_U_units")
        dom, cod = (ReducedForm(rf.complex, Walked(rf.moves)) for rf in (dom, cod))
        assert len(dom.complex) > 1 and dom.moves and cod.moves
        induced_map(dom, cod, {g.name: g.name for g in c.generators})
        assert (dom.moves.walks, cod.moves.walks) == (1, 1)

    def test_filtered_trace_respects_filtration(self):
        # pulled-back chains never exceed the filtration of their class
        rng = random.Random(default_seed() + 8)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, 2, 4, 30)
            rf = reduce(c, "filtered")
            for g in rf.complex.generators:
                for name, power in pull(rf, {g.name: 0}).items():
                    assert power >= 0
                    assert c.by_name[name].alexander - power <= g.alexander


class TestSlices:
    def test_hat_slice_keeps_unit_entries_only(self):
        c = box()
        i_column = slice_through(c, {g.name: 0 for g in c.generators})
        assert set(i_column.entries()) == {("a", "c", 0), ("b", "d", 0)}

    def test_j_graded_keeps_horizontal_entries_only(self):
        assert set(j_graded(box()).entries()) == {("a", "b", 1), ("c", "d", 1)}

    def test_unknot_slices_trivial(self):
        assert homology(slice_through(unknot(), {"o": 0})).total_rank == 1

    def test_slice_through_spans_the_translates_each_region_picks(self):
        # each region of the (i, j)-plane against the power map its callers pass
        rng = random.Random(default_seed() + 9)
        for _ in range(30):
            c, _ = random_filtered_complex(rng, 3, 4, 30)
            alexander = {g.name: g.alexander for g in c.generators}
            regions = [(lambda i, j: i == 0, dict.fromkeys(alexander, 0)),
                       (lambda i, j: j == 0, alexander)]
            for s in range(min(alexander.values()) - 1, max(alexander.values()) + 2):
                minus = lambda i, j, s=s: i <= 0 and j == s
                regions += [(minus, {n: a - s for n, a in alexander.items() if a >= s}),
                            (lambda i, j, s=s: max(i, j - s) == 0,
                             {n: max(0, a - s) for n, a in alexander.items()})]
                # and g_map's domain, as g_map builds it
                domain = g_map(c, s).domain
                want = span_of_translates(c, translates_in(c, minus))
                assert (domain.generators, domain.differential) == \
                    (want.generators, want.differential)
            for region, power in regions:
                got = slice_through(c, power)
                want = span_of_translates(c, translates_in(c, region))
                assert (got.generators, got.differential) == (want.generators, want.differential)


ELIMINATE = _Reduction.eliminate


def pivot_lists(monkeypatch, eliminate, run) -> list[list[tuple[str, str, int]]]:
    """The pivots of every elimination run() makes, with eliminate choosing them."""
    seen = []

    def recording(self, accept, **flags):
        pivots = eliminate(self, accept, **flags)
        seen.append(pivots)
        return pivots

    monkeypatch.setattr(_Reduction, "eliminate", recording)
    try:
        run()
    except NormalFormMismatch:
        pass  # a random complex need not split; the pivots up to there still count
    return seen


def pivot_runs(c: FilteredComplex) -> dict:
    """Each elimination to compare, as (run, the reference's pivot test made
    from the working state, or None for the one the run passes)."""
    runs = {mode: (lambda mode=mode: reduce(c, mode), None) for mode in ("over_U_units",
                                                                        "full_field")}
    runs["filtered"] = (lambda: reduce(c, "filtered"), filtered_accept)
    runs["homology"] = (lambda: homology(c), None)
    runs["split_to_summands"] = (lambda: split_to_summands(c), split_legal)
    for s, t, k in c.entries():
        if k == 0:
            runs["cancel_pair"] = (lambda s=s, t=t: cancel_pair(c, s, t), None)
            break
    return runs


def reference_under(oracle):
    """reference_eliminate, admitting by oracle(state) when one is given in
    place of the package's own pivot test."""
    def eliminate(state, accept, **flags):
        return reference_eliminate(state, oracle(state) if oracle else accept, **flags)
    return eliminate


class TestPivotOrder:
    """The heap-fed loop, with the package's pivot tests, picks exactly the
    pivots of a brute-force scan with the reference's."""

    def test_random_complexes(self, monkeypatch):
        rng = random.Random(default_seed() + 7)
        covered, torsion, rejected = set(), False, False
        for _ in range(25):
            c, expected = random_filtered_complex(rng, rng.randint(0, 4), rng.randint(2, 6),
                                                  rng.randint(10, 60))
            rejected |= bool(reduce(c, "filtered").complex.differential)
            for name, (run, oracle) in pivot_runs(c).items():
                got = pivot_lists(monkeypatch, ELIMINATE, run)
                want = pivot_lists(monkeypatch, reference_under(oracle), run)
                assert got == want, name
                covered.add(name)
            # homology eliminates once per U-power, least first: its phases
            # together take the pivots of one lowest-power-first scan
            phases = pivot_lists(monkeypatch, ELIMINATE, lambda: homology(c))
            pivots = [pivot for phase in phases for pivot in phase]
            assert pivots == reference_eliminate(_Reduction(c), lambda *_: True, lowest_power=True)
            assert bool(expected.torsion) == any(k > 0 for *_, k in pivots)
            torsion |= bool(expected.torsion)
        assert covered == {"filtered", "over_U_units", "full_field", "homology",
                           "split_to_summands", "cancel_pair"}
        assert torsion and rejected

    # keep mode's inputs: dual cones, split after their filtered reduction,
    # and scrambled copies of the dual normal form, which are already reduced.
    # Only the -1 framings (and test_random_complexes) see a pivot that a
    # change to its row alone makes legal
    SPLIT_INPUTS = {
        **{f"{name} at {n}": lambda model=model, n=n: build_dual_cone(flip(model()), n).complex
           for name, model in [("minus-en:7", lambda: minus_twist_knot(7)),
                               ("mirror minus-en:7", lambda: mirror(minus_twist_knot(7)))]
           for n in (1, -1)},
        "minus-en:41 at 1": lambda: build_dual_cone(flip(minus_twist_knot(41)), 1).complex,
        **{f"scrambled copies {seed}": lambda seed=seed: scrambled_dual_copies(seed)
           for seed in range(3)},
    }

    @pytest.mark.parametrize("name", SPLIT_INPUTS)
    def test_dual_cone_split(self, monkeypatch, name):
        c = self.SPLIT_INPUTS[name]()
        filtered = reduce(c, "filtered").complex
        runs = [(lambda: split_to_summands(filtered), split_legal)]
        if len(filtered) < len(c):
            runs.append((lambda: reduce(c, "filtered"), filtered_accept))
        for run, oracle in runs:
            got = pivot_lists(monkeypatch, ELIMINATE, run)
            assert got == pivot_lists(monkeypatch, reference_under(oracle), run)
            assert got[0]


def accept_calls(monkeypatch, run) -> tuple[int, int]:
    """(accept calls, starting entries plus entries _set inserts) over every
    elimination run() makes outside keep mode."""
    calls, budget = [0], [0]
    set_entry = _Reduction._set

    def counting_set(self, src, tgt, power):
        set_entry(self, src, tgt, power)
        budget[0] += tgt in self.diff.get(src, {})

    def counting_eliminate(self, accept, **flags):
        assert not flags.get("keep")
        budget[0] += sum(len(row) for row in self.diff.values())

        def counted(s, t, k):
            calls[0] += 1
            return accept(s, t, k)
        return ELIMINATE(self, counted, **flags)

    monkeypatch.setattr(_Reduction, "_set", counting_set)
    monkeypatch.setattr(_Reduction, "eliminate", counting_eliminate)
    run()
    return calls[0], budget[0]


class TestAcceptCalls:
    """Outside keep mode, accept sees each entry once: when it starts out
    in the differential or when _set inserts it, never again per pivot."""

    def test_surgery_cone_every_sector(self, monkeypatch):
        model = minus_twist_knot(33)
        sectors = flattened_sectors(MappingCone.build(flip(model), 5, 1, "full"))

        def run():
            for hat, _ in sectors.values():
                homology(hat, ("maslov",))
        calls, budget = accept_calls(monkeypatch, run)
        assert 0 < calls <= budget

    def test_random_complex_every_mode(self, monkeypatch):
        c, _ = random_filtered_complex(random.Random(default_seed() + 8), 4, 8, 80)

        def run():
            for mode in ("filtered", "over_U_units", "full_field"):
                reduce(c, mode)
            homology(c)
            for s, t, k in c.entries():
                if k == 0:
                    cancel_pair(c, s, t)
        calls, budget = accept_calls(monkeypatch, run)
        assert 0 < calls <= budget


def keep_accept_calls(monkeypatch, run) -> tuple[int, int]:
    """(accept calls, budget) over the keep-mode eliminations run() makes.

    There accept reads the live row and column of its entry, so it may see
    an entry again, but only after a pivot changed that row or column: the
    budget is the starting and inserted entries plus, after each pivot, the
    entries of every row and column its isolate changed."""
    calls, budget = [0], [0]
    rows, cols = set(), set()
    set_entry, isolate, eliminate = _Reduction._set, _Reduction.isolate, ELIMINATE

    def counting_set(self, src, tgt, power):
        set_entry(self, src, tgt, power)
        budget[0] += tgt in self.diff.get(src, {})
        rows.add(src)
        cols.add(tgt)

    def counting_isolate(self, e, f):
        rows.clear()
        cols.clear()
        isolate(self, e, f)
        budget[0] += sum(len(self.diff.get(s, {})) for s in rows)
        budget[0] += sum(len(self.sources.get(t, {})) for t in cols)

    def counting_eliminate(self, accept, **flags):
        assert flags.get("keep")
        budget[0] += sum(len(row) for row in self.diff.values())

        def counted(s, t, k):
            calls[0] += 1
            return accept(s, t, k)
        return eliminate(self, counted, **flags)

    monkeypatch.setattr(_Reduction, "_set", counting_set)
    monkeypatch.setattr(_Reduction, "isolate", counting_isolate)
    monkeypatch.setattr(_Reduction, "eliminate", counting_eliminate)
    run()
    return calls[0], budget[0]


class TestKeepAcceptCalls:
    """In keep mode a rejected entry is tested again only once a pivot has
    changed its row or column, not after every pivot."""

    def test_dual_cone_split(self, monkeypatch):
        model = minus_twist_knot(41)
        filtered = reduce(build_dual_cone(flip(model), 1).complex, "filtered").complex
        calls, budget = keep_accept_calls(monkeypatch, lambda: split_to_summands(filtered))
        assert 0 < calls <= budget

    def test_random_complexes(self, monkeypatch):
        rng = random.Random(default_seed() + 10)
        for _ in range(10):
            c, _ = random_filtered_complex(rng, rng.randint(0, 4), rng.randint(4, 8),
                                           rng.randint(20, 80))

            def run():
                try:
                    split_to_summands(c)
                except NormalFormMismatch:
                    pass  # a random complex need not split; the calls up to there count
            calls, budget = keep_accept_calls(monkeypatch, run)
            assert calls <= budget


class TestGf2Rank:
    @staticmethod
    def columns(rows: list[list[int]]) -> list[int]:
        n_cols = len(rows[0]) if rows else 0
        return [sum(row[j] << i for i, row in enumerate(rows)) for j in range(n_cols)]

    def test_edge_cases(self):
        assert gf2.rank([]) == 0
        assert gf2.rank([0, 0, 0]) == 0
        assert gf2.rank([0b101, 0b101, 0, 0b101]) == 1
        assert gf2.rank([0b011, 0b110, 0b101]) == 2

    def test_matches_dense_oracle(self):
        rng = random.Random(default_seed() + 9)
        for _ in range(300):
            n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
            rows = [[int(rng.random() < 0.4) for _ in range(n_cols)] for _ in range(n_rows)]
            if n_cols and rng.random() < 0.5:  # append a repeated and a zero column
                j = rng.randrange(n_cols)
                rows = [row + [row[j], 0] for row in rows]
            assert gf2.rank(self.columns(rows)) == gf2_matrix_rank(rows)


def test_non_graded_basis_change_is_refused():
    # trace replays read names only, which is exact only on graded moves
    state = _Reduction(FilteredComplex([Generator("u", 0, 0), Generator("v", 0, 2)], {}))
    with pytest.raises(InternalError, match="non-graded"):
        state.basis_change("u", "v", 0)
    state.basis_change("u", "v", 1)  # Maslov(u) = Maslov(v) - 2m
    assert state.moves == [("u", "v", 1)]


def test_reduction_trace_does_not_depend_on_hash_seed():
    # columns are walked in insertion order, so the basis changes come out the
    # same in every process, not only the reduced complex, and so do the maps
    # on homology read through them
    script = ("import hashlib\n"
              "from floercone.cone import MappingCone\n"
              "from floercone.dual import build_dual_cone, g_map, normal_form\n"
              "from floercone.models import flip, minus_twist_knot\n"
              "c = minus_twist_knot(41)\n"
              "form = normal_form(build_dual_cone(flip(c), 1)).form\n"
              "hat = MappingCone.build(flip(c), 5, 1, 'full')._vertex_homology(0, 'hat')\n"
              "traced = (form.moves, g_map(form.complex).columns, hat.v, hat.h)\n"
              "print(hashlib.sha256(repr(traced).encode()).hexdigest())\n")
    src = str(Path(algebra.__file__).parent.parent)
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout)
    assert len(digests) == 1, digests


def test_engine_invariants_are_not_asserts():
    # assert statements vanish under python -O; the package's checks must not.
    # A failed check raises the typed InternalError, never AssertionError.
    def raises_assertion_error(node: ast.AST) -> bool:
        exc = getattr(node, "exc", None)
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(node, ast.Raise) and isinstance(exc, ast.Name) \
            and exc.id == "AssertionError"

    modules = sorted(Path(algebra.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert) or raises_assertion_error(node)]
        assert not found, (path.name, found)


def test_every_imported_name_is_used():
    # a name counts as used when code reads it or a string is exactly that
    # name, as an __all__ entry is
    modules = sorted(Path(algebra.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, (path.name, unused)


def test_every_public_name_is_reached():
    # a module-level function or class, or a method, public or private but
    # not a dunder, is read by package code outside its own definition, or is
    # a layer the benchmark's tracer rebinds by name: none is kept for tests
    # alone, and the package's __init__ only re-exports.  Reads match by
    # name, so a public method must not share its name with a field of
    # another package class (a NamedTuple annotation, a self.x assignment or
    # a __slots__ entry), whose reads would count for it.
    tracing = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
                        .read_text(encoding="utf-8"))
    layers = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    traced = {part for layer in layers.elts
              for part in (layer.elts[1].value.split(".")[0], layer.elts[1].value.split(".")[-1])}
    modules = sorted(Path(algebra.__file__).parent.glob("*.py"))
    assert modules
    defined, reads, fields, methods = [], {}, {}, []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [(path.name, node) for node in tree.body + [m for c in classes for m in c.body]
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        for c in classes:
            methods += [(c.name, node.name) for node in c.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
            for node in c.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.setdefault(node.target.id, set()).add(c.name)
            for node in ast.walk(c):
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) \
                                and t.value.id == "self":
                            fields.setdefault(t.attr, set()).add(c.name)
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        for slot in ast.walk(node.value):
                            if isinstance(slot, ast.Constant) and isinstance(slot.value, str):
                                fields.setdefault(slot.value, set()).add(c.name)
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path.name, node.lineno))
    assert len(defined) > 100 and fields and methods
    unreached = [(name, node.name) for name, node in defined if node.name not in traced
                 and all(where == name and node.lineno <= line <= node.end_lineno
                         for where, line in reads.get(node.name, []))]
    assert not unreached, unreached
    clashes = [(cls, name, sorted(fields[name] - {cls})) for cls, name in methods
               if fields.get(name, set()) - {cls}]
    assert not clashes, clashes


def test_no_module_imports_dataclasses():
    # a dataclass generates and compiles its methods at every import, about
    # 1 ms per class; records are NamedTuples or __slots__ classes instead
    modules = sorted(Path(algebra.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
                 or isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "dataclasses"]
        assert not found, (path.name, found)


def test_oracle_preconditions_hold_under_optimization():
    # pytest rewrites only test modules, so an assert in a helper would
    # vanish under python -O; the helpers raise instead
    with pytest.raises(ValueError, match="U-power-0"):
        dense_homology_by_maslov(staircase())
    for alpha in (0, 4, -3):
        with pytest.raises(ValueError, match="positive odd alpha"):
            two_bridge_alexander(alpha, 1)
    skew = ReducedForm(FilteredComplex([Generator(n, 0, 0) for n in "uvw"], {}),
                       [("u", "w", 0), ("v", "w", 1)])
    for replay in (push, pull):
        with pytest.raises(ValueError, match="non-graded"):
            replay(skew, {"u": 0, "v": 0})
    for helper in ("oracles.py", "random_complexes.py"):
        tree = ast.parse((Path(__file__).parent / helper).read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], helper
