"""Dual-knot cone: decorations, normal form, U = 1 map, class separation."""

import random
from fractions import Fraction

import pytest

from floercone import algebra, dual, models
from floercone.algebra import (
    FilteredComplex,
    Generator,
    check_complex,
    homology,
    reduce,
    slice_through,
)
from floercone.cone import MappingCone
from floercone.dual import (
    DualCone,
    build_dual_cone,
    distinct_classes,
    g_map,
    loss_grading,
    normal_form,
    split_to_summands,
)
from floercone.errors import BadFraming, NonIntegral, NormalFormMismatch, NotCycles
from floercone.models import (
    box,
    dual_normal_form_model,
    flip,
    flip_violations,
    hat_knot_homology,
    minus_twist_flip,
    minus_twist_knot,
    staircase,
    unknot,
)

from oracles import flattened_sectors, pull, push
from random_complexes import default_seed, random_filtered_complex


def dual_for(c, n=1):
    return build_dual_cone(flip(c), n)


class TestBuildDualCone:
    def test_rejects_zero_framing(self):
        with pytest.raises(BadFraming):
            dual_for(staircase(), 0)

    def test_vertex_ranges(self):
        dc = dual_for(minus_twist_knot(5), 1)
        assert dc.cone.a_ts == range(0, 2)
        assert dc.cone.b_ts == range(1, 2)

    def test_complex_verified_at_build(self):
        for n in (1, -1, 2, -3):
            dc = dual_for(minus_twist_knot(5), n)
            assert check_complex(dc.complex).ok

    def test_model_is_checked_once(self, monkeypatch):
        # the FlipMap validates the model; the assembled cone is checked apart
        model = minus_twist_knot(9)
        seen = []
        for module in (algebra, dual):
            monkeypatch.setattr(module, "check_complex",
                                lambda c: seen.append(c) or check_complex(c))
        dc = build_dual_cone(flip(model), 1)
        assert sum(c is model for c in seen) == 1
        assert seen == [model, dc.complex]

    def test_staircase_decorations(self):
        dc = dual_for(staircase(), 1)
        by_name = {g.name: (g.alexander, g.maslov) for g in dc.complex.generators}
        assert by_name["A0.x"] == (0, 0)
        assert by_name["A0.y"] == (0, 1)
        assert by_name["A0.z"] == (-1, 0)
        assert by_name["A1.x"] == (1, 2)
        assert by_name["B1.y"] == (0, 0)

    def test_unknot_dual_is_single_generator(self):
        nfr = normal_form(dual_for(unknot(), 1))
        assert len(nfr.form.complex) == 1
        assert nfr.summands[0].kind == "free"
        assert nfr.summands[0].position == ((Fraction(0), Fraction(0)),)

    def test_framing_one_gradings_are_ints(self):
        dc = dual_for(minus_twist_knot(5), 1)
        for c in (dc.complex, normal_form(dc).form.complex):
            assert all(type(g.alexander) is int and type(g.maslov) is int
                       for g in c.generators)

    def test_fractional_gradings_for_other_framings(self):
        dc = dual_for(staircase(), 3)
        assert any(g.alexander.denominator > 1 for g in dc.complex.generators)
        assert check_complex(dc.complex).ok


class TestJCollapse:
    @pytest.mark.parametrize("n", [1, -1, 2, -2, 3])
    def test_dual_cone_matches_plain_cone_ranks(self, n):
        c = minus_twist_knot(5)
        dc = dual_for(c, n)
        plain = MappingCone.build(flip(c), n, 1, "full")
        # hat-level comparison: I-preserving part of the dual complex per sector
        for i, (hat_dual, _) in flattened_sectors(dc.cone).items():
            assert homology(hat_dual, ("maslov",)).total_rank == \
                plain.sector_homology(i).total_rank


class TestNormalForm:
    @pytest.mark.parametrize("n,gens", [(1, 5), (3, 9), (5, 13), (7, 17)])
    def test_twist_knot_normal_forms(self, n, gens):
        nfr = normal_form(dual_for(minus_twist_knot(n), 1))
        assert len(nfr.form.complex) == gens
        m = (n + 1) // 2
        assert nfr.count("free") == 1
        assert nfr.count("horizontal") == m
        assert nfr.count("vertical") == m

    def test_normal_form_matches_declared_model(self):
        nfr = normal_form(dual_for(minus_twist_knot(5), 1))
        model = dual_normal_form_model(5)
        got = sorted((g.alexander, g.maslov) for g in nfr.form.complex.generators)
        want = sorted((g.alexander, g.maslov) for g in model.generators)
        assert got == want
        assert hat_knot_homology(nfr.form.complex).ranks == hat_knot_homology(model).ranks

    def test_trace_round_trip(self):
        dc = dual_for(minus_twist_knot(5), 1)
        nfr = normal_form(dc)
        for g in nfr.form.complex.generators:
            assert push(nfr.form, pull(nfr.form, {g.name: 0})) == {g.name: 0}

    def test_trace_is_a_chain_map(self):
        dc = dual_for(minus_twist_knot(5), 1)
        nfr = normal_form(dc)
        src, red = dc.complex, nfr.form.complex
        for g in red.generators:
            chain = {g.name: 0}
            assert src.boundary(pull(nfr.form, chain)) == pull(nfr.form, red.boundary(chain))
        for g in src.generators:
            chain = {g.name: 0}
            assert red.boundary(push(nfr.form, chain)) == push(nfr.form, src.boundary(chain))

    def test_box_contributes_one_h_and_one_v(self):
        # the box dual cone reduces to a horizontal and a vertical pair
        dc = dual_for(box(), 1)
        rf = reduce(dc.complex, "filtered")
        assert len(rf.complex) == 4
        split = split_to_summands(rf.complex)
        kinds = sorted(len(row) and 1 for row in split.complex.differential.values())
        positions = sorted((g.alexander, g.maslov) for g in split.complex.generators)
        assert positions == [(-1, 0), (0, 1), (0, 1), (1, 2)]

    def test_no_legal_pivot_is_a_mismatch(self):
        # d(a) = x + U y: each entry is beaten in its row by the other, one
        # in U-power and one in j-drop, so no filtered change of basis splits it
        c = FilteredComplex([Generator("a", 0, 1), Generator("x", -1, 0), Generator("y", 1, 2)],
                            {"a": {"x": 0, "y": 1}})
        assert check_complex(c).ok
        with pytest.raises(NormalFormMismatch):
            split_to_summands(c)

    O = [Generator("o", 0, 0)]
    H = [Generator("yh", -1, 0), Generator("xh", 0, 1)]
    V = [Generator("yv", 1, 2), Generator("xv", 0, 1)]

    @pytest.mark.parametrize("gens, diff, message", [
        # the row of test_no_legal_pivot_is_a_mismatch: a row that stays
        # non-monomial is refused by the splitting before it is classified
        ([Generator("a", 0, 1), Generator("x", -1, 0), Generator("y", 1, 2)],
         {"a": {"x": 0, "y": 1}}, "no filtered splitting: no legal pivot remains"),
        # e -> f raises the filtration, so splitting it turns s -> f into
        # the U^0 entry s -> h between equal Alexander gradings
        ([Generator("e", 0, 1), Generator("s", 1, 1), Generator("f", 2, 0), Generator("h", 1, 0)],
         {"e": {"f": 0, "h": 0}, "s": {"f": 0}}, "s -> h is a leftover filtered unit"),
        ([Generator("o", 0, 2)], {}, r"free generator at \(\(0, 2\),\), expected the origin"),
        (O + [Generator("yh", -1, 2), Generator("xh", 0, 3)] + V,
         {"yh": {"xh": 1}, "yv": {"xv": 0}}, r"horizontal pair at \(\(-1, 2\), \(0, 3\)\)"),
        (O + H + [Generator("yv", 1, 4), Generator("xv", 0, 3)],
         {"yh": {"xh": 1}, "yv": {"xv": 0}}, r"vertical pair at \(\(1, 4\), \(0, 3\)\)"),
        (O + H + V, {"yh": {"xh": 2}, "yv": {"xv": 0}}, "horizontal pair without U-power 1"),
    ], ids=["non-monomial row", "filtered unit", "free position", "horizontal position",
            "vertical position", "horizontal power"])
    def test_mismatches_are_refused(self, gens, diff, message):
        cone = dual_for(unknot(), 1).cone
        with pytest.raises(NormalFormMismatch, match=f"^{message}$"):
            normal_form(DualCone(cone, FilteredComplex(gens, diff)))

    def test_hand_made_normal_form_passes(self):
        c = FilteredComplex(self.O + self.H + self.V, {"yh": {"xh": 1}, "yv": {"xv": 0}})
        nfr = normal_form(DualCone(dual_for(unknot(), 1).cone, c))
        assert [nfr.count(kind) for kind in ("free", "horizontal", "vertical")] == [1, 1, 1]

    def test_wrong_framing_rejected(self):
        with pytest.raises(BadFraming):
            normal_form(dual_for(minus_twist_knot(5), 2))

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 41])
    def test_reflection_is_the_searched_one(self, n):
        nfr = normal_form(build_dual_cone(minus_twist_flip(n), 1))
        assert nfr.reflection().pairing == flip(nfr.form.complex).pairing

    def test_reflection_is_checked(self, monkeypatch):
        nfr = normal_form(build_dual_cone(minus_twist_flip(5), 1))
        calls = []
        monkeypatch.setattr(models, "flip_violations",
                            lambda c, pairing: calls.append(len(c)) or flip_violations(c, pairing))
        assert nfr.reflection().source is nfr.form.complex
        assert calls == [13]


class TestGMap:
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_injective_on_top_grading(self, n):
        nfr = normal_form(dual_for(minus_twist_knot(n), 1))
        rep = g_map(nfr.form.complex)
        assert rep.alexander == 1
        assert rep.domain_dim == (n + 1) // 2
        assert rep.map_rank == rep.domain_dim
        assert rep.injective

    def test_defined_on_declared_model(self):
        rep = g_map(dual_normal_form_model(9))
        assert rep.domain_dim == 5
        assert rep.map_rank == 5

    def test_codomain_is_manifold_rank(self):
        # surgered manifold rank: 1 + 2 * (n+1)/2 generators survive
        rep = g_map(dual_normal_form_model(5))
        assert rep.codomain_dim == 7

    def test_zero_complex_vacuously_injective(self):
        rep = g_map(dual_normal_form_model(5), alexander=3)
        assert rep.domain_dim == 0
        assert rep.injective


class TestDistinctClasses:
    def test_independent_top_classes_stay_distinct(self):
        gm = g_map(dual_normal_form_model(5))
        assert distinct_classes(gm, ["yv1"], ["yv1", "yv2"])
        assert distinct_classes(gm, ["yv1"], ["yv2"])

    def test_identical_cycles_agree(self):
        gm = g_map(dual_normal_form_model(5))
        assert not distinct_classes(gm, ["yv1"], ["yv1"])

    def test_homologous_cycles_agree(self):
        # in the s = -1 slice the x-h translates are boundaries of the y-h ones
        gm = g_map(dual_normal_form_model(5), -1)
        assert not distinct_classes(gm, ["yv1"], ["yv1", "xh1"])

    def test_non_cycles_rejected(self):
        c = dual_normal_form_model(5)
        with pytest.raises(NotCycles):
            distinct_classes(g_map(c, -1), ["yh1"], ["yv1"])
        with pytest.raises(NotCycles):
            distinct_classes(g_map(c), ["nope"], ["yv1"])
        # yh1 has Alexander -1, so it is outside the top slice
        with pytest.raises(NotCycles, match="Alexander-1 slice"):
            distinct_classes(g_map(c), ["yh1"], ["yv1"])

    def test_matches_the_pushed_chains_of_the_oracle(self):
        # random cycles of each slice: sums of pulled-back homology classes
        # and boundaries, compared by their pushed chains in the j = 0 column
        rng = random.Random(default_seed() + 12)
        models = [random_filtered_complex(rng, 2, 4, 30)[0] for _ in range(6)]
        models.append(dual_for(minus_twist_knot(3), 1).complex)  # its j = 0 column has moves
        seen = set()
        for c in models:
            for s in sorted({g.alexander for g in c.generators}):
                gm = g_map(c, s)
                rf = reduce(gm.domain, "over_U_units")
                parts = [set(pull(rf, {g.name: 0})) for g in rf.complex.generators]
                parts += [set(gm.domain.boundary({g.name: 0})) for g in gm.domain.generators]

                def cycle() -> set[str]:
                    names: set[str] = set()
                    for part in rng.sample(parts, rng.randint(0, len(parts))):
                        names ^= part
                    return names

                for _ in range(10):
                    a, b = cycle(), cycle()
                    want = push(gm.codomain, dict.fromkeys(a, 0)) != push(gm.codomain, dict.fromkeys(b, 0))
                    assert distinct_classes(gm, a, b) == want
                    seen.add(want)
        assert seen == {False, True}

    def test_reads_the_reports_slice_and_codomain(self, monkeypatch):
        c = dual_normal_form_model(5)
        for s in (1, -1):
            gm = g_map(c, s)
            sl = slice_through(c, {g.name: g.alexander - s for g in c.generators
                                   if g.alexander >= s})
            assert gm.domain.generators == sl.generators
            assert gm.domain.differential == sl.differential
        gm = g_map(c, -1)
        monkeypatch.setattr(dual, "reduce", lambda *a: pytest.fail("reduced again"))
        monkeypatch.setattr(dual, "slice_through", lambda *a: pytest.fail("sliced again"))
        assert distinct_classes(gm, ["yv1"], ["yv2"])
        assert not distinct_classes(gm, ["yv1"], ["yv1", "xh1"])


class TestLossGrading:
    def test_values(self):
        assert loss_grading(0, -1) == 1
        assert loss_grading(1, 0) == 1
        assert loss_grading(-1, 0) == 0

    def test_parity_error(self):
        with pytest.raises(NonIntegral):
            loss_grading(1, 1)

    def test_stabilization_invariance(self):
        for k in range(5):
            assert loss_grading(1 - k, 0 - k) == loss_grading(1, 0)


class TestMinusSlice:
    def test_top_slice_of_normal_model(self):
        c = dual_normal_form_model(5)
        sl = slice_through(c, {g.name: g.alexander - 1 for g in c.generators if g.alexander >= 1})
        assert {g.name for g in sl.generators} == {"yv1", "yv2", "yv3"}
        assert sl.differential == {}
