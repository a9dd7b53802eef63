"""Surgery cone assembly, sectors, the full and paper windows, vertex inclusion."""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd
import random

import pytest

from floercone import algebra as algebra_module
from floercone import cone as cone_module
from floercone import gf2
from floercone.algebra import (
    FilteredComplex,
    Generator,
    GradedRanks,
    ReducedForm,
    check_complex,
    homology,
    induced_map,
    reduce,
    slice_through,
)
from floercone.cone import MappingCone, include_B
from floercone.dual import build_dual_cone
from floercone.errors import BadCoefficient, BadParameter, DomainError, InternalError, NoSuchVertex
from floercone.models import (
    box,
    dual_normal_form_model,
    euler_characteristic,
    flip,
    hat_knot_homology,
    minus_twist_knot,
    mirror,
    staircase,
    unknot,
)

from oracles import (
    dense_homology_by_maslov,
    dual_knot_phi,
    enumerate_hat_A_elements,
    enumerate_hat_B_elements,
    flattened_sectors,
    hat_map_is_quasi_iso,
    hat_sector_by_clamped_slices,
    include_B_by_flattening,
    restrict,
    span_of_translates,
    surgery_hat_rank,
    twist_surgery_hat_rank,
    two_bridge_alexander,
)
from random_complexes import default_seed, direct_sum, reflection_symmetric_complex


def cone_for(c, p, q, mode="paper"):
    return MappingCone.build(flip(c), p, q, mode)


def far_pair(a):
    """u at (a, 0) and its reflection w at (-a, -2a), no differential: top grading a."""
    return FilteredComplex([Generator("u", a, 0), Generator("w", -a, -2 * a)], {})


def torus_staircase(g):
    """Staircase of the left-handed T(2, 2g + 1), top Alexander grading g:
    a_k at A = g - k and M = 2g - k for k in [0, 2g], with d(a_2i) = U a_(2i-1)
    + a_(2i+1), each term present when its index is in range.  At g = 2,
    d(a0) = a1, d(a2) = U a1 + a3, d(a4) = U a3."""
    gens = [Generator(f"a{k}", g - k, 2 * g - k) for k in range(2 * g + 1)]
    diff: dict[str, dict[str, int]] = {}
    for i in range(g):
        diff.setdefault(f"a{2 * i}", {})[f"a{2 * i + 1}"] = 0
        diff.setdefault(f"a{2 * i + 2}", {})[f"a{2 * i + 1}"] = 1
    return FilteredComplex(gens, diff)


class TestAssembly:
    def test_bad_coefficients_rejected(self):
        c = staircase()
        f = flip(c)
        for p, q in [(0, 1), (2, 0), (2, -1), (4, 2)]:
            with pytest.raises(BadCoefficient):
                MappingCone.build(f, p, q)

    def test_top_is_the_largest_alexander_grading(self):
        for model, top, genus in [(unknot(), 0, 1), (minus_twist_knot(5), 1, 1),
                                  (torus_staircase(2), 2, 2)]:
            f = flip(model)
            assert (f.top, f.genus) == (top, genus)

    def test_element_table_maps_each_element_to_its_vertex(self):
        # one ConeVertex per vertex, the one vertices() lists, shared by its elements
        for cone in (build_dual_cone(flip(minus_twist_knot(5)), 1).cone,
                     cone_for(minus_twist_knot(5), -3, 2)):
            total, table = cone.total_complex()
            assert list(table) == [g.name for g in total.generators]
            assert set(table.values()) == set(cone.vertices())
            assert len({id(v) for v in table.values()}) == len(cone.vertices())
            for name, v in table.items():
                assert name.startswith(cone.element_name(v.segment, v.t, ""))

    def test_vertex_budget_is_inclusive(self):
        f = flip(unknot())
        # 60,001 A- and 59,999 B-vertices
        assert cone_module.windows(f, 2, 1, 0, 60_000) == (range(0, 60_001), range(2, 60_001))
        with pytest.raises(DomainError, match=r"120002 vertices \(MAX_CONE_VERTICES = 120000\)"):
            cone_module.windows(f, 2, 1, -1, 60_000)

    def test_reduction_budget_counts_the_upper_tail_once(self):
        # 1025 generators, top grading 500: the twist knot and a pair at A = +-500
        f = flip(direct_sum(minus_twist_knot(511), far_pair(500)))
        # A_s for s in [-472, 500] and the shared A_501, plus B: 975 counted
        for hi in (501, 50_000):
            assert cone_module.windows(f, 1, 1, -472, hi)[0] == range(-472, hi + 1)
        assert cone_module.windows(f, 1, 3, -1416, 1503)[0] == range(-1416, 1504)
        for q, lo in [(1, -473), (3, -1419)]:
            with pytest.raises(DomainError, match=r"1000400 model elements "
                                                  r"\(MAX_REDUCED_ELEMENTS = 1000000\)"):
                cone_module.windows(f, 1, q, lo, 50_000)

    def test_reduction_budget_counts_the_lower_tail_once(self):
        f = flip(direct_sum(minus_twist_knot(511), far_pair(500)))
        # the shared A_-501 and A_s for s in [-500, 472], plus B: 975 counted
        for lo in (-501, -50_000):
            assert cone_module.windows(f, 1, 1, lo, 472)[0] == range(lo, 473)
        for q, hi in [(1, 473), (3, 1419)]:
            with pytest.raises(DomainError, match=r"1000400 model elements "
                                                  r"\(MAX_REDUCED_ELEMENTS = 1000000\)"):
                cone_module.windows(f, 1, q, -50_000, hi)

    def test_flat_and_sector_budgets_are_inclusive(self, monkeypatch):
        cone = cone_for(staircase(), 1, 1, "full")  # 13 vertices, 3 generators each
        monkeypatch.setattr(cone_module, "MAX_FLAT_ELEMENTS", 39)
        cone.total_complex()
        monkeypatch.setattr(cone_module, "MAX_FLAT_ELEMENTS", 38)
        with pytest.raises(DomainError, match="39 elements"):
            cone.total_complex()
        rank = sum(len(cone._vertex_homology(s, "hat").reduced.complex)
                   for s in [cone.s_of(t) for t in cone.a_ts] + [cone.flip.top] * len(cone.b_ts))
        monkeypatch.setattr(cone_module, "MAX_SECTOR_RANK", rank)
        cone.sector_homology(0)
        include_B(cone, cone.b_ts[0])
        monkeypatch.setattr(cone_module, "MAX_SECTOR_RANK", rank - 1)
        for check in (lambda: cone.sector_homology(0), lambda: include_B(cone, cone.b_ts[0])):
            with pytest.raises(DomainError, match=f"rank {rank} "):
                check()

    def test_paper_ranges_match_minimal_truncation(self):
        cone = cone_for(minus_twist_knot(5), 1, 1)
        assert cone.a_ts == range(0, 1)
        assert cone.b_ts == range(0)
        cone = cone_for(minus_twist_knot(5), -1, 1)
        assert cone.a_ts == range(0, 1)
        assert cone.b_ts == range(-1, 1)

    def test_paper_range_covers_every_sector(self):
        for p in (2, 3, 5, -4):
            cone = cone_for(staircase(), p, 1)
            for i in cone.sectors:
                assert any(v.t % abs(p) == i for v in cone.vertices())

    @pytest.mark.parametrize("p,q", [(1, 1), (-1, 1), (3, 1), (-2, 1), (3, 2), (-3, 2), (2, 3)])
    def test_total_complex_is_valid(self, p, q):
        for model in (staircase(), box()):
            cone = cone_for(model, p, q)
            total, _ = cone.total_complex()
            assert check_complex(total).ok

    @pytest.mark.parametrize("mode", ["paper", "full"])
    @pytest.mark.parametrize("p", [1, -2, 3])
    def test_q1_flattening_carries_the_dual_knot_j(self, p, mode):
        # J - I from the formulas of the dual module docstring, at s = t; at
        # q = 2 the flattening carries no Alexander data
        c = minus_twist_knot(5)
        total, table = cone_for(c, p, 1, mode).total_complex()
        assert check_complex(total).ok
        for name, v in table.items():
            a = c.by_name[name.split(".", 1)[1]].alexander
            off = max(0, a - v.s) if v.segment == "A" else 0
            i, j = -off, a - off  # the element is the I = 0 translate
            if v.segment == "A":
                big_i, big_j = max(i, j - v.s), max(i - 1, j - v.s)
            else:
                big_i, big_j = i, i - 1
            big_j += Fraction(2 * v.s + p - 1, 2 * p)
            assert big_i == 0
            assert total.by_name[name].alexander == big_j - big_i
        if p % 2:
            total, _ = cone_for(c, p, 2, mode).total_complex()
            assert {g.alexander for g in total.generators} == {0}

    @pytest.mark.parametrize("p,q", [(3, 1), (3, 2), (-3, 2)])
    def test_spin_c_splitting(self, p, q):
        cone = cone_for(minus_twist_knot(5), p, q)
        total, table = cone.total_complex()
        for src, tgt, _ in total.entries():
            assert table[src].t % abs(p) == table[tgt].t % abs(p)

    @pytest.mark.parametrize("p,q", [(3, 1), (5, 2), (-7, 3), (1, 1), (-1, 1)])
    def test_sector_complex_is_restriction_of_whole(self, p, q):
        # each sector of the paper window flattens to the full window's
        # sector restricted to the paper window's elements
        f = flip(minus_twist_knot(5))
        full = flattened_sectors(MappingCone.build(f, p, q, "full"), hat=False)
        paper = flattened_sectors(MappingCone.build(f, p, q, "paper"), hat=False)
        for i, (part, table) in paper.items():
            whole, whole_table = full[i]
            own = restrict(whole, table)
            assert part.generators == own.generators, i
            assert part.differential == own.differential, i
            assert table == {name: whole_table[name] for name in table}, i

    @pytest.mark.parametrize("ts", [[0, 1], (0, 1), range(0, 4, 2)])
    @pytest.mark.parametrize("segment", ["A", "B"])
    def test_vertices_must_be_a_unit_step_range(self, ts, segment):
        windows = (ts, range(0, 2)) if segment == "A" else (range(0, 2), ts)
        with pytest.raises(BadParameter, match="must be a range of step 1"):
            MappingCone(flip(staircase()), 1, 1, *windows)

    def test_hat_vertex_element_counts_match_enumeration(self):
        c = staircase()
        cone = MappingCone(flip(c), 1, 1, range(0, 1), range(0, 1))
        hat, table = cone.hat_complex()
        a_elements = [n for n, info in table.items() if info.segment == "A"]
        assert len(a_elements) == len(enumerate_hat_A_elements(c, 0)) == 3
        b_elements = [n for n, info in table.items() if info.segment == "B"]
        assert len(b_elements) == 3  # one i = 0 translate per generator

    def test_box_hat_vertex_count(self):
        c = box()
        cone = MappingCone(flip(c), 1, 1, range(0, 1), range(0))
        assert len(cone.hat_complex()[0]) == len(enumerate_hat_A_elements(c, 0)) == 4


class TestQuasiIsoRange:
    @pytest.mark.parametrize("name,build", [
        ("staircase", staircase), ("box", box),
        ("twist5", lambda: minus_twist_knot(5)),
        ("dual5", lambda: dual_normal_form_model(5)),
        ("mirror5", lambda: mirror(minus_twist_knot(5))),
    ])
    def test_v_and_h_hat_maps(self, name, build):
        c = build()
        f = flip(c)
        g = f.genus
        for s in range(g, g + 3):
            assert hat_map_is_quasi_iso(f, s, "v")
        for s in range(-g - 2, -g + 1):
            assert hat_map_is_quasi_iso(f, s, "h")
        # inside the window neither map needs to be one
        assert not hat_map_is_quasi_iso(f, 0, "v") or not hat_map_is_quasi_iso(f, 0, "h") \
            or len(c) == 1


class TestSectorHomology:
    def test_poincare_type_answer(self):
        cone = cone_for(mirror(staircase()), 1, 1)
        ranks = cone.sector_homology(0)
        assert dict(ranks.ranks) == {(-2,): 1}

    def test_plus_one_on_unknot_is_three_sphere(self):
        for p in (1, -1):
            cone = cone_for(unknot(), p, 1)
            assert dict(cone.sector_homology(0).ranks) == {(0,): 1}

    @pytest.mark.parametrize("p,q", [(3, 1), (5, 1), (3, 2), (-3, 2), (5, 2), (4, 3), (-5, 3)])
    def test_lens_spaces_have_rank_one_sectors(self, p, q):
        cone = cone_for(unknot(), p, q)
        assert [cone.sector_homology(i).total_rank for i in cone.sectors] == [1] * abs(p)

    def test_l_space_surgery_on_trefoil(self):
        cone = cone_for(mirror(staircase()), 3, 1)
        assert [cone.sector_homology(i).total_rank for i in cone.sectors] == [1, 1, 1]

    def test_minus_one_matches_mirror_plus_one(self):
        # -p/q surgery on the mirror is p/q surgery on K with its orientation
        # reversed: the sectors' total ranks agree as multisets, and at q = 1,
        # where gradings are absolute, so do the hat graded ranks once the
        # Maslov gradings are negated
        coefficients = [(1, 1), (-1, 1), (2, 1), (-3, 1), (5, 2), (-7, 3), (3, 11)]
        for n in (1, 3, 9, 41, 241):
            c = minus_twist_knot(n)
            f, f_mirror = flip(c), flip(mirror(c))
            for p, q in coefficients:
                for flavor in ("hat", "infinity"):
                    sides = []
                    for model, sign in ((f, 1), (f_mirror, -1)):
                        cone = MappingCone.build(model, sign * p, q)
                        sides.append([cone.sector_homology(i, flavor) for i in cone.sectors])
                    ours, theirs = sides
                    assert sorted(r.total_rank for r in ours) == \
                        sorted(r.total_rank for r in theirs), (n, p, q, flavor)
                    if q == 1 and flavor == "hat":
                        negated = [{(-m,): r for (m,), r in ranks.ranks.items()}
                                   for ranks in theirs]
                        assert Counter(frozenset(r.ranks.items()) for r in ours) == \
                            Counter(frozenset(r.items()) for r in negated), (n, p)

    def test_sector_ranks_are_odd(self):
        for p, q in [(1, 1), (-1, 1), (3, 1), (3, 2), (-3, 2)]:
            for model in (staircase(), minus_twist_knot(5)):
                cone = cone_for(model, p, q)
                for i in cone.sectors:
                    assert cone.sector_homology(i).total_rank % 2 == 1

    def test_infinity_flavor_rank_one_per_sector(self):
        for p, q in [(1, 1), (-2, 1), (3, 2)]:
            cone = cone_for(staircase(), p, q)
            for i in cone.sectors:
                assert cone.sector_homology(i, "infinity").total_rank == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lens_space_correction_terms(self, p):
        # absolute gradings of the surgered unknot reproduce the classical
        # lens-space correction terms d(L(p,1), i) = (2i-p)^2/(4p) - 1/4
        cone = cone_for(unknot(), p, 1)
        for i in cone.sectors:
            ranks = cone.sector_homology(i)
            expected = Fraction((2 * i - p) ** 2, 4 * p) - Fraction(1, 4)
            assert dict(ranks.ranks) == {(expected if expected.denominator > 1
                                          else int(expected),): 1}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mirror_lens_space_correction_terms(self, p):
        cone = cone_for(unknot(), -p, 1)
        for i in cone.sectors:
            ranks = cone.sector_homology(i)
            expected = Fraction(1, 4) - Fraction((2 * i - p) ** 2, 4 * p)
            assert dict(ranks.ranks) == {(expected if expected.denominator > 1
                                          else int(expected),): 1}

    def test_hat_ranks_against_dense_oracle(self):
        for p, q in [(1, 1), (-1, 1), (2, 1), (-3, 2)]:
            cone = cone_for(minus_twist_knot(5), p, q)
            for i, (hat, _) in flattened_sectors(cone).items():
                got = {Fraction(k[0]): v
                       for k, v in cone.sector_homology(i).ranks.items()}
                assert got == dense_homology_by_maslov(hat)


def flattened_sector_homology(cone, flavor):
    """Every sector's ranks read off the flattened cone."""
    out = {}
    for i, (c, _) in flattened_sectors(cone, flavor == "hat").items():
        if flavor == "hat":
            out[i] = homology(c, ("maslov",))
            continue
        ranks = {}
        for g in reduce(c, "full_field").complex.generators:
            key = (g.maslov % 2,)
            ranks[key] = ranks.get(key, 0) + 1
        out[i] = GradedRanks(ranks)
    return out


class TestSectorKeyTypes:
    """A grading key is an int when integral and a Fraction only when not."""

    @staticmethod
    def keys(cone):
        return [k for i in cone.sectors for flavor in ("hat", "infinity")
                for (k,) in cone.sector_homology(i, flavor).ranks]

    @pytest.mark.parametrize("p,q", [(5, 2), (-7, 3), (13, 11)])
    def test_ints_when_q_above_one(self, p, q):
        keys = self.keys(cone_for(minus_twist_knot(9), p, q, "full"))
        assert keys and all(type(k) is int for k in keys)

    @pytest.mark.parametrize("p", [3, -5, 2])
    def test_fractions_only_when_not_integral(self, p):
        keys = self.keys(cone_for(staircase(), p, 1))
        assert any(type(k) is Fraction for k in keys)
        assert all(type(k) is int or k.denominator != 1 for k in keys)


class TestSectorsFromVertexHomology:
    """sector_homology assembles each sector on vertex homology through the
    exact triangle; the flattened cone is the reference."""

    MODELS = {
        "twist1": lambda: minus_twist_knot(1),
        "twist3": lambda: minus_twist_knot(3),
        "twist5": lambda: minus_twist_knot(5),
        "twist9": lambda: minus_twist_knot(9),
        "twist21": lambda: minus_twist_knot(21),
        "mirror9": lambda: mirror(minus_twist_knot(9)),
        "staircase": staircase,
        "mirror_staircase": lambda: mirror(staircase()),
        "unknot": unknot,
        # top grading 2: every A_s from 2 on is B, and each A_s below 0 is
        # A_(-s) through the flip
        "torus_2_5": lambda: torus_staircase(2),
        "mirror_torus_2_5": lambda: mirror(torus_staircase(2)),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_flattened_sector(self, name):
        c = self.MODELS[name]()
        f = flip(c)
        for p, q in [(1, 1), (-1, 1), (2, 1), (7, 1), (-3, 2), (5, 3), (-7, 5), (4, 7), (13, 11)]:
            for mode in ("paper", "full"):
                cone = MappingCone.build(f, p, q, mode)
                for flavor in ("hat", "infinity"):
                    flat = flattened_sector_homology(cone, flavor)
                    for i in cone.sectors:
                        assert cone.sector_homology(i, flavor) == flat[i], (p, q, mode, flavor, i)

    @pytest.mark.parametrize("g", [2, 5, 12])
    def test_torus_staircase_is_a_checked_model(self, g):
        c = torus_staircase(g)
        assert check_complex(c).ok
        assert flip(c).genus == flip(mirror(c)).genus == g
        assert euler_characteristic(hat_knot_homology(c)) == two_bridge_alexander(2 * g + 1, 1)

    @staticmethod
    def assert_each_vertex_reduced_once(monkeypatch, c, p, q):
        calls = {"reduce": 0, "homology": 0, "total_complex": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cone_module, "reduce", counting("reduce", cone_module.reduce))
        # cone does not import homology, so any call would go through algebra
        monkeypatch.setattr(algebra_module, "homology", counting("homology", algebra_module.homology))
        monkeypatch.setattr(MappingCone, "total_complex",
                            counting("total_complex", MappingCone.total_complex))
        cone = cone_for(c, p, q, "full")
        # hat: A_s once for each s in [0, top], B being A_top, every A_s
        # above top sharing A_top's and every A_s below 0 being A_(-s)
        # through the flip; infinity: the source once for the whole cone
        top = max(g.alexander for g in c.generators)
        s_values = {cone.s_of(t) for t in cone.a_ts}
        assert min(s_values) < -top - 1 and max(s_values) > top + 1
        distinct_slices = len({min(abs(s), top) for s in s_values})
        assert distinct_slices == top + 1
        reductions = []
        for flavor in ("hat", "infinity"):
            for _ in range(2):  # the vertex homology is kept on the cone
                for i in cone.sectors:
                    cone.sector_homology(i, flavor)
            reductions.append(calls["reduce"] - sum(reductions))
        assert reductions == [distinct_slices, 1]
        assert calls["homology"] == calls["total_complex"] == 0

    def test_each_vertex_reduced_once_and_nothing_flattened(self, monkeypatch):
        self.assert_each_vertex_reduced_once(monkeypatch, minus_twist_knot(9), -7, 3)

    @pytest.mark.parametrize("p,q", [(5, 2), (-3, 1)])
    @pytest.mark.parametrize("g", [2, 5, 12])
    def test_torus_staircase_reduced_once_per_vertex(self, monkeypatch, g, p, q):
        # g + 1 hat reductions per cone, whose sectors match one reduction
        # per clamped s and the flattened cone (163 vertices at g = 12)
        f = flip(torus_staircase(g))
        self.assert_each_vertex_reduced_once(monkeypatch, f.source, p, q)
        monkeypatch.undo()
        self.assert_matches_clamped_slices(f, [(p, q)])
        cone = MappingCone.build(f, p, q, "full")
        flat = flattened_sector_homology(cone, "hat")
        assert [cone.sector_homology(i) for i in cone.sectors] == [flat[i] for i in cone.sectors]

    def test_unknown_flavor(self):
        with pytest.raises(BadCoefficient):
            cone_for(staircase(), 3, 1).sector_homology(0, "minus")

    def test_unknown_range_mode(self):
        with pytest.raises(BadCoefficient, match="unknown range mode 'bogus'"):
            cone_for(staircase(), 3, 1, "bogus")

    def test_random_reflection_symmetric_models(self):
        # up to 22 generators and top grading up to 4; the full window
        # reaches both shared tails
        rng = random.Random(default_seed() + 50)
        cases = [(1, 1, "paper"), (-2, 1, "paper"), (3, 2, "paper"), (-5, 3, "paper"),
                 (3, 2, "full")]
        for _ in range(100):
            f = flip(reflection_symmetric_complex(rng))
            for p, q, mode in cases:
                cone = MappingCone.build(f, p, q, mode)
                for flavor in ("hat", "infinity"):
                    flat = flattened_sector_homology(cone, flavor)
                    for i in cone.sectors:
                        assert cone.sector_homology(i, flavor) == flat[i], (p, q, mode, flavor, i)
                sectors = flattened_sectors(cone)
                for t in cone.b_ts:
                    rep = include_B(cone, t)
                    got = (rep.domain_rank, rep.codomain_rank, rep.map_rank)
                    assert got == include_B_by_flattening(*sectors[rep.sector], t), (p, q, mode, t)

    @staticmethod
    def assert_matches_clamped_slices(f, cases=((1, 1), (-3, 1), (5, 2), (-7, 3))):
        # a fresh cone per case, include_B first, so it builds the vertex
        # records that sector_homology then reads
        for p, q in cases:
            cone = MappingCone.build(f, p, q, "full")
            s_values = {cone.s_of(t) for t in cone.a_ts}
            assert min(s_values) < -f.top - 1 and max(s_values) > f.top + 1
            for i in cone.sectors:
                ranks, include = hat_sector_by_clamped_slices(cone, i)
                for t, want in include.items():
                    rep = include_B(cone, t)
                    assert (rep.sector, rep.domain_rank, rep.codomain_rank, rep.map_rank) == \
                        (i, *want), (p, q, t)
                assert cone.sector_homology(i) == ranks, (p, q, i)

    CLAMPED_MODELS = {
        "unknot": unknot,
        "staircase": staircase,
        "box": box,
        "twist1": lambda: minus_twist_knot(1),
        "twist5": lambda: minus_twist_knot(5),
        "twist9": lambda: minus_twist_knot(9),
        "dual1": lambda: dual_normal_form_model(1),
        "dual5": lambda: dual_normal_form_model(5),
        "torus_2_5": lambda: torus_staircase(2),
    }

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(CLAMPED_MODELS))
    def test_shared_slices_match_one_reduction_per_clamped_s(self, name, mirrored):
        c = self.CLAMPED_MODELS[name]()
        self.assert_matches_clamped_slices(flip(mirror(c) if mirrored else c))

    def test_shared_slices_on_random_reflection_symmetric_models(self):
        # top grading 0 to 4; with every Alexander grading set to 0, top is 0
        # and the identity is a reflection
        rng = random.Random(default_seed() + 51)
        for draw in range(40):
            c = reflection_symmetric_complex(rng)
            if draw % 4 == 0:
                c = FilteredComplex([Generator(g.name, 0, g.maslov) for g in c.generators],
                                    c.differential)
            f = flip(c)
            assert draw % 4 or f.top == 0
            self.assert_matches_clamped_slices(f)

    def test_closed_forms_beyond_the_dense_oracle(self):
        # 253,139 flattened elements: every sector of a rational homology
        # sphere has odd hat rank with Euler characteristic +-1, and rank 1
        # over GF(2)[U,U^-1]
        c = minus_twist_knot(81)
        cone = cone_for(c, 301, 11, "full")
        for i in cone.sectors:
            ranks = cone.sector_homology(i, "hat")
            assert ranks.total_rank % 2 == 1
            assert abs(sum((-1) ** int(m) * r for (m,), r in ranks.ranks.items())) == 1
            assert cone.sector_homology(i, "infinity").total_rank == 1


class TestFullWindowAndTruncation:
    """The padded "full" window and the minimal "paper" one give the same
    sectors: the vertices only "full" has cancel through v (s >= genus) or
    h (s <= -genus)."""

    @staticmethod
    def assert_windows_agree(model, p, q):
        f = flip(model)
        full, paper = MappingCone.build(f, p, q, "full"), MappingCone.build(f, p, q, "paper")
        assert set(paper.a_ts) < set(full.a_ts)
        for i in full.sectors:
            assert full.sector_homology(i) == paper.sector_homology(i), i

    @pytest.mark.parametrize("p", [1, -1, 2, -3, 5, 7, -7])
    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_full_and_paper_agree_on_staircase(self, p, q):
        if gcd(p, q) != 1:
            pytest.skip("not coprime")
        self.assert_windows_agree(staircase(), p, q)

    @pytest.mark.parametrize("p,q", [(1, 1), (-2, 1), (3, 2)])
    def test_full_and_paper_agree_on_box(self, p, q):
        self.assert_windows_agree(box(), p, q)

    def test_truncated_cone_within_printed_window(self):
        cone = cone_for(minus_twist_knot(5), -3, 1)
        g, q = cone.flip.genus, cone.q
        for v in cone.vertices():
            if v.segment == "A":
                assert -(g - 1) * q <= v.t <= g * q - 1


class TestPhi:
    """phi solves phi(B,t) = phi(A,t) - 1 and phi(A,t+p) = phi(A,t) + 2 s(t);
    at q = 1 it is the absolute dual-knot correction, at q > 1 it is 0 on
    each sector's anchor t0 in [0, |p|) whatever the window."""

    MODELS = {
        "staircase": staircase,
        "mirror_staircase": lambda: mirror(staircase()),
        "box": box,
        "twist5": lambda: minus_twist_knot(5),
        "torus_2_5": lambda: torus_staircase(2),
    }

    @staticmethod
    def assert_edge_relations(cone):
        phi, p = cone.phi(), cone.p
        assert set(phi) == {(v.segment, v.t) for v in cone.vertices()}
        for t in cone.a_ts:
            a, step = phi[("A", t)], 2 * cone.s_of(t)
            for key, expected in [(("B", t), a - 1),             # v-edge
                                  (("B", t + p), a - 1 + step),  # h-edge
                                  (("A", t + p), a + step)]:
                if key in phi:
                    assert phi[key] == expected, (p, cone.q, t, key)

    @staticmethod
    def assert_closed_form(cone):
        for (segment, t), shift in cone.phi().items():
            expected = dual_knot_phi(cone.p, segment, t)
            assert (shift, type(shift)) == (expected, type(expected)), (cone.p, segment, t)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_every_coefficient_and_window(self, name):
        f = flip(self.MODELS[name]())
        for p in range(-13, 14):
            for q in range(1, 8):
                if p == 0 or gcd(p, q) != 1:
                    continue
                full, paper = (MappingCone.build(f, p, q, mode) for mode in ("full", "paper"))
                for cone in (full, paper):
                    self.assert_edge_relations(cone)
                    if q == 1:
                        self.assert_closed_form(cone)
                if q > 1:
                    phi = full.phi()
                    assert [phi.get(("A", t0)) for t0 in full.sectors] == [0] * abs(p)
                    assert paper.phi() == {key: phi[key] for key in paper.phi()}

    @pytest.mark.parametrize("n", [1, -1, 2, -2, 3, 5])
    def test_dual_cones(self, n):
        for model in (staircase(), minus_twist_knot(5), torus_staircase(2)):
            cone = build_dual_cone(flip(model), n).cone
            self.assert_edge_relations(cone)
            self.assert_closed_form(cone)

    def test_walks_each_sector_once(self, monkeypatch):
        # at most two steps per vertex and anchor: 16,004 for the 8,001
        # vertices of the 1/4001 cone, where one sum per vertex made 16,004,000
        calls = []
        s_of = MappingCone.s_of
        monkeypatch.setattr(MappingCone, "s_of", lambda self, t: calls.append(t) or s_of(self, t))
        cone = MappingCone.build(flip(staircase()), 1, 4001)
        cone.phi()
        assert len(cone.a_ts) + len(cone.b_ts) == 8001
        assert len(calls) <= 2 * (8001 + 1)


class TestTwistFamilyClosedForm:
    """The hat ranks of p/q surgery on minus_twist_knot(n), summed over all
    sectors, against the closed form (oracles.twist_surgery_hat_rank)."""

    @staticmethod
    @cache
    def twist_flip(n):
        return flip(minus_twist_knot(n))

    def assert_closed_form(self, n, p, q):
        cone = MappingCone.build(self.twist_flip(n), p, q)
        total = sum(cone.sector_homology(i).total_rank for i in cone.sectors)
        assert total == twist_surgery_hat_rank(n, p, q), (n, p, q)

    @pytest.mark.parametrize("n", [1, 3, 5, 9, 41])
    def test_small_ladder(self, n):
        for p in (1, 2, 3, 7, 61, -1, -2, -3, -7, -61):
            for q in (1, 2, 3, 5, 11, 101):
                if gcd(p, q) == 1:
                    self.assert_closed_form(n, p, q)

    @pytest.mark.parametrize("n,p,q", [(1, 1, 2001), (1, -1, 2001), (5, 7, 4001),
                                       (241, 301, 11), (241, -301, 11),
                                       (961, 61, 3), (961, -61, 3)])
    def test_large_cases(self, n, p, q):
        self.assert_closed_form(n, p, q)


class TestSurgeryFormula:
    """The hat ranks of p/q surgery, summed over every sector, against the
    rational surgery formula with each dim H(A_s) and nu read densely
    (oracles.surgery_hat_rank); p < 0 is -p/q surgery on the mirror."""

    MODELS = {
        "twist5": lambda: minus_twist_knot(5),
        "twist9": lambda: minus_twist_knot(9),
        "mirror_twist5": lambda: mirror(minus_twist_knot(5)),
        "staircase": staircase,
        "mirror_staircase": lambda: mirror(staircase()),
        "torus_2_5": lambda: torus_staircase(2),
        "mirror_torus_2_11": lambda: mirror(torus_staircase(5)),
    }
    COEFFICIENTS = [(1, 1), (2, 1), (5, 1), (23, 1), (1, 2), (3, 2), (2, 3), (1, 7), (9, 4),
                    (-1, 1), (-3, 1), (-1, 2), (-2, 5), (-7, 3)]

    @pytest.mark.parametrize("name", list(MODELS))
    def test_sum_of_sector_ranks(self, name):
        c = self.MODELS[name]()
        f = flip(c)
        for p, q in self.COEFFICIENTS:
            cone = MappingCone.build(f, p, q)
            total = sum(cone.sector_homology(i).total_rank for i in cone.sectors)
            want = surgery_hat_rank(c, p, q) if p > 0 else surgery_hat_rank(mirror(c), -p, q)
            assert total == want, (p, q)


class TestHatVertexHomology:
    """dim H^(A^_s), the input of the closed-form surgery rank, and dim H^(B^),
    from the cone's vertex reductions against the dense oracle on their
    translates."""

    MODELS = {
        "unknot": unknot,
        "staircase": staircase,
        "box": box,
        "twist1": lambda: minus_twist_knot(1),
        "twist5": lambda: minus_twist_knot(5),
        "twist9": lambda: minus_twist_knot(9),
        "dual1": lambda: dual_normal_form_model(1),
        "dual5": lambda: dual_normal_form_model(5),
        "torus_2_5": lambda: torus_staircase(2),
    }

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_dense_homology_of_the_translates(self, name, mirrored):
        c = self.MODELS[name]()
        c = mirror(c) if mirrored else c
        f = flip(c)
        # A_s below 0 is A_(-s) lifted by 2 s, from top on it is B, and
        # both tails lie past [-top, top]
        for s in range(-f.top - 4, f.top + 4):
            # at q = 1, vertex t is A_t
            cone = MappingCone(f, 1, 1, range(s, s + 1), range(s, s + 1))
            reduced = cone._vertex_homology(s, "hat").reduced.complex
            lift = cone_module._tail_lift(s)
            got = Counter(Fraction(g.maslov + lift) for g in reduced.generators)
            vertex = span_of_translates(c, enumerate_hat_A_elements(c, s))
            assert got == dense_homology_by_maslov(vertex), s
        # B^ is one vertex for every t, and it is A^_top
        cone = MappingCone(f, 1, 1, range(0), range(0, 1))
        reduced = cone._vertex_homology(f.top, "hat").reduced.complex
        got = Counter(Fraction(g.maslov) for g in reduced.generators)
        vertex = span_of_translates(c, enumerate_hat_B_elements(c))
        assert got == dense_homology_by_maslov(vertex)

    @staticmethod
    def assert_records_match_replays(f):
        # each record equals what reducing its own slice and replaying v and
        # h into B^ gives.  From 0 up it does so name by name: A_top's v is
        # written as the identity, and the records above top are A_top's.
        # Below 0 the record is A_(-s)'s through the flip, in A_(-s)'s basis,
        # so per Maslov grading it has the replay's dimension, and its
        # stacked (v | h) columns span the replay's
        source, sigma, top = f.source, f.pairing, f.top
        cone = MappingCone(f, 1, 1, range(0), range(0))
        b = reduce(slice_through(source, dict.fromkeys(source.by_name, 0)), "over_U_units")
        rows = len(b.complex)

        def stacked(generators, v, h, lift):
            span: dict[int, list[int]] = {}
            for g, v_col, h_col in zip(generators, v, h, strict=True):
                span.setdefault(g.maslov + lift, []).append(v_col | (h_col << rows))
            return span

        for s in range(-top - 2, top + 2):
            rf = reduce(slice_through(source, {g.name: max(0, g.alexander - s)
                                               for g in source.generators}), "over_U_units")
            v = induced_map(rf, b, {g.name: g.name for g in source.generators if g.alexander <= s})
            h = induced_map(rf, b, {g.name: sigma[g.name] for g in source.generators
                                    if g.alexander >= s})
            record = cone._vertex_homology(s, "hat")
            lift = cone_module._tail_lift(s)
            if s >= 0:
                assert [(g.name, g.maslov + lift) for g in record.reduced.complex.generators] == \
                    [(g.name, g.maslov) for g in rf.complex.generators], s
                assert (record.v, record.h) == (v, h), s
                continue
            got = stacked(record.reduced.complex.generators, record.v, record.h, lift)
            want = stacked(rf.complex.generators, v, h, 0)
            assert got.keys() == want.keys(), s
            for m, cols in got.items():
                assert len(cols) == len(want[m]), (s, m)
                assert gf2.rank(cols) == gf2.rank(want[m]) == gf2.rank(cols + want[m]), (s, m)

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_tail_records_match_replayed_maps(self, name, mirrored):
        c = self.MODELS[name]()
        self.assert_records_match_replays(flip(mirror(c) if mirrored else c))

    def test_tail_records_match_replayed_maps_at_top_zero(self):
        # with every Alexander grading 0 the identity is a reflection, top is
        # 0, and every record comes from the one reduced slice A^_0
        rng = random.Random(default_seed() + 52)
        for _ in range(40):
            c = reflection_symmetric_complex(rng)
            f = flip(FilteredComplex([Generator(g.name, 0, g.maslov) for g in c.generators],
                                     c.differential))
            assert f.top == 0
            self.assert_records_match_replays(f)

    def test_unreduced_vertex_is_an_internal_error(self, monkeypatch):
        # every record passes the check, in hat and in infinity, and include_B
        # reads it too
        monkeypatch.setattr(cone_module, "reduce", lambda c, mode: ReducedForm(c, []))
        f = flip(staircase())
        for flavor, vertex in (("hat", "vertex A_"), ("infinity", "the source ")):
            cone = MappingCone.build(f, -3, 1, "full")
            with pytest.raises(InternalError, match=f"{vertex}.*keeps a differential"):
                cone.sector_homology(0, flavor)
        cone = MappingCone.build(f, -3, 1, "full")
        with pytest.raises(InternalError, match="vertex A_.*keeps a differential"):
            include_B(cone, cone.b_ts[0])


class TestIncludeB:
    def test_missing_vertex(self):
        cone = cone_for(staircase(), 1, 1)
        with pytest.raises(NoSuchVertex):
            include_B(cone, 0)

    def test_identity_when_sector_is_one_vertex(self):
        cone = cone_for(dual_normal_form_model(5), -2, 1)
        rep = include_B(cone, -1)
        assert rep.sector == 1
        if rep.domain_rank == rep.codomain_rank:
            assert rep.isomorphism

    def test_structure_of_negative_fraction_cone(self):
        # sector t = -1 of the -(k+1)/k cone: the s = 1 vertex maps onto B(-1)
        k = 2
        model = dual_normal_form_model(5)
        cone = cone_for(model, -(k + 1), k, "full")
        sector = (-1) % (k + 1)
        ts = {(v.segment, v.t) for v in cone.vertices() if cone.spin_c(v.t) == sector}
        assert ("A", -1) in ts and ("A", k) in ts and ("B", -1) in ts
        total, table = flattened_sectors(cone, hat=False)[sector]
        crossing = [(s, t) for s, t, _ in total.entries()
                    if table[s].segment == "A" and table[s].t == k
                    and table[t].segment == "B" and table[t].t == -1]
        assert crossing
        rep = include_B(cone, -1)
        assert rep.isomorphism

    MODELS = {
        "twist3": lambda: minus_twist_knot(3),
        "twist5": lambda: minus_twist_knot(5),
        "mirror5": lambda: mirror(minus_twist_knot(5)),
        "staircase": staircase,
        "box": box,
        "dual5": lambda: dual_normal_form_model(5),
        "mirror_dual3": lambda: mirror(dual_normal_form_model(3)),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_flattened_sector(self, name):
        # every B vertex, against reducing the flattened sector and the vertex
        c = self.MODELS[name]()
        f = flip(c)
        for p, q in [(1, 1), (-2, 1), (3, 2), (-3, 2), (5, 3), (-4, 3)]:
            for mode in ("paper", "full"):
                cone = MappingCone.build(f, p, q, mode)
                sectors = flattened_sectors(cone)
                for t in cone.b_ts:
                    rep = include_B(cone, t)
                    assert rep.sector == cone.spin_c(t)
                    got = (rep.domain_rank, rep.codomain_rank, rep.map_rank)
                    assert got == include_B_by_flattening(*sectors[rep.sector], t), (p, q, mode, t)

    def test_nothing_flattened(self, monkeypatch):
        calls = []
        total_complex = MappingCone.total_complex
        monkeypatch.setattr(MappingCone, "total_complex",
                            lambda *a, **k: calls.append(1) or total_complex(*a, **k))
        model = dual_normal_form_model(5)
        cone = cone_for(model, -3, 2, "full")
        assert all(include_B(cone, t).sector == cone.spin_c(t) for t in cone.b_ts)
        f = flip(model)
        assert hat_map_is_quasi_iso(f, 2, "v") and hat_map_is_quasi_iso(f, -2, "h")
        assert calls == []
