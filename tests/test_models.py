"""Model builders, flip maps, knot homology, Alexander polynomials."""

import random
import time
from fractions import Fraction

import pytest

from floercone.algebra import (
    FilteredComplex,
    Generator,
    GradedRanks,
    _Reduction,
    check_complex,
    homology,
    slice_through,
)
from floercone import models
from floercone.errors import BadCoefficient, BadParameter, DomainError, UnsupportedModel
from floercone.models import (
    FlipMap,
    box,
    dual_normal_form_model,
    flip,
    flip_violations,
    euler_characteristic,
    hat_knot_homology,
    minus_twist_flip,
    minus_twist_knot,
    mirror,
    poly_string,
    staircase,
    unknot,
)

from oracles import (
    alexander_ranks,
    flip_by_rescanning,
    hfk_minus,
    j_graded,
    twist_knot_alexander,
)
from random_complexes import (
    default_seed,
    direct_sum,
    reflection_symmetric_complex,
    scrambled_dual_copies,
)


def named_box(suffix: str) -> FilteredComplex:
    """The box with suffix on each generator name, as the twist model names its boxes."""
    return FilteredComplex(*models._box_parts(suffix))


def hat_manifold_homology(c: FilteredComplex) -> GradedRanks:
    """Homology of the i = 0 column: the ambient manifold's hat invariant."""
    return homology(slice_through(c, {g.name: 0 for g in c.generators}), ("maslov",))


def hfk_minus_module(c: FilteredComplex, keys=("alexander", "maslov")) -> GradedRanks:
    """Minus-flavor knot homology as a GF(2)[U]-module (all s at once)."""
    return homology(j_graded(c), keys)


ALL_MODELS = {
    "unknot": unknot,
    "staircase": staircase,
    "box": box,
    "twist5": lambda: minus_twist_knot(5),
    "twist9": lambda: minus_twist_knot(9),
    "dual5": lambda: dual_normal_form_model(5),
}


@pytest.mark.parametrize("name", ALL_MODELS)
def test_models_are_valid(name):
    assert check_complex(ALL_MODELS[name]()).ok


class TestBuilders:
    def test_twist_knot_generator_counts(self):
        assert len(minus_twist_knot(5)) == 11
        assert len(minus_twist_knot(1)) == 3
        assert len(minus_twist_knot(9)) == 19

    def test_twist_knot_rejects_even_or_nonpositive(self):
        for bad in (0, -3, 4, 2):
            with pytest.raises(BadParameter):
                minus_twist_knot(bad)

    def test_staircase_hat_ranks(self):
        ranks = hat_knot_homology(staircase())
        assert ranks.ranks == {(1, 2): 1, (0, 1): 1, (-1, 0): 1}

    def test_box_hat_ranks(self):
        assert alexander_ranks(box()) == {1: 1, 0: 2, -1: 1}

    def test_twist_knot_hat_ranks(self):
        assert alexander_ranks(minus_twist_knot(5)) == {1: 3, 0: 5, -1: 3}
        assert alexander_ranks(minus_twist_knot(9)) == {1: 5, 0: 9, -1: 5}

    def test_total_hat_rank_is_determinant(self):
        for n in (1, 3, 5, 7, 9, 11, 13):
            assert hat_knot_homology(minus_twist_knot(n)).total_rank == 2 * n + 1

    def test_models_have_manifold_rank_one(self):
        for n in (1, 5, 9):
            assert hat_manifold_homology(minus_twist_knot(n)).total_rank == 1
        assert hat_manifold_homology(unknot()).total_rank == 1

    def test_dual_model_counts(self):
        assert len(dual_normal_form_model(5)) == 13
        assert len(dual_normal_form_model(7)) == 17

    def test_twist_knot_is_the_staircase_then_its_boxes(self):
        # written in one list and one dict, in the order of the direct sum
        for n in (1, 3, 9):
            c = minus_twist_knot(n)
            boxes = [named_box(str(i)) for i in range(1, (n - 1) // 2 + 1)]
            parts = direct_sum(staircase(), *boxes)
            assert c.generators == parts.generators
            assert list(c.differential.items()) == list(parts.differential.items())

    def test_twist_knot_builds_one_complex(self, monkeypatch):
        built = []
        monkeypatch.setattr(models, "FilteredComplex",
                            lambda *args: built.append(len(args[0])) or FilteredComplex(*args))
        minus_twist_knot(41)
        assert built == [83]


class TestKnownReflections:
    """The reflections known by construction equal what `flip` would search for."""

    @pytest.mark.parametrize("n", [*range(1, 42, 2), 241])
    def test_twist_knot_pairing_is_the_searched_one(self, n):
        f, c = minus_twist_flip(n), minus_twist_knot(n)
        assert (f.source.generators, f.source.differential) == (c.generators, c.differential)
        assert f.pairing == flip(c).pairing

    def test_twist_knot_pairing_is_checked(self, monkeypatch):
        calls = []
        monkeypatch.setattr(models, "flip_violations",
                            lambda c, pairing: calls.append(len(c)) or flip_violations(c, pairing))
        minus_twist_flip(9)
        assert calls == [19]
        for bad in (0, -3, 4):
            with pytest.raises(BadParameter):
                minus_twist_flip(bad)


class TestMirror:
    def test_mirror_is_an_involution(self):
        c = box()
        back = mirror(mirror(c))
        assert [(g.name, g.alexander, g.maslov) for g in back.generators] == \
               [(g.name, g.alexander, g.maslov) for g in c.generators]
        assert back.differential == c.differential

    def test_mirror_staircase_gradings(self):
        m = mirror(staircase())
        assert {(g.alexander, g.maslov) for g in m.generators} == {(-1, -2), (0, -1), (1, 0)}
        assert check_complex(m).ok

    def test_mirror_reflects_hat_ranks(self):
        c = minus_twist_knot(5)
        ranks = hat_knot_homology(c)
        reflected = hat_knot_homology(mirror(c))
        assert {(-a, -m): r for (a, m), r in ranks.ranks.items()} == dict(reflected.ranks)


class TestFlip:
    def test_staircase_flip_exchanges_ends(self):
        f = flip(staircase())
        assert f.pairing == {"x": "z", "z": "x", "y": "y"}

    def test_box_flip_fixes_diagonal(self):
        f = flip(box())
        assert f.pairing["d"] == "d"
        assert f.pairing["a"] == "a"
        assert f.pairing["b"] == "c"

    def test_flip_squares_to_identity_on_big_model(self):
        c = minus_twist_knot(7)
        f = flip(c)
        for g in c.generators:
            # g -> U^(-A) sigma g, so the U-powers of the two steps cancel
            partner = f.pairing[g.name]
            assert f.pairing[partner] == g.name
            assert c.by_name[partner].alexander == -g.alexander

    def test_dual_model_flip_swaps_h_and_v(self):
        f = flip(dual_normal_form_model(5))
        assert f.pairing["yh1"] == "yv1"
        assert f.pairing["o"] == "o"

    def test_unsymmetric_complex_rejected(self):
        lopsided = FilteredComplex([Generator("g", 2, 0)], {})
        with pytest.raises(UnsupportedModel):
            flip(lopsided)

    def test_flip_with_declared_pairing_validates(self):
        c = direct_sum(named_box("1"), named_box("2"))
        # swapping the two boxes is also a legitimate reflection
        pairing = {}
        for i, j in (("1", "2"), ("2", "1")):
            pairing.update({f"a{i}": f"a{j}", f"d{i}": f"d{j}",
                            f"b{i}": f"c{j}", f"c{i}": f"b{j}"})
        f = FlipMap(c, pairing)
        assert f.pairing["b1"] == "c2"

    def test_large_model_needs_no_recursion(self):
        # 2,403 generators: deeper than the interpreter's recursion limit
        c = minus_twist_knot(1201)
        f = flip(c)
        assert isinstance(f, FlipMap)
        assert len(f.pairing) == len(c) and not flip_violations(c, f.pairing)

    def test_flip_map_checks_the_complex_first(self):
        dangling = FilteredComplex([Generator("o", 0, 0)], {"o": {"ghost": 0}})
        with pytest.raises(BadParameter, match="invalid complex"):
            FlipMap(dangling, {"o": "o"})
        with pytest.raises(BadParameter, match="invalid complex"):
            flip(dangling)

    def test_non_integral_alexander_rejected_at_flip(self):
        halves = FilteredComplex([Generator("g", Fraction(1, 2), 0),
                                  Generator("h", Fraction(-1, 2), -1)], {})
        with pytest.raises(BadCoefficient, match="non-integral Alexander"):
            flip(halves)

    def test_genus_is_max_alexander_floored_at_one(self):
        assert flip(unknot()).genus == 1
        assert flip(minus_twist_knot(5)).genus == 1
        assert flip(FilteredComplex([Generator("g", 2, 4), Generator("h", -2, 0)], {})).genus == 2

    def test_partners_whose_entries_cannot_mirror_are_pruned(self):
        # four dual models, one scrambled so that yv2_2 -> xv2_2 + xh1_2: no
        # partner has two entries out of it, and the search would otherwise
        # backtrack through the same-bigraded generators of all four copies
        copies = []
        for i in range(4):
            c = dual_normal_form_model(3)
            copies.append(FilteredComplex(
                [Generator(f"{g.name}_{i}", g.alexander, g.maslov) for g in c.generators],
                {f"{s}_{i}": {f"{t}_{i}": k for t, k in row.items()}
                 for s, row in c.differential.items()}))
        state = _Reduction(direct_sum(*copies))
        state.basis_change("xv2_2", "xh1_2", 0)
        scrambled = state.finish().complex
        assert check_complex(scrambled).ok
        assert len(scrambled) == 36 and len(list(scrambled.entries())) == 17
        with pytest.raises(UnsupportedModel, match="no reflection partner for yv2_2"):
            flip(scrambled)

    def test_search_ends_at_its_step_budget(self):
        # eight scrambled dual copies, one change without its reflection: the
        # unbounded search ran past 10 s (5.3M-6.6M steps); the budget ends it
        c = scrambled_dual_copies(7, copies=8, changes=8, lopsided=True)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"passed 1000000 steps "
                                              r"\(MAX_FLIP_STEPS = 1000000\)"):
            flip(c)
        assert time.perf_counter() - start < 10

    def test_found_pairing_is_checked_once(self, monkeypatch):
        # the search leaf returns FlipMap at once; FlipMap.__init__ runs the check
        calls = []
        monkeypatch.setattr(models, "flip_violations",
                            lambda c, pairing: calls.append(c) or flip_violations(c, pairing))
        flip(minus_twist_knot(9))
        assert len(calls) == 1


class TestFlipAgainstRescanning:
    """flip starts each candidate scan past its pool's paired prefix; the
    search that rescans from the head of the pool must find the same
    pairing first, or fail with the same UnsupportedModel."""

    # lopsided scrambles whose search backtracks for over a second in either
    # version (ROADMAP item 3's exponential search)
    SLOW = {3, 10, 11, 13, 26, 33, 40, 41, 42, 48, 49, 51, 52, 53, 58}

    @staticmethod
    def assert_same_outcome(c):
        try:
            want = list(flip_by_rescanning(c).items())
        except UnsupportedModel as exc:
            with pytest.raises(UnsupportedModel) as got:
                flip(c)
            assert str(got.value) == str(exc)
        else:
            assert list(flip(c).pairing.items()) == want

    MODELS = {
        **ALL_MODELS,
        "twist1": lambda: minus_twist_knot(1),
        "twist3": lambda: minus_twist_knot(3),
        "twist101": lambda: minus_twist_knot(101),
        "dual1": lambda: dual_normal_form_model(1),
        "dual3": lambda: dual_normal_form_model(3),
        "dual41": lambda: dual_normal_form_model(41),
    }

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_package_models(self, name, mirrored):
        c = self.MODELS[name]()
        self.assert_same_outcome(mirror(c) if mirrored else c)

    def test_random_reflection_symmetric_models(self):
        # same-bigraded generators make the search backtrack, and a pool's
        # paired prefix must shrink back with it
        rng = random.Random(default_seed() + 40)
        for _ in range(1000):
            self.assert_same_outcome(reflection_symmetric_complex(rng))

    def test_scrambled_dual_models(self):
        for seed in range(60):
            self.assert_same_outcome(scrambled_dual_copies(seed))
            if seed not in self.SLOW:
                self.assert_same_outcome(scrambled_dual_copies(seed, lopsided=True))


class TestSymmetry:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
    def test_hat_rank_symmetry(self, n):
        ranks = alexander_ranks(minus_twist_knot(n))
        for a, r in ranks.items():
            assert ranks.get(-a, 0) == r

    def test_column_homologies_match_in_rank(self):
        for build in ALL_MODELS.values():
            c = build()
            i_col = hat_manifold_homology(c).total_rank
            j_column = slice_through(c, {g.name: g.alexander for g in c.generators})
            j_col = homology(j_column, ("maslov",)).total_rank
            assert i_col == j_col


class TestHfkMinus:
    def test_box_top_grading(self):
        ranks = hfk_minus(box(), 1)
        assert dict(ranks.ranks) == {(2,): 1}  # the image of b

    def test_empty_slice(self):
        ranks = hfk_minus(box(), 5)
        assert ranks.total_rank == 0

    def test_twist5_top_grading_supports_two_classes(self):
        ranks = hfk_minus(minus_twist_knot(5), 1)
        assert ranks.total_rank >= 2

    def test_module_description_of_box(self):
        module = hfk_minus_module(box())
        assert module.ranks == {}
        assert module.torsion == {(1, 2): (1,), (0, 1): (1,)}

    def test_slices_agree_with_module_description(self):
        # free gen at (A, M) contributes to slices s <= A at M - 2(A - s);
        # torsion U^c at (A, M) contributes for A - c < s <= A
        for build in (staircase, box, lambda: minus_twist_knot(7), lambda: dual_normal_form_model(5)):
            c = build()
            module = hfk_minus_module(c)
            alexanders = sorted({int(g.alexander) for g in c.generators})
            for s in range(min(alexanders) - 2, max(alexanders) + 1):
                expected: dict[tuple, int] = {}
                for (a, m), r in module.ranks.items():
                    if s <= a:
                        key = (m - 2 * (a - s),)
                        expected[key] = expected.get(key, 0) + r
                for (a, m), orders in module.torsion.items():
                    for order in orders:
                        if a - order < s <= a:
                            key = (m - 2 * (a - s),)
                            expected[key] = expected.get(key, 0) + 1
                assert dict(hfk_minus(c, s).ranks) == expected


class TestAlexanderPolynomial:
    def test_small_cases(self):
        assert euler_characteristic(hat_knot_homology(unknot())) == {0: 1}
        assert euler_characteristic(hat_knot_homology(staircase())) == {-1: 1, 0: -1, 1: 1}
        assert euler_characteristic(hat_knot_homology(box())) == {-1: 1, 0: -2, 1: 1}

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_against_two_bridge_oracle(self, n):
        poly = euler_characteristic(hat_knot_homology(minus_twist_knot(n)))
        assert poly == twist_knot_alexander(n)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
    def test_symmetry_and_determinant(self, n):
        poly = euler_characteristic(hat_knot_homology(minus_twist_knot(n)))
        assert poly == {-a: coef for a, coef in poly.items()}
        assert abs(sum(coef * Fraction(-1) ** a for a, coef in poly.items())) == 2 * n + 1

    def test_poly_string(self):
        assert poly_string(euler_characteristic(hat_knot_homology(staircase()))) == "t - 1 + t^-1"
