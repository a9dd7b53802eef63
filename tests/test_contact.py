"""Contact surgery arithmetic and the distinctness pipeline."""

import random
from fractions import Fraction

import pytest

from floercone.contact import (
    LegendrianData,
    c1_plus_one_surgery,
    c1_positive_integer_surgery,
    c1_surgery_cobordism,
    characterize_all_minus_two,
    distinctness_pipeline,
    eval_negative_cf,
    locate_contact_class,
    negative_expansion,
    positive_expansion,
    reduce_emn,
)
from floercone.errors import (
    BadCoefficient,
    BadParameter,
    DomainError,
    ExcludedCoefficient,
    ParityError,
)

from random_complexes import default_seed


def stabilize_negative(l: LegendrianData, times: int = 1) -> LegendrianData:
    return LegendrianData(l.tb - times, l.rot - times, l.order)


class ZeroCoefficient(DomainError):
    pass


def smooth_coefficient(l: LegendrianData, r) -> Fraction:
    """Smooth surgery coefficient tb + r of a contact r-surgery; a zero result
    means the surgered manifold is not a rational homology sphere."""
    r = Fraction(r)
    if r == 0:
        raise ZeroCoefficient("contact surgery coefficient must be nonzero")
    return l.tb + r


class TestNegativeExpansion:
    def test_worked_examples(self):
        assert negative_expansion(-2).a == (-3,)
        assert negative_expansion(-2).stabilizations == (1,)
        assert negative_expansion(-1).a == (-2,)
        assert negative_expansion(-1).stabilizations == (0,)
        exp = negative_expansion(Fraction(-7, 2))
        assert exp.a == (-5, -2)
        assert exp.stabilizations == (3, 0)
        assert negative_expansion(Fraction(-2, 3)).a == (-2, -3)

    def test_rejects_nonnegative(self):
        for r in (0, 1, Fraction(5, 3)):
            with pytest.raises(BadCoefficient):
                negative_expansion(r)

    def test_round_trip_500_random_rationals(self):
        rng = random.Random(default_seed())
        seen = 0
        while seen < 500:
            num = rng.randint(-9999, -1)
            den = rng.randint(1, 100)
            r = Fraction(num, den)
            if not -100 < r < 0:
                continue
            seen += 1
            exp = negative_expansion(r)
            assert all(a <= -2 for a in exp.a)
            assert exp.evaluate() == r
            assert exp.surgery_signs == tuple([-1] * len(exp.a))
            flag, ell = characterize_all_minus_two(r)
            assert flag == all(a == -2 for a in exp.a)
            if flag:
                assert ell == len(exp.a)

    def test_all_minus_two_characterization(self):
        assert characterize_all_minus_two(Fraction(-1, 3)) == (True, 3)
        assert characterize_all_minus_two(-1) == (True, 1)
        assert characterize_all_minus_two(Fraction(-2, 3)) == (False, None)
        with pytest.raises(BadCoefficient, match="needs r < 0, got 1"):
            characterize_all_minus_two(1)

    def test_eval_negative_cf(self):
        assert eval_negative_cf([-4, -2]) == Fraction(-7, 2)
        assert eval_negative_cf([-2]) == -2
        with pytest.raises(BadCoefficient, match="empty continued fraction"):
            eval_negative_cf([])


class TestPositiveExpansion:
    def test_one_over_n_cases(self):
        exp = positive_expansion(1)
        assert (exp.e, exp.a, exp.stabilizations) == (1, (), ())
        assert exp.surgery_signs == (1,)
        assert exp.evaluate() == 1
        exp = positive_expansion(Fraction(1, 3))
        assert (exp.e, exp.a) == (3, ())
        assert exp.evaluate() == Fraction(1, 3)

    def test_n_plus_one_over_n(self):
        for n in range(1, 11):
            exp = positive_expansion(Fraction(n + 1, n))
            assert exp.e == 1
            assert exp.a == (-(n + 1),)
            assert exp.stabilizations == (n,)
            assert exp.evaluate() == Fraction(n + 1, n)

    def test_two(self):
        exp = positive_expansion(2)
        assert exp.e == 1
        assert exp.a == (-2,)
        assert exp.stabilizations == (1,)
        assert exp.evaluate() == 2

    def test_round_trip_random(self):
        rng = random.Random(default_seed() + 10)
        for _ in range(200):
            r = Fraction(rng.randint(1, 400), rng.randint(1, 60))
            exp = positive_expansion(r)
            assert all(a <= -2 for a in exp.a)
            assert exp.evaluate() == r

    def test_rejects_nonpositive(self):
        with pytest.raises(BadCoefficient):
            positive_expansion(-1)


class TestLegendrianBookkeeping:
    def test_stabilization_updates(self):
        l = LegendrianData(1, 0)
        assert stabilize_negative(l).tb == 0
        assert stabilize_negative(l, 3) == LegendrianData(-2, -3)

    def test_smooth_coefficient(self):
        assert smooth_coefficient(LegendrianData(1, 0), -2) == -1
        assert smooth_coefficient(LegendrianData(0, -1), Fraction(3, 2)) == Fraction(3, 2)
        assert smooth_coefficient(LegendrianData(3, 0), -3) == 0  # excluded by callers
        with pytest.raises(ZeroCoefficient):
            smooth_coefficient(LegendrianData(1, 0), 0)

    def test_locate_contact_class(self):
        for k in range(1, 7):
            loc = locate_contact_class(LegendrianData(0, -1), -(k + 1), k)
            assert loc.t == -1
        assert locate_contact_class(LegendrianData(1, 0), 1, 1).t == -1
        assert locate_contact_class(LegendrianData(1, 0), 2, 3).t == -1

    def test_coprime_rule_is_the_cone_s(self):
        with pytest.raises(BadCoefficient) as exc:
            locate_contact_class(LegendrianData(0, -1), 2, 4)
        assert str(exc.value) == "need coprime p != 0, q > 0; got p/q = 2/4"

    def test_parity_error(self):
        with pytest.raises(ParityError):
            locate_contact_class(LegendrianData(0, 0), 2, 1)  # 2t = -1

    def test_c1_formulas(self):
        for k in range(1, 7):
            assert c1_surgery_cobordism(LegendrianData(0, -1), k + 1, k) == 0
        assert c1_surgery_cobordism(LegendrianData(0, 0), 1, 1) == 0
        assert c1_surgery_cobordism(LegendrianData(1, 0), 5, 2) == 2
        assert c1_positive_integer_surgery(LegendrianData(0, 0), 1) == 0
        assert c1_positive_integer_surgery(LegendrianData(0, -1), 2) == 0
        assert c1_positive_integer_surgery(LegendrianData(0, 1, order=3), 2) == 6
        assert c1_plus_one_surgery(LegendrianData(0, 0)) == 0
        assert c1_plus_one_surgery(LegendrianData(0, -1)) == -1
        assert c1_plus_one_surgery(LegendrianData(0, 2)) == 2


class TestReduceEmn:
    def test_values(self):
        assert reduce_emn(1, -2) == (Fraction(-2), False)
        assert reduce_emn(3, -2) == (Fraction(-4), False)
        # the -1 target flag is computed, not assumed; for negative r it
        # never fires because r = -m is excluded first
        assert reduce_emn(3, 1) == (Fraction(-1), True)
        with pytest.raises(ExcludedCoefficient):
            reduce_emn(1, -1)

    def test_excluded(self):
        with pytest.raises(ExcludedCoefficient):
            reduce_emn(3, -3)
        with pytest.raises(BadParameter):
            reduce_emn(2, -1)


class TestPipeline:
    def test_case_i(self):
        report = distinctness_pipeline(5, -2)
        assert report.distinct
        assert report.case.startswith("case i ")
        assert all(s.verified for s in report.steps if s.kind == "computed")

    def test_case_ii(self):
        report = distinctness_pipeline(5, -3)
        assert report.case == "case ii, k=1"
        assert report.verdict == "distinct: yes (case ii, k=1)"
        titles = [s.title for s in report.steps]
        assert "vertex inclusion is a homology isomorphism" in titles
        step = next(s for s in report.steps if "located" in s.title)
        assert step.values["t"] == -1 and step.values["c1"] == 0

    def test_case_i_reduces_the_j0_column_once(self, monkeypatch):
        import floercone.dual as dual
        from floercone.algebra import slice_through
        from floercone.models import flip, minus_twist_knot

        model = minus_twist_knot(9)
        nf = dual.normal_form(dual.build_dual_cone(flip(model), 1))
        c = nf.form.complex
        column = slice_through(c, {g.name: g.alexander for g in c.generators})
        key = lambda c: (c.generators, c.differential)
        reduced = []
        real_reduce = dual.reduce

        def counting_reduce(c, mode="filtered"):
            if mode == "over_U_units":
                reduced.append(key(c))
            return real_reduce(c, mode)

        monkeypatch.setattr(dual, "reduce", counting_reduce)
        assert distinctness_pipeline(9, -2).distinct
        assert reduced.count(key(column)) == 1

    def test_case_iii(self):
        report = distinctness_pipeline(5, Fraction(-5, 2))
        assert report.case.startswith("case iii")
        assert any(s.kind == "trusted" for s in report.steps)
        assert report.distinct

    def test_case_iv_recurses(self):
        report = distinctness_pipeline(5, Fraction(-1, 2))
        assert report.case.startswith("case iv")
        assert "case iii" in report.case
        assert report.distinct

    def test_rejects_minus_one(self):
        with pytest.raises(ExcludedCoefficient):
            distinctness_pipeline(5, -1)

    def test_rejects_bad_n(self):
        for n in (3, 4, 2, -5):
            with pytest.raises(BadParameter):
                distinctness_pipeline(n, -2)

    def test_twisted_family_route(self):
        report = distinctness_pipeline(5, -2, m=3)
        assert report.steps[0].kind == "trusted"
        assert report.case == "case ii, k=2"  # -2 - 3 + 1 = -4
        with pytest.raises(ExcludedCoefficient):
            distinctness_pipeline(5, -3, m=3)

    def test_twisted_family_excludes_minus_one_target(self):
        # r = -m + ... with target -1 cannot happen for r < 0, m odd > 1;
        # but r = -1 with m = 1 is the direct exclusion
        with pytest.raises(ExcludedCoefficient):
            distinctness_pipeline(7, -1, m=1)
