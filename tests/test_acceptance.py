"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside pytest's own pass/fail output.  Everything here is exact;
the stated wall-clock budgets (5 s per golden case, 60 s for the whole
module) are asserted, not assumed.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from floercone.algebra import check_complex, homology
from floercone.cone import MappingCone, include_B
from floercone.contact import (
    LegendrianData,
    c1_surgery_cobordism,
    characterize_all_minus_two,
    distinctness_pipeline,
    locate_contact_class,
    negative_expansion,
    positive_expansion,
    reduce_emn,
)
from floercone.dual import build_dual_cone, g_map, normal_form
from floercone.errors import ExcludedCoefficient
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
    alexander_ranks,
    dense_homology_by_maslov,
    flattened_sectors,
    hat_map_is_quasi_iso,
)
from random_complexes import default_seed

_module_start = time.monotonic()


def _verdict(criterion: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_normal_form_golden():
    """Normal form of the +1-framed dual cone for n in {5,...,13}."""
    ok = True
    for n in (5, 7, 9, 11, 13):
        start = time.monotonic()
        nfr = normal_form(build_dual_cone(flip(minus_twist_knot(n)), 1))
        elapsed = time.monotonic() - start
        m = (n + 1) // 2
        ok &= nfr.count("free") == 1
        ok &= nfr.count("horizontal") == m and nfr.count("vertical") == m
        ok &= len(nfr.form.complex) == 1 + 4 * m
        for s in nfr.summands:
            if s.kind == "free":
                ok &= s.position == ((Fraction(0), Fraction(0)),)
            elif s.kind == "horizontal":
                ok &= s.position == ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
            else:
                ok &= s.position == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
        ok &= elapsed < 5.0
    _verdict("1 (dual-knot normal form, n in 5..13)", ok)


def test_criterion_2_g_map_full_column_rank():
    """The U = 1 matrix has full column rank (n+1)/2 in the top grading."""
    ok = True
    for n in (5, 7, 9, 11, 13):
        nfr = normal_form(build_dual_cone(flip(minus_twist_knot(n)), 1))
        rep = g_map(nfr.form.complex)
        ok &= rep.alexander == 1
        ok &= rep.domain_dim == (n + 1) // 2
        ok &= rep.map_rank == rep.domain_dim
    _verdict("2 (U = 1 map injective on top grading)", ok)


def test_criterion_3_truncation_inclusion_isomorphism():
    """For k in 1..6 the vertex (t=-1, B) of the -(k+1)/k cone over the
    surgered dual model includes as a homology isomorphism."""
    ok = True
    for n in (5, 7):
        model = dual_normal_form_model(n)
        f = flip(model)
        assert f.genus == 1
        for k in range(1, 7):
            start = time.monotonic()
            cone = MappingCone.build(f, -(k + 1), k, "full")
            loc = locate_contact_class(LegendrianData(0, -1), -(k + 1), k)
            ok &= loc.t == -1
            rep = include_B(cone, loc.t)
            ok &= rep.isomorphism
            ok &= rep.domain_rank == rep.codomain_rank == rep.map_rank
            paper = MappingCone.build(f, -(k + 1), k, "paper")
            ok &= all(cone.sector_homology(i) == paper.sector_homology(i) for i in cone.sectors)
            ok &= time.monotonic() - start < 5.0
    _verdict("3 (inclusion of B at t=-1 is a homology isomorphism, k in 1..6)", ok)


def test_criterion_4_dgs_round_trip():
    """500 random negative rationals round-trip; worked reductions pinned."""
    ok = True
    rng = random.Random(default_seed())
    count = 0
    while count < 500:
        r = Fraction(rng.randint(-9999, -1), rng.randint(1, 100))
        if not -100 < r < 0:
            continue
        count += 1
        exp = negative_expansion(r)
        ok &= all(a <= -2 for a in exp.a)
        ok &= exp.evaluate() == r
        flag, ell = characterize_all_minus_two(r)
        ok &= flag == all(a == -2 for a in exp.a)
    ok &= negative_expansion(-2).stabilizations == (1,)
    for n in range(1, 11):
        exp = positive_expansion(Fraction(n + 1, n))
        ok &= exp.e == 1 and exp.stabilizations == (n,) and exp.evaluate() == Fraction(n + 1, n)
    _verdict("4 (DGS expansions round-trip exactly)", ok)


def test_criterion_5_formula_arithmetic():
    """Contact-class location t = -1 and vanishing c1 for (k+1)/k surgeries."""
    ok = True
    push_off = LegendrianData(0, -1)
    for k in range(1, 7):
        ok &= locate_contact_class(push_off, -(k + 1), k).t == -1
        ok &= c1_surgery_cobordism(push_off, k + 1, k) == 0
    _verdict("5 (t = -1 and c1 = 0 formulas)", ok)


def test_criterion_6_oracle_equivalence():
    """Engine sector homology equals dense GF(2) elimination on a grid."""
    models = [unknot(), staircase(), box(), minus_twist_knot(5),
              minus_twist_knot(9), mirror(minus_twist_knot(5)),
              dual_normal_form_model(5)]
    ok = True
    checked = 0
    for c in models:
        assert len(c) <= 25
        f = flip(c)
        for p in range(-5, 6):
            for q in (1, 2, 3):
                if p == 0 or gcd(p, q) != 1:
                    continue
                cone = MappingCone.build(f, p, q, "paper")
                for i, (hat, _) in flattened_sectors(cone).items():
                    engine = {Fraction(k[0]): v
                              for k, v in cone.sector_homology(i).ranks.items()}
                    ok &= engine == dense_homology_by_maslov(hat)
                    checked += 1
    print(f"  ({checked} sector computations cross-checked)")
    _verdict("6 (reduce path equals dense GF(2) oracle)", ok)


def test_criterion_7_invariant_suites():
    """Structural invariants on every built object; determinant check."""
    ok = True
    builders = [unknot, staircase, box,
                lambda: minus_twist_knot(5), lambda: minus_twist_knot(9),
                lambda: mirror(minus_twist_knot(7)), lambda: dual_normal_form_model(7)]
    for build in builders:
        c = build()
        ok &= check_complex(c).ok  # d^2, filtration monotonicity, Maslov drop
        ranks = alexander_ranks(c)
        ok &= all(ranks.get(-a, 0) == r for a, r in ranks.items())
    for build in (staircase, box, lambda: minus_twist_knot(5)):
        c = build()
        f = flip(c)
        g = f.genus
        ok &= hat_map_is_quasi_iso(f, g, "v")
        ok &= hat_map_is_quasi_iso(f, -g, "h")
        total, _ = MappingCone.build(f, 2, 1, "paper").total_complex()
        ok &= check_complex(total).ok
    for n in (1, 3, 5, 7, 9, 11, 13):
        poly = euler_characteristic(hat_knot_homology(minus_twist_knot(n)))
        ok &= poly == {-a: coef for a, coef in poly.items()}
        ok &= abs(sum(coef * Fraction(-1) ** a for a, coef in poly.items())) == 2 * n + 1
    # dual-cone decorations: every entry drops the decorated grading by 1
    for n in (1, -2, 3):
        dc = build_dual_cone(flip(minus_twist_knot(5)), n)
        ok &= check_complex(dc.complex).ok
    _verdict("7 (invariant suites and determinant 2n+1)", ok)


def test_criterion_8_pipeline_end_to_end():
    """Pipeline verdicts over the required (n, r) grid, plus exclusions."""
    ok = True
    for n in (5, 7):
        for r in (-2, -3, Fraction(-5, 2), Fraction(-1, 2), Fraction(-3, 2)):
            report = distinctness_pipeline(n, r)
            ok &= report.distinct
            computed = [s for s in report.steps if s.kind == "computed"]
            ok &= bool(computed) and all(s.verified for s in computed)
            trusted = [s for s in report.steps if s.kind == "trusted"]
            ok &= all(s.values for s in trusted)
    for n in (5, 7):
        with pytest.raises(ExcludedCoefficient):
            distinctness_pipeline(n, -1)
    with pytest.raises(ExcludedCoefficient):
        reduce_emn(3, -3)
    with pytest.raises(ExcludedCoefficient):
        distinctness_pipeline(5, -3, m=3)  # r = -m through the twisted family
    _verdict("8 (distinctness pipeline end to end)", ok)


def test_total_budget():
    elapsed = time.monotonic() - _module_start
    print(f"acceptance module wall time: {elapsed:.1f}s")
    assert elapsed < 60.0
