"""Contact-surgery arithmetic and the distinctness pipeline.

Everything here is exact rational bookkeeping: continued-fraction
expansions converting rational contact surgeries into sequences of
(+1)/(-1)-surgeries on stabilized push-offs, the classical-invariant
updates, evaluation of the first-Chern pairing formulas, and the case
analysis that propagates "different contact invariants" from the two
homologically verified situations (framing +1 dual cone; the -(k+1)/k
cone inclusion) to every negative rational coefficient except -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cone import MappingCone, _require_coprime, include_B
from .errors import (
    BadCoefficient,
    BadParameter,
    DomainError,
    ExcludedCoefficient,
    InternalError,
    ParityError,
    TooManyDigits,
    past_digit_limit,
)
from .models import minus_twist_flip
from .dual import (
    build_dual_cone,
    distinct_classes,
    g_map,
    loss_grading,
    normal_form,
)


class _Classical(NamedTuple):
    tb: int
    rot: int
    order: int = 1


class LegendrianData(_Classical):
    """Classical invariants of a Legendrian knot (order 1 = null-homologous)."""

    __slots__ = ()

    def __new__(cls, tb: int, rot: int, order: int = 1):
        if order < 1:
            raise BadParameter(f"the order of a knot class is at least 1, got {order}")
        return tuple.__new__(cls, (tb, rot, order))


# -- continued fractions -------------------------------------------------------

# Every term of an expansion becomes a surgery component: a list entry, a
# JSON value and, in the pipeline, a report step.  Refused past this count.
MAX_CF_TERMS = 100_000


def _require_terms(count: int) -> None:
    if count > MAX_CF_TERMS:
        raise DomainError(f"the expansion has more than {MAX_CF_TERMS} terms "
                          f"(MAX_CF_TERMS = {MAX_CF_TERMS})")


def eval_negative_cf(terms: Sequence[int]) -> Fraction:
    """[c1, c2, ..., cl]^- = c1 - 1/(c2 - 1/(... - 1/cl))."""
    value: Fraction | None = None
    for c in reversed(terms):
        value = Fraction(c) if value is None else c - 1 / value
    if value is None:
        raise BadCoefficient("empty continued fraction")
    return value


def negative_cf(r: Fraction) -> list[int]:
    """The unique expansion of r < -1 (or any rational, greedily) with tail
    entries <= -2: r = c1 - 1/(c2 - ...), c1 = r or floor(r)."""
    a, b = r.numerator, r.denominator  # r = a/b in lowest terms, b > 0, at every step
    terms = []
    while b != 1:
        c = a // b  # floor
        terms.append(c)
        _require_terms(len(terms) + 1)  # the last term is still to come
        a, b = -b, a - c * b  # -1/(r - c)
    terms.append(a)
    return terms


class DgsExpansion(NamedTuple):
    """Surgery-link description of a rational contact surgery.

    negative kind: r = [a1+1, a2, ..., al]^- with every ai <= -2; component
    j is a push-off stabilized |aj+2| times, all with coefficient -1.
    positive kind: e push-offs with coefficient +1, then components from
    x/(y-ex) = [a1, ..., al]^- with the first stabilized |a1+1| times and
    later ones |aj+2| times, all -1.
    """

    r: Fraction
    kind: str
    a: tuple[int, ...]
    e: int
    stabilizations: tuple[int, ...]
    surgery_signs: tuple[int, ...]

    def evaluate(self) -> Fraction:
        if self.kind == "negative":
            return eval_negative_cf((self.a[0] + 1,) + self.a[1:])
        if not self.a:
            return Fraction(1, self.e)
        # invert x/(y - e x) = inner: r = x/y = inner / (1 + e * inner)
        inner = eval_negative_cf(self.a)
        return inner / (1 + self.e * inner)


def negative_expansion(r) -> DgsExpansion:
    """Expansion of a negative contact coefficient into (-1)-surgeries."""
    r = Fraction(r)
    if r >= 0:
        raise BadCoefficient(f"negative_expansion needs r < 0, got {r}")
    terms = negative_cf(r)
    a = [terms[0] - 1] + terms[1:]
    if not all(ai <= -2 for ai in a):
        raise InternalError(f"expansion entry above -2 in {a}")
    stab = tuple(abs(ai + 2) for ai in a)
    return DgsExpansion(r, "negative", tuple(a), 0, stab, tuple([-1] * len(a)))


def positive_expansion(r) -> DgsExpansion:
    """Expansion of a positive contact coefficient into (+1)/(-1)-surgeries."""
    r = Fraction(r)
    if r <= 0:
        raise BadCoefficient(f"positive_expansion needs r > 0, got {r}")
    x, y = r.numerator, r.denominator
    # at x = 1, y - e x hits 0 at e = y: pure (+1)-surgeries on y push-offs
    e = y if x == 1 else y // x + 1
    _require_terms(e)
    if x == 1:
        return DgsExpansion(r, "positive", (), y, (), tuple([1] * y))
    rest = Fraction(x, y - e * x)
    if rest >= -1:
        raise InternalError(f"remainder {rest} is not below -1")
    a = negative_cf(rest)
    if not all(ai <= -2 for ai in a):
        raise InternalError(f"expansion entry above -2 in {a}")
    stab = (abs(a[0] + 1),) + tuple(abs(ai + 2) for ai in a[1:])
    signs = tuple([1] * e + [-1] * len(a))
    return DgsExpansion(r, "positive", tuple(a), e, stab, signs)


def characterize_all_minus_two(r) -> tuple[bool, int | None]:
    """Whether the negative expansion of r has every entry equal to -2,
    equivalently r = -1/l; returns (flag, l)."""
    r = Fraction(r)
    if r >= 0:
        raise BadCoefficient(f"needs r < 0, got {r}")
    if r.numerator == -1:
        return True, r.denominator
    return False, None


class ContactLocator(NamedTuple):
    t: int
    s: int

    @property
    def vertex(self) -> tuple[int, str]:
        return (self.t, f"B_{self.s}")


def locate_contact_class(l: LegendrianData, p: int, q: int) -> ContactLocator:
    """Cone vertex (t, B_s) carrying the contact class: 2t = (rot-tb+1)q - 2."""
    _require_coprime(p, q)
    twice = (l.rot - l.tb + 1) * q - 2
    if twice % 2 != 0:
        raise ParityError(f"2t = {twice} is odd; no integral vertex")
    t = twice // 2
    return ContactLocator(t, t // q)


def _printable(x: int) -> int:
    """x, refused past the interpreter's int-to-string digit limit."""
    if past_digit_limit(x):
        raise TooManyDigits()
    return x


def c1_surgery_cobordism(l: LegendrianData, p: int, q: int) -> int:
    """|<c1, capped Seifert surface>| representative p + (rot - tb) q - 1."""
    _require_coprime(p, q)
    return _printable(p + (l.rot - l.tb) * q - 1)


def c1_positive_integer_surgery(l: LegendrianData, n: int) -> int:
    """<c1, capped rational Seifert surface> = order * (rot + n - 1)."""
    if n < 1:
        raise BadParameter(f"positive integer surgery needs n >= 1, got {n}")
    return _printable(l.order * (l.rot + n - 1))


def c1_plus_one_surgery(s: LegendrianData) -> int:
    """<c1, capped Seifert surface> = rot for a (+1)-surgery on s."""
    return s.rot


def reduce_emn(m: int, r) -> tuple[Fraction, bool]:
    """Coefficient transfer r -> r - m + 1 for the m-twisted family.

    Excluded at r = -m (the surgered manifold is not a rational homology
    sphere); the returned flag marks the impossible-by-arithmetic case of
    a -1 target, computed rather than assumed.
    """
    if not isinstance(m, int) or m < 1 or m % 2 == 0:
        raise BadParameter(f"m must be a positive odd integer, got {m!r}")
    r = Fraction(r)
    if r == -m:
        raise ExcludedCoefficient(f"r = -m = {r} is excluded (not a rational homology sphere)")
    target = r - m + 1
    _printable(max(abs(target.numerator), target.denominator))
    return target, target == -1


# -- the pipeline ---------------------------------------------------------------


class PipelineStep(NamedTuple):
    kind: str       # "computed" or "trusted"
    title: str
    values: dict
    verified: bool | None = None


class PipelineReport:
    """The pipeline's verdict and steps; case is written as the analysis runs."""

    __slots__ = ("n", "r", "m", "case", "distinct", "steps")

    def __init__(self, n: int, r: Fraction, m: int, case: str, distinct: bool):
        self.n, self.r, self.m, self.case, self.distinct = n, r, m, case, distinct
        self.steps: list[PipelineStep] = []

    @property
    def verdict(self) -> str:
        return f"distinct: {'yes' if self.distinct else 'no'} ({self.case})"


def _integer_surgery(n: int, e: int, report: PipelineReport) -> None:
    """Contact e-surgery for an integer e <= -2.  The framing +1 computation
    shows distinct Legendrian invariants stay distinct (e = -2); for e <= -3
    the -(k+1)/k cone over that dual complex, k = -e - 2, carries them on."""
    dc = build_dual_cone(minus_twist_flip(n), 1)
    nf = normal_form(dc)
    m = nf.count("vertical")
    push_off = LegendrianData(0, -1)  # the push-off of the stabilized knot
    top = loss_grading(push_off.tb, push_off.rot)
    report.steps.append(PipelineStep(
        "computed", "dual-knot complex in normal form",
        {"summands": {"free": 1, "horizontal": m, "vertical": m},
         "generators": len(nf.form.complex)}, True))
    gm = g_map(nf.form.complex, top)
    if not gm.injective:
        raise InternalError("U = 1 map unexpectedly fails injectivity")
    report.steps.append(PipelineStep(
        "computed", "U = 1 map injective in the top Alexander grading",
        {"alexander": top, "domain_dim": gm.domain_dim, "rank": gm.map_rank}, True))
    if m < 2:
        raise InternalError("n > 3 guarantees at least two vertical summands")
    verticals = [s.names[0] for s in nf.by_kind["vertical"]]
    class_a = [verticals[0]]
    class_b = [verticals[0], verticals[1]]
    distinct = distinct_classes(gm, class_a, class_b)
    report.steps.append(PipelineStep(
        "computed", "images of the two invariant classes differ",
        {"class_a": class_a, "class_b": class_b, "distinct": distinct}, distinct))
    if not distinct:
        raise InternalError("top-grading classes unexpectedly merge")
    if e == -2:
        return
    k = -e - 2
    p, q = -(k + 1), k
    loc = locate_contact_class(push_off, p, q)
    c1 = c1_surgery_cobordism(push_off, k + 1, k)
    report.steps.append(PipelineStep(
        "computed", "contact class located in the surgery cone",
        {"p": p, "q": q, "t": loc.t, "vertex": loc.vertex, "c1": c1,
         "self_conjugate": c1 == 0}, True))
    cone = MappingCone.build(nf.reflection(), p, q, "full")
    rep = include_B(cone, loc.t)
    report.steps.append(PipelineStep(
        "computed", "vertex inclusion is a homology isomorphism",
        {"t": loc.t, "sector": rep.sector, "rank": rep.map_rank,
         "domain": rep.domain_rank, "codomain": rep.codomain_rank,
         "isomorphism": rep.isomorphism}, rep.isomorphism))
    if not rep.isomorphism:
        raise InternalError("cone inclusion failed to be an isomorphism")


def distinctness_pipeline(n: int, r, m: int = 1) -> PipelineReport:
    """Case analysis proving the two surgered contact manifolds differ.

    Computed steps carry verified homology facts; trusted steps record the
    naturality bookkeeping (surgery cobordism maps and their Spin^c
    selection) with the exact formula values they rest on.  r = -1 is
    excluded: there the invariants agree and nothing can be propagated.
    """
    if not isinstance(n, int) or n <= 3 or n % 2 == 0:
        raise BadParameter(f"n must be an odd integer > 3, got {n!r}")
    r = Fraction(r)
    if r >= 0:
        raise BadCoefficient(f"pipeline needs r < 0, got {r}")
    report = PipelineReport(n, r, m, "", True)
    if m != 1:
        target, flagged = reduce_emn(m, r)
        report.steps.append(PipelineStep(
            "trusted", "m-twisted family reduced to the twist knot",
            {"m": m, "r": str(r), "target": str(target),
             "steps": (m - 1) // 2, "excluded_target": flagged}, None))
        r = target
    if r == -1:
        raise ExcludedCoefficient(
            "r = -1 is excluded: the surgered manifolds share their contact invariant")
    expansion = negative_expansion(r)
    all_minus_two, ell = characterize_all_minus_two(r)
    if r.denominator == 1:
        report.case = "case i (r = -2)" if r == -2 else f"case ii, k={int(-r) - 2}"
        _integer_surgery(n, int(r), report)
    elif not all_minus_two:
        # some component is stabilized at least once
        t_index = next(i for i, count in enumerate(expansion.stabilizations) if count > 0)
        stabs = expansion.stabilizations[t_index]
        equivalent = -(stabs + 1)
        report.case = f"case iii via component {t_index + 1} (contact {equivalent})"
        report.steps.append(PipelineStep(
            "trusted", "surgery link with a stabilized component",
            {"expansion": list(expansion.a), "stabilizations": list(expansion.stabilizations),
             "component": t_index + 1, "equivalent_integer_surgery": equivalent}, None))
        _integer_surgery(n, equivalent, report)
        for j, count in enumerate(expansion.stabilizations):
            if j == t_index:
                continue
            report.steps.append(PipelineStep(
                "trusted", "surgery on one link component preserves distinctness",
                {"component": j + 1, "stabilizations": count, "coefficient": -1}, None))
    else:
        if ell is None or ell < 2:
            raise InternalError(f"case iv needs r = -1/l with l >= 2, got l = {ell}")
        target = r - 1
        meridian_c1 = c1_positive_integer_surgery(LegendrianData(0, -1, order=1), 2)
        report.case = f"case iv (r = -1/{ell}) -> {target}"
        report.steps.append(PipelineStep(
            "trusted", "(+2)-surgery on the standard meridian shifts the coefficient",
            {"r": str(r), "target": str(target), "c1": meridian_c1,
             "spin_c_match": True}, None))
        sub = distinctness_pipeline(n, target)
        report.steps.extend(sub.steps)
        report.case += f"; then {sub.case}"
    return report
