"""The dual-knot mapping cone: double filtration, normal form, U = 1 map.

For integer framing n != 0 the cone over a FlipMap of genus g runs over
A_s, s in [1-g, g] and B_s, s in [1-g+n, g], with a second filtration J
and an absolute Maslov grading alongside the cone filtration I:

    A-elements:  I = max(i, j - s),  J = max(i - 1, j - s) + (2s+n-1)/(2n)
    B-elements:  I = i,              J = i - 1 + (2s+n-1)/(2n)

The flattened complex (`MappingCone.total_complex` at q = 1) stores each
element through its I = 0 translate with alexander = J - I and maslov the
decorated grading, so it is itself a filtered complex over GF(2)[U]:
U-powers are I-drops and Alexander drops plus powers are J-drops.
Collapsing J (forgetting alexander) recovers the plain surgery cone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import gf2
from .algebra import (
    Chain,
    FilteredComplex,
    ReducedForm,
    _pushed,
    _Reduction,
    _toggle,
    check_complex,
    induced_map,
    reduce,
    slice_through,
)
from .cone import MappingCone, windows
from .errors import BadFraming, InternalError, NonIntegral, NormalFormMismatch, NotCycles
from .models import FlipMap


class DualCone(NamedTuple):
    cone: MappingCone                  # framing cone.p, genus cone.flip.genus
    complex: FilteredComplex           # flattened, (I,J)-decorated


def require_framing(n: int, for_normal_form: bool = False) -> None:
    """Refuse a framing with no dual cone (0, or not an int) and, for the
    normal form, any framing but +1."""
    if not isinstance(n, int) or n == 0:
        raise BadFraming(f"framing must be a nonzero integer, got {n!r}")
    if for_normal_form and n != 1:
        raise BadFraming("normal form is defined for framing +1")


def build_dual_cone(flip: FlipMap, n: int) -> DualCone:
    """The framing-n dual-knot cone over flip's checked model, verified flattened."""
    require_framing(n)
    g = flip.genus
    # floor lowered from 1-g when n >= 2g so every Spin^c sector keeps a vertex
    lo = min(1 - g, g - n + 1)
    a_ts, b_ts = windows(flip, n, 1, lo, g)
    cone = MappingCone(flip, n, 1, a_ts, b_ts)
    total, _ = cone.total_complex()
    report = check_complex(total)
    if not report.ok:
        raise InternalError("dual cone failed build-time verification:\n" + str(report))
    return DualCone(cone, total)


# -- normal form -------------------------------------------------------------


class Summand(NamedTuple):
    kind: str                 # "free", "horizontal" (d y = U x), "vertical" (d y = x)
    names: tuple[str, ...]    # (gen,) or (y, x)
    position: tuple           # (A, M) data of the generators


class NormalFormResult(NamedTuple):
    form: ReducedForm
    summands: tuple[Summand, ...]
    by_kind: dict[str, list[Summand]]  # each kind -> its summands, in order

    def count(self, kind: str) -> int:
        return len(self.by_kind[kind])

    def reflection(self) -> FlipMap:
        """The form checked with the reflection its summands give, which `flip`
        would search for: o fixed, and the i-th horizontal pair's (y, x)
        swapped with the i-th vertical pair's."""
        pairing = {s.names[0]: s.names[0] for s in self.by_kind["free"]}
        for h, v in zip(self.by_kind["horizontal"], self.by_kind["vertical"]):
            pairing.update(zip(h.names + v.names, v.names + h.names))
        return FlipMap(self.form.complex, pairing)


def split_to_summands(c: FilteredComplex) -> ReducedForm:
    """Monomialize the differential by filtered changes of basis only.

    Repeatedly picks an entry that is, within its own row and column,
    minimal in both U-power and j-drop (such a pivot can legally absorb
    its mates), then isolates it.  Raises NormalFormMismatch if no legal
    pivot exists while entries remain, which would mean the complex is not
    a direct sum of one- and two-generator filtered pieces.
    """
    state = _Reduction(c)
    gens, diff, sources = c.by_name, state.diff, state.sources

    def legal(s: str, t: str, k: int) -> bool:
        # the j-drop is A(s) - A(t) + k: a row mate's is no less iff
        # k2 - A(t2) >= k - A(t), a column mate's iff A(s2) + k2 >= A(s) + k
        a_s, a_t = gens[s].alexander, gens[t].alexander
        return all(k2 >= k and k2 - gens[t2].alexander >= k - a_t
                   for t2, k2 in diff[s].items()) and \
            all(diff[s2][t] >= k and gens[s2].alexander + diff[s2][t] >= a_s + k
                for s2 in sources[t])

    pivots = state.eliminate(legal, keep=True)
    if sum(len(row) for row in state.diff.values()) != len(pivots):
        raise NormalFormMismatch("no filtered splitting: no legal pivot remains")
    return state.finish()


def _classify(c: FilteredComplex) -> tuple[Summand, ...]:
    summands: list[Summand] = []
    paired: set[str] = set()
    gens = c.by_name
    for src, row in c.differential.items():
        if len(row) != 1:
            raise NormalFormMismatch(f"{src} has a non-monomial differential after splitting")
        (tgt, k), = row.items()
        g, h = gens[src], gens[tgt]
        kind = "horizontal" if k > 0 else "vertical"
        if k == 0 and g.alexander == h.alexander:
            raise NormalFormMismatch(f"{src} -> {tgt} is a leftover filtered unit")
        summands.append(Summand(kind, (src, tgt),
                                ((g.alexander, g.maslov), (h.alexander, h.maslov))))
        paired.update((src, tgt))
    for g in c.generators:
        if g.name not in paired:
            summands.append(Summand("free", (g.name,), ((g.alexander, g.maslov),)))
    return tuple(summands)


def normal_form(dc: DualCone) -> NormalFormResult:
    """Filtered-reduce the +1-framed dual cone and match it to its normal form.

    Expected shape for the twist-knot mirror models: one free generator at
    the origin, and equally many horizontal pairs U-one step below the
    diagonal and vertical pairs one step above, all at pinned bigradings.
    A mismatch is an error: it means the reduction or the cone is wrong.
    """
    require_framing(dc.cone.p, for_normal_form=True)
    rf = reduce(dc.complex, "filtered")
    split = split_to_summands(rf.complex)
    combined = ReducedForm(split.complex, rf.moves + split.moves)
    summands = _classify(split.complex)
    by_kind = {"free": [], "horizontal": [], "vertical": []}
    for s in summands:
        by_kind[s.kind].append(s)
    m = len(by_kind["horizontal"])
    if len(by_kind["vertical"]) != m or len(by_kind["free"]) != 1:
        raise NormalFormMismatch(
            f"summand counts (free, horizontal, vertical) = "
            f"({len(by_kind['free'])}, {m}, {len(by_kind['vertical'])})")
    o = by_kind["free"][0]
    if o.position != ((0, 0),):
        raise NormalFormMismatch(f"free generator at {o.position}, expected the origin")
    for s in by_kind["horizontal"]:
        if s.position != ((-1, 0), (0, 1)):
            raise NormalFormMismatch(f"horizontal pair at {s.position}")
        y, x = s.names
        if split.complex.differential[y][x] != 1:
            raise NormalFormMismatch("horizontal pair without U-power 1")
    for s in by_kind["vertical"]:
        if s.position != ((1, 2), (0, 1)):
            raise NormalFormMismatch(f"vertical pair at {s.position}")
    return NormalFormResult(combined, summands, by_kind)


# -- the U = 1 map ------------------------------------------------------------


class GMapReport(NamedTuple):
    alexander: int | Fraction
    domain_dim: int
    codomain_dim: int
    columns: list[int]         # one per domain generator, a bitset over the codomain basis
    map_rank: int
    domain: FilteredComplex    # the Alexander slice the map starts from
    codomain: ReducedForm      # the reduced j = 0 column

    @property
    def injective(self) -> bool:
        return self.map_rank == self.domain_dim


def g_map(c: FilteredComplex, alexander=None) -> GMapReport:
    """The U = 1 map on minus-flavor homology in Alexander grading s.

    U^s carries the slice {i <= 0, j = s}, powers A - s, to the j = 0 column,
    powers A, so the chain map is the identity on generator names.  c must be
    valid: the commands pass the normal form of a dual cone checked when built.
    """
    s = max(g.alexander for g in c.generators) if alexander is None else alexander
    domain = slice_through(c, {g.name: g.alexander - s for g in c.generators if g.alexander >= s})
    rf_dom = reduce(domain, "over_U_units")
    rf_cod = reduce(slice_through(c, {g.name: g.alexander for g in c.generators}), "over_U_units")
    columns = induced_map(rf_dom, rf_cod, {g.name: g.name for g in domain.generators})
    return GMapReport(s, len(rf_dom.complex), len(rf_cod.complex), columns, gf2.rank(columns),
                      domain, rf_cod)


def distinct_classes(gm: GMapReport, cycle_a, cycle_b) -> bool:
    """Whether two cycles of gm's slice, given as generator names, have
    different U = 1 images in the homology of the j = 0 column."""
    chains = []
    for names in (cycle_a, cycle_b):
        chain: Chain = {}
        for name in names:
            _toggle(chain, name, 0)
        for name in chain:
            if name not in gm.domain.by_name:
                raise NotCycles(f"{name} is not in the Alexander-{gm.alexander} slice")
        bdy = gm.domain.boundary(chain)
        if bdy:
            raise NotCycles(f"chain has nonzero boundary {sorted(bdy)}")
        chains.append(chain)
    pushed = _pushed(gm.codomain)
    image = 0
    for name in chains[0].keys() ^ chains[1].keys():
        image ^= pushed.get(name, 0)
    return image != 0


def loss_grading(tb: int, rot: int) -> int:
    """Alexander grading of the Legendrian invariant from (tb, rot)."""
    twice = tb - rot + 1
    if twice % 2 != 0:
        raise NonIntegral(f"(tb - rot + 1)/2 is not an integer for tb={tb}, rot={rot}")
    return twice // 2
