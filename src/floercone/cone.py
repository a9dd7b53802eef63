"""Surgery mapping cones: assembly and sectors from vertex homology.

For coprime p, q (q > 0) the cone over a FlipMap has one copy of the model
it checked per vertex (t, A_s) and (t, B_s), s = floor(t/q).  Edges are v_t
(the identity A_t -> B_t) and h_t (U^s after the flip map, A_t -> B_{t+p}).
Everything is stored through the I = 0 translate of each copy, where

    I = max(i, j - s)   on A-vertices,        I = i   on B-vertices,

so a cone element for generator g of Alexander grading A sits at U-offset
p = max(0, A - s) in an A-copy and p = 0 in a B-copy, and every differential
entry automatically has a nonnegative U-power equal to its I-drop.  The hat
flavor is the I-preserving part on those translates: the hat vertex A^_s is
`slice_through(source, p)` and B^ is its p = 0 slice.  Over GF(2)[U,U^-1]
the offsets only rename U-powers, so every infinity vertex is the source.

Sector ranks.  Over a field, the cone of D: (+)A_s -> (+)B has in each
Maslov degree m

    dim H_m = dim H(A)_m + dim H(B)_m - rank D_m - rank D_(m+1),

where D_m is D on source degree m (D lowers Maslov by 1).  So the hat
`sector_homology` reduces A^_s once for each s in [0, top], top + 1
reductions for the model's top Alexander grading top.  B^ is A^_top: from
top on every offset is 0, so above top A^_s keeps A^_top's reduction and
v, and h is 0.  The flip g -> U^(-A) sigma g carries A^_(-s) onto U^s A^_s
and swaps v and h, so below 0 A^_s is A^_(-s) with v and h swapped and
every Maslov grading moved by 2 s.  The infinity flavor reduces the source
once for the whole cone.  It reads v and h on their homology with
`induced_map`, and ranks one GF(2) matrix per degree between those
homology bases, shifted by phi.  `include_B` reads the same data and phi
on its own sector alone.  No sector is flattened; the flattened
whole cone (`total_complex`, `hat_complex`; at q = 1 its Alexander field is
the dual knot's J - I) remains for the dual cone and the checks.

Vertex ranges.  The t-window must satisfy two constraints so that the
omitted vertices cancel in (A_t, B_t) pairs via v (an isomorphism once
s >= genus) on the right and in (A_t, B_{t+p}) pairs via h (an
isomorphism once s <= -genus) on the left: the A-window [lo, hi] needs
hi >= gq - 1 and lo <= (1-g)q, and the B-window is then [lo + p, hi].
The "paper" mode is the minimal such window written out by hand, with
the floor lowered to
gq - p when p > (2g-1)q so that every Spin^c sector keeps its surviving
vertex; "full" pads both ends, and the tests check that both windows give
the same sectors.  `windows` refuses a window over MAX_CONE_VERTICES or
MAX_REDUCED_ELEMENTS before building it; the flattening and the exact
triangle keep MAX_FLAT_ELEMENTS and MAX_SECTOR_RANK.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple

from . import gf2
from .algebra import (
    FilteredComplex,
    Generator,
    GradedRanks,
    ReducedForm,
    _exact,
    induced_map,
    reduce,
    slice_through,
)
from .errors import BadCoefficient, DomainError, InternalError, NoSuchVertex, count_text
from .models import FlipMap

# Budgets of a cone, each checked before what it bounds is built.  Every
# vertex holds its own phi entry, sector slot and report line.  The hat
# sector path reduces A_s once for each s in [0, top], the infinity path
# the source once, and each keeps every reduction with its trace; the dual
# cone flattens every vertex instead.  `windows` keeps its count, one A_s
# per s clamped to [-top - 1, top + 1] plus one, an upper bound on the
# top + 1 reductions, so the windows it refuses stay the same.  The exact
# triangle ranks dense GF(2) bitsets over a sector's vertex homology, so
# its memory grows with the square of that rank.
MAX_CONE_VERTICES = 120_000
MAX_REDUCED_ELEMENTS = 1_000_000
MAX_FLAT_ELEMENTS = 500_000
MAX_SECTOR_RANK = 100_000


def windows(flip: FlipMap, p: int, q: int, lo: int, hi: int) -> tuple[range, range]:
    """The A-window [lo, hi] and the B-window [lo + p, hi] of a p/q cone over
    flip, refused before either is built when its vertices, or an upper
    bound on the model elements its vertex reductions hold, would pass
    their budget."""
    vertices = max(0, hi + 1 - lo) + max(0, hi + 1 - lo - p)
    if vertices > MAX_CONE_VERTICES:
        raise DomainError(f"the cone window has {count_text(vertices)} vertices "
                          f"(MAX_CONE_VERTICES = {MAX_CONE_VERTICES})")
    a_keys = _shared_s(hi // q, flip.top) + 1 - _shared_s(lo // q, flip.top) if hi >= lo else 0
    reduced = (a_keys + 1) * len(flip.source)
    if reduced > MAX_REDUCED_ELEMENTS:
        raise DomainError(f"the cone window reduces {reduced} model elements "
                          f"(MAX_REDUCED_ELEMENTS = {MAX_REDUCED_ELEMENTS})")
    return range(lo, hi + 1), range(lo + p, hi + 1)


def _shared_s(s: int, top: int) -> int:
    """The s whose record A_s shares: s clamped to [-top - 1, top + 1]."""
    return min(max(s, -top - 1), top + 1)


def _tail_lift(s: int) -> int:
    """What A_s adds to each Maslov grading of the reduction it shares:
    2 s below 0, where that is A_(-s)'s, and 0 elsewhere."""
    return 2 * min(0, s)


def _identity(rf: ReducedForm) -> list[int]:
    """The identity map on rf's homology basis, as bitset columns."""
    return [1 << i for i in range(len(rf.complex))]


# sector ranks per flavor are keyed by Maslov grading (hat) or by its parity, which D flips
_GRADING_KEY: dict[str, Callable] = {"hat": _exact, "infinity": lambda m: _exact(m % 2)}


def _require_coprime(p: int, q: int) -> None:
    if q <= 0 or p == 0 or gcd(p, q) != 1:
        raise BadCoefficient(f"need coprime p != 0, q > 0; got p/q = {p}/{q}")


class ConeVertex(NamedTuple):
    segment: str  # "A" or "B"
    t: int
    s: int


class VertexHomology(NamedTuple):
    """Homology of one A-vertex copy, with v and h on it; B's is A_top's."""
    reduced: ReducedForm             # zero differential: a homology basis, graded before phi
    v: list[int]                     # columns as bitsets over B's basis
    h: list[int]


class MappingCone:
    """The p/q cone over flip.source on the A-vertices a_ts and B-vertices b_ts."""

    def __init__(self, flip: FlipMap, p: int, q: int, a_ts: Iterable[int], b_ts: Iterable[int]):
        _require_coprime(p, q)
        self.flip = flip
        self.p = p
        self.q = q
        self.a_ts = tuple(sorted(set(a_ts)))
        self.b_ts = tuple(sorted(set(b_ts)))
        self._sectors: dict[int, tuple[list[int], list[int]]] | None = None
        self._homology: dict[tuple[str, int], VertexHomology] = {}  # (flavor, shared s)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, flip: FlipMap, p: int, q: int, range_mode: str = "paper") -> "MappingCone":
        _require_coprime(p, q)
        g = flip.genus
        lo = min((1 - g) * q, g * q - p)
        hi = g * q - 1
        if range_mode == "full":
            pad = g + abs(p) + q
            lo -= pad
            hi += pad
        elif range_mode != "paper":
            raise BadCoefficient(f"unknown range mode {range_mode!r}")
        return cls(flip, p, q, *windows(flip, p, q, lo, hi))

    def s_of(self, t: int) -> int:
        return t // self.q

    def spin_c(self, t: int) -> int:
        return t % abs(self.p)

    @property
    def sectors(self) -> range:
        return range(abs(self.p))

    def _sector_ts(self, sector: int) -> tuple[list[int], list[int]]:
        """The ascending A- and B-vertex ts of one sector; every sector is
        grouped in one pass, for `phi` and `sector_homology`."""
        if self._sectors is None:
            self._sectors = {}
            for k, ts in enumerate((self.a_ts, self.b_ts)):
                for t in ts:
                    self._sectors.setdefault(self.spin_c(t), ([], []))[k].append(t)
        return self._sectors.get(sector, ([], []))

    def vertices(self) -> list[ConeVertex]:
        return [ConeVertex("A", t, self.s_of(t)) for t in self.a_ts] + \
               [ConeVertex("B", t, self.s_of(t)) for t in self.b_ts]

    # -- Maslov bookkeeping -------------------------------------------------

    def phi(self) -> Mapping[tuple[str, int], int | Fraction]:
        """Per-vertex Maslov shift making every cone edge drop the grading by 1:
        the solution of

            phi(B,t) = phi(A,t) - 1,   phi(A,t+p) = phi(A,t) + 2 s(t),

        summed outward from each sector's anchor t0 in [0, |p|) as far as its
        farthest vertex.  For q = 1 the anchor is the absolute dual-knot
        correction (2t0 - n)^2/4n + (2 - 3 sign n)/4 for framing n = p; for
        q > 1 it is 0, so gradings are relative per Spin^c sector and every
        t-window of the same cone carries the same ones.
        """
        shifts: dict[tuple[str, int], int | Fraction] = {}
        for t0 in self.sectors:
            a_ts, b_ts = self._sector_ts(t0)
            phi_a = self._sector_phi(t0, a_ts + b_ts)
            shifts.update((("A", t), phi_a[t]) for t in a_ts)
            shifts.update((("B", t), phi_a[t] - 1) for t in b_ts)
        return shifts

    def _sector_phi(self, t0: int, ts: list[int]) -> dict[int, int | Fraction]:
        """phi(A, t) of sector t0, from its anchor out to the farthest of ts."""
        p = self.p
        # the anchor and the sector's vertices are t0 + j p for j in js
        js = [0] + [(t - t0) // p for t in ts]
        phi_a: dict[int, int | Fraction] = {
            t0: _exact(Fraction((2 * t0 - p) ** 2 + 2 * p - 3 * abs(p), 4 * p)) if self.q == 1 else 0}
        for t in range(t0 + p, t0 + (max(js) + 1) * p, p):
            phi_a[t] = phi_a[t - p] + 2 * self.s_of(t - p)
        for t in range(t0 - p, t0 + (min(js) - 1) * p, -p):
            phi_a[t] = phi_a[t + p] - 2 * self.s_of(t)
        return phi_a

    # -- assembly -----------------------------------------------------------

    @staticmethod
    def element_name(segment: str, t: int, base: str) -> str:
        return f"{segment}{t}.{base}"

    def total_complex(self) -> tuple[FilteredComplex, dict[str, ConeVertex]]:
        """Flatten the whole cone: A-vertices, then B-vertices, each by ascending t;
        the table maps each element to its vertex, one ConeVertex per vertex.

        At q = 1 each element's Alexander field is the dual knot's J - I (see
        `dual`); at q > 1 it is 0, and only the U-power (the I-drop) counts.
        """
        source, sigma = self.flip.source, self.flip.pairing
        elements = (len(self.a_ts) + len(self.b_ts)) * len(source)
        if elements > MAX_FLAT_ELEMENTS:
            raise DomainError(f"the flattened cone has {elements} elements "
                              f"(MAX_FLAT_ELEMENTS = {MAX_FLAT_ELEMENTS})")
        phi = self.phi()
        gens: list[Generator] = []
        table: dict[str, ConeVertex] = {}
        # per vertex: each source generator's element name and U-offset
        vertex: dict[tuple[str, int], dict[str, tuple[str, int]]] = {}
        for cv in self.vertices():
            segment, t, s = cv
            shift = phi[(segment, t)]
            # J - I at q = 1: (2t + p - 1)/2p, less 1 on B and on A-elements with A < t
            j = _exact(Fraction(2 * t + self.p - 1, 2 * self.p)) if self.q == 1 else 0
            low = j - 1 if self.q == 1 else 0
            elements = vertex[(segment, t)] = {}
            for g in source.generators:
                name = self.element_name(segment, t, g.name)
                off = max(0, g.alexander - s) if segment == "A" else 0
                a = low if segment == "B" or g.alexander < t else j
                gens.append(Generator(name, a, g.maslov - 2 * off + shift))
                table[name] = cv
                elements[g.name] = name, off

        diff: dict[str, dict[str, int]] = {}

        def put(src: str, tgt: str, power: int) -> None:
            if power < 0:
                raise InternalError(f"cone entry {src} -> {tgt} with power {power}")
            diff.setdefault(src, {})[tgt] = power

        for (segment, t), elements in vertex.items():
            # B_t and B_(t+p) share the sector of A_t, so they are here if in the cone
            v_edge = segment == "A" and vertex.get(("B", t))
            h_edge = segment == "A" and vertex.get(("B", t + self.p))
            s = self.s_of(t)
            for g in source.generators:
                src, off = elements[g.name]
                # each entry's U-power is its I-drop between the two translates
                for tgt, k in source.differential.get(g.name, {}).items():
                    name, tgt_off = elements[tgt]
                    put(src, name, k + off - tgt_off)
                if v_edge:
                    put(src, v_edge[g.name][0], off)
                if h_edge:  # g -> U^(-A) sigma g, then to B_(t+p) at offset 0
                    put(src, h_edge[sigma[g.name]][0], s - g.alexander + off)
        return FilteredComplex(gens, diff), table

    def hat_complex(self) -> tuple[FilteredComplex, dict[str, ConeVertex]]:
        """The I = 0 part: same elements, only the U-power-0 entries."""
        total, table = self.total_complex()
        return slice_through(total, dict.fromkeys(table, 0)), table

    # -- derived quantities ---------------------------------------------------

    def _vertex_homology(self, s: int, flavor: str) -> VertexHomology:
        """Homology of A_s in source coordinates, with v and h into B's basis.

        Hat: A^_s is `slice_through(source, p)` for p = max(0, A - s).  v keeps
        the translates with p = 0 (A <= s), and h pairs by the flip those with
        A >= s, whose h-power max(0, s - A) is 0.  A^_s is reduced once for
        each s in [0, top], and B^ is A^_top, since from top on every offset
        is 0, so A^_top's v is the identity.  Above top A^_s keeps A^_top's
        reduction and v, and h is 0.  Below 0 the flip g -> U^(-A) sigma g is
        an isomorphism A^_s -> A^_(-s) after which A^_(-s)'s h is v and its v
        is h, so A^_s is A^_(-s)'s record with v and h swapped and each Maslov
        grading moved by `_tail_lift(s)`, which the caller adds.  So the
        records stop changing outside [-top - 1, top + 1].

        Infinity: over GF(2)[U,U^-1] the offsets only rename U-powers, and
        full_field pivots on the support in generator order, so one
        reduction of the source serves every vertex, with v the identity and
        h the flip g -> U^(-A) sigma g, which is sigma on names since the
        gradings fix its U-powers.  The gradings it drops, 2 p and the tail
        lift, are even, and infinity keys by Maslov parity.
        """
        hat, top = flavor == "hat", self.flip.top
        s = _shared_s(s, top) if hat else top
        found = self._homology.get((flavor, s))
        if found is not None:
            return found
        source, sigma = self.flip.source, self.flip.pairing
        if not hat:
            rf = reduce(source, "full_field")
            found = VertexHomology(rf, _identity(rf), induced_map(rf, rf, sigma))
        elif s > top:
            a = self._vertex_homology(top, flavor)
            found = VertexHomology(a.reduced, a.v, [0] * len(a.h))
        elif s < 0:
            a = self._vertex_homology(-s, flavor)
            found = VertexHomology(a.reduced, a.h, a.v)
        else:
            power = {g.name: max(0, g.alexander - s) for g in source.generators}
            rf = reduce(slice_through(source, power), "over_U_units")
            b = rf if s == top else self._vertex_homology(top, flavor).reduced  # B is A_top
            v = _identity(rf) if s == top else induced_map(
                rf, b, {g.name: g.name for g in source.generators if g.alexander <= s})
            h = induced_map(rf, b, {g.name: sigma[g.name] for g in source.generators
                                    if g.alexander >= s})
            found = VertexHomology(rf, v, h)
        if found.reduced.complex.differential:
            vertex = f"vertex A_{s}" if hat else "the source"
            raise InternalError(f"{vertex} keeps a differential after reduction")
        self._homology[(flavor, s)] = found
        return found

    def _triangle(self, sector: int, ts: tuple[list[int], list[int]],
                  flavor: str) -> tuple[dict, dict, dict]:
        """The exact-triangle data of one sector on its A- and B-vertex ts,
        keyed by the flavor's `_GRADING_KEY`: per key, dim H(A) + dim H(B); per
        source key, the columns of D as bitsets over the B-homology basis; per
        B-vertex t, the first row of its block."""
        key = _GRADING_KEY[flavor]
        a_ts, b_ts = ts
        phi_a = self._sector_phi(sector, a_ts + b_ts)
        count: dict[int | Fraction, int] = {}  # key -> dim H(A) + dim H(B)
        first_row: dict[int, int] = {}   # B-vertex t -> its block of rows
        n_rows = 0
        b = self._vertex_homology(self.flip.top, flavor).reduced.complex  # B is A_top
        for t in b_ts:
            first_row[t] = n_rows
            n_rows += len(b)
            shift = phi_a[t] - 1
            for g in b.generators:
                k = key(g.maslov + shift)
                count[k] = count.get(k, 0) + 1
        a_homology = [(t, self._vertex_homology(self.s_of(t), flavor)) for t in a_ts]
        rank = n_rows + sum(len(a.reduced.complex) for _, a in a_homology)
        if rank > MAX_SECTOR_RANK:
            raise DomainError(f"sector {sector}'s vertex homology has rank {rank} "
                              f"(MAX_SECTOR_RANK = {MAX_SECTOR_RANK})")
        columns: dict[int | Fraction, list[int]] = {}  # source key of D -> its columns
        for t, a in a_homology:
            v_row, h_row = first_row.get(t), first_row.get(t + self.p)
            shift = phi_a[t] + _tail_lift(self.s_of(t))
            for g, v, h in zip(a.reduced.complex.generators, a.v, a.h):
                k = key(g.maslov + shift)
                count[k] = count.get(k, 0) + 1
                col = 0 if v_row is None else v << v_row
                if h_row is not None:
                    col |= h << h_row
                columns.setdefault(k, []).append(col)
        return count, columns, first_row

    def sector_homology(self, sector: int, flavor: str = "hat") -> GradedRanks:
        """Ranks of one sector from its vertices' homology and the exact triangle.

        Every entry of D is a homogeneous monomial, so its rank over
        GF(2)[U,U^-1] is the GF(2) rank of its 0/1 support.
        """
        if flavor not in _GRADING_KEY:
            raise BadCoefficient(f"unknown flavor {flavor!r}")
        key = _GRADING_KEY[flavor]
        count, columns, _ = self._triangle(sector, self._sector_ts(sector), flavor)
        d_rank = {k: gf2.rank(cols) for k, cols in columns.items()}
        ranks = {}
        for k, n in count.items():
            r = n - d_rank.get(k, 0) - d_rank.get(key(k + 1), 0)
            if r:
                ranks[(k,)] = r
        return GradedRanks(ranks)


class IncludeBReport(NamedTuple):
    """Ranks of the map H(B_t) -> H(sector) on hat homology."""
    t: int
    sector: int
    domain_rank: int
    codomain_rank: int
    map_rank: int

    @property
    def injective(self) -> bool:
        return self.map_rank == self.domain_rank

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.domain_rank == self.codomain_rank


def include_B(cone: MappingCone, t: int) -> IncludeBReport:
    """Induced map on hat homology of the inclusion of vertex (t, B) in its sector.

    Its kernel is H(B_t) meet im D_*, so its rank is rank [D | H(B_t)] - rank D;
    the sector has rank sum(dim H(A) + dim H(B)) - 2 rank D.
    """
    if t not in cone.b_ts:
        raise NoSuchVertex(f"no vertex (B, {t}) in this cone")
    sector, m = cone.spin_c(t), abs(cone.p)
    # this sector's vertices alone, not the cone's grouping of every sector:
    # grouping made build + include_B on the k = 44 pipeline cone 408 -> 520 us
    # (medians of 10 interleaved rounds, 2-core host)
    ts = tuple([u for u in vertex_ts if u % m == sector] for vertex_ts in (cone.a_ts, cone.b_ts))
    count, columns, first_row = cone._triangle(sector, ts, "hat")
    pivots: dict[int, int] = {}
    d_rank = gf2.rank([col for cols in columns.values() for col in cols], pivots)
    domain = len(cone._vertex_homology(cone.flip.top, "hat").reduced.complex)  # B is A_top
    units = [1 << row for row in range(first_row[t], first_row[t] + domain)]
    return IncludeBReport(t, sector, domain, sum(count.values()) - 2 * d_rank,
                          gf2.rank(units, pivots) - d_rank)
