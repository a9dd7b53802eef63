"""Exact filtered chain complexes over GF(2)[U] and their reduction engine.

A complex here is finitely generated and free over GF(2)[U].  Each
generator is stored once, through the translate of its (i,j)-plane orbit
sitting at i = 0, and carries an Alexander grading A (the j-coordinate of
that translate, equivalently j - i of any translate) and a Maslov grading.
The translate U^k g then sits at (-k, A-k) with Maslov maslov(g) - 2k.

Every differential entry is a single monomial: d(g) contains U^k h with
k >= 0, where gradedness pins k = (maslov(h) - maslov(g) + 1) / 2.  For a
valid complex each entry drops i by k >= 0 and j by
alexander(g) - alexander(h) + k >= 0, and drops Maslov by exactly 1.

All reductions are sequences of two elementary moves that preserve
d^2 = 0 and gradedness:

* a graded change of basis  u := u + U^m v  (same Maslov after the shift),
* removal of an isolated two-generator summand  d(e) = U^c f.

Every pivot is chosen by one loop, `_Reduction.eliminate`, parameterized by
which entries may serve as pivots.  It gives filtered reduction (c = 0 and
equal Alexander gradings), reduction up to unfiltered GF(2)[U]-homotopy
equivalence (c = 0), reduction over the Laurent ring (any c), Smith normal
form over GF(2)[U] (in phases, one per U-power c from the least up, each
admitting entries of power c alone; c > 0 records U-torsion), which is how
homology is computed, and, keeping each isolated pair in place, the
filtered splitting of the dual-knot normal form.

A reduction's trace is its log of basis changes u := u + U^m v, in order,
each graded, Maslov(u) = Maslov(v) - 2m, as `basis_change` checks.  So a
homogeneous chain meets each name at one U-power only, and a trace can be
replayed on names alone, with GF(2) bitsets for coefficients.

Every map on homology is computed by one routine, `induced_map`, from a
graded map on generator names, in one replay of each trace.

Every GF(2) slice of a complex is built by one constructor, `slice_through`:
one translate U^p(g) g is chosen per generator, and d keeps the entries
g -> U^k h with p(h) = p(g) + k, those mapping a chosen translate onto
another.  The i = 0 column is p = 0, the j = 0 column p = A, the slice
{i <= 0, j = s} is p = A - s on the generators with A >= s, and the surgery
cone's hat vertices are A^_s, p = max(0, A - s), and B^, p = 0.  Hat knot
homology needs no slice: it counts the generators of the filtered reduction.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParameter, InternalError

Chain = dict[str, int]  # generator name -> U-power, GF(2) coefficients implicit
DiffMap = dict[str, dict[str, int]]


def _exact(x) -> int | Fraction:
    """x as an int when it is integral, as a Fraction only when it is not."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class _Bigraded(NamedTuple):
    name: str
    alexander: int | Fraction
    maslov: int | Fraction


class Generator(_Bigraded):
    """A free GF(2)[U]-generator with its bigrading.

    Each grading is stored as an int when it is integral and as a Fraction
    only when it is not, so equal gradings always have the same type.
    """

    __slots__ = ()

    def __new__(cls, name: str, alexander: int | Fraction, maslov: int | Fraction):
        return tuple.__new__(cls, (name, _exact(alexander), _exact(maslov)))


class FilteredComplex:
    """Immutable-by-convention complex; operations return new values.  A loop
    over every entry reads its read-only tables by_name (name -> Generator)
    and index (name -> position in generators), not a query method per entry."""

    def __init__(self, generators: Sequence[Generator], differential: Mapping[str, Mapping[str, int]]):
        self.generators: tuple[Generator, ...] = tuple(generators)
        self.by_name: dict[str, Generator] = {g.name: g for g in self.generators}
        if len(self.by_name) != len(self.generators):
            raise BadParameter("duplicate generator names")
        self.index = order = {g.name: i for i, g in enumerate(self.generators)}
        diff: DiffMap = {}
        for src, row in differential.items():
            row = {tgt: int(k) for tgt, k in row.items()}
            if len(row) > 1:
                row = dict(sorted(row.items(), key=lambda it: order.get(it[0], -1)))
            if row:
                diff[src] = row
        self.differential: DiffMap = diff

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.generators)

    def entries(self) -> Iterator[tuple[str, str, int]]:
        for src in self.differential:
            for tgt, k in self.differential[src].items():
                yield src, tgt, k

    def boundary(self, chain: Chain) -> Chain:
        """d of a GF(2)[U]-chain given as {name: power}."""
        out: Chain = {}
        for name, power in chain.items():
            for tgt, k in self.differential.get(name, {}).items():
                _toggle(out, tgt, power + k)
        return out


def _toggle(row: dict[str, int], key: str, power: int) -> None:
    # GF(2): inserting an existing monomial cancels it.  Gradedness means a
    # (source, target) pair admits a single power, which we check.
    if key in row:
        if row[key] != power:
            raise InternalError(f"non-graded toggle on {key}: {row[key]} vs {power}")
        del row[key]
    else:
        row[key] = power


# -- validation -----------------------------------------------------------


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "\n".join(self.violations)


def check_complex(c: FilteredComplex) -> ValidationReport:
    """Diagnostic check of every structural invariant; empty report iff valid.
    In a graded complex src and tgt2 fix the U-power of src -> tgt -> tgt2, so
    d^2 is checked by names alone, and by (name, power) where names do not
    cancel or some entry is not graded."""
    bad: list[str] = []
    gens, diff = c.by_name, c.differential
    graded = True
    for src, row in diff.items():
        g = gens.get(src)
        for tgt, k in row.items():
            h = gens.get(tgt)
            if h is None:
                bad.append(f"entry {src} -> {tgt}: unknown target")
                graded = False
                continue
            if g is None:
                continue  # reported with its row below
            if k < 0:
                bad.append(f"entry {src} -> U^{k} {tgt}: negative power")
            if h.maslov - 2 * k != g.maslov - 1:
                bad.append(f"entry {src} -> U^{k} {tgt}: Maslov drop is not 1")
                graded = False
            jd = g.alexander - h.alexander + k
            if jd < 0:
                bad.append(f"entry {src} -> U^{k} {tgt}: raises j-filtration by {-jd}")
    for src in diff:
        if src not in gens:
            bad.append(f"differential row for unknown generator {src}")
    for src, row in diff.items():
        if src not in gens:
            continue
        if graded:
            odd: set[str] = set()
            for tgt in row:
                odd.symmetric_difference_update(diff.get(tgt, ()))
            if not odd:
                continue
        square: dict[tuple[str, int], int] = {}
        for tgt, k in row.items():
            if tgt not in gens:
                continue
            for tgt2, k2 in diff.get(tgt, {}).items():
                key = (tgt2, k + k2)
                square[key] = square.get(key, 0) ^ 1
        for (tgt2, power), parity in square.items():
            if parity:
                bad.append(f"d^2({src}) contains U^{power} {tgt2}")
    return ValidationReport(tuple(bad))


def require_valid(c: FilteredComplex) -> None:
    report = check_complex(c)
    if not report.ok:
        raise BadParameter("invalid complex:\n" + str(report))


# -- reduction engine ------------------------------------------------------


class ReducedForm(NamedTuple):
    """A reduced complex plus the basis changes (u, v, m) that produced it,
    each of which replaced u by u + U^m v."""

    complex: FilteredComplex
    moves: list[tuple[str, str, int]]


def _replay(moves: Iterable[tuple[str, str, int]], images: dict[str, int]) -> dict[str, int]:
    # GF(2) rows, name -> bitset: u := u + U^m v adds v's row to u's
    for u, v, _ in moves:
        if v in images:
            images[u] = images.get(u, 0) ^ images[v]
    return images


class _Reduction:
    """Mutable working state for the elimination loop."""

    def __init__(self, c: FilteredComplex):
        self.c = c
        self.gens: dict[str, Generator] = dict(c.by_name)
        self.diff: DiffMap = {s: dict(r) for s, r in c.differential.items()}
        self.sources: dict[str, dict[str, None]] = {}  # columns, walked in insertion order
        for s, row in self.diff.items():
            for t in row:
                self.sources.setdefault(t, {})[s] = None
        self.moves: list[tuple[str, str, int]] = []  # the trace, see ReducedForm
        self.enqueue: Callable[[str, str, int], None] = lambda s, t, k: None  # eliminate's feed
        self.touched: tuple[set[str], set[str]] = (set(), set())  # rows, columns _set changed

    # elementary moves ----------------------------------------------------

    def _set(self, src: str, tgt: str, power: int) -> None:
        row = self.diff.setdefault(src, {})
        _toggle(row, tgt, power)
        self.touched[0].add(src)
        self.touched[1].add(tgt)
        if tgt in row:
            self.sources.setdefault(tgt, {})[src] = None
            self.enqueue(src, tgt, power)
        else:
            self.sources.get(tgt, {}).pop(src, None)
            if not row:
                del self.diff[src]

    def basis_change(self, u: str, v: str, m: int) -> None:
        """Replace u by u + U^m v (GF(2), so it is its own inverse)."""
        if u == v:
            raise InternalError(f"basis change of {u} against itself")
        if self.gens[u].maslov != self.gens[v].maslov - 2 * m:
            raise InternalError(f"non-graded basis change {u} := {u} + U^{m} {v}")
        for tgt, k in list(self.diff.get(v, {}).items()):
            self._set(u, tgt, k + m)
        for s in list(self.sources.get(u, {})):
            self._set(s, v, self.diff[s][u] + m)
        self.moves.append((u, v, m))

    def isolate(self, e: str, f: str) -> None:
        """Clear row e / column f against the pivot entry d(e) = U^c f."""
        c = self.diff[e][f]
        for s in list(self.sources.get(f, {})):
            if s != e:
                self.basis_change(s, e, self.diff[s][f] - c)
        for h, d in list(self.diff.get(e, {}).items()):
            if h != f:
                self.basis_change(f, h, d - c)
        if set(self.diff[e]) != {f}:
            raise InternalError(f"row of {e} not cleared")
        if self.sources[f].keys() != {e}:
            raise InternalError(f"column of {f} not cleared")

    def remove_pair(self, e: str, f: str) -> None:
        """Drop a summand d(e) = U^c f that isolate has cleared."""
        if self.sources.get(e):
            raise InternalError(f"unexpected entries into {e}")
        if self.diff.get(f):
            raise InternalError(f"unexpected entries out of {f}")
        del self.diff[e]
        self.sources.pop(f, None)
        self.sources.pop(e, None)
        del self.gens[e], self.gens[f]

    # the elimination loop -------------------------------------------------

    def eliminate(self, accept: Callable[[str, str, int], bool], *,
                  keep: bool = False) -> list[tuple[str, str, int]]:
        """Isolate pivot entries until accept admits none; returns the pivots.

        The pivot is the first live entry src -> U^k tgt in generator order
        (source, then target) that accept(src, tgt, k) admits.  Candidates
        wait in a heap that _set feeds, so accept runs once per inserted
        entry; with keep it reads the live row and column, so it runs when a
        candidate is popped, and a rejected one waits, filed under its row
        and its column, until a pivot's isolate changes one of them.
        Each pivot e -> U^c f is isolated, then removed, or with keep left in
        place and skipped from then on.  Pivots are returned as (e, f, c).
        """
        index = self.c.index
        pivots: list[tuple[str, str, int]] = []
        kept: set[str] = set()
        heap: list[tuple] = []

        def enqueue(s: str, t: str, k: int) -> None:
            if keep or accept(s, t, k):
                heappush(heap, (index[s], index[t], s, t, k))

        def live(x: tuple) -> bool:  # stale records are dropped when popped
            _, _, s, t, k = x
            return self.diff.get(s, {}).get(t) == k and s not in kept and t not in kept

        # keep mode: each rejected record, filed under its row and its column;
        # accept reads only those two, so while neither changes it stays rejected
        waiting: tuple[dict[str, set], dict[str, set]] = ({}, {})

        for s, row in self.diff.items():
            for t, k in row.items():
                enqueue(s, t, k)
        self.enqueue = enqueue
        while True:
            pivot = None
            while heap and pivot is None:
                x = heappop(heap)
                if live(x):
                    if keep and not accept(*x[2:]):
                        for filed, g in zip(waiting, x[2:4]):
                            filed.setdefault(g, set()).add(x)
                    else:
                        pivot = x[2:]
            if pivot is None:
                return pivots
            e, f, _ = pivot
            for names in self.touched:
                names.clear()
            self.isolate(e, f)
            if keep:
                kept.update((e, f))
                due = {x for filed, names in zip(waiting, self.touched)
                       for g in names & filed.keys() for x in filed[g]}
                for x in due:
                    for filed, g in zip(waiting, x[2:4]):
                        filed[g].discard(x)
                    heappush(heap, x)
            else:
                self.remove_pair(e, f)
            pivots.append(pivot)

    def finish(self) -> ReducedForm:
        if not self.moves and len(self.gens) == len(self.c):
            return ReducedForm(self.c, [])  # d changes only through basis_change
        reduced = FilteredComplex(list(self.gens.values()),
                                  {s: dict(r) for s, r in self.diff.items()})
        return ReducedForm(reduced, self.moves)


REDUCE_MODES = ("filtered", "over_U_units", "full_field")


def reduce(c: FilteredComplex, mode: str = "filtered") -> ReducedForm:
    """Iterated cancellation in one of three regimes.

    filtered      cancels only U^0 entries between equal (i,j)-positions, so
                  the result is filtered chain homotopy equivalent to c;
    over_U_units  cancels every U^0 entry (homotopy equivalence over GF(2)[U]);
    full_field    inverts U and cancels everything, leaving zero differential
                  (homotopy equivalence over GF(2)[U,U^-1]).

    The pivot is the first admitted entry in generator order.
    """
    if mode not in REDUCE_MODES:
        raise BadParameter(f"unknown reduce mode {mode!r}")
    state = _Reduction(c)
    if mode == "filtered":
        gens = c.by_name  # a U^0 entry between equal (i, j)-positions keeps A
        accept = lambda s, t, k: k == 0 and gens[s].alexander == gens[t].alexander
    elif mode == "over_U_units":
        accept = lambda s, t, k: k == 0
    else:
        accept = lambda s, t, k: True
    state.eliminate(accept)
    return state.finish()


# -- homology --------------------------------------------------------------


class GradedRanks(NamedTuple):
    """Free ranks and U-torsion orders of homology, keyed by grading tuples."""

    ranks: Mapping[tuple, int]
    torsion: Mapping[tuple, tuple[int, ...]] = MappingProxyType({})  # read-only, so shareable

    @property
    def total_rank(self) -> int:
        return sum(self.ranks.values())


def grading_key(g: Generator, keys: Sequence[str]) -> tuple:
    parts = []
    for k in keys:
        if k == "alexander":
            parts.append(g.alexander)
        elif k == "maslov":
            parts.append(g.maslov)
        else:
            raise BadParameter(f"unknown grading key {k!r}")
    return tuple(parts)


def grading_counts(generators: Iterable[Generator], keys: Sequence[str]) -> dict[tuple, int]:
    """How many of generators sit at each key of the selected gradings."""
    counts: dict[tuple, int] = {}
    for g in generators:
        key = grading_key(g, keys)
        counts[key] = counts.get(key, 0) + 1
    return counts


def homology(c: FilteredComplex, keys: Sequence[str] = ("alexander", "maslov")) -> GradedRanks:
    """Homology of c as a GF(2)[U]-module via graded Smith normal form.

    Ranks count free GF(2)[U] summands, the torsion table lists U-powers of
    GF(2)[U]/U^k summands, both keyed by the selected gradings of their
    generating class.  Basis independent.  Each phase pivots on the entries
    of the least live U-power; no isolate makes an entry of lower power than
    its pivot's, so the phases take the pivots of one lowest-power-first
    scan, and all elimination stays inside the polynomial ring.
    """
    state = _Reduction(c)
    pivots: list[tuple[str, str, int]] = []
    while state.diff:
        low = min(k for row in state.diff.values() for k in row.values())
        pivots += state.eliminate(lambda s, t, k: k == low)
    ranks = grading_counts(state.gens.values(), keys)
    torsion: dict[tuple, list[int]] = {}
    for _, name, order in pivots:
        if order > 0:
            key = grading_key(c.by_name[name], keys)
            torsion.setdefault(key, []).append(order)
    return GradedRanks(ranks, {k: tuple(sorted(v)) for k, v in torsion.items()})


# -- maps on homology --------------------------------------------------------


def induced_map(rf_dom: ReducedForm, rf_cod: ReducedForm, image: Mapping[str, str]) -> list[int]:
    """The map on homology of the graded chain map n -> image[n] (0 on the
    names image leaves out), both reduced forms having zero differential:
    one column per rf_dom generator, as a bitset over rf_cod's basis (bit i
    = generator i).  Each input name's row is its image's row in rf_cod's
    basis; rf_dom's trace, replayed forwards, carries the rows onto its
    reduced generators, which pulls each of them back in one pass."""
    pushed = _pushed(rf_cod)
    rows = _replay(rf_dom.moves, {n: pushed.get(m, 0) for n, m in image.items()})
    return [rows.get(b.name, 0) for b in rf_dom.complex.generators]


def _pushed(rf: ReducedForm) -> dict[str, int]:
    """Each input name's image in rf's reduced basis as a bitset, from one
    backwards replay of the trace; an absent name's image is 0."""
    return _replay(reversed(rf.moves), {g.name: 1 << i for i, g in enumerate(rf.complex.generators)})


# -- graded slices ---------------------------------------------------------


def slice_through(c: FilteredComplex, power: Mapping[str, int]) -> FilteredComplex:
    """The GF(2) complex spanned by one translate U^power[g] g per generator
    that power names, each named by its generator.

    Each translate's Maslov grading is lowered by 2 power[g] and its
    Alexander grading stays.  An entry g -> U^k h is kept, at U-power 0,
    exactly when h is named and power[h] = power[g] + k, that is when d
    carries the chosen translate of g onto the chosen translate of h.
    """
    gens = [Generator(g.name, g.alexander, g.maslov - 2 * power[g.name]) if power[g.name] else g
            for g in c.generators if g.name in power]
    diff = {src: {tgt: 0 for tgt, k in row.items() if power.get(tgt) == power[src] + k}
            for src, row in c.differential.items() if src in power}
    return FilteredComplex(gens, diff)

