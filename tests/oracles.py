"""Independent oracles kept deliberately separate from the package code.

* dense GF(2) Gaussian elimination for homology of finite complexes,
  working on explicit boundary matrices between graded pieces;
* two-bridge Alexander polynomials from the classical alternating-sum
  formula on the fraction (Minkus), cross-checking the models' graded
  Euler characteristics;
* brute-force enumeration of (i,j)-plane translates for hat-vertex counts,
  and the GF(2) complex on the translates a region of the plane picks;
* the j-preserving slice, whose homology is the minus-flavor knot homology,
  and the slice {i <= 0, j = s}, whose homology is its Alexander grading s;
* hat knot homology's ranks per Alexander grading, Maslov gradings summed;
* the cancellation of one chosen unit entry with the engine's own moves;
* the validator that checks d^2 by (target, U-power) parity on every
  complex, and the pivot predicates written with the entry's j-drop: the filtered
  reduction's accept and the dual-knot splitting's `legal`;
* the reference replay of a reduction's trace, one chain at a time with its
  U-powers: push into the reduced basis, pull back to input chains, and the
  map on homology read column by column through them;
* Spin^c sectors restricted from the flattened cone, and the vertex
  inclusion read off them by reducing the sector and the vertex;
* the window argument of the surgery cone: whether the hat v- or h-map
  out of one A-vertex is a quasi-isomorphism;
* a hat sector and its vertex inclusions by the exact triangle with one
  reduction per A-vertex s clamped to [-top - 1, top + 1], which the cone's
  top + 1 reductions, shared and flipped, must agree with;
* closed forms of the surgery cone: the q = 1 Maslov shift of each vertex,
  and the total hat rank of p/q surgery on the twist-knot models;
* the reflection search that rescans each candidate list from its head,
  the reference for the pairing `models.flip` finds first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from floercone import gf2
from floercone.algebra import (
    Chain,
    FilteredComplex,
    Generator,
    GradedRanks,
    ReducedForm,
    ValidationReport,
    _Reduction,
    homology,
    induced_map,
    reduce,
    require_valid,
    slice_through,
)
from floercone.cone import MappingCone
from floercone.errors import UnsupportedModel
from floercone.models import FlipMap, hat_knot_homology


# -- dense GF(2) homology -----------------------------------------------------


def gf2_matrix_rank(rows: list[list[int]]) -> int:
    work = [int("".join(str(b) for b in row[::-1]) or "0", 2) for row in rows]
    rank = 0
    for col in range(max((len(r) for r in rows), default=0)):
        bit = 1 << col
        pivot = None
        for i in range(rank, len(work)):
            if work[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


def dense_homology_by_maslov(c: FilteredComplex) -> dict[Fraction, int]:
    """Homology ranks of a finite GF(2) complex (all entries U-power 0),
    graded by Maslov, via dense rank computations per graded piece."""
    if any(k != 0 for _, _, k in c.entries()):
        raise ValueError("dense oracle wants U-power-0 entries")
    by_m: dict[Fraction, list[str]] = {}
    for g in c.generators:
        by_m.setdefault(Fraction(g.maslov), []).append(g.name)
    ranks: dict[Fraction, int] = {}
    for m, names in by_m.items():
        below = by_m.get(m - 1, [])
        above = by_m.get(m + 1, [])
        idx = {n: j for j, n in enumerate(below)}
        out_rows = []
        for n in names:
            row = [0] * len(below)
            for tgt in c.differential.get(n, {}):
                row[idx[tgt]] = 1
            out_rows.append(row)
        rank_out = gf2_matrix_rank(out_rows) if below else 0
        idx2 = {n: j for j, n in enumerate(names)}
        in_rows = []
        for n in above:
            row = [0] * len(names)
            for tgt in c.differential.get(n, {}):
                if tgt in idx2:
                    row[idx2[tgt]] = 1
            in_rows.append(row)
        rank_in = gf2_matrix_rank(in_rows) if above else 0
        h = len(names) - rank_out - rank_in
        if h:
            ranks[m] = h
    return ranks


# -- two-bridge Alexander polynomial ------------------------------------------


def two_bridge_alexander(alpha: int, beta: int) -> dict[int, int]:
    """Alexander polynomial of the two-bridge knot of fraction alpha/beta,
    normalized symmetric, via Delta = sum_i (-1)^i t^(sum_{j<=i} eps_j) with
    eps_j = (-1)^floor(j*beta/alpha) and beta taken odd mod 2*alpha."""
    if alpha % 2 != 1 or alpha <= 0:
        raise ValueError(f"two-bridge knots need a positive odd alpha, got {alpha}")
    b = beta % (2 * alpha)
    if b % 2 == 0:
        b += alpha
    poly: dict[int, int] = {}
    exp = 0
    sign = 1
    poly[0] = 1
    for j in range(1, alpha):
        exp += (-1) ** ((j * b) // alpha)
        sign = -sign
        poly[exp] = poly.get(exp, 0) + sign
    # symmetrize: shift so that coefficients satisfy a_k = a_{-k}
    lo, hi = min(poly), max(poly)
    shift = -(lo + hi) // 2
    if (lo + hi) % 2:
        raise RuntimeError(f"exponents {lo}..{hi} have no symmetric center")
    out = {a + shift: coef for a, coef in poly.items() if coef}
    # overall sign convention: positive leading coefficient away from 0
    top = max(out)
    if out[top] < 0:
        out = {a: -coef for a, coef in out.items()}
    return out


def twist_knot_alexander(n: int) -> dict[int, int]:
    """Oracle for the twist-knot family: two-bridge fraction (2n+1)/(n+1)."""
    return two_bridge_alexander(2 * n + 1, n + 1)


# -- translate enumeration -----------------------------------------------------


def translates_in(c: FilteredComplex, region, span: int = 20) -> list[tuple[str, int]]:
    """Brute force: the translates U^k g, |k| <= span, whose position
    (i, j) = (-k, A - k) region(i, j) picks."""
    return [(g.name, k) for g in c.generators for k in range(-span, span + 1)
            if region(-k, g.alexander - k)]


def span_of_translates(c: FilteredComplex, translates: list[tuple[str, int]]) -> FilteredComplex:
    """The GF(2) complex on the picked translates U^k g, each named by g, with
    Maslov lowered by 2k.  d(U^k g) holds U^(k+e) h for each entry g -> U^e h;
    the entries whose target is picked as well are kept, at U-power 0."""
    picked = set(translates)
    k_of = dict(translates)
    if len(k_of) != len(picked):
        raise ValueError("the region picks two translates of one generator")
    gens = [Generator(g.name, g.alexander, g.maslov - 2 * k_of[g.name])
            for g in c.generators if g.name in k_of]
    diff = {src: {tgt: 0 for tgt, e in row.items() if (tgt, k_of[src] + e) in picked}
            for src, row in c.differential.items() if src in k_of}
    return FilteredComplex(gens, diff)


def enumerate_hat_A_elements(c: FilteredComplex, s: int, span: int = 20) -> list[tuple[str, int]]:
    """Brute force: translates U^k g with max(-k, A - k - s) = 0."""
    return translates_in(c, lambda i, j: max(i, j - s) == 0, span)


def enumerate_hat_B_elements(c: FilteredComplex, span: int = 20) -> list[tuple[str, int]]:
    """Brute force: translates U^k g with i = -k = 0."""
    return [(g.name, 0) for g in c.generators]


# -- associated graded -----------------------------------------------------------


def j_drop(c: FilteredComplex, src: str, tgt: str, k: int):
    """The j-filtration drop of the entry src -> U^k tgt of c."""
    return c.by_name[src].alexander - c.by_name[tgt].alexander + k


def j_graded(c: FilteredComplex) -> FilteredComplex:
    """The j-preserving (Alexander-associated-graded) part of d."""
    diff = {
        s: {t: k for t, k in row.items() if j_drop(c, s, t, k) == 0}
        for s, row in c.differential.items()
    }
    return FilteredComplex(c.generators, diff)


def hfk_minus(c: FilteredComplex, s) -> GradedRanks:
    """Minus-flavor knot homology in Alexander grading s, keyed by Maslov.

    The slice {i <= 0, j = s} is spanned by the translates U^(A(g)-s) g over
    generators with A(g) >= s; it is finite dimensional over GF(2), so the
    ranks per Maslov grading are exact.
    """
    require_valid(c)
    power = {g.name: g.alexander - s for g in c.generators if g.alexander >= s}
    return homology(slice_through(c, power), ("maslov",))


def alexander_ranks(c: FilteredComplex) -> dict:
    """{alexander: rank} of c's hat knot homology, its Maslov gradings summed."""
    ranks: dict = {}
    for (a, _), r in hat_knot_homology(c).ranks.items():
        ranks[a] = ranks.get(a, 0) + r
    return ranks


# -- one cancellation ----------------------------------------------------------


def cancel_pair(c: FilteredComplex, source: str, target: str) -> ReducedForm:
    """Cancel the one differential entry source -> U^0 target, a GF(2)[U]
    unit, by the engine's elimination loop admitting that entry alone."""
    if c.differential.get(source, {}).get(target) != 0:
        raise ValueError(f"no unit differential entry {source} -> {target}")
    state = _Reduction(c)
    state.eliminate(lambda s, t, k: (s, t) == (source, target))
    return state.finish()


# -- validation and pivot predicates, by j_drop ------------------------------------


def check_complex_by_powers(c: FilteredComplex) -> ValidationReport:
    """Diagnostic check of every structural invariant; empty report iff valid."""
    bad: list[str] = []
    for src, tgt, k in c.entries():
        if tgt not in c.by_name:
            bad.append(f"entry {src} -> {tgt}: unknown target")
            continue
        if src not in c.by_name:
            continue  # reported with its row below
        g, h = c.by_name[src], c.by_name[tgt]
        if k < 0:
            bad.append(f"entry {src} -> U^{k} {tgt}: negative power")
        if h.maslov - 2 * k != g.maslov - 1:
            bad.append(f"entry {src} -> U^{k} {tgt}: Maslov drop is not 1")
        jd = j_drop(c, src, tgt, k)
        if jd < 0:
            bad.append(f"entry {src} -> U^{k} {tgt}: raises j-filtration by {-jd}")
    for src in c.differential:
        if src not in c.by_name:
            bad.append(f"differential row for unknown generator {src}")
    for src in c.differential:
        if src not in c.by_name:
            continue
        square: dict[tuple[str, int], int] = {}
        for tgt, k in c.differential[src].items():
            if tgt not in c.by_name:
                continue
            for tgt2, k2 in c.differential.get(tgt, {}).items():
                key = (tgt2, k + k2)
                square[key] = square.get(key, 0) ^ 1
        for (tgt2, power), parity in square.items():
            if parity:
                bad.append(f"d^2({src}) contains U^{power} {tgt2}")
    return ValidationReport(tuple(bad))


def filtered_accept(state: _Reduction):
    """`reduce(c, "filtered")`'s pivot test on its working state: a U^0
    entry of j-drop 0."""
    c = state.c
    return lambda s, t, k: k == 0 and j_drop(c, s, t, 0) == 0


def split_legal(state: _Reduction):
    """`split_to_summands`' pivot test on its working state: an entry whose
    U-power and j-drop are least in its live row and its live column."""
    c = state.c

    def legal(s: str, t: str, k: int) -> bool:
        jd = j_drop(c, s, t, k)
        row, col = state.diff[s], state.sources[t]
        return all(k2 >= k and j_drop(c, s, t2, k2) >= jd for t2, k2 in row.items()) and \
            all(state.diff[s2][t] >= k and j_drop(c, s2, t, state.diff[s2][t]) >= jd
                for s2 in col)
    return legal


# -- trace replay, one chain at a time -------------------------------------------


def push(rf: ReducedForm, chain: Chain) -> Chain:
    """An input chain ({name: U-power}) in rf's reduced basis: the trace
    replayed forwards, then the removed generators dropped."""
    out = _replay_with_powers(rf.moves, chain)
    return {n: p for n, p in out.items() if n in rf.complex.by_name}


def pull(rf: ReducedForm, chain: Chain) -> Chain:
    """A reduced chain as an input chain: the trace replayed backwards.
    push . pull is the identity, and pull . push is homotopic to it."""
    return _replay_with_powers(reversed(rf.moves), chain)


def _replay_with_powers(moves, chain: Chain) -> Chain:
    # in either direction, a chain holding U^p u picks up U^(p+m) v
    out = dict(chain)
    for u, v, m in moves:
        if u in out:
            _toggle_graded(out, v, out[u] + m)
    return out


def _toggle_graded(chain: Chain, name: str, power: int) -> None:
    # GF(2): adding a monomial the chain holds cancels it; a graded chain
    # holds each name at one power only, which is checked
    if name not in chain:
        chain[name] = power
    elif chain[name] == power:
        del chain[name]
    else:
        raise ValueError(f"non-graded toggle on {name}: U^{chain[name]} vs U^{power}")


def induced_map_by_columns(rf_dom: ReducedForm, rf_cod: ReducedForm,
                           image: dict[str, tuple[str, int]]) -> list[int]:
    """Each rf_dom generator pulled back, mapped by n -> U^k m for
    image[n] = (m, k), and pushed into rf_cod: the columns `induced_map`
    gives, computed one chain at a time with U-powers."""
    index = {g.name: i for i, g in enumerate(rf_cod.complex.generators)}
    columns = []
    for b in rf_dom.complex.generators:
        mapped: Chain = {}
        for n, p in pull(rf_dom, {b.name: 0}).items():
            if n in image:
                m, k = image[n]
                _toggle_graded(mapped, m, p + k)
        columns.append(sum(1 << index[n] for n in push(rf_cod, mapped)))
    return columns


# -- flattened sectors -----------------------------------------------------------


def restrict(c: FilteredComplex, names) -> FilteredComplex:
    """Full subcomplex of c on the named generators (entries inside it), in c's order."""
    keep = set(names)
    gens = [g for g in c.generators if g.name in keep]
    diff = {s: {t: k for t, k in row.items() if t in keep}
            for s, row in c.differential.items() if s in keep}
    return FilteredComplex(gens, diff)


def flattened_sectors(cone, hat: bool = True) -> dict[int, tuple[FilteredComplex, dict]]:
    """Every Spin^c sector of the cone as (complex, element table), restricted
    from one flattening of the whole cone (its hat flavor when hat)."""
    whole, table = cone.hat_complex() if hat else cone.total_complex()
    names: dict[int, list[str]] = {i: [] for i in cone.sectors}
    for name, info in table.items():
        names[cone.spin_c(info.t)].append(name)
    return {i: (restrict(whole, ns), {n: table[n] for n in ns}) for i, ns in names.items()}


def include_B_by_flattening(hat: FilteredComplex, table: dict, t: int) -> tuple[int, int, int]:
    """(domain, codomain, map rank) of the inclusion of vertex (t, B) into its
    flattened hat sector: both reduced over U-units, the rank by induced_map."""
    vertex = [n for n, info in table.items() if info.segment == "B" and info.t == t]
    rf_vertex = reduce(restrict(hat, vertex), "over_U_units")
    rf_sector = _reduced_sector(hat)
    map_rank = gf2.rank(induced_map(rf_vertex, rf_sector, dict(zip(vertex, vertex))))
    return len(rf_vertex.complex), len(rf_sector.complex), map_rank


@lru_cache(maxsize=32)  # the B-vertices of one sector all reduce the same sector
def _reduced_sector(hat: FilteredComplex):
    return reduce(hat, "over_U_units")


def hat_map_is_quasi_iso(flip: FlipMap, s: int, kind: str) -> bool:
    """Whether the hat v- or h-map out of A_s kills all homology in its cone."""
    cone = MappingCone(flip, 1, 1, [s], [s] if kind == "v" else [s + 1])
    return cone.sector_homology(0).total_rank == 0


# -- hat sectors, one reduction per clamped s ---------------------------------------


def hat_sector_by_clamped_slices(cone, sector: int) -> tuple[GradedRanks, dict]:
    """One hat sector's ranks and, per B-vertex t of it, include_B's
    (domain, codomain, map rank), from the exact triangle on vertex homology
    that reduces B^ and each A^_s with s clamped to [-top - 1, top + 1]
    apart, and lifts A^_s below -top - 1 from A^_(-top-1) by 2 (s + top + 1)."""
    source, sigma, top = cone.flip.source, cone.flip.pairing, cone.flip.top
    phi, m = cone.phi(), abs(cone.p)
    b = reduce(slice_through(source, dict.fromkeys(source.by_name, 0)), "over_U_units")
    vertex: dict[int, tuple] = {}  # clamped s -> (reduced A^_s, v, h)
    for s in range(-top - 1, top + 2):
        rf = reduce(slice_through(source, {g.name: max(0, g.alexander - s)
                                           for g in source.generators}), "over_U_units")
        vertex[s] = (rf,
                     induced_map(rf, b, {g.name: g.name for g in source.generators
                                         if g.alexander <= s}),
                     induced_map(rf, b, {g.name: sigma[g.name] for g in source.generators
                                         if g.alexander >= s}))
    b_ts = [t for t in cone.b_ts if t % m == sector]
    first_row = {t: i * len(b.complex) for i, t in enumerate(b_ts)}
    count: dict = {}
    columns: dict = {}
    for t in b_ts:
        for g in b.complex.generators:
            key = g.maslov + phi[("B", t)]
            count[key] = count.get(key, 0) + 1
    for t in [t for t in cone.a_ts if t % m == sector]:
        s = cone.s_of(t)
        rf, v, h = vertex[min(max(s, -top - 1), top + 1)]
        for g, v_col, h_col in zip(rf.complex.generators, v, h):
            key = g.maslov + phi[("A", t)] + 2 * min(0, s + top + 1)
            count[key] = count.get(key, 0) + 1
            col = (v_col << first_row[t] if t in first_row else 0) | \
                (h_col << first_row[t + cone.p] if t + cone.p in first_row else 0)
            columns.setdefault(key, []).append(col)
    d_rank = {key: gf2.rank(cols) for key, cols in columns.items()}
    ranks = {(key,): n - d_rank.get(key, 0) - d_rank.get(key + 1, 0) for key, n in count.items()}
    d = [col for cols in columns.values() for col in cols]
    total = sum(count.values()) - 2 * gf2.rank(d)
    include = {t: (len(b.complex), total,
                   gf2.rank([1 << row for row in range(first_row[t], first_row[t] + len(b.complex))]
                            + d) - gf2.rank(d))
               for t in b_ts}
    return GradedRanks({key: r for key, r in ranks.items() if r}), include


# -- closed forms of the surgery cone ---------------------------------------------


def dual_knot_phi(n: int, segment: str, t: int) -> int | Fraction:
    """The absolute Maslov shift of vertex (segment, t) of an n/1 cone:
    (2t - n)^2/4n + (2 - 3 sign n)/4 on A_t, one less on B_t; an int when
    integral, a Fraction only when not."""
    sign = 1 if n > 0 else -1
    top = (2 * t - n) ** 2 + (2 - 3 * sign) * n - (4 * n if segment == "B" else 0)
    x = Fraction(top, 4 * n)
    return x.numerator if x.denominator == 1 else x


def twist_surgery_hat_rank(n: int, p: int, q: int) -> int:
    """Total hat rank of p/q surgery on minus_twist_knot(n).

    For p, q > 0 the rank is p + 2 max(0, (2 nu - 1) q - p) + q sum_s (dim
    H(A_s) - 1) (Ozsvath-Szabo, math/0504404), and p < 0 is -p/q surgery on
    the mirror.  The model has nu = 0 and dim H(A_0) = n + 2, its mirror
    nu = 1 and dim H(A_0) = n, and every other A_s has dimension 1.
    """
    if p > 0:
        return p + q * (n + 1)
    return -p + 2 * max(0, q + p) + q * (n - 1)


# -- the reflection search, rescanning ----------------------------------------------


def flip_by_rescanning(c: FilteredComplex) -> dict[str, str]:
    """The first reflection pairing of c in `models.flip`'s search order,
    found by scanning each generator's candidates from the head of their
    list and skipping the paired ones; UnsupportedModel when there is none.
    """
    touching: dict[str, list[tuple]] = {g.name: [] for g in c.generators}
    ends: dict[str, tuple[list, list]] = {g.name: ([], []) for g in c.generators}
    for src, tgt, k in c.entries():
        if src in c.by_name and tgt in c.by_name:
            jd = j_drop(c, src, tgt, k)
            touching[src].append((src, tgt, jd))
            touching[tgt].append((src, tgt, jd))
            ends[src][0].append((k, jd))
            ends[tgt][1].append((k, jd))
    per_grading: dict[tuple, int] = {}
    by_drops: dict[tuple, list[str]] = {}
    for h in c.generators:
        out, into = ends[h.name]
        per_grading[h.alexander, h.maslov] = per_grading.get((h.alexander, h.maslov), 0) + 1
        key = (h.alexander, h.maslov, tuple(sorted(out)), tuple(sorted(into)))
        by_drops.setdefault(key, []).append(h.name)
    candidates: dict[str, list[str]] = {}
    width: dict[str, int] = {}
    for g in c.generators:
        out, into = ends[g.name]
        grading = (-g.alexander, g.maslov - 2 * g.alexander)
        candidates[g.name] = by_drops.get((*grading, tuple(sorted([(jd, k) for k, jd in out])),
                                           tuple(sorted([(jd, k) for k, jd in into]))), [])
        if not candidates[g.name]:
            require_valid(c)
            raise UnsupportedModel(f"no reflection partner for {g.name}")
        width[g.name] = per_grading[grading]

    order = sorted(candidates, key=lambda n: (width[n], c.index[n]))
    pairing: dict[str, str] = {}

    def consistent(*pair: str) -> bool:
        return all(c.differential.get(pairing[src], {}).get(pairing[tgt]) == jd
                   for name in pair for src, tgt, jd in touching[name]
                   if src in pairing and tgt in pairing)

    stack: list[tuple[int, int]] = []
    i = j = 0
    while True:
        while i < len(order) and order[i] in pairing:
            i += 1
        if i == len(order):
            return pairing
        if j < len(candidates[order[i]]):
            name, cand = order[i], candidates[order[i]][j]
            if cand == name or cand not in pairing:
                pairing[name], pairing[cand] = cand, name
                if consistent(name, cand):
                    stack.append((i, j))
                    i, j = i + 1, 0
                    continue
                pairing.pop(pairing.pop(name), None)
            j += 1
        elif stack:
            i, j = stack.pop()
            pairing.pop(pairing.pop(order[i]), None)
            j += 1
        else:
            require_valid(c)
            raise UnsupportedModel("no reflection basis found for this complex")
