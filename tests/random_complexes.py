"""Random valid complexes with known homology, for property tests.

`FLOERCONE_SEED` reseeds these helpers; it never affects the package's
computation results.
"""

from __future__ import annotations

import os
import random
from typing import Callable

from floercone.algebra import DiffMap, FilteredComplex, Generator, GradedRanks, _Reduction
from floercone.models import dual_normal_form_model, flip


def default_seed() -> int:
    return int(os.environ.get("FLOERCONE_SEED", "20260810"))


def direct_sum(*parts: FilteredComplex) -> FilteredComplex:
    """The parts side by side, in order; their generator names must differ."""
    gens: list[Generator] = []
    diff: DiffMap = {}
    for part in parts:
        gens.extend(part.generators)
        for src, row in part.differential.items():
            diff[src] = dict(row)
    return FilteredComplex(gens, diff)


def random_filtered_complex(rng: random.Random, n_free: int = 3, n_pairs: int = 3,
                            moves: int = 25) -> tuple[FilteredComplex, GradedRanks]:
    """A random valid complex with known GF(2)[U]-homology.

    Starts from a direct sum of free generators and U^k two-step summands,
    then scrambles it with random graded, filtration-legal changes of basis
    (which leave homology alone).  The returned GradedRanks is keyed by
    Maslov grading only: Alexander labels of homology classes are a
    filtration-level bookkeeping that basis changes may legitimately move
    (they are canonical only on j-graded complexes).
    """
    gens: list[Generator] = []
    diff: DiffMap = {}
    ranks: dict[tuple, int] = {}
    torsion: dict[tuple, list[int]] = {}
    for i in range(n_free):
        a, m = rng.randint(-2, 2), rng.randint(-3, 3)
        gens.append(Generator(f"f{i}", a, m))
        key = (m,)
        ranks[key] = ranks.get(key, 0) + 1
    for i in range(n_pairs):
        a, m = rng.randint(-2, 2), rng.randint(-3, 3)
        k = rng.randint(0, 2)
        jd = rng.randint(0, 2)
        # pair e -> U^k f with chosen i-drop k and j-drop jd
        f = Generator(f"p{i}", a, m)
        e = Generator(f"q{i}", a - k + jd, m - 2 * k + 1)
        gens += [f, e]
        diff[e.name] = {f.name: k}
        if k > 0:
            key = (m,)
            torsion.setdefault(key, []).append(k)
    by_name = {g.name: g for g in gens}
    state = _Reduction(FilteredComplex(gens, diff))
    names = [g.name for g in gens]
    for _ in range(moves):
        u, v = rng.sample(names, 2)
        gu, gv = by_name[u], by_name[v]
        two_m = gv.maslov - gu.maslov
        if two_m % 2 != 0:
            continue
        m = int(two_m // 2)
        if m < 0:
            continue
        if gv.alexander - m > gu.alexander:
            continue
        state.basis_change(u, v, m)
    scrambled = FilteredComplex(gens, {s: dict(r) for s, r in state.diff.items()})
    expected = GradedRanks(ranks, {k: tuple(sorted(v)) for k, v in torsion.items()})
    return scrambled, expected


def reference_eliminate(state: _Reduction, accept: Callable[[str, str, int], bool], *,
                        lowest_power: bool = False, keep: bool = False,
                        rng: random.Random | None = None) -> list[tuple[str, str, int]]:
    """Brute-force stand-in for `_Reduction.eliminate`.

    Every pivot is the least live entry that accept admits, keyed by
    (U-power if lowest_power else 0, source order, target order), found by
    scanning every entry; with rng it is drawn uniformly from the admitted
    entries instead, for confluence tests of other pivot orders.  It is
    cleared with the engine's own `isolate`, then removed with
    `remove_pair` or, with keep, skipped from then on.
    """
    order = state.c.index
    kept: set[str] = set()
    pivots: list[tuple[str, str, int]] = []
    while True:
        admitted = sorted((k if lowest_power else 0, order[s], order[t], s, t, k)
                          for s, row in state.diff.items() if s not in kept
                          for t, k in row.items() if t not in kept and accept(s, t, k))
        if not admitted:
            return pivots
        *_, e, f, c = admitted[rng.randrange(len(admitted))] if rng else admitted[0]
        state.isolate(e, f)
        if keep:
            kept.update((e, f))
        else:
            state.remove_pair(e, f)
        pivots.append((e, f, c))


def reflection_symmetric_complex(rng: random.Random) -> FilteredComplex:
    """A random valid complex plus its reflection: g' at (-A, M - 2A) for
    each g, and g' -> U^(j-drop) h' for each entry g -> U^k h, so swapping g
    and g' is a reflection basis."""
    c, _ = random_filtered_complex(rng, rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 12))
    gens = [Generator(g.name + "'", -g.alexander, g.maslov - 2 * g.alexander)
            for g in c.generators]
    diff: DiffMap = {}
    for src, tgt, k in c.entries():
        j_drop = c.by_name[src].alexander - c.by_name[tgt].alexander + k
        diff.setdefault(src + "'", {})[tgt + "'"] = j_drop
    return direct_sum(c, FilteredComplex(gens, diff))


def scrambled_dual_copies(seed: int, copies: int = 6, changes: int = 6,
                          lopsided: bool = False) -> FilteredComplex:
    """copies renamed copies of dual_normal_form_model(3), each scrambled by
    changes random filtered basis changes u := u + U^m v, every one made
    together with its reflection sigma u := sigma u + U^(j-drop) sigma v, so a
    reflection basis survives.  lopsided adds one change without its
    reflection, which the search may take long to rule out."""
    rng = random.Random(seed)
    parts = []
    for i in range(copies):
        c = dual_normal_form_model(3)
        parts.append(FilteredComplex(
            [Generator(f"{g.name}_{i}", g.alexander, g.maslov) for g in c.generators],
            {f"{s}_{i}": {f"{t}_{i}": k for t, k in row.items()}
             for s, row in c.differential.items()}))
    whole = direct_sum(*parts)
    sigma = flip(whole).pairing
    state = _Reduction(whole)

    def draw(gens) -> tuple[Generator, Generator, int]:
        while True:
            gu, gv = rng.sample(gens, 2)
            two_m = gv.maslov - gu.maslov
            if two_m >= 0 and two_m % 2 == 0 and gv.alexander - two_m // 2 <= gu.alexander:
                return gu, gv, two_m // 2

    for part in parts:
        made = 0
        while made < changes:
            gu, gv, m = draw(part.generators)
            u, v = gu.name, gv.name
            if len({u, v, sigma[u], sigma[v]}) == 4:  # the two changes commute
                state.basis_change(u, v, m)
                state.basis_change(sigma[u], sigma[v], gu.alexander - gv.alexander + m)
                made += 1
    if lopsided:
        gu, gv, m = draw(whole.generators)
        state.basis_change(gu.name, gv.name, m)
    return FilteredComplex(whole.generators, {s: dict(r) for s, r in state.diff.items()})
