"""Model knot Floer complexes: staircase, box, twist-knot mirrors, dual pieces.

Generators are stored through their i = 0 translate, so the classical
(i,j)-plane pictures read as follows.  The three-step staircase of the
left-handed trefoil has dots at (0,1), (0,0), (1,0) with both arrows
pointing into the corner (0,0); the length-one box has dots at
(1,1), (0,1), (1,0), (0,0) with arrows a -> b, a -> c, b -> d, c -> d.
The mirror of the n-th odd twist knot (two-bridge fraction (2n+1)/(n+1))
is one staircase plus (n-1)/2 boxes.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FilteredComplex, Generator, GradedRanks, grading_counts, reduce, require_valid
from .errors import (
    BadCoefficient,
    BadParameter,
    DomainError,
    NonIntegral,
    UnsupportedModel,
    count_text,
)

# The model constructors refuse more generators than this before building any.
# Every command that reflects a model runs `flip` and builds a cone on it: on
# a 2-core host, `pipeline --n 4999 --r=-3` on the twist-knot model (9,999
# generators) took 4.5 s and 253 MB.
MAX_MODEL_GENERATORS = 10_000

# `flip` refuses a reflection search past this many steps (one per candidate
# tried or backtrack; about 1.5 s on a 2-core host, and 7,500 for twist 4999).
MAX_FLIP_STEPS = 1_000_000


def _require_model_size(n_generators: int) -> None:
    if n_generators > MAX_MODEL_GENERATORS:
        raise DomainError(f"the model has {count_text(n_generators)} generators "
                          f"(MAX_MODEL_GENERATORS = {MAX_MODEL_GENERATORS})")


def staircase() -> FilteredComplex:
    """Full knot complex of the left-handed trefoil: d(x) = y, d(z) = U y,
    the n = 1 twist model."""
    return minus_twist_knot(1)


def _box_parts(suffix: str) -> tuple[list[Generator], dict[str, dict[str, int]]]:
    a, b, c, d = (name + suffix for name in "abcd")
    gens = [
        Generator(a, 0, 1),
        Generator(b, 1, 2),
        Generator(c, -1, 0),
        Generator(d, 0, 1),
    ]
    return gens, {a: {b: 1, c: 0}, b: {d: 0}, c: {d: 1}}


def box() -> FilteredComplex:
    """Length-one box summand: d(a) = U b + c, d(b) = d, d(c) = U d."""
    return FilteredComplex(*_box_parts(""))


def unknot() -> FilteredComplex:
    """Single generator at the origin with zero differential."""
    return FilteredComplex([Generator("o", 0, 0)], {})


def _twist_knot(n: int) -> tuple[FilteredComplex, dict[str, str]]:
    """The model of `minus_twist_knot` and its reflection: x <-> z and
    b_i <-> c_i, with y, a_i and d_i fixed."""
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise BadParameter(f"n must be a positive odd integer, got {n!r}")
    _require_model_size(2 * n + 1)
    gens = [Generator("x", 1, 2), Generator("y", 0, 1), Generator("z", -1, 0)]
    diff = {"x": {"y": 0}, "z": {"y": 1}}
    pairing = {"x": "z", "y": "y", "z": "x"}
    for i in range(1, (n - 1) // 2 + 1):
        box_gens, box_diff = _box_parts(str(i))
        gens += box_gens
        diff.update(box_diff)
        a, b, c, d = (g.name for g in box_gens)
        pairing.update({a: a, b: c, c: b, d: d})
    return FilteredComplex(gens, diff), pairing


def minus_twist_knot(n: int) -> FilteredComplex:
    """Mirror twist-knot model: staircase plus (n-1)/2 boxes, n odd >= 1."""
    return _twist_knot(n)[0]


def minus_twist_flip(n: int) -> FlipMap:
    """`minus_twist_knot(n)` checked with its reflection, which `flip` would
    search for: the FlipMap validates both."""
    return FlipMap(*_twist_knot(n))


def dual_normal_form_model(n: int) -> FilteredComplex:
    """The surgered-manifold dual-knot complex in normal form.

    One free generator o plus (n+1)/2 horizontal pairs (d(yh) = U xh,
    yh placed at (1,0)) and as many vertical pairs (d(yv) = xv, yv at (0,1)).
    """
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise BadParameter(f"n must be a positive odd integer, got {n!r}")
    _require_model_size(2 * n + 3)
    gens = [Generator("o", 0, 0)]
    diff: dict[str, dict[str, int]] = {}
    for i in range(1, (n + 1) // 2 + 1):
        gens += [
            Generator(f"xh{i}", 0, 1),
            Generator(f"yh{i}", -1, 0),
            Generator(f"xv{i}", 0, 1),
            Generator(f"yv{i}", 1, 2),
        ]
        diff[f"yh{i}"] = {f"xh{i}": 1}
        diff[f"yv{i}"] = {f"xv{i}": 0}
    return FilteredComplex(gens, diff)


def mirror(c: FilteredComplex) -> FilteredComplex:
    """Dual complex: arrows reversed, Alexander and Maslov data negated."""
    require_valid(c)
    gens = [Generator(g.name, -g.alexander, -g.maslov) for g in c.generators]
    diff: dict[str, dict[str, int]] = {}
    for src, row in c.differential.items():
        for tgt, k in row.items():
            diff.setdefault(tgt, {})[src] = k
    return FilteredComplex(gens, diff)


# -- flip maps --------------------------------------------------------------


class FlipMap:
    """The checked model: a valid complex with integral Alexander gradings and
    a reflection along i = j, a generator involution sigma with alexander(sigma g)
    = -alexander(g) and maslov(sigma g) = maslov(g) - 2 alexander(g).  The module
    map g -> U^(-alexander(g)) sigma(g) is then a skew-filtered chain isomorphism
    squaring to the identity.  Every cone takes a FlipMap alone; top is the
    max Alexander grading and genus is top floored at 1.
    """

    def __init__(self, c: FilteredComplex, pairing: dict[str, str]):
        require_valid(c)
        violations = flip_violations(c, pairing)
        if violations:
            raise UnsupportedModel("invalid flip pairing: " + "; ".join(violations))
        alexander = [g.alexander for g in c.generators]
        if any(isinstance(a, Fraction) for a in alexander):  # a Fraction is never integral
            raise BadCoefficient("model has non-integral Alexander gradings")
        self.source = c
        self.pairing = dict(pairing)
        self.top: int = max(alexander, default=0)
        self.genus: int = max(1, self.top)


def flip_violations(c: FilteredComplex, pairing: dict[str, str]) -> list[str]:
    bad: list[str] = []
    gens = c.by_name
    if pairing.keys() != gens.keys() or set(pairing.values()) != gens.keys():
        return ["pairing is not a bijection on the generators"]
    for name, image in pairing.items():
        if pairing[image] != name:
            bad.append(f"not an involution at {name}")
        g, h = gens[name], gens[image]
        if h.alexander != -g.alexander:
            bad.append(f"{name}: image Alexander grading is not negated")
        elif h.maslov != g.maslov - 2 * g.alexander:
            bad.append(f"{name}: image Maslov grading mismatch")
    if bad:
        return bad
    # chain map: g -> U^k h must correspond to sigma(g) -> U^(jdrop) sigma(h);
    # (s, t) -> (sigma s, sigma t) is injective, so it is onto the entries too
    for src, row in c.differential.items():
        a = gens[src].alexander
        image_row = c.differential.get(pairing[src], {})
        for tgt, k in row.items():
            if image_row.get(pairing[tgt]) != a - gens[tgt].alexander + k:
                bad.append(f"entry {src} -> U^{k} {tgt} has no mirror entry")
    return bad


def flip(c: FilteredComplex) -> FlipMap:
    """Search for a reflection basis; the FlipMap found checks the model.  If
    none exists, UnsupportedModel, after reporting an invalid complex first."""
    # entries with an end that is not a generator are left to the FlipMap
    touching: dict[str, list[tuple]] = {g.name: [] for g in c.generators}
    ends: dict[str, tuple[list, list]] = {g.name: ([], []) for g in c.generators}
    gens = c.by_name
    for src, row in c.differential.items():
        for tgt, k in row.items():
            if src in gens and tgt in gens:
                jd = gens[src].alexander - gens[tgt].alexander + k
                touching[src].append((src, tgt, jd))
                touching[tgt].append((src, tgt, jd))
                ends[src][0].append((k, jd))
                ends[tgt][1].append((k, jd))

    # sigma maps the entries out of (into) g onto those out of (into) sigma g
    # and swaps each one's U-power and j-drop, so a partner of g has g's sorted
    # (U-power, j-drop) pairs, swapped, on both sides
    per_grading: dict[tuple, int] = {}
    by_drops: dict[tuple, list[str]] = {}
    for h in c.generators:
        out, into = ends[h.name]
        per_grading[h.alexander, h.maslov] = per_grading.get((h.alexander, h.maslov), 0) + 1
        key = (h.alexander, h.maslov, tuple(sorted(out)), tuple(sorted(into)))
        by_drops.setdefault(key, []).append(h.name)
    # each generator sits in one pool, and draws its partners from one
    pools = list(by_drops.values())
    pool_index = {key: k for k, key in enumerate(by_drops)}
    home = {name: k for k, pool in enumerate(pools) for name in pool}
    candidates: dict[str, int] = {}  # generator -> the pool of its partners
    width: dict[str, int] = {}  # partners of the right bigrading, before the drops test
    for g in c.generators:
        out, into = ends[g.name]
        grading = (-g.alexander, g.maslov - 2 * g.alexander)
        pool = pool_index.get((*grading, tuple(sorted([(jd, k) for k, jd in out])),
                               tuple(sorted([(jd, k) for k, jd in into]))))
        if pool is None:
            require_valid(c)
            raise UnsupportedModel(f"no reflection partner for {g.name}")
        candidates[g.name] = pool
        width[g.name] = per_grading[grading]

    index = c.index
    order = sorted(candidates, key=lambda n: (width[n], index[n]))
    pairing: dict[str, str] = {}
    # pools[k][:paired[k]] are all paired, so a scan of pool k starts there
    paired = [0] * len(pools)

    def consistent(*pair: str) -> bool:
        # chain-map condition on the entries the newest pair decides
        return all(c.differential.get(pairing[src], {}).get(pairing[tgt]) == jd
                   for name in pair for src, tgt, jd in touching[name]
                   if src in pairing and tgt in pairing)

    def advance(k: int) -> None:
        pool, n = pools[k], paired[k]
        while n < len(pool) and pool[n] in pairing:
            n += 1
        paired[k] = n

    # depth-first search: try candidate j of order[i]; the stack holds the
    # (i, j) of every pair made so far, with the two pools' paired prefixes
    # before it, and replaces recursion
    stack: list[tuple[int, int, int, int]] = []
    i = j = steps = 0
    while True:
        steps += 1
        if steps > MAX_FLIP_STEPS:
            raise DomainError(f"the reflection search passed {MAX_FLIP_STEPS} steps "
                              f"(MAX_FLIP_STEPS = {MAX_FLIP_STEPS})")
        while i < len(order) and order[i] in pairing:
            i += 1
        if i == len(order):  # consistent() has checked every entry; FlipMap checks again
            return FlipMap(c, pairing)
        name = order[i]
        k, h = candidates[name], home[name]
        j = max(j, paired[k])
        if j < len(pools[k]):
            cand = pools[k][j]
            if cand == name or cand not in pairing:
                pairing[name], pairing[cand] = cand, name
                if consistent(name, cand):
                    stack.append((i, j, paired[k], paired[h]))
                    advance(k)
                    advance(h)
                    i, j = i + 1, 0
                    continue
                pairing.pop(pairing.pop(name), None)
            j += 1
        elif stack:
            i, j, before_k, before_h = stack.pop()
            name = order[i]
            pairing.pop(pairing.pop(name), None)
            paired[candidates[name]], paired[home[name]] = before_k, before_h
            j += 1
        else:
            require_valid(c)
            raise UnsupportedModel("no reflection basis found for this complex")


# -- knot-level homology ----------------------------------------------------


def hat_knot_homology(c: FilteredComplex) -> GradedRanks:
    """Hat-flavor knot homology, keyed by (alexander, maslov): the generators
    of c's filtered reduction, which leaves no entry between equal (i, j)
    positions, so its i = 0 column's associated graded has zero differential."""
    require_valid(c)
    return GradedRanks(grading_counts(reduce(c, "filtered").complex.generators,
                                      ("alexander", "maslov")))


# -- Alexander polynomial ----------------------------------------------------


def euler_characteristic(ranks: GradedRanks) -> dict[int, int]:
    """{alexander: sum of (-1)^maslov rank} of (alexander, maslov)-graded
    ranks; of hat_knot_homology(c), the Alexander polynomial of c's knot,
    symmetric in t <-> 1/t, with |value at t = -1| the knot determinant."""
    poly: dict[int, int] = {}
    for (alex, maslov), rank in ranks.ranks.items():
        if isinstance(maslov, Fraction) or isinstance(alex, Fraction):
            raise NonIntegral("Euler characteristic needs integral gradings")
        poly[alex] = poly.get(alex, 0) + (-rank if maslov % 2 else rank)  # (-1) ** -1 is a float
    return {a: coef for a, coef in sorted(poly.items()) if coef}


def poly_string(poly: dict[int, int]) -> str:
    if not poly:
        return "0"
    parts = []
    for a, coef in sorted(poly.items(), reverse=True):
        term = "1" if a == 0 else ("t" if a == 1 else f"t^{a}")
        if a != 0 and abs(coef) != 1:
            term = f"{abs(coef)}{term}"
        elif a == 0:
            term = str(abs(coef))
        parts.append(("- " if coef < 0 else "+ ") + term)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
