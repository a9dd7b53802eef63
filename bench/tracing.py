"""In-memory spans around the package's layer functions, and per-layer metrics.

Nothing inside `src/` is changed: each traced function is rebound in every
`floercone` module namespace that holds it (so `floercone.cone.homology`,
bound by `from .algebra import homology`, is wrapped as well as
`floercone.algebra.homology`), and methods are rebound on their class.
A span is [name, start, end, parent, command, counts, tracer time]; the
tracer's own bookkeeping time is charged to no layer, so self times are
span durations minus the time their child spans and bookkeeping cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter

NAME, START, END, PARENT, CMD, COUNTS, TAX = range(7)


def _n_in(args, kwargs):
    return {"gens_in": len(args[0])}


def _reduce_name(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "filtered")
    return f"algebra.reduce.{mode}"


def _pivots(result, counts):
    counts["pivots"] = (counts["gens_in"] - len(result.complex)) // 2


def _homology_pivots(result, counts):
    counts["pivots"] = (counts["gens_in"] - result.total_rank) // 2


def _text_bytes(text):
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute, span name or naming function, counts before the call,
#  counts after the call, keep the first argument for useful_ratio)
LAYERS = (
    ("models", "flip", "models.flip", _n_in, None, True),
    ("algebra", "check_complex", "algebra.check_complex", None, None, False),
    ("algebra", "reduce", _reduce_name, _n_in, _pivots, False),
    ("algebra", "homology", "algebra.homology", _n_in, _homology_pivots, False),
    ("cone", "MappingCone.total_complex", "cone.total_complex", None,
     lambda r, c: c.update(gens_out=len(r[0])), False),
    ("cone", "MappingCone.hat_complex", "cone.hat_complex", None, None, False),
    ("cone", "MappingCone.sector_homology", "cone.sector_homology", None, None, False),
    ("cone", "include_B", "cone.include_B", None, None, False),
    ("dual", "build_dual_cone", "dual.build_dual_cone", None,
     lambda r, c: c.update(gens_out=len(r.complex)), False),
    ("dual", "normal_form", "dual.normal_form", None, None, True),
    ("dual", "split_to_summands", "dual.split_to_summands", _n_in, None, False),
    ("dual", "g_map", "dual.g_map", None, None, False),
    ("dual", "distinct_classes", "dual.distinct_classes", None, None, False),
    ("contact", "distinctness_pipeline", "contact.distinctness_pipeline", None,
     lambda r, c: c.update(steps=len(r.steps)), False),
    ("serialize", "loads", "serialize.loads", lambda a, k: _text_bytes(a[0]), None, False),
    ("serialize", "complex_from_json", "serialize.complex_from_json", None, None, False),
    ("serialize", "complex_to_json", "serialize.complex_to_json", None, None, False),
    ("serialize", "dumps", "serialize.dumps", None, lambda r, c: c.update(_text_bytes(r)), False),
    ("cli", "main", "cli.main", None, lambda r, c: c.update(failed=int(r != 0)), False),
)

# Count metrics repeat exactly for one seed; the self-test holds them to that.
COUNT_SUFFIXES = (".calls", ".gens_in", ".gens_out", ".pivots", ".steps", ".bytes",
                  ".useful_ratio", ".failed")

# Calls smaller than this are dominated by fixed per-call cost; the slope fit
# leaves them out so it reads the scaling of the elimination itself.
SLOPE_MIN_GENS = 32


class Tracer:
    """Holds spans in memory; `cmd` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = None
        self.keep_inputs = False
        self.inputs: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, before, after, keep):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = len(tracer.spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            counts = before(args, kwargs) if before else {}
            if keep and tracer.keep_inputs:
                tracer.inputs[idx] = args[0]
            rec = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.cmd, counts, 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                tracer.stack.pop()
                if label == "cli.main":
                    counts["failed"] = 1
                rec[TAX] = (rec[START] - t0) + (perf_counter() - rec[END])
                raise
            rec[END] = perf_counter()
            tracer.stack.pop()
            if after:
                after(result, counts)
            rec[TAX] = (rec[START] - t0) + (perf_counter() - rec[END])
            return result

        return traced

    def install(self, package: str = "floercone") -> None:
        """Rebind every listed layer function wherever the package holds it."""
        self.uninstall()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr, name, before, after, keep in LAYERS:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self.wrap(cls.__dict__[meth], name, before, after, keep))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, name, before, after, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key) if isinstance(owner, type)
                           else vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus what child spans (and the tracer around them) cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START] + rec[TAX]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def span_problems(spans: list[list], cmd_walls: dict) -> list[str]:
    """Ways the spans disagree with themselves or with the command times
    measured around them: a negative self time, a child outside its parent's
    interval or command, a root that is not `cli.main`, or self times (plus
    the tracer's bookkeeping) that do not add up to the command's traced wall
    time.  Empty when the spans are consistent."""
    problems = []
    covered: dict[tuple, float] = {}
    for i, (rec, self_s) in enumerate(zip(spans, self_times(spans))):
        where = f"span {i} {rec[NAME]} (pass {rec[CMD][0]} command {rec[CMD][1]})"
        if self_s < -1e-9:
            problems.append(f"{where}: self time {self_s:.3g} s")
        up = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        if up is None and rec[NAME] != "cli.main":
            problems.append(f"{where}: a root span other than cli.main")
        if up is not None and (up[CMD] != rec[CMD] or rec[START] < up[START]
                               or rec[END] > up[END]):
            problems.append(f"{where}: outside its parent {up[NAME]}")
        covered[rec[CMD]] = covered.get(rec[CMD], 0.0) + self_s + (rec[TAX] if up else 0.0)
    for key, wall in sorted(cmd_walls.items()):
        total = covered.get(key, 0.0)
        if not wall - max(1e-3, 0.01 * wall) <= total <= wall:
            problems.append(f"pass {key[0]} command {key[1]}: {total:.6f} s of self time "
                            f"and bookkeeping in a traced wall of {wall:.6f} s")
    return problems


def _fingerprint(c) -> tuple:
    c = getattr(c, "complex", c)  # normal_form takes a DualCone
    gens = tuple((g.name, g.alexander, g.maslov) for g in c.generators)
    return gens, tuple(sorted(c.entries()))


def _slope(points: list[tuple[int, float]]) -> float:
    pts = [(math.log(n), math.log(t)) for n, t in points if n >= SLOPE_MIN_GENS and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, traced_passes: list[int], overhead: float,
                  per_layer: list[dict]) -> dict:
    """The `per_layer` metrics of BENCHMARK.json, each computed as its name's
    suffix says: counts from the first traced pass, self time as the median
    over traced passes of each pass's total, slopes over every call."""
    selfs = self_times(tracer.spans)
    per_pass: dict[int, dict[str, float]] = {p: {} for p in traced_passes}
    counts: dict[str, float] = {}
    points: dict[str, list] = {}
    first = traced_passes[0]
    distinct: dict[str, set] = {}
    for i, rec in enumerate(tracer.spans):
        name, pass_no = rec[NAME], rec[CMD][0]
        sums = per_pass[pass_no]
        sums[name] = sums.get(name, 0.0) + selfs[i]
        if "gens_in" in rec[COUNTS]:
            points.setdefault(name, []).append((rec[COUNTS]["gens_in"], selfs[i]))
        if pass_no != first:
            continue
        counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        for key, value in rec[COUNTS].items():
            if key == "steps" and _has_ancestor(tracer.spans, i, name):
                continue  # nested pipelines' steps are already in the outer report
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if i in tracer.inputs:
            distinct.setdefault(name, set()).add(_fingerprint(tracer.inputs[i]))
    out = {}
    for spec in per_layer:
        metric, unit = spec["name"], spec["unit"]
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            value = statistics.median(per_pass[p].get(layer, 0.0) for p in traced_passes)
        elif kind == "slope":
            value = _slope(points.get(layer, []))
        elif kind == "useful_ratio":
            calls = counts.get(f"{layer}.calls", 0)
            value = len(distinct.get(layer, ())) / calls if calls else 0.0
        elif metric == "trace.overhead":
            value = overhead
        else:
            value = counts.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
