"""floercone benchmark: per-command CLI latency on seeded workloads.

    python3 bench/run.py --workload surgery-hat --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Drives `floercone.cli.main(argv)` in-process with stdin, stdout and stderr
redirected to memory: a closed loop with one client, one command at a time.
The workload's command list (drawn from --seed) is repeated for about
--seconds, and at least MIN_PASSES times.  Each pass starts with a timed
set-up, outside the pass's own timing: every floercone module is dropped
and imported again, as in a fresh CLI process, and the inputs are drawn.  A command's latency is the
90th percentile of its executions in the run (see latency()).

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate and it reports per-layer metrics (see
tracing.py) and the tracing overhead.  Every output is checked
(workloads.py); each command's stdout digest is compared with the last run
of the same seed.  Results, spans and digests go to bench/out/.  The package
is imported from this checkout's src/, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracing  # noqa: E402  (the script's own directory is on sys.path)
import workloads  # noqa: E402

# Passes a run makes even when --seconds is already spent.  The tail command
# below has at least ten executions of slower commands beyond it.
MIN_PASSES = 10
TRACED_MIN_PASSES = 4  # two untraced and two traced, alternating
HARD_STOP_S = 140  # start no pass that would end later, so a run ends within 180 s


def latency(samples: list[float]) -> float:
    """The 90th percentile of one command's execution times.

    On a shared host, speed switches for seconds at a time between a common
    slow state and spells up to twice as fast, and the share of fast spells
    differs from run to run.  The fastest execution, and even the median,
    follow that share; the 90th percentile stays in the common state, and
    interpolating below the maximum keeps one stray execution from setting it.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def tail_rank(k: int) -> int:
    """Index, in ascending order of latency, of the command that gives the tail.

    It is the slowest command with at least ten executions of slower commands
    beyond it at MIN_PASSES passes.  A fixed rank names the same command
    however many passes fit in the run, so a faster program does not move
    the tail onto another command.
    """
    return k - 1 - math.ceil(10 / MIN_PASSES)


def setup(name: str, seed: int):
    """Import floercone afresh, as a new process would, and draw the
    workload's command list.  Every module of the package is dropped first,
    so no state carries over from an earlier pass."""
    t0 = perf_counter()
    for mod in [m for m in sys.modules if m == "floercone" or m.startswith("floercone.")]:
        del sys.modules[mod]
    cli = importlib.import_module("floercone.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"floercone imported from {cli.__file__}, not from {SRC}")
    models: dict[int, str] = {}

    def model_json(n: int) -> str:
        if n not in models:
            code, out, _ = invoke(cli, ["model", "--minus-en", str(n)], "")
            if code != 0:
                raise RuntimeError(f"model --minus-en {n} exited {code}")
            models[n] = out
        return models[n]

    cmds = workloads.WORKLOADS[name](random.Random(seed), model_json)
    for i, cmd in enumerate(cmds):
        cmd.cid = f"{i:02d} {cmd.cid}"
    return perf_counter() - t0, cli, cmds


def invoke(cli, argv: list[str], stdin: str):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback out of the CLI is a failed command
        code = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed


def context(seed: int, trace: bool) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "floercone").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_head(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "trace": trace,
    }


def _git_head() -> str | None:
    """The checkout's commit, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_passes: int | None = None) -> dict:
    """One run: set up, repeat the pass, check every output, compute metrics."""
    ctx = context(seed, trace)
    setups = []
    if min_passes is None:
        min_passes = TRACED_MIN_PASSES if trace else MIN_PASSES
    tracer = tracing.Tracer() if trace else None

    start = perf_counter()
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_cmd: dict[str, list[float]] = {}  # untraced executions
    seen: dict[str, tuple] = {}  # cid -> (exit code, stdout digest, check verdict)
    failures: dict[str, str] = {}
    unstable: list[str] = []
    cmd_walls: dict[tuple[int, int], float] = {}  # traced (pass, command) -> seconds
    attempted = failed = 0
    pass_no = 0
    while True:
        # Start another pass while that ends the run nearer to --seconds than
        # stopping now would, so a run lasts --seconds give or take half a
        # pass.  Only HARD_STOP_S cuts a run short of min_passes.
        if pass_no:
            now = perf_counter() - start
            typical = statistics.median(walls[False] + walls[True])
            if now + typical > HARD_STOP_S or (pass_no >= min_passes
                                               and now + typical / 2 >= seconds):
                break
        traced = trace and pass_no % 2 == 1
        elapsed, cli, cmds = setup(name, seed)  # each pass starts cold
        setups.append(elapsed)
        if traced:
            tracer.install()
            tracer.keep_inputs = not walls[True]
        results = []
        t0 = perf_counter()
        for idx, cmd in enumerate(cmds):
            if traced:
                tracer.cmd = (pass_no, idx)
            results.append(invoke(cli, cmd.argv, cmd.stdin))
        walls[traced].append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
        for idx, (cmd, (code, out, elapsed)) in enumerate(zip(cmds, results)):
            attempted += 1
            if traced:
                cmd_walls[(pass_no, idx)] = elapsed
            else:
                per_cmd.setdefault(cmd.cid, []).append(elapsed)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            first = seen.get(cmd.cid)
            if first is not None and first[:2] == (code, digest):
                reason = first[2]  # same exit and bytes as an output already checked
            else:
                reason = workloads.check_output(cmd, code, out)
                if first is None:
                    seen[cmd.cid] = (code, digest, reason)
                elif cmd.cid not in unstable:
                    unstable.append(cmd.cid)
            if reason is not None:
                failed += 1
                failures.setdefault(cmd.cid, reason)
        pass_no += 1

    latencies = sorted(latency(v) for v in per_cmd.values() if v)
    tail = tail_rank(len(cmds))
    report = {
        "workload": name,
        "context": ctx,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_samples_s": setups,
        "commands_per_pass": len(cmds),
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": failures,
        "digest_changed_since_last_run": _compare_digests(name, seed, seen),
        "digest_unstable_within_run": unstable,
        "command_samples_ms": {cid: [1000 * t for t in v] for cid, v in per_cmd.items() if v},
        "tail": {"percentile": round(100 * (tail + 0.5) / len(cmds), 2),
                 "command_rank": tail, "commands": len(cmds),
                 "executions_beyond": (len(cmds) - 1 - tail) * len(walls[False])},
    }
    if trace:
        traced_passes = sorted({s[tracing.CMD][0] for s in tracer.spans})
        traced_samples: dict[int, list[float]] = {}
        for (_, idx), elapsed in cmd_walls.items():
            traced_samples.setdefault(idx, []).append(elapsed)
        overhead = sum(map(latency, traced_samples.values())) / sum(latencies)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        report["metrics"] = tracing.layer_metrics(tracer, traced_passes, overhead, per_layer)
        report["span_problems"] = tracing.span_problems(tracer.spans, cmd_walls)
        _write_spans(name, seed, tracer)
    else:
        report["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "cmd_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "cmd_tail_ms": {"value": 1000 * latencies[tail], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    report["correct"] = not failures and not report.get("span_problems")
    return report


def _compare_digests(name: str, seed: int, seen: dict) -> list[str]:
    """Commands whose stdout bytes differ from the last run of this seed."""
    path = OUT / "digests" / f"{name}-seed{seed}.json"
    current = {cid: digest for cid, (_, digest, _) in seen.items()}
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return sorted(cid for cid in current if cid in previous and previous[cid] != current[cid])


def _write_spans(name: str, seed: int, tracer: tracing.Tracer) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps({"name": rec[tracing.NAME], "start": rec[tracing.START],
                                 "end": rec[tracing.END], "parent": rec[tracing.PARENT],
                                 "command": list(rec[tracing.CMD]),
                                 **rec[tracing.COUNTS]}) + "\n")


def summary_lines(report: dict) -> list[str]:
    lines = [f"# {report['workload']}: {report['commands_per_pass']} commands per pass, "
             f"passes {report['passes']}, context {json.dumps(report['context'])}"]
    for metric, m in report["metrics"].items():
        lines.append(f"{report['workload']} {metric} = {m['value']:.6g} {m['unit']}")
    tail = report["tail"]
    lines.append(f"{report['workload']} fail_rate = {report['fail_rate']:.6g} "
                 f"({report['failed']} of {report['attempted']})")
    if not report["context"]["trace"]:
        lines.append(f"{report['workload']} cmd_tail_ms is p{tail['percentile']}: command "
                     f"{tail['command_rank'] + 1} of {tail['commands']} by latency, "
                     f"{tail['executions_beyond']} executions beyond it")
    for key in ("failures", "digest_changed_since_last_run", "digest_unstable_within_run",
                "span_problems"):
        if report.get(key):
            lines.append(f"{report['workload']} {key}: {json.dumps(report[key])}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "floercone").is_dir():
        sys.stderr.write(f"error: no floercone sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(summary_lines(report)))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
