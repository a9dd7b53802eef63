"""Seeded command lists and output checks for the three benchmark workloads.

Each workload is a fixed design of cells; the seed only jitters the
parameters inside each cell and shuffles the order.  The design keeps the cost of one pass over the list nearly
the same for every seed, so a run-to-run comparison measures the program
and not the draw.  Every check here rests on facts from the theory, not on
the code under test: Euler characteristic +-1 per Spin^c structure of a
rational homology sphere, one surviving generator per sector over
GF(2)[U,U^-1], the published shape of the dual-knot normal form, and the
pipeline's own verdict lines.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass
class Command:
    """One CLI invocation: argv, stdin text, the exit code it should return,
    and the check its stdout must pass (None when it should print nothing)."""

    cid: str
    argv: list[str]
    stdin: str
    expect_exit: int
    check: tuple | None


# -- surgery-hat ------------------------------------------------------------

# (n, p, q, flavor): n is the twist-knot parameter (2n+1 generators).  The
# cells pair small n with many sectors and large n with few, and keep every
# command near 0.1 to 0.4 s, so a pass takes a few seconds and each command
# runs ten or more times in a run.  Four cells of fifteen use the infinity
# flavor; signs alternate.  Moving n, q or the sign of p changes a command's
# cost by up to a third, so the seed moves none of them.  It moves |p| by at
# most 4% (cells with |p| of 25 or more), and it shuffles the order.
SURGERY_CELLS = (
    (13, 5, 1, "hat"), (9, -13, 3, "hat"), (9, 19, 4, "hat"), (21, -5, 1, "hat"),
    (13, -9, 2, "infinity"), (17, 7, 3, "hat"), (25, 5, 1, "hat"), (13, -17, 3, "infinity"),
    (21, -9, 2, "hat"), (17, -9, 2, "infinity"), (13, 29, 7, "hat"), (9, -40, 11, "hat"),
    (33, 5, 1, "hat"), (9, 5, 1, "infinity"), (9, 23, 5, "hat"),
)


def surgery_hat(rng: random.Random, model_json) -> list[Command]:
    """`surgery --range full` on minus_twist_knot(n) JSON piped to stdin."""
    cmds = []
    for n, p0, q, flavor in SURGERY_CELLS:
        mag = abs(p0)
        p = rng.choice([p for p in range(mag, mag + mag // 25 + 1) if gcd(p, q) == 1])
        p = p if p0 > 0 else -p
        argv = ["surgery", "--range", "full", "--p", str(p), "--q", str(q), "--flavor", flavor]
        cmds.append(Command(f"surgery n={n} p/q={p}/{q} {flavor}", argv, model_json(n), 0,
                            ("surgery", p, q, flavor)))
    rng.shuffle(cmds)
    return cmds


def _maslov(v) -> Fraction:
    return Fraction(v["num"], v["den"]) if isinstance(v, dict) else Fraction(v)


def check_surgery(payload: dict, p: int, q: int, flavor: str) -> str | None:
    if (payload.get("kind"), payload.get("p"), payload.get("q"), payload.get("flavor")) != \
            ("surgery_report", p, q, flavor):
        return "report header does not echo the command"
    sectors = payload["sectors"]
    if sorted(sectors, key=int) != [str(i) for i in range(abs(p))]:
        return f"expected {abs(p)} Spin^c sectors, got {len(sectors)}"
    for key, table in sectors.items():
        if table["torsion"]:
            return f"sector {key}: unexpected U-torsion"
        if flavor == "infinity":
            if table["total_rank"] != 1:
                return f"sector {key}: infinity rank {table['total_rank']}, expected 1"
            continue
        # Euler characteristic +-1: gradings in one sector differ by integers
        ref = None
        chi = 0
        for row in table["ranks"]:
            m = _maslov(row["key"]["maslov"])
            ref = m if ref is None else ref
            diff = m - ref
            if diff.denominator != 1:
                return f"sector {key}: Maslov gradings differ by a non-integer"
            chi += row["rank"] * (-1 if diff.numerator % 2 else 1)
        if abs(chi) != 1 or table["total_rank"] % 2 != 1:
            return f"sector {key}: Euler characteristic {chi}, hat rank {table['total_rank']}"
    return None


# -- dualknot ---------------------------------------------------------------

# Odd model sizes N, evenly spaced.  The top stops near 85, not 241: each
# command should run ten or more times in a run, and one N = 233 command
# takes 3 to 4.5 s on a 2-core shared host.  The seed adds 0 or 2 to each
# centre (about 3% on N, 6% on cost), and shuffles the order.
DUALKNOT_CENTRES = (41, 47, 53, 59, 65, 71, 77, 83)


def dualknot(rng: random.Random, model_json) -> list[Command]:
    """`dualknot --n 1 --model minus-en:N`, normal forms and U = 1 maps in turn.

    Which cell asks for which check is fixed: a gmap report holds more memory
    than a normal form, so drawing it would move peak RSS.  The largest cell
    asks for gmap, the largest JSON emit.
    """
    cmds = []
    for i, centre in enumerate(DUALKNOT_CENTRES):
        n = centre + rng.choice((0, 2))  # odd centres keep N odd
        check = ("normalform", "gmap")[i % 2]
        argv = ["dualknot", "--n", "1", "--model", f"minus-en:{n}", "--check", check]
        cmds.append(Command(f"dualknot N={n} {check}", argv, "", 0, ("dualknot", n, check)))
    rng.shuffle(cmds)
    return cmds


def _gf2_rank(matrix: list[list[int]]) -> int:
    rows = [int("".join(map(str, row)) or "0", 2) for row in matrix]
    rank = 0
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                rank += 1
                break
            row ^= pivots[top]
    return rank


def check_dualknot(payload: dict, n: int, check: str) -> str | None:
    half = (n + 1) // 2
    if payload.get("kind") != "dualknot_report" or payload.get("framing") != 1:
        return "not a framing-1 dualknot report"
    if check == "normalform":
        want = {"free": 1, "horizontal": half, "vertical": half}
        if payload["counts"] != want:
            return f"summand counts {payload['counts']}, expected {want}"
        kinds = [s["kind"] for s in payload["summands"]]
        if {k: kinds.count(k) for k in want} != want:
            return "summand list disagrees with the counts"
        return None
    gm = payload["gmap"]
    if gm["alexander"] != 1 or not gm["injective"] or gm["rank"] != half \
            or gm["domain_dim"] != half:
        return f"U = 1 map {({k: v for k, v in gm.items() if k != 'matrix'})}"
    matrix = gm["matrix"]
    if len(matrix) != gm["codomain_dim"] or any(len(r) != half for r in matrix):
        return "U = 1 matrix has the wrong shape"
    if _gf2_rank(matrix) != half:
        return "U = 1 matrix is not of full column rank"
    return None


# -- pipeline ---------------------------------------------------------------

PIPELINE_NS = (5, 7, 9, 11, 13, 15)


def _pipeline_r(rng: random.Random, kind: str) -> tuple[str, int, int]:
    """(r, m, expected exit) for one cell kind."""
    if kind == "i":
        return "-2", 1, 0
    if kind == "ii-small":
        return str(-rng.randint(3, 6)), 1, 0
    if kind == "ii-mid":
        return str(-rng.randint(7, 24)), 1, 0
    if kind == "ii-large":
        return str(-rng.randint(25, 60)), 1, 0
    if kind == "iii":  # [-a, -b] continued fraction: first component stabilized
        a, b = rng.randint(3, 6), rng.randint(2, 5)
        return f"-{a * b - 1}/{b}", 1, 0
    if kind == "iv":
        return f"-1/{rng.randint(2, 12)}", 1, 0
    if kind == "m":
        m = rng.choice((3, 5))
        k = rng.choice([k for k in range(2, 21) if k != m])
        return str(-k), m, 0
    m = rng.choice((1, 3, 5))  # excluded: r = -1, or r = -m
    return str(-m), m, 1


PIPELINE_KINDS = ("i", "ii-small", "ii-mid", "ii-large", "iii", "iv", "m", "excluded")
JSON_KINDS = ("i", "iii")  # these cells ask for the JSON report, so serialize is timed too


def pipeline(rng: random.Random, model_json) -> list[Command]:
    """`pipeline --n n --r=R [--m M]` over every (n, case) cell."""
    cells = [(n, kind) for n in PIPELINE_NS for kind in PIPELINE_KINDS]
    cells.append((11, "ii-large"))  # an odd count puts the median on one command
    cmds = []
    for n, kind in cells:
        r, m, code = _pipeline_r(rng, kind)
        argv = ["pipeline", "--n", str(n), f"--r={r}"] + (["--m", str(m)] if m != 1 else [])
        check = None
        if code == 0:
            check = ("pipeline", "json" if kind in JSON_KINDS else "text")
            argv += ["--format", "json"] if kind in JSON_KINDS else []
        cmds.append(Command(f"pipeline n={n} r={r} m={m}", argv, "", code, check))
    rng.shuffle(cmds)
    return cmds


_STEP = re.compile(r"^  \d+\. \[(computed|trusted)/(ok|FAIL|trusted)\] ")


def check_pipeline_json(payload: dict) -> str | None:
    if payload.get("kind") != "pipeline_report" or payload.get("distinct") is not True:
        return f"verdict kind={payload.get('kind')!r} distinct={payload.get('distinct')!r}"
    steps = payload["steps"]
    for step in steps:
        want = True if step["kind"] == "computed" else None
        if step["kind"] not in ("computed", "trusted") or step["verified"] is not want:
            return f"step not verified: {step['title']!r}"
    if not any(step["kind"] == "computed" for step in steps):
        return "no computed step"
    return None


def check_pipeline(text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("pipeline n="):
        return "missing header line"
    if not lines[-1].startswith("distinct: yes"):
        return f"verdict {lines[-1]!r}"
    computed = 0
    for line in lines[1:-1]:
        m = _STEP.match(line)
        if m is None:
            return f"unparsed step line {line[:60]!r}"
        kind, mark = m.groups()
        if (kind == "computed") != (mark == "ok") or mark == "FAIL":
            return f"step not verified: {line[:80]!r}"
        computed += kind == "computed"
    if computed == 0:
        return "no computed step"
    return None


WORKLOADS = {"surgery-hat": surgery_hat, "dualknot": dualknot, "pipeline": pipeline}


def check_output(cmd: Command, code, out: str) -> str | None:
    """None if the command behaved as expected, else the reason it did not."""
    if code != cmd.expect_exit:
        return f"exit {code}, expected {cmd.expect_exit}"
    if cmd.check is None:
        return None if out == "" else "unexpected output"
    if cmd.check == ("pipeline", "text"):
        return check_pipeline(out)
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        if cmd.check[0] == "pipeline":
            return check_pipeline_json(payload)
        if cmd.check[0] == "surgery":
            return check_surgery(payload, *cmd.check[1:])
        return check_dualknot(payload, *cmd.check[1:])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
