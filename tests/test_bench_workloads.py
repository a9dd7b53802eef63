"""The benchmark's own seed-1 command lists, run in-process through `cli.main`.

Every command must pass its workload check, and each workload's outputs are
pinned by one SHA-256 over (cid, exit code, stdout) in list order, so a
change that keeps the checks but moves a byte of output shows up here.
"""

import hashlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from floercone import cli, cone

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

DIGESTS = {
    "surgery-hat": "294bf2ec7ac6c286ab4f50940f1c39330e6a2510cfe7838db31dcce89c74557e",
    "dualknot": "8d107c1d972d21e1332b27308ef0cf1454c3077880715f3909f0b6b76eb437d8",
    "pipeline": "4785a2478916d5b28b8694850ea56dfbf1c1213c3e09f714a8aed2b3371c7745",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def invoke(argv: list[str], stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def model_json(n: int) -> str:
    code, out = invoke(["model", "--minus-en", str(n)], "")
    if code != 0:
        raise RuntimeError(f"model --minus-en {n} exited {code}")
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_seed_one_commands_pass_and_keep_their_bytes(name):
    workloads = load_workloads()
    digest = hashlib.sha256()
    for cmd in workloads.WORKLOADS[name](random.Random(1), model_json):
        code, out = invoke(cmd.argv, cmd.stdin)
        assert workloads.check_output(cmd, code, out) is None, cmd.cid
        for part in (cmd.cid, str(code), out):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == DIGESTS[name]


def test_seed_one_surgery_hat_reduces_each_shared_vertex_once(monkeypatch):
    # per hat command one A_s per s in [-top, top], B being A_top; per
    # infinity command the source once: 70 with one A_s per s in [-top - 1,
    # top + 1], 90 with infinity reduced like hat, 181 with the upper tail
    # alone shared, 244 with neither.  Each reduced A_s replays v and h once
    # and the infinity source h once; the tail records replay nothing: 70
    # replays, 114 with the tails replayed
    calls = []
    replays = []
    reduce, induced_map = cone.reduce, cone.induced_map
    monkeypatch.setattr(cone, "reduce", lambda c, mode: calls.append(mode) or reduce(c, mode))
    monkeypatch.setattr(cone, "induced_map",
                        lambda *args: replays.append(1) or induced_map(*args))
    for cmd in load_workloads().WORKLOADS["surgery-hat"](random.Random(1), model_json):
        invoke(cmd.argv, cmd.stdin)
    assert (len(calls), len(replays)) == (37, 70)
