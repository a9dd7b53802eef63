"""The benchmark's own command lists for seeds 1-3, run in-process through `cli.main`.

Every command must pass its workload check, and each workload's outputs on
each seed are pinned by one SHA-256 over (cid, exit code, stdout) in list
order, so a change that keeps the checks but moves a byte of output shows up
here.
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

# workload -> seed -> digest
DIGESTS = {
    "surgery-hat": {
        1: "294bf2ec7ac6c286ab4f50940f1c39330e6a2510cfe7838db31dcce89c74557e",
        2: "83d8e62f8fba2b0d1a75686b3dac55d6fb69dbcd49cf5610a1d9458acddc865a",
        3: "68c88e469c853880640beb9e02622ad7881bfde22b2ae9f32e943e6a4bbb096e",
    },
    "dualknot": {
        1: "8d107c1d972d21e1332b27308ef0cf1454c3077880715f3909f0b6b76eb437d8",
        2: "7c626aa029d82ec6500ff6c57c761aa41adc3879c4549aa3a431dea4aa03f294",
        3: "d14dbe5b7810a7c5805b83e9e9e146c077dc71b4cd6fafc02985da6daaa011d7",
    },
    "pipeline": {
        1: "4785a2478916d5b28b8694850ea56dfbf1c1213c3e09f714a8aed2b3371c7745",
        2: "ea6862c3ea56d818a69adba9ff86496feec4dce3bf99d772df6e5a93a3ec549d",
        3: "4dfaec261af4d6dfa98c625fda2475543328579c422e2bc1206319fe2c4af8e1",
    },
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


@pytest.mark.parametrize("name, seed", [(name, seed) for name in DIGESTS for seed in DIGESTS[name]])
def test_seeded_commands_pass_and_keep_their_bytes(name, seed):
    workloads = load_workloads()
    digest = hashlib.sha256()
    for cmd in workloads.WORKLOADS[name](random.Random(seed), model_json):
        code, out = invoke(cmd.argv, cmd.stdin)
        assert workloads.check_output(cmd, code, out) is None, cmd.cid
        for part in (cmd.cid, str(code), out):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == DIGESTS[name][seed]


def test_seed_one_surgery_hat_reduces_each_shared_vertex_once(monkeypatch):
    # per hat command one A_s per s in [0, top], B being A_top and each A_s
    # below 0 being A_(-s) through the flip; per infinity command the source
    # once: 26 reductions, 37 with every A_s in [-top, top] reduced.  Each
    # reduced A_s below top replays v and h once, A_top h alone (its v is the
    # identity, B being A_top), and the infinity source h once; the records
    # below 0 and above top replay nothing: 37 replays, 59 with the ones in
    # [-top, 0) reduced and replayed
    calls = []
    replays = []
    reduce, induced_map = cone.reduce, cone.induced_map
    monkeypatch.setattr(cone, "reduce", lambda c, mode: calls.append(mode) or reduce(c, mode))
    monkeypatch.setattr(cone, "induced_map",
                        lambda *args: replays.append(1) or induced_map(*args))
    for cmd in load_workloads().WORKLOADS["surgery-hat"](random.Random(1), model_json):
        invoke(cmd.argv, cmd.stdin)
    assert (len(calls), len(replays)) == (26, 37)
