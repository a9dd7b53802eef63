"""Golden stdout bytes for the README command examples and larger reports.

Each case is a shell pipeline of CLI invocations: every stage reads the
previous stage's stdout, or, for a stage named in INPUTS, is that literal
text.  The SHA-256 of the last stage's stdout is pinned, so any change in
generator names, pivot order or formatting shows up here even where the
structural tests still pass.  Every report a chain emits must also be the
text `json.dumps(report, indent=2, ensure_ascii=False)` gives it.
"""

import hashlib
import io
import json

import pytest

from floercone import serialize
from floercone.cli import main

INPUTS = {
    # the staircase with every maslov_x4 raised by 1: quarter-integral Maslov
    # gradings, which stay Fractions and can sum with phi to an integer
    "quarter-staircase.json": (
        '{"generators":[{"name":"x","alexander":1,"maslov_x4":9},'
        '{"name":"y","alexander":0,"maslov_x4":5},{"name":"z","alexander":-1,"maslov_x4":1}],'
        '"differential":[{"from":"x","to":"y","u_power":0},{"from":"z","to":"y","u_power":1}]}'),
}

QUARTER = "quarter-staircase.json"

GOLDEN = [
    ([["model", "--minus-en", "5"]],
     "4eb09606988e888f58dc687ffcda37bbc7e477d13d8e4ddbaa7d6f0223d2188e"),
    ([["model", "--staircase"], ["validate"]],
     "b94acfbfe36fd90a0d6d90c17c345f271eda56991878bf80979952aa0fef28d8"),
    ([["model", "--unknot"], ["surgery", "--p", "3", "--q", "1"]],
     "a92cddf559478801f3f3c6d979cc93e1399c2e292c9642c0e546db9b058087df"),
    ([["model", "--minus-en", "5"], ["surgery", "--p", "-1", "--flavor", "hat", "--range", "full"]],
     "31d080d7089200d94d140d7a8da1fc7ea605a16604b858ac439a110bba9a4f99"),
    ([["dualknot", "--n", "1", "--model", "minus-en:5", "--check", "normalform"]],
     "3d1055ce016e621466468d03ebfb970bdd43b1bf17daf9606d792b6ca5e4eac3"),
    ([["dualknot", "--n", "1", "--model", "minus-en:7", "--check", "gmap"]],
     "abfe88bba489e8fc1c5fec2a4351383678448525d5316345fae16e8185766fb8"),
    ([["dgs", "--r=-7/2"]],
     "750e291835230776984d140c20e3d5e44178ed8e3c2de399e52053502cd932df"),
    ([["c1", "--formula", "cobordism", "--tb", "0", "--rot", "-1", "--p", "3", "--q", "2"]],
     "be5973059e046810f88aa0b108eb32117fb2e0a5c8fecd5b251284351ce5e747"),
    ([["pipeline", "--n", "5", "--r=-3"]],
     "2616ecd6f25697867ac426ebcd6b3a8d0f26ecfba5c20a13b68be4230f460558"),
    ([["pipeline", "--n", "5", "--r=-1/2", "--format", "json"]],
     "b47cbd60f1c7d4071a52e64611a9cdd9d77d0f8c0c4998b47c2b6fa6a20ac043"),
    ([["dualknot", "--n", "1", "--model", "minus-en:41", "--check", "normalform"]],
     "3851892c5d402dec8446eef4de76ef299685f7c29ebddb1b67ba4869d32ba154"),
    ([["dualknot", "--n", "1", "--model", "minus-en:41", "--check", "gmap"]],
     "9fcd20bc3fe2e131ed5339e38db46ed0db30630805bb47c640106c80cb3fc170"),
    ([["pipeline", "--n", "9", "--r=-7/2", "--format", "json"]],
     "39a034f7ea5cd2440bf38d2eb940909592a070ac76fa8431b9f303d9e5be9265"),
    ([["model", "--minus-en", "9"], ["surgery", "--p", "13", "--q", "3", "--range", "full"]],
     "ddbf9962d21e6b9edc73b0035010b08cf0c76e1be3f6ebba4d86a2c02d29cba9"),
    ([["model", "--minus-en", "9"],
      ["surgery", "--p", "-9", "--q", "2", "--flavor", "infinity", "--range", "full"]],
     "1c28c0661eb2bf13b747161509d55d1bd2e54fc9e780442c2c7e5cb8d8228012"),
    ([["model", "--minus-en", "33"], ["surgery", "--p", "5", "--q", "1", "--range", "full"]],
     "64637b7d6f9009c8172489c147c5bf7d0fcb0ea6e6a256341c129ef2e4c765c4"),
    ([["model", "--minus-en", "9"], ["surgery", "--p", "-41", "--q", "11", "--range", "full"]],
     "507d4d14bc593e10b82afec19f73c6b37bf310b2a2fadb376a855dd85f8c4265"),
    ([["dualknot", "--n", "1", "--model", "minus-en:83", "--check", "gmap"]],
     "459d21bd4d9d6020da0871a80ad41a31380c31e19568b392bb2390c547fcc14f"),
    ([["knot-homology", "--minus-en", "33"]],
     "ae17fd03ce5ce8dd4bd0046f32bc5e57617f96c7e96e901c44a7fb986afd57fc"),
    ([QUARTER, ["surgery", "--p", "3", "--q", "1"]],
     "bf846a92f2fd57c71d4099998b874915d7cd85f32b7966837c7be1c2c01cef67"),
    ([QUARTER, ["surgery", "--p", "3", "--q", "1", "--flavor", "infinity"]],
     "52fab361c48dc89371fd963aab57836a4223092446c06bd17f04fe317fe1d822"),
    ([QUARTER, ["surgery", "--p", "5", "--q", "2", "--range", "full"]],
     "613e8b3a386a39d66d6628c5522b0d9882bd0edd6286cecb56b80364a0dc4f4d"),
    ([QUARTER, ["surgery", "--p", "2", "--q", "1"]],
     "30860c20b720f0641faaa8ef670085220c559887f9806a7b422074518446f837"),
    ([QUARTER, ["surgery", "--p", "2", "--q", "1", "--flavor", "infinity", "--range", "full"]],
     "9669b46572bd5f3d9ed98b047ca1a11efd79460ebcef88221acd3fab9e885b3a"),
    ([QUARTER, ["validate"]],
     "b94acfbfe36fd90a0d6d90c17c345f271eda56991878bf80979952aa0fef28d8"),
]


def run_chain(chain, capsys, monkeypatch) -> str:
    text = ""
    for argv in chain:
        if isinstance(argv, str):
            text = INPUTS[argv]
            continue
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(argv)
        text, err = capsys.readouterr()
        assert code == 0, (argv, err)
    return text


@pytest.mark.parametrize("chain,digest", GOLDEN,
                         ids=[" | ".join(a if isinstance(a, str) else " ".join(a) for a in c)
                              for c, _ in GOLDEN])
def test_stdout_bytes(chain, digest, capsys, monkeypatch):
    emitted, dumps = [], serialize.dumps

    def recording(report):
        emitted.append((report, dumps(report)))
        return emitted[-1][1]
    monkeypatch.setattr(serialize, "dumps", recording)
    out = run_chain(chain, capsys, monkeypatch)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    for report, text in emitted:
        assert text == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
