"""Seeded fuzz of the complex reader: malformed JSON ends with an exit code.

Valid models are mutated by dropping keys, swapping values for other JSON
types and replacing containers, then run through `validate` and
`surgery --p 1`.  `FLOERCONE_SEED` reseeds the mutations.  Every generated
integer stays within +-4: the surgery window grows with the Alexander
gradings, so a large one builds a huge cone instead of failing to parse.
"""

import io
import json
import random

import pytest

from floercone.cli import main
from floercone.models import minus_twist_knot, staircase
from floercone.serialize import complex_to_json, dumps

from random_complexes import default_seed

CASES = 300
SCHEMA = {"generators": {"name": str, "alexander": int, "maslov_x4": int},
          "differential": {"from": str, "to": str, "u_power": int}}
HUGE = "<1e400>"  # written into the text as the literal 1e400, read as float infinity


def well_formed(doc) -> bool:
    """Whether doc has every key of the complex format, each value of exactly
    its JSON type (a bool or a float is no integer)."""
    if type(doc) is not dict:
        return False
    for key, fields in SCHEMA.items():
        items = doc.get(key)
        if type(items) is not list:
            return False
        for item in items:
            if type(item) is not dict:
                return False
            if any(type(item.get(f)) is not kind for f, kind in fields.items()):
                return False
    return True


def any_value(rng: random.Random):
    """A replacement of any JSON type; integers within +-4."""
    return rng.choice([
        lambda: rng.randint(-4, 4),
        lambda: rng.choice([0.5, -1.5, 1.0, 0.0]),
        lambda: rng.choice([True, False]),
        lambda: rng.choice(["0", "x", "a1", ""]),
        lambda: None,
        lambda: [rng.randint(-4, 4)],
        lambda: [],
        lambda: {},
        lambda: HUGE,
    ])()


def slots(doc) -> list[tuple]:
    """Every (container, key or index) under doc, outermost first."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for k in list(keys):
            out.append((node, k))
            stack.append(node[k])
    return out


def mutate(doc, rng: random.Random):
    """One random mutation of doc, in place where it can be; returns the document."""
    spots = slots(doc)
    if not spots:
        return any_value(rng)
    node, k = rng.choice(spots)
    value = node[k]
    op = rng.choice(["drop", "same type", "any type", "container"])
    if op == "drop":
        del node[k]
    elif op == "same type" and type(value) in (int, str):
        # well-typed, though the complex may be invalid or inconsistent
        node[k] = rng.randint(-4, 4) if type(value) is int else rng.choice(["x", "y", "a1", "w"])
    elif op != "container" or not isinstance(value, (dict, list)):
        node[k] = any_value(rng)
    elif isinstance(value, dict):
        node[k] = rng.choice([list(value.values()), any_value(rng)])
    else:
        node[k] = rng.choice([{str(i): v for i, v in enumerate(value)}, any_value(rng)])
    return doc


def malformed_texts():
    rng = random.Random(default_seed())
    models = [complex_to_json(staircase()), complex_to_json(minus_twist_knot(3))]
    for _ in range(CASES):
        doc = json.loads(json.dumps(rng.choice(models)))
        for _ in range(rng.randint(1, 3)):
            doc = mutate(doc, rng)
        yield dumps(doc).replace(f'"{HUGE}"', "1e400")


@pytest.mark.parametrize("argv", [["validate"], ["surgery", "--p", "1"]])
def test_malformed_json_ends_with_an_exit_code(argv, capsys, monkeypatch):
    seen = {True: 0, False: 0}
    for text in malformed_texts():
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(argv)
        _, err = capsys.readouterr()
        ok = well_formed(json.loads(text))
        seen[ok] += 1
        assert code in (0, 1, 2), text
        assert code == 0 or "error: " in err, text
        if not ok:
            assert code == 2, (err, text)
    # both kinds of input were exercised
    assert min(seen.values()) >= CASES // 10, seen
