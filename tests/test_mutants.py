"""The mutation ledger (tests/mutants.py) still fits the code: each mutant's
old text occurs exactly once in src/, in its own file, and each test it
lists exists.  Running the mutants is tests/mutants.py's job, not tier-1's."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    counts = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8").count(mutant.old)
              for path in (ROOT / "src").rglob("*.py")}
    assert {path: n for path, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_listed_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *scopes = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for scope in scopes:
            name = scope.split("[")[0]
            assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), test
