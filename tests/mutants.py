"""The mutation ledger: small breaks of the package that named tests must catch.

Each mutant replaces one exact text of a file under src/ and lists the test
ids that must fail once it is applied.  Tier-1 checks only that each old
text still occurs exactly once in src/ (tests/test_mutants.py), so a change
that moves a guarded line updates its entry here.  This script applies each
mutant to a temporary copy of src/, tests/ and bench/ and runs only its
listed tests:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It prints one line per mutant, "killed" when every listed test fails, and
exits 1 when a mutant survives, is killed only in part, or its run breaks.
A survivor is a finding about the tests, not an entry to drop.  For the
method see Jia and Harman, An analysis and survey of the development of
mutation testing, IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in src/
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


# node id prefixes of the test files the mutants list
PIVOTS = "tests/test_algebra.py::TestPivotOrder::"
SPLIT = PIVOTS + "test_dual_cone_split"
GOLDEN = "tests/test_golden.py::test_stdout_bytes"
ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"
CONE = "tests/test_cone.py::"
WORKED = "tests/test_worked_examples.py::TestFullVsPaperOnTwistKnot::"
FLIP_REFUSES = "tests/test_models.py::TestFlip::test_flip_map_refuses_an_invalid_pairing"
RECORDS = CONE + "TestHatVertexHomology::test_tail_records_match_replayed_maps"
SHARED = CONE + "TestSectorsFromVertexHomology::test_shared_slices"

MUTANTS = [
    # _Reduction.eliminate in keep mode re-queues each row and each column
    # an isolate changed; split_to_summands' pivots are compared with a scan
    Mutant("keep-skips-rows", "src/floercone/algebra.py",
           "                for s in rows:\n", "                for s in ():\n",
           (PIVOTS + "test_random_complexes", SPLIT + "[minus-en:7 at -1]",
            SPLIT + "[mirror minus-en:7 at -1]")),
    Mutant("keep-skips-columns", "src/floercone/algebra.py",
           "                for t in cols:\n", "                for t in ():\n",
           (PIVOTS + "test_random_complexes", SPLIT + "[minus-en:7 at 1]",
            SPLIT + "[scrambled copies 0]",
            GOLDEN + "[dualknot --n 1 --model minus-en:41 --check normalform]",
            ACCEPTANCE + "1_normal_form_golden")),
    Mutant("keep-requeues-nothing", "src/floercone/algebra.py",
           "                rows.add(s)\n                cols.add(t)\n", "                pass\n",
           (PIVOTS + "test_random_complexes", SPLIT + "[minus-en:7 at -1]",
            SPLIT + "[minus-en:7 at 1]",
            GOLDEN + "[dualknot --n 1 --model minus-en:41 --check normalform]",
            ACCEPTANCE + "1_normal_form_golden")),
    # FlipMap checks every pairing it is given
    Mutant("flip-violations-empty", "src/floercone/models.py",
           "def flip_violations(c: FilteredComplex, pairing: dict[str, str]) -> list[str]:\n",
           "def flip_violations(c: FilteredComplex, pairing: dict[str, str]) -> list[str]:\n"
           "    return []\n",
           tuple(f"{FLIP_REFUSES}[{rule}]" for rule in
                 ("bijection", "involution", "alexander", "maslov", "mirror entry"))),
    # the hat record of A_s, s < 0, is A_(-s)'s with v and h swapped and
    # each Maslov grading moved by 2 s
    Mutant("negative-s-keeps-v-and-h", "src/floercone/cone.py",
           "found = VertexHomology(a.reduced, a.h, a.v)",
           "found = VertexHomology(a.reduced, a.v, a.h)",
           (WORKED + "test_plus_one_surgery_both_ranges",
            CONE + "TestSurgeryFormula::test_sum_of_sector_ranks[torus_2_5]",
            GOLDEN + "[model --minus-en 9 | surgery --p 13 --q 3 --range full]",
            ACCEPTANCE + "3_truncation_inclusion_isomorphism")),
    Mutant("tail-lift-sign", "src/floercone/cone.py",
           "return 2 * min(0, s)", "return -2 * min(0, s)",
           (WORKED + "test_plus_one_surgery_both_ranges",
            CONE + "TestSurgeryFormula::test_sum_of_sector_ranks[torus_2_5]",
            GOLDEN + "[quarter-staircase.json | surgery --p 2 --q 1]",
            ACCEPTANCE + "6_oracle_equivalence")),
    # every A_s below -top - 1 shares A_(-top - 1)'s record
    Mutant("shared-s-clamps-at-minus-top", "src/floercone/cone.py",
           "return min(max(s, -top - 1), top + 1)", "return min(max(s, -top), top + 1)",
           ("tests/test_cli.py::TestSurgeryCommand::test_reductions_over_budget_exit_one_at_once",
            CONE + "TestAssembly::test_reduction_budget_counts_the_lower_tail_once",
            RECORDS + "[unknot-False]", RECORDS + "[unknot-True]", RECORDS + "_at_top_zero",
            CONE + "TestSectorsFromVertexHomology::test_matches_flattened_sector[unknot]",
            SHARED + "_match_one_reduction_per_clamped_s[unknot-False]",
            SHARED + "_match_one_reduction_per_clamped_s[unknot-True]",
            SHARED + "_on_random_reflection_symmetric_models")),
]


def failed_ids(output: str) -> set[str]:
    """The node ids pytest's -rfE summary reports as failed or in error."""
    ids = set()
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                ids.add(line[len(prefix):].split(" - ", 1)[0])
    return ids


def run(mutant: Mutant) -> tuple[str, list[str]]:
    """Apply mutant to a temporary copy and run its tests: (verdict, the
    listed tests that did not fail)."""
    if not mutant.tests:
        return "no tests listed", []
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "bench"):  # tier-1 reads bench/ as well
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, mutant.file)
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale: its old text does not occur exactly once", []
        path.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))})
    if proc.returncode not in (0, 1):
        return f"broken run (pytest exit {proc.returncode})", list(mutant.tests)
    failed = failed_ids(proc.stdout)
    alive = [t for t in mutant.tests
             if not any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    if not alive:
        return "killed", []
    return ("survived" if len(alive) == len(mutant.tests) else "killed in part"), alive


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    ok = True
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict, alive = run(mutant)
        ok &= verdict == "killed"
        print(f"{mutant.name}: {verdict}"
              f" ({len(mutant.tests) - len(alive)} of {len(mutant.tests)} listed tests fail)")
        for t in alive:
            print(f"    passes: {t}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
