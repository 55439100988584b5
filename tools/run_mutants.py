"""Check that the tests still catch the hand-made faults listed in ``tests/mutants.py``.

Usage, from the repository root::

    python tools/run_mutants.py [NAME ...]

With names, only those mutants run, and an unknown name exits 2 before any
test runs; with none, every mutant runs.  Each test that must kill a mutant
first runs once on the repository itself, where it must pass.  Then, for
each mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied into a
fresh temporary directory (set ``TMPDIR`` to choose where), the mutant's
snippet is replaced there, and each of its tests runs in its own pytest
process, one at a time.  Prints one line per mutant and exits 1 when a test
passed on its mutant, or a run ended in anything but a pass or a failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

PASSED, FAILED = 0, 1  # pytest's exit codes


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(tree: Path, test_id: str) -> int:
    env = {**os.environ, "PYTHONPATH": "src"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_id]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for test_id in sorted({t for m in mutants for t in m.kills}):
        code = _run(ROOT, test_id)
        if code != PASSED:
            print(f"unmutated tree: {test_id} ended with exit code {code}")
            bad += 1
    with tempfile.TemporaryDirectory() as work:
        for mutant in mutants:
            tree = Path(work, mutant.name)
            _copy_tree(tree)
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                print(f"{mutant.name}: snippet does not occur exactly once in {mutant.file}")
                bad += 1
                continue
            path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            codes = {test_id: _run(tree, test_id) for test_id in mutant.kills}
            missed = [f"{t} (exit code {c})" for t, c in codes.items() if c != FAILED]
            if missed:
                print(f"{mutant.name}: SURVIVED {'; '.join(missed)}")
                bad += 1
            else:
                print(f"{mutant.name}: killed by all {len(codes)} of its tests")
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
