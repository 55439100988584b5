"""Rewrite ``digests.json``: the ``train_eval`` stage digests for seeds 0..N-1.

The benchmark compares every pass's model-file bytes and report/TSV text
against these digests, so a change that alters outputs shows up as failed
operations.  Re-record only when an output change is intended, from the
root of a checkout::

    python3 perfbench/record_digests.py [N]
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    workdir = ROOT / ".perfbench_work" / "digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        table = {str(seed): workloads.compute_digests(seed, workdir) for seed in range(n_seeds)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS_FILE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(f"recorded {n_seeds} seeds in {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
