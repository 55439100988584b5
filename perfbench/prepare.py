"""Set-up step of a segment workload, run in a process of its own.

Writes ``WORKDIR/inputs.json`` (the input properties of the run record)
and, for ``builtin``, the trained model ``WORKDIR/model.bin``; see
``workloads.prepare_segment``.  The untraced benchmark run calls it so
that training and the input-property computation stay out of its
``peak_rss_mib``::

    python3 perfbench/prepare.py builtin|external SEED default|tiny WORKDIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    kind, seed, size, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    inputs = workloads.prepare_segment(kind, seed, workloads.SIZES[size], workdir)
    (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
