"""Deterministic external classifier child for the ``segment_external`` workload.

Speaks the line protocol of ``puncseg.external``: one request line of
space-joined words in, one line of space-joined labels out, flushed.  A
word's label depends on the word alone (a CRC32 bucket), never on its
position in the window, so every covering window votes the same way and
the segmenter must return exactly ``label_for(word)`` for every word.
The per-word work is one dictionary lookup once a word has been seen, so
the workload measures the adapter, not a model.

Run as ``python child.py [--cpu N]``; with ``--cpu`` the child pins
itself to CPU ``N``, so that its placement, and the round-trip time that
depends on it, is the same from run to run.  The benchmark imports
``label_for`` to check the segmenter's output.
"""

import os
import sys
import zlib


def label_for(word: str) -> str:
    bucket = zlib.crc32(word.encode("utf-8")) % 100
    if bucket < 6:
        return "."
    if bucket < 10:
        return ","
    if bucket < 11:
        return "?"
    if bucket < 12:
        return ":"
    if bucket < 13:
        return "-"
    return "0"


def main() -> None:
    if sys.argv[1:2] == ["--cpu"]:
        os.sched_setaffinity(0, {int(sys.argv[2])})
    seen: dict[str, str] = {}
    out = sys.stdout
    for line in sys.stdin:
        labels = []
        for word in line.split():
            label = seen.get(word)
            if label is None:
                label = seen[word] = label_for(word)
            labels.append(label)
        out.write(" ".join(labels) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
