"""Independent brute-force reimplementations used as test oracles.

Everything here enumerates and counts explicitly, without touching the
production vote/decide code paths.
"""

from __future__ import annotations

import zlib

from puncseg.sepp import PunctLabel

LABELS = list(PunctLabel)
FEATURE_SPACE = 1 << 20


def brute_force_context_ids(prev, cur, nxt, nxt2, bucket, is_last):
    """Build and hash the 8 feature strings of one context, in scoring order."""

    def shape(word):
        out = []
        for ch in word:
            if ch.isupper():
                c = "X"
            elif ch.islower():
                c = "x"
            elif ch.isdigit():
                c = "d"
            else:
                c = "o"
            if not out or out[-1] != c:
                out.append(c)
        return "".join(out)

    features = [
        "w=" + cur,
        "p=" + prev,
        "n=" + nxt,
        "nn=" + nxt2,
        "l=" + cur.lower(),
        "s=" + shape(cur),
        "b=" + bucket,
        "last=" + ("1" if is_last else "0"),
    ]
    return tuple(zlib.crc32(f.encode("utf-8")) & (FEATURE_SPACE - 1) for f in features)


def brute_force_scores(weights, ids):
    """Each label's score, added in place row by row in ``ids`` order.

    An id with no row adds nothing."""
    scores = [0.0] * len(LABELS)
    for fid in ids:
        row = weights.get(fid)
        if row is not None:
            for c in range(len(LABELS)):
                scores[c] += row[c]
    return scores


def brute_force_votes(stream, classifier, window_words, stride):
    """Enumerate windows explicitly and tally votes into plain dicts."""
    n = len(stream)
    counts = [{label: 0 for label in LABELS} for _ in range(n)]
    coverage = [0] * n
    start = 0
    last = max(0, n - window_words)
    while start <= last:
        words = list(stream[start : start + window_words])
        labels = classifier.classify(words)
        for j, label in enumerate(labels):
            counts[start + j][label] += 1
            coverage[start + j] += 1
        start += stride
    return counts, coverage


def brute_force_decide(counts, coverage, theta, segmenters, pooling):
    """Threshold the vote dicts the slow way."""
    final = []
    boundaries = set()
    seg = [label for label in LABELS if label in segmenters]
    for i in range(len(coverage)):
        if coverage[i] == 0:
            final.append(PunctLabel.NONE)
            continue
        ratios = {label: counts[i][label] / coverage[i] for label in LABELS}
        if pooling == "per_class":
            candidates = [
                label for label in LABELS if label is not PunctLabel.NONE and ratios[label] > theta
            ]
            chosen = PunctLabel.NONE
            if candidates:
                top = max(ratios[label] for label in candidates)
                chosen = next(label for label in LABELS if label in candidates and ratios[label] == top)
        else:
            pooled = sum(ratios[label] for label in seg)
            if pooled > theta:
                top = max(ratios[label] for label in seg)
                chosen = next(label for label in seg if ratios[label] == top)
            else:
                candidates = [
                    label
                    for label in LABELS
                    if label is not PunctLabel.NONE
                    and label not in segmenters
                    and ratios[label] > theta
                ]
                chosen = PunctLabel.NONE
                if candidates:
                    top = max(ratios[label] for label in candidates)
                    chosen = next(
                        label for label in LABELS if label in candidates and ratios[label] == top
                    )
        final.append(chosen)
        if chosen in segmenters:
            boundaries.add(i)
    return final, boundaries


def brute_force_segment(stream, classifier, window_words, stride, theta, segmenters, pooling):
    counts, coverage = brute_force_votes(stream, classifier, window_words, stride)
    return brute_force_decide(counts, coverage, theta, segmenters, pooling)


def brute_force_render(words, labels, boundaries):
    """Each word with its accepted mark, a line break after every boundary
    and after an open tail, a space everywhere else."""
    cuts = set(boundaries)
    out = []
    for i, (word, label) in enumerate(zip(words, labels)):
        out.append(word if label is PunctLabel.NONE else word + label.char)
        out.append("\n" if i in cuts or i == len(words) - 1 else " ")
    return "".join(out)


def brute_force_sepp_row(word, eos, label):
    """One SEPP line: a full stop always sets the flag, no mark always clears
    it, and any other mark keeps the token's own flag, read for its truth."""
    if label is PunctLabel.PERIOD:
        flag = "1"
    elif label is PunctLabel.NONE:
        flag = "0"
    else:
        flag = "1" if eos else "0"
    return "\t".join([word, flag, label.value]) + "\n"


class HashClassifier:
    """Deterministic pseudo-random classifier: the label of a window word is a
    hash of the window content, the in-window position, and a case seed."""

    name = "hash"
    max_window_words = None

    def __init__(self, case_seed: int, spread: int = 3):
        self.case_seed = case_seed
        # spread < 6 concentrates votes so thresholds actually trigger
        self.spread = spread

    def classify(self, window):
        joined = "\x00".join(window)
        out = []
        for i in range(len(window)):
            h = zlib.crc32(f"{self.case_seed}|{i}|{joined}".encode())
            out.append(LABELS[h % self.spread])
        return out
