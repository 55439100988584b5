"""Independent brute-force reimplementations used as test oracles.

Everything here enumerates and counts explicitly, without touching the
production vote/decide code paths.
"""

from __future__ import annotations

import itertools
import random
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


def brute_force_examples(docs, window_words):
    """Every training example as (feature ids, gold label index), sorted.

    Each document is cut into consecutive chunks of ``window_words`` words,
    and every position of a chunk is one example of its own context."""
    examples = []
    for doc in docs:
        tokens = list(doc.tokens)
        for start in range(0, len(tokens), window_words):
            chunk = tokens[start : start + window_words]
            words = ["<s>"] + [t.word for t in chunk] + ["</s>", "</s>"]
            for j, token in enumerate(chunk):
                ids = brute_force_context_ids(
                    words[j], words[j + 1], words[j + 2], words[j + 3],
                    str(j) if j < 4 else "4+", j == len(chunk) - 1,
                )
                examples.append((ids, LABELS.index(token.label)))
    return sorted(examples)


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


def brute_force_train(examples, epochs, seed):
    """Averaged perceptron weights from scoring every step, rows as tuples.

    ``examples`` are the pooled (feature ids, gold) pairs in their sorted
    order, as :func:`brute_force_examples` lists them; each epoch shuffles their indices with the seeded RNG and scores
    every example, updating on a zero-margin mistake."""
    n_labels = len(LABELS)
    weights = {}
    totals = {}
    stamps = {}

    def update(fid, c, delta, step):
        row = weights.get(fid)
        if row is None:
            row = weights[fid] = [0.0] * n_labels
            totals[fid] = [0.0] * n_labels
            stamps[fid] = [0] * n_labels
        tot = totals[fid]
        st = stamps[fid]
        tot[c] += row[c] * (step - 1 - st[c])
        st[c] = step - 1
        row[c] += delta

    rng = random.Random(seed)
    order = list(range(len(examples)))
    step = 0
    for _ in range(epochs):
        rng.shuffle(order)
        for ei in order:
            ids, gold = examples[ei]
            step += 1
            scores = brute_force_scores(weights, ids)
            rival = 0 if gold != 0 else 1
            for c in range(n_labels):
                if c != gold and scores[c] > scores[rival]:
                    rival = c
            if scores[gold] <= scores[rival]:
                for fid in ids:
                    update(fid, gold, 1.0, step)
                    update(fid, rival, -1.0, step)

    averaged = {}
    if step:
        for fid, row in weights.items():
            tot = totals[fid]
            st = stamps[fid]
            avg = tuple([(tot[c] + row[c] * (step - st[c])) / step for c in range(n_labels)])
            if any(avg):
                averaged[fid] = avg
    return averaged


def brute_force_significance(scores_a, scores_b, permutations, seed):
    """The sign-flip p-value, drawing one ``getrandbits(1)`` per sampled sign."""
    n = len(scores_a)
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    observed = abs(sum(diffs) / n)

    if 2**n <= permutations:
        count = 0
        for signs in itertools.product((1.0, -1.0), repeat=n):
            stat = abs(sum(d * s for d, s in zip(diffs, signs)) / n)
            if stat >= observed:
                count += 1
        return count / 2**n

    rng = random.Random(seed)
    count = 0
    for _ in range(permutations):
        stat = abs(sum(d if rng.getrandbits(1) else -d for d in diffs) / n)
        if stat >= observed:
            count += 1
    return (1 + count) / (1 + permutations)


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
