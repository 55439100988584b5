"""Sliding-window vote aggregation over a per-token classifier.

A fixed-size word window slides over the stream and every window is
classified, so each word collects one label vote per covering window (up
to window_words of them at stride 1).  A non-NONE label is accepted at a
word when its vote ratio strictly exceeds the threshold theta; accepted
labels from the segmenting set cut the stream after their word.

A classifier that declares ``context_words = k`` labels a word in a
window's interior (``k`` or more words from either edge) the same way in
every window, so only the ``k``-word edges of most windows are
classified and the interior votes are counted in bulk.  The vote table
is the same as when every window is classified in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .classifier import LABELS, N_LABELS, Classifier
from .errors import EmptyStreamError, WindowClassifyError
from .sepp import DEFAULT_SEGMENTERS, PunctLabel


@dataclass(frozen=True)
class SegmenterConfig:
    """Knobs of the windowed voting procedure."""

    window_words: int = 200
    stride: int = 1
    theta: float = 0.1
    segmenters: frozenset[PunctLabel] = DEFAULT_SEGMENTERS
    pooling: str = "per_class"

    def __post_init__(self) -> None:
        if self.window_words < 1:
            raise ValueError("window_words must be positive")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.stride > self.window_words:
            raise ValueError("stride must not exceed window_words")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not self.segmenters:
            raise ValueError("segmenters must not be empty")
        if PunctLabel.NONE in self.segmenters:
            raise ValueError("NONE cannot segment")
        if self.pooling not in ("per_class", "pooled"):
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        object.__setattr__(self, "segmenters", frozenset(self.segmenters))


class Window(NamedTuple):
    start: int
    words: list[str]


def windows(stream: Sequence[str], cfg: SegmenterConfig) -> list[Window]:
    """Enumerate window starts 0, stride, ... up to max(0, n - W)."""
    if not stream:
        raise EmptyStreamError("cannot window an empty stream")
    n = len(stream)
    last = max(0, n - cfg.window_words)
    return [
        Window(start, list(stream[start : start + cfg.window_words]))
        for start in range(0, last + 1, cfg.stride)
    ]


@dataclass
class VoteTable:
    """Per word: label vote counts over covering windows."""

    counts: list[list[int]]  # one row of N_LABELS ints per word, label axis in tie order

    @classmethod
    def zeros(cls, n_words: int) -> "VoteTable":
        return cls([[0] * N_LABELS for _ in range(n_words)])

    @property
    def coverage(self) -> list[int]:
        """Windows covering each word: the row sums of ``counts``."""
        return [sum(row) for row in self.counts]

    def __len__(self) -> int:
        return len(self.counts)

    def add_window(self, start: int, labels: Sequence[PunctLabel]) -> None:
        """Count one vote per label, the first for word ``start``."""
        counts = self.counts
        for i, label in enumerate(labels, start):
            counts[i][label.index] += 1


def classify_chunked(
    classifier: Classifier, words: Sequence[str], window_words: int
) -> list[PunctLabel]:
    """Label ``words`` in calls of at most min(window_words, classifier limit) words."""
    calls = _announced_calls(classifier, [Window(0, words)], window_words)
    return [label for at, chunk in calls for label in _classify(classifier, chunk, at)]


def _announced_calls(
    classifier: Classifier, wins: list[Window], window_words: int
) -> list[Window]:
    """The calls that label ``wins``, each at most min(window_words, classifier limit) words.

    A classifier that can ``expect`` is told every call's words before the first.
    """
    limit = getattr(classifier, "max_window_words", None)
    size = window_words if limit is None else min(window_words, limit)
    calls = wins
    if any(len(words) > size for _, words in wins):
        calls = [
            Window(s + off, words[off : off + size])
            for s, words in wins
            for off in range(0, len(words), size)
        ]
    expect = getattr(classifier, "expect", None)
    if expect is not None:
        expect([chunk for _, chunk in calls])
    return calls


def _classify(classifier: Classifier, words: Sequence[str], at: int) -> list[PunctLabel]:
    """The labels of one call on ``words``, which begin at stream word ``at``.

    A failing call or a reply of the wrong length raises WindowClassifyError(at).
    """
    try:
        labels = classifier.classify(words)
    except Exception as exc:
        raise WindowClassifyError(
            at, f"classifier failed in window starting at word {at}: {exc}"
        ) from exc
    if len(labels) != len(words):
        raise WindowClassifyError(at, f"classifier broke the length contract at window {at}")
    return labels


def accumulate_votes(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig
) -> VoteTable:
    """Tally one vote per covered word for every window.

    When the stream has more than one window and the classifier declares
    ``context_words = k`` with ``2k < W`` and accepts whole windows, the
    votes come from :func:`_shared_interior_votes`, which announces no
    call.  Otherwise every window is classified in full, its calls
    announced up front.  The table is the same either way.
    """
    votes = VoteTable.zeros(len(stream))
    wins = windows(stream, cfg)
    w = cfg.window_words
    if len(wins) > 1:
        k = getattr(classifier, "context_words", None)
        limit = getattr(classifier, "max_window_words", None)
        if k and 2 * k < w and (limit is None or limit >= w):
            _shared_interior_votes(votes, wins, classifier, w, k)
            return votes
    for at, chunk in _announced_calls(classifier, wins, w):
        votes.add_window(at, _classify(classifier, chunk, at))
    return votes


def _shared_interior_votes(
    votes: VoteTable, wins: list[Window], classifier: Classifier, w: int, k: int
) -> None:
    """Vote ``w``-word windows, classifying their interiors only where needed.

    Each window's first ``k`` labels come from classifying its first
    ``2k`` words, and its last ``k`` from its last ``2k``.  The interior
    ``[s+k, s+w-k)`` of a window starting at ``s`` gets the labels any
    other window gives those words there, so walking left to right, a
    window is classified in full only when the next window's interior
    misses a word of its own that no earlier full window labelled.  Full
    windows vote all their labels; every other window adds one to a
    difference array over its interior, applied once at the end.
    """
    n = len(votes)
    inner: list[PunctLabel | None] = [None] * n  # each word's label in a window interior
    shared = [0] * (n + 1)  # difference array of interior votes still to cast
    known = 0  # interior labels are recorded for every word before this one
    for i, (s, words) in enumerate(wins):
        first_unknown = max(known, s + k)
        stop = s + w - k
        next_inner = wins[i + 1].start + k if i + 1 < len(wins) else n
        if first_unknown < stop and next_inner > first_unknown:
            labels = _classify(classifier, words, s)
            votes.add_window(s, labels)
            inner[first_unknown:stop] = labels[first_unknown - s : stop - s]
            known = stop
        else:
            head = _classify(classifier, words[: 2 * k], s)
            tail = _classify(classifier, words[-2 * k :], stop - k)
            votes.add_window(s, head[:k])
            votes.add_window(stop, tail[k:])
            shared[s + k] += 1
            shared[stop] -= 1
    counts = votes.counts
    count = 0
    for p in range(n):
        count += shared[p]
        if count:
            counts[p][inner[p].index] += count


def decide(
    votes: VoteTable, cfg: SegmenterConfig
) -> tuple[list[PunctLabel], set[int]]:
    """Apply the threshold to the vote table.

    per_class mode accepts, per word, the highest-ratio label whose ratio
    strictly exceeds theta (ties broken by the global label order).
    pooled mode first tests the summed ratio of the segmenting set; when
    it exceeds theta the best segmenting label wins, otherwise the word is
    decided per-class over the non-segmenting labels only.  A word covered
    by no window stays NONE.
    """
    seg_idx = sorted(label.index for label in cfg.segmenters)
    seg_set = set(seg_idx)
    pooled = cfg.pooling == "pooled"
    candidates = [c for c in range(1, N_LABELS) if not (pooled and c in seg_set)]
    theta = cfg.theta
    labels: list[PunctLabel] = []
    boundaries: set[int] = set()
    for i, row in enumerate(votes.counts):
        cov = sum(row)
        if cov == 0:
            labels.append(PunctLabel.NONE)
            continue
        if pooled and sum(row[c] / cov for c in seg_idx) > theta:
            best = seg_idx[0]
            for c in seg_idx[1:]:
                if row[c] > row[best]:
                    best = c
        else:
            best = 0
            best_ratio = theta
            for c in candidates:
                ratio = row[c] / cov
                if ratio > best_ratio:
                    best = c
                    best_ratio = ratio
        labels.append(LABELS[best])
        if best in seg_set:
            boundaries.add(i)
    return labels, boundaries


@dataclass
class SegmentedText:
    """Final labels plus the boundary cut points over the original stream."""

    words: list[str]
    labels: list[PunctLabel]
    boundaries: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        """One segment per line; accepted marks attach to their word without a space."""
        none = PunctLabel.NONE  # a local: reading the enum member per word costs more
        ends = {*self.boundaries, len(self.words) - 1}
        return "".join([
            word + ("" if label is none else label.char) + ("\n" if i in ends else " ")
            for i, (word, label) in enumerate(zip(self.words, self.labels))
        ])


def segment(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig
) -> SegmentedText:
    """Window, vote, threshold; cut after every accepted segmenting label."""
    votes = accumulate_votes(stream, classifier, cfg)
    labels, boundaries = decide(votes, cfg)
    return SegmentedText(list(stream), labels, sorted(boundaries))
