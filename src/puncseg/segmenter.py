"""Sliding-window vote aggregation over a per-token classifier.

A fixed-size word window slides over the stream and every window is
classified, so each word collects one label vote per covering window (up
to window_words of them at stride 1).  A non-NONE label is accepted at a
word when its vote ratio strictly exceeds the threshold theta; accepted
labels from the segmenting set cut the stream after their word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .classifier import LABEL_INDEX, LABELS, N_LABELS, Classifier
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
    """Per word: label vote counts over covering windows, plus coverage."""

    counts: np.ndarray  # (n_words, n_labels) int64, label axis in tie order
    coverage: np.ndarray  # (n_words,) int64

    @classmethod
    def zeros(cls, n_words: int) -> "VoteTable":
        return cls(
            counts=np.zeros((n_words, N_LABELS), dtype=np.int64),
            coverage=np.zeros(n_words, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.coverage)

    def add_window(self, start: int, label_indices: Sequence[int]) -> None:
        rows = np.arange(start, start + len(label_indices))
        np.add.at(self.counts, (rows, np.asarray(label_indices)), 1)
        self.coverage[start : start + len(label_indices)] += 1

    def merge(self, other: "VoteTable") -> "VoteTable":
        """Associative addition, so per-window partial tables can be folded in any order."""
        return VoteTable(self.counts + other.counts, self.coverage + other.coverage)


def classify_chunked(
    classifier: Classifier, words: Sequence[str], window_words: int, start: int = 0
) -> list[PunctLabel]:
    """Label ``words`` in calls of at most min(window_words, classifier limit) words.

    ``start`` is the position of ``words[0]`` in the stream; a failing call
    or a reply of the wrong length raises WindowClassifyError naming the
    stream position where that call began.
    """
    limit = getattr(classifier, "max_window_words", None)
    size = window_words if limit is None else min(window_words, limit)
    labels: list[PunctLabel] = []
    for off in range(0, len(words), size):
        chunk = words[off : off + size]
        at = start + off
        try:
            part = classifier.classify(chunk)
        except Exception as exc:
            raise WindowClassifyError(
                at, f"classifier failed in window starting at word {at}: {exc}"
            ) from exc
        if len(part) != len(chunk):
            raise WindowClassifyError(
                at, f"classifier broke the length contract at window {at}"
            )
        labels.extend(part)
    return labels


def accumulate_votes(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig
) -> VoteTable:
    """Classify every window once and tally one vote per covered word."""
    votes = VoteTable.zeros(len(stream))
    for window in windows(stream, cfg):
        labels = classify_chunked(classifier, window.words, cfg.window_words, window.start)
        votes.add_window(window.start, [LABEL_INDEX[label] for label in labels])
    return votes


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
    seg_idx = sorted(LABEL_INDEX[label] for label in cfg.segmenters)
    seg_set = set(seg_idx)
    pooled = cfg.pooling == "pooled"
    candidates = [c for c in range(1, N_LABELS) if not (pooled and c in seg_set)]
    theta = cfg.theta
    labels: list[PunctLabel] = []
    boundaries: set[int] = set()
    counts = votes.counts
    coverage = votes.coverage
    for i in range(len(votes)):
        cov = int(coverage[i])
        if cov == 0:
            labels.append(PunctLabel.NONE)
            continue
        row = counts[i]
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
class Segment:
    words: list[str]
    terminal: PunctLabel  # NONE on the stream-final open segment


@dataclass
class SegmentedText:
    """Final labels plus the boundary cut points over the original stream."""

    words: list[str]
    labels: list[PunctLabel]
    boundaries: list[int] = field(default_factory=list)

    def segments(self) -> list[Segment]:
        out: list[Segment] = []
        start = 0
        for b in self.boundaries:
            out.append(Segment(self.words[start : b + 1], self.labels[b]))
            start = b + 1
        if start < len(self.words):
            out.append(Segment(self.words[start:], PunctLabel.NONE))
        return out

    def to_text(self) -> str:
        """One segment per line; accepted marks attach to their word without a space."""
        if not self.words:
            return ""
        lines: list[str] = []
        start = 0
        cuts = list(self.boundaries) + (
            [] if self.boundaries and self.boundaries[-1] == len(self.words) - 1 else [len(self.words) - 1]
        )
        for b in cuts:
            parts = []
            for i in range(start, b + 1):
                label = self.labels[i]
                parts.append(self.words[i] + ("" if label is PunctLabel.NONE else label.char))
            lines.append(" ".join(parts))
            start = b + 1
        return "\n".join(lines) + ("\n" if lines else "")


def segment(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig
) -> SegmentedText:
    """Window, vote, threshold; cut after every accepted segmenting label."""
    votes = accumulate_votes(stream, classifier, cfg)
    labels, boundaries = decide(votes, cfg)
    return SegmentedText(list(stream), labels, sorted(boundaries))
