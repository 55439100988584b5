"""Sliding-window vote aggregation over a per-token classifier.

A fixed-size word window slides over the stream and every window is
classified, so each word collects one label vote per covering window (up
to window_words of them at stride 1).  A non-NONE label is accepted at a
word when its vote ratio strictly exceeds the threshold theta; accepted
labels from the segmenting set cut the stream after their word.

A classifier that declares ``context_words = k`` labels a word in a
window's interior (``k`` or more words from either edge) the same way in
every window, so only the ``k``-word edges of most windows are
classified, and each word's interior label is counted once, weighted by
the number of windows whose interior holds it.  An edge is labelled from
its ``2k`` words, and the ``2k`` words that label one window's tail
label the head of the window ``w - 2k`` words later, so that one call
serves both.  The vote table is the same as when every window is
classified in full.

:func:`segment` thresholds at one theta, so it also settles words: a word
whose edge votes are too few to move its decision at that theta is
decided by its interior label, so it carries that label, all settled
words share one vote row that nothing reads, and an edge slice is
classified only when it holds an unsettled word.  On a long stream at
``W = 200`` and theta 0.1 that leaves about 40 rows of their own and the
edges of about 40 windows at each end, so about one context is scored
per word instead of seven.  Its labels and boundaries are those
of the exact votes, which :func:`accumulate_votes` still returns by
default, as a sweep over theta needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, cycle, islice, repeat, tee
from numbers import Real
from typing import Iterable, Iterator, NamedTuple, Sequence

from .classifier import LABELS, N_LABELS, Classifier
from .errors import (
    ConfigError,
    EmptyStreamError,
    OutOfRangeError,
    WindowClassifyError,
    require_int,
)
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
        require_int("window_words", self.window_words)
        require_int("stride", self.stride)
        if self.window_words < 1:
            raise ConfigError("window_words must be positive")
        if self.stride < 1:
            raise ConfigError("stride must be positive")
        if self.stride > self.window_words:
            raise ConfigError("stride must not exceed window_words")
        if isinstance(self.theta, bool) or not isinstance(self.theta, Real):
            raise ConfigError(f"theta must be a real number, not {self.theta!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [0, 1]")
        # every vote ratio is a double, so every test against theta reads one double
        object.__setattr__(self, "theta", float(self.theta))
        try:
            segmenters = frozenset(self.segmenters)
        except TypeError:  # not iterable, or holds something unhashable
            segmenters = None
        if segmenters is None or not all(isinstance(label, PunctLabel) for label in segmenters):
            raise ConfigError(f"segmenters must hold PunctLabels, not {self.segmenters!r}")
        if not segmenters:
            raise ConfigError("segmenters must not be empty")
        if PunctLabel.NONE in segmenters:
            raise ConfigError("NONE cannot segment")
        if self.pooling not in ("per_class", "pooled"):
            raise ConfigError(f"unknown pooling mode {self.pooling!r}")
        object.__setattr__(self, "segmenters", segmenters)


class Window(NamedTuple):
    start: int
    words: list[str]


class _Windows(Sequence[Window]):
    """The windows of ``stream`` starting at ``starts``, each sliced only when read."""

    __slots__ = ("stream", "starts", "width")

    def __init__(self, stream: list[str], starts: range, width: int):
        self.stream = stream
        self.starts = starts
        self.width = width

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> Window:
        return self._window(self.starts[i])

    def __iter__(self) -> Iterator[Window]:
        return map(self._window, self.starts)

    def _window(self, start: int) -> Window:
        return Window(start, self.stream[start : start + self.width])


def windows(stream: Sequence[str], cfg: SegmenterConfig) -> Sequence[Window]:
    """Enumerate window starts 0, stride, ... up to max(0, n - W).

    The windows are sliced from the stream as they are read, so holding
    them costs no more than holding the stream.
    """
    if not stream:
        raise EmptyStreamError("cannot window an empty stream")
    n = len(stream)
    last = max(0, n - cfg.window_words)
    words = stream if isinstance(stream, list) else list(stream)
    return _Windows(words, range(0, last + 1, cfg.stride), cfg.window_words)


def classify_chunked(
    classifier: Classifier, words: Sequence[str], window_words: int
) -> list[PunctLabel]:
    """Label ``words`` in calls of at most min(window_words, classifier limit) words."""
    if not words:
        raise EmptyStreamError("cannot classify an empty document")
    require_int("window_words", window_words)
    if window_words < 1:
        raise OutOfRangeError(f"window_words {window_words} must be at least 1")
    limit, _ = _capabilities(classifier)
    calls = _announced_calls(classifier, [Window(0, words)], len(words), window_words, limit)
    return [label for at, chunk in calls for label in _classify(classifier, chunk, at)]


def _capabilities(classifier: Classifier) -> tuple[int | None, int | None]:
    """The classifier's ``max_window_words`` and ``context_words``.

    Each must be ``None`` (or absent) or an int of at least 1; anything
    else raises ConfigError, before any call.
    """
    limit = getattr(classifier, "max_window_words", None)
    k = getattr(classifier, "context_words", None)
    for name, value in (("max_window_words", limit), ("context_words", k)):
        if value is not None and (type(value) is not int or value < 1):
            raise ConfigError(
                f"classifier {name} must be None or an int of at least 1, not {value!r}"
            )
    return limit, k


def _announced_calls(
    classifier: Classifier, wins: Iterable[Window], width: int, window_words: int,
    limit: int | None,
) -> Iterable[Window]:
    """The calls that label ``wins``, windows of ``width`` words, in order.

    Each call is at most min(window_words, ``limit``) words.  A classifier
    that can ``expect`` is told every call's words in order before the
    first, as an iterable it reads as far ahead as it needs.
    """
    size = window_words if limit is None else min(window_words, limit)
    calls = wins
    if width > size:
        calls = (
            Window(s + off, words[off : off + size])
            for s, words in wins
            for off in range(0, len(words), size)
        )
    expect = getattr(classifier, "expect", None)
    if expect is not None:
        calls, announced = tee(calls)
        expect(chunk for _, chunk in announced)
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


class SettledVotes(NamedTuple):
    """The votes of :func:`accumulate_votes` with ``settle=True``.

    ``rows[p]`` is word ``p``'s vote row.  The words of the settled
    stretch ``[a, a + len(labels))`` carry their interior labels and
    share one row object, which takes whatever edge votes overlap the
    stretch and which nothing reads.
    """

    rows: list[list[int]]
    a: int
    labels: list[PunctLabel]


def accumulate_votes(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig, *,
    settle: bool = False,
) -> list[list[int]] | SettledVotes:
    """Tally one vote per covered word for every window.

    The table holds one row per word: ``N_LABELS`` vote counts, the
    label axis in tie order (``LABELS``), so a row sums to the number of
    windows covering its word.  When the stream has more than one window
    and the classifier declares ``context_words = k`` with ``2k < W`` and
    accepts whole windows, the votes come from
    :func:`_shared_interior_votes`, which announces no call.  Otherwise
    every window is classified in full, its calls announced as they are
    cut.  The table is the same either way: the exact votes, which hold
    at every theta, as a sweep needs.

    With ``settle=True`` the votes are :class:`SettledVotes`.  On the
    ``context_words`` path only, each word of the stretch
    :func:`_settled_stretch` finds at ``cfg`` carries its interior label
    and the stretch's one shared row, and an edge slice is classified
    only when it holds a word outside that stretch, whose rows are exact.
    :func:`decide` at ``cfg`` gives every word the label it gives the
    exact table; at another theta or pooling it may not.
    """
    wins = windows(stream, cfg)
    limit, k = _capabilities(classifier)
    n, w = len(stream), cfg.window_words
    shared = len(wins) > 1 and k and 2 * k < w and (limit is None or limit >= w)
    a, b = _settled_stretch(n, wins.starts, w, k, cfg) if shared and settle else (0, 0)
    # The settled words share settled_row; every other row is a copy of it, made before
    # any vote and at C speed (a generator slows short streams).
    settled_row = [0] * N_LABELS
    rows = [*map(list.copy, repeat(settled_row, a)), *repeat(settled_row, b - a)]
    rows += map(list.copy, repeat(settled_row, n - b))
    labels = [PunctLabel.NONE] * (b - a)
    if shared:
        _shared_interior_votes(rows, labels, wins.stream, wins.starts, classifier, w, k, a, b)
    else:
        for at, chunk in _announced_calls(classifier, wins, min(n, w), w, limit):
            _vote(rows, at, _classify(classifier, chunk, at))
    return SettledVotes(rows, a, labels) if settle else rows


def _vote(rows: list[list[int]], start: int, labels: Sequence[PunctLabel]) -> None:
    """Count one vote per label, the first for word ``start``."""
    for i, label in enumerate(labels, start):
        rows[i][label.index] += 1


#: How far below theta the ratio ``m / c`` of a word's ``m`` mark votes
#: (all but NONE) of ``c`` must lie in pooled mode for no mark to pass.
#: The pooled test sums up to ``N_LABELS - 1`` rounded ratios of those
#: votes, which total at most ``m / c``; in doubles that sum exceeds the
#: rounded ``m / c`` by less than 1e-15, so ``m / c <= theta - margin``
#: keeps it at or below theta.  A settled word's edge votes
#: (:func:`_settled_stretch`) and every row :func:`decide` skips are held
#: to this bound.
_POOLED_MARGIN = 1e-9


def _mark_theta(cfg: SegmenterConfig) -> float:
    """The bound a word's mark ratio ``m / c`` must not exceed for every mark to fail theta.

    Division rounds monotonically, so each mark's own ratio is at most
    ``m / c`` and fails a theta of at least ``m / c``; in pooled mode the
    summed segmenting ratios also need :data:`_POOLED_MARGIN`.
    """
    return cfg.theta - (_POOLED_MARGIN if cfg.pooling == "pooled" else 0.0)


def _settled_stretch(
    n: int, starts: range, w: int, k: int, cfg: SegmenterConfig
) -> tuple[int, int]:
    """The stretch ``[a, b)`` of settled words around the middle of an ``n``-word stream.

    A word covered by ``c`` of the ``w``-word windows at ``starts``, ``h``
    of them holding it in their interior (``k`` or more words from either
    edge), takes ``h`` votes for its interior label and ``e = c - h``
    from edges.  It is *settled* when ``e / c <= theta`` and ``h / c >
    theta``, divided in floats as :func:`decide` divides.  Then its
    interior label has at least ``h > e`` votes and passes theta, and no
    other label, nor in pooled mode the summed segmenting labels that are
    not it, can pass (the pooled test asks ``e / c <= theta -
    _POOLED_MARGIN``).  So ``decide`` gives it its interior label, which
    the word can carry in place of a row of its own (:class:`SettledVotes`).

    The stretch grows word by word from the middle word, and is ``(0,
    0)`` when that word is not settled.  Two runs of words need not be
    tested one by one: those in ``[w-1, last]``, which all settle when
    one ``step`` of them does, since a word has the ``c`` and ``h`` of
    the word ``step`` on; and those that every window holds in its
    interior (``e = 0``).  At stride 1, once the middle word settles, the
    stretch holds every settled word; otherwise settled words outside it
    keep their exact rows.  At ``W = 200``, ``k = 4`` and theta 0.1 the
    stretch leaves 39 words unsettled at each end of a long stream.
    """
    last, step = starts[-1], starts.step
    theta = cfg.theta
    edge_theta = _mark_theta(cfg)

    def settled(p: int) -> bool:
        c = _starts_holding(p, 0, w, last, step)
        h = _starts_holding(p, k, w, last, step)
        return h > 0 and (c - h) / c <= edge_theta and h / c > theta

    a = n // 2
    if not settled(a):
        return 0, 0
    b = a + 1
    if w - 1 <= a <= last and all(map(settled, range(w - 1, min(w - 1 + step, last + 1)))):
        a, b = w - 1, last + 1
    elif last + k <= a < w - k:
        a, b = last + k, w - k
    while a > 0 and settled(a - 1):
        a -= 1
    while b < n and settled(b):
        b += 1
    return a, b


def _starts_holding(p: int, j: int, w: int, last: int, step: int) -> int:
    """The window starts ``t`` in ``[0, last]``, multiples of ``step``, with
    ``t + j <= p < t + w - j``: those covering word ``p`` at ``j = 0``, those
    holding it in their interior at ``j = k``."""
    return min(last, p - j) // step - max(-1, p - w + j) // step


def _held(lo: int, hi: int, j: int, w: int, last: int, step: int) -> Iterator[int]:
    """:func:`_starts_holding` for each word of ``[lo, hi)``.

    From ``w - 1 - j`` to ``last + j`` neither bound binds, so there a
    word has the count of the word ``step`` on, and one step of counts
    is repeated.
    """
    count = partial(_starts_holding, j=j, w=w, last=last, step=step)
    mid_lo = min(hi, max(lo, w - 1 - j))
    mid_hi = max(mid_lo, min(hi, last + j + 1))
    return chain(
        map(count, range(lo, mid_lo)),
        islice(cycle(map(count, range(mid_lo, mid_lo + step))), mid_hi - mid_lo),
        map(count, range(mid_hi, hi)),
    )


def _shared_interior_votes(
    rows: list[list[int]], settled: list[PunctLabel], stream: list[str], starts: range,
    classifier: Classifier, w: int, k: int, a: int, b: int,
) -> None:
    """Vote the ``w``-word windows at ``starts``, classifying their interiors only where needed.

    Each window's first ``k`` labels come from classifying its first
    ``2k`` words, and its last ``k`` from its last ``2k``.  The interior
    ``[s+k, s+w-k)`` of a window starting at ``s`` gets the labels any
    other window gives those words there, so walking left to right, a
    window is classified in full only when the next window's interior
    misses a word of its own that no earlier full window labelled.  Every
    window votes its head and tail; a full window also votes the interior
    label of each word it labels first, once, weighted by the number of
    window starts whose interior holds that word.  The tail call of a
    window at ``s`` classifies the same ``2k`` words as the head call of
    a window at ``s+w-2k``, so its labels wait in a FIFO and serve that
    head when the walk reaches it; entries the walk passes are dropped,
    so at most ``(w-2k)/step + 1`` are live.  Every call's words are
    sliced from the stream as the call is made.

    The words of the settled stretch ``[a, b)`` (see
    :func:`_settled_stretch`; empty for the exact votes) take no interior
    vote: ``settled`` holds, for each of them, the interior label of the
    full window that labels it first.  ``rows[p]`` is word ``p``'s row;
    the words of ``[a, b)`` share one, so the edge votes that land there
    cost nothing and are never read.  An edge slice whose voting words
    all lie in ``[a, b)`` is not classified, and the walk skips the
    windows that would classify nothing.
    """
    known = 0  # every word before this one has had its interior votes cast
    last, step = starts[-1], starts.step
    tails: deque[tuple[int, list[PunctLabel]]] = deque()  # (start, labels) of tail calls
    s = 0
    while True:
        while tails and tails[0][0] < s:
            tails.popleft()
        first_unknown = max(known, s + k)
        stop = s + w - k
        next_inner = s + step + k if s < last else len(stream)
        head = tail = None
        if next_inner > first_unknown:
            head = _classify(classifier, stream[s : s + w], s)
            tail = head[w - 2 * k :]
            lo, hi = max(first_unknown, a), min(stop, b)
            if lo < hi:
                settled[lo - a : hi - a] = head[lo - s : hi - s]
            for lo, hi in ((first_unknown, min(stop, a)), (max(first_unknown, b), stop)):
                labels = head[lo - s : hi - s]
                weights = _held(lo, hi, k, w, last, step)
                for i, label, held in zip(range(lo, hi), labels, weights):
                    rows[i][label.index] += held
            known = stop
        else:
            if s < a or s + k > b:
                if tails and tails[0][0] == s:
                    head = tails.popleft()[1]
                else:
                    head = _classify(classifier, stream[s : s + 2 * k], s)
            if stop < a or s + w > b:
                tail = _classify(classifier, stream[stop - k : s + w], stop - k)
                tails.append((stop - k, tail))
        if head is not None:
            _vote(rows, s, head[:k])
        if tail is not None:
            _vote(rows, stop, tail[k:])
        if s == last:
            return
        s += step
        if a <= s <= b - w:
            # Until the next full window, or the first tail that reaches past b,
            # every head and tail holds only settled words: skip those windows.
            s = max(s, min(last, known - step - k + 1, b - w + 1))
            s = -(-s // step) * step


def decide(
    votes: list[list[int]] | SettledVotes, cfg: SegmenterConfig
) -> tuple[list[PunctLabel], set[int]]:
    """Apply the threshold to the votes of :func:`accumulate_votes`.

    per_class mode accepts, per word, the highest-ratio label whose ratio
    strictly exceeds theta (ties broken by the global label order).
    pooled mode first tests the summed ratio of the segmenting set; when
    it exceeds theta the best segmenting label wins, otherwise the word is
    decided per-class over the non-segmenting labels only.  A word covered
    by no window stays NONE, and so does a word with no vote but NONE.
    A settled word of :class:`SettledVotes` keeps the label it carries
    and is a boundary when that label segments; its shared row is not
    read.  A plain row list has no settled word.

    A row whose ``m`` mark votes (all but NONE) of ``c`` give ``m / c`` at
    or below theta (less :data:`_POOLED_MARGIN` in pooled mode, see
    :func:`_mark_theta`) stays NONE untested: no mark's ratio, nor the
    pooled sum, can pass.  Far from a stream's ends, a word whose interior
    label is NONE takes mark votes only from window edges, at most ``2k``
    of ``W`` for a classifier of ``context_words = k``, so at ``W = 200``,
    ``k = 4`` and theta 0.1 its row is skipped.
    """
    rows, a, settled = votes if isinstance(votes, SettledVotes) else (votes, 0, ())
    seg_idx = sorted(label.index for label in cfg.segmenters)
    seg_set = set(seg_idx)
    pooled = cfg.pooling == "pooled"
    candidates = [c for c in range(1, N_LABELS) if not (pooled and c in seg_set)]
    theta = cfg.theta
    mark_theta = _mark_theta(cfg)
    b = a + len(settled)
    labels = [PunctLabel.NONE] * len(rows)
    labels[a:b] = settled
    boundaries = {
        i for i, label in enumerate(settled, a) if label.index in seg_set
    } if settled else set()
    for i in chain(range(a), range(b, len(rows))):  # the rows of [a, b) are never read
        row = rows[i]
        cov = sum(row)
        marks = cov - row[0]
        if not marks or marks / cov <= mark_theta:  # no mark can pass theta: NONE
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
        labels[i] = LABELS[best]
        if best in seg_set:
            boundaries.add(i)
    return labels, boundaries


#: The text that follows a word, by its label's index: NONE adds nothing.
_MARKS: tuple[str, ...] = tuple(
    "" if label is PunctLabel.NONE else label.char for label in LABELS
)


@dataclass
class SegmentedText:
    """Final labels plus the boundary cut points over the original stream."""

    words: list[str]
    labels: list[PunctLabel]
    boundaries: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        """One segment per line; accepted marks attach to their word without a space."""
        marks = _MARKS  # a local: reading a global per word costs more
        ends = {*self.boundaries, len(self.words) - 1}
        return "".join([
            word + marks[label.index] + ("\n" if i in ends else " ")
            for i, (word, label) in enumerate(zip(self.words, self.labels))
        ])


def segment(
    stream: Sequence[str], classifier: Classifier, cfg: SegmenterConfig
) -> SegmentedText:
    """Window, vote, threshold; cut after every accepted segmenting label.

    The votes are settled at ``cfg`` (see :func:`accumulate_votes`), so a
    classifier that declares ``context_words`` labels mainly full windows,
    and a settled word carries its interior label in place of a vote row
    of its own; the labels and boundaries are those of the exact votes.
    """
    votes = accumulate_votes(stream, classifier, cfg, settle=True)
    labels, boundaries = decide(votes, cfg)
    return SegmentedText(list(stream), labels, sorted(boundaries))
