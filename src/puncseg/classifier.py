"""Per-token punctuation classifiers.

A classifier maps a window of words to one label per word, is
deterministic, and may advertise ``max_window_words`` as the largest call
it accepts (``None`` means unlimited), ``context_words`` as the reach
of its predictions, and ``expect`` to hear of its next windows early
(see :class:`Classifier`).  This module ships a trainable
averaged-perceptron reference model, a replay classifier that serves
pre-recorded labels, and binary model persistence.  The subprocess
adapter for external models lives in :mod:`puncseg.external`.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
import zlib
from collections import Counter
from typing import Iterable, Protocol, Sequence

from .errors import (
    BadMagicError,
    CorruptModelError,
    EmptyTrainingSetError,
    EmptyWindowError,
    LengthMismatchError,
    OutOfRangeError,
    VersionMismatchError,
    require_int,
)
from .sepp import PunctLabel, SeppDocument, atomic_write

LABELS: tuple[PunctLabel, ...] = tuple(PunctLabel)
N_LABELS = len(LABELS)

#: Hashed feature buckets; fixed so saved models are portable.
FEATURE_SPACE = 1 << 20
TEMPLATE_VERSION = 1

#: Entries a LinearModel label cache holds before it is emptied.  Exact
#: sliding-window votes score about 7 contexts per window word, and
#: ``segment``, which settles the words far from a stream's ends, about
#: one; either way a clear costs at most one window of re-scoring.
_LABEL_CACHE_MAX = 1 << 16

_BOS = "<s>"
_EOS = "</s>"


class Classifier(Protocol):
    """Contract every classifier implementation honors.

    Optional capabilities are attributes the segmenter probes with
    ``getattr``.  ``max_window_words`` is the largest call the classifier
    accepts; ``None`` or no such attribute means unlimited.

    ``context_words = k`` (a positive int) promises that the label at
    offset ``j`` of a ``w``-word window depends only on
    ``window[j-k : j+k+1]``, ``min(j, k)`` and ``min(w-1-j, k)``.  The
    segmenter then classifies only the ``2k``-word edges of most windows,
    each edge slice once although it is the tail of one window and the
    head of another, and shares the labels of their interiors; a wrong
    declaration gives wrong votes.  Either capability, when present and
    not ``None``, must be an int of at least 1, or the segmenter raises
    ConfigError before any call.

    ``expect(windows)`` is a method taking an iterable of windows: the
    next ``classify`` calls will be for these windows, in this order.  The
    segmenter announces its calls this way before it classifies every
    window in full, so a classifier can start on later windows early; the
    iterable may be lazy, and the external adapter reads it only as far as
    the requests it keeps in flight, at most 8 windows ahead.  ``classify``
    stays the only call that labels, and a call for another window must
    still be answered correctly.
    """

    name: str

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        """Return exactly one label per window word; deterministic."""
        ...


def _shape(word: str) -> str:
    out: list[str] = []
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


def _hash(feature: str) -> int:
    # CRC32 keeps hashed models identical across runs and platforms.
    return zlib.crc32(feature.encode("utf-8")) & (FEATURE_SPACE - 1)


#: Words ``_word_ids`` holds before its memo is emptied.  Ids depend on the
#: word alone, so one memo serves every model and training, and no result
#: depends on what it holds.  A full memo takes about 18 MiB (290 bytes a
#: word) besides the words themselves.  Each LinearModel's word -> rows
#: memo has the same bound.
_WORD_IDS_MAX = 1 << 16
_WORD_IDS: dict[str, tuple[int, ...]] = {}


def _word_ids(word: str) -> tuple[int, ...]:
    """The ``w=``, ``p=``, ``n=``, ``nn=``, ``l=`` and ``s=`` feature ids of ``word``."""
    ids = _WORD_IDS.get(word)
    if ids is None:
        if len(_WORD_IDS) >= _WORD_IDS_MAX:
            _WORD_IDS.clear()
        ids = _WORD_IDS[word] = (
            _hash("w=" + word),
            _hash("p=" + word),
            _hash("n=" + word),
            _hash("nn=" + word),
            _hash("l=" + word.lower()),
            _hash("s=" + _shape(word)),
        )
    return ids


_BUCKETS = ("0", "1", "2", "3", "4+")
_BUCKET_IDS = {bucket: _hash("b=" + bucket) for bucket in _BUCKETS}
_LAST_IDS = (_hash("last=0"), _hash("last=1"))


def _context_ids(
    prev: str, cur: str, nxt: str, nxt2: str, bucket: str, is_last: bool
) -> tuple[int, ...]:
    """The 8 feature ids of a context, in the order ``w, p, n, nn, l, s, b, last``.

    Scoring adds weight rows in this order, so it is part of
    ``TEMPLATE_VERSION`` like the feature strings themselves.
    """
    w, _, _, _, lower, shape = _word_ids(cur)
    return (
        w,
        _word_ids(prev)[1],
        _word_ids(nxt)[2],
        _word_ids(nxt2)[3],
        lower,
        shape,
        _BUCKET_IDS[bucket],
        _LAST_IDS[is_last],
    )


def _window_keys(window: Sequence[str]) -> list[tuple[str, str, str, str, str, bool]]:
    """The (prev, cur, nxt, nxt2, bucket, is_last) context of every window position.

    A prediction depends on nothing else, so the key also indexes the label cache.
    """
    n = len(window)
    padded = [_BOS, *window, _EOS, _EOS]
    buckets = itertools.chain(_BUCKETS[:-1], itertools.repeat(_BUCKETS[-1]))
    is_last = itertools.chain(itertools.repeat(False, n - 1), (True,))
    return list(zip(padded, window, padded[2:], padded[3:], buckets, is_last))


_ZERO_ROW = (0.0,) * N_LABELS


def _scores(weights: dict[int, Sequence[float]], ids: Iterable[int]) -> list[float]:
    """Per-label sum of the weight rows of ``ids``, added in ``ids`` order.

    Training scores its examples here; ``LinearModel.classify`` adds the
    same rows in the same order inline.  An id with no row adds nothing.
    One float local per label of the six-label alphabet: each starts at
    0.0 and adds its label's rows left to right.  ``sum()`` would differ
    in the last bits, as it compensates from CPython 3.12.
    """
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for r0, r1, r2, r3, r4, r5 in filter(None, map(weights.get, ids)):
        s0 += r0
        s1 += r1
        s2 += r2
        s3 += r3
        s4 += r4
        s5 += r5
    return [s0, s1, s2, s3, s4, s5]


class LinearModel:
    """Averaged linear per-token classifier over hashed features.

    Instances are immutable once built; a bounded context -> label cache
    makes repeated sliding-window calls cheap.  A context the cache
    misses is scored from the weight rows of its words, which a second
    bounded memo keeps per word: the rows of the word's six feature ids,
    ``_ZERO_ROW`` where the model has no row, so each word's ids are
    hashed and looked up once.  ``classify`` walks the call's contexts in
    one loop: a hit appends its cached label, the call's first miss
    fetches the rows of every window word (a call that only hits fetches
    none), and each missed context adds its eight rows label by label in
    ``_context_ids`` order.  A zero row in place of an absent one, like a
    sum that starts at the first row instead of at 0.0, can change a score
    only in the sign of a zero, which no comparison sees: the labels are
    those of adding the present rows alone.  Each weight row is a tuple of
    floats, which the cyclic garbage collector stops tracking, so a
    model's rows neither add to a full collection's work nor bring one on
    sooner.  A label reads words ``j-1 .. j+2``, the offset bucket capped
    at 4 and ``is_last``, so four words of context on each side decide it.
    """

    name = "linear"
    context_words = 4

    def __init__(self, weights: dict[int, tuple[float, ...]], seed: int = 0, epochs: int = 0):
        self.weights = weights
        self.seed = seed
        self.epochs = epochs
        self._label_cache: dict[tuple, int] = {}
        self._word_rows: dict[str, tuple] = {}
        self._bucket_rows = {b: weights.get(fid, _ZERO_ROW) for b, fid in _BUCKET_IDS.items()}
        self._last_rows = tuple(weights.get(fid, _ZERO_ROW) for fid in _LAST_IDS)

    def _rows(self, word: str) -> tuple:
        """The weight rows of ``word``'s ``w, p, n, nn, l, s`` ids, ``_ZERO_ROW`` for none."""
        rows = self._word_rows.get(word)
        if rows is None:
            if len(self._word_rows) >= _WORD_IDS_MAX:
                self._word_rows.clear()
            get = self.weights.get
            rows = self._word_rows[word] = tuple([get(fid, _ZERO_ROW) for fid in _word_ids(word)])
        return rows

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        if not window:
            raise EmptyWindowError("classify needs at least one word")
        cache = self._label_cache
        padded = None
        out: list[PunctLabel] = []
        for key in _window_keys(window):
            idx = cache.get(key)
            if idx is None:
                j = len(out)  # the key's window position
                if padded is None:
                    # the first miss: fetch each window word's rows once, padded like the keys
                    rows = self._rows
                    end = rows(_EOS)
                    padded = [rows(_BOS), *map(rows, window), end, end]
                    bucket_rows = self._bucket_rows
                    last_rows = self._last_rows
                if len(cache) >= _LABEL_CACHE_MAX:
                    cache.clear()
                # the rows of _context_ids(*key), in its order, one float local per label
                w, _, _, _, l, s = padded[j + 1]
                w0, w1, w2, w3, w4, w5 = w
                p0, p1, p2, p3, p4, p5 = padded[j][1]
                n0, n1, n2, n3, n4, n5 = padded[j + 2][2]
                nn0, nn1, nn2, nn3, nn4, nn5 = padded[j + 3][3]
                l0, l1, l2, l3, l4, l5 = l
                s0, s1, s2, s3, s4, s5 = s
                b0, b1, b2, b3, b4, b5 = bucket_rows[key[4]]
                last0, last1, last2, last3, last4, last5 = last_rows[key[5]]
                a0 = w0 + p0 + n0 + nn0 + l0 + s0 + b0 + last0
                a1 = w1 + p1 + n1 + nn1 + l1 + s1 + b1 + last1
                a2 = w2 + p2 + n2 + nn2 + l2 + s2 + b2 + last2
                a3 = w3 + p3 + n3 + nn3 + l3 + s3 + b3 + last3
                a4 = w4 + p4 + n4 + nn4 + l4 + s4 + b4 + last4
                a5 = w5 + p5 + n5 + nn5 + l5 + s5 + b5 + last5
                # the first maximum: a later label must score strictly higher
                idx = 0
                if a1 > a0:
                    a0 = a1
                    idx = 1
                if a2 > a0:
                    a0 = a2
                    idx = 2
                if a3 > a0:
                    a0 = a3
                    idx = 3
                if a4 > a0:
                    a0 = a4
                    idx = 4
                if a5 > a0:
                    idx = 5
                cache[key] = idx
            out.append(LABELS[idx])
        return out


def _pooled_examples(
    documents: Iterable[SeppDocument], window_words: int
) -> tuple[list[tuple[tuple[int, ...], int]], list[int]]:
    """The distinct (feature ids, gold) examples in sorted order, and how often each occurs.

    Documents are chunked into consecutive windows of at most
    ``window_words`` words, each position one example.  Equal examples are
    counted, not kept: each distinct context is hashed once, and contexts
    whose feature ids coincide pool their counts.  Sorting makes training
    independent of document concatenation order.
    """
    seen: Counter[tuple[tuple, int]] = Counter()
    for doc in documents:
        words = [t.word for t in doc.tokens]
        golds = [t.label.index for t in doc.tokens]
        for start in range(0, len(words), window_words):
            keys = _window_keys(words[start : start + window_words])
            seen.update(zip(keys, golds[start : start + window_words]))
    ids = {key: _context_ids(*key) for key in {key for key, _ in seen}}
    pooled: Counter[tuple[tuple[int, ...], int]] = Counter()
    for (key, gold), count in seen.items():
        pooled[ids[key], gold] += count
    examples = sorted(pooled)
    return examples, [pooled[example] for example in examples]


def train_reference(
    train: list[SeppDocument],
    epochs: int,
    seed: int,
    *,
    window_words: int = 200,
) -> LinearModel:
    """Train the averaged perceptron on per-token decisions.

    Examples are pooled over all documents (equal ones counted, see
    :func:`_pooled_examples`), shuffled once per epoch with the seeded
    RNG, and the returned weights are the average over every training
    step.  Each update of ``delta`` (+1 or -1) at step ``t`` also adds
    ``delta * (t - 1)`` to the weight's int offset, so after ``T`` steps
    ``weight * T - offset`` is the weight summed over every step, an exact
    int, and the average is that int divided by ``T`` once, correctly
    rounded.  Updates fire whenever the gold label fails to strictly
    outscore every other label (the zero-margin variant), which keeps the
    averaged weights from drifting on ties.  Weights change only in an
    update, so an example scored correct, or one equal to it, is not
    scored again until the next update, and the epochs after one without a
    mistake are not run: every skipped step still counts toward the
    average, and the weights equal those of scoring every step.  ``epochs``,
    ``seed`` and ``window_words`` must be ints (ConfigError otherwise).
    The model file stores ``seed`` as int64 and ``epochs`` as uint32, so
    values outside those ranges raise ``OutOfRangeError``.  Both checks
    come before any work.
    """
    require_int("epochs", epochs)
    require_int("seed", seed)
    require_int("window_words", window_words)
    if not -(2**63) <= seed < 2**63:
        raise OutOfRangeError(f"seed {seed} does not fit a signed 64-bit integer")
    if not 0 <= epochs < 2**32:
        raise OutOfRangeError(f"epochs {epochs} must lie in [0, 2**32 - 1]")
    if window_words < 1:
        raise OutOfRangeError(f"window_words {window_words} must be at least 1")
    distinct, counts = _pooled_examples(train, window_words)
    if not distinct:
        raise EmptyTrainingSetError("no training tokens")

    weights: dict[int, list[float]] = {}
    offsets: dict[int, list[int]] = {}

    def update(fid: int, c: int, delta: int, step: int) -> None:
        row = weights.get(fid)
        if row is None:
            row = weights[fid] = [0.0] * N_LABELS
            offsets[fid] = [0] * N_LABELS
        row[c] += delta
        offsets[fid][c] += delta * (step - 1)

    # Each distinct example is one slot, and ``order`` holds the slot of
    # every example of the sorted pool: each slot ``count`` times, in turn.
    # A shuffle moves positions whatever they hold, so it permutes the slots
    # exactly as it would the example indices.
    order = [slot for slot, count in enumerate(counts) for _ in range(count)]
    # clean_at[slot] == updates: the slot scored correct and no update has
    # come since, so the unchanged weights would score it correct again
    clean_at = [-1] * len(distinct)
    updates = 0
    settled = -1
    beaten = -math.inf
    rng = random.Random(seed)
    for epoch in range(epochs):
        if updates == settled:
            break  # the last epoch made no mistake: every slot stays clean
        settled = updates
        rng.shuffle(order)
        for step, slot in enumerate(order, epoch * len(order) + 1):
            if clean_at[slot] == updates:
                continue
            ids, gold = distinct[slot]
            scores = _scores(weights, ids)
            # the rival is the first label but gold with the top score; the
            # weights are whole numbers, so no score is NaN
            score = scores[gold]
            scores[gold] = beaten
            top = max(scores)
            if score <= top:
                rival = scores.index(top)
                updates += 1
                for fid in ids:
                    update(fid, gold, 1, step)
                    update(fid, rival, -1, step)
            else:
                clean_at[slot] = updates

    steps = epochs * len(order)
    averaged: dict[int, tuple[float, ...]] = {}
    if steps:
        for fid, row in weights.items():
            off = offsets[fid]
            avg = tuple([(int(row[c]) * steps - off[c]) / steps for c in range(N_LABELS)])
            if any(avg):
                averaged[fid] = avg
    return LinearModel(averaged, seed=seed, epochs=epochs)


_MAGIC = b"FSLM"
_FORMAT_VERSION = 1
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_META = struct.Struct("<IIqI")  # feature space, template version, seed, epochs
_TRIPLE = struct.Struct("<IId")  # feature id, label index, weight
#: The label count, then each label's UTF-8 mark behind its byte length.
_LABEL_SECTION = _U32.pack(N_LABELS) + b"".join(
    _U32.pack(len(raw)) + raw for raw in (label.char.encode("utf-8") for label in LABELS)
)


def save_model(model: LinearModel, path) -> None:
    """Write a model file atomically: magic, version, then length-prefixed sections."""
    triples = b"".join(
        _TRIPLE.pack(fid, c, row[c])
        for fid, row in sorted(model.weights.items())
        for c in range(N_LABELS)
        if row[c] != 0.0
    )
    sections = (
        _META.pack(FEATURE_SPACE, TEMPLATE_VERSION, model.seed, model.epochs),
        _LABEL_SECTION,
        _U64.pack(len(triples) // _TRIPLE.size) + triples,
    )
    blob = _MAGIC + _U32.pack(_FORMAT_VERSION) + b"".join(_U32.pack(len(s)) + s for s in sections)
    atomic_write(path, blob)


def load_model(path) -> LinearModel:
    """Read a file written by :func:`save_model`; a defect raises a coded error led by ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise CorruptModelError(f"{path}: file too short for magic header")
    if data[:4] != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}")
    try:
        (version,) = _U32.unpack_from(data, 4)
        if version != _FORMAT_VERSION:
            raise VersionMismatchError(
                f"{path}: model format version {version}, expected {_FORMAT_VERSION}"
            )
        sections = []
        end = 8
        for _ in range(3):
            start = end + _U32.size
            end = start + _U32.unpack_from(data, end)[0]
            if end > len(data):
                raise CorruptModelError(f"{path}: unexpected end of model file")
            sections.append(data[start:end])
        if end != len(data):
            raise CorruptModelError(f"{path}: trailing bytes after final section")
        feature_space, template_version, seed, epochs = _META.unpack(sections[0])
        (n_triples,) = _U64.unpack_from(sections[2])
    except struct.error as exc:
        raise CorruptModelError(f"{path}: malformed model file: {exc}") from None
    if feature_space != FEATURE_SPACE or template_version != TEMPLATE_VERSION:
        raise VersionMismatchError(
            f"{path}: feature space {feature_space}/template {template_version} not supported"
        )
    if sections[1] != _LABEL_SECTION:
        raise CorruptModelError(f"{path}: model label list does not match the known alphabet")
    body = sections[2][_U64.size :]
    if len(body) != n_triples * _TRIPLE.size:
        raise CorruptModelError(
            f"{path}: weight section holds {len(body)} bytes for {n_triples} triples"
        )

    weights: dict[int, tuple[float, ...]] = {}
    open_fid, row = -1, []  # the row being filled: save_model writes a row's triples together
    for fid, c, w in _TRIPLE.iter_unpack(body):
        if fid >= FEATURE_SPACE or c >= N_LABELS:
            raise CorruptModelError(f"{path}: weight triple out of range: ({fid}, {c})")
        if fid != open_fid:
            if row:
                weights[open_fid] = tuple(row)
            open_fid, row = fid, list(weights.get(fid, _ZERO_ROW))
        row[c] = w
    if row:
        weights[open_fid] = tuple(row)
    return LinearModel(weights, seed=seed, epochs=epochs)


class ReplayClassifier:
    """Serves pre-recorded labels for windows of a fixed word stream.

    Windows are located as the first contiguous match inside the recorded
    stream, so sliding windows over the same stream replay exactly.  Each
    distinct word is encoded as a fixed-width id, so a window is found by
    ``bytes.find`` over the encoded stream.
    """

    name = "replay"

    def __init__(self, words: list[str], labels: list[PunctLabel]):
        if len(words) != len(labels):
            raise LengthMismatchError("words and labels must align")
        self.labels = list(labels)
        ids = dict.fromkeys(words)
        self._width = max(1, (len(ids).bit_length() + 7) // 8)
        self._codes = {w: i.to_bytes(self._width, "little") for i, w in enumerate(ids)}
        self._encoded = b"".join(self._codes[w] for w in words)

    @classmethod
    def from_document(cls, doc: SeppDocument) -> "ReplayClassifier":
        return cls([t.word for t in doc.tokens], [t.label for t in doc.tokens])

    def _find(self, window: Sequence[str]) -> int:
        codes = self._codes
        width = self._width
        pos = -1
        if all(w in codes for w in window):
            target = b"".join(codes[w] for w in window)
            pos = self._encoded.find(target)
            # skip matches inside a word's id; test -1 first, as -1 % width != 0
            while pos != -1 and pos % width:
                pos = self._encoded.find(target, pos + width - pos % width)
        if pos == -1:
            raise ValueError("window is not a contiguous part of the replay stream")
        return pos // width

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        if not window:
            raise EmptyWindowError("classify needs at least one word")
        start = self._find(window)
        return self.labels[start : start + len(window)]
