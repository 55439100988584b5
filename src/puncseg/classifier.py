"""Per-token punctuation classifiers.

A classifier maps a window of words to one label per word, is
deterministic, and may advertise ``max_window_words`` as the largest call
it accepts (``None`` means unlimited).  This module ships a trainable
averaged-perceptron reference model, a replay classifier that serves
pre-recorded labels, and binary model persistence.  The subprocess
adapter for external models lives in :mod:`puncseg.external`.
"""

from __future__ import annotations

import itertools
import random
import struct
import zlib
from typing import Iterable, Protocol, Sequence

from .errors import (
    BadMagicError,
    CorruptModelError,
    EmptyTrainingSetError,
    EmptyWindowError,
    VersionMismatchError,
)
from .sepp import PunctLabel, SeppDocument, label_from_char

LABELS: tuple[PunctLabel, ...] = tuple(PunctLabel)
LABEL_INDEX: dict[PunctLabel, int] = {label: i for i, label in enumerate(LABELS)}
N_LABELS = len(LABELS)

#: Hashed feature buckets; fixed so saved models are portable.
FEATURE_SPACE = 1 << 20
TEMPLATE_VERSION = 1

_BOS = "<s>"
_EOS = "</s>"


class Classifier(Protocol):
    """Contract every classifier implementation honors."""

    name: str
    max_window_words: int | None

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


def _context_ids(
    prev: str, cur: str, nxt: str, nxt2: str, bucket: str, is_last: bool
) -> tuple[int, ...]:
    return (
        _hash("w=" + cur),
        _hash("p=" + prev),
        _hash("n=" + nxt),
        _hash("nn=" + nxt2),
        _hash("l=" + cur.lower()),
        _hash("s=" + _shape(cur)),
        _hash("b=" + bucket),
        _hash("last=" + ("1" if is_last else "0")),
    )


def _window_keys(window: Sequence[str]) -> list[tuple[str, str, str, str, str, bool]]:
    """The (prev, cur, nxt, nxt2, bucket, is_last) context of every window position.

    A prediction depends on nothing else, so the key also indexes the label cache.
    """
    n = len(window)
    padded = [_BOS, *window, _EOS, _EOS]
    buckets = itertools.chain(("0", "1", "2", "3"), itertools.repeat("4+"))
    is_last = itertools.chain(itertools.repeat(False, n - 1), (True,))
    return list(zip(padded, window, padded[2:], padded[3:], buckets, is_last))


def _scores(weights: dict[int, list[float]], ids: Iterable[int]) -> list[float]:
    """Per-label sum of the weight rows of ``ids``, added in ``ids`` order."""
    scores = [0.0] * N_LABELS
    for fid in ids:
        row = weights.get(fid)
        if row is not None:
            for c in range(N_LABELS):
                scores[c] += row[c]
    return scores


class LinearModel:
    """Averaged linear per-token classifier over hashed features.

    Instances are immutable once built; a context -> label cache makes
    repeated sliding-window calls cheap.
    """

    name = "linear"
    max_window_words: int | None = None

    def __init__(self, weights: dict[int, list[float]], seed: int = 0, epochs: int = 0):
        self.weights = weights
        self.seed = seed
        self.epochs = epochs
        self._label_cache: dict[tuple, int] = {}

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        if not window:
            raise EmptyWindowError("classify needs at least one word")
        cache = self._label_cache
        out: list[PunctLabel] = []
        for key in _window_keys(window):
            idx = cache.get(key)
            if idx is None:
                scores = _scores(self.weights, _context_ids(*key))
                # the first maximum: ties go to the earlier label
                idx = cache[key] = scores.index(max(scores))
            out.append(LABELS[idx])
        return out


def _pooled_examples(
    documents: Iterable[SeppDocument], window_words: int
) -> list[tuple[tuple[int, ...], int]]:
    """One (feature ids, gold) example per token, in a canonical order.

    Documents are chunked into consecutive windows of at most
    ``window_words`` words; sorting the pooled examples makes training
    independent of document concatenation order.
    """
    examples: list[tuple[tuple[int, ...], int]] = []
    for doc in documents:
        words = [t.word for t in doc.tokens]
        golds = [LABEL_INDEX[t.label] for t in doc.tokens]
        for start in range(0, len(words), window_words):
            keys = _window_keys(words[start : start + window_words])
            for i, key in enumerate(keys, start):
                examples.append((_context_ids(*key), golds[i]))
    examples.sort()
    return examples


def train_reference(
    train: list[SeppDocument],
    epochs: int,
    seed: int,
    *,
    window_words: int = 200,
) -> LinearModel:
    """Train the averaged perceptron on per-token decisions.

    Examples are pooled over all documents, shuffled once per epoch with
    the seeded RNG, and the returned weights are the running average over
    every training step.  Updates fire whenever the gold label fails to
    strictly outscore every other label (the zero-margin variant), which
    keeps the averaged weights from drifting on ties.
    """
    examples = _pooled_examples(train, window_words)
    if not examples:
        raise EmptyTrainingSetError("no training tokens")

    weights: dict[int, list[float]] = {}
    totals: dict[int, list[float]] = {}
    stamps: dict[int, list[int]] = {}

    def update(fid: int, c: int, delta: float, step: int) -> None:
        row = weights.get(fid)
        if row is None:
            row = weights[fid] = [0.0] * N_LABELS
            totals[fid] = [0.0] * N_LABELS
            stamps[fid] = [0] * N_LABELS
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
            scores = _scores(weights, ids)
            rival = 0 if gold != 0 else 1
            for c in range(N_LABELS):
                if c != gold and scores[c] > scores[rival]:
                    rival = c
            if scores[gold] <= scores[rival]:
                for fid in ids:
                    update(fid, gold, 1.0, step)
                    update(fid, rival, -1.0, step)

    averaged: dict[int, list[float]] = {}
    if step:
        for fid, row in weights.items():
            tot = totals[fid]
            st = stamps[fid]
            avg = [(tot[c] + row[c] * (step - st[c])) / step for c in range(N_LABELS)]
            if any(avg):
                averaged[fid] = avg
    return LinearModel(averaged, seed=seed, epochs=epochs)


_MAGIC = b"FSLM"
_FORMAT_VERSION = 1


def _section(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CorruptModelError("unexpected end of model file")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save_model(model: LinearModel, path) -> None:
    """Write a model file: magic, version, then length-prefixed sections."""
    meta = struct.pack("<IIqI", FEATURE_SPACE, TEMPLATE_VERSION, model.seed, model.epochs)

    label_parts = [struct.pack("<I", len(LABELS))]
    for label in LABELS:
        raw = label.char.encode("utf-8")
        label_parts.append(struct.pack("<I", len(raw)) + raw)

    triples = [
        (fid, c, row[c])
        for fid, row in sorted(model.weights.items())
        for c in range(N_LABELS)
        if row[c] != 0.0
    ]
    weight_parts = [struct.pack("<Q", len(triples))]
    weight_parts.extend(struct.pack("<IId", fid, c, w) for fid, c, w in triples)

    blob = (
        _MAGIC
        + struct.pack("<I", _FORMAT_VERSION)
        + _section(meta)
        + _section(b"".join(label_parts))
        + _section(b"".join(weight_parts))
    )
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path) -> LinearModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise CorruptModelError("file too short for magic header")
    if data[:4] != _MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    reader = _Reader(data, 4)
    (version,) = reader.unpack("<I")
    if version != _FORMAT_VERSION:
        raise VersionMismatchError(f"model format version {version}, expected {_FORMAT_VERSION}")

    (meta_len,) = reader.unpack("<I")
    meta = _Reader(reader.take(meta_len), 0)
    feature_space, template_version, seed, epochs = meta.unpack("<IIqI")
    if feature_space != FEATURE_SPACE or template_version != TEMPLATE_VERSION:
        raise VersionMismatchError(
            f"feature space {feature_space}/template {template_version} not supported"
        )

    (labels_len,) = reader.unpack("<I")
    labels_reader = _Reader(reader.take(labels_len), 0)
    (n_labels,) = labels_reader.unpack("<I")
    labels: list[PunctLabel] = []
    for _ in range(n_labels):
        (raw_len,) = labels_reader.unpack("<I")
        ch = labels_reader.take(raw_len).decode("utf-8")
        try:
            labels.append(label_from_char(ch))
        except KeyError:
            raise CorruptModelError(f"unknown label {ch!r} in model file") from None
    if tuple(labels) != LABELS:
        raise CorruptModelError("model label list does not match the known alphabet")

    (weights_len,) = reader.unpack("<I")
    weights_reader = _Reader(reader.take(weights_len), 0)
    (n_triples,) = weights_reader.unpack("<Q")
    weights: dict[int, list[float]] = {}
    for _ in range(n_triples):
        fid, c, w = weights_reader.unpack("<IId")
        if fid >= FEATURE_SPACE or c >= N_LABELS:
            raise CorruptModelError(f"weight triple out of range: ({fid}, {c})")
        row = weights.get(fid)
        if row is None:
            row = weights[fid] = [0.0] * N_LABELS
        row[c] = w
    if reader.offset != len(data):
        raise CorruptModelError("trailing bytes after final section")
    return LinearModel(weights, seed=seed, epochs=epochs)


class ReplayClassifier:
    """Serves pre-recorded labels for windows of a fixed word stream.

    Windows are located as the first contiguous match inside the recorded
    stream, so sliding windows over the same stream replay exactly.
    """

    name = "replay"
    max_window_words: int | None = None

    def __init__(self, words: list[str], labels: list[PunctLabel]):
        if len(words) != len(labels):
            raise ValueError("words and labels must align")
        self.words = list(words)
        self.labels = list(labels)

    @classmethod
    def from_document(cls, doc: SeppDocument) -> "ReplayClassifier":
        return cls([t.word for t in doc.tokens], [t.label for t in doc.tokens])

    def _find(self, window: Sequence[str]) -> int:
        target = list(window)
        n, m = len(self.words), len(target)
        for start in range(n - m + 1):
            if self.words[start : start + m] == target:
                return start
        raise ValueError("window is not a contiguous part of the replay stream")

    def classify(self, window: Sequence[str]) -> list[PunctLabel]:
        if not window:
            raise EmptyWindowError("classify needs at least one word")
        start = self._find(window)
        return self.labels[start : start + len(window)]
