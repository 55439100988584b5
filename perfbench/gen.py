"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
the same documents and corpora.  Two kinds of text are made:

* Zipf streams: words drawn with Zipf-like frequencies from a large fixed
  vocabulary, grouped into sentences whose last word is usually one of a
  few closing words.  Most 4-word contexts in such text are new, so a
  context cache hits rarely.
* Template text: the repetitive, low-vocabulary corpus of the test suite
  (``tests/corpora.py``), rendered back to raw punctuated sentences so the
  full text-preparation chain can run on it.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass

from puncseg.sepp import LabeledToken, PunctLabel, SeppDocument

_ONSETS = ["b", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "dr", "gr", "kl", "kr", "pl", "sch", "sp", "st", "tr", "vl", "zw"]
_VOWELS = ["a", "e", "i", "o", "u", "aa", "ee", "oo", "ie", "ui", "ij", "ou", "eu"]
_CODAS = ["", "", "n", "t", "k", "l", "r", "s", "m", "nd", "rt", "ng"]
_SYLLABLES = [o + v + c for o in _ONSETS for v in _VOWELS for c in _CODAS]

N_CLOSERS = 40
N_QUESTION_WORDS = 8


@dataclass(frozen=True)
class Vocabulary:
    """Zipf-ranked words plus small closing-word and question-word sets."""

    words: tuple[str, ...]
    cum_weights: tuple[float, ...]
    closers: tuple[str, ...]
    question_words: tuple[str, ...]


def make_vocabulary(size: int) -> Vocabulary:
    """``size`` distinct pseudo-words in a fixed Zipf rank order.

    The vocabulary does not depend on the seed, so every seed draws from
    the same word-frequency and word-length distribution.
    """
    rng = random.Random(f"vocab-{size}")
    n_syl = len(_SYLLABLES)
    words: list[str] = []
    for i in range(size + N_CLOSERS + N_QUESTION_WORDS):
        # base-n_syl digits of i+1 give distinct syllable strings
        k, parts = i + 1, []
        while k:
            k, d = divmod(k, n_syl)
            parts.append(_SYLLABLES[d])
        words.append("".join(parts))
    rng.shuffle(words)
    for i in rng.sample(range(size), size // 20):
        words[i] = words[i].capitalize()  # some proper names
    ranked = words[:size]
    weights = itertools.accumulate(1.0 / r for r in range(1, size + 1))
    return Vocabulary(
        words=tuple(ranked),
        cum_weights=tuple(weights),
        closers=tuple(words[size : size + N_CLOSERS]),
        question_words=tuple(words[size + N_CLOSERS :]),
    )


def zipf_tokens(vocab: Vocabulary, n_words: int, rng: random.Random) -> list[LabeledToken]:
    """Labelled sentences of Zipf words, cut to exactly ``n_words`` tokens."""
    tokens: list[LabeledToken] = []
    none = PunctLabel.NONE
    while len(tokens) < n_words:
        length = rng.randint(4, 20)
        body = rng.choices(vocab.words, cum_weights=vocab.cum_weights, k=length)
        question = rng.random() < 0.1
        if question:
            body[0] = rng.choice(vocab.question_words)
        if rng.random() < 0.7:
            body[-1] = rng.choice(vocab.closers)
        for i, word in enumerate(body[:-1]):
            r = rng.random()
            if i and r < 0.08:
                label = PunctLabel.COMMA
            elif i and r < 0.09:
                label = PunctLabel.COLON
            elif i and r < 0.10:
                label = PunctLabel.DASH
            else:
                label = none
            tokens.append(LabeledToken(word, False, label))
        end = PunctLabel.QUESTION if question else PunctLabel.PERIOD
        tokens.append(LabeledToken(body[-1], True, end))
    return tokens[:n_words]


def doc_lengths(n_docs: int, shortest: int, longest: int, long_stream: int) -> list[int]:
    """A fixed length schedule: log-spaced short-to-long documents plus one long stream.

    The schedule does not depend on the seed, so latency percentiles
    compare across seeds; only the words do.
    """
    lengths = [
        round(shortest * (longest / shortest) ** (k / (n_docs - 2))) for k in range(n_docs - 1)
    ]
    return lengths + [long_stream]


def zipf_documents(
    vocab: Vocabulary, lengths: list[int], seed: int
) -> list[list[str]]:
    """One seeded word stream per length, in a fixed order.

    The order does not depend on the seed: the context cache a document
    finds depends on the documents before it, so a seeded order would
    move per-document latency and peak memory from seed to seed.
    """
    order = list(range(len(lengths)))
    random.Random(f"order-{len(lengths)}").shuffle(order)
    rng = random.Random(f"docs-{seed}")
    return [[t.word for t in zipf_tokens(vocab, lengths[k], rng)] for k in order]


def zipf_training_corpus(vocab: Vocabulary, n_words: int, seed: int) -> SeppDocument:
    rng = random.Random(f"train-{seed}")
    return SeppDocument(zipf_tokens(vocab, n_words, rng), source_id=f"zipf-train-{seed}")


def raw_text(doc: SeppDocument) -> str:
    """Render a SEPP document as raw text, one capitalised sentence per line."""
    lines = []
    for sent in doc.sentences():
        parts = []
        for i, tok in enumerate(sent):
            word = tok.word[:1].upper() + tok.word[1:] if i == 0 else tok.word
            parts.append(word if tok.label is PunctLabel.NONE else word + tok.label.char)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


_BOS = "<s>"
_EOS = "</s>"


def _bucket(pos: int) -> str:
    return str(pos) if pos < 4 else "4+"


def window_contexts(
    stream: list[str], window_words: int, stride: int, into: set
) -> int:
    """Add to ``into`` every distinct classifier context the windows of ``stream`` show.

    A context is ``(prev, cur, nxt, nxt2, bucket, is_last)`` for one word
    at one window offset, the key the reference model predicts from.
    Windows follow ``puncseg.segmenter.windows``: starts 0, stride, ...
    up to ``max(0, n - W)``, each ``min(W, n)`` words long.  Offsets 4 to
    m-3 of a word all give the same context, so each word is visited at
    no more than 7 offset classes instead of once per covering window.
    Returns the number of positions classified (window words summed).
    """
    n = len(stream)
    m = min(window_words, n)
    last = max(0, n - window_words)
    n_windows = last // stride + 1
    for i in range(n):
        lo = max(0, i - m + 1)
        hi = min(i, last)
        # window starts covering word i: multiples of stride in [lo, hi]
        first = -(-lo // stride) * stride
        if first > hi:
            continue
        jmax, jmin = i - first, i - (hi - hi % stride)
        offsets = {j for j in (0, 1, 2, 3, m - 2, m - 1) if jmin <= j <= jmax and (i - j) % stride == 0}
        lo_int, hi_int = max(4, jmin), min(m - 3, jmax)
        if lo_int <= hi_int:
            j = lo_int + (i - lo_int) % stride
            if j <= hi_int:
                offsets.add(j)
        for j in offsets:
            into.add((
                stream[i - 1] if j else _BOS,
                stream[i],
                stream[i + 1] if j + 1 < m else _EOS,
                stream[i + 2] if j + 2 < m else _EOS,
                _bucket(j),
                j == m - 1,
            ))
    return n_windows * m


def length_profile(lengths: list[int], window_words: int) -> dict:
    """Document-length quantiles, as multiples of the window size."""
    q = statistics.quantiles(lengths, n=10, method="inclusive") if len(lengths) > 1 else lengths * 9
    return {
        "min_over_W": min(lengths) / window_words,
        "p10_over_W": q[0] / window_words,
        "p50_over_W": q[4] / window_words,
        "p90_over_W": q[8] / window_words,
        "max_over_W": max(lengths) / window_words,
        "docs_below_W": sum(1 for n in lengths if n < window_words),
    }
