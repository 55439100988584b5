"""Raw punctuated text to SEPP documents.

The pipeline is tokenize -> truecase -> extract labels.  Input corpora are
plain UTF-8 text with one sentence per line (the usual parallel-corpus
layout); no sentence splitter is provided.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

from .errors import (
    ConfigError, CorruptModelError, EmptyCorpusError, EmptySentenceWarning, TooFewUnitsError
)
from .sepp import LabeledToken, PunctLabel, SeppDocument, atomic_write, read_lines

#: Characters split off as standalone tokens.
DETACH_CHARS = frozenset(".,?!:;()\"'/-")

#: Detached characters kept word-internal when flanked by digits on both sides.
_DIGIT_JOINABLE = frozenset(".,/")

#: Label assigned per punctuation token.  ``None`` drops the token without
#: affecting the preceding word's label; unlisted detach characters also drop.
DEFAULT_PUNCT_MAP: dict[str, PunctLabel | None] = {
    ".": PunctLabel.PERIOD,
    ",": PunctLabel.COMMA,
    "?": PunctLabel.QUESTION,
    ":": PunctLabel.COLON,
    "-": PunctLabel.DASH,
    "!": PunctLabel.PERIOD,
    ";": PunctLabel.COMMA,
    "(": None,
    ")": None,
    '"': None,
    "'": None,
    "/": None,
}


def tokenize(line: str) -> list[str]:
    """Split one line of raw text into word and punctuation tokens.

    Tokens are maximal runs of non-whitespace characters, except that every
    character in DETACH_CHARS becomes its own token.  A period, comma or
    slash with a digit on both sides stays inside its word ("3,5");
    apostrophes always stand alone ("zo ' n").
    """
    out: list[str] = []
    for chunk in line.split():
        if DETACH_CHARS.isdisjoint(chunk):
            out.append(chunk)
            continue
        buf: list[str] = []
        for i, ch in enumerate(chunk):
            if ch in DETACH_CHARS:
                flanked = (
                    ch in _DIGIT_JOINABLE
                    and 0 < i < len(chunk) - 1
                    and chunk[i - 1].isdigit()
                    and chunk[i + 1].isdigit()
                )
                if flanked:
                    buf.append(ch)
                else:
                    if buf:
                        out.append("".join(buf))
                        buf = []
                    out.append(ch)
            else:
                buf.append(ch)
        if buf:
            out.append("".join(buf))
    return out


def clean_lines(lines: Iterable[str]) -> Iterator[str]:
    """Drop blank lines and lines carrying markup (a ``<`` and ``>`` pair)."""
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if "<" in stripped and ">" in stripped:
            continue
        yield stripped


@dataclass
class TruecaseModel:
    """Casefolded key -> surface-form counts, observed at non-initial positions."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def observe(self, form: str) -> None:
        forms = self.counts.setdefault(form.casefold(), {})
        forms[form] = forms.get(form, 0) + 1

    def best_form(self, key: str) -> str | None:
        """Most frequent form for the key; frequency ties go to the smallest form."""
        forms = self.counts.get(key)
        if not forms:
            return None
        top = max(forms.values())
        return min(form for form, n in forms.items() if n == top)

    def save(self, path) -> None:
        """Persist as TSV ``<key>\\t<form>\\t<count>``, sorted by key."""
        lines = []
        for key in sorted(self.counts):
            form = self.best_form(key)
            lines.append(f"{key}\t{form}\t{self.counts[key][form]}\n")
        atomic_write(path, "".join(lines))

    @classmethod
    def load(cls, path) -> "TruecaseModel":
        model = cls()
        for line_no, line in enumerate(read_lines(path), start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                key, form, count = line.split("\t")
                model.counts.setdefault(key, {})[form] = int(count)
            except ValueError:
                raise CorruptModelError(
                    f"{path}:{line_no}: expected '<key>\\t<form>\\t<count>'"
                ) from None
        return model


def train_truecaser(sentences: Iterable[list[str]]) -> TruecaseModel:
    """Count surface forms at non-sentence-initial positions."""
    model = TruecaseModel()
    seen = False
    for sent in sentences:
        for form in sent[1:]:
            model.observe(form)
            seen = True
    if not seen:
        raise EmptyCorpusError("no non-initial token observed")
    return model


def truecase(sentence: list[str], model: TruecaseModel) -> list[str]:
    """Restore the canonical case of the sentence-initial token.

    The first token is replaced by the model's best form for its casefold;
    a fold the model has never seen falls back to lowercase.  All other
    tokens pass through untouched.
    """
    if not sentence:
        return []
    first = sentence[0]
    form = model.best_form(first.casefold())
    if form is None:
        form = first.lower()
    return [form] + sentence[1:]


def extract_labels(sentences: Iterable[list[str]]) -> SeppDocument:
    """Turn tokenized sentences into SEPP rows.

    Punctuation tokens leave the word stream.  After each word, the first
    following punctuation token that maps to a label becomes that word's
    label; mapped-to-None tokens are transparent and the rest of a
    consecutive punctuation run is dropped.  Leading punctuation with no
    word before it is dropped.  The eos flag is set on full stops and on
    sentence-final words that carry some mark.
    """
    none, period = PunctLabel.NONE, PunctLabel.PERIOD
    tokens: list[LabeledToken] = []
    for sent_no, sent in enumerate(sentences):
        words: list[str] = []
        labels: list[PunctLabel] = []
        for tok in sent:
            if tok in DETACH_CHARS:
                if not words:
                    continue
                if labels[-1] is none:
                    mapped = DEFAULT_PUNCT_MAP.get(tok)
                    if mapped is not None:
                        labels[-1] = mapped
            else:
                words.append(tok)
                labels.append(none)
        if not words:
            warnings.warn(
                f"sentence {sent_no} contains only punctuation",
                EmptySentenceWarning,
                stacklevel=2,
            )
            continue
        eos = [label is period for label in labels]
        if labels[-1] is not none:
            eos[-1] = True
        # tuple.__new__ skips the NamedTuple's Python-level __new__, once per token
        tokens += map(tuple.__new__, repeat(LabeledToken), zip(words, eos, labels))
    return SeppDocument(tokens)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split parameters."""

    train_fraction: float = 0.75
    seed: int = 0
    unit: str = "document"

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if self.unit not in ("document", "sentence"):
            raise ConfigError(f"unknown split unit {self.unit!r}")


def split_corpus(
    documents: list[SeppDocument], spec: SplitSpec
) -> tuple[list[SeppDocument], list[SeppDocument]]:
    """Shuffle units by seed and cut off the first ceil(fraction * n) as train.

    A cut that would leave no test unit raises TooFewUnitsError.
    """
    if spec.unit == "document":
        units = list(documents)
    else:
        units = [
            SeppDocument(list(sent))
            for doc in documents
            for sent in doc.sentences()
        ]
    n_train = math.ceil(spec.train_fraction * len(units))
    if n_train == len(units):
        raise TooFewUnitsError(
            f"{len(units)} {spec.unit} units at train fraction {spec.train_fraction} "
            "leave no test unit"
        )
    rng = random.Random(spec.seed)
    rng.shuffle(units)
    return units[:n_train], units[n_train:]
