"""The three-column SEPP tab-separated token format.

One token per line: ``<word>\\t<0|1>\\t<label>``.  Column 1 is the word,
column 2 the binary sentence-end flag, column 3 the punctuation mark that
follows the word, with ``0`` meaning that no mark follows.  Files are
UTF-8; output always uses LF line endings and carries no BOM, while input
tolerates CRLF and a leading BOM.  Blank lines are skipped on input.
"""

from __future__ import annotations

import enum
import os
import secrets
import warnings
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import EncodingError, SeppConsistencyWarning, SeppParseError, UnwritableWordError


class PunctLabel(enum.Enum):
    """Punctuation mark predicted or observed after a word.

    Declaration order is the global tie-break order used by every
    classifier and by the vote threshold decision.
    """

    NONE = "0"
    PERIOD = "."
    COMMA = ","
    QUESTION = "?"
    COLON = ":"
    DASH = "-"

    #: Position in declaration order: the label's column in vote tables
    #: and weight rows.  Reading it makes no Python-level call, unlike
    #: hashing the member for a dict lookup.
    index: int

    @property
    def char(self) -> str:
        return self.value


for _index, _label in enumerate(PunctLabel):
    _label.index = _index

# Module-level names: reading a member off the enum class per token is slow.
_PERIOD = PunctLabel.PERIOD
_NONE = PunctLabel.NONE

#: Each label by its serialized character.
LABEL_BY_CHAR: dict[str, PunctLabel] = {label.value: label for label in PunctLabel}

#: Row/column order used by confusion matrices and evaluation reports.
REPORT_ORDER: tuple[PunctLabel, ...] = (
    PunctLabel.NONE,
    PunctLabel.PERIOD,
    PunctLabel.COMMA,
    PunctLabel.QUESTION,
    PunctLabel.DASH,
    PunctLabel.COLON,
)

#: Default segmenting set: full stop and question mark.
DEFAULT_SEGMENTERS: frozenset[PunctLabel] = frozenset(
    {PunctLabel.PERIOD, PunctLabel.QUESTION}
)


def label_from_char(ch: str) -> PunctLabel:
    """Map a single serialized character to its label, raising KeyError otherwise."""
    return LABEL_BY_CHAR[ch]


class LabeledToken(NamedTuple):
    """One SEPP row: a word, its sentence-end flag, and its punctuation label.

    A plain tuple underneath: it unpacks as ``word, eos, label`` and
    compares equal to the tuple of its fields.
    """

    word: str
    eos: bool
    label: PunctLabel


@dataclass(slots=True)
class SeppDocument:
    """An ordered token sequence; sentence boundaries sit where ``eos`` is true.

    ``source_id`` is the caller's own tag; the library neither sets nor reads it.
    """

    tokens: list[LabeledToken] = field(default_factory=list)
    source_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[LabeledToken]:
        return iter(self.tokens)

    def sentences(self) -> list[list[LabeledToken]]:
        """Split tokens into sentences after each eos token.

        A trailing group without an eos token counts as a final sentence;
        the last token of a document is not required to carry the flag.
        """
        out: list[list[LabeledToken]] = []
        current: list[LabeledToken] = []
        for tok in self.tokens:
            current.append(tok)
            if tok.eos:
                out.append(current)
                current = []
        if current:
            out.append(current)
        return out


def parse_sepp(stream: str | Iterable[str]) -> SeppDocument:
    """Parse SEPP text into a document.

    ``stream`` may be a string or an iterable of lines, with or without
    line ends, such as :func:`read_lines` yields.  Line numbers in errors
    are 1-based and count blank lines too.  Rows whose flag column
    contradicts the label (a full stop without the flag, or the flag
    without any mark) are accepted with a ``SeppConsistencyWarning``,
    because published corpora contain such rows.
    """
    return _parse_sepp(stream, "")


def _parse_sepp(stream: str | Iterable[str], where: str) -> SeppDocument:
    """:func:`parse_sepp`, each error's and warning's message led by ``where``.

    A warning points at the caller of the public function that called this one.
    """
    error = partial(SeppParseError, where=where)
    tokens: list[LabeledToken] = []
    lines = stream.split("\n") if isinstance(stream, str) else stream
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise error(
                "LINE_FORMAT", line_no, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        word, flag, label_ch = fields
        if not word:
            raise error("EMPTY_WORD", line_no, "empty word column")
        if flag not in ("0", "1"):
            raise error("BAD_FLAG", line_no, f"flag column must be 0 or 1, got {flag!r}")
        try:
            label = label_from_char(label_ch)
        except KeyError:
            raise error("BAD_LABEL", line_no, f"unknown label {label_ch!r}") from None
        eos = flag == "1"
        if (label is _PERIOD and not eos) or (label is _NONE and eos):
            warnings.warn(
                f"{where}line {line_no}: flag {flag} contradicts label {label_ch!r}",
                SeppConsistencyWarning,
                stacklevel=3,
            )
        tokens.append(LabeledToken(word, eos, label))
    return SeppDocument(tokens)


def parse_sepp_file(path) -> SeppDocument:
    """:func:`parse_sepp` over the lines of ``path``; each error and warning names the file."""
    return _parse_sepp(read_lines(path), f"{path}: ")


def _render_flag(token: LabeledToken) -> str:
    # Column 2 is derived from the label where the consistency rule binds.
    if token.label is _PERIOD:
        return "1"
    if token.label is _NONE:
        return "0"
    return "1" if token.eos else "0"


#: Each row's text after its word, ``"\t<flag>\t<mark>\n"``, by label index, then
#: by ``not eos``: like :func:`_render_flag`, any true flag counts as set.
_ROW_ENDS: tuple[tuple[str, str], ...] = tuple(
    tuple(
        f"\t{_render_flag(LabeledToken('', eos, label))}\t{label.char}\n"
        for eos in (True, False)
    )
    for label in PunctLabel
)


def write_sepp(doc: SeppDocument) -> str:
    """Serialize a document, one LF-terminated line per token."""
    row_ends = _ROW_ENDS
    parts: list[str] = []
    append = parts.append  # a local: two appends per token beat one concatenation
    for word, eos, label in doc.tokens:
        if not word or "\t" in word or "\n" in word or "\r" in word:
            raise UnwritableWordError(f"unwritable word {word!r}")
        append(word)
        append(row_ends[label.index][not eos])
    if parts and parts[0].startswith("﻿"):
        # the format carries no BOM, so the output must not begin with one
        raise UnwritableWordError("document would begin with a byte-order mark")
    return "".join(parts)


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to a new file beside ``path``, then rename it over ``path``.

    A failure leaves any previous file as it was; unlike ``mkstemp``,
    ``open`` gives the file the permissions any other output gets.
    """
    tmp = Path(path).parent / f".tmp-{secrets.token_hex(8)}"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path) -> Iterator[str]:
    """Yield the lines of the UTF-8 text file ``path`` one at a time, line ends included.

    Line ends are universal newlines and one leading byte-order mark is
    dropped; bytes that are not UTF-8 raise ``EncodingError``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex(" ")
        raise EncodingError(f"{path}: not UTF-8 text ({exc.reason}: {bad})") from None


def strip_labels(doc: SeppDocument) -> list[str]:
    """Project the document onto its word column: the simulated ASR stream."""
    return [t.word for t in doc.tokens]
