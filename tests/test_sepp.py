import ast
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puncseg
from oracles import brute_force_sepp_row
from puncseg.errors import (
    EncodingError,
    SeppConsistencyWarning,
    SeppParseError,
    UnwritableWordError,
)
from puncseg.sepp import (
    LabeledToken,
    PunctLabel,
    SeppDocument,
    parse_sepp,
    parse_sepp_file,
    read_lines,
    strip_labels,
    write_sepp,
)

TABLE_FRAGMENT = (
    "doos\t0\t0\n"
    "van\t0\t0\n"
    "pandora\t0\t0\n"
    "zouden\t0\t0\n"
    "openen\t1\t.\n"
    "hoe\t0\t0\n"
    "op\t0\t0\n"
    "de\t0\t0\n"
    "volgende\t0\t0\n"
    "vraag\t0\t:\n"
    "kunnen\t0\t0\n"
)


def test_parse_colon_row():
    doc = parse_sepp("vraag\t0\t:\n")
    assert doc.tokens == [LabeledToken("vraag", False, PunctLabel.COLON)]


def test_parse_plain_row():
    doc = parse_sepp("kunnen\t0\t0\n")
    assert doc.tokens == [LabeledToken("kunnen", False, PunctLabel.NONE)]


def test_parse_fragment_order_preserved():
    doc = parse_sepp(TABLE_FRAGMENT)
    assert strip_labels(doc) == [
        "doos", "van", "pandora", "zouden", "openen", "hoe",
        "op", "de", "volgende", "vraag", "kunnen",
    ]
    assert doc.tokens[4] == LabeledToken("openen", True, PunctLabel.PERIOD)


@pytest.mark.parametrize(
    "text,code,line_no",
    [
        ("foo\t2\t.\n", "BAD_FLAG", 1),
        ("ok\t0\t0\nfoo\t2\t.\n", "BAD_FLAG", 2),
        ("just two\tfields\n", "LINE_FORMAT", 1),
        ("a\t0\t0\textra\n", "LINE_FORMAT", 1),
        ("word\t0\t;\n", "BAD_LABEL", 1),
        ("\t0\t0\n", "EMPTY_WORD", 1),
        ("fine\t0\t0\n\nbad line here\n", "LINE_FORMAT", 3),
    ],
)
def test_parse_errors_carry_code_and_line(text, code, line_no):
    with pytest.raises(SeppParseError) as exc_info:
        parse_sepp(text)
    assert exc_info.value.code == code
    assert exc_info.value.line_no == line_no


def test_file_parse_errors_lead_with_the_path(tmp_path):
    path = tmp_path / "badflag.sepp"
    path.write_text("ok\t0\t0\nfoo\t2\t.\n", encoding="utf-8")
    with pytest.raises(SeppParseError) as exc_info:
        parse_sepp_file(path)
    assert (exc_info.value.code, exc_info.value.line_no) == ("BAD_FLAG", 2)
    assert str(exc_info.value) == f"{path}: line 2: flag column must be 0 or 1, got '2'"
    with pytest.raises(SeppParseError) as exc_info:
        parse_sepp(path.read_text(encoding="utf-8"))
    assert str(exc_info.value) == "line 2: flag column must be 0 or 1, got '2'"


def test_blank_lines_skipped():
    doc = parse_sepp("a\t0\t0\n\n\nb\t1\t.\n")
    assert [t.word for t in doc.tokens] == ["a", "b"]


def test_crlf_and_bom_tolerated():
    doc = parse_sepp("\ufeffa\t0\t0\r\nb\t1\t.\r\n")
    assert [t.word for t in doc.tokens] == ["a", "b"]
    assert doc.tokens[1].eos


def test_inconsistent_flag_warns_by_default():
    # a full stop without the flag, and the flag without any mark
    cases = [
        ("openen\t0\t.\n", LabeledToken("openen", False, PunctLabel.PERIOD)),
        ("woord\t1\t0\n", LabeledToken("woord", True, PunctLabel.NONE)),
    ]
    for text, token in cases:
        with pytest.warns(SeppConsistencyWarning):
            doc = parse_sepp(text)
        # parsed as-is, not silently fixed
        assert doc.tokens == [token]


def test_warnings_from_two_files_name_each_file(tmp_path):
    paths = [tmp_path / "gold.sepp", tmp_path / "pred.sepp"]
    for path in paths:
        path.write_text("a\t0\t.\nb\t1\t0\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # shows a message once per place it is raised
        for path in paths:
            parse_sepp_file(path)
        parse_sepp("a\t0\t.\n")
    assert [str(w.message) for w in caught] == [
        *(f"{path}: line {n}: flag {flag} contradicts label {label!r}"
          for path in paths for n, flag, label in ((1, "0", "."), (2, "1", "0"))),
        "line 1: flag 0 contradicts label '.'",
    ]
    # each points at the line that called the parser, not into the library
    assert {(w.category, w.filename) for w in caught} == {(SeppConsistencyWarning, __file__)}


def test_write_period_row_derives_flag():
    doc = SeppDocument([LabeledToken("openen", True, PunctLabel.PERIOD)])
    assert write_sepp(doc) == "openen\t1\t.\n"


def test_write_empty_document():
    assert write_sepp(SeppDocument([])) == ""


def test_write_parse_write_is_byte_identical():
    doc = SeppDocument(
        [
            LabeledToken("een", False, PunctLabel.NONE),
            LabeledToken("vraag", False, PunctLabel.COLON),
            LabeledToken("twee", True, PunctLabel.PERIOD),
        ]
    )
    once = write_sepp(doc)
    assert write_sepp(parse_sepp(once)) == once


def test_crlf_and_bom_word_ambiguity_is_rejected_on_write():
    # tolerating a BOM on input makes a document whose first word starts
    # with U+FEFF unrepresentable; writing it is refused instead
    doc = SeppDocument([LabeledToken("﻿woord", False, PunctLabel.NONE)])
    with pytest.raises(ValueError):
        write_sepp(doc)
    # away from the file start the character is an ordinary word character
    doc = SeppDocument(
        [
            LabeledToken("eerste", False, PunctLabel.NONE),
            LabeledToken("﻿woord", False, PunctLabel.NONE),
        ]
    )
    assert parse_sepp(write_sepp(doc)).tokens == doc.tokens


@pytest.mark.parametrize(
    "word", ["", "een\ttab", "een\nregel", "een\rterug"], ids=["empty", "tab", "lf", "cr"]
)
def test_write_refuses_a_word_the_format_cannot_hold(word):
    doc = SeppDocument([LabeledToken("eerste", False, PunctLabel.NONE)])
    doc.tokens.append(LabeledToken(word, False, PunctLabel.NONE))
    with pytest.raises(UnwritableWordError) as exc_info:
        write_sepp(doc)
    assert exc_info.value.code == "UNWRITABLE_WORD"
    assert isinstance(exc_info.value, ValueError)


def _valid_tokens():
    words = st.text(
        st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ).filter(lambda w: w.strip() == w and w and not w.startswith("﻿"))
    labels = st.sampled_from(list(PunctLabel))

    def build(word, label, eos_bit):
        if label is PunctLabel.PERIOD:
            eos = True
        elif label is PunctLabel.NONE:
            eos = False
        else:
            eos = eos_bit
        return LabeledToken(word, eos, label)

    return st.builds(build, words, labels, st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_valid_tokens(), max_size=40))
def test_round_trip_identity_property(tokens):
    doc = SeppDocument(tokens)
    assert parse_sepp(write_sepp(doc)).tokens == tokens


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            _valid_tokens().map(lambda tok: tok.word),
            st.booleans() | st.sampled_from([0, 1, None, ""]),
            st.sampled_from(list(PunctLabel)),
        ),
        max_size=40,
    )
)
def test_write_matches_the_row_oracle_for_any_flag_and_label(rows):
    # unlike the round trip, this draws the rows a consistent document never
    # holds (no mark with the flag, a full stop without it), and flags that
    # are not bools but are read for their truth
    doc = SeppDocument([LabeledToken(*row) for row in rows])
    assert write_sepp(doc) == "".join(brute_force_sepp_row(*row) for row in rows)


def test_token_is_a_tuple_of_word_flag_and_label():
    tok = LabeledToken("vraag", False, PunctLabel.COLON)
    word, eos, label = tok
    assert (word, eos, label) == ("vraag", False, PunctLabel.COLON) == tok
    assert (tok.word, tok.eos, tok.label) == tok


def test_strip_labels_is_invariant_under_relabeling():
    rng = random.Random(7)
    doc = parse_sepp(TABLE_FRAGMENT)
    relabeled = SeppDocument(
        [
            LabeledToken(t.word, rng.random() < 0.5, rng.choice(list(PunctLabel)))
            for t in doc.tokens
        ]
    )
    assert strip_labels(relabeled) == strip_labels(doc)
    assert len(strip_labels(doc)) == len(doc)


def test_strip_labels_empty():
    assert strip_labels(SeppDocument([])) == []


def test_sentences_split_after_eos_and_keep_tail():
    doc = parse_sepp("a\t0\t0\nb\t1\t.\nc\t0\t0\n")
    sents = doc.sentences()
    assert [[t.word for t in s] for s in sents] == [["a", "b"], ["c"]]


def test_read_lines_drops_one_bom_and_reads_universal_newlines(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbfeen\r\ntwee\rdrie\n\xef\xbb\xbfvier")
    assert list(read_lines(path)) == ["een\n", "twee\n", "drie\n", "\ufeffvier"]


def test_read_lines_streams_up_to_the_first_bad_byte(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"a\t0\t0\n" * 50000 + b"\xff\t1\t.\n")
    lines = read_lines(path)
    assert next(lines) == "a\t0\t0\n"  # the whole file is not decoded up front
    with pytest.raises(EncodingError) as exc_info:
        parse_sepp(lines)
    assert exc_info.value.code == "NOT_UTF8"
    assert str(exc_info.value) == f"{path}: not UTF-8 text (invalid start byte: ff)"


def _text_file_reads(path: Path) -> list[str]:
    """``function:line`` of each ``read_text`` call and each ``open`` without a binary mode."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            modes = [arg.value for arg in [*node.args, *(k.value for k in node.keywords)]
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            binary = any(set(m) <= set("rwxab+") and "b" in m for m in modes)
            if name == "read_text" or (name == "open" and not binary):
                found.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_read_lines_reads_text_files():
    package = Path(puncseg.__file__).parent
    reads = {p.name: _text_file_reads(p) for p in sorted(package.glob("*.py"))}
    reads = {name: found for name, found in reads.items() if found}
    assert list(reads) == ["sepp.py"], reads
    assert [site.split(":")[0] for site in reads["sepp.py"]] == ["read_lines"]
