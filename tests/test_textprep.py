import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puncseg.errors import EmptyCorpusError, EmptySentenceWarning, TooFewUnitsError
from puncseg.sepp import LabeledToken, PunctLabel, SeppDocument
from puncseg.textprep import (
    DEFAULT_PUNCT_MAP,
    DETACH_CHARS,
    SplitSpec,
    TruecaseModel,
    extract_labels,
    split_corpus,
    tokenize,
    train_truecaser,
    truecase,
)

N = PunctLabel.NONE
P = PunctLabel.PERIOD
C = PunctLabel.COMMA
Q = PunctLabel.QUESTION


@pytest.mark.parametrize(
    "line,expected",
    [
        ("zo'n kijker", ["zo", "'", "n", "kijker"]),
        ("dat was 1543.", ["dat", "was", "1543", "."]),
        ("3,5 procent", ["3,5", "procent"]),
        ("foto's nemen", ["foto", "'", "s", "nemen"]),
        ("wat?!", ["wat", "?", "!"]),
        ("(tussen haakjes)", ["(", "tussen", "haakjes", ")"]),
        ('"citaat"', ['"', "citaat", '"']),
        ("1-2", ["1", "-", "2"]),
        ("3/4 deel", ["3/4", "deel"]),
        ("a/b", ["a", "/", "b"]),
        ("1.2.3", ["1.2.3"]),
        ("1..2", ["1", ".", ".", "2"]),
        ("", []),
        ("   ", []),
        (",5", [",", "5"]),
    ],
)
def test_tokenize_cases(line, expected):
    assert tokenize(line) == expected


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_fixed_point_and_no_empty_tokens(line):
    tokens = tokenize(line)
    assert all(tokens)
    assert tokenize(" ".join(tokens)) == tokens


def test_train_truecaser_counts_non_initial_only():
    corpus = [["De", "man"], ["de", "man"], ["ik", "zag", "de", "man"]]
    model = train_truecaser(corpus)
    assert model.best_form("de") == "de"
    assert model.counts["de"] == {"de": 1}
    assert model.counts["man"] == {"man": 3}
    assert "ik" not in model.counts


def test_train_truecaser_single_sentence():
    model = train_truecaser([["Nicolaas", "sprak"]])
    assert model.best_form("sprak") == "sprak"
    assert "nicolaas" not in model.counts


def test_truecaser_tie_goes_to_smallest_form():
    model = TruecaseModel()
    model.observe("Gill")
    model.observe("gill")
    assert model.best_form("gill") == "Gill"


def test_train_truecaser_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        train_truecaser([["alleen"], []])


def test_truecase_lowers_known_sentence_start():
    model = train_truecaser([["De", "man"], ["de", "man"], ["ik", "zag", "de", "man"]])
    assert truecase(["De", "man"], model) == ["de", "man"]


def test_truecase_keeps_known_proper_noun():
    model = TruecaseModel()
    model.observe("Nicolaas")
    assert truecase(["Nicolaas", "Copernicus", "kwam"], model) == [
        "Nicolaas", "Copernicus", "kwam",
    ]


def test_truecase_unknown_fold_lowercased():
    model = TruecaseModel()
    model.observe("iets")
    assert truecase(["Onbekend", "woord"], model) == ["onbekend", "woord"]


def test_truecase_empty_sentence():
    assert truecase([], TruecaseModel()) == []


def test_truecase_touches_first_token_only():
    model = TruecaseModel()
    model.observe("DAT")
    sent = ["dat", "Huis", "DAAR"]
    assert truecase(sent, model)[1:] == sent[1:]


def test_truecase_model_roundtrip(tmp_path):
    model = train_truecaser([["De", "Man"], ["de", "man"], ["ik", "zag", "de", "man"]])
    path = tmp_path / "truecase.tsv"
    model.save(path)
    loaded = TruecaseModel.load(path)
    assert {key: loaded.best_form(key) for key in loaded.counts} == {
        key: model.best_form(key) for key in model.counts
    }
    text = path.read_text(encoding="utf-8")
    keys = [line.split("\t")[0] for line in text.splitlines()]
    assert keys == sorted(keys)


def test_truecase_model_load_skips_blank_lines(tmp_path):
    path = tmp_path / "truecase.tsv"
    path.write_text("\nde\tde\t3\n\r\nman\tMan\t2\n\n", encoding="utf-8")
    model = TruecaseModel.load(path)
    assert model.counts == {"de": {"de": 3}, "man": {"Man": 2}}


def test_extract_labels_sentence_break():
    doc = extract_labels([["zouden", "openen", "."], ["hoe", "dan", "."]])
    assert doc.tokens[1] == LabeledToken("openen", True, P)
    assert doc.tokens[2] == LabeledToken("hoe", False, N)


def test_extract_labels_colon():
    doc = extract_labels([["vraag", ":", "kunnen"]])
    assert doc.tokens[0] == LabeledToken("vraag", False, PunctLabel.COLON)
    # "kunnen" ends its sentence without a mark, so no eos flag
    assert doc.tokens[1] == LabeledToken("kunnen", False, N)


def test_extract_labels_first_mark_wins_rest_dropped():
    doc = extract_labels([["wat", "?", "!"]])
    assert doc.tokens == [LabeledToken("wat", True, Q)]


def test_extract_labels_mapped_to_none_is_transparent():
    doc = extract_labels([["zei", '"', "."]])
    assert doc.tokens == [LabeledToken("zei", True, P)]


def test_extract_labels_exclamation_and_semicolon_normalized():
    doc = extract_labels([["kom", "!"], ["ja", ";", "nee", "."]])
    assert doc.tokens[0] == LabeledToken("kom", True, P)
    assert doc.tokens[1] == LabeledToken("ja", False, C)


def test_extract_labels_leading_punctuation_dropped():
    doc = extract_labels([['"', "citaat", "."]])
    assert doc.tokens == [LabeledToken("citaat", True, P)]


def test_extract_labels_question_at_sentence_end_sets_eos():
    doc = extract_labels([["echt", "waar", "?"]])
    assert doc.tokens[-1] == LabeledToken("waar", True, Q)


def test_extract_labels_punct_only_sentence_warns():
    with pytest.warns(EmptySentenceWarning):
        doc = extract_labels([[".", "!"], ["ok", "."]])
    assert [t.word for t in doc.tokens] == ["ok"]


def _extract_labels_per_token(sentences):
    """extract_labels' rows, each built by ``LabeledToken(...)`` as it is read."""
    tokens = []
    for sent in sentences:
        words = [(i, tok) for i, tok in enumerate(sent) if tok not in DETACH_CHARS]
        for k, (i, word) in enumerate(words):
            stop = words[k + 1][0] if k + 1 < len(words) else len(sent)
            marks = [DEFAULT_PUNCT_MAP.get(tok) for tok in sent[i + 1 : stop]]
            label = next((m for m in marks if m is not None), N)
            eos = label is P or (k == len(words) - 1 and label is not N)
            tokens.append(LabeledToken(word, eos, label))
    return tokens


def test_extract_labels_equals_the_per_token_reference():
    sentences = [
        ["zouden", "openen", "."],  # a mark at the end
        ["vraag", ":", "kunnen", ",", "wij", "gaan"],  # marks in the middle, none at the end
        ['"', "(", "citaat", '"', ".", "!"],  # leading punctuation, a transparent mark
        ["echt", "?", "waar", "?", "ja"],
        ["kom", ";", "-", "mee", "!"],
    ]
    doc = extract_labels(sentences)
    assert doc.tokens == _extract_labels_per_token(sentences)
    for tok in doc.tokens:
        assert type(tok) is LabeledToken
        assert (tok.word, tok.eos, tok.label) == tok


def test_extract_labels_skips_a_punctuation_only_sentence_with_its_warning():
    sentences = [["ok", "."], [".", "!", '"'], ["nog", "een"]]
    with pytest.warns(EmptySentenceWarning) as caught:
        doc = extract_labels(sentences)
    assert [str(w.message) for w in caught] == ["sentence 1 contains only punctuation"]
    assert caught[0].filename == __file__  # stacklevel 2: the line that called extract_labels
    assert doc.tokens == _extract_labels_per_token(sentences)
    assert doc.tokens == [("ok", True, P), ("nog", False, N), ("een", False, N)]


def test_extract_labels_projection_property():
    rng = random.Random(3)
    vocab = ["aap", "Noot", "mies", "12", "3,5"]
    puncts = sorted(DETACH_CHARS)
    for _ in range(50):
        sent = [
            rng.choice(puncts) if rng.random() < 0.3 else rng.choice(vocab)
            for _ in range(rng.randrange(1, 15))
        ]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySentenceWarning)
            doc = extract_labels([sent])
        expected = [tok for tok in sent if not (len(tok) == 1 and tok in DETACH_CHARS)]
        assert [t.word for t in doc.tokens] == expected


def test_extract_labels_reproduces_sample_passage():
    from sample_streams import COPERNICUS_GOLD, COPERNICUS_GOLD_TEXT, COPERNICUS_WORDS, document_for

    doc = extract_labels([tokenize(COPERNICUS_GOLD_TEXT)])
    assert doc.tokens == document_for(COPERNICUS_WORDS, COPERNICUS_GOLD).tokens


def _docs(n):
    return [
        SeppDocument([LabeledToken(f"w{k}", True, P)], source_id=str(k)) for k in range(n)
    ]


def test_split_corpus_75_25():
    train, test = split_corpus(_docs(4), SplitSpec(train_fraction=0.75, seed=0))
    assert len(train) == 3
    assert len(test) == 1


def test_split_corpus_deterministic():
    docs = _docs(9)
    first = split_corpus(docs, SplitSpec(seed=42))
    second = split_corpus(docs, SplitSpec(seed=42))
    assert [d.source_id for d in first[0]] == [d.source_id for d in second[0]]
    assert [d.source_id for d in first[1]] == [d.source_id for d in second[1]]


def test_split_corpus_exact_partition():
    docs = _docs(10)
    train, test = split_corpus(docs, SplitSpec(train_fraction=0.5, seed=3))
    ids = sorted(d.source_id for d in train + test)
    assert ids == sorted(d.source_id for d in docs)
    assert not {d.source_id for d in train} & {d.source_id for d in test}


def test_split_corpus_seeds_differ():
    docs = _docs(10)
    spec = lambda s: SplitSpec(train_fraction=0.5, seed=s)  # noqa: E731
    one = frozenset(d.source_id for d in split_corpus(docs, spec(1))[0])
    two = frozenset(d.source_id for d in split_corpus(docs, spec(2))[0])
    assert one != two
    # brute-force over 20 seeds: the train sets should almost all differ
    seen = {frozenset(d.source_id for d in split_corpus(docs, spec(s))[0]) for s in range(20)}
    assert len(seen) >= 18


def test_split_corpus_sentence_unit():
    doc = SeppDocument(
        [
            LabeledToken("a", True, P),
            LabeledToken("b", True, P),
            LabeledToken("c", True, P),
            LabeledToken("d", True, P),
        ]
    )
    train, test = split_corpus([doc], SplitSpec(train_fraction=0.75, seed=0, unit="sentence"))
    assert len(train) == 3
    assert len(test) == 1
    words = sorted(t.word for d in train + test for t in d.tokens)
    assert words == ["a", "b", "c", "d"]


def test_split_corpus_too_few_units():
    with pytest.raises(TooFewUnitsError):
        split_corpus(_docs(1), SplitSpec())


@pytest.mark.parametrize(
    "n, fraction, unit",
    [
        (0, 0.75, "document"),
        (2, 0.75, "document"),
        (3, 0.75, "document"),
        (19, 0.95, "document"),
        (3, 0.75, "sentence"),
    ],
)
def test_split_corpus_leaving_no_test_unit_is_rejected(n, fraction, unit):
    # ceil(fraction * n) == n whenever n < 1 / (1 - fraction)
    docs = _docs(n) if unit == "document" else [SeppDocument([t for d in _docs(n) for t in d])]
    with pytest.raises(TooFewUnitsError, match=f"{n} {unit} units at train fraction {fraction}"):
        split_corpus(docs, SplitSpec(train_fraction=fraction, unit=unit))


def test_split_spec_rejects_an_unknown_unit():
    with pytest.raises(ValueError, match="unknown split unit 'page'"):
        SplitSpec(unit="page")


def test_split_spec_validates_fraction():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0)
