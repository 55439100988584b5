import gc
import hashlib
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import template_corpus
from oracles import (
    brute_force_context_ids,
    brute_force_examples,
    brute_force_scores,
    brute_force_train,
)
from puncseg.classifier import (
    FEATURE_SPACE,
    LABELS,
    N_LABELS,
    LinearModel,
    ReplayClassifier,
    load_model,
    save_model,
    _context_ids,
    _pooled_examples,
    _scores,
    _window_keys,
    train_reference,
)
from puncseg.errors import (
    BadMagicError,
    ConfigError,
    CorruptModelError,
    EmptyTrainingSetError,
    EmptyWindowError,
    OutOfRangeError,
    VersionMismatchError,
)
from puncseg.segmenter import SegmenterConfig, segment
from puncseg.sepp import LabeledToken, PunctLabel, SeppDocument

N = PunctLabel.NONE
P = PunctLabel.PERIOD
C = PunctLabel.COMMA


def _abc_corpus(n_sentences=60):
    tokens = []
    for _ in range(n_sentences):
        tokens.extend(
            [
                LabeledToken("a", False, N),
                LabeledToken("b", False, N),
                LabeledToken("c", True, P),
            ]
        )
    return SeppDocument(tokens)


def test_zero_epochs_predicts_none():
    model = train_reference([_abc_corpus()], epochs=0, seed=0)
    assert model.weights == {}
    assert model.classify(["x", "y"]) == [N, N]


def test_separable_corpus_reaches_perfect_training_accuracy():
    doc = _abc_corpus()
    model = train_reference([doc], epochs=5, seed=1)
    words = [t.word for t in doc.tokens]
    gold = [t.label for t in doc.tokens]
    # brute-force evaluation over the training stream, window-chunked as in training
    pred = []
    for start in range(0, len(words), 200):
        pred.extend(model.classify(words[start : start + 200]))
    assert pred == gold


def test_trained_model_labels_small_window():
    model = train_reference([_abc_corpus()], epochs=5, seed=1)
    assert model.classify(["a", "b", "c"]) == [N, N, P]


def test_single_word_window():
    model = train_reference([_abc_corpus()], epochs=2, seed=0)
    assert len(model.classify(["woord"])) == 1


def test_training_is_deterministic():
    docs = [_abc_corpus(20)]
    m1 = train_reference(docs, epochs=3, seed=9)
    m2 = train_reference(docs, epochs=3, seed=9)
    assert m1.weights == m2.weights


def test_training_invariant_to_document_order():
    doc_a = _abc_corpus(15)
    doc_b = SeppDocument(
        [
            LabeledToken("x", False, N),
            LabeledToken("y", True, P),
        ]
        * 10
    )
    m1 = train_reference([doc_a, doc_b], epochs=3, seed=4)
    m2 = train_reference([doc_b, doc_a], epochs=3, seed=4)
    assert m1.weights == m2.weights


def _model_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(model, path)
        return path.read_bytes()


def _doc(pairs):
    return SeppDocument([LabeledToken(word, label is P, label) for word, label in pairs])


@st.composite
def _contradicting_corpora(draw):
    """Documents of sentences drawn, with repeats, from a small pool, and
    twin documents of the same words with one label changed, so that one
    context is seen with two gold labels and recurs as a mistake."""
    label = st.sampled_from(LABELS)
    sentence = st.lists(st.tuples(st.sampled_from(["a", "b", "Dat", "1"]), label),
                        min_size=1, max_size=5)
    pool = draw(st.lists(sentence, min_size=1, max_size=4))
    docs = [
        _doc([pair for picked in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
              for pair in picked])
        for _ in range(draw(st.integers(1, 3)))
    ]
    twin = draw(sentence)
    j = draw(st.integers(0, len(twin) - 1))
    other = draw(label.filter(lambda lab: lab is not twin[j][1]))
    docs += [_doc(twin), _doc(twin[:j] + [(twin[j][0], other)] + twin[j + 1 :])]
    return docs


@settings(max_examples=150, deadline=None)
@given(_contradicting_corpora(), st.integers(0, 4), st.integers(-(2**63), 2**63 - 1),
       st.integers(1, 6))
def test_training_equals_the_oracle_that_scores_every_step(docs, epochs, seed, window_words):
    model = train_reference(docs, epochs=epochs, seed=seed, window_words=window_words)
    want = brute_force_train(brute_force_examples(docs, window_words), epochs, seed)
    assert _model_bytes(model) == _model_bytes(LinearModel(want, seed=seed, epochs=epochs))


def _expanded(pool):
    examples, counts = pool
    return [example for example, count in zip(examples, counts) for _ in range(count)]


@pytest.mark.parametrize("window_words", [1, 2, 5, 200])
def test_pooled_examples_count_the_examples_the_oracle_lists(window_words):
    # "a b c." recurs, and the context of "y" ending a document is seen as "." and ","
    docs = [_abc_corpus(7), _doc([("x", N), ("y", P)]), _doc([("x", N), ("y", C)])]
    examples, counts = _pooled_examples(docs, window_words)
    assert examples == sorted(set(examples))
    assert max(counts) > 1
    assert len({ids for ids, _ in examples}) < len(examples)  # one context, two golds
    assert _expanded((examples, counts)) == brute_force_examples(docs, window_words)


def test_pooled_examples_merge_contexts_whose_feature_ids_coincide(monkeypatch):
    from puncseg import classifier

    # ids of the current word alone: "a" opening a sentence and "a" inside one coincide
    monkeypatch.setattr(classifier, "_context_ids", lambda prev, cur, *rest: (len(cur),))
    docs = [_doc([("a", N), ("bb", N), ("a", P), ("a", N), ("ccc", P)])]
    assert _pooled_examples(docs, 200) == ([((1,), 0), ((1,), 1), ((2,), 0), ((3,), 1)],
                                           [2, 1, 1, 1])


def _scored(monkeypatch, docs, epochs):
    """The feature ids of every example ``train_reference`` scores, in order."""
    from puncseg import classifier

    scored = []
    monkeypatch.setattr(
        classifier, "_scores", lambda weights, ids: scored.append(ids) or _scores(weights, ids)
    )
    train_reference(docs, epochs=epochs, seed=0)
    return scored


def test_an_example_scored_correct_is_not_scored_again_before_an_update(monkeypatch):
    # fifty copies of one example: a mistake, then a correct score, then no more
    assert len(_scored(monkeypatch, [_doc([("ja", P)])] * 50, epochs=5)) == 2
    # nine distinct contexts, every mistake in epoch 1: epochs 2 to 5 score nothing
    first = _scored(monkeypatch, [_abc_corpus()], epochs=1)
    assert len(first) < 180
    assert _scored(monkeypatch, [_abc_corpus()], epochs=5) == first


def test_examples_that_disagree_are_scored_again_in_every_epoch(monkeypatch):
    docs = [_abc_corpus(), _doc([("x", N), ("y", P)]), _doc([("x", N), ("y", C)])]
    disputed = _context_ids("x", "y", "</s>", "</s>", "1", True)
    scored = [_scored(monkeypatch, docs, epochs) for epochs in range(1, 6)]
    for before, after in zip(scored, scored[1:]):
        # the same RNG draws, so one epoch more scores a prefix, then more
        assert after[: len(before)] == before
        assert disputed in after[len(before) :]


def test_length_contract_on_random_windows():
    model = train_reference([_abc_corpus(10)], epochs=2, seed=0)
    rng = random.Random(0)
    vocab = ["a", "b", "c", "x", "Yz", "42"]
    for _ in range(200):
        window = [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
        labels = model.classify(window)
        assert len(labels) == len(window)
        # determinism: a second call agrees
        assert model.classify(window) == labels


def test_empty_window_rejected():
    model = LinearModel({})
    with pytest.raises(EmptyWindowError):
        model.classify([])


def test_empty_training_set_rejected():
    with pytest.raises(EmptyTrainingSetError):
        train_reference([], epochs=1, seed=0)
    with pytest.raises(EmptyTrainingSetError):
        train_reference([SeppDocument([])], epochs=1, seed=0)


@pytest.mark.parametrize(
    "seed, epochs", [(2**63, 1), (-(2**63) - 1, 1), (0, 2**32), (0, -1)],
    ids=["seed-above", "seed-below", "epochs-above", "epochs-below"],
)
def test_seed_and_epochs_the_model_file_cannot_hold_rejected_before_training(seed, epochs):
    # an empty training set would raise EmptyTrainingSetError once work began
    with pytest.raises(OutOfRangeError):
        train_reference([], epochs=epochs, seed=seed)


@pytest.mark.parametrize("window_words", [0, -1])
def test_window_words_below_one_rejected_before_training(window_words):
    # checked up front: 0 would fail inside range() and -1 would find no
    # training tokens in a corpus that has them
    with pytest.raises(OutOfRangeError, match="window_words"):
        train_reference([_abc_corpus(5)], epochs=1, seed=0, window_words=window_words)


@pytest.mark.parametrize(
    "name, value",
    [("seed", 0.5), ("seed", True), ("epochs", 1.5), ("epochs", True),
     ("window_words", 2.5), ("window_words", True)],
)
def test_arguments_that_are_not_ints_rejected_before_training(monkeypatch, name, value):
    from puncseg import classifier

    def pool(*args):
        raise AssertionError("training began")

    monkeypatch.setattr(classifier, "_pooled_examples", pool)
    kwargs = {"epochs": 1, "seed": 0, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be an int") as err:
        train_reference([_abc_corpus(5)], **kwargs)
    assert err.value.code == "CONFIG"


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_extreme_seeds_round_trip_through_the_model_file(tmp_path, seed):
    model = train_reference([_abc_corpus(5)], epochs=0, seed=seed)
    save_model(model, tmp_path / "m.bin")
    assert load_model(tmp_path / "m.bin").seed == seed


def test_save_load_roundtrip_predictions(tmp_path):
    model = train_reference([_abc_corpus()], epochs=4, seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.seed == model.seed
    assert loaded.epochs == model.epochs

    rng = random.Random(5)
    vocab = ["a", "b", "c", "d", "E", "1543"]
    for _ in range(100):
        window = [rng.choice(vocab) for _ in range(rng.randrange(1, 12))]
        assert loaded.classify(window) == model.classify(window)


def test_model_files_identical_across_processes(tmp_path):
    # hashed features and seeded shuffles must not depend on process state
    script = tmp_path / "train_once.py"
    script.write_text(
        "import sys\n"
        "from puncseg.classifier import train_reference, save_model\n"
        "from puncseg.sepp import LabeledToken, PunctLabel, SeppDocument\n"
        "tokens = []\n"
        "for k in range(40):\n"
        "    tokens += [\n"
        "        LabeledToken('a', False, PunctLabel.NONE),\n"
        "        LabeledToken('b', False, PunctLabel.COMMA),\n"
        "        LabeledToken('c', True, PunctLabel.PERIOD),\n"
        "    ]\n"
        "model = train_reference([SeppDocument(tokens)], epochs=3, seed=7)\n"
        "save_model(model, sys.argv[1])\n",
        encoding="utf-8",
    )
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import puncseg

    src = str(Path(puncseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out_a = tmp_path / "a.bin"
    out_b = tmp_path / "b.bin"
    for out in (out_a, out_b):
        subprocess.run([_sys.executable, str(script), str(out)], env=env, check=True)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    model = train_reference([_abc_corpus(5)], epochs=1, seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    model = train_reference([_abc_corpus(5)], epochs=1, seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(CorruptModelError):
        load_model(path)


def test_load_rejects_trailing_garbage(tmp_path):
    model = train_reference([_abc_corpus(5)], epochs=1, seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptModelError):
        load_model(path)


def test_model_file_bytes_match_golden_digest(tmp_path):
    # pinned files of format version 1: a writer that changes them breaks saved models
    hand_built = LinearModel(
        {
            0: [0.0, 1.5, 0.0, 0.0, 0.0, -2.25],
            7: [0.125, 0.0, 0.0, 0.0, 0.0, 0.0],
            FEATURE_SPACE - 1: [0.0, 0.0, -1e-300, 3.0, 0.0, 0.0],
        },
        seed=-5,
        epochs=3,
    )
    trained = train_reference([_abc_corpus(5)], epochs=1, seed=0)
    for model, digest in [
        (hand_built, "aa82ec5f72b509a442c01f73058629f88bbdde2decb02d2d68fd2d0023de8b6b"),
        (trained, "39f1f0796cb522f5c0309a4ea9aeda8883bdf292f3fd5bce1cdfc1cfc07efd12"),
    ]:
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _split_model_file(data):
    """The 8-byte header and the payloads of the length-prefixed sections."""
    sections, pos = [], 8
    while pos < len(data):
        (size,) = struct.unpack_from("<I", data, pos)
        sections.append(data[pos + 4 : pos + 4 + size])
        pos += 4 + size
    return data[:8], sections


def _join_model_file(header, sections):
    return header + b"".join(struct.pack("<I", len(s)) + s for s in sections)


@pytest.fixture
def small_model_file(tmp_path):
    path = tmp_path / "model.bin"
    save_model(train_reference([_abc_corpus(5)], epochs=1, seed=0), path)
    return path


def test_every_truncation_and_byte_flip_loads_or_raises_a_coded_error(small_model_file):
    data = small_model_file.read_bytes()
    assert 700 < len(data) < 1000
    variants = [data[:cut] for cut in range(len(data))]
    for i, b in enumerate(data):
        for new in {0x00, 0xFF, b ^ 1} - {b}:
            variants.append(data[:i] + bytes([new]) + data[i + 1 :])
    path = small_model_file.with_name("variant.bin")
    for variant in variants:
        path.write_bytes(variant)
        try:
            load_model(path)
        except (BadMagicError, VersionMismatchError, CorruptModelError) as exc:
            assert str(exc).startswith(f"{path}: ")


@pytest.mark.parametrize("section", [0, 1, 2], ids=["meta", "labels", "weights"])
def test_load_rejects_junk_inside_a_section(small_model_file, section):
    header, sections = _split_model_file(small_model_file.read_bytes())
    sections[section] += b"junk"
    small_model_file.write_bytes(_join_model_file(header, sections))
    with pytest.raises(CorruptModelError):
        load_model(small_model_file)


@pytest.mark.parametrize("delta", [-1, 1])
def test_load_rejects_a_triple_count_that_disagrees_with_the_header(small_model_file, delta):
    header, sections = _split_model_file(small_model_file.read_bytes())
    (count,) = struct.unpack_from("<Q", sections[2])
    sections[2] = struct.pack("<Q", count + delta) + sections[2][8:]
    small_model_file.write_bytes(_join_model_file(header, sections))
    with pytest.raises(CorruptModelError):
        load_model(small_model_file)


@pytest.mark.parametrize("triple", [(FEATURE_SPACE, 0), (0, N_LABELS)])
def test_load_rejects_an_out_of_range_triple(small_model_file, triple):
    header, sections = _split_model_file(small_model_file.read_bytes())
    sections[2] = sections[2][:8] + struct.pack("<IId", *triple, 1.0) + sections[2][24:]
    small_model_file.write_bytes(_join_model_file(header, sections))
    with pytest.raises(CorruptModelError, match="out of range"):
        load_model(small_model_file)


def test_loaded_rows_equal_the_trained_rows_in_any_triple_order(small_model_file):
    model = train_reference([_abc_corpus(5)], epochs=1, seed=0)
    assert load_model(small_model_file).weights == model.weights
    header, sections = _split_model_file(small_model_file.read_bytes())
    triples = sorted(struct.iter_unpack("<IId", sections[2][8:]), key=lambda t: (t[1], t[0]))
    assert len({fid for fid, _, _ in triples}) < len(triples)  # some row holds several
    # ordered by label, then feature: a row's triples are no longer together
    sections[2] = sections[2][:8] + b"".join(struct.pack("<IId", *t) for t in triples)
    small_model_file.write_bytes(_join_model_file(header, sections))
    loaded = load_model(small_model_file)
    assert loaded.weights == model.weights
    gc.collect()
    assert not any(gc.is_tracked(row) for row in loaded.weights.values())


def test_replay_classifier_returns_recorded_labels():
    doc = SeppDocument(
        [
            LabeledToken("kijk", False, N),
            LabeledToken("om", False, N),
            LabeledToken("je", False, N),
            LabeledToken("heen", True, P),
        ]
    )
    replay = ReplayClassifier.from_document(doc)
    assert replay.classify(["kijk", "om", "je", "heen"]) == [N, N, N, P]
    assert replay.classify(["om", "je"]) == [N, N]
    with pytest.raises(ValueError):
        replay.classify(["niet", "aanwezig"])
    with pytest.raises(EmptyWindowError):
        replay.classify([])
    with pytest.raises(ValueError, match="must align"):
        ReplayClassifier(["kijk", "om"], [N])
    # "a b" occurs twice, with other labels the second time: the first match serves
    repeated = ReplayClassifier(["a", "b", "c", "a", "b"], [N, C, N, P, C])
    assert repeated.classify(["a", "b"]) == [N, C]
    assert repeated.classify(["a"]) == [N]
    assert repeated.classify(["c", "a", "b"]) == [N, P, C]


def _linear_find(words, window):
    """The word-by-word scan the encoded search replaced: first contiguous match."""
    m = len(window)
    for start in range(len(words) - m + 1):
        if words[start : start + m] == list(window):
            return start
    return None


def _find_or_none(replay, window):
    try:
        return replay._find(window)
    except ValueError:
        return None


def test_replay_find_matches_linear_scan_on_repetitive_streams():
    rng = random.Random(4)
    for case in range(300):
        # a prefix of rare words widens the ids to 2 bytes in half the cases,
        # so byte matches that straddle two ids occur
        prefix = [f"r{i}" for i in range(rng.choice([0, 300]))]
        body = [rng.choice(["ab", "ba", "r1", "r256"]) for _ in range(rng.randrange(1, 60))]
        words = prefix + body
        replay = ReplayClassifier(words, [N] * len(words))
        for _ in range(10):
            if rng.random() < 0.5:
                start = rng.randrange(len(words))
                window = words[start : start + rng.randrange(1, 8)]
            else:
                pool = ["ab", "ba", "r1", "r256", "r257"]
                window = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            assert _find_or_none(replay, window) == _linear_find(words, window), (case, window)


def test_replay_find_skips_a_match_inside_two_word_ids():
    # 258 distinct words need 2-byte little-endian ids: r0 is 00 00, r1 is 01 00,
    # r256 is 00 01 and r257 is 01 01
    words = [f"r{i}" for i in range(258)] + ["r256", "r256", "r0"]
    replay = ReplayClassifier(words, [N] * len(words))
    # "r256 r257" holds 01 01 one byte before r257's own id
    assert replay._find(["r257"]) == 257
    assert replay._find(["r256", "r0"]) == len(words) - 2
    # "r256 r256 r0" holds r1 r1 (01 00 01 00) only at an odd byte offset
    with pytest.raises(ValueError):
        replay._find(["r1", "r1"])
    with pytest.raises(ValueError):
        replay._find(["r0", "r0"])


def test_label_cache_stays_bounded_and_labels_match_a_fresh_model(monkeypatch):
    from puncseg import classifier

    monkeypatch.setattr(classifier, "_LABEL_CACHE_MAX", 40)
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    rng = random.Random(8)
    vocab = sorted({t.word for t in template_corpus(50, seed=1).tokens}) + ["x", "y"]
    for _ in range(60):
        window = [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
        got = model.classify(window)
        assert len(model._label_cache) <= 40
        assert got == LinearModel(model.weights).classify(window)


def _golden_model_and_stream():
    """A model trained on templates and a 611-word stream with 10 % foreign words."""
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    rng = random.Random(7)
    foreign = ["x", "Ja", "1543", "?", "İstanbul", "ß"]
    words = [
        rng.choice(foreign) if rng.random() < 0.1 else t.word
        for t in template_corpus(90, seed=4).tokens
    ]
    return model, words


@pytest.mark.parametrize(
    "window_words, stride, digest",
    [
        (200, 1, "9ddd7bde36244c35e761fb85dc842ce63d743eace1e117d813037b8594d0dc6c"),
        (11, 2, "959f33687c40f202c6eed7ca18aa614653494e6a92898202b718de29af51630c"),
    ],
    ids=["W200-stride1", "W11-stride2"],
)
def test_segment_labels_and_boundaries_match_golden_digest(window_words, stride, digest):
    # the vote oracle calls the same classify, so only pinned output catches a scoring drift
    model, words = _golden_model_and_stream()
    out = segment(words, model, SegmenterConfig(window_words=window_words, stride=stride))
    text = " ".join(label.name for label in out.labels) + "|" + ",".join(map(str, out.boundaries))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scores_match_golden_float_hex():
    model, words = _golden_model_and_stream()
    text = "\n".join(
        " ".join(score.hex() for score in _scores(model.weights, _context_ids(*key)))
        for key in _window_keys(words[:60])
    )
    digest = "9575b2c8cfe280c568aa87ea9f07090b2e465052b4f90b0197d86feeb4145826"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_ODD_WORDS = ["<s>", "</s>", "İstanbul", "ß", "Ǆ", "ǅ", "1543", "3,5", "?", "...", "«»", ""]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_ODD_WORDS), st.text(max_size=10)), min_size=4, max_size=4
    )
)
def test_context_ids_match_the_string_built_oracle(words):
    prev, cur, nxt, nxt2 = words
    for bucket in ("0", "1", "2", "3", "4+"):
        for is_last in (False, True):
            key = (prev, cur, nxt, nxt2, bucket, is_last)
            assert _context_ids(*key) == brute_force_context_ids(*key)


def test_scores_add_rows_bit_for_bit_like_the_in_place_loop():
    values = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1, -2.5, 3.0]
    for rows in (list, tuple):  # training adds list rows, load_model builds tuple rows
        rng = random.Random(5)
        weights = {fid: rows(rng.choice(values) for _ in range(N_LABELS)) for fid in range(12)}
        weights[12] = rows([-0.0] * N_LABELS)
        for _ in range(3000):
            ids = [rng.randrange(16) for _ in range(rng.randrange(11))]  # 13 to 15 have no row
            got = _scores(weights, ids)
            assert [s.hex() for s in got] == [s.hex() for s in brute_force_scores(weights, ids)]
        assert [s.hex() for s in _scores(weights, [12, 15])] == ["0x0.0p+0"] * N_LABELS
        # one score per label, whether or not any id has a row
        assert len(_scores(weights, [])) == N_LABELS
        assert len(_scores(weights, [13, 14, 15])) == N_LABELS


_WEIGHT_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1]


def _oracle_labels(weights, window):
    """The first argmax of the oracle scores at each window position."""
    want = []
    for key in _window_keys(window):
        scores = brute_force_scores(weights, brute_force_context_ids(*key))
        want.append(LABELS[scores.index(max(scores))])
    return want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_ODD_WORDS), st.text(max_size=6)), min_size=1, max_size=12
    ),
    st.data(),
)
def test_classify_takes_the_first_argmax_of_the_oracle_scores(window, data):
    keys = _window_keys(window)
    ids = sorted({fid for key in keys for fid in brute_force_context_ids(*key)})
    row = st.tuples(*[st.sampled_from(_WEIGHT_VALUES)] * N_LABELS)
    weights = {fid: data.draw(row) for fid in ids if data.draw(st.booleans())}  # some have none
    want = _oracle_labels(weights, window)
    assert LinearModel(weights).classify(window) == want
    # pre-warm a random subset of the contexts, so the first miss, which
    # fetches the window's rows, lands at a random offset
    model = LinearModel(weights)
    for key, label in zip(keys, want):
        if data.draw(st.booleans()):
            model._label_cache[key] = LABELS.index(label)
    assert model.classify(window) == want
    assert model.classify(window) == want  # now every context hits


def test_a_call_whose_contexts_all_hit_the_cache_fetches_no_rows():
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    window = [t.word for t in template_corpus(20, seed=5).tokens][:60] + ["x", "İstanbul"]
    first = model.classify(window)
    fetched = []
    rows = model._rows
    model._rows = lambda word: fetched.append(word) or rows(word)
    assert model.classify(window) == first
    assert fetched == []
    longer = window + ["y"]  # new contexts: the rows of <s>, </s> and every word are fetched
    assert model.classify(longer) == _oracle_labels(model.weights, longer)
    assert sorted(fetched) == sorted(["<s>", "</s>", *longer])


def test_label_cache_stays_within_its_bound_inside_one_long_call(monkeypatch):
    from puncseg import classifier

    monkeypatch.setattr(classifier, "_LABEL_CACHE_MAX", 50)
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    window = [f"w{i}" for i in range(120)]  # 120 distinct contexts
    assert model.classify(window) == _oracle_labels(model.weights, window)
    assert 0 < len(model._label_cache) <= 50


@pytest.mark.parametrize("first, second", [(1, 2), (2, N_LABELS - 1), (0, 3), (0, 1)])
def test_a_tie_between_two_labels_goes_to_the_earlier_one(first, second):
    # the two halves of the tie come from different feature rows
    ids = _context_ids(*_window_keys(["a"])[0])
    row_w = [0.0] * N_LABELS
    row_b = [0.0] * N_LABELS
    row_w[first] = 1.5
    row_b[second] = 1.5
    model = LinearModel({ids[0]: row_w, ids[6]: row_b})
    assert model.classify(["a"]) == [LABELS[first]]


def test_word_id_memo_stays_bounded_and_labels_match_the_oracle(monkeypatch):
    from puncseg import classifier

    monkeypatch.setattr(classifier, "_WORD_IDS_MAX", 50)
    monkeypatch.setattr(classifier, "_WORD_IDS", {})
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    rng = random.Random(9)
    vocab = sorted({t.word for t in template_corpus(50, seed=1).tokens})
    vocab += [f"w{i}" for i in range(300)]
    seen = set()
    for _ in range(60):
        window = [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
        seen.update(window)
        got = model.classify(window)
        assert len(classifier._WORD_IDS) <= 50
        assert got == _oracle_labels(model.weights, window)
    assert len(seen) > 4 * 50


def test_word_row_memo_stays_bounded_and_labels_match_the_oracle_after_a_clear(monkeypatch):
    from puncseg import classifier

    monkeypatch.setattr(classifier, "_WORD_IDS_MAX", 50)
    model = train_reference([template_corpus(200, seed=3)], epochs=2, seed=0)
    rng = random.Random(10)
    vocab = sorted({t.word for t in template_corpus(50, seed=1).tokens})
    vocab += [f"w{i}" for i in range(300)]
    clears = 0
    for _ in range(60):
        window = [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
        model._label_cache.clear()  # score every context from the row memo
        before = len(model._word_rows)
        got = model.classify(window)
        assert len(model._word_rows) <= 50
        clears += len(model._word_rows) < before
        assert got == _oracle_labels(model.weights, window)
    assert clears >= 3
