"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The numeric regressions check the metric code against a published
reference scorecard; the pipeline checks compare against brute-force
oracles and synthetic corpora with known structure.  The final external
integration check is environment-gated and skips when no external model
is configured.
"""

import itertools
import os
import random
import time

import pytest

from corpora import template_corpus
from oracles import HashClassifier, brute_force_render, brute_force_segment
from puncseg.classifier import ReplayClassifier, train_reference
from puncseg.errors import SeppParseError
from puncseg.external import ExternalAdapterConfig, ExternalClassifier
from puncseg.metrics import (
    boundary_score,
    boundaries_from_document,
    confusion,
    f1_score,
    paired_significance,
    report,
    summarize,
)
from puncseg.segmenter import SegmenterConfig, accumulate_votes, decide, segment
from puncseg.sepp import (
    LabeledToken,
    PunctLabel,
    SeppDocument,
    parse_sepp,
    parse_sepp_file,
    strip_labels,
    write_sepp,
)
from puncseg.textprep import SplitSpec, split_corpus
from sample_streams import (
    COPERNICUS_PRED,
    COPERNICUS_WORDS,
    TELESCOPE_PRED,
    TELESCOPE_WORDS,
    labels_for,
)
from test_metrics import SCORECARD_MAIN, _random_matrix

N = PunctLabel.NONE
P = PunctLabel.PERIOD


def _pass(line):
    print(f"[acceptance] PASS - {line}")


# --- shared random segmentation cases (criteria 3-5) -----------------------

THETAS = (0.0, 0.1, 0.5, 0.99, 1.0)


def _random_cases(n_cases=1000, seed=77):
    rng = random.Random(seed)
    labels = list(PunctLabel)
    cases = []
    for case_no in range(n_cases):
        stream = [f"u{rng.randrange(12)}" for _ in range(rng.randrange(1, 31))]
        window = rng.randrange(1, 6)
        seg_set = frozenset(rng.sample(labels[1:], rng.randrange(1, 4)))
        theta = rng.choice(THETAS)
        clf = HashClassifier(case_no, spread=rng.choice([2, 3, 4, 6]))
        cases.append((stream, window, seg_set, theta, clf))
    return cases


@pytest.fixture(scope="module")
def random_cases():
    return _random_cases()


@pytest.fixture(scope="module")
def case_votes(random_cases):
    votes = []
    for stream, window, seg_set, theta, clf in random_cases:
        cfg = SegmenterConfig(window_words=window, stride=1)
        votes.append(accumulate_votes(stream, clf, cfg))
    return votes


def test_metric_oracle_scorecard_regression():
    """Criterion 1: the F1 formula reproduces the published scorecard."""
    for label, (p, r, f1, _) in SCORECARD_MAIN["rows"].items():
        assert abs(f1_score(p, r) - f1) < 1e-4, label.char
    printed_f1s = [row[2] for row in SCORECARD_MAIN["rows"].values()]
    macro = sum(printed_f1s) / 6
    assert abs(macro - SCORECARD_MAIN["macro"][2]) < 1e-6
    _pass(
        "criterion 1: per-class F1 within 1e-4 of the reference scorecard, "
        f"macro {macro:.6f} within 1e-6 of {SCORECARD_MAIN['macro'][2]}"
    )


def test_micro_f1_equals_accuracy():
    """Criterion 2: micro F1 == accuracy, exactly, on 1000 random matrices."""
    rng = random.Random(2024)
    for _ in range(1000):
        rep = report(_random_matrix(rng))
        assert rep.micro_f1 == rep.accuracy
    _pass("criterion 2: micro F1 == accuracy exactly on 1000 random confusion matrices")


def test_segmenter_matches_brute_force_oracle(random_cases, case_votes):
    """Criterion 3: bitwise equality with the enumeration oracle, < 10 s."""
    started = time.perf_counter()
    checked = 0
    for (stream, window, seg_set, theta, clf), votes in zip(random_cases, case_votes):
        for pooling in ("per_class", "pooled"):
            cfg = SegmenterConfig(
                window_words=window, theta=theta, segmenters=seg_set, pooling=pooling
            )
            labels, bounds = decide(votes, cfg)
            want_labels, want_bounds = brute_force_segment(
                stream, clf, window, 1, theta, seg_set, pooling
            )
            assert labels == want_labels
            assert bounds == want_bounds
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(
        f"criterion 3: {checked} oracle comparisons (1000 cases x 2 pooling modes) "
        f"bitwise equal in {elapsed:.1f}s"
    )


def test_theta_monotonicity(random_cases, case_votes):
    """Criterion 4: accepted positions shrink as theta rises; zero violations."""
    grid = [k * 0.05 for k in range(21)]
    violations = 0
    for (stream, window, seg_set, _, clf), votes in zip(random_cases, case_votes):
        for pooling in ("per_class", "pooled"):
            previous = None
            for theta in grid:
                cfg = SegmenterConfig(
                    window_words=window, theta=theta, segmenters=seg_set, pooling=pooling
                )
                labels, _ = decide(votes, cfg)
                accepted = frozenset(i for i, lab in enumerate(labels) if lab is not N)
                if previous is not None and not accepted <= previous:
                    violations += 1
                previous = accepted
    assert violations == 0
    _pass("criterion 4: accepted-position sets shrink over theta grid; 0 violations")


def test_word_preservation(random_cases):
    """Criterion 5: to_text() holds every word of s, in order, on its segment's line."""
    for stream, window, seg_set, theta, clf in random_cases:
        cfg = SegmenterConfig(window_words=window, theta=theta, segmenters=seg_set)
        result = segment(stream, clf, cfg)
        assert result.to_text() == brute_force_render(stream, result.labels, result.boundaries)

    for words, marks in (
        (COPERNICUS_WORDS, COPERNICUS_PRED),
        (TELESCOPE_WORDS, TELESCOPE_PRED),
    ):
        replay = ReplayClassifier(words, labels_for(words, marks))
        result = segment(words, replay, SegmenterConfig())
        assert result.to_text() == brute_force_render(words, result.labels, result.boundaries)
    _pass("criterion 5: word preservation on 1000 random streams and both sample passages")


def test_replay_reproduces_reference_segment_breaks():
    """Criterion 6: replayed predictions reproduce the reference breaks."""
    replay = ReplayClassifier(COPERNICUS_WORDS, labels_for(COPERNICUS_WORDS, COPERNICUS_PRED))
    cfg = SegmenterConfig(theta=0.1, segmenters=frozenset({P}))
    result = segment(COPERNICUS_WORDS, replay, cfg)
    expected = sorted(i for i, lab in COPERNICUS_PRED.items() if lab is P)
    assert result.boundaries == expected
    assert result.boundaries == [7, 12, 29, 31, 56, 69]
    _pass(f"criterion 6: replayed segment breaks at {result.boundaries}")


def test_sepp_round_trip_and_error_classes():
    """Criterion 7: parse/write identity at 1e5 tokens; typed parse errors."""
    rng = random.Random(13)
    labels = list(PunctLabel)
    tokens = []
    for k in range(100_000):
        label = rng.choice(labels)
        if label is P:
            eos = True
        elif label is N:
            eos = False
        else:
            eos = rng.random() < 0.5
        tokens.append(LabeledToken(f"woord{k}_{rng.randrange(997)}", eos, label))
    doc = SeppDocument(tokens)
    text = write_sepp(doc)
    again = parse_sepp(text)
    assert again.tokens == doc.tokens
    assert write_sepp(again) == text

    fragment = "doos\t0\t0\nvan\t0\t0\nzouden\t0\t0\nopenen\t1\t.\nhoe\t0\t0\n"
    assert write_sepp(parse_sepp(fragment)) == fragment

    fixtures = [
        ("a\t0\t0\nb\t0\n", "LINE_FORMAT", 2),
        ("a\t0\t0\nb\t0\t0\tx\n", "LINE_FORMAT", 2),
        ("fine\t0\t0\nfoo\t2\t.\n", "BAD_FLAG", 2),
        ("fine\t0\t0\n\nword\t0\t;\n", "BAD_LABEL", 3),
        ("\t0\t0\n", "EMPTY_WORD", 1),
    ]
    for text, code, line_no in fixtures:
        with pytest.raises(SeppParseError) as exc_info:
            parse_sepp(text)
        assert exc_info.value.code == code
        assert exc_info.value.line_no == line_no
    _pass("criterion 7: round-trip identity at 100000 tokens; parse errors typed with line numbers")


def test_reference_classifier_sanity():
    """Criterion 8: trainable pipeline beats a fixed-length baseline, < 60 s."""
    started = time.perf_counter()
    corpus = template_corpus(10_000, seed=11)
    train_units, test_units = split_corpus(
        [corpus], SplitSpec(train_fraction=0.75, seed=5, unit="sentence")
    )
    train_doc = SeppDocument([t for unit in train_units for t in unit.tokens])
    test_doc = SeppDocument([t for unit in test_units for t in unit.tokens])

    model = train_reference([train_doc], epochs=5, seed=3)

    words = strip_labels(test_doc)
    gold = [t.label for t in test_doc.tokens]
    pred = []
    for start in range(0, len(words), 200):
        pred.extend(model.classify(words[start : start + 200]))
    rep = report(confusion(gold, pred))
    period_f1 = rep.per_class[P].f1
    assert period_f1 >= 0.95

    cfg = SegmenterConfig(window_words=200, stride=1, theta=0.1, segmenters=frozenset({P}))
    result = segment(words, model, cfg)
    gold_bounds = boundaries_from_document(test_doc, {P})
    pipeline = boundary_score(gold_bounds, set(result.boundaries))

    # fixed-length baseline: a boundary after every 14th word, scored by the
    # same independent set arithmetic
    baseline_bounds = set(range(13, len(words), 14))
    tp = len(gold_bounds & baseline_bounds)
    fp = len(baseline_bounds - gold_bounds)
    fn = len(gold_bounds - baseline_bounds)
    baseline_p = tp / (tp + fp) if tp + fp else 0.0
    baseline_r = tp / (tp + fn) if tp + fn else 0.0
    baseline_f1 = (
        2 * baseline_p * baseline_r / (baseline_p + baseline_r) if baseline_p + baseline_r else 0.0
    )

    assert pipeline.f1 > baseline_f1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(
        f"criterion 8: PERIOD F1 {period_f1:.4f} >= 0.95; pipeline boundary F1 "
        f"{pipeline.f1:.4f} > every-14-words baseline {baseline_f1:.4f}; {elapsed:.1f}s"
    )


def test_confidence_interval_ranks():
    """Criterion 9: rank-based CI picks ranks 251/9750 at n=10000, 26/975 at n=1000."""
    rng = random.Random(99)
    for n, lo_rank, hi_rank in ((10_000, 251, 9750), (1000, 26, 975)):
        scores = [k / n for k in range(n)]
        rng.shuffle(scores)
        s = summarize(scores)
        ordered = sorted(scores)
        assert s.ci_low == ordered[lo_rank - 1]
        assert s.ci_high == ordered[hi_rank - 1]
    _pass("criterion 9: CI ranks 251/9750 at n=10000 and 26/975 at n=1000")


def test_significance_matches_exhaustive_enumeration():
    """Criterion 10: exhaustive sign-flip test equals brute-force enumeration."""
    rng = random.Random(55)
    for trial in range(40):
        n = rng.randrange(2, 13)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        p = paired_significance(a, b, permutations=2 ** n)
        diffs = [x - y for x, y in zip(a, b)]
        observed = abs(sum(diffs) / n)
        count = 0
        for signs in itertools.product((1.0, -1.0), repeat=n):
            if abs(sum(d * s for d, s in zip(diffs, signs)) / n) >= observed:
                count += 1
        assert p == count / 2**n
    same = [rng.random() for _ in range(8)]
    assert paired_significance(same, same, permutations=2 ** 8) == 1.0
    _pass("criterion 10: exhaustive permutation p equals enumeration (n <= 12); identical -> 1.0")


EXTERNAL_CMD = os.environ.get("PUNCSEG_EXTERNAL_COMMAND")
OOD_GOLD = os.environ.get("PUNCSEG_OOD_GOLD")


@pytest.mark.skipif(
    not (EXTERNAL_CMD and OOD_GOLD),
    reason="integration check needs PUNCSEG_EXTERNAL_COMMAND and PUNCSEG_OOD_GOLD",
)
def test_external_model_out_of_domain_integration():
    """Criterion 11 (optional): a real external model lands near the published
    out-of-domain scores (P 0.8749, R 0.9380, F1 0.9053 for S={.?}), +-0.03."""
    gold = parse_sepp_file(OOD_GOLD)
    words = strip_labels(gold)
    seg_set = frozenset({P, PunctLabel.QUESTION})
    cfg = SegmenterConfig(window_words=200, stride=1, theta=0.1, segmenters=seg_set)
    with ExternalClassifier(ExternalAdapterConfig(EXTERNAL_CMD, timeout=300)) as clf:
        result = segment(words, clf, cfg)
    score = boundary_score(
        boundaries_from_document(gold, seg_set), set(result.boundaries)
    )
    assert abs(score.precision - 0.8749) <= 0.03
    assert abs(score.recall - 0.9380) <= 0.03
    assert abs(score.f1 - 0.9053) <= 0.03
    _pass(
        f"criterion 11: external model P {score.precision:.4f} R {score.recall:.4f} "
        f"F1 {score.f1:.4f} within 0.03 of the reference row"
    )
