import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_significance
from puncseg.errors import (
    ConfigError,
    EmptyMatrixError,
    EmptyScoresError,
    LengthMismatchError,
    OutOfRangeError,
    TooShortError,
)
from puncseg.metrics import (
    REPORT_INDEX,
    boundary_score,
    boundary_tsv,
    boundaries_from_document,
    confusion,
    confusion_tsv,
    f1_score,
    format_report,
    paired_significance,
    report,
    report_tsv,
    split_testfiles,
    summaries_tsv,
    summarize,
)
from puncseg.sepp import REPORT_ORDER, LabeledToken, PunctLabel, SeppDocument

N = PunctLabel.NONE
P = PunctLabel.PERIOD
C = PunctLabel.COMMA
Q = PunctLabel.QUESTION

# Reference classifier scorecards (per-class precision, recall, f1, support,
# then accuracy / macro / weighted rows), used as numeric regression fixtures.
SCORECARD_MAIN = {
    "rows": {
        N: (0.992584, 0.994595, 0.993588, 9627605),
        P: (0.960450, 0.962452, 0.961450, 433554),
        C: (0.816974, 0.804882, 0.810883, 379759),
        Q: (0.871368, 0.826812, 0.848506, 13494),
        PunctLabel.DASH: (0.619905, 0.367690, 0.461591, 27341),
        PunctLabel.COLON: (0.718636, 0.602076, 0.655212, 18305),
    },
    "accuracy": 0.983874,
    "macro": (0.829986, 0.759751, 0.788538),
    "weighted": (0.983302, 0.983874, 0.983492),
    "total": 10500058,
}

EXTRA_SCORECARDS = [
    # (per-class (p, r, f1) in report label order, macro f1)
    (
        [
            (0.982554, 0.989277, 0.985904),
            (0.858432, 0.852403, 0.855407),
            (0.754981, 0.689276, 0.720634),
            (0.732037, 0.646400, 0.686558),
            (0.849020, 0.629105, 0.722703),
            (0.740604, 0.659131, 0.697497),
        ],
        0.778117,
    ),
    (
        [
            (0.992625, 0.994700, 0.993662),
            (0.960790, 0.956852, 0.958817),
            (0.815222, 0.810991, 0.813101),
            (0.867011, 0.772047, 0.816778),
            (0.657312, 0.358070, 0.463597),
            (0.708049, 0.613166, 0.657201),
        ],
        0.783859,
    ),
    (
        [
            (0.983286, 0.990781, 0.987020),
            (0.900062, 0.812584, 0.854089),
            (0.713272, 0.732957, 0.722980),
            (0.739526, 0.614814, 0.671428),
            (0.727932, 0.529030, 0.612744),
            (0.725112, 0.694275, 0.709358),
        ],
        0.759603,
    ),
]


def test_f1_formula_reproduces_scorecard():
    for label, (p, r, f1, _) in SCORECARD_MAIN["rows"].items():
        assert f1_score(p, r) == pytest.approx(f1, abs=1e-4), label


def test_macro_f1_is_mean_of_class_f1():
    f1s = [row[2] for row in SCORECARD_MAIN["rows"].values()]
    assert sum(f1s) / 6 == pytest.approx(SCORECARD_MAIN["macro"][2], abs=1e-6)


@pytest.mark.parametrize("rows,macro_f1", EXTRA_SCORECARDS)
def test_other_scorecards_are_internally_consistent(rows, macro_f1):
    for p, r, f1 in rows:
        assert f1_score(p, r) == pytest.approx(f1, abs=1e-4)
    assert sum(f1 for _, _, f1 in rows) / 6 == pytest.approx(macro_f1, abs=1e-6)


def test_confusion_diagonal_for_identical_sequences():
    labels = [N, P, C, Q, N, N, P]
    cm = confusion(labels, labels)
    assert sum(map(sum, cm)) == len(labels)
    assert sum(cm[i][i] for i in range(6)) == len(labels)


def test_confusion_places_counts_by_gold_row_pred_column():
    cm = confusion([P, N], [C, N])
    assert cm[REPORT_INDEX[P]][REPORT_INDEX[C]] == 1
    assert cm[REPORT_INDEX[N]][REPORT_INDEX[N]] == 1
    assert sum(map(sum, cm)) == 2


def test_confusion_matches_brute_force_counter():
    rng = random.Random(0)
    pool = list(PunctLabel)
    gold = [rng.choice(pool) for _ in range(1000)]
    pred = [rng.choice(pool) for _ in range(1000)]
    cm = confusion(gold, pred)
    for g in pool:
        for p in pool:
            want = sum(1 for a, b in zip(gold, pred) if a is g and b is p)
            assert cm[REPORT_INDEX[g]][REPORT_INDEX[p]] == want


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatchError):
        confusion([N], [N, P])


def _random_matrix(rng, scale=50):
    cm = [[rng.randrange(scale) for _ in range(6)] for _ in range(6)]
    if sum(map(sum, cm)) == 0:
        cm[0][0] = 1
    return cm


def test_report_all_diagonal_is_perfect():
    cm = [[3 if g == p else 0 for p in range(6)] for g in range(6)]
    rep = report(cm)
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == 1.0
    for m in rep.per_class.values():
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_report_zero_denominator_scores_zero():
    cm = [[0] * 6 for _ in range(6)]
    cm[REPORT_INDEX[N]][REPORT_INDEX[N]] = 5
    rep = report(cm)
    assert rep.per_class[P].precision == 0.0
    assert rep.per_class[P].recall == 0.0
    assert rep.per_class[P].f1 == 0.0


def test_report_empty_matrix():
    with pytest.raises(EmptyMatrixError):
        report([[0] * 6 for _ in range(6)])


def test_report_weighted_recall_equals_accuracy():
    rng = random.Random(9)
    rep = report(_random_matrix(rng))
    assert rep.weighted_recall == pytest.approx(rep.accuracy, abs=1e-12)


def test_label_permutation_leaves_accuracy_and_macro_f1_invariant():
    rng = random.Random(4)
    pool = list(PunctLabel)
    gold = [rng.choice(pool) for _ in range(400)]
    pred = [rng.choice(pool) for _ in range(400)]
    base = report(confusion(gold, pred))
    perm = dict(zip(pool, [C, Q, N, PunctLabel.DASH, P, PunctLabel.COLON]))
    mapped = report(confusion([perm[g] for g in gold], [perm[p] for p in pred]))
    assert mapped.accuracy == pytest.approx(base.accuracy, abs=1e-12)
    assert mapped.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)


def test_boundary_score_perfect_match():
    s = boundary_score({1, 5, 9}, {1, 5, 9})
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_boundary_score_half():
    s = boundary_score({4, 9}, {4, 11})
    assert (s.tp, s.fp, s.fn) == (1, 1, 1)
    assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)


def test_boundary_score_empty_prediction():
    s = boundary_score({1, 2}, set())
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_boundary_score_symmetry_swaps_precision_recall():
    rng = random.Random(2)
    for _ in range(50):
        gold = {rng.randrange(30) for _ in range(rng.randrange(8))}
        pred = {rng.randrange(30) for _ in range(rng.randrange(8))}
        ab = boundary_score(gold, pred)
        ba = boundary_score(pred, gold)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.f1 == ba.f1


def test_boundary_score_out_of_range():
    with pytest.raises(OutOfRangeError):
        boundary_score({3}, {10}, stream_length=5)
    with pytest.raises(OutOfRangeError):
        boundary_score({-1}, set(), stream_length=5)


def test_boundaries_from_document_uses_segmenter_set():
    doc = SeppDocument(
        [
            LabeledToken("a", True, P),
            LabeledToken("b", False, C),
            LabeledToken("c", False, Q),
        ]
    )
    assert boundaries_from_document(doc, {P}) == {0}
    assert boundaries_from_document(doc, {P, Q}) == {0, 2}


def _sentence_corpus(n_sentences):
    tokens = []
    for k in range(n_sentences):
        tokens.append(LabeledToken(f"w{k}", False, N))
        tokens.append(LabeledToken(f"e{k}", True, P))
    return SeppDocument(tokens, source_id="corpus")


def test_split_testfiles_drops_remainder():
    files = split_testfiles(_sentence_corpus(3500), 1000)
    assert len(files) == 3
    assert all(len(f.sentences()) == 1000 for f in files)
    # the remainder is dropped, blocks are consecutive
    assert files[0].tokens[0].word == "w0"
    assert files[2].tokens[-1].word == "e2999"


def test_split_testfiles_exact_fit():
    files = split_testfiles(_sentence_corpus(1000), 1000)
    assert len(files) == 1


def test_split_testfiles_too_short():
    with pytest.raises(TooShortError):
        split_testfiles(_sentence_corpus(10), 1000)


@pytest.mark.parametrize("sentences_per_file", [0, -1])
def test_split_testfiles_rejects_a_block_size_below_one(sentences_per_file):
    with pytest.raises(ValueError, match="must be positive"):
        split_testfiles(_sentence_corpus(10), sentences_per_file)


@pytest.mark.parametrize("sentences_per_file", [2.5, True, "2"])
def test_split_testfiles_rejects_a_block_size_that_is_not_an_int(sentences_per_file):
    # True would act as 1, 2.5 would fail in a slice with a raw TypeError
    with pytest.raises(ConfigError, match="sentences_per_file must be an int") as err:
        split_testfiles(_sentence_corpus(10), sentences_per_file)
    assert err.value.code == "CONFIG"


def test_summarize_single_score():
    s = summarize([0.5])
    assert (s.median, s.average, s.stddev) == (0.5, 0.5, 0.0)
    assert (s.ci_low, s.ci_high) == (0.5, 0.5)


def test_summarize_rank_indices_at_10000():
    rng = random.Random(8)
    scores = [rng.random() for _ in range(10000)]
    s = summarize(scores)
    ordered = sorted(scores)
    assert s.ci_low == ordered[250]  # rank 251
    assert s.ci_high == ordered[9749]  # rank 9750


def test_summarize_rank_indices_at_1000():
    rng = random.Random(8)
    scores = [rng.random() for _ in range(1000)]
    s = summarize(scores)
    ordered = sorted(scores)
    assert s.ci_low == ordered[25]  # rank 26
    assert s.ci_high == ordered[974]  # rank 975


def test_summarize_matches_numpy_oracle():
    rng = random.Random(17)
    scores = [rng.random() for _ in range(1000)]
    s = summarize(scores)
    arr = np.array(scores)
    assert s.median == pytest.approx(float(np.median(arr)), abs=1e-12)
    assert s.average == pytest.approx(float(arr.mean()), abs=1e-12)
    assert s.stddev == pytest.approx(float(arr.std(ddof=0)), abs=1e-12)
    ordered = np.sort(arr)
    assert s.ci_low == ordered[25]
    assert s.ci_high == ordered[974]


def test_summarize_invariant_under_permutation():
    rng = random.Random(5)
    scores = [rng.random() for _ in range(101)]
    shuffled = scores[:]
    rng.shuffle(shuffled)
    assert summarize(scores) == summarize(shuffled)


def test_summarize_median_between_ci_for_n3():
    rng = random.Random(6)
    for _ in range(50):
        s = summarize([rng.random() for _ in range(rng.randrange(3, 40))])
        assert s.ci_low <= s.median <= s.ci_high


def test_summarize_empty():
    with pytest.raises(EmptyScoresError):
        summarize([])


def _enumerated_p(diffs):
    n = len(diffs)
    observed = abs(sum(diffs) / n)
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        if abs(sum(d * s for d, s in zip(diffs, signs)) / n) >= observed:
            count += 1
    return count / 2**n


def test_paired_identical_scores_give_p_one():
    scores = [0.3, 0.5, 0.7, 0.2]
    assert paired_significance(scores, scores, permutations=2 ** 4) == 1.0
    assert paired_significance(scores, scores, permutations=200, seed=0) == 1.0


def test_paired_constant_shift_exhaustive():
    b = [0.1 * k for k in range(10)]
    a = [x + 1.0 for x in b]
    p = paired_significance(a, b, permutations=2 ** 10)
    assert p == 2 / 1024


def test_paired_small_case_matches_enumeration():
    a = [0.6, 0.4, 0.5]
    b = [0.5, 0.5, 0.5]  # diffs +0.1, -0.1, 0
    p = paired_significance(a, b, permutations=2 ** 3)
    assert p == _enumerated_p([0.1 - 0.0, -0.1, 0.0])
    assert p == 1.0


def test_paired_exhaustive_matches_enumeration_on_random_cases():
    rng = random.Random(30)
    for _ in range(20):
        n = rng.randrange(2, 11)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        p = paired_significance(a, b, permutations=2 ** n)
        assert p == _enumerated_p([x - y for x, y in zip(a, b)])


def test_paired_exhaustive_triggered_by_large_budget():
    a = [0.9, 0.8, 0.7]
    b = [0.1, 0.2, 0.3]
    assert paired_significance(a, b, permutations=10000) == _enumerated_p(
        [x - y for x, y in zip(a, b)]
    )


def test_paired_monte_carlo_deterministic_and_additive():
    rng = random.Random(1)
    a = [rng.random() for _ in range(40)]
    b = [rng.random() for _ in range(40)]
    p1 = paired_significance(a, b, permutations=999, seed=7)
    p2 = paired_significance(a, b, permutations=999, seed=7)
    assert p1 == p2
    # sampled p follows the add-one rule, so it can never be zero
    assert p1 >= 1 / 1000


def test_paired_length_mismatch_and_too_short():
    with pytest.raises(LengthMismatchError):
        paired_significance([0.1], [0.1, 0.2])
    with pytest.raises(TooShortError):
        paired_significance([0.1], [0.2])


@pytest.mark.parametrize("permutations", [0, -1, -2])
def test_paired_rejects_fewer_than_one_permutation(permutations):
    # 2**2 <= permutations never holds, so these would reach the sampling branch
    with pytest.raises(OutOfRangeError):
        paired_significance([0.1, 0.5], [0.2, 0.3], permutations=permutations)


@pytest.mark.parametrize(
    "name, value",
    [("permutations", 2.5), ("permutations", True), ("permutations", "100"),
     ("seed", 0.5), ("seed", "x"), ("seed", True), ("seed", None)],
)
def test_paired_rejects_arguments_that_are_not_ints(name, value):
    # checked before the lengths: these lists would raise LengthMismatchError
    kwargs = {"permutations": 100, "seed": 0, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be an int") as err:
        paired_significance([0.1, 0.5], [0.2], **kwargs)
    assert err.value.code == "CONFIG"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("permutations", [4, 100])  # exhaustive, then sampled
def test_paired_rejects_a_score_that_is_not_finite(bad, permutations):
    for a, b in (([bad, 0.1, 0.2], [0.1] * 3), ([0.1] * 3, [0.2, bad, 0.1])):
        with pytest.raises(OutOfRangeError, match="finite") as err:
            paired_significance(a, b, permutations=permutations)
        assert err.value.code == "OUT_OF_RANGE"
    # finite scores whose difference overflows are refused the same way
    with pytest.raises(OutOfRangeError, match="finite"):
        paired_significance([1e308, 0.0], [-1e308, 0.0], permutations=permutations)


@pytest.mark.parametrize("permutations", [8, 1000])  # exhaustive, then sampled
def test_paired_rejects_finite_differences_whose_sum_overflows(permutations):
    # each difference is finite, but 1e308 + 1e308 is inf, and a pattern whose
    # partial sum reaches inf would count as at least as extreme as the observed
    with pytest.raises(OutOfRangeError, match="finite") as err:
        paired_significance([1e308] * 3, [0.0] * 3, permutations=permutations)
    assert err.value.code == "OUT_OF_RANGE"
    with pytest.raises(OutOfRangeError, match="finite"):
        paired_significance([1e308, -1e308, 1e308], [0.0] * 3, permutations=permutations)


def test_paired_large_finite_sums_keep_the_exact_p_value():
    # the same pattern at scale 1e307 sums to 3e307: finite, so the exact 2/8
    assert paired_significance([1e307] * 3, [0.0] * 3, permutations=1000) == 0.25
    assert paired_significance([1.0] * 3, [0.0] * 3, permutations=1000) == 0.25


_SCORE = st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.1, 1 / 3, 2 / 3]) | st.floats(0, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_SCORE, _SCORE), min_size=2, max_size=150),
    st.integers(1, 500),
    st.integers(-(2**64), 2**64),
)
def test_paired_significance_equals_the_per_bit_oracle(pairs, permutations, seed):
    # repeated values give repeated, zero and -0.0 differences; for n <= 8
    # permutations falls on both sides of 2**n, so both branches are drawn
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    got = paired_significance(a, b, permutations=permutations, seed=seed)
    assert got == brute_force_significance(a, b, permutations, seed)


@pytest.mark.parametrize(
    "a, b",
    [([0.3, 0.5, 0.7, 0.2], [0.3, 0.5, 0.7, 0.2]),  # identical: every difference is 0
     ([0.5, 0.1, 0.7, 0.2], [0.1, 0.5, 0.2, 0.7])],  # differences that cancel in pairs
)
@pytest.mark.parametrize("permutations", [16, 1000, 15, 3])  # exhaustive twice, then sampled
def test_paired_a_zero_statistic_gives_exactly_one_in_both_branches(a, b, permutations):
    # every finite |S| / n is at least 0, so every pattern counts
    assert sum(x - y for x, y in zip(a, b)) == 0
    assert paired_significance(a, b, permutations=permutations, seed=5) == 1.0
    assert brute_force_significance(a, b, permutations, 5) == 1.0


def test_paired_a_pattern_whose_grouped_sum_rounds_below_counts_by_its_in_order_sum():
    # Fourteen differences of 0.1 sum in order to 1.4000000000000001, but as
    # 8 + 6, the way the sampled branch's tables group them, to 1.4, and
    # 1.4 / 14 < 1.4000000000000001 / 14.  An all-same-sign pattern therefore
    # counts only if it is decided by its in-order sum.
    diffs = [0.1] * 14
    assert sum(diffs) == 1.4000000000000001
    assert sum(diffs[:8]) + sum(diffs[8:]) == 1.4
    assert abs(1.4 / 14) < abs(sum(diffs) / 14)
    permutations, seed = 1000, 16
    rng = random.Random(seed)  # the oracle's draws: seed 16 draws such a pattern
    patterns = [{rng.getrandbits(1) for _ in diffs} for _ in range(permutations)]
    assert permutations < 2**14 and ({0} in patterns or {1} in patterns)
    got = paired_significance(diffs, [0.0] * 14, permutations=permutations, seed=seed)
    assert got == brute_force_significance(diffs, [0.0] * 14, permutations, seed)
    assert got == (1 + sum(len(p) == 1 for p in patterns)) / (1 + permutations)


@pytest.mark.parametrize("case", ["ties", "random"])
def test_paired_significance_matches_the_oracle_at_the_benchmark_shape(case):
    # the research loop's comparison: 100 blocks, 10,000 sampled patterns
    if case == "ties":
        a, b = [1 / 3] * 96 + [0.0] * 4, [0.0] * 100
    else:
        rng = random.Random(20)
        a = [rng.random() for _ in range(100)]
        b = [rng.random() for _ in range(100)]
    got = paired_significance(a, b, permutations=10000, seed=20)
    assert got == brute_force_significance(a, b, 10000, 20)


@pytest.mark.parametrize("seed", [0, 1, 20, -7, 2**70])
@pytest.mark.parametrize("n", [1, 2, 101])
def test_getrandbits_packs_successive_32_bit_outputs_least_significant_first(seed, n):
    # the sampled signs rely on this: if a Python changes it, p-values would
    # change silently, so it fails here instead
    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(n)]
    assert random.Random(seed).getrandbits(32 * n) == sum(w << (32 * i) for i, w in enumerate(words))
    rng = random.Random(seed)
    assert [rng.getrandbits(1) for _ in range(n)] == [w >> 31 for w in words]


def test_format_report_shape():
    cm = confusion([N, P, C], [N, P, P])
    text = format_report(report(cm))
    lines = text.splitlines()
    assert lines[0].split() == ["class", "precision", "recall", "f1-score", "support"]
    assert len(lines) == 1 + 6 + 1 + 3
    assert lines[-2].startswith("   macro avg")


def test_report_tsv_shape():
    cm = confusion([N, P], [N, P])
    text = report_tsv(report(cm))
    lines = text.splitlines()
    assert lines[0] == "class\tprecision\trecall\tf1\tsupport"
    assert len(lines) == 1 + 6 + 3


def test_confusion_tsv_header_and_order():
    cm = confusion([N, P], [N, C])
    text = confusion_tsv(cm)
    lines = text.splitlines()
    assert lines[0] == "\t0\t.\t,\t?\t-\t:"
    assert [line.split("\t")[0] for line in lines[1:]] == ["0", ".", ",", "?", "-", ":"]
    assert REPORT_ORDER[0] is N


def test_summaries_tsv_shape():
    s = summarize([0.5, 0.6, 0.7])
    text = summaries_tsv([("A", s), ("B", s)])
    lines = text.splitlines()
    assert lines[0] == "condition\tn\tmedian\taverage\tstddev\tci_lo\tci_hi"
    assert len(lines) == 3
    assert lines[1].startswith("A\t3\t")


# Exact table text for fixed inputs: every TSV writer must keep these bytes.
_GOLD_LABELS = [N, P, C, N, Q, P, N, C, PunctLabel.DASH, N]
_PRED_LABELS = [N, P, N, C, P, P, N, C, N, N]


def test_report_tsv_golden_bytes():
    assert report_tsv(report(confusion(_GOLD_LABELS, _PRED_LABELS))) == (
        "class\tprecision\trecall\tf1\tsupport\n"
        "0\t0.600000\t0.750000\t0.666667\t4\n"
        ".\t0.666667\t1.000000\t0.800000\t2\n"
        ",\t0.500000\t0.500000\t0.500000\t2\n"
        "?\t0.000000\t0.000000\t0.000000\t1\n"
        "-\t0.000000\t0.000000\t0.000000\t1\n"
        ":\t0.000000\t0.000000\t0.000000\t0\n"
        "accuracy\t\t\t0.600000\t10\n"
        "macro avg\t0.294444\t0.375000\t0.327778\t10\n"
        "weighted avg\t0.473333\t0.600000\t0.526667\t10\n"
    )


def test_confusion_tsv_golden_bytes():
    assert confusion_tsv(confusion(_GOLD_LABELS, _PRED_LABELS)) == (
        "\t0\t.\t,\t?\t-\t:\n"
        "0\t3\t0\t1\t0\t0\t0\n"
        ".\t0\t2\t0\t0\t0\t0\n"
        ",\t1\t0\t1\t0\t0\t0\n"
        "?\t0\t1\t0\t0\t0\t0\n"
        "-\t1\t0\t0\t0\t0\t0\n"
        ":\t0\t0\t0\t0\t0\t0\n"
    )


def test_boundary_tsv_golden_bytes():
    assert boundary_tsv(boundary_score({1, 4, 9}, {1, 3, 4, 7})) == (
        "tp\tfp\tfn\tprecision\trecall\tf1\n"
        "2\t2\t1\t0.500000\t0.666667\t0.571429\n"
    )


def test_summaries_tsv_golden_bytes():
    # integer scores keep the fixed six-decimal columns
    rows = [("A", summarize([0.5, 0.75, 1.0, 2 / 3])), ("B", summarize([3, 1, 2]))]
    assert summaries_tsv(rows) == (
        "condition\tn\tmedian\taverage\tstddev\tci_lo\tci_hi\n"
        "A\t4\t0.708333\t0.729167\t0.180422\t0.500000\t1.000000\n"
        "B\t3\t2.000000\t2.000000\t0.816497\t1.000000\t3.000000\n"
    )
