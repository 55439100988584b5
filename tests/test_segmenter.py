import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import template_corpus
from oracles import HashClassifier, brute_force_render, brute_force_segment, brute_force_votes
from puncseg.classifier import LABELS, train_reference
from puncseg.errors import EmptyStreamError, WindowClassifyError
from puncseg.sepp import PunctLabel
from puncseg.segmenter import (
    SegmenterConfig,
    VoteTable,
    accumulate_votes,
    classify_chunked,
    decide,
    segment,
    windows,
)

N = PunctLabel.NONE
P = PunctLabel.PERIOD
C = PunctLabel.COMMA
Q = PunctLabel.QUESTION


class ConstantClassifier:
    name = "constant"
    max_window_words = None

    def __init__(self, label=N):
        self.label = label

    def classify(self, window):
        return [self.label] * len(window)


class EveryThird:
    name = "every-third"
    max_window_words = None

    def classify(self, window):
        return [P if i % 3 == 2 else N for i in range(len(window))]


class FixedLabels:
    name = "fixed"
    max_window_words = None

    def __init__(self, labels):
        self.labels = labels

    def classify(self, window):
        return self.labels[: len(window)]


def _stream(n):
    return [f"w{i}" for i in range(n)]


def test_windows_starts():
    cfg = SegmenterConfig(window_words=3, stride=1)
    ws = windows(_stream(5), cfg)
    assert [w.start for w in ws] == [0, 1, 2]
    assert all(len(w.words) == 3 for w in ws)


def test_windows_short_stream_single_window():
    ws = windows(["kijk", "om"], SegmenterConfig(window_words=200))
    assert len(ws) == 1
    assert ws[0] == (0, ["kijk", "om"])


def test_windows_long_stream_count_and_coverage():
    cfg = SegmenterConfig(window_words=200, stride=1)
    stream = _stream(1000)
    ws = windows(stream, cfg)
    assert len(ws) == 801
    votes = accumulate_votes(stream, ConstantClassifier(), cfg)
    # words in the middle appear in exactly 200 windows
    assert int(votes.coverage[500]) == 200
    assert int(votes.coverage[0]) == 1
    assert int(votes.coverage[999]) == 1


def test_windows_empty_stream():
    with pytest.raises(EmptyStreamError):
        windows([], SegmenterConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SegmenterConfig(window_words=0)
    with pytest.raises(ValueError):
        SegmenterConfig(stride=5, window_words=3)
    with pytest.raises(ValueError):
        SegmenterConfig(theta=1.5)
    with pytest.raises(ValueError):
        SegmenterConfig(segmenters=frozenset())
    with pytest.raises(ValueError):
        SegmenterConfig(segmenters=frozenset({N}))
    with pytest.raises(ValueError):
        SegmenterConfig(pooling="mean")


def test_accumulate_single_window_votes():
    cfg = SegmenterConfig(window_words=3)
    votes = accumulate_votes(["a", "b", "c"], FixedLabels([N, N, P]), cfg)
    assert list(votes.coverage) == [1, 1, 1]
    assert votes.counts[2][1] == 1  # PERIOD vote on the last word
    assert sum(map(sum, votes.counts)) == 3


def test_accumulate_coverage_n4_w3():
    cfg = SegmenterConfig(window_words=3, stride=1)
    votes = accumulate_votes(_stream(4), ConstantClassifier(), cfg)
    assert list(votes.coverage) == [1, 2, 2, 1]


def test_accumulate_deterministic():
    cfg = SegmenterConfig(window_words=4, stride=2)
    one = accumulate_votes(_stream(9), HashClassifier(7), cfg)
    two = accumulate_votes(_stream(9), HashClassifier(7), cfg)
    assert one.counts == two.counts
    assert one.coverage == two.coverage


def test_vote_table_sums_match_coverage():
    cfg = SegmenterConfig(window_words=5, stride=2)
    votes = accumulate_votes(_stream(17), HashClassifier(3, spread=6), cfg)
    assert [sum(row) for row in votes.counts] == votes.coverage
    assert max(votes.coverage) <= -(-cfg.window_words // cfg.stride)


def test_vote_table_add_window_matches_accumulate_votes():
    cfg = SegmenterConfig(window_words=4, stride=1)
    stream = _stream(12)
    clf = HashClassifier(11, spread=6)
    full = accumulate_votes(stream, clf, cfg)
    folded = VoteTable.zeros(len(stream))
    for w in windows(stream, cfg):
        folded.add_window(w.start, clf.classify(w.words))
    assert folded.counts == full.counts
    assert folded.coverage == full.coverage


def test_import_leaves_numpy_unloaded():
    import puncseg

    src = str(Path(puncseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, puncseg.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _table(rows, coverage):
    counts = [[0] * 6 for _ in coverage]
    for i, row in rows.items():
        for label_idx, count in row.items():
            counts[i][label_idx] = count
    votes = VoteTable(counts)
    assert votes.coverage == list(coverage)
    return votes


def test_decide_accepts_above_threshold():
    votes = _table({0: {1: 2, 0: 3}}, [5])
    cfg = SegmenterConfig(theta=0.1, segmenters=frozenset({P}))
    labels, bounds = decide(votes, cfg)
    assert labels == [P]
    assert bounds == {0}


def test_decide_strict_inequality_at_theta_one():
    votes = _table({0: {1: 4}}, [4])  # unanimous PERIOD
    labels, bounds = decide(votes, SegmenterConfig(theta=1.0, segmenters=frozenset({P})))
    assert labels == [N]
    assert bounds == set()


def test_decide_tie_breaks_by_label_order():
    votes = _table({0: {1: 1, 3: 1}}, [2])  # PERIOD and QUESTION at 0.5 each
    cfg = SegmenterConfig(theta=0.1, segmenters=frozenset({P, Q}))
    labels, bounds = decide(votes, cfg)
    assert labels == [P]
    assert bounds == {0}


def test_decide_pooled_sums_segmenter_votes():
    # PERIOD 0.08 + QUESTION 0.08 pools over theta 0.1; neither passes alone
    votes = _table({0: {1: 2, 3: 2, 0: 21}}, [25])
    pooled_cfg = SegmenterConfig(theta=0.1, segmenters=frozenset({P, Q}), pooling="pooled")
    labels, bounds = decide(votes, pooled_cfg)
    assert labels == [P]
    assert bounds == {0}
    per_class_cfg = SegmenterConfig(theta=0.1, segmenters=frozenset({P, Q}))
    labels, bounds = decide(votes, per_class_cfg)
    assert labels == [N]
    assert bounds == set()


def test_decide_pooled_failing_pool_still_decides_other_labels():
    # COMMA at 0.5 is accepted even though the pooled segmenter test fails
    votes = _table({0: {2: 2, 0: 2}}, [4])
    cfg = SegmenterConfig(theta=0.4, segmenters=frozenset({P}), pooling="pooled")
    labels, bounds = decide(votes, cfg)
    assert labels == [C]
    assert bounds == set()


def test_decide_uncovered_word_stays_none():
    votes = _table({1: {1: 1}}, [0, 1])
    labels, bounds = decide(votes, SegmenterConfig(theta=0.5))
    assert labels == [N, P]
    assert bounds == {1}


def test_segment_constant_none_gives_single_open_segment():
    result = segment(_stream(7), ConstantClassifier(), SegmenterConfig())
    assert result.boundaries == []
    assert result.to_text() == " ".join(_stream(7)) + "\n"


def test_segment_every_third_word():
    result = segment(_stream(10), EveryThird(), SegmenterConfig(window_words=200, theta=0.1))
    assert result.boundaries == [2, 5, 8]
    text = result.to_text()
    assert text == brute_force_render(_stream(10), result.labels, result.boundaries)
    assert [len(line.split()) for line in text.splitlines()] == [3, 3, 3, 1]


def test_segment_preserves_words():
    rng = random.Random(0)
    for case in range(50):
        stream = [f"t{rng.randrange(20)}" for _ in range(rng.randrange(1, 40))]
        cfg = SegmenterConfig(
            window_words=rng.randrange(1, 8),
            stride=1,
            theta=rng.choice([0.0, 0.1, 0.5]),
        )
        result = segment(stream, HashClassifier(case, spread=6), cfg)
        assert result.to_text() == brute_force_render(stream, result.labels, result.boundaries)


def test_single_window_passes_labels_through_for_small_theta():
    labels = [N, C, P, N, Q]
    result = segment(_stream(5), FixedLabels(labels), SegmenterConfig(theta=0.5))
    assert result.labels == labels
    assert result.boundaries == [2, 4]


def test_render_attaches_punctuation():
    labels = [N, C, P, N]
    result = segment(_stream(4), FixedLabels(labels), SegmenterConfig(theta=0.1))
    assert result.to_text() == "w0 w1, w2.\nw3\n"


def test_render_closed_final_segment():
    result = segment(["a", "b"], FixedLabels([N, P]), SegmenterConfig(theta=0.1))
    assert result.to_text() == "a b.\n"
    assert result.boundaries == [1]


def test_classifier_error_annotated_with_window_start():
    class Broken:
        name = "broken"
        max_window_words = None

        def classify(self, window):
            from puncseg.errors import EmptyWindowError

            raise EmptyWindowError("boom")

    with pytest.raises(WindowClassifyError) as exc_info:
        accumulate_votes(_stream(3), Broken(), SegmenterConfig(window_words=2))
    assert exc_info.value.window_start == 0


def test_replay_stream_mismatch_annotated_with_window_start():
    from puncseg.classifier import ReplayClassifier

    replay = ReplayClassifier(["heel", "andere", "tekst"], [N, N, P])
    with pytest.raises(WindowClassifyError) as exc_info:
        accumulate_votes(["onbekend", "stream"], replay, SegmenterConfig())
    assert exc_info.value.window_start == 0
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_length_contract_violation_detected():
    class Liar:
        name = "liar"
        max_window_words = None

        def classify(self, window):
            return [N] * (len(window) - 1)

    with pytest.raises(WindowClassifyError):
        accumulate_votes(_stream(4), Liar(), SegmenterConfig(window_words=3))


def test_chunked_calls_respect_classifier_limit():
    calls = []

    class Limited:
        name = "limited"
        max_window_words = 4

        def classify(self, window):
            calls.append(len(window))
            return [N] * len(window)

    cfg = SegmenterConfig(window_words=10, stride=10)
    votes = accumulate_votes(_stream(10), Limited(), cfg)
    assert max(calls) <= 4
    assert sum(calls) == 10
    assert list(votes.coverage) == [1] * 10


def test_theta_monotonicity_on_random_votes():
    rng = random.Random(5)
    for case in range(30):
        stream = [f"v{rng.randrange(9)}" for _ in range(rng.randrange(2, 25))]
        cfg = SegmenterConfig(window_words=rng.randrange(1, 6), stride=1)
        votes = accumulate_votes(stream, HashClassifier(100 + case, spread=6), cfg)
        for pooling in ("per_class", "pooled"):
            previous = None
            for theta in [x / 20 for x in range(21)]:
                labels, _ = decide(
                    votes,
                    SegmenterConfig(
                        window_words=cfg.window_words,
                        theta=theta,
                        pooling=pooling,
                        segmenters=frozenset({P, Q}),
                    ),
                )
                accepted = {i for i, lab in enumerate(labels) if lab is not N}
                if previous is not None:
                    assert accepted <= previous
                previous = accepted


def test_matches_brute_force_oracle_smoke():
    rng = random.Random(1)
    label_pool = list(PunctLabel)
    for case in range(100):
        n = rng.randrange(1, 31)
        stream = [f"u{rng.randrange(12)}" for _ in range(n)]
        window_words = rng.randrange(1, 6)
        theta = rng.choice([0.0, 0.1, 0.5, 0.99, 1.0])
        pooling = rng.choice(["per_class", "pooled"])
        seg_set = frozenset(rng.sample(label_pool[1:], rng.randrange(1, 4)))
        cfg = SegmenterConfig(
            window_words=window_words, theta=theta, pooling=pooling, segmenters=seg_set
        )
        clf = HashClassifier(case, spread=rng.choice([2, 3, 4, 6]))
        got = segment(stream, clf, cfg)
        want_labels, want_bounds = brute_force_segment(
            stream, clf, window_words, 1, theta, seg_set, pooling
        )
        assert got.labels == want_labels, f"case {case}"
        assert set(got.boundaries) == want_bounds, f"case {case}"


def test_stride_two_matches_oracle_and_may_leave_tail_uncovered():
    rng = random.Random(9)
    for case in range(40):
        n = rng.randrange(2, 25)
        stream = [f"s{rng.randrange(10)}" for _ in range(n)]
        window_words = rng.randrange(2, 6)
        stride = rng.randrange(2, window_words + 1)
        cfg = SegmenterConfig(window_words=window_words, stride=stride, theta=0.1)
        clf = HashClassifier(500 + case, spread=4)
        votes = accumulate_votes(stream, clf, cfg)
        slow_counts, slow_cov = brute_force_votes(stream, clf, window_words, stride)
        assert list(votes.coverage) == slow_cov
        labels, bounds = decide(votes, cfg)
        want_labels, want_bounds = brute_force_segment(
            stream, clf, window_words, stride, 0.1, cfg.segmenters, "per_class"
        )
        assert labels == want_labels
        assert bounds == want_bounds
        # uncovered tail words stay NONE
        for i, cov in enumerate(slow_cov):
            if cov == 0:
                assert labels[i] is N


def test_brute_force_votes_agree_with_fast_path():
    cfg = SegmenterConfig(window_words=3, stride=1)
    stream = _stream(6)
    clf = HashClassifier(42, spread=6)
    fast = accumulate_votes(stream, clf, cfg)
    slow_counts, slow_cov = brute_force_votes(stream, clf, 3, 1)
    from puncseg.classifier import LABELS

    for i in range(len(stream)):
        assert slow_cov[i] == int(fast.coverage[i])
        for c, label in enumerate(LABELS):
            assert slow_counts[i][label] == int(fast.counts[i][c])


# --------------------------------------------------------------------------
# Window-invariant votes: a classifier declaring ``context_words`` has most
# windows classified at their edges only.  The vote table must not change.


class Counting:
    """Forwards ``classify`` to a model and records each call's length.

    Only the capabilities passed in are declared, so ``Counting(model)``
    hides ``context_words`` and takes the generic path.
    """

    name = "counting"

    def __init__(self, inner, **capabilities):
        self.inner = inner
        self.max_window_words = None
        self.__dict__.update(capabilities)
        self.calls = []

    def classify(self, window):
        self.calls.append(len(window))
        return self.inner.classify(window)


@pytest.fixture(scope="module")
def trained():
    model = train_reference([template_corpus(200, seed=4)], epochs=2, seed=4)
    assert model.context_words == 4
    return model


_VOCAB = sorted({t.word for t in template_corpus(200, seed=4)}) + ["zo", "maar", "Dus", "1999"]


def _random_stream(rng, n):
    return [rng.choice(_VOCAB) for _ in range(n)]


def _assert_invariant_votes_exact(stream, model, window_words, stride):
    cfg = SegmenterConfig(window_words=window_words, stride=stride)
    fast = accumulate_votes(stream, model, cfg)
    generic = accumulate_votes(stream, Counting(model), cfg)
    slow_counts, _ = brute_force_votes(stream, model, window_words, stride)
    assert fast.counts == generic.counts
    assert fast.counts == [[row[label] for label in LABELS] for row in slow_counts]
    return fast


def test_window_invariant_votes_match_generic_loop_and_oracle(trained):
    rng = random.Random(2024)
    seen = set()
    labels_voted = set()
    for _ in range(1000):
        window_words = rng.choice([rng.randrange(1, 8), 8, 9, rng.randrange(10, 40)])
        n = rng.randrange(1, 3 * window_words + 20)
        stride = rng.choice([1, 1, rng.randrange(1, window_words + 1)])
        stream = _random_stream(rng, n)
        votes = _assert_invariant_votes_exact(stream, trained, window_words, stride)
        labels_voted.update(c for row in votes.counts for c, v in enumerate(row) if v)
        last = max(0, n - window_words)
        seen.add((
            "W<8" if window_words < 8 else "W==8" if window_words == 8 else "W>8",
            "n<W" if n < window_words else "n>=W",
            "stride>1" if stride > 1 else "stride=1",
            "uncovered tail" if last % stride else "covered",
        ))
    for shape in ("W<8", "W==8", "W>8"):
        assert any(shape in case and "n>=W" in case and "stride=1" in case for case in seen)
    assert any("n<W" in case for case in seen)
    assert any("stride>1" in case and "W>8" in case for case in seen)
    assert any("uncovered tail" in case and "W>8" in case for case in seen)
    assert len(labels_voted) >= 2  # the model does not label everything alike


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 120),
    st.integers(1, 40),
    st.integers(1, 40),
    st.randoms(use_true_random=False),
)
def test_window_invariant_votes_property(trained, n, window_words, stride, rng):
    stride = min(stride, window_words)
    _assert_invariant_votes_exact(_random_stream(rng, n), trained, window_words, stride)


def test_multi_window_stream_classifies_far_fewer_positions(trained):
    stream = _random_stream(random.Random(8), 1000)
    cfg = SegmenterConfig(window_words=200, stride=1)
    counting = Counting(trained, context_words=trained.context_words)
    fast = accumulate_votes(stream, counting, cfg)
    n_windows = len(windows(stream, cfg))
    assert sum(counting.calls) < n_windows * cfg.window_words // 10
    assert fast.counts == accumulate_votes(stream, Counting(trained), cfg).counts


@pytest.mark.parametrize("n,stride", [(150, 1), (200, 1), (201, 2)])
def test_single_window_stream_makes_one_call(trained, n, stride):
    stream = _random_stream(random.Random(n), n)
    counting = Counting(trained, context_words=trained.context_words)
    accumulate_votes(stream, counting, SegmenterConfig(window_words=200, stride=stride))
    assert counting.calls == [min(n, 200)]


def test_declared_context_with_a_small_call_limit_takes_the_chunked_generic_path(trained):
    stream = _random_stream(random.Random(9), 60)
    cfg = SegmenterConfig(window_words=20, stride=1)
    counting = Counting(trained, context_words=trained.context_words, max_window_words=7)
    votes = accumulate_votes(stream, counting, cfg)
    assert max(counting.calls) <= 7
    assert sum(counting.calls) == len(windows(stream, cfg)) * cfg.window_words
    generic = accumulate_votes(stream, Counting(trained, max_window_words=7), cfg)
    assert votes.counts == generic.counts


# --------------------------------------------------------------------------
# Announced calls: a classifier with ``expect`` hears of every call of the
# full-window path, once and in order, before the first of them.


class Announcing:
    """Records what ``expect`` announces and what ``classify`` is asked."""

    name = "announcing"

    def __init__(self, inner, max_window_words=None):
        self.inner = inner
        self.max_window_words = max_window_words
        self.announced = []
        self.asked = []

    def expect(self, windows):
        self.announced.append([list(w) for w in windows])

    def classify(self, window):
        self.asked.append(list(window))
        return self.inner.classify(window)


@pytest.mark.parametrize("limit", [None, 7])
def test_full_window_path_announces_every_call_once_in_order(trained, limit):
    stream = _random_stream(random.Random(10), 60)
    cfg = SegmenterConfig(window_words=20, stride=3)
    announcing = Announcing(trained, limit)
    votes = accumulate_votes(stream, announcing, cfg)
    assert announcing.announced == [announcing.asked]
    assert max(map(len, announcing.asked)) == (limit or 20)
    unannounced = Counting(trained, max_window_words=limit)
    assert votes.counts == accumulate_votes(stream, unannounced, cfg).counts


def test_classify_chunked_announces_its_chunks_once(trained):
    words = _random_stream(random.Random(11), 45)
    announcing = Announcing(trained, max_window_words=7)
    labels = classify_chunked(announcing, words, 20)
    chunks = [words[off : off + 7] for off in range(0, 45, 7)]
    assert announcing.announced == [chunks]
    assert announcing.asked == chunks
    assert labels == [label for chunk in chunks for label in trained.classify(chunk)]
