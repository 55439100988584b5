import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import zlib
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import template_corpus
from oracles import (
    HashClassifier,
    brute_force_decide,
    brute_force_render,
    brute_force_segment,
    brute_force_votes,
)
from puncseg.classifier import LABELS, train_reference
from puncseg.errors import ConfigError, EmptyStreamError, OutOfRangeError, WindowClassifyError
from puncseg.external import _IN_FLIGHT
from puncseg.sepp import PunctLabel
from puncseg.segmenter import (
    SegmenterConfig,
    Window,
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


def _coverage(rows):
    """Windows covering each word: the row sums of a vote table."""
    return [sum(row) for row in rows]


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
    coverage = _coverage(accumulate_votes(stream, ConstantClassifier(), cfg))
    # words in the middle appear in exactly 200 windows
    assert coverage[500] == 200
    assert coverage[0] == 1
    assert coverage[999] == 1


def test_windows_empty_stream():
    with pytest.raises(EmptyStreamError):
        windows([], SegmenterConfig())


@pytest.mark.parametrize(
    "n,w,stride",
    [(1, 200, 1), (3, 7, 2), (5, 5, 1), (5, 5, 5), (6, 5, 1), (10, 3, 1), (11, 4, 3), (20, 6, 4)],
)
def test_windows_read_lazily_equal_the_listed_windows(n, w, stride):
    # (11, 4, 3) and (20, 6, 4) leave a stride tail uncovered; n <= W gives one window.
    stream = _stream(n)
    want = [Window(s, list(stream[s : s + w])) for s in range(0, max(0, n - w) + 1, stride)]
    for given_stream in (stream, tuple(stream)):
        ws = windows(given_stream, SegmenterConfig(window_words=w, stride=stride))
        assert len(ws) == len(want)
        assert [ws[i] for i in range(len(ws))] == want
        assert ws[-1] == want[-1]
        assert list(ws) == want
        assert all(type(win.words) is list for win in ws)
        with pytest.raises(IndexError):
            ws[len(want)]


def test_config_validation():
    with pytest.raises(ValueError):
        SegmenterConfig(window_words=0)
    with pytest.raises(ValueError, match="stride must be positive"):
        SegmenterConfig(stride=0)
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


@pytest.mark.parametrize(
    "name,value",
    [
        ("window_words", 2.5),
        ("window_words", True),
        ("stride", 1.5),
        ("stride", True),
        ("theta", True),
        ("theta", "0.1"),
        ("segmenters", "."),
        ("segmenters", frozenset({"."})),
        ("segmenters", 5),
    ],
)
def test_a_setting_of_the_wrong_type_is_a_config_error(name, value):
    with pytest.raises(ConfigError, match=name) as exc_info:
        SegmenterConfig(**{name: value})
    assert exc_info.value.code == "CONFIG"


def test_accumulate_single_window_votes():
    cfg = SegmenterConfig(window_words=3)
    votes = accumulate_votes(["a", "b", "c"], FixedLabels([N, N, P]), cfg)
    assert _coverage(votes) == [1, 1, 1]
    assert votes[2][1] == 1  # PERIOD vote on the last word
    assert sum(map(sum, votes)) == 3


def test_accumulate_coverage_n4_w3():
    cfg = SegmenterConfig(window_words=3, stride=1)
    votes = accumulate_votes(_stream(4), ConstantClassifier(), cfg)
    assert _coverage(votes) == [1, 2, 2, 1]


def test_accumulate_deterministic():
    cfg = SegmenterConfig(window_words=4, stride=2)
    one = accumulate_votes(_stream(9), HashClassifier(7), cfg)
    two = accumulate_votes(_stream(9), HashClassifier(7), cfg)
    assert one == two
    assert _coverage(one) == _coverage(two)


def test_vote_table_sums_match_coverage():
    cfg = SegmenterConfig(window_words=5, stride=2)
    votes = accumulate_votes(_stream(17), HashClassifier(3, spread=6), cfg)
    assert sum(_coverage(votes)) == len(windows(_stream(17), cfg)) * cfg.window_words
    assert max(_coverage(votes)) <= -(-cfg.window_words // cfg.stride)


def test_vote_table_add_window_matches_accumulate_votes():
    cfg = SegmenterConfig(window_words=4, stride=1)
    stream = _stream(12)
    clf = HashClassifier(11, spread=6)
    full = accumulate_votes(stream, clf, cfg)
    folded = [[0] * len(LABELS) for _ in stream]
    for w in windows(stream, cfg):
        for i, label in enumerate(clf.classify(w.words), w.start):
            folded[i][label.index] += 1
    assert folded == full
    assert _coverage(folded) == _coverage(full)


def test_import_leaves_numpy_unloaded():
    import puncseg

    src = str(Path(puncseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, puncseg.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_public_names_resolve_and_star_import_succeeds():
    import puncseg

    missing = [name for name in puncseg.__all__ if not hasattr(puncseg, name)]
    assert not missing
    namespace = {}
    exec("from puncseg import *", namespace)
    assert set(puncseg.__all__) <= set(namespace)


def _table(rows, coverage):
    counts = [[0] * 6 for _ in coverage]
    for i, row in rows.items():
        for label_idx, count in row.items():
            counts[i][label_idx] = count
    assert _coverage(counts) == list(coverage)
    return counts


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


def _single_label_row(index, votes):
    row = [0] * len(LABELS)
    row[index] = votes
    return row


_VOTE_ROWS = st.one_of(
    st.just([0] * len(LABELS)),  # covered by no window
    st.builds(_single_label_row, st.just(0), st.integers(1, 9)),  # only NONE votes
    st.builds(_single_label_row, st.integers(1, len(LABELS) - 1), st.integers(1, 9)),
    st.lists(st.integers(0, 3), min_size=len(LABELS), max_size=len(LABELS)),  # ties are common
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_VOTE_ROWS, min_size=1, max_size=12),
    st.sets(st.sampled_from(LABELS[1:]), min_size=1),
    st.sampled_from(("per_class", "pooled")),
)
def test_decide_matches_the_oracle_on_random_vote_rows(rows, segmenters, pooling):
    counts = [dict(zip(LABELS, row)) for row in rows]
    coverage = _coverage(rows)
    seg_idx = sorted(label.index for label in segmenters)
    # the strict test flips where theta equals a ratio or, pooled, a summed ratio
    thetas = {0.0, 1.0}
    for row, cov in zip(rows, coverage):
        if cov:
            thetas.update(votes / cov for votes in row)
            thetas.add(sum(row[c] / cov for c in seg_idx))
    for theta in sorted(t for t in thetas if t <= 1.0):
        cfg = SegmenterConfig(theta=theta, segmenters=frozenset(segmenters), pooling=pooling)
        expected = brute_force_decide(counts, coverage, theta, segmenters, pooling)
        assert decide(rows, cfg) == expected


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
    assert _coverage(votes) == [1] * 10


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
        assert _coverage(votes) == slow_cov
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
        assert slow_cov[i] == sum(fast[i])
        for c, label in enumerate(LABELS):
            assert slow_counts[i][label] == fast[i][c]


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
    assert fast == generic
    assert fast == [[row[label] for label in LABELS] for row in slow_counts]
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
        labels_voted.update(c for row in votes for c, v in enumerate(row) if v)
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
    assert fast == accumulate_votes(stream, Counting(trained), cfg)


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
    assert votes == generic


class Slices(Counting):
    """Records each call's words; labels the stand-in word ``w{i}`` as the model labels ``base[i]``.

    With a stream of distinct stand-ins, every call's slice can be told apart.
    """

    def __init__(self, inner, base, **capabilities):
        super().__init__(inner, **capabilities)
        self.base = base
        self.slices = []

    def classify(self, window):
        self.slices.append(tuple(window))
        return super().classify([self.base[int(word[1:])] for word in window])


@pytest.mark.parametrize("stride", [1, 4, 5])  # W - 2k = 32: 4 divides it, 5 does not
def test_window_invariant_path_classifies_each_edge_slice_once(trained, stride):
    n, w, k = 300, 40, trained.context_words
    base = _random_stream(random.Random(16), n)
    stream = _stream(n)
    cfg = SegmenterConfig(window_words=w, stride=stride)
    shared = Slices(trained, base, context_words=k)
    votes = accumulate_votes(stream, shared, cfg)
    assert votes == accumulate_votes(stream, Slices(trained, base), cfg)
    assert votes == accumulate_votes(base, trained, cfg)
    spans = [(int(words[0][1:]), len(words)) for words in shared.slices]
    assert len(set(spans)) == len(spans)  # no slice is classified twice
    full = {at for at, size in spans if size == w}
    edged = [s for s in range(0, n - w + 1, stride) if s not in full]
    edges = {(s, 2 * k) for s in edged} | {(s + w - 2 * k, 2 * k) for s in edged}
    assert set(spans) == {(s, w) for s in full} | edges
    # a head is shared only when the stride divides W - 2k
    if (w - 2 * k) % stride:
        assert len(spans) == len(full) + 2 * len(edged)
    else:
        assert len(spans) < len(full) + 2 * len(edged)


_BAD_CAPABILITIES = [
    ("max_window_words", -3),
    ("max_window_words", 0),
    ("max_window_words", 2.5),
    ("max_window_words", True),
    ("context_words", -1),
    ("context_words", 0),
    ("context_words", 0.5),
    ("context_words", "4"),
]


@pytest.mark.parametrize("name,value", _BAD_CAPABILITIES)
@pytest.mark.parametrize("entry", ["accumulate_votes", "classify_chunked"])
def test_a_bad_capability_is_a_config_error_before_any_call(trained, entry, name, value):
    counting = Counting(trained, **{name: value})
    with pytest.raises(ConfigError, match=name) as exc_info:
        if entry == "accumulate_votes":
            accumulate_votes(_stream(30), counting, SegmenterConfig(window_words=12))
        else:
            classify_chunked(counting, _stream(30), 12)
    assert exc_info.value.code == "CONFIG"
    assert counting.calls == []


# --------------------------------------------------------------------------
# Settled words: ``segment`` gives a word whose edge votes cannot move its
# decision all its votes on its interior label, and classifies no edge slice
# that holds only such words.  Labels and boundaries must not change.


class Contextual:
    """Labels offset ``j`` of a window from ``window[j-k : j+k+1]``, ``min(j, k)`` and
    ``min(w-1-j, k)`` alone, as ``context_words = k`` promises; a hash spreads the labels."""

    name = "contextual"
    max_window_words = None

    def __init__(self, k, seed):
        self.context_words = k
        self.seed = seed

    def classify(self, window):
        k, w = self.context_words, len(window)
        out = []
        for j in range(w):
            key = "|".join([str(self.seed), *window[max(0, j - k) : j + k + 1]])
            h = zlib.crc32(f"{key}#{min(j, k)}#{min(w - 1 - j, k)}".encode())
            out.append(LABELS[h % 6] if h % 5 == 0 else LABELS[h % 3])
        return out


_POOLINGS = ("per_class", "pooled")
_SEGMENTER_SETS = (frozenset({P}), frozenset({P, Q}), frozenset({C, P, PunctLabel.DASH}))


def test_settled_votes_decide_like_the_exact_votes_exhaustively():
    rng = random.Random(21)
    settled_cases = {pooling: 0 for pooling in _POOLINGS}
    for w in range(3, 7):
        # every e / c and h / c a word can have, 0 and 1 among them
        thetas = sorted({i / c for c in range(1, w + 1) for i in range(c + 1)})
        shapes = itertools.product(range(1, (w + 1) // 2), range(1, w + 1), range(1, 13))
        for k, stride, n in shapes:  # every k with 2k < W, stride <= W and n <= 12
            stream = [rng.choice("abc") for _ in range(n)]
            clf = Contextual(k, rng.randrange(1000))
            exact = accumulate_votes(stream, clf, SegmenterConfig(window_words=w, stride=stride))
            counts, coverage = brute_force_votes(stream, clf, w, stride)
            knobs = itertools.product(thetas, _POOLINGS, _SEGMENTER_SETS)
            for theta, pooling, segmenters in knobs:
                cfg = SegmenterConfig(
                    window_words=w, stride=stride, theta=theta, segmenters=segmenters,
                    pooling=pooling,
                )
                got = segment(stream, clf, cfg)
                labels, bounds = brute_force_decide(counts, coverage, theta, segmenters, pooling)
                assert (got.labels, got.boundaries) == (labels, sorted(bounds))
                settled = accumulate_votes(stream, clf, cfg, settle=True)
                assert decide(settled, cfg) == decide(exact, cfg)
                assert _coverage(settled) == coverage
                settled_cases[pooling] += settled != exact
    assert min(settled_cases.values()) > 50


class EdgeMarks:
    """``context_words = 3``: a window's first and last word PERIOD, its other edge words
    QUESTION, its interior NONE."""

    name = "edge-marks"
    max_window_words = None
    context_words = 3

    def classify(self, window):
        w = len(window)
        return [(P, Q, Q, N)[min(j, w - 1 - j, 3)] for j in range(w)]


def test_the_pooled_margin_keeps_a_rounded_pool_exact():
    # W = 20, stride 1: a middle word takes 14 NONE votes from interiors, 2 PERIOD and
    # 4 QUESTION from edges.  e / c = 6 / 20 = 0.3 is theta, but the pooled sum
    # 2/20 + 4/20 is 0.30000000000000004 in doubles and passes it.
    stream = _stream(60)
    segmenters = frozenset({P, Q})
    cfg = SegmenterConfig(window_words=20, theta=0.3, pooling="pooled", segmenters=segmenters)
    got = segment(stream, EdgeMarks(), cfg)
    labels, bounds = brute_force_segment(stream, EdgeMarks(), 20, 1, 0.3, segmenters, "pooled")
    assert (got.labels, got.boundaries) == (labels, sorted(bounds))
    assert got.labels[30] is Q


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 500),
    st.integers(9, 60),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0]),
    st.sampled_from(_POOLINGS),
    st.randoms(use_true_random=False),
)
def test_segment_with_a_trained_model_matches_the_oracle(
    trained, n, window_words, stride, theta, pooling, rng
):
    stream = _random_stream(rng, n)
    cfg = SegmenterConfig(window_words=window_words, stride=stride, theta=theta, pooling=pooling)
    got = segment(stream, trained, cfg)
    labels, bounds = brute_force_segment(
        stream, trained, window_words, stride, theta, cfg.segmenters, pooling
    )
    assert (got.labels, got.boundaries) == (labels, sorted(bounds))


@pytest.mark.parametrize("theta", [0.15, 1.0])
def test_segment_makes_the_exact_calls_where_nothing_settles(trained, theta):
    # W = 40, k = 4: the middle word has e / c = 8 / 40 = 0.2, above 0.15, and no word
    # has h / c above 1, so no stretch settles.
    base = _random_stream(random.Random(17), 300)
    stream = _stream(300)
    cfg = SegmenterConfig(window_words=40, theta=theta)
    settling = Slices(trained, base, context_words=trained.context_words)
    segment(stream, settling, cfg)
    exact = Slices(trained, base, context_words=trained.context_words)
    accumulate_votes(stream, exact, cfg)
    assert settling.slices == exact.slices
    fewer = Slices(trained, base, context_words=trained.context_words)
    segment(stream, fewer, SegmenterConfig(window_words=40, theta=0.25))
    assert len(fewer.slices) < len(exact.slices)


def test_segment_classifies_an_edge_slice_only_near_the_stream_ends(trained):
    # At theta 0.1 the words 39 .. 19960 settle.  Besides the 105 full windows, the
    # heads of windows 1 .. 38 are classified, and the tails of windows 19762 .. 19799
    # but the full window 19776: 38 + 37 edge calls.
    rng = random.Random(15)
    stream = [rng.choice(_VOCAB[:6]) for _ in range(20_000)]
    cfg = SegmenterConfig(window_words=200)
    counting = Counting(trained, context_words=trained.context_words)
    got = segment(stream, counting, cfg)
    calls = counting.calls
    assert (calls.count(200), calls.count(8), len(calls)) == (105, 75, 180)
    assert decide(accumulate_votes(stream, trained, cfg), cfg) == (got.labels, set(got.boundaries))


# --------------------------------------------------------------------------
# Announced calls: a classifier with ``expect`` hears of every call of the
# full-window path, once and in order, before the first of them.


class Announcing:
    """Records what ``expect`` announces and what ``classify`` is asked."""

    name = "announcing"

    def __init__(self, inner, max_window_words=None, context_words=None):
        self.inner = inner
        self.max_window_words = max_window_words
        self.context_words = context_words
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
    assert votes == accumulate_votes(stream, unannounced, cfg)


def test_classify_chunked_announces_its_chunks_once(trained):
    words = _random_stream(random.Random(11), 45)
    announcing = Announcing(trained, max_window_words=7)
    labels = classify_chunked(announcing, words, 20)
    chunks = [words[off : off + 7] for off in range(0, 45, 7)]
    assert announcing.announced == [chunks]
    assert announcing.asked == chunks
    assert labels == [label for chunk in chunks for label in trained.classify(chunk)]


def test_classify_chunked_rejects_an_empty_document_before_any_call(trained):
    counting = Counting(trained)
    with pytest.raises(EmptyStreamError):
        classify_chunked(counting, [], 20)
    assert counting.calls == []


@pytest.mark.parametrize("window_words", [0, -1])
def test_classify_chunked_rejects_a_window_below_one_before_any_call(trained, window_words):
    counting = Counting(trained)
    with pytest.raises(OutOfRangeError, match="must be at least 1"):
        classify_chunked(counting, ["een", "twee", "drie"], window_words)
    assert counting.calls == []


def test_window_invariant_path_calls_classify_directly_and_announces_nothing(trained):
    stream = _random_stream(random.Random(12), 300)
    cfg = SegmenterConfig(window_words=40, stride=1)
    k = trained.context_words
    announcing = Announcing(trained, context_words=k)
    votes = accumulate_votes(stream, announcing, cfg)
    assert announcing.announced == []
    lengths = [len(words) for words in announcing.asked]
    assert set(lengths) == {2 * k, cfg.window_words}
    full = lengths.count(cfg.window_words)
    n_windows = len(stream) - cfg.window_words + 1
    # One call per full window and one per tail of every other window.  A head needs its
    # own call only in the first W - 2k windows: from then on, at stride 1, the window
    # W - 2k words back is classified either in full, and so is this one, or at its tail,
    # whose words are this window's head.  Window 0 is classified in full.
    assert len(lengths) == full + (n_windows - full) + (cfg.window_words - 2 * k - 1)
    # Extra full windows would give the same votes, only slower: pin how many there are.
    assert (full, len(lengths)) == (10, 292)
    assert votes == accumulate_votes(stream, Counting(trained), cfg)


class Faulty:
    """Declares ``context_words = 2``; raises on one word or answers one call short.

    ``short`` names the first word of the ``2k``-word calls to answer with
    one label too few.
    """

    name = "faulty"
    max_window_words = None
    context_words = 2

    def __init__(self, bad=None, short=None):
        self.bad = bad
        self.short = short
        self.raised = []

    def classify(self, window):
        if self.bad in window:
            self.raised.append(ValueError(f"cannot label {self.bad}"))
            raise self.raised[-1]
        if len(window) == 2 * self.context_words and window[0] == self.short:
            return [N] * (len(window) - 1)
        return [N] * len(window)


@pytest.mark.parametrize(
    "faulty,window_start",
    [
        (Faulty(bad="w3"), 0),  # first full window
        (Faulty(bad="w12"), 9),  # tail call of window 1
        (Faulty(bad="w27"), 16),  # full window 16; tail calls reach w26
        (Faulty(short="w1"), 1),  # head call of window 1
        (Faulty(short="w9"), 9),  # tail call of window 1
    ],
)
def test_window_invariant_path_names_the_failing_call(faulty, window_start):
    # W=12, k=2 on 40 words: windows 0, 8, 16, 24 are classified in full,
    # every other window in its 4-word head and tail calls.
    with pytest.raises(WindowClassifyError) as exc_info:
        accumulate_votes(_stream(40), faulty, SegmenterConfig(window_words=12))
    assert exc_info.value.window_start == window_start
    if faulty.bad is None:
        assert exc_info.value.__cause__ is None
    else:
        assert exc_info.value.__cause__ is faulty.raised[-1]


# --------------------------------------------------------------------------
# Memory: the windows are sliced as calls need them, never all held at once.
# Listed up front, the 19,801 windows of a 20k-word stream at W=200 took
# about 33 MiB; either vote path now peaks at about 2.5 MiB, mostly the
# vote table itself.


class ReadsAhead:
    """Reads its announcements like the external adapter: at most ``_IN_FLIGHT`` ahead."""

    name = "reads-ahead"
    max_window_words = None

    def __init__(self):
        self.ahead = iter(())
        self.read = deque()

    def expect(self, windows):
        self.ahead = iter(windows)
        self.read.clear()

    def classify(self, window):
        while len(self.read) < _IN_FLIGHT and (nxt := next(self.ahead, None)) is not None:
            self.read.append(nxt)
        assert self.read.popleft() == window
        return [N] * len(window)


@pytest.mark.parametrize("path", ["context_words", "expect"])
def test_votes_on_a_long_stream_never_hold_every_window(trained, path):
    # Six distinct words keep the built-in model's bounded label cache small,
    # so the peak is the segmenter's own.
    rng = random.Random(14)
    stream = [rng.choice(_VOCAB[:6]) for _ in range(20_000)]
    clf = trained if path == "context_words" else ReadsAhead()
    cfg = SegmenterConfig(window_words=200)
    accumulate_votes(stream, clf, cfg)  # fills the label cache
    tracemalloc.start()
    try:
        accumulate_votes(stream, clf, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_window_invariant_votes_hold_nothing_per_word_but_the_table(trained):
    # Beyond the returned rows, the walk keeps O(W) state: no side array per word.
    rng = random.Random(15)
    stream = [rng.choice(_VOCAB[:6]) for _ in range(20_000)]
    cfg = SegmenterConfig(window_words=200)
    accumulate_votes(stream, trained, cfg)  # fills the label cache
    tracemalloc.start()
    try:
        rows = accumulate_votes(stream, trained, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(stream)
    assert peak - held < 64 * 2**10


def test_window_invariant_votes_drop_tail_labels_that_no_head_takes(trained):
    # At a stride that does not divide W - 2k = 192, no tail call's labels serve a head.
    rng = random.Random(15)
    stream = [rng.choice(_VOCAB[:6]) for _ in range(20_000)]
    cfg = SegmenterConfig(window_words=200, stride=5)
    accumulate_votes(stream, trained, cfg)  # fills the label cache
    tracemalloc.start()
    try:
        rows = accumulate_votes(stream, trained, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(stream)
    assert peak - held < 64 * 2**10


@pytest.mark.parametrize("stride", [1, 5])
def test_settled_votes_hold_nothing_per_word_but_the_table(trained, stride):
    # The settled stretch is two ints: settling adds no side array per word.
    rng = random.Random(15)
    stream = [rng.choice(_VOCAB[:6]) for _ in range(20_000)]
    cfg = SegmenterConfig(window_words=200, stride=stride)
    accumulate_votes(stream, trained, cfg, settle=True)  # fills the label cache
    tracemalloc.start()
    try:
        rows = accumulate_votes(stream, trained, cfg, settle=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(stream)
    assert peak - held < 64 * 2**10
