"""Hand-made faults that the tests must catch, one mutant each.

Each entry names a file under the repository root, a snippet that occurs
exactly once in it, the text that replaces the snippet, and the ids of the
tests that must fail once it is replaced.  ``test_mutants.py`` checks that
every snippet still occurs once and every test still exists, so the list
cannot rot; ``tools/run_mutants.py`` applies each mutant to a copy of the
tree and runs its tests there.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    kills: tuple[str, ...]


_SEGMENTER = "src/puncseg/segmenter.py"
_CLASSIFIER = "src/puncseg/classifier.py"
_METRICS = "src/puncseg/metrics.py"
_TEXTPREP = "src/puncseg/textprep.py"
_TESTS = "tests/test_segmenter.py::"
_CLASSIFIER_TESTS = "tests/test_classifier.py::"
_METRICS_TESTS = "tests/test_metrics.py::"
_TEXTPREP_TESTS = "tests/test_textprep.py::"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "skip-a-head-that-ends-at-b", _SEGMENTER,
        "if s < a or s + k > b:",
        "if s < a or s + k > b + 1:",
        (
            _TESTS + "test_segment_classifies_an_edge_slice_that_holds_one_unsettled_word"
            "[head-ends-at-b]",
            _TESTS + "test_settled_votes_keep_exact_rows_outside_the_stretch_and_labels_inside",
        ),
    ),
    Mutant(
        "no-pooled-margin", _SEGMENTER,
        "_POOLED_MARGIN = 1e-9",
        "_POOLED_MARGIN = 0.0",
        (_TESTS + "test_the_pooled_margin_keeps_a_rounded_pool_exact",),
    ),
    Mutant(
        "skip-a-tail-that-starts-at-a-1", _SEGMENTER,
        "if stop < a or s + w > b:",
        "if stop < a - 1 or s + w > b:",
        (
            _TESTS + "test_segment_classifies_an_edge_slice_that_holds_one_unsettled_word"
            "[tail-starts-at-a-1]",
            _TESTS + "test_settled_votes_keep_exact_rows_outside_the_stretch_and_labels_inside",
        ),
    ),
    Mutant(
        "settle-at-an-interior-ratio-of-theta", _SEGMENTER,
        "and h / c > theta",
        "and h / c >= theta",
        (_TESTS + "test_settled_votes_decide_like_the_exact_votes_exhaustively",),
    ),
    Mutant(
        "settled-labels-one-word-late", _SEGMENTER,
        "settled[lo - a : hi - a] = head[lo - s : hi - s]",
        "settled[lo - a : hi - a] = head[lo - s + 1 : hi - s + 1]",
        (
            _TESTS + "test_settled_votes_decide_like_the_exact_votes_exhaustively",
            _TESTS + "test_settled_votes_keep_exact_rows_outside_the_stretch_and_labels_inside",
            _TESTS + "test_segment_classifies_an_edge_slice_only_near_the_stream_ends",
        ),
    ),
    Mutant(
        "settled-boundary-one-word-late", _SEGMENTER,
        "enumerate(settled, a)",
        "enumerate(settled, a + 1)",
        (
            _TESTS + "test_settled_votes_decide_like_the_exact_votes_exhaustively",
            _TESTS + "test_settled_votes_keep_exact_rows_outside_the_stretch_and_labels_inside",
            _TESTS + "test_segment_classifies_an_edge_slice_only_near_the_stream_ends",
        ),
    ),
    Mutant(
        "decide-reads-the-shared-row", _SEGMENTER,
        "chain(range(a), range(b, len(rows)))",
        "chain(range(a + 1), range(b, len(rows)))",
        (
            _TESTS + "test_settled_votes_decide_like_the_exact_votes_exhaustively",
            _TESTS + "test_settled_votes_keep_exact_rows_outside_the_stretch_and_labels_inside",
            _TESTS + "test_segment_with_a_fraction_theta_decides_like_the_exact_votes",
            _TESTS + "test_segment_classifies_an_edge_slice_only_near_the_stream_ends",
        ),
    ),
    Mutant(
        "decide-takes-the-last-of-tied-ratios", _SEGMENTER,
        "if ratio > best_ratio:",
        "if ratio >= best_ratio:",
        (
            _TESTS + "test_decide_skips_only_rows_whose_marks_cannot_pass_theta_exhaustively",
            _TESTS + "test_decide_tie_breaks_by_label_order",
            _TESTS + "test_decide_matches_the_oracle_on_random_vote_rows",
        ),
    ),
    Mutant(
        "starts-holding-one-window-short", _SEGMENTER,
        "max(-1, p - w + j)",
        "max(0, p - w + j)",
        (_TESTS + "test_window_invariant_votes_match_generic_loop_and_oracle",),
    ),
    Mutant(
        "classify-breaks-a-none-period-tie-to-period", _CLASSIFIER,
        "if a1 > a0:",
        "if a1 >= a0:",
        (
            _CLASSIFIER_TESTS + "test_zero_epochs_predicts_none",
            _CLASSIFIER_TESTS + "test_a_tie_between_two_labels_goes_to_the_earlier_one[0-1]",
            _CLASSIFIER_TESTS + "test_classify_takes_the_first_argmax_of_the_oracle_scores",
        ),
    ),
    Mutant(
        "replay-serves-the-last-match", _CLASSIFIER,
        "self._encoded.find(target)",
        "self._encoded.rfind(target)",
        (
            _CLASSIFIER_TESTS + "test_replay_classifier_returns_recorded_labels",
            _CLASSIFIER_TESTS + "test_replay_find_matches_linear_scan_on_repetitive_streams",
        ),
    ),
    Mutant(
        "permutation-signs-from-the-third-byte", _METRICS,
        "[3::4]",
        "[2::4]",
        (_METRICS_TESTS + "test_paired_significance_equals_the_per_bit_oracle",),
    ),
    Mutant(
        "training-skip-goes-stale", _CLASSIFIER,
        "updates += 1",
        "updates += 0",
        (
            _CLASSIFIER_TESTS + "test_training_equals_the_oracle_that_scores_every_step",
            _CLASSIFIER_TESTS + "test_examples_that_disagree_are_scored_again_in_every_epoch",
        ),
    ),
    Mutant(
        "decide-skips-on-the-period-votes", _SEGMENTER,
        "marks = cov - row[0]",
        "marks = cov - row[1]",
        (
            _TESTS + "test_decide_skips_only_rows_whose_marks_cannot_pass_theta_exhaustively",
            _TESTS + "test_decide_matches_the_oracle_on_random_vote_rows",
        ),
    ),
    Mutant(
        "every-example-counted-once", _CLASSIFIER,
        "[pooled[example] for example in examples]",
        "[1 for example in examples]",
        (
            _CLASSIFIER_TESTS + "test_training_equals_the_oracle_that_scores_every_step",
            _CLASSIFIER_TESTS + "test_pooled_examples_count_the_examples_the_oracle_lists",
            _CLASSIFIER_TESTS + "test_pooled_examples_merge_contexts_whose_feature_ids_coincide",
        ),
    ),
    Mutant(
        "tokenize-passes-a-chunk-with-no-digit-joinable-whole", _TEXTPREP,
        "if DETACH_CHARS.isdisjoint(chunk):",
        "if _DIGIT_JOINABLE.isdisjoint(chunk):",
        (_TEXTPREP_TESTS + "test_tokenize_cases",),
    ),
)
