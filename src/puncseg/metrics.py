"""Evaluation mathematics.

Confusion matrices and precision/recall/F1 reports for the six-way label
task, exact-index boundary scoring for segmentation, rank-based summaries
of per-testfile score distributions, and a paired sign-flip permutation
test for comparing two conditions over the same test files.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

from .errors import (
    EmptyMatrixError,
    EmptyScoresError,
    LengthMismatchError,
    OutOfRangeError,
    TooShortError,
)
from .sepp import REPORT_ORDER, PunctLabel, SeppDocument

REPORT_INDEX: dict[PunctLabel, int] = {label: i for i, label in enumerate(REPORT_ORDER)}
_N = len(REPORT_ORDER)


def confusion(gold: Sequence[PunctLabel], pred: Sequence[PunctLabel]) -> list[list[int]]:
    """Six rows of six counts: row ``i`` is gold, column ``j`` predicted, both in REPORT_ORDER."""
    if len(gold) != len(pred):
        raise LengthMismatchError(f"gold has {len(gold)} labels, pred has {len(pred)}")
    counts = [[0] * _N for _ in range(_N)]
    for g, p in zip(gold, pred):
        counts[REPORT_INDEX[g]][REPORT_INDEX[p]] += 1
    return counts


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    per_class: dict[PunctLabel, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int
    zero_division: bool = False


def report(counts: list[list[int]]) -> EvalReport:
    """Per-class and aggregate metrics; zero denominators score 0 and set a flag.

    Macro averages are unweighted means over all six classes, the NONE
    class included.  Micro F1 would equal accuracy for this single-label
    task, so it is not reported separately.
    """
    total = sum(map(sum, counts))
    if total == 0:
        raise EmptyMatrixError("confusion matrix has no counts")
    zero_division = False
    per_class: dict[PunctLabel, ClassMetrics] = {}
    for idx, label in enumerate(REPORT_ORDER):
        tp = counts[idx][idx]
        gold_n = sum(counts[idx])
        pred_n = sum(counts[g][idx] for g in range(_N))
        if pred_n:
            precision = tp / pred_n
        else:
            precision, zero_division = 0.0, True
        if gold_n:
            recall = tp / gold_n
        else:
            recall, zero_division = 0.0, True
        per_class[label] = ClassMetrics(precision, recall, f1_score(precision, recall), gold_n)

    diag = sum(counts[i][i] for i in range(_N))
    metrics = list(per_class.values())
    return EvalReport(
        per_class=per_class,
        accuracy=diag / total,
        macro_precision=sum(m.precision for m in metrics) / _N,
        macro_recall=sum(m.recall for m in metrics) / _N,
        macro_f1=sum(m.f1 for m in metrics) / _N,
        weighted_precision=sum(m.precision * m.support for m in metrics) / total,
        weighted_recall=sum(m.recall * m.support for m in metrics) / total,
        weighted_f1=sum(m.f1 * m.support for m in metrics) / total,
        total=total,
        zero_division=zero_division,
    )


@dataclass
class BoundaryScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def boundary_score(
    gold_boundaries: Iterable[int],
    pred_boundaries: Iterable[int],
    stream_length: int | None = None,
) -> BoundaryScore:
    """Exact-index match of predicted segment ends against gold ends."""
    gold = set(gold_boundaries)
    pred = set(pred_boundaries)
    if stream_length is not None:
        bad = [i for i in gold | pred if i < 0 or i >= stream_length]
        if bad:
            raise OutOfRangeError(f"boundary index {min(bad)} outside stream of {stream_length}")
    tp = len(gold & pred)
    fp = len(pred - gold)
    fn = len(gold - pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return BoundaryScore(tp, fp, fn, precision, recall, f1_score(precision, recall))


def boundaries_from_document(doc: SeppDocument, segmenters: Iterable[PunctLabel]) -> set[int]:
    """Positions whose label belongs to the segmenting set."""
    seg = set(segmenters)
    return {i for i, tok in enumerate(doc.tokens) if tok.label in seg}


def split_testfiles(corpus: SeppDocument, sentences_per_file: int) -> list[SeppDocument]:
    """Cut the corpus into consecutive blocks of exactly N sentences; drop the tail."""
    if sentences_per_file < 1:
        raise OutOfRangeError("sentences_per_file must be positive")
    sentences = corpus.sentences()
    if len(sentences) < sentences_per_file:
        raise TooShortError(
            f"corpus has {len(sentences)} sentences, need {sentences_per_file}"
        )
    files: list[SeppDocument] = []
    n_files = len(sentences) // sentences_per_file
    for k in range(n_files):
        block = sentences[k * sentences_per_file : (k + 1) * sentences_per_file]
        tokens = [tok for sent in block for tok in sent]
        src = f"{corpus.source_id or 'corpus'}:block{k}"
        files.append(SeppDocument(tokens, source_id=src))
    return files


@dataclass
class DistributionSummary:
    n: int
    median: float
    average: float
    stddev: float
    ci_low: float
    ci_high: float


def summarize(scores: Sequence[float]) -> DistributionSummary:
    """Median, mean, stddev and the rank-based 95% interval of a score list.

    The interval takes the values at 1-based ranks floor(0.025 n) + 1 and
    ceil(0.975 n) of the ascending sort (ranks 251 and 9750 at n=10000).
    The standard deviation is the population one.
    """
    n = len(scores)
    if n == 0:
        raise EmptyScoresError("no scores to summarize")
    ordered = sorted(scores)
    lo_rank = n // 40 + 1  # floor(n/40) + 1, exact integer form of floor(0.025 n) + 1
    hi_rank = (39 * n + 39) // 40  # ceil(39 n / 40)
    return DistributionSummary(
        n=n,
        median=float(statistics.median(ordered)),
        average=statistics.fmean(scores),
        stddev=statistics.pstdev(scores),
        ci_low=float(ordered[lo_rank - 1]),
        ci_high=float(ordered[hi_rank - 1]),
    )


def paired_significance(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    permutations: int = 10000,
    seed: int = 0,
) -> float:
    """Two-sided paired sign-flip permutation test on per-file differences.

    The statistic is the mean difference.  When ``permutations`` is at
    least 2**n the test enumerates all sign patterns exactly and returns
    count / 2**n; otherwise it samples with the seeded RNG and returns
    (1 + count) / (1 + permutations).
    """
    if permutations < 1:
        raise OutOfRangeError(f"permutations must be at least 1, got {permutations}")
    if len(scores_a) != len(scores_b):
        raise LengthMismatchError(
            f"score lists differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    n = len(scores_a)
    if n < 2:
        raise TooShortError("need at least 2 paired scores")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    observed = abs(sum(diffs) / n)

    if 2**n <= permutations:
        count = 0
        for signs in itertools.product((1.0, -1.0), repeat=n):
            stat = abs(sum(d * s for d, s in zip(diffs, signs)) / n)
            if stat >= observed:
                count += 1
        return count / 2**n

    rng = random.Random(seed)
    count = 0
    for _ in range(permutations):
        stat = abs(sum(d if rng.getrandbits(1) else -d for d in diffs) / n)
        if stat >= observed:
            count += 1
    return (1 + count) / (1 + permutations)


def _report_rows(rep: EvalReport) -> list[tuple]:
    """(name, precision, recall, f1, support) per class, then accuracy, macro and weighted."""
    return [
        *((label.char, *astuple(m)) for label, m in rep.per_class.items()),
        ("accuracy", "", "", rep.accuracy, rep.total),
        ("macro avg", rep.macro_precision, rep.macro_recall, rep.macro_f1, rep.total),
        ("weighted avg", rep.weighted_precision, rep.weighted_recall, rep.weighted_f1, rep.total),
    ]


def format_report(rep: EvalReport) -> str:
    """Human-readable aligned table in the usual classification-report shape."""
    header = ("class", "precision", "recall", "f1-score", "support")
    lines = []
    for name, *cells in [header, *_report_rows(rep)]:
        cells = [f"{v:>9.6f}" if isinstance(v, float) else f"{v:>9}" for v in cells]
        lines.append("  ".join([f"{name:>12}", *cells]))
    lines.insert(-3, "")  # a blank line before the three aggregate rows
    return "\n".join(lines) + "\n"


def tsv(rows: Iterable[Iterable]) -> str:
    """Tab-separated LF-terminated lines; floats print as ``:.6f``, anything else by ``str``."""
    return "".join(
        "\t".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


def report_tsv(rep: EvalReport) -> str:
    return tsv([("class", "precision", "recall", "f1", "support"), *_report_rows(rep)])


def confusion_tsv(counts: list[list[int]]) -> str:
    chars = [label.char for label in REPORT_ORDER]
    return tsv([("", *chars)] + [(ch, *row) for ch, row in zip(chars, counts)])


def boundary_tsv(score: BoundaryScore) -> str:
    return tsv([[f.name for f in fields(score)], astuple(score)])


def summaries_tsv(rows: Iterable[tuple[str, DistributionSummary]]) -> str:
    header = ("condition", "n", "median", "average", "stddev", "ci_lo", "ci_hi")
    return tsv([header] + [(condition, *astuple(s)) for condition, s in rows])
