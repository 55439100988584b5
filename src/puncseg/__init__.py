"""Punctuation restoration and sentence segmentation for unpunctuated word streams."""

from .classifier import (
    Classifier,
    LinearModel,
    ReplayClassifier,
    load_model,
    save_model,
    train_reference,
)
from .external import ExternalAdapterConfig, ExternalClassifier
from .metrics import (
    BoundaryScore,
    DistributionSummary,
    EvalReport,
    boundary_score,
    confusion,
    paired_significance,
    report,
    split_testfiles,
    summarize,
)
from .segmenter import (
    SegmentedText,
    SegmenterConfig,
    accumulate_votes,
    decide,
    segment,
    windows,
)
from .sepp import (
    DEFAULT_SEGMENTERS,
    LabeledToken,
    PunctLabel,
    SeppDocument,
    parse_sepp,
    parse_sepp_file,
    strip_labels,
    write_sepp,
)
from .textprep import (
    SplitSpec,
    TruecaseModel,
    extract_labels,
    split_corpus,
    tokenize,
    train_truecaser,
    truecase,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryScore",
    "Classifier",
    "DEFAULT_SEGMENTERS",
    "DistributionSummary",
    "EvalReport",
    "ExternalAdapterConfig",
    "ExternalClassifier",
    "LabeledToken",
    "LinearModel",
    "PunctLabel",
    "ReplayClassifier",
    "SegmentedText",
    "SegmenterConfig",
    "SeppDocument",
    "SplitSpec",
    "TruecaseModel",
    "accumulate_votes",
    "boundary_score",
    "confusion",
    "decide",
    "extract_labels",
    "load_model",
    "paired_significance",
    "parse_sepp",
    "parse_sepp_file",
    "report",
    "save_model",
    "segment",
    "split_corpus",
    "split_testfiles",
    "strip_labels",
    "summarize",
    "tokenize",
    "train_reference",
    "train_truecaser",
    "truecase",
    "windows",
    "write_sepp",
]
