"""Command-line pipeline driver.

Subcommands: prepare, split, train, classify, segment, eval-labels,
eval-boundaries, sweep, significance.  Shared segmenter/classifier
settings can come from an optional ``key = value`` config file; flags
override file values, and unknown config keys fail fast.  A file may
hold every shared key, but a subcommand takes flags only for the
settings it reads and ignores the other keys.  Data goes to files or
stdout, diagnostics to stderr, and output files are written atomically
(write then rename).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from itertools import repeat

from . import metrics, segmenter, textprep
from .classifier import Classifier, ReplayClassifier, load_model, save_model, train_reference
from .errors import ConfigError, TooFewUnitsError, TooShortError, ToolkitError, WordMismatchError
from .external import ExternalAdapterConfig, ExternalClassifier
from .sepp import (
    PunctLabel,
    SeppDocument,
    LabeledToken,
    atomic_write,
    label_from_char,
    parse_sepp_file,
    read_lines,
    strip_labels,
    write_sepp,
)

#: Settings shared by a config file and the flags: key -> (type, default, help).
_SHARED = {
    "window": (int, 200, "sliding window size in words"),
    "stride": (int, 1, "window stride in words"),
    "theta": (float, 0.1, "vote-ratio acceptance threshold"),
    "segmenters": (str, ".?", "segmenting label characters, e.g. '.' or '.?'"),
    "pooling": (str, "per_class", "vote pooling mode"),
    "classifier": (str, None, "builtin:<model path> | external:<command> | replay:<sepp path>"),
    "seed": (int, 0, "RNG seed"),
}

#: Bounded numeric flags and settings: the test each value must pass, and its rule.
_RANGES = {
    "window": (lambda v: v >= 1, "must be at least 1"),
    "epochs": (lambda v: v >= 0, "must not be negative"),
    "fraction": (lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
    "block_size": (lambda v: v >= 1, "must be at least 1"),
    "permutations": (lambda v: v >= 1, "must be at least 1"),
}


def _check_ranges(values: dict, prefix: str = "--") -> None:
    for key, (ok, rule) in _RANGES.items():
        value = values.get(key)
        if value is not None and not ok(value):
            raise ConfigError(f"{prefix}{key.replace('_', '-')} {value}: {rule}")


def load_config_file(path) -> dict:
    values: dict = {}
    for line_no, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key = key.strip()
        if key not in _SHARED:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _SHARED[key][0](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    _check_ranges(values, f"{path}: ")
    return values


def resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    merged = {key: default for key, (_, default, _) in _SHARED.items()}
    path = getattr(args, "config", None)
    if path:
        merged.update(load_config_file(path))
    for key in _SHARED:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def parse_segmenters(chars: str) -> frozenset[PunctLabel]:
    labels = set()
    for ch in chars:
        try:
            label = label_from_char(ch)
        except KeyError:
            raise ConfigError(f"unknown segmenter character {ch!r}") from None
        if label is PunctLabel.NONE:
            raise ConfigError("0 cannot be a segmenter")
        labels.add(label)
    if not labels:
        raise ConfigError("segmenter set must not be empty")
    return frozenset(labels)


def segmenter_config(settings: dict) -> segmenter.SegmenterConfig:
    return segmenter.SegmenterConfig(
        window_words=settings["window"],
        stride=settings["stride"],
        theta=settings["theta"],
        segmenters=parse_segmenters(settings["segmenters"]),
        pooling=settings["pooling"],
    )


def make_classifier(spec: str | None):
    """A context manager for the classifier ``spec`` names; it closes an external child."""
    if not spec:
        raise ConfigError("no classifier given; use --classifier or a config file")
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise ConfigError(f"classifier spec {spec!r} is not kind:argument")
    if kind == "builtin":
        return contextlib.nullcontext(load_model(arg))
    if kind == "replay":
        return contextlib.nullcontext(ReplayClassifier.from_document(parse_sepp_file(arg)))
    if kind == "external":
        return ExternalClassifier(ExternalAdapterConfig(arg))
    raise ConfigError(f"unknown classifier kind {kind!r}")


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _check_aligned(gold: SeppDocument, pred: SeppDocument) -> None:
    gw, pw = strip_labels(gold), strip_labels(pred)
    for i, (g, p) in enumerate(zip(gw, pw)):
        if g != p:
            raise WordMismatchError(i)
    if len(gw) != len(pw):
        raise WordMismatchError(min(len(gw), len(pw)))


def _predictions_document(
    words: list[str], labels: list[PunctLabel], boundaries: set[int]
) -> SeppDocument:
    period = PunctLabel.PERIOD
    eos = [lab is period for lab in labels]
    for i in boundaries:
        eos[i] = True
    # tuple.__new__ skips the NamedTuple's Python-level __new__, once per token
    tokens = list(map(tuple.__new__, repeat(LabeledToken), zip(words, eos, labels)))
    return SeppDocument(tokens)


def cmd_prepare(args: argparse.Namespace) -> int:
    lines = list(textprep.clean_lines(read_lines(args.input)))
    if not lines:
        raise TooFewUnitsError("input corpus has no usable lines")
    sentences = [textprep.tokenize(line) for line in lines]

    model_path = args.truecase_model
    trained = not (model_path and os.path.exists(model_path))
    if trained:
        model = textprep.train_truecaser(sentences)
    else:
        model = textprep.TruecaseModel.load(model_path)
    sentences = [textprep.truecase(sent, model) for sent in sentences]

    doc = textprep.extract_labels(sentences)
    text = write_sepp(doc)  # before any output: a word SEPP cannot hold fails here
    if model_path and trained:
        model.save(model_path)
    atomic_write(args.out, text)
    print(f"sentences: {len(sentences)}", file=sys.stderr)
    print(f"tokens: {len(doc)}", file=sys.stderr)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    docs = [parse_sepp_file(p) for p in args.inputs]
    spec = textprep.SplitSpec(train_fraction=args.fraction, seed=args.seed, unit=args.unit)
    train, test = textprep.split_corpus(docs, spec)
    train_rows = "".join(write_sepp(d) for d in train)
    test_rows = "".join(write_sepp(d) for d in test)  # both built before either is written
    atomic_write(args.train_out, train_rows)
    atomic_write(args.test_out, test_rows)
    print(f"train units: {len(train)}, test units: {len(test)}", file=sys.stderr)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    docs = [parse_sepp_file(p) for p in args.inputs]
    model = train_reference(
        docs, args.epochs, settings["seed"], window_words=settings["window"]
    )
    save_model(model, args.out)
    total = sum(len(d) for d in docs)
    print(f"trained on {total} tokens, {len(model.weights)} active features", file=sys.stderr)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    words = strip_labels(parse_sepp_file(args.input))
    with make_classifier(settings["classifier"]) as classifier:
        labels = segmenter.classify_chunked(classifier, words, settings["window"])
    pred = _predictions_document(words, labels, set())
    _emit(write_sepp(pred), args.out)
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    cfg = segmenter_config(settings)
    words = [word for line in read_lines(args.input) for word in line.split()]
    with make_classifier(settings["classifier"]) as classifier:
        result = segmenter.segment(words, classifier, cfg)
    text = result.to_text()
    if args.emit_sepp:  # built before any output: a word SEPP cannot hold fails here
        pred = _predictions_document(result.words, result.labels, set(result.boundaries))
        rows = write_sepp(pred)
    _emit(text, args.out)
    if args.emit_sepp:
        atomic_write(args.emit_sepp, rows)
    return 0


def cmd_eval_labels(args: argparse.Namespace) -> int:
    gold = parse_sepp_file(args.gold)
    pred = parse_sepp_file(args.pred)
    _check_aligned(gold, pred)
    cm = metrics.confusion([t.label for t in gold], [t.label for t in pred])
    rep = metrics.report(cm)
    if args.out_prefix:
        atomic_write(f"{args.out_prefix}.report.txt", metrics.format_report(rep))
        atomic_write(f"{args.out_prefix}.report.tsv", metrics.report_tsv(rep))
        atomic_write(f"{args.out_prefix}.confusion.tsv", metrics.confusion_tsv(cm))
    else:
        sys.stdout.write(metrics.format_report(rep))
    return 0


def cmd_eval_boundaries(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    seg_set = parse_segmenters(settings["segmenters"])
    gold = parse_sepp_file(args.gold)
    pred = parse_sepp_file(args.pred)
    _check_aligned(gold, pred)
    score = metrics.boundary_score(
        metrics.boundaries_from_document(gold, seg_set),
        metrics.boundaries_from_document(pred, seg_set),
        stream_length=len(gold),
    )
    _emit(metrics.boundary_tsv(score), args.out)
    return 0


def _parse_theta_list(raw: str) -> list[float]:
    values = [part for part in raw.replace(",", " ").split() if part]
    if not values:
        raise ConfigError("theta list is empty")
    try:
        thetas = [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"bad theta value: {exc}") from None
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:  # NaN fails too
            raise ConfigError(f"--thetas {theta:g}: must lie in [0, 1]")
    return thetas


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    cfg = segmenter_config(settings)
    thetas = _parse_theta_list(args.thetas)
    gold = parse_sepp_file(args.gold)
    words = strip_labels(gold)
    gold_bounds = metrics.boundaries_from_document(gold, cfg.segmenters)
    with make_classifier(settings["classifier"]) as classifier:
        votes = segmenter.accumulate_votes(words, classifier, cfg)

    rows = [("theta", "precision", "recall", "f1")]
    for theta in thetas:
        _, bounds = segmenter.decide(votes, dataclasses.replace(cfg, theta=theta))
        score = metrics.boundary_score(gold_bounds, bounds, stream_length=len(words))
        rows.append((f"{theta:g}", score.precision, score.recall, score.f1))
    _emit(metrics.tsv(rows), args.out)
    return 0


def _condition_scores(
    blocks: list[SeppDocument], cfg: segmenter.SegmenterConfig, classifier: Classifier
) -> list[float]:
    scores = []
    for block in blocks:
        words = strip_labels(block)
        gold_bounds = metrics.boundaries_from_document(block, cfg.segmenters)
        bounds = segmenter.segment(words, classifier, cfg).boundaries
        scores.append(metrics.boundary_score(gold_bounds, bounds).f1)
    return scores


def cmd_significance(args: argparse.Namespace) -> int:
    corpus = parse_sepp_file(args.gold)
    blocks = metrics.split_testfiles(corpus, args.block_size)
    if len(blocks) < 2:
        raise TooShortError(f"only {len(blocks)} block(s); the paired test needs at least 2")

    settings_a = resolve_settings(argparse.Namespace(config=args.config_a))
    settings_b = resolve_settings(argparse.Namespace(config=args.config_b))
    # both conditions are built before either scores a block, and A is closed
    # before B scores, so at most one external child runs at a time
    cfg_a, cfg_b = segmenter_config(settings_a), segmenter_config(settings_b)
    with make_classifier(settings_b["classifier"]) as classifier_b:
        with make_classifier(settings_a["classifier"]) as classifier_a:
            scores_a = _condition_scores(blocks, cfg_a, classifier_a)
        scores_b = _condition_scores(blocks, cfg_b, classifier_b)

    rows = [("A", metrics.summarize(scores_a)), ("B", metrics.summarize(scores_b))]
    _emit(metrics.summaries_tsv(rows), args.out)
    if args.scores_out:
        table = [("block", "f1_a", "f1_b"), *zip(range(len(scores_a)), scores_a, scores_b)]
        atomic_write(args.scores_out, metrics.tsv(table))
    p = metrics.paired_significance(
        scores_a, scores_b, permutations=args.permutations, seed=args.seed
    )
    sys.stdout.write(metrics.tsv([("p_value", f"{p:.6g}")]))
    return 0


def _add_shared(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        kind, _, help_text = _SHARED[key]
        choices = ["per_class", "pooled"] if key == "pooling" else None
        parser.add_argument(f"--{key}", type=kind, choices=choices, help=help_text)
    parser.add_argument("--config", default=None, help="key = value settings file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puncseg",
        description="Punctuation restoration and sentence segmentation for word streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="raw one-sentence-per-line text to SEPP")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--truecase-model", default=None, help="load if present, else train and save")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("split", help="deterministic train/test split of SEPP corpora")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--fraction", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit", choices=["sentence", "document"], default="sentence")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the reference classifier on SEPP files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=5)
    _add_shared(p, "window", "seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="single-pass token labels for a SEPP file's words")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    _add_shared(p, "window", "classifier")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("segment", help="segment a plain word-stream file")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--emit-sepp", default=None, help="also write predicted labels as SEPP")
    _add_shared(p, "window", "stride", "theta", "segmenters", "pooling", "classifier")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval-labels", help="label-level report of pred SEPP against gold SEPP")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_eval_labels)

    p = sub.add_parser("eval-boundaries", help="boundary-level score of pred against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--out", default=None)
    _add_shared(p, "segmenters")
    p.set_defaults(func=cmd_eval_boundaries)

    p = sub.add_parser("sweep", help="boundary scores over a list of theta values")
    p.allow_abbrev = False  # --theta would otherwise abbreviate --thetas
    p.add_argument("gold")
    p.add_argument("--thetas", required=True, help="comma or space separated theta values")
    p.add_argument("--out", default=None)
    _add_shared(p, "window", "stride", "segmenters", "pooling", "classifier")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "significance", help="paired comparison of two conditions over testfile blocks"
    )
    p.add_argument("gold")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--block-size", type=int, required=True, help="sentences per test file")
    p.add_argument("--permutations", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--scores-out", default=None, help="per-block score table for plotting")
    p.set_defaults(func=cmd_significance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(vars(args))
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
