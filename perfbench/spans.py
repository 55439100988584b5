"""Spans around the library's public calls, for the traced benchmark run.

``instrument`` replaces selected public functions in the ``puncseg``
modules with wrappers that record a span per call and restores them on
exit.  Because the library calls its own functions through module
globals (``segment`` calls ``accumulate_votes``, which calls
``windows``), nested calls are traced too, and nothing under ``src/``
changes.  ``TracedClassifier`` does the same for a classifier object.

Spans stay in memory as ``[name, start, end, parent, doc]`` lists and
are reduced to per-layer metrics at the end.  A span's self time is its
duration minus its direct children's.  Spans named ``trace.*`` are the
tracer's own work (the ``tracemalloc`` probe) and count as overhead.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict

from puncseg import classifier, metrics, segmenter, sepp, textprep
from puncseg.errors import SeppConsistencyWarning

_TRACED = {
    sepp: ["parse_sepp", "write_sepp"],
    textprep: ["tokenize", "train_truecaser", "truecase", "extract_labels", "split_corpus"],
    classifier: ["train_reference", "save_model", "load_model"],
    segmenter: ["segment", "accumulate_votes", "windows", "decide"],
    metrics: [
        "confusion", "report", "format_report", "report_tsv", "confusion_tsv",
        "boundary_score", "boundaries_from_document",
        "split_testfiles", "summarize", "summaries_tsv", "paired_significance",
    ],
}

_MIB = 1024 * 1024


class Tracer:
    """In-memory span recorder plus the counters kept at the same call boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.doc: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.doc])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def wrap_classifier(self, clf):
        return TracedClassifier(clf, self)


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    doc = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap_classifier(self, clf):
        return clf


def _span_name(clf) -> str:
    if isinstance(clf, classifier.ReplayClassifier):
        return "classifier.replay"
    if getattr(clf, "name", None) == "external":
        return "external.request"
    return "classifier.classify"


class TracedClassifier:
    """Classifier proxy that records one span per ``classify`` call.

    Every other attribute, such as ``max_window_words`` or a capability
    the segmenter probes with ``getattr``, is forwarded to the wrapped
    classifier, so the segmenter behaves as it does untraced.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._span_name = _span_name(inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def classify(self, window):
        tracer = self._tracer
        idx = tracer.open(self._span_name)
        try:
            return self._inner.classify(window)
        finally:
            tracer.close(idx)
            tracer.counts["classifier.positions"] += len(window)
            tracer.counts[self._span_name + ".positions"] += len(window)


def _after_call(tracer: Tracer, name: str, sig, args, kwargs, out) -> None:
    """Counters read from a traced call's arguments and result."""
    if name == "windows":
        tracer.counts["segmenter.windows"] += len(out)
    elif name == "parse_sepp":
        tracer.counts["sepp.tokens"] += len(out)
    elif name == "write_sepp":
        tracer.counts["sepp.tokens"] += len(args[0])
    elif name == "train_reference":
        tracer.counts["classifier.train_tokens"] += sum(len(d) for d in args[0])
    elif name == "save_model":
        path = sig.bind(*args, **kwargs).arguments["path"]
        tracer.counts["classifier.model_bytes"] = os.path.getsize(path)
    elif name == "paired_significance":
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n = len(bound.arguments["scores_a"])
        perms = bound.arguments["permutations"]
        tracer.counts["metrics.permutations"] += 2**n if perms is None or 2**n <= perms else perms


def _alloc_probe(tracer: Tracer, fn, args, kwargs) -> None:
    """Repeat a ``windows`` call under tracemalloc, in a span of its own, for its peak."""
    idx = tracer.open("trace.alloc_probe")
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        del out
    finally:
        tracemalloc.stop()
        tracer.close(idx)
    tracer.peak("segmenter.windows_alloc_mib", peak / _MIB)


def _wrap(tracer: Tracer, module, name: str, fn):
    span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        idx = tracer.open(span_name)
        try:
            if name == "parse_sepp":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = fn(*args, **kwargs)
                for w in caught:
                    if issubclass(w.category, SeppConsistencyWarning):
                        tracer.counts["sepp.consistency_warnings"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            else:
                out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        _after_call(tracer, name, sig, args, kwargs, out)
        if name == "windows":
            _alloc_probe(tracer, fn, args, kwargs)
        return out

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the public library calls for the duration of the block."""
    originals = [(m, n, getattr(m, n)) for m, names in _TRACED.items() for n in names]
    try:
        for module, name, fn in originals:
            setattr(module, name, _wrap(tracer, module, name, fn))
        yield tracer
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, inclusive method; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, window: tuple[float, float], untraced_wall: float) -> dict:
    """Reduce spans and counters to the per-layer metrics.

    ``window`` is the (start, end) of the traced pass; the layer share is
    the layers' self time inside it over its wall time.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    in_pass = 0.0
    for s, t in zip(spans, own):
        self_s[s[0]] += t
        calls[s[0]] += 1
        durations[s[0]].append(s[2] - s[1])
        if window[0] <= s[1] and s[2] <= window[1] and not s[0].startswith(("trace.", "bench.")):
            in_pass += t
    c = tracer.counts
    requests = calls["external.request"]
    train_s = self_s["classifier.train_reference"]
    traced_wall = window[1] - window[0]
    spawn = durations["external.spawn"]
    return {
        "classifier.calls": (calls["classifier.classify"] + calls["classifier.replay"] + requests, "count"),
        "classifier.positions": (c["classifier.positions"], "count"),
        "classifier.classify_s": (self_s["classifier.classify"], "s"),
        "classifier.train_s": (train_s, "s"),
        "classifier.train_tokens_per_s": (c["classifier.train_tokens"] / train_s if train_s else 0.0, "tokens/s"),
        "classifier.save_s": (self_s["classifier.save_model"], "s"),
        "classifier.load_s": (self_s["classifier.load_model"], "s"),
        "classifier.model_bytes": (c["classifier.model_bytes"], "bytes"),
        "classifier.replay_s": (self_s["classifier.replay"], "s"),
        "segmenter.windows": (c["segmenter.windows"], "count"),
        "segmenter.windows_s": (self_s["segmenter.windows"], "s"),
        "segmenter.windows_alloc_mib": (tracer.peaks.get("segmenter.windows_alloc_mib", 0.0), "MiB"),
        "segmenter.vote_self_s": (self_s["segmenter.accumulate_votes"], "s"),
        "segmenter.decide_s": (self_s["segmenter.decide"], "s"),
        "segmenter.decide_calls": (calls["segmenter.decide"], "count"),
        "segmenter.render_s": (self_s["segmenter.render"], "s"),
        "segmenter.segment_self_s": (self_s["segmenter.segment"], "s"),
        "external.requests": (requests, "count"),
        "external.words_per_request": (c["external.request.positions"] / requests if requests else 0.0, "words"),
        "external.request_ms_p50": (percentile(durations["external.request"], 50) * 1e3, "ms"),
        "external.request_ms_p90": (percentile(durations["external.request"], 90) * 1e3, "ms"),
        "external.spawn_s": (statistics.median(spawn) if spawn else 0.0, "s"),
        "sepp.parse_s": (self_s["sepp.parse_sepp"], "s"),
        "sepp.write_s": (self_s["sepp.write_sepp"], "s"),
        "sepp.tokens": (c["sepp.tokens"], "count"),
        "sepp.consistency_warnings": (c["sepp.consistency_warnings"], "count"),
        "textprep.tokenize_s": (self_s["textprep.tokenize"], "s"),
        "textprep.truecase_s": (self_s["textprep.train_truecaser"] + self_s["textprep.truecase"], "s"),
        "textprep.extract_s": (self_s["textprep.extract_labels"], "s"),
        "textprep.split_s": (self_s["textprep.split_corpus"], "s"),
        "metrics.report_s": (sum(self_s[f"metrics.{n}"] for n in (
            "confusion", "report", "format_report", "report_tsv", "confusion_tsv")), "s"),
        "metrics.boundary_s": (self_s["metrics.boundary_score"]
                               + self_s["metrics.boundaries_from_document"], "s"),
        "metrics.summarize_s": (self_s["metrics.summarize"] + self_s["metrics.summaries_tsv"], "s"),
        "metrics.significance_s": (self_s["metrics.paired_significance"] + self_s["metrics.split_testfiles"], "s"),
        "metrics.permutations": (c["metrics.permutations"], "count"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
        "trace.layer_share": (in_pass / traced_wall, "ratio"),
    }
