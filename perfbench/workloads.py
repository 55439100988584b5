"""The three benchmark workloads, driven through the library's public API.

Each workload is a closed loop with one client: the next document (or
pipeline stage) starts only when the previous one has returned.  A run
builds its inputs from the seed, sets up, then repeats whole passes over
the same inputs until ``seconds`` have passed, so every pass does the
same work and per-pass figures compare.  Outputs are checked outside the
timed regions; every document, block or stage that raised or produced
wrong output counts as one failed operation.

The segment workloads call the library in the order ``puncseg segment
--emit-sepp`` does (``segment`` -> ``to_text`` -> ``write_sepp``), and
``train_eval`` in the order of ``prepare``, ``split``, ``train``,
``classify``, ``eval-labels``, ``sweep`` and ``significance``, without
the file I/O.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import child
import gen
from hostspeed import Calibrator
from spans import NullTracer, Tracer, instrument, layer_metrics
from corpora import template_corpus
from oracles import brute_force_decide, brute_force_segment, brute_force_votes
from puncseg import classifier, external, metrics, segmenter, sepp, textprep
from puncseg.cli import _predictions_document
from puncseg.sepp import PunctLabel, SeppDocument

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"


@dataclass(frozen=True)
class Size:
    """Segment-workload input sizes; ``DEFAULT`` is what the benchmark runs,
    ``TINY`` is for its self-test."""

    name: str = "default"
    vocab: int = 20000
    n_docs: int = 120
    shortest: int = 20
    longest: int = 320
    long_stream: int = 20000
    train_words: int = 20000
    train_epochs: int = 3
    oracle_docs: int = 4  # short documents checked by brute force, besides the long stream


DEFAULT = Size()
TINY = Size(name="tiny", vocab=400, n_docs=12, shortest=5, longest=120, long_stream=600,
            train_words=2000, train_epochs=2, oracle_docs=2)
SIZES = {size.name: size for size in (DEFAULT, TINY)}

SETUP_REPS = 5  # set-ups timed before the passes; each pass adds one more

# train_eval
SENTENCES = 2000
EPOCHS = 5
TRAIN_FRACTION = 0.75
BLOCK_SENTENCES = 5
THETAS = tuple(round(0.05 * k, 2) for k in range(1, 20))
PERMUTATIONS = 10000

CFG = segmenter.SegmenterConfig(window_words=200, stride=1, pooling="per_class")


@dataclass
class Run:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    words: int = 0  # words (or corpus tokens) one pass processes
    pipeline_from_docs: bool = True
    # Timings are (start, wall seconds) pairs; the calibrator turns them
    # into reference seconds (see hostspeed.py).
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    passes: list[list[tuple[float, float]]] = field(default_factory=list)  # timed parts of each pass
    doc_s: dict = field(default_factory=dict)  # document or block -> one timing per pass
    calibrator: Calibrator = field(default_factory=Calibrator)
    rss_mib: dict = field(default_factory=dict)  # ru_maxrss before and after the timed passes
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)  # per-layer metrics of a traced run
    span_counts: dict = field(default_factory=dict)  # spans per name: the samples behind them

    def sample(self, doc, timing: tuple[float, float]) -> None:
        self.doc_s.setdefault(doc, []).append(timing)

    def timed(self, fn):
        """Calibrate, then call ``fn``; returns its result and (start, wall seconds)."""
        self.calibrator.sample()
        t0 = time.perf_counter()
        out = fn()
        return out, (t0, time.perf_counter() - t0)

    def note_rss(self, when: str) -> None:
        self.rss_mib[when] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _timed_passes(seconds: float, one_pass) -> None:
    """Whole passes, at least one, until ``seconds`` have passed."""
    start = time.perf_counter()
    done = 0
    while not done or time.perf_counter() - start < seconds:
        one_pass(done)
        done += 1


def _measured_passes(run: Run, seconds: float, traced: bool, one_pass, tracer) -> None:
    """The run's passes, with ``peak_rss_mib`` read around them, before any oracle check."""
    run.note_rss("before_passes")
    if traced:
        _traced_passes(run, one_pass, tracer)
    else:
        _timed_passes(seconds, one_pass)
    run.note_rss("after_passes")


def _traced_passes(run: Run, one_pass, tracer: Tracer) -> None:
    """A warm-up pass, an untraced pass and a traced pass; per-layer metrics of the last."""
    one_pass(0)
    t0 = time.perf_counter()
    one_pass(1)
    untraced = time.perf_counter() - t0
    with instrument(tracer):
        t0 = time.perf_counter()
        one_pass(2, tracer)
        t1 = time.perf_counter()
    run.trace = layer_metrics(tracer, (t0, t1), untraced)
    run.span_counts = dict(Counter(span[0] for span in tracer.spans))


def _context_share(streams_and_windows) -> tuple[float, int, int]:
    seen: set = set()
    positions = 0
    for stream, window_words in streams_and_windows:
        positions += gen.window_contexts(stream, window_words, 1, seen)
    return len(seen) / positions, len(seen), positions


# --------------------------------------------------------------------------
# segment_builtin / segment_external


def _segment_documents(seed: int, size: Size):
    vocab = gen.make_vocabulary(size.vocab)
    lengths = gen.doc_lengths(size.n_docs, size.shortest, size.longest, size.long_stream)
    return vocab, gen.zipf_documents(vocab, lengths, seed)


def prepare_segment(kind: str, seed: int, size: Size, workdir: Path) -> dict:
    """The set-up a segment run does not measure: input properties and, for
    ``builtin``, the model, trained and saved to ``workdir/model.bin``.

    The untraced run calls this through ``prepare.py`` in a child process,
    so that training and the context set do not set its ``peak_rss_mib``.
    """
    vocab, docs = _segment_documents(seed, size)
    if kind == "builtin":
        corpus = gen.zipf_training_corpus(vocab, size.train_words, seed)
        model = classifier.train_reference([corpus], size.train_epochs, seed)
        classifier.save_model(model, workdir / "model.bin")
    lengths = [len(d) for d in docs]
    share, contexts, positions = _context_share((d, CFG.window_words) for d in docs)
    return {
        "words": sum(lengths),
        "docs": len(docs),
        "doc_length_over_W": gen.length_profile(lengths, CFG.window_words),
        "vocabulary_size": len({w for d in docs for w in d}),
        "generator_vocabulary": size.vocab,
        "input.distinct_context_share": share,
        "distinct_contexts": contexts,
        "positions_classified": positions,
    }


def _segment_doc(words, clf, tracer):
    """One closed-loop request: segment, render, write the predictions as SEPP."""
    with tracer.span("bench.doc"):
        result = segmenter.segment(words, clf, CFG)
        with tracer.span("segmenter.render"):
            text = result.to_text()
        pred = _predictions_document(result.words, result.labels, set(result.boundaries))
        return result, text, sepp.write_sepp(pred)


def _structure_ok(words, result, sepp_text) -> bool:
    if result.words != list(words) or len(result.labels) != len(words):
        return False
    cuts = [i for i, lab in enumerate(result.labels) if lab in CFG.segmenters]
    if result.boundaries != cuts:
        return False
    return [line.split("\t", 1)[0] for line in sepp_text.splitlines()] == list(words)


def run_segment(kind: str, seed: int, seconds: float, traced: bool, workdir: Path,
                size: Size = DEFAULT, child_cpu: int | None = None) -> Run:
    """``kind`` is "builtin" or "external"; BENCHMARK.json says why each exists.

    ``child_cpu`` is the CPU the external child pins itself to.
    """
    run = Run()
    _, docs = _segment_documents(seed, size)
    tracer = Tracer() if traced else NullTracer()
    if traced:
        with instrument(tracer):
            run.inputs = prepare_segment(kind, seed, size, workdir)
    else:
        subprocess.run([sys.executable, str(HERE / "prepare.py"), kind, str(seed), size.name,
                        str(workdir)], check=True)
        run.inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    run.words = run.inputs["words"]
    run.params = {
        "window_words": CFG.window_words, "stride": CFG.stride, "theta": CFG.theta,
        "pooling": CFG.pooling, "segmenters": "".join(sorted(l.char for l in CFG.segmenters)),
        "n_docs": size.n_docs, "shortest": size.shortest, "longest": size.longest,
        "long_stream": size.long_stream, "vocab": size.vocab,
    }

    if kind == "builtin":
        model_path = workdir / "model.bin"
        run.params.update(train_words=size.train_words, train_epochs=size.train_epochs)

        def open_classifier(tr):
            clf = classifier.load_model(model_path)
            return tr.wrap_classifier(clf)

        close = lambda clf: None  # noqa: E731
        expected = None
    else:
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(HERE / 'child.py'))}"
        if child_cpu is not None:
            command += f" --cpu {child_cpu}"
        adapter = external.ExternalAdapterConfig(command, timeout=30.0)
        run.params.update(child="perfbench/child.py", child_cpu=child_cpu,
                          max_window_words=adapter.max_window_words)

        def open_classifier(tr):
            with tr.span("external.spawn"):
                clf = external.ExternalClassifier(adapter)
                clf.classify(["warmup"])  # spawn plus first reply
            return tr.wrap_classifier(clf)

        close = lambda clf: clf.close()  # noqa: E731
        expected = [[sepp.label_from_char(child.label_for(w)) for w in d] for d in docs]

    null = NullTracer()
    for _ in range(SETUP_REPS):
        clf, timing = run.timed(lambda: open_classifier(null))
        run.setup_s.append(timing)
        close(clf)

    reference: list[str | None] = [None] * len(docs)
    first_results: dict[int, object] = {}

    def one_pass(pass_no: int, tr=null) -> None:
        clf, timing = run.timed(lambda: open_classifier(tr))
        run.setup_s.append(timing)
        parts = []
        try:
            for doc_id, words in enumerate(docs):
                tr.doc = doc_id
                run.attempted += 1
                try:
                    (result, text, sepp_text), timing = run.timed(
                        lambda: _segment_doc(words, clf, tr))
                except Exception as exc:  # one failed request; the loop goes on
                    run.fail(f"doc {doc_id}: {type(exc).__name__}: {exc}")
                    continue
                run.sample(doc_id, timing)
                parts.append(timing)
                digest = _digest(text, sepp_text)
                if reference[doc_id] is None:
                    reference[doc_id] = digest
                    first_results[doc_id] = result
                ok = digest == reference[doc_id] and _structure_ok(words, result, sepp_text)
                if ok and expected is not None:
                    ok = result.labels == expected[doc_id]
                if not ok:
                    run.fail(f"doc {doc_id}: wrong output in pass {pass_no}")
        finally:
            close(clf)
        run.calibrator.sample()
        run.passes.append(parts)

    _measured_passes(run, seconds, traced, one_pass, tracer)
    if kind == "builtin":
        _check_builtin_oracle(run, docs, first_results, model_path, seed, size)
    return run


def _check_builtin_oracle(run: Run, docs, results, model_path, seed: int, size: Size) -> None:
    """Compare the long stream and a seeded sample of the other documents
    with the brute-force oracle."""
    model = classifier.load_model(model_path)
    longest = max(range(len(docs)), key=lambda i: len(docs[i]))
    others = sorted(i for i in results if i != longest)
    sample = random.Random(f"oracle-{seed}").sample(others, min(size.oracle_docs, len(others)))
    if longest in results:
        sample.append(longest)
    run.params["oracle_docs"] = sorted(sample)
    for doc_id in sample:
        run.attempted += 1
        labels, bounds = brute_force_segment(
            docs[doc_id], model, CFG.window_words, CFG.stride, CFG.theta,
            CFG.segmenters, CFG.pooling,
        )
        got = results[doc_id]
        if got.labels != labels or got.boundaries != sorted(bounds):
            run.fail(f"doc {doc_id}: differs from the brute-force oracle")


# --------------------------------------------------------------------------
# train_eval

STAGES = ("prepare", "split", "train", "classify", "report", "sweep", "significance", "summarize")


def _recorded_digests(seed: int) -> dict | None:
    if not DIGESTS_FILE.exists():
        return None
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(str(seed))


def _read_corpus(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return list(textprep.clean_lines(fh))


def train_eval_pass(lines: list[str], seed: int, workdir: Path, tracer,
                    on_block, on_stage) -> dict:
    """One research-loop pass.

    ``on_block(key, (start, wall seconds))`` receives each significance
    block's timing and ``on_stage(name, digest)`` each stage's output
    digest; stages are timed from one ``on_stage`` call to the next.

    Returns the objects the run checks against the oracles afterwards.
    """
    # prepare: tokenize -> truecase -> extract labels, then the SEPP file hand-off
    sentences = [textprep.tokenize(line) for line in lines]
    truecaser = textprep.train_truecaser(sentences)
    sentences = [textprep.truecase(s, truecaser) for s in sentences]
    corpus = sepp.parse_sepp(sepp.write_sepp(textprep.extract_labels(sentences)))
    on_stage("prepare", _digest(sepp.write_sepp(corpus)))

    spec = textprep.SplitSpec(train_fraction=TRAIN_FRACTION, seed=seed, unit="sentence")
    train, test = textprep.split_corpus([corpus], spec)
    test_doc = sepp.parse_sepp("".join(sepp.write_sepp(d) for d in test))
    on_stage("split", _digest(len(train), sepp.write_sepp(test_doc)))

    model_path = workdir / "train_eval.bin"
    model = classifier.train_reference(train, EPOCHS, seed, window_words=CFG.window_words)
    classifier.save_model(model, model_path)
    model = tracer.wrap_classifier(classifier.load_model(model_path))
    on_stage("train", _digest(model_path.read_bytes()))

    words = sepp.strip_labels(test_doc)
    labels: list[PunctLabel] = []
    for off in range(0, len(words), CFG.window_words):
        labels.extend(model.classify(words[off : off + CFG.window_words]))
    recorded = sepp.write_sepp(_predictions_document(words, labels, set()))
    on_stage("classify", _digest(recorded))

    gold_labels = [t.label for t in test_doc]
    cm = metrics.confusion(gold_labels, labels)
    rep = metrics.report(cm)
    on_stage("report", _digest(metrics.format_report(rep), metrics.report_tsv(rep),
                               metrics.confusion_tsv(cm)))

    gold_bounds = metrics.boundaries_from_document(test_doc, CFG.segmenters)
    votes = segmenter.accumulate_votes(words, model, CFG)
    sweep = ["theta\tprecision\trecall\tf1"]
    for theta in THETAS:
        _, bounds = segmenter.decide(votes, dataclasses.replace(CFG, theta=theta))
        score = metrics.boundary_score(gold_bounds, bounds, stream_length=len(words))
        sweep.append(f"{theta:g}\t{score.precision:.6f}\t{score.recall:.6f}\t{score.f1:.6f}")
    on_stage("sweep", _digest("\n".join(sweep)))

    replay = tracer.wrap_classifier(
        classifier.ReplayClassifier.from_document(sepp.parse_sepp(recorded))
    )
    blocks = metrics.split_testfiles(test_doc, BLOCK_SENTENCES)
    scores = {}
    for condition, clf in (("A", model), ("B", replay)):
        scores[condition] = []
        for k, block in enumerate(blocks):
            tracer.doc = k
            t0 = time.perf_counter()
            block_words = sepp.strip_labels(block)
            block_gold = metrics.boundaries_from_document(block, CFG.segmenters)
            block_votes = segmenter.accumulate_votes(block_words, clf, CFG)
            _, block_bounds = segmenter.decide(block_votes, CFG)
            scores[condition].append(metrics.boundary_score(block_gold, block_bounds).f1)
            on_block(f"{condition}{k}", (t0, time.perf_counter() - t0))
        tracer.doc = None
    on_stage("significance", _digest(*(f"{a:.6f}\t{b:.6f}" for a, b in zip(scores["A"], scores["B"]))))

    summary = metrics.summaries_tsv([
        ("A", metrics.summarize(scores["A"])), ("B", metrics.summarize(scores["B"]))
    ])
    p = metrics.paired_significance(scores["A"], scores["B"], permutations=PERMUTATIONS, seed=seed)
    on_stage("summarize", _digest(summary, f"{p:.6g}"))
    return {"corpus": corpus, "words": words, "votes": votes, "model_path": model_path,
            "tokens": len(corpus), "blocks": len(blocks)}


def run_train_eval(seed: int, seconds: float, traced: bool, workdir: Path) -> Run:
    run = Run(pipeline_from_docs=False)
    source = template_corpus(SENTENCES, seed)
    corpus_path = workdir / "corpus.txt"
    corpus_path.write_text(gen.raw_text(source), encoding="utf-8")
    recorded = _recorded_digests(seed)
    run.params = {
        "sentences": SENTENCES, "epochs": EPOCHS, "train_fraction": TRAIN_FRACTION,
        "block_sentences": BLOCK_SENTENCES, "thetas": len(THETAS),
        "permutations": PERMUTATIONS, "window_words": CFG.window_words,
        "stride": CFG.stride, "pooling": CFG.pooling,
        "digests": "recorded" if recorded else "first pass (no recorded digests for this seed)",
    }
    null = NullTracer()
    for _ in range(SETUP_REPS):
        run.setup_s.append(run.timed(lambda: _read_corpus(corpus_path))[1])

    reference = dict(recorded) if recorded else {}
    first: dict = {}

    def one_pass(pass_no: int, tr=null) -> None:
        lines, timing = run.timed(lambda: _read_corpus(corpus_path))
        run.setup_s.append(timing)
        parts = []
        run.calibrator.sample()
        lap_start = time.perf_counter()

        def on_stage(name: str, digest: str) -> None:
            nonlocal lap_start
            parts.append((lap_start, time.perf_counter() - lap_start))
            run.calibrator.sample()
            run.attempted += 1
            reference.setdefault(name, digest)
            if digest != reference[name]:
                run.fail(f"stage {name}: output digest {digest} != {reference[name]} (pass {pass_no})")
            lap_start = time.perf_counter()

        stages_before = run.attempted
        try:
            out = train_eval_pass(lines, seed, workdir, tr, run.sample, on_stage)
        except Exception as exc:  # the stage that raised fails; the pass stops there
            stage = STAGES[run.attempted - stages_before]
            run.attempted += 1
            run.fail(f"stage {stage}: {type(exc).__name__}: {exc}")
            return
        run.passes.append(parts)
        run.words = out["tokens"]
        if not first:
            first.update(out)

    _measured_passes(run, seconds, traced, one_pass, Tracer())
    if first:
        _check_train_eval(run, source, first)
        run.inputs = _train_eval_inputs(source, first)
    return run


def _check_train_eval(run: Run, source: SeppDocument, out: dict) -> None:
    """Seed-independent checks on the first pass, against the oracles."""
    run.attempted += 1
    if [(t.word, t.eos, t.label) for t in out["corpus"]] != [(t.word, t.eos, t.label) for t in source]:
        run.fail("prepare: the prepared corpus differs from the generated one")
    run.attempted += 1
    model = classifier.load_model(out["model_path"])
    counts, coverage = brute_force_votes(out["words"], model, CFG.window_words, CFG.stride)
    for theta in THETAS:
        _, want = brute_force_decide(counts, coverage, theta, CFG.segmenters, CFG.pooling)
        _, got = segmenter.decide(out["votes"], dataclasses.replace(CFG, theta=theta))
        if got != want:
            run.fail(f"sweep: theta {theta} differs from the brute-force oracle")
            break


def _train_eval_inputs(source: SeppDocument, out: dict) -> dict:
    words = out["words"]
    share, contexts, positions = _context_share([(words, CFG.window_words)])
    return {
        "words": len(source),
        "docs": 1,
        "sentences": SENTENCES,
        "test_words": len(words),
        "blocks": out["blocks"],
        "test_length_over_W": len(words) / CFG.window_words,
        "vocabulary_size": len({t.word for t in source}),
        "input.distinct_context_share": share,
        "distinct_contexts": contexts,
        "positions_classified": positions,
    }


def compute_digests(seed: int, workdir: Path) -> dict:
    """Stage digests of one pass, for ``digests.json``."""
    corpus_path = workdir / "corpus.txt"
    corpus_path.write_text(gen.raw_text(template_corpus(SENTENCES, seed)), encoding="utf-8")
    digests: dict = {}
    train_eval_pass(_read_corpus(corpus_path), seed, workdir, NullTracer(),
                    lambda key, timing: None, digests.__setitem__)
    os.remove(corpus_path)
    return digests
