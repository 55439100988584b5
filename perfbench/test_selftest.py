"""Self-test of the benchmark at small input sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench

It checks that every metric BENCHMARK.json names is emitted, with its
unit, on every workload; that the per-layer metrics a workload exercises
are nonzero; that a deliberately corrupted output is counted as a failed
operation; and that the tracer and the context counter are faithful.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import gen  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import HashClassifier  # noqa: E402
from puncseg import segmenter  # noqa: E402
from puncseg.sepp import PunctLabel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics each workload must exercise (nonzero in its traced run).
EXERCISED = {
    "segment_builtin": {
        "classifier.calls", "classifier.positions", "classifier.classify_s", "classifier.train_s",
        "classifier.train_tokens_per_s", "classifier.save_s", "classifier.load_s",
        "classifier.model_bytes", "segmenter.windows", "segmenter.windows_s",
        "segmenter.windows_alloc_mib", "segmenter.vote_self_s", "segmenter.decide_s",
        "segmenter.decide_calls", "segmenter.render_s", "sepp.write_s", "sepp.tokens",
    },
    "segment_external": {
        "classifier.calls", "classifier.positions", "segmenter.windows", "segmenter.windows_s",
        "segmenter.vote_self_s", "segmenter.decide_s", "segmenter.render_s", "external.requests",
        "external.words_per_request", "external.request_ms_p50", "external.request_ms_p90",
        "external.spawn_s", "sepp.write_s", "sepp.tokens",
    },
    "train_eval": {
        "classifier.calls", "classifier.positions", "classifier.classify_s", "classifier.train_s",
        "classifier.train_tokens_per_s", "classifier.save_s", "classifier.load_s",
        "classifier.model_bytes", "classifier.replay_s", "segmenter.windows",
        "segmenter.vote_self_s", "segmenter.decide_s", "segmenter.decide_calls",
        "sepp.parse_s", "sepp.write_s", "sepp.tokens", "textprep.tokenize_s",
        "textprep.truecase_s", "textprep.extract_s", "textprep.split_s", "metrics.report_s",
        "metrics.boundary_s", "metrics.summarize_s", "metrics.significance_s",
        "metrics.permutations",
    },
}


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workload: str, traced: bool, workdir: Path, seed: int = 3):
    if workload == "train_eval":
        # seed 0, so the output digests recorded for it apply
        return workloads.run_train_eval(0, 0.0, traced, workdir)
    kind = workload.split("_", 1)[1]
    return workloads.run_segment(kind, seed, 0.0, traced, workdir, workloads.TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, workdir):
    run = _run(workload, False, workdir)
    assert run.failed == 0, run.failures
    values, wall, samples = bench.end_to_end(run)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(values) == set(want) == set(wall) == set(samples)
    assert bench.END_TO_END_UNITS == want
    assert all(v > 0 for v in values.values()), values
    assert set(run.rss_mib) == {"before_passes", "after_passes"}
    if workload == "segment_builtin":  # the long stream is always checked by brute force
        _, docs = workloads._segment_documents(3, workloads.TINY)
        oracle_lengths = [len(docs[i]) for i in run.params["oracle_docs"]]
        assert workloads.TINY.long_stream in oracle_lengths

    traced = _run(workload, True, workdir)
    assert traced.failed == 0, traced.failures
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in traced.trace.items()} == want
    zero = sorted(n for n in EXERCISED[workload] if not traced.trace[n][0] > 0)
    assert not zero, f"{workload} left these per-layer metrics at 0: {zero}"
    assert "input.distinct_context_share" in traced.inputs


def _flip_first_label(decide):
    def flipped(votes, cfg):
        labels, boundaries = decide(votes, cfg)
        if labels[0] is PunctLabel.NONE:
            return [PunctLabel.PERIOD] + labels[1:], boundaries | {0}
        return [PunctLabel.NONE] + labels[1:], boundaries - {0}
    return flipped


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_label_counts_as_failed(workload, workdir, monkeypatch):
    monkeypatch.setattr(segmenter, "decide", _flip_first_label(segmenter.decide))
    run = _run(workload, False, workdir)
    assert run.failed >= 1 and run.failed / run.attempted > 0, run


def test_instrument_restores_and_proxy_forwards():
    before = segmenter.windows
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert segmenter.windows is not before
        clf = tracer.wrap_classifier(HashClassifier(1))
        assert clf.max_window_words is None and clf.name == "hash"
        cfg = segmenter.SegmenterConfig(window_words=4)
        segmenter.segment(["a", "b", "c", "d", "e", "f"], clf, cfg)
    assert segmenter.windows is before
    names = [s[0] for s in tracer.spans]
    assert names.count("classifier.classify") == 3 and names.count("segmenter.windows") == 1
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - (tracer.spans[0][2] - tracer.spans[0][1])) < 1e-6


@pytest.mark.parametrize("n,window,stride", [(1, 200, 1), (7, 3, 1), (30, 8, 1), (30, 8, 3),
                                             (12, 12, 1), (40, 6, 5), (5, 2, 2)])
def test_window_contexts_match_enumeration(n, window, stride):
    stream = [f"w{i % 4}" for i in range(n)]
    cfg = segmenter.SegmenterConfig(window_words=window, stride=stride)
    want, positions = set(), 0
    for win in segmenter.windows(stream, cfg):
        m = len(win.words)
        positions += m
        for j in range(m):
            want.add((
                win.words[j - 1] if j else "<s>", win.words[j],
                win.words[j + 1] if j + 1 < m else "</s>",
                win.words[j + 2] if j + 2 < m else "</s>",
                str(j) if j < 4 else "4+", j == m - 1,
            ))
    got: set = set()
    assert gen.window_contexts(stream, window, stride, got) == positions
    assert got == want


def test_exits_nonzero_without_the_library():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
