"""puncseg benchmark: one workload run, printed as one JSON result line.

Usage, from the root of a source checkout (nothing needs installing)::

    python3 perfbench/run.py --workload segment_builtin --seed 1 --seconds 30 --trace 0

Workloads are ``segment_builtin``, ``segment_external`` and ``train_eval``
(see ``workloads.py`` and BENCHMARK.json for what each runs and why).
``--trace 0`` measures the end-to-end metrics with tracing off, its
timings in reference seconds (wall time corrected for the host's
momentary speed, see ``hostspeed.py``).  ``--trace 1`` runs a warm-up
pass, an untraced pass and a traced pass, and reports the per-layer
metrics of the traced one in wall seconds.

The line before the last is a run record: git sha, interpreter and numpy
versions, CPU count, seed, workload parameters, input properties, the
sample count behind every metric, the same end-to-end figures in wall
seconds, and the failed-operation ratio with the first failures.  The
last line is ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark imports the library from ``src/`` and the test oracles and
corpora from ``tests/``; without them it exits with status 2 and prints
no result.  Self-test: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("segment_builtin", "segment_external", "train_eval")
HASH_SEED = "0"
END_TO_END_UNITS = {
    "words_per_s": "words/s",
    "doc_ms_p50": "ms",
    "doc_ms_p90": "ms",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _figures(run, seconds) -> dict:
    """End-to-end figures, with ``seconds`` mapping a (start, wall) timing to seconds.

    Every pass repeats the same documents, so each document's latency is
    the median of its passes and the percentiles are taken over
    documents.  A segment workload's pipeline time is the sum of its
    documents' latencies; train_eval's is the median pass.  Peak memory is
    read when the timed passes end, before the oracle checks.
    """
    from spans import percentile

    per_doc = [statistics.median(seconds(t) for t in v) for v in run.doc_s.values()]
    if run.pipeline_from_docs:
        pipeline = sum(per_doc)
    else:
        pipeline = statistics.median(sum(seconds(t) for t in parts) for parts in run.passes)
    return {
        "words_per_s": run.words / pipeline,
        "doc_ms_p50": percentile(per_doc, 50) * 1e3,
        "doc_ms_p90": percentile(per_doc, 90) * 1e3,
        "pipeline_s": pipeline,
        "peak_rss_mib": run.rss_mib["after_passes"],
        "setup_s": statistics.median(seconds(t) for t in run.setup_s),
    }


def end_to_end(run) -> tuple[dict, dict, dict]:
    """The end-to-end metrics in reference seconds, the same in wall seconds,
    and the sample count behind each."""
    doc_samples = sum(len(v) for v in run.doc_s.values())
    pipeline_samples = doc_samples if run.pipeline_from_docs else len(run.passes)
    samples = {
        "words_per_s": pipeline_samples,
        "doc_ms_p50": doc_samples,
        "doc_ms_p90": doc_samples,
        "pipeline_s": pipeline_samples,
        "peak_rss_mib": 1,
        "setup_s": len(run.setup_s),
    }
    reference = _figures(run, lambda t: run.calibrator.to_reference(*t))
    return reference, _figures(run, lambda t: t[1]), samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/puncseg/__init__.py", "tests/oracles.py", "tests/corpora.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # Fixed placement: this process on the first CPU it may use, the
    # external child on the last.  Left to the scheduler, the child moved
    # between CPUs from run to run, and its round-trip time with it.
    cpus = sorted(os.sched_getaffinity(0))
    cpu, child_cpu = cpus[0], cpus[-1]
    os.sched_setaffinity(0, {cpu})

    import hostspeed
    import numpy
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        traced = bool(args.trace)
        if args.workload == "train_eval":
            run = workloads.run_train_eval(args.seed, args.seconds, traced, workdir)
        else:
            kind = args.workload.split("_", 1)[1]
            run = workloads.run_segment(kind, args.seed, args.seconds, traced, workdir,
                                        child_cpu=child_cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if not run.passes:
        print(f"error: no pass completed: {run.failures}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": cpu,
        "load": "closed loop, one client, one process"
                + (f" plus one child process on CPU {child_cpu}"
                   if args.workload == "segment_external" else ""),
        "params": run.params,
        "inputs": run.inputs,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ops_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures,
        "rss_mib": run.rss_mib,
    }
    if traced:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run.trace.items()}
        record["span_counts"] = run.span_counts
    else:
        values, wall, samples = end_to_end(run)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        record["samples"] = samples
        record["docs_timed"] = len(run.doc_s)
        record["wall_clock"] = wall
        record["pass_wall_s"] = [sum(t[1] for t in parts) for parts in run.passes]
        cal = run.calibrator.samples
        record["host_speed"] = {
            "calibrations": len(cal),
            "median_s": statistics.median(cal),
            "reference_s": hostspeed.REFERENCE_S,
        }
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # String hashes are salted per process unless PYTHONHASHSEED is set, and
    # the salt moves dict layouts and with them the timings by several
    # percent; pin it so runs compare.  exec keeps this one process.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
