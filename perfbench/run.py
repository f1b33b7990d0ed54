"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-mono --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
against worker processes; ``--trace 1`` hosts the same topology in
this process, records spans at every layer boundary, and prints the
per-layer metrics instead.  Every answer is checked against the
oracles in ``oracle.py`` after the timed phase.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it name each metric with
its unit and record the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up and check included


def _children() -> list[int]:
    """Pids whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                found.append(int(entry))
    return found


def _watchdog(seconds: float) -> threading.Timer:
    """Kill the run (workers first) if it outlives ``seconds``."""

    def expire() -> None:
        print(f"perfbench: run exceeded {seconds:.0f}s; stopping", file=sys.stderr)
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    return timer


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def _percentile_ms(phase, q: float) -> float:
    """A latency percentile, in milliseconds, over the queries answered
    in the phase's fast slices (``Phase.fast_slices``)."""
    import numpy as np

    latencies = phase.fast_latencies()
    return float(np.percentile(latencies, q) * 1e3) if latencies.size else 0.0


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    perturb: bool = False,
) -> tuple[dict, dict]:
    """One run: returns (the result object, metadata)."""
    import numpy as np

    from perfbench.spans import UNMEASURED, SpanRecorder
    from perfbench.workloads import WORKLOADS, layer_gauges
    from repro.core.tugofwar import TugOfWarSketch
    from repro.kernels import kernel_info

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]

    workload = WORKLOADS[name](seed, tiny)
    # Load (and on a fresh checkout, compile) the kernel backend before
    # any set-up is timed.
    TugOfWarSketch(s1=4, s2=1, seed=1).update_from_stream(np.arange(8))

    recorder = None
    if trace:
        recorder = SpanRecorder()
        recorder.install()
        recorder.enabled = True
    setup_times, session = [], None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if session is not None:
                workload.teardown(session)
                session = None
            started = time.perf_counter()
            session = workload.setup(traced=trace)
            setup_times.append(time.perf_counter() - started)
        if trace:
            recorder.enabled = False
            phases = [workload.run(session, seconds / 2)]
            recorder.enabled = True
            phases.append(workload.run(session, seconds / 2))
            recorder.enabled = False
            gauges = {**workload.gauges(session), **layer_gauges(session)}
        else:
            phases = [workload.run(session, seconds)]
            gauges = workload.gauges(session)
            gauges["server_rss_mb"] = workload.rss_mb(session)
    finally:
        if session is not None:
            workload.teardown(session)
        if recorder is not None:
            recorder.enabled = False
            recorder.uninstall()

    results = workload.check(phases, perturb=perturb)
    queries = [q for phase in phases for q in phase.queries]
    wrong = sum(q.weight for q, r in zip(queries, results) if q.answer is not None and not r["matched"])
    # Every distinct request (kind, streams, window) counts once, with
    # the median error of its answers: hot requests re-asked after each
    # invalidation would otherwise stand for the whole workload.
    by_request: dict = {}
    for q, r in zip(queries, results):
        if q.answer is not None and r["exact"]:
            by_request.setdefault((q.kind, q.streams, q.t0, q.t1), []).append(
                abs(q.answer - r["exact"]) / r["exact"]
            )
    errors = np.array([np.median(e) for e in by_request.values()])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + wrong

    if trace:
        untraced, traced = phases
        metrics = {
            **recorder.layer_metrics(),
            **{k: v for k, v in gauges.items() if k in units},
            "trace.overhead.ingest_values_per_s": traced.ingest_rate() - untraced.ingest_rate(),
            "trace.overhead.query_p50_ms": _percentile_ms(traced, 50)
            - _percentile_ms(untraced, 50),
        }
        BUILD.mkdir(parents=True, exist_ok=True)
        recorder.write(BUILD / f"spans-{name}-seed{seed}.tsv")
    else:
        (phase,) = phases
        metrics = {
            "ingest_values_per_s": phase.ingest_rate(),
            "query_p50_ms": _percentile_ms(phase, 50),
            "query_p95_ms": _percentile_ms(phase, 95),
            "estimate_rel_err": float(np.median(errors)) if errors.size else 0.0,
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
            "state_words": gauges["state_words"],
            "server_rss_mb": gauges["server_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError(f"workload {name} produced no value for {missing}")
    result = {
        "correct": wrong == 0 and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "kernel_info": kernel_info(),
        "worker_kernel_backend": gauges.get("worker_backend"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_s_each": setup_times,
        "queries": [len(p.latencies) for p in phases],
        "queries_in_fast_slices": [int(p.fast_latencies().size) for p in phases],
        "wrong_answers": wrong,
        "failed_frac": failed / attempted if attempted else None,
        "phase_notes": [p.notes for p in phases],
        "unmeasured": list(UNMEASURED) if trace else [],
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    _prepare_environment()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    _watchdog(DEADLINE_S)
    # A terminated run still shuts its workers down (the set-up's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, meta = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("# meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
