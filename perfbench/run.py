"""Seeded recognition benchmark: one workload per process, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing in the
program's path.  ``--trace 1`` is the separate traced run: half the time
untraced, then half traced, and it reports the per-layer metrics (see
README.md for the layer -> metric -> workload map).  ``--smoke`` shrinks
every input so the whole command finishes in seconds (the self-test in
``test_smoke.py`` runs it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose served
answers differ from the in-process oracle, or whose workload design did
not hold (cache hit ratio, enrollment events, warm-up), prints
``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.engine.cache import default_cache, default_matrix_cache  # noqa: E402

from checks import oracle_mismatches  # noqa: E402
from spans import Tracer, mean_ms  # noqa: E402
from workloads import (  # noqa: E402
    SIZES,
    AttachLog,
    Inputs,
    Phase,
    Served,
    Sizes,
    child_pids,
    closed_loop,
    evaluate,
    first_call_warmup,
    fresh_run_dir,
    make_inputs,
    median,
    percentiles_ms,
    pin_to_fastest_cpu,
    release_freed_memory,
    resident_mb,
    timed_setup,
    warm_up,
)

WORKLOADS = tuple(SIZES)


@dataclass
class Measured:
    """One measured phase plus the counters that moved during it."""

    phase: Phase
    cache: tuple[int, int]
    matrix_cache: tuple[int, int]
    report_before: Any
    report_after: Any

    @property
    def attempted(self) -> int:
        return len(self.phase.records)

    @property
    def ok(self) -> int:
        return sum(1 for record in self.phase.records if record.ok)

    @property
    def throughput(self) -> float:
        return self.ok / self.phase.wall_s if self.phase.wall_s > 0 else 0.0

    def report_delta(self, name: str) -> int:
        return getattr(self.report_after, name) - getattr(self.report_before, name)

    def batch_size_mean(self) -> float:
        before = self.report_before.batch_histogram
        sizes = {
            size: count - before.get(size, 0)
            for size, count in self.report_after.batch_histogram.items()
        }
        flushes = sum(sizes.values())
        return sum(size * count for size, count in sizes.items()) / flushes if flushes else 0.0


def measure(
    workload: str, served: Served, inputs: Inputs, sizes: Sizes, seconds: float, offset: int, phase_no: int
) -> Measured:
    """One closed-loop measured phase starting at query *offset*."""
    pool = inputs.measure
    if workload == "warm-library":
        query_at = lambda index: index % len(pool)  # noqa: E731
    else:
        query_at = lambda index: offset + index if offset + index < len(pool) else None  # noqa: E731
    events = len(sizes.enroll_at)
    enroll = {
        at: inputs.enrollments[phase_no * events + k] for k, at in enumerate(sizes.enroll_at)
    }
    cache_before = default_cache().stats.snapshot()
    matrix_before = default_matrix_cache().stats.snapshot()
    report_before = served.service.report()
    gc.collect()
    phase = closed_loop(served.service, query_at, pool, sizes.clients, seconds=seconds, enroll=enroll)
    cache_after = default_cache().stats.snapshot()
    matrix_after = default_matrix_cache().stats.snapshot()
    return Measured(
        phase,
        (cache_after[0] - cache_before[0], cache_after[1] - cache_before[1]),
        (matrix_after[0] - matrix_before[0], matrix_after[1] - matrix_before[1]),
        report_before,
        served.service.report(),
    )


def ratio(hits_misses: tuple[int, int]) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def design_failures(workload: str, sizes: Sizes, phases: list[Measured]) -> list[str]:
    """Checks that the workload measured what it claims to measure."""
    failures: list[str] = []
    for measured in phases:
        phase = measured.phase
        if phase.exhausted:
            failures.append("the never-seen query pool ran out inside the measured window")
        if measured.attempted == 0:
            failures.append("no request was attempted")
        hit_ratio = ratio(measured.cache)
        if workload == "cold-paper" and measured.cache[0] != 0:
            failures.append(f"cold-paper: feature cache hit {measured.cache[0]} times (must be 0)")
        if workload == "warm-library" and hit_ratio < 0.99:
            failures.append(f"warm-library: feature cache hit ratio {hit_ratio:.4f} < 0.99")
        if workload == "sharded-enroll":
            done = [event.index for event in phase.events]
            if done != list(sizes.enroll_at):
                failures.append(f"sharded-enroll: enroll events at {done}, planned {list(sizes.enroll_at)}")
            for event in phase.events:
                if event.error is not None:
                    failures.append(f"enrollment at request {event.index} failed: {event.error}")
                elif not event.probe_ok:
                    failures.append(f"class enrolled at request {event.index} is not recognized")
    return failures


def end_to_end(measured: Measured, evaluation: Phase, setups: list[float], peak_rss: float) -> dict[str, Any]:
    """The gated metrics: throughput and p50 over the whole measured window,
    accuracy over the fixed evaluation set."""
    latencies = [record.done - record.submitted for record in measured.phase.records if record.ok]
    p50, _ = percentiles_ms(latencies) if latencies else (0.0, 0.0)
    correct = sum(1 for record in evaluation.records if record.ok and record.prediction.label == record.label)
    return {
        "setup_s": (median(setups), "s"),
        "throughput_rps": (measured.throughput, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "ok_ratio": (measured.ok / max(1, measured.attempted), "ratio"),
        "accuracy": (correct / max(1, len(evaluation.records)), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def per_layer(
    workload: str, tracer: Tracer, served: Served, untraced: Measured, traced: Measured
) -> dict[str, Any]:
    sharded = workload == "sharded-enroll"
    flushes = tracer.select("serving.flush", phase="measure")
    kernels = tracer.select("imaging.score_kernel")
    kernel_rows = sum(span.rows for span in kernels)
    enrolls = tracer.select("openset.enroll")
    requests = max(1, traced.attempted)
    served_items = sum(span.rows for span in flushes)
    queue_waits = [span.start - enqueued for span in flushes for enqueued in span.enqueued]
    # Reconciliation over measured queries only (enrollment probes also
    # pass through the flushes): each request's latency should be covered
    # by its queue wait plus the whole flush that served it.
    explained = sum(
        span.start - enqueued + span.duration
        for span in flushes
        for enqueued, query in zip(span.enqueued, span.queries)
        if query is not None and query.source == "nyu"
    )
    latency_total = sum(record.done - record.submitted for record in traced.phase.records)
    ipc_bytes = 0.0
    if sharded and served_items:
        payload = sum(len(pickle.dumps(list(span.queries))) for span in flushes)
        ipc_bytes = payload * served.service.workers / served_items
    enroll_latencies = [
        event.report.latency_s * 1000.0 for event in untraced.phase.events if event.report is not None
    ]
    return {
        "imaging.threshold_ms": (mean_ms(tracer.select("imaging.threshold")), "ms"),
        "imaging.contour_ms": (mean_ms(tracer.select("imaging.contour")), "ms"),
        "imaging.moments_ms": (mean_ms(tracer.select("imaging.moments")), "ms"),
        "imaging.histogram_ms": (mean_ms(tracer.select("imaging.histogram")), "ms"),
        "imaging.score_kernel_ms": (
            1000.0 * sum(span.duration for span in kernels) / kernel_rows if kernel_rows else 0.0,
            "ms",
        ),
        "pipelines.crop_ms": (mean_ms(tracer.select("pipelines.crop")), "ms"),
        "pipelines.crop_calls_per_request": (
            len(tracer.select("pipelines.crop", phase="measure", root="serving.flush")) / requests,
            "count",
        ),
        "pipelines.shape_extract_ms": (mean_ms(tracer.select("pipelines.shape_extract")), "ms"),
        "pipelines.color_extract_ms": (mean_ms(tracer.select("pipelines.color_extract")), "ms"),
        "pipelines.predict_batch_ms": (
            mean_ms(tracer.select("pipelines.predict_batch", phase="measure")),
            "ms",
        ),
        "pipelines.fit_s": (mean_ms(tracer.select("pipelines.fit")) / 1000.0, "s"),
        "engine.content_hash_ms": (mean_ms(tracer.select("engine.content_hash")), "ms"),
        "engine.cache_hit_ratio": (ratio(traced.cache), "ratio"),
        "engine.matrix_cache_hit_ratio": (ratio(traced.matrix_cache), "ratio"),
        "engine.invalidate_ms": (
            1000.0 * sum(span.duration for span in tracer.select("engine.invalidate")) / len(enrolls)
            if enrolls
            else 0.0,
            "ms",
        ),
        "serving.queue_wait_ms": (
            1000.0 * sum(queue_waits) / len(queue_waits) if queue_waits else 0.0,
            "ms",
        ),
        "serving.batch_size_mean": (traced.batch_size_mean(), "count"),
        "serving.shard_rtt_ms": (
            1000.0 * sum(span.self_s for span in flushes) / len(flushes) if sharded and flushes else 0.0,
            "ms",
        ),
        "serving.ipc_bytes_per_request": (ipc_bytes, "B"),
        "serving.merge_ms": (mean_ms(tracer.select("serving.merge", phase="measure")), "ms"),
        "serving.degraded": (traced.report_delta("degraded"), "count"),
        "serving.rejected": (traced.report_delta("rejected"), "count"),
        "serving.shard_errors": (traced.report_delta("shard_errors"), "count"),
        "serving.pool_rebuilds": (served.service.pool_rebuilds if sharded else 0, "count"),
        "store.build_s": (mean_ms(tracer.select("store.build")) / 1000.0, "s"),
        "store.attach_ms": (mean_ms(tracer.select("store.attach")), "ms"),
        "store.swap_ms": (mean_ms(tracer.select("store.swap")), "ms"),
        "store.views_extracted_per_enroll": (
            len(tracer.select("pipelines.shape_extract", root="openset.enroll")) / len(enrolls)
            if enrolls
            else 0.0,
            "count",
        ),
        "openset.merge_ms": (mean_ms(tracer.select("openset.merge")), "ms"),
        "openset.enroll_p50_ms": (median(enroll_latencies), "ms"),
        "trace.coverage_ratio": (explained / latency_total if latency_total else 0.0, "ratio"),
        "trace.overhead_ratio": (
            traced.throughput / untraced.throughput if untraced.throughput else 0.0,
            "ratio",
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, run_dir: Path) -> dict[str, Any]:
    sizes = SIZES[workload][smoke]
    cpu = pin_to_fastest_cpu()
    inputs = make_inputs(workload, seed, sizes)
    release_freed_memory()
    attach_log = AttachLog(run_dir / "attach.log") if workload == "sharded-enroll" else None
    tracer = Tracer() if trace else None
    served: Served | None = None
    # The timed set-ups run in three groups, seconds apart: before the
    # measured phase (the last of them serves), after the evaluation pass
    # and after the oracle.  A vCPU's speed for single-threaded Python
    # drifts within seconds, so back-to-back set-ups all caught the same
    # speed; spread out, their median samples the run.  Every input is
    # generated up front, at a size fixed by the workload, so the process
    # is the same size at each point.
    groups = [1, 0, 0] if trace else [(sizes.setups + k) // 3 for k in (2, 1, 0)]
    setups: list[float] = []

    def set_up_and_stop(count: int) -> None:
        for _ in range(count):
            extra, elapsed = timed_setup(workload, inputs, run_dir / f"store-{len(setups)}")
            extra.stop()
            setups.append(elapsed)

    try:
        first_call_warmup(workload, inputs, run_dir)
        if tracer is not None:
            tracer.install()
        set_up_and_stop(groups[0] - 1)
        served, elapsed = timed_setup(workload, inputs, run_dir / f"store-{len(setups)}")
        setups.append(elapsed)
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        failures = []
        warm_failure = warm_up(workload, served, inputs, sizes, attach_log)
        if warm_failure is not None:
            failures.append(warm_failure)
        evaluation: Phase | None = None
        if tracer is None:
            phases = [measure(workload, served, inputs, sizes, seconds, 0, 0)]
            # The program's caches and libraries only grow during a run, so
            # the resident set at the end of the window is its peak.
            peak_rss = resident_mb(os.getpid(), child_pids())
            evaluation = evaluate(served, inputs, sizes)
        else:
            untraced = measure(workload, served, inputs, sizes, seconds / 2, 0, 0)
            tracer.install()
            tracer.phase = "measure"
            tracer.recording = True
            used = max((record.position for record in untraced.phase.records), default=-1) + 1
            traced = measure(workload, served, inputs, sizes, seconds / 2, used, 1)
            tracer.recording = False
            tracer.uninstall()
            phases = [untraced, traced]
        served.stop()
        set_up_and_stop(groups[1])
        failures += design_failures(workload, sizes, phases)
        checked = [record for measured in phases for record in measured.phase.records]
        if evaluation is not None:
            checked += evaluation.records
            if len(evaluation.records) != len(inputs.evaluation):
                failures.append(f"{len(evaluation.records)} of {len(inputs.evaluation)} evaluation queries served")
        mismatches = oracle_mismatches(
            workload,
            inputs,
            served,
            checked,
            [event for measured in phases for event in measured.phase.events],
        )
        if mismatches:
            failures.append(f"{mismatches} served predictions differ from the in-process oracle")
        set_up_and_stop(groups[2])
    finally:
        if served is not None:
            served.stop()
        if attach_log is not None:
            attach_log.close()
        if tracer is not None:
            tracer.uninstall()
    attempted = sum(measured.attempted for measured in phases)
    ok = sum(measured.ok for measured in phases)
    if evaluation is not None:
        metrics = end_to_end(phases[0], evaluation, setups, peak_rss)
    else:
        metrics = per_layer(workload, tracer, served, phases[0], phases[1])
    print(f"{workload} seed={seed}: pinned to cpu {cpu}" if cpu is not None else f"{workload} seed={seed}: unpinned")
    for line in summary(workload, seed, phases, setups):
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {} if failures else {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def summary(workload: str, seed: int, phases: list[Measured], setups: list[float]) -> list[str]:
    """Human-readable lines: set-up timings, then per phase the sample
    counts, latencies (p95 is reported here but not gated; see README.md)
    and enrollments."""
    lines = [f"{workload} seed={seed}: set-ups {', '.join(f'{value:.3f}' for value in setups)} s"]
    for number, measured in enumerate(phases):
        latencies = [r.done - r.submitted for r in measured.phase.records if r.ok]
        p50, p95 = percentiles_ms(latencies) if latencies else (0.0, 0.0)
        lines.append(
            f"  phase {number}: {measured.attempted} requests, {measured.ok} ok in "
            f"{measured.phase.wall_s:.2f} s ({measured.throughput:.1f} 1/s); latency p50 {p50:.3f} ms "
            f"p95 {p95:.3f} ms over n={len(latencies)}; {len(measured.phase.events)} enrollments"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    run_dir = fresh_run_dir(ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
