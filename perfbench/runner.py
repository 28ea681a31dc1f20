"""Runs one workload, untraced (end-to-end metrics) or traced (per-layer
metrics), and prints the result.

The untraced run sets up ``setup_repeats`` times, makes
``warm_up_ops`` untimed operations, then makes operations in a closed
loop for ``--seconds`` (and at least ``min_ops`` of them).
The traced run alternates untraced and traced set-ups, then alternates
blocks of untraced and traced operations, each block on a fresh set-up,
so that the two kinds of operation see the same host conditions; the
ratio of their medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Iterator

from layers import PER_LAYER, TARGETS
from measure import host_stamp, median, peak_rss_mb
from repro.telemetry import InMemoryRecorder
from spans import Patches, Span, Tracer, coverage, descendants, \
    layer_self_times, self_times
from workloads import (END_TO_END, FOLDIN_ITERATIONS, TRAIN_ITERATIONS,
                       WORKLOADS, Ledger, OpRecord, Workload, tail_summary)
from world import make_world

#: Minimum share of traced wall time the named layers must account for.
COVERAGE_FLOOR = 0.95
#: Seconds past the deadline the traced run may spend completing its
#: minimum operations before it gives up on them.
GRACE_SECONDS = 90.0

#: Other names some end-to-end metrics go by, printed next to them.
ALIASES = {"train": {"tokens_per_s": "train_tokens_per_s"},
           "serve_batch": {"docs_per_s": "serve_docs_per_s"},
           "serve_interactive": {"latency_p50_ms": "request_p50_ms"}}


class Stopwatch:
    wall = 0.0


@contextmanager
def stopwatch(tracer: Tracer | None = None,
              name: str = "bench.op") -> Iterator[Stopwatch]:
    """Times the block; with a tracer, also records it as a root span."""
    watch = Stopwatch()
    with tracer.span(name) if tracer is not None else nullcontext():
        start = perf_counter()
        try:
            yield watch
        finally:
            watch.wall = perf_counter() - start


def attempt(workload: Workload, ctx, index: int, ledger: Ledger,
            tracer: Tracer | None) -> OpRecord | None:
    """One operation; an exception counts as a failed operation."""
    ledger.attempted += 1
    try:
        return workload.op(ctx, index, ledger, partial(stopwatch, tracer))
    except Exception:
        ledger.failed += 1
        ledger.problems.append(f"operation {index} raised")
        traceback.print_exc(file=sys.stderr)
        return None


def release(workload: Workload, ctx) -> None:
    """Tear a set-up down and collect its garbage, so the next set-up
    (and the next worker fork) starts from the same heap."""
    workload.teardown(ctx)
    gc.collect()


def measure(workload: Workload, seconds: float, ledger: Ledger
            ) -> dict[str, float]:
    """The untraced run: end-to-end metrics."""
    setups: list[float] = []
    ctx = None
    for _ in range(workload.setup_repeats):
        if ctx is not None:
            release(workload, ctx)
        with stopwatch() as watch:
            ctx = workload.setup()
        setups.append(watch.wall)
    records: list[OpRecord] = []
    try:
        for index in range(workload.warm_up_ops):
            attempt(workload, ctx, index, ledger, None)
        deadline = perf_counter() + seconds
        index = 0
        while index < workload.min_ops or perf_counter() < deadline:
            record = attempt(workload, ctx, index, ledger, None)
            if record is not None:
                records.append(record)
            index += 1
        own, workers = peak_rss_mb(workload.worker_pids())
    finally:
        release(workload, ctx)
    print(f"  {tail_summary(workload.step, records)}")
    pool = (f", private to workers {', '.join(f'{mb:.1f}' for mb in workers)}"
            f" MB" if workers else "")
    print(f"  peak RSS: process {own:.1f} MB{pool}")
    return workload.end_to_end(setups, records, ledger, own + sum(workers))


def measure_traced(workload: Workload, seconds: float, ledger: Ledger,
                   tracer: Tracer, patches: Patches,
                   recorder: InMemoryRecorder) -> dict[str, float]:
    """The traced run: per-layer metrics."""
    setup_walls: dict[bool, list[float]] = {False: [], True: []}
    for repeat in range(2 * workload.setup_repeats):
        traced = repeat % 2 == 1
        tracer.request = f"setup-{repeat}"
        with patches.installed(traced):
            with stopwatch(tracer if traced else None,
                           "bench.setup") as watch:
                ctx = workload.setup(recorder if traced else None)
        setup_walls[traced].append(watch.wall)
        release(workload, ctx)
    records: dict[bool, list[OpRecord]] = {False: [], True: []}
    snapshot = None
    deadline = perf_counter() + seconds
    index = block = 0
    while perf_counter() < deadline or (
            perf_counter() < deadline + GRACE_SECONDS
            and (index < workload.min_ops
                 or len(records[True]) < workload.traced_window
                 or not records[False])):
        traced = block % 2 == 1
        ctx = workload.setup(recorder if traced else None)
        try:
            with patches.installed(traced):
                for _ in range(workload.block_ops):
                    tracer.request = f"op-{index}"
                    record = attempt(workload, ctx, index, ledger,
                                     tracer if traced else None)
                    index += 1
                    if record is None:
                        continue
                    records[traced].append(record)
                    if (traced and snapshot is None and len(records[True])
                            == workload.traced_window):
                        snapshot = recorder.snapshot()
        finally:
            release(workload, ctx)
        block += 1
    workload.finish(records[False] + records[True], ledger)
    window = records[True][:workload.traced_window]
    metrics = layer_metrics(workload, tracer.spans, window,
                            snapshot or recorder.snapshot())
    untraced_wall = median(r.wall for r in records[False])
    metrics["trace.overhead_ratio"] = (
        median(r.wall for r in records[True]) / untraced_wall
        if untraced_wall else 0.0)
    metrics["trace.unmeasured_layers"] = len(patches.unmeasured)
    metrics["coverage"] = coverage(tracer.spans)
    ledger.check(metrics["coverage"] >= COVERAGE_FLOOR,
                 f"coverage {metrics['coverage']:.3f} < {COVERAGE_FLOOR}")
    setup_ratio = median(setup_walls[True]) / median(setup_walls[False])
    print(f"  tracing overhead: operations x{metrics['trace.overhead_ratio']:.3f}"
          f" ({len(records[True])} traced vs {len(records[False])} "
          f"untraced), set-ups x{setup_ratio:.3f}")
    print(f"  coverage: {metrics['coverage']:.4f} of traced wall time")
    print("  self time per layer (all traced set-ups and operations):")
    for layer, seconds_ in sorted(layer_self_times(tracer.spans).items(),
                                  key=lambda item: -item[1]):
        print(f"    {layer:<12} {seconds_:10.4f} s")
    for path, reason in sorted(patches.unmeasured.items()):
        print(f"  unmeasured: {path} ({reason})")
    return metrics


def _counter(snapshot: dict, name: str,
             exclude_worker: int | None = None) -> float:
    """Sum of a counter over its label sets."""
    total = 0.0
    for key, value in snapshot["counters"].items():
        base, _, labels = key.partition("{")
        if base != name:
            continue
        if f"worker={exclude_worker}" in labels.rstrip("}").split(","):
            continue
        total += value
    return total


def layer_metrics(workload: Workload, spans: list[Span],
                  window: list[OpRecord], snapshot: dict
                  ) -> dict[str, float]:
    """Per-layer metrics from the span tree and the program's counters.

    Only spans below a benchmark root count: calls the benchmark's own
    checks make are not part of any measured operation.
    """
    own = self_times(spans)
    roots = [s.id for s in spans if s.name.startswith("bench.")]
    below = descendants(spans, roots)
    rooted = [s for s in spans if s.id in below]
    by_request: dict[str, list[Span]] = {}
    for span in rooted:
        by_request.setdefault(span.request, []).append(span)

    def total(group: list[Span], name: str) -> float:
        return sum(own[s.id] for s in group if s.name == name)

    setups = [group for request, group in by_request.items()
              if request.startswith("setup-")]
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, span in (("text.corpus_build_s", "text.corpus_build"),
                         ("knowledge.source_build_s",
                          "knowledge.source_build"),
                         ("artifacts.load_s", "artifacts.load"),
                         ("session.build_s", "session.build"),
                         ("parallel.warm_up_s", "parallel.warm_up")):
        metrics[metric] = median(total(group, span) for group in setups)
    groups = [by_request.get(f"op-{r.index}", []) for r in window]
    if workload.name == "train":
        fits = []
        for record, group in zip(window, groups):
            sweeps = sorted((s for s in group if s.name == "sampling.sweep"),
                            key=lambda s: s.start)
            later = median(own[s.id] for s in sweeps[1:])
            fits.append({
                "core.prior_s": total(group, "core.prior"),
                "core.calibrate_s": total(group, "core.calibrate"),
                "core.grid_tables_s": total(group, "core.grid_tables"),
                "core.phi_s": total(group, "core.phi"),
                "core.reduce_s": total(group, "core.reduce"),
                "sampling.init_s": total(group, "sampling.init"),
                "sampling.first_sweep_s": own[sweeps[0].id] if sweeps else 0.0,
                "sampling.sweep_p50_s": later,
                "sampling.sweep_tokens_per_s": (
                    record.tokens / TRAIN_ITERATIONS / later if later else 0.0),
                "sampling.log_likelihood_s": total(group,
                                                   "sampling.log_likelihood"),
                "models.theta_s": total(group, "models.theta"),
                "models.fit_other_s": total(group, "models.fit"),
            })
        for metric in fits[0] if fits else ():
            metrics[metric] = median(fit[metric] for fit in fits)
    else:
        flat = [span for group in groups for span in group]
        encodes = [total(group, "text.encode") for group in groups]
        metrics["text.encode_s"] = sum(encodes)
        metrics["text.encode_p50_ms"] = median(encodes) * 1e3
        metrics["session.other_s"] = total(flat, "session.infer")
        metrics["parallel.theta_s"] = total(flat, "parallel.theta")
        documents = [s.duration for s in flat if s.name == "foldin.document"]
        metrics["foldin.document_p50_ms"] = median(documents) * 1e3
        inline = {s.parent for s in flat if s.name == "foldin.document"}
        pooled_wall = sum(s.duration for s in flat
                          if s.name == "parallel.theta" and s.id not in inline)
        busy = _counter(snapshot, "serving.worker.busy_seconds")
        pool_busy = _counter(snapshot, "serving.worker.busy_seconds",
                             exclude_worker=os.getpid())
        sampled = _counter(snapshot, "serving.foldin.tokens")
        workers = workload.workers
        metrics["foldin.tokens_per_s"] = (
            sampled * FOLDIN_ITERATIONS / busy if busy else 0.0)
        metrics["parallel.worker_busy_s"] = pool_busy
        if pooled_wall:
            metrics["parallel.pool_utilization"] = (
                pool_busy / (pooled_wall * workers))
            metrics["parallel.overhead_s"] = pooled_wall - pool_busy / workers
        metrics["serve.docs"] = _counter(snapshot, "serving.documents")
        metrics["serve.tokens"] = _counter(snapshot, "serving.tokens")
        metrics["serve.oov_tokens"] = _counter(snapshot, "serving.oov_tokens")
        metrics["foldin.sampled_tokens"] = sampled
        metrics["parallel.tasks"] = snapshot["histograms"].get(
            "serving.task.seconds", {}).get("count", 0)
        metrics["parallel.hedges_issued"] = _counter(snapshot,
                                                     "serving.hedge.issued")
    return metrics


def emit(ledger: Ledger, metrics: dict[str, float],
         units: dict[str, str]) -> None:
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()}}))


def run(name: str, seed: int, seconds: float, traced: bool,
        root: Path) -> int:
    """Runs workload ``name`` and prints its result; returns the exit
    code."""
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Anything the program or multiprocessing puts in a temporary
    # directory stays inside the checkout.
    tempfile.tempdir = str(scratch)
    units = ({n: unit for n, (unit, *_rest) in PER_LAYER.items()}
             if traced else END_TO_END)
    ledger = Ledger()
    metrics: dict[str, float] = {}
    status = 0
    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)}")
    try:
        host = host_stamp()
        print("host: " + json.dumps(host))
        workload = WORKLOADS[name](make_world(seed), seed, scratch)
        workload.prepare()
        gc.collect()
        if traced:
            tracer = Tracer()
            patches = Patches(tracer, TARGETS)
            metrics = measure_traced(workload, seconds, ledger, tracer,
                                     patches, InMemoryRecorder())
            metrics["host.calibration_mops"] = host["calibration_mops"]
            trace_path = root / ".perfbench" / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(trace_path, {
                "workload": name, "seed": seed, "seconds": seconds,
                "host": host, "unmeasured": patches.unmeasured})
            print(f"  spans: {len(tracer.spans)} written to "
                  f"{trace_path.relative_to(root)}")
        else:
            metrics = measure(workload, seconds, ledger)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ledger.attempted += 1
        ledger.failed += 1
        ledger.problems.append("the run raised")
        status = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    aliases = ALIASES.get(name, {})
    for metric, unit in units.items():
        note = (f"  {PER_LAYER[metric][1]}" if traced else
                f"  (= {aliases[metric]})" if metric in aliases else "")
        print(f"  {metric:<28} {metrics.get(metric, 0.0):>14.6g} "
              f"{unit:<8}{note}")
    print(f"  error_rate {ledger.failed / max(1, ledger.attempted):.4f} "
          f"({ledger.failed} failed of {ledger.attempted} operations "
          f"and checks)")
    for problem in ledger.problems[:20]:
        print(f"  FAILED: {problem}")
    if len(ledger.problems) > 20:
        print(f"  ... and {len(ledger.problems) - 20} more failures")
    emit(ledger, metrics, units)
    return status
