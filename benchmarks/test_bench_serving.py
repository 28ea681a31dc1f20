"""Serving-layer throughput: the save -> load -> serve path.

Regenerates: docs/sec and tokens/sec of a
:class:`repro.serving.InferenceSession` answering batched theta queries
for raw unseen text against a persisted-and-reloaded bijective
Source-LDA model — at several batch sizes (single-worker, the query-time
counterpart of the training-engine bench in
``test_bench_sweep_speed.py``) and at several **worker counts** through
the worker-sharded :mod:`repro.serving.parallel` layer, serving a
memory-mapped one-shard schema-v3 artifact (``mmap_phi=True``).

The workloads exercise every stage of the serving subsystem: the fitted
model round-trips through ``save_model``/``load_model`` (compressed
``.npz`` + schema-versioned manifest, plus the one uncompressed phi
shard member), queries are tokenized and vocabulary-mapped with the OOV-drop
policy, and fold-in runs on the sparse bucketed lane of
:class:`repro.serving.FoldInEngine` with alias-table prior draws.

A third bench, the **fold-in lane crossover**, times the two sparse
fold-in lanes of the python backend head to head at the served topic
count (T=200, the knowledge-source size the ``perfbench`` serve
workloads fold against, 30 sweeps): the per-document lane
(:meth:`FoldInEngine.theta_document`, one document at a time) against
the document-batched lane
(:meth:`PythonBackend.foldin_sparse_batch`, one token position across
the whole batch), for every batch size x document length of the grid.
Its crossover — the smallest batch at which the batched lane wins at
the served document length — is what
:data:`repro.serving.foldin.BATCH_LANE_MIN_DOCS` routes on; the table
states both.

Shapes asserted: throughput is finite and positive everywhere; batching
is not a pessimization; a v1-artifact load and a mmap one-shard v3
load serve **bit-identical theta on a fixed seed regardless of worker
count** (the determinism contract); and on multi-core machines workers=4
beats workers=1 (on a single-core machine real parallel speedup is
physically impossible — the bench then only requires the sharded path
to stay within IPC-overhead noise of serial, and records the core
count so the gate is honest).  Per-worker utilization
(``busy_seconds / wall`` from the telemetry recorder) is stamped into
the result so the flat-scaling-on-one-core caveat is machine-visible:
there, the fractions sum to ~1 at every worker count.  The crossover
bench asserts that both lanes give the same bits on the documents both
folded, and that the batched lane wins at 64 documents for every
document length.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from _shared import record

from repro.sampling.rng import document_rng
from repro.serving import FoldInEngine, available_cpus
from repro.serving.foldin import BATCH_LANE_MIN_DOCS
from repro.experiments import (format_parallel_serving,
                               format_serving_throughput,
                               run_parallel_serving,
                               run_serving_throughput)

BATCH_SIZES = (1, 8, 32)
WORKER_COUNTS = (1, 2, 4)
FOLDIN_ITERATIONS = 20

#: Lane-crossover grid: batch sizes x document lengths (tokens).
LANE_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 256)
LANE_LENGTHS = (20, 100, 1000)
#: The served model: topic count, vocabulary, fold-in sweeps and alpha
#: of the perfbench serve workloads.
SERVED_TOPICS = 200
SERVED_VOCAB = 3500
SERVED_ITERATIONS = 30
SERVED_ALPHA = 0.5
#: The length the routing constant is read at (serve_batch documents
#: carry ~90 in-vocabulary tokens).
SERVED_LENGTH = 100
#: The per-document lane folds one document at a time, so its rate
#: does not depend on the batch: it is timed once per length, on this
#: many documents.
SCALAR_SAMPLE = 8
LANE_REPEATS = 3


def test_bench_serving(benchmark):
    result = benchmark.pedantic(
        lambda: run_serving_throughput(batch_sizes=BATCH_SIZES,
                                       foldin_iterations=FOLDIN_ITERATIONS,
                                       seed=0),
        rounds=1, iterations=1)
    record(
        "serving_throughput", format_serving_throughput(result),
        metrics={
            "docs_per_second": {str(row.batch_size): row.docs_per_second
                                for row in result.rows},
            "tokens_per_second": {str(row.batch_size):
                                  row.tokens_per_second
                                  for row in result.rows},
        },
        params={
            "batch_sizes": BATCH_SIZES,
            "num_topics": result.num_topics,
            "num_query_documents": result.num_query_documents,
            "query_document_length": result.query_document_length,
            "foldin_iterations": result.foldin_iterations,
            "mode": result.mode,
            "model_class": result.model_class,
        })

    rates = [row.docs_per_second for row in result.rows]
    assert all(np.isfinite(rate) and rate > 0 for rate in rates)
    # Batched serving must not lose to one-document-at-a-time serving.
    assert rates[-1] >= rates[0] * 0.8


def test_bench_parallel_serving(benchmark):
    result = benchmark.pedantic(
        lambda: run_parallel_serving(worker_counts=WORKER_COUNTS,
                                     foldin_iterations=FOLDIN_ITERATIONS,
                                     seed=0),
        rounds=1, iterations=1)
    record(
        "serving_parallel", format_parallel_serving(result),
        metrics={
            "docs_per_second": {str(row.num_workers): row.docs_per_second
                                for row in result.rows},
            "tokens_per_second": {str(row.num_workers):
                                  row.tokens_per_second
                                  for row in result.rows},
            "deterministic": result.deterministic,
            "phi_mmapped": result.phi_mmapped,
            # Neither marker ("per_second" / "_seconds") matches these
            # paths, so utilization never gates in compare.py — it is
            # context for reading the throughput rows.
            "worker_utilization": {
                str(row.num_workers): row.worker_utilization
                for row in result.rows},
            "pool_utilization": {
                str(row.num_workers): row.pool_utilization
                for row in result.rows},
        },
        params={
            "worker_counts": WORKER_COUNTS,
            "num_cores": result.num_cores,
            "num_topics": result.num_topics,
            "num_query_documents": result.num_query_documents,
            "query_document_length": result.query_document_length,
            "foldin_iterations": result.foldin_iterations,
            "mode": result.mode,
        })

    by_workers = {row.num_workers: row.docs_per_second
                  for row in result.rows}
    assert all(np.isfinite(rate) and rate > 0
               for rate in by_workers.values())
    # The determinism contract: v1 and one-shard v3 artifacts serve the
    # same bits on a fixed seed at every worker count.
    assert result.deterministic
    assert result.phi_mmapped
    if available_cpus() >= 2:
        # Real cores available (affinity/cgroup-aware count): sharding
        # must actually pay.  The small margin absorbs shared-CI noise
        # on 2-core runners; genuine multicore speedup (~2-3x at 4
        # cores) clears it by a mile.
        assert by_workers[4] > by_workers[1] * 0.95
    else:
        # Single core: no speedup is physically possible; the sharded
        # path must merely stay within IPC overhead of serial.
        assert by_workers[4] >= by_workers[1] * 0.5
    # Utilization sanity: every fraction is positive, and no worker
    # claims (much) more busy time than the wall clock that contained
    # it (small timer skew between parent and worker clocks allowed).
    for row in result.rows:
        assert row.worker_utilization, "recorder captured no workers"
        assert len(row.worker_utilization) <= row.num_workers
        for fraction in row.worker_utilization.values():
            assert 0.0 < fraction < 1.25
        assert 0.0 < row.pool_utilization <= 1.25


def _lane_workload(seed: int = 0):
    """A served-size phi plus query documents drawn from it, each
    mixing a handful of topics as real queries do."""
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(np.full(SERVED_VOCAB, 0.05), size=SERVED_TOPICS)
    cumulative = np.cumsum(phi, axis=1)

    def document(length: int) -> np.ndarray:
        topics = rng.choice(SERVED_TOPICS, size=5, replace=False)
        mix = rng.dirichlet(np.full(5, 0.5))
        drawn = topics[rng.choice(5, size=length, p=mix)]
        words = (cumulative[drawn] < rng.random((length, 1))).sum(axis=1)
        return np.minimum(words, SERVED_VOCAB - 1).astype(np.int64)

    documents = {length: [document(length)
                          for _ in range(max(LANE_BATCH_SIZES))]
                 for length in LANE_LENGTHS}
    return phi, documents


def _best_rate(fold, documents) -> tuple[float, np.ndarray]:
    """Best-of-``LANE_REPEATS`` docs/sec of one fold, and its rows."""
    best = np.inf
    for _ in range(LANE_REPEATS):
        start = perf_counter()
        rows = fold(documents)
        best = min(best, perf_counter() - start)
    return len(documents) / best, rows


def test_bench_foldin_lane_crossover(benchmark):
    phi, documents = _lane_workload()
    engine = FoldInEngine(phi, SERVED_ALPHA, iterations=SERVED_ITERATIONS,
                          mode="sparse", backend="python")
    root = np.random.SeedSequence(0)

    def scalar(docs):
        scratch = engine.new_scratch()
        return np.array([engine.theta_document(doc, document_rng(root, i),
                                               scratch)
                         for i, doc in enumerate(docs)])

    def batched(docs):
        return engine._backend.foldin_sparse_batch(
            engine._table, docs,
            [document_rng(root, i) for i in range(len(docs))])

    def run():
        grid = {}
        for length in LANE_LENGTHS:
            docs = documents[length]
            scalar_rate, scalar_rows = _best_rate(scalar,
                                                  docs[:SCALAR_SAMPLE])
            for size in LANE_BATCH_SIZES:
                batched_rate, batched_rows = _best_rate(batched,
                                                        docs[:size])
                shared = min(size, SCALAR_SAMPLE)
                assert np.array_equal(batched_rows[:shared],
                                      scalar_rows[:shared])
                grid[length, size] = (scalar_rate, batched_rate)
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    crossover = {
        length: next((size for size in LANE_BATCH_SIZES
                      if grid[length, size][1] >= grid[length, size][0]),
                     None)
        for length in LANE_LENGTHS}
    lines = [
        f"Fold-in lane crossover - python backend, sparse lane, "
        f"T={SERVED_TOPICS}, V={SERVED_VOCAB}, {SERVED_ITERATIONS} sweeps, "
        f"best of {LANE_REPEATS}; per-document rate timed once per "
        f"length on {SCALAR_SAMPLE} docs",
        "doc tokens | batch | per-doc docs/s | batched docs/s | batched/per-doc",
        "-----------+-------+----------------+----------------+----------------",
    ]
    for (length, size), (scalar_rate, batched_rate) in grid.items():
        lines.append(f"{length:<10} | {size:<5} | {scalar_rate:<14.4g} | "
                     f"{batched_rate:<14.4g} | {batched_rate / scalar_rate:.2f}x")
    lines.append("measured crossover (smallest batch where batched >= "
                 "per-doc): " + ", ".join(
                     f"{length} tokens -> {crossover[length]}"
                     for length in LANE_LENGTHS))
    lines.append(f"routing constant BATCH_LANE_MIN_DOCS = "
                 f"{BATCH_LANE_MIN_DOCS} (the crossover at "
                 f"{SERVED_LENGTH} tokens)")
    record(
        "foldin_lane_crossover", "\n".join(lines),
        metrics={
            "per_document_docs_per_second": {
                f"{length}x{size}": rates[0]
                for (length, size), rates in grid.items()},
            "batched_docs_per_second": {
                f"{length}x{size}": rates[1]
                for (length, size), rates in grid.items()},
            "crossover_batch": {str(length): crossover[length]
                                for length in LANE_LENGTHS},
        },
        params={
            "batch_sizes": LANE_BATCH_SIZES,
            "document_lengths": LANE_LENGTHS,
            "num_topics": SERVED_TOPICS,
            "vocab_size": SERVED_VOCAB,
            "foldin_iterations": SERVED_ITERATIONS,
            "alpha": SERVED_ALPHA,
            "scalar_sample": SCALAR_SAMPLE,
            "repeats": LANE_REPEATS,
            "routing_constant": BATCH_LANE_MIN_DOCS,
        },
        backend="python")

    assert all(np.isfinite(rate) and rate > 0
               for rates in grid.values() for rate in rates)
    # Past the crossover the batched lane must actually pay, at every
    # document length.
    assert all(grid[length, 64][1] > grid[length, 64][0]
               for length in LANE_LENGTHS)
