"""Out-of-core serving: schema-v3 column-sharded phi artifacts.

Regenerates: docs/sec of an :class:`repro.serving.InferenceSession`
serving raw unseen text from a **column-sharded** phi artifact
(``save_model(shard_words=...)``, lazy :class:`repro.serving.ShardedPhi`
gathers) at several shard counts, against the unsharded v1 baseline —
plus the **peak unique mapped phi bytes** for a quartile-confined query
batch served from a fresh (nothing-mapped) load.

The workload exercises the whole sharded stack: the fitted model is
persisted shard-by-shard (word-major ``.npy`` members, manifest shard
map with per-shard prior masses and checksums), reloaded lazily, fold-in
runs the sparse bucketed lane with per-shard alias tables built on first
touch, and batches prefetch exactly their shard working set via
:meth:`FoldInEngine.touch`.

Shapes asserted: throughput finite and positive at every layout; theta
is **bit-identical across the unsharded load and every shard layout**
on a fixed seed (the sharding-is-invisible contract); a quartile-batch
served from 16 shards maps **at most a quarter** of the phi matrix
(the out-of-core payoff); and the single-shard fast path stays within
benchmark noise of the unsharded baseline (no tax for the lazy view).
"""

from __future__ import annotations

import numpy as np
from _shared import record

from repro.experiments import format_sharded_serving, run_sharded_serving

SHARD_COUNTS = (1, 4, 16)
FOLDIN_ITERATIONS = 20


def test_bench_sharded_serving(benchmark):
    result = benchmark.pedantic(
        lambda: run_sharded_serving(shard_counts=SHARD_COUNTS,
                                    foldin_iterations=FOLDIN_ITERATIONS,
                                    seed=0),
        rounds=1, iterations=1)
    record(
        "sharded_serving", format_sharded_serving(result),
        metrics={
            "docs_per_second": {str(row.target_shards): row.docs_per_second
                                for row in result.rows},
            "baseline_docs_per_second": result.baseline_docs_per_second,
            "quartile_mapped_fraction": {
                str(row.target_shards): row.quartile_mapped_fraction
                for row in result.rows},
            "deterministic": result.deterministic,
        },
        params={
            "shard_counts": SHARD_COUNTS,
            "num_topics": result.num_topics,
            "vocab_size": result.vocab_size,
            "phi_nbytes": result.phi_nbytes,
            "num_query_documents": result.num_query_documents,
            "query_document_length": result.query_document_length,
            "foldin_iterations": result.foldin_iterations,
            "mode": result.mode,
        })

    by_target = {row.target_shards: row for row in result.rows}
    assert all(np.isfinite(row.docs_per_second)
               and row.docs_per_second > 0
               for row in result.rows)
    # The sharding-is-invisible contract: the unsharded load and every
    # shard layout serve the same theta bits on a fixed seed.
    assert result.deterministic
    # The out-of-core payoff: a quartile-confined batch served from a
    # fresh 16-shard load maps at most a quarter of the phi matrix.
    assert by_target[16].quartile_mapped_fraction <= 0.25
    assert by_target[4].quartile_mapped_fraction <= 0.25
    # A single shard maps everything it serves — sanity-pin the
    # accounting itself (the whole matrix, nothing double-counted).
    assert by_target[1].quartile_mapped_fraction == 1.0
    # The single-shard fast path (the mmap_phi=True layout) serves off
    # its one block exactly like an unsharded matrix; the lazy view must
    # not tax throughput beyond shared-CI timing noise.
    assert (by_target[1].docs_per_second
            >= result.baseline_docs_per_second * 0.85)
