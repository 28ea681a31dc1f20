"""Tests for worker-sharded serving: per-document RNG streams, the
process pool, alias-table prior draws, and end-to-end determinism."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.sampling.alias import (alias_draw, build_alias_rows,
                                  build_alias_table)
from repro.sampling.rng import (document_rng, document_seed_sequence,
                                ensure_seed_sequence)
from repro.serving import (EngineSpec, FoldInEngine, HedgePolicy,
                           InferenceSession, ParallelFoldIn, ShardedPhi,
                           WorkerFault, load_model, save_model)
from repro.text.vocabulary import Vocabulary

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def frozen_phi():
    rng = np.random.default_rng(11)
    return rng.dirichlet(np.full(30, 0.4), size=6)


@pytest.fixture(scope="module")
def query_docs():
    rng = np.random.default_rng(3)
    return [rng.integers(0, 30, size=n)
            for n in (14, 0, 25, 1, 9, 17, 0, 6)]


# ----------------------------------------------------------------------
# Per-document seed sequences
# ----------------------------------------------------------------------
class TestDocumentStreams:
    def test_matches_seed_sequence_spawn(self):
        """`document_seed_sequence` is the stateless twin of
        `SeedSequence.spawn`: same children, any derivation order."""
        root = np.random.SeedSequence(42)
        spawned = np.random.SeedSequence(42).spawn(5)
        for index in (4, 0, 2, 3, 1):  # deliberately out of order
            direct = document_seed_sequence(root, index)
            assert direct.entropy == spawned[index].entropy
            assert direct.spawn_key == spawned[index].spawn_key
            assert np.array_equal(
                np.random.default_rng(direct).random(8),
                np.random.default_rng(spawned[index]).random(8))

    def test_streams_are_distinct_per_document(self):
        root = ensure_seed_sequence(7)
        draws = [document_rng(root, i).random(4) for i in range(6)]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_ensure_seed_sequence_flavors(self):
        sequence = np.random.SeedSequence(1)
        assert ensure_seed_sequence(sequence) is sequence
        assert ensure_seed_sequence(5).entropy == 5
        # A Generator is consumed for entropy — deterministically.
        a = ensure_seed_sequence(np.random.default_rng(3))
        b = ensure_seed_sequence(np.random.default_rng(3))
        assert a.entropy == b.entropy
        assert ensure_seed_sequence(None).entropy is not None
        with pytest.raises(ValueError, match="non-negative"):
            document_seed_sequence(sequence, -1)


# ----------------------------------------------------------------------
# Walker alias tables
# ----------------------------------------------------------------------
class TestAliasTables:
    def test_table_reproduces_weights_exactly(self):
        """Cell acceptance masses must reassemble the normalized
        weights: p[k] = (accept[k] + sum of alias mass pointed at k)/n."""
        rng = np.random.default_rng(0)
        weights = rng.random(17) * np.asarray(
            [0, 1] * 8 + [1])  # include zeros
        accept, alias = build_alias_table(weights)
        n = weights.shape[0]
        rebuilt = accept.copy()
        for cell in range(n):
            rebuilt[alias[cell]] += 1.0 - accept[cell]
        np.testing.assert_allclose(rebuilt / n,
                                   weights / weights.sum(), atol=1e-12)

    def test_zero_row_is_poisoned(self):
        accept, alias = build_alias_table(np.zeros(4))
        assert np.all(accept == -1.0)
        with pytest.raises(ValueError, match="all-zero"):
            alias_draw(accept, alias, 0.5)

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_alias_table(np.asarray([1.0, -0.5]))
        with pytest.raises(ValueError, match="non-empty"):
            build_alias_table(np.empty(0))
        with pytest.raises(ValueError, match="2-d"):
            build_alias_rows(np.ones(3))

    def test_draws_match_binary_search_lane_chi_squared(self, frozen_phi):
        """Alias-table prior draws follow the same distribution as the
        binary search over the per-word cumulative sum they replaced."""
        word_major = np.ascontiguousarray(frozen_phi.T)
        accept, alias = build_alias_rows(word_major)
        cumsums = np.cumsum(word_major, axis=1)
        rng = np.random.default_rng(99)
        num_draws = 20_000
        num_topics = frozen_phi.shape[0]
        for word in (0, 7, 29):
            uniforms = rng.random(num_draws)
            alias_topics = np.asarray(
                [alias_draw(accept[word], alias[word], u)
                 for u in uniforms])
            search_topics = np.searchsorted(
                cumsums[word], uniforms * cumsums[word, -1],
                side="right")
            expected = word_major[word] / word_major[word].sum()
            alias_counts = np.bincount(alias_topics,
                                       minlength=num_topics)
            search_counts = np.bincount(search_topics,
                                        minlength=num_topics)
            keep = expected * num_draws >= 5  # chi-squared validity
            for counts in (alias_counts, search_counts):
                result = stats.chisquare(
                    counts[keep],
                    expected[keep] / expected[keep].sum()
                    * counts[keep].sum())
                assert result.pvalue > 1e-3, (word, result)


# ----------------------------------------------------------------------
# Worker-sharded fold-in
# ----------------------------------------------------------------------
class TestParallelFoldIn:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_bit_identical_at_every_worker_count(self, mode, frozen_phi,
                                                 query_docs):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=6, mode=mode)
        reference = None
        for workers in WORKER_COUNTS:
            with ParallelFoldIn(engine, num_workers=workers) as foldin:
                theta = foldin.theta(query_docs, seed=17)
            if reference is None:
                reference = theta
            else:
                assert np.array_equal(reference, theta), \
                    f"{mode} diverged at num_workers={workers}"
        np.testing.assert_allclose(reference.sum(axis=1), 1.0)
        # Empty documents got the uniform row.
        np.testing.assert_allclose(reference[1],
                                   1.0 / frozen_phi.shape[0])

    def test_independent_of_document_order_coupling(self, frozen_phi,
                                                    query_docs):
        """Each document's row depends only on (seed, index, words):
        repeating a call never perturbs it, unlike the legacy
        sequential stream where every document shifted its successors."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=1)
        full = foldin.theta(query_docs, seed=8)
        again = foldin.theta(query_docs, seed=8)
        assert np.array_equal(full, again)

    def test_seed_flavors_agree(self, frozen_phi, query_docs):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=4,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=1)
        by_int = foldin.theta(query_docs, seed=23)
        by_sequence = foldin.theta(query_docs,
                                   seed=np.random.SeedSequence(23))
        assert np.array_equal(by_int, by_sequence)

    def test_invalid_arguments(self, frozen_phi):
        engine = FoldInEngine(frozen_phi, 0.4)
        with pytest.raises(ValueError, match="num_workers"):
            ParallelFoldIn(engine, num_workers=0)
        with pytest.raises(ValueError, match="exactly one"):
            EngineSpec(alpha=0.4, iterations=5, mode="sparse")
        with pytest.raises(ValueError, match="exactly one"):
            EngineSpec(alpha=0.4, iterations=5, mode="sparse",
                       phi=np.ones((2, 2)),
                       sharded=ShardedPhi(["somewhere.npy"], [0], 2, 2))

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_inline_theta_is_reentrant_across_threads(self, mode,
                                                      frozen_phi,
                                                      query_docs):
        """Two threads hammering ONE ParallelFoldIn's inline
        (workers == 1) path must each get the single-threaded answer.

        The inline path reuses a scratch across calls; before it was
        per-thread, both threads wrote the same sampling buffers and
        silently corrupted each other's theta — the engine-level fix
        was bypassed exactly where sessions default to running.
        """
        from concurrent.futures import ThreadPoolExecutor

        engine = FoldInEngine(frozen_phi, 0.4, iterations=6, mode=mode)
        foldin = ParallelFoldIn(engine, num_workers=1)
        seeds = list(range(12))
        expected = {seed: foldin.theta(query_docs, seed=seed)
                    for seed in seeds}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [(seed, pool.submit(foldin.theta, query_docs,
                                          seed))
                       for seed in seeds * 4]
            for seed, future in futures:
                assert np.array_equal(future.result(), expected[seed]), \
                    f"seed {seed} corrupted under concurrency"

    def test_pool_context_avoids_fork_in_threaded_parent(self,
                                                         monkeypatch):
        """Forking a multi-threaded parent is deadlock-prone; a
        threaded parent must get a non-fork start method."""
        import sys

        from repro.serving import parallel

        monkeypatch.setattr(parallel.threading, "active_count",
                            lambda: 3)
        assert parallel._pool_context().get_start_method() != "fork"
        monkeypatch.setattr(parallel.threading, "active_count",
                            lambda: 1)
        method = parallel._pool_context().get_start_method()
        if sys.version_info >= (3, 11) and sys.platform != "win32":
            # Only 3.11+ launches every fork worker at the first
            # (locked) submit; older executors fork incrementally and
            # must not get fork even when single-threaded.
            assert method == "fork"
        else:
            assert method != "fork"

    def test_warm_up_spawns_the_pool_before_queries(self, frozen_phi,
                                                    query_docs):
        """warm_up() forks the workers at a chosen safe moment; later
        queries reuse that pool and answer identically."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=3,
                              mode="sparse")
        with ParallelFoldIn(engine, num_workers=2) as foldin:
            assert foldin.warm_up() is foldin
            assert foldin._pool is not None
            warm = foldin.theta(query_docs, seed=4)
        cold = ParallelFoldIn(engine, num_workers=2)
        assert np.array_equal(warm, cold.theta(query_docs, seed=4))
        cold.close()

    def test_close_during_concurrent_theta_is_safe(self, frozen_phi,
                                                   query_docs):
        """close() racing in-flight multi-worker theta calls must
        neither crash them ('cannot schedule new futures after
        shutdown') nor leak a pool: submission happens under the same
        lock that swaps the pool out, and shutdown drains already
        submitted shards."""
        from concurrent.futures import ThreadPoolExecutor

        engine = FoldInEngine(frozen_phi, 0.4, iterations=3,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=2)
        expected = foldin.theta(query_docs, seed=6)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(foldin.theta, query_docs, 6)
                       for _ in range(6)]
            for _ in range(3):
                foldin.close()
            for future in futures:
                assert np.array_equal(future.result(), expected)
        foldin.close()

    def test_engine_spec_rebuilds_identical_engine(self, frozen_phi,
                                                   query_docs):
        """What a worker builds from the spec answers exactly like the
        parent engine."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        spec = EngineSpec(alpha=engine.alpha,
                          iterations=engine.iterations,
                          mode=engine.mode, phi=engine._phi_by_word)
        rebuilt = spec.build_engine()
        root = ensure_seed_sequence(5)
        for index, doc in enumerate(query_docs):
            assert np.array_equal(
                engine.theta_document(doc, document_rng(root, index)),
                rebuilt.theta_document(doc, document_rng(root, index)))


# ----------------------------------------------------------------------
# Per-worker utilization stats
# ----------------------------------------------------------------------
class TestWorkerUtilization:
    def test_merged_stats_are_invariant_to_worker_count(self,
                                                        frozen_phi,
                                                        query_docs):
        """Workers report ``{docs, tokens, busy_seconds}`` per task and
        the parent merges them into per-worker counter series; however
        the documents are sharded, the merged docs/tokens totals must
        equal the single-worker totals (and theta must not move)."""
        from repro.telemetry import InMemoryRecorder

        totals = {}
        reference = None
        for workers in WORKER_COUNTS:
            recorder = InMemoryRecorder()
            engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                                  mode="sparse")
            with ParallelFoldIn(engine, num_workers=workers,
                                recorder=recorder) as foldin:
                theta = foldin.theta(query_docs, seed=12)
            if reference is None:
                reference = theta
            else:
                assert np.array_equal(reference, theta), workers
            totals[workers] = {
                "docs": recorder.counter_total("serving.worker.docs"),
                "tokens": recorder.counter_total(
                    "serving.worker.tokens"),
            }
            busy = recorder.counter_series(
                "serving.worker.busy_seconds")
            assert busy, workers
            assert len(busy) <= workers
            assert all(seconds >= 0 for seconds in busy.values())
            # The shared fold-in totals mirror the per-worker sums:
            # merging happens once, in the parent, with no double
            # counting from worker-side recorders.
            assert recorder.counter_value("serving.foldin.documents") \
                == totals[workers]["docs"]
            assert recorder.counter_value("serving.foldin.tokens") \
                == totals[workers]["tokens"]
        single = totals[WORKER_COUNTS[0]]
        assert single["docs"] == sum(1 for d in query_docs if len(d))
        assert single["tokens"] == sum(len(d) for d in query_docs)
        for workers in WORKER_COUNTS[1:]:
            assert totals[workers] == single, workers


# ----------------------------------------------------------------------
# Elastic work-stealing dispatch and hedged recomputation
# ----------------------------------------------------------------------
class TestElasticHedgedServing:
    """Theta is a pure function of (seed, index, words) — so no
    scheduling decision (task size, hedging, stragglers, pool resizes)
    may move a single bit."""

    def _reference(self, frozen_phi, query_docs, seed):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        return ParallelFoldIn(engine).theta(query_docs, seed=seed)

    @pytest.mark.parametrize("task_docs", [1, 2, 7, 64])
    def test_bit_identical_across_task_sizes(self, task_docs,
                                             frozen_phi, query_docs):
        """The micro-batch cut (one doc per task up to one task for
        everything) is invisible in the output."""
        expected = self._reference(frozen_phi, query_docs, seed=31)
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        with ParallelFoldIn(engine, num_workers=2,
                            task_docs=task_docs) as foldin:
            assert np.array_equal(foldin.theta(query_docs, seed=31),
                                  expected), task_docs

    @pytest.mark.parametrize("workers", [2, 4])
    def test_hedged_straggler_is_bit_identical(self, workers,
                                               frozen_phi, query_docs):
        """An injected straggler plus an aggressive hedge: duplicates
        are issued, first result wins, theta does not move, and the
        wasted work is priced on the hedge counters."""
        from repro.telemetry import InMemoryRecorder

        # Enough one-document tasks that the straggler is sure to pull
        # one: with a handful, the fast workers can drain the queue
        # before the straggler is scheduled at all, and nothing stalls.
        documents = query_docs * 4
        expected = self._reference(frozen_phi, documents, seed=13)
        recorder = InMemoryRecorder()
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        with ParallelFoldIn(
                engine, num_workers=workers, task_docs=1,
                hedge=HedgePolicy(quantile=0.5, multiplier=2.0,
                                  min_wait=0.01, max_hedges=2),
                fault=WorkerFault(sleep_seconds=0.08, rank=0),
                recorder=recorder) as foldin:
            foldin.warm_up()
            theta = foldin.theta(documents, seed=13)
        assert np.array_equal(theta, expected), workers
        issued = recorder.counter_total("serving.hedge.issued")
        won = recorder.counter_total("serving.hedge.won")
        assert issued >= 1, "straggler never triggered a hedge"
        assert 0 <= won <= issued
        # Losers never reach the merge: the shared fold-in totals still
        # count every document exactly once.
        assert recorder.counter_value("serving.foldin.documents") \
            == sum(1 for d in documents if len(d))
        assert recorder.counter_value("serving.foldin.tokens") \
            == sum(len(d) for d in documents)

    def test_hedging_off_with_straggler_stays_identical(self,
                                                        frozen_phi,
                                                        query_docs):
        """hedge=None is the pre-hedging scheduler: it just waits out
        the straggler, issues nothing, and serves the same bits."""
        from repro.telemetry import InMemoryRecorder

        expected = self._reference(frozen_phi, query_docs, seed=13)
        recorder = InMemoryRecorder()
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        with ParallelFoldIn(
                engine, num_workers=2, task_docs=1,
                fault=WorkerFault(sleep_seconds=0.05, rank=0),
                recorder=recorder) as foldin:
            theta = foldin.theta(query_docs, seed=13)
        assert np.array_equal(theta, expected)
        assert recorder.counter_total("serving.hedge.issued") == 0
        assert recorder.counter_total("serving.hedge.won") == 0

    def test_elastic_resize_mid_sequence(self, frozen_phi, query_docs):
        """A demand swing (wide batch, several narrow ones, wide again)
        forces a grow, a patient shrink, and a regrow — every answer
        bit-identical to the inline reference."""
        from repro.telemetry import InMemoryRecorder

        recorder = InMemoryRecorder()
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        reference = ParallelFoldIn(FoldInEngine(
            frozen_phi, 0.4, iterations=5, mode="sparse"))
        # >= 2 pending docs everywhere: a single-doc batch takes the
        # inline path and would not exercise the pool at all.
        pattern = [query_docs, query_docs[:3], query_docs[2:5],
                   query_docs[3:6], query_docs]
        with ParallelFoldIn(engine, num_workers=1, min_workers=1,
                            max_workers=4, task_docs=1,
                            recorder=recorder) as foldin:
            for index, docs in enumerate(pattern):
                assert np.array_equal(
                    foldin.theta(docs, seed=100 + index),
                    reference.theta(docs, seed=100 + index)), index
        assert recorder.counter_total("serving.pool.grown") >= 1
        assert recorder.counter_total("serving.pool.shrunk") >= 1

    def test_session_forwards_elastic_knobs(self, frozen_phi,
                                            query_docs):
        """The session surface (task_docs / hedge_policy / min / max
        workers) is plumbing only — same seed, same theta as a plain
        session."""
        from repro.models.base import FittedTopicModel

        num_topics, vocab_size = frozen_phi.shape
        vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
        vocab.freeze()
        rng = np.random.default_rng(5)
        model = FittedTopicModel(
            phi=frozen_phi,
            theta=rng.dirichlet(np.full(num_topics, 0.5), size=2),
            assignments=[rng.integers(0, num_topics, size=4)
                         for _ in range(2)],
            vocabulary=vocab,
            metadata={"alpha": 0.4})
        queries = [" ".join(vocab.words[i]
                            for i in rng.integers(0, vocab_size,
                                                  size=10))
                   for _ in range(6)]
        with InferenceSession(model, iterations=5, seed=2) as session:
            expected = session.theta(queries)
        with InferenceSession(
                model, iterations=5, seed=2, num_workers=2,
                task_docs=2, min_workers=1, max_workers=4,
                hedge_policy=HedgePolicy(min_wait=0.01)) as session:
            assert session._foldin.task_docs == 2
            assert session._foldin.hedge is not None
            assert session._foldin.max_workers == 4
            assert np.array_equal(session.theta(queries), expected)

    def test_validation(self, frozen_phi):
        engine = FoldInEngine(frozen_phi, 0.4)
        with pytest.raises(ValueError, match="quantile"):
            HedgePolicy(quantile=1.5)
        with pytest.raises(ValueError, match="multiplier"):
            HedgePolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="min_wait"):
            HedgePolicy(min_wait=-0.1)
        with pytest.raises(ValueError, match="max_hedges"):
            HedgePolicy(max_hedges=0)
        with pytest.raises(ValueError, match="sleep_seconds"):
            WorkerFault(sleep_seconds=-1.0)
        with pytest.raises(ValueError, match="rank"):
            WorkerFault(sleep_seconds=0.1, rank=-1)
        with pytest.raises(ValueError, match="task_docs"):
            ParallelFoldIn(engine, task_docs=0)
        with pytest.raises(ValueError, match="min_workers"):
            ParallelFoldIn(engine, min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            ParallelFoldIn(engine, min_workers=3, max_workers=2)

    def test_hedge_threshold(self):
        policy = HedgePolicy(quantile=0.9, multiplier=2.0,
                             min_wait=0.05, max_hedges=1)
        # No observations yet: fall back to the floor.
        assert policy.threshold(None) == 0.05
        assert policy.threshold(0.001) == 0.05  # floor dominates
        assert policy.threshold(0.2) == pytest.approx(0.4)


# ----------------------------------------------------------------------
# End-to-end serving determinism
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_model(frozen_phi):
    """A minimal fitted model wrapping the frozen phi."""
    from repro.models.base import FittedTopicModel
    num_topics, vocab_size = frozen_phi.shape
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
    vocab.freeze()
    rng = np.random.default_rng(1)
    return FittedTopicModel(
        phi=frozen_phi,
        theta=rng.dirichlet(np.full(num_topics, 0.5), size=3),
        assignments=[rng.integers(0, num_topics, size=6)
                     for _ in range(3)],
        vocabulary=vocab,
        metadata={"alpha": 0.4})


@pytest.fixture(scope="module")
def raw_queries(served_model):
    words = served_model.vocabulary.words
    rng = np.random.default_rng(2)
    return [" ".join(words[i] for i in rng.integers(0, len(words),
                                                    size=12))
            for _ in range(7)] + [""]


class TestServingDeterminism:
    def test_theta_invariant_to_workers_and_batch_size(self, served_model,
                                                       raw_queries):
        """Same seed ⇒ identical theta for num_workers ∈ {1, 2, 4} and
        any batch_size — the tentpole's contract."""
        reference = None
        for workers in WORKER_COUNTS:
            for batch_size in (1, 3, 64):
                with InferenceSession(served_model, iterations=6,
                                      seed=0, num_workers=workers,
                                      batch_size=batch_size) as session:
                    theta = session.theta(raw_queries)
                if reference is None:
                    reference = theta
                else:
                    assert np.array_equal(reference, theta), \
                        (workers, batch_size)

    def test_v1_and_mmap_v2_serve_identical_theta(self, served_model,
                                                  raw_queries, tmp_path,
                                                  v2_artifact):
        """A v1 artifact load, a legacy v2 load and a one-shard v3
        (``mmap_phi=True``) load serve the same bits at every worker
        count."""
        v1 = load_model(save_model(served_model, tmp_path / "v1"))
        v2 = load_model(v2_artifact(served_model, tmp_path / "v2"),
                        mmap_phi=True)
        v3 = load_model(save_model(served_model, tmp_path / "v3",
                                   mmap_phi=True), mmap_phi=True)
        assert v2.phi_mmapped and v3.phi_mmapped
        assert v2.shard_map == v3.shard_map == (
            (0, served_model.vocab_size),)
        reference = None
        for loaded in (v1, v2, v3):
            for workers in WORKER_COUNTS:
                with InferenceSession(loaded, iterations=6, seed=3,
                                      num_workers=workers) as session:
                    theta = session.theta(raw_queries)
                if reference is None:
                    reference = theta
                else:
                    assert np.array_equal(reference, theta), \
                        (loaded.schema_version, workers)

    def test_mmap_session_ships_path_not_array(self, served_model,
                                               tmp_path, v2_artifact):
        """Mapped sessions hand workers the member paths (the shard
        map), never a pickled phi, so the pool maps the same file."""
        for path in (save_model(served_model, tmp_path / "v3",
                                mmap_phi=True),
                     v2_artifact(served_model, tmp_path / "v2")):
            loaded = load_model(path, mmap_phi=True)
            session = InferenceSession(loaded, num_workers=2, seed=0)
            spec = session._foldin._spec
            assert spec.phi is None
            assert spec.sharded is loaded.phi_resource
            assert len(spec.sharded.shard_paths) == 1
            assert Path(spec.sharded.shard_paths[0]).parent == path
            session.close()
            loaded.close()

    def test_session_is_reentrant_across_threads(self, served_model,
                                                 raw_queries):
        """Two threads sharing ONE seeded session produce exactly the
        thetas the same session produces sequentially.

        Covers both concurrency fixes at the session level: per-thread
        inline scratch (no corrupted rows — every concurrent theta is
        bit-identical to some sequential one) and the lock-guarded
        ``SeedSequence.spawn`` (no duplicated child streams — the
        sequential thetas are pairwise distinct, so any spawn race
        would surface as a duplicate breaking the multiset match).
        """
        from concurrent.futures import ThreadPoolExecutor

        calls = 8
        with InferenceSession(served_model, iterations=5,
                              seed=21) as session:
            sequential = [session.theta(raw_queries)
                          for _ in range(calls)]
        assert len({theta.tobytes() for theta in sequential}) == calls
        with InferenceSession(served_model, iterations=5,
                              seed=21) as session:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(session.theta, raw_queries)
                           for _ in range(calls)]
                concurrent = [future.result() for future in futures]
        assert sorted(theta.tobytes() for theta in sequential) \
            == sorted(theta.tobytes() for theta in concurrent)

    def test_successive_calls_continue_the_stream(self, served_model,
                                                  raw_queries):
        """Two infer calls draw different streams, but the whole
        session replays identically from the same seed."""
        def run():
            with InferenceSession(served_model, iterations=5,
                                  seed=9) as session:
                return (session.theta(raw_queries[:3]),
                        session.theta(raw_queries[:3]))

        first_a, second_a = run()
        first_b, second_b = run()
        assert np.array_equal(first_a, first_b)
        assert np.array_equal(second_a, second_b)
        assert not np.array_equal(first_a, second_a)
