"""Worker-sharded fold-in: answer query batches with N processes,
bit-identical at every worker count.

The per-document fold-in of :class:`~repro.serving.foldin.FoldInEngine`
is embarrassingly parallel — documents share only the frozen ``phi`` —
but the engine's legacy :meth:`~repro.serving.foldin.FoldInEngine.theta`
runs every document on **one sequential RNG stream**, so each document's
draws depend on every document before it.  Sharding that over workers
would change results with the worker count, and re-running a batch in a
different order would change them again.

:class:`ParallelFoldIn` removes the coupling at the RNG layer: every
document gets its **own stream**, derived from the call's
``SeedSequence`` and the document's index alone
(:func:`repro.sampling.rng.document_rng` — the stateless equivalent of
``SeedSequence.spawn`` keyed by index).  A document's draws are then a
pure function of ``(call seed, document index, document words)``, so

* ``num_workers=1`` inline, 2 processes, or 8 processes produce the
  **same bits**;
* shard boundaries, ``task_docs`` grouping and completion order are
  free scheduling choices;
* a straggling task can be **hedged** — resubmitted to another worker,
  first result wins — without any risk of divergent results, because
  both executions sample identical per-document streams;
* the pool can grow and shrink between calls (``min_workers`` /
  ``max_workers``) without replaying anything.

Scheduling is a dynamic work queue, not a static split: pending
documents are cut into micro-batch tasks of at most :attr:`task_docs`
documents, submitted with bounded in-flight depth, and harvested in
completion order — a fast worker that drains its task immediately
steals the next one instead of idling behind a straggler.  An optional
:class:`HedgePolicy` watches a rolling quantile of task latencies and
duplicates tasks that overstay it; ``serving.hedge.{issued,won,
wasted_tokens}`` counters record what hedging cost.

Workers are OS processes (the per-token loop is Python, so threads
would serialize on the GIL).  Each worker builds one engine and one
:class:`~repro.serving.foldin.FoldInScratch` at pool start from an
:class:`EngineSpec`; when the spec carries a mapped artifact's shard
map, workers map the same ``.npy`` members read-only and the OS page
cache shares one physical copy of the model across the whole pool.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Sequence

import multiprocessing

import numpy as np

from repro.sampling.rng import document_rng, ensure_seed_sequence
from repro.serving.foldin import MODES, FoldInEngine, FoldInScratch
from repro.serving.sharding import ShardedPhi
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder

#: Target micro-batch tasks per worker when the caller does not pin
#: ``task_docs``: more tasks than workers is what lets a fast worker
#: steal the remainder of a skewed batch instead of idling.
_TASKS_PER_WORKER = 4

#: In-flight submissions allowed per worker.  Bounding the depth keeps
#: the executor's call queue shallow, so a hedge submitted late still
#: reaches a free worker quickly instead of queueing behind the batch.
_INFLIGHT_PER_WORKER = 2

#: Consecutive lower-demand calls before an elastic pool shrinks — one
#: small batch between two large ones must not thrash the pool.
_SHRINK_PATIENCE = 2

#: Completed-task latencies kept in the rolling hedge window.
_LATENCY_WINDOW = 128

#: Smoothing factor for the exported EWMA of task latency.
_EWMA_DECAY = 0.8


def _pool_context():
    """The cheapest *safe* multiprocessing context for this process.

    ``fork`` inherits the parent's memory (no spec pickling beyond the
    executor's own plumbing: phi, prior masses and alias tables exist
    once, copy-on-write) — but forking a multi-threaded parent can
    deadlock the children on locks held by threads that do not survive
    the fork, and a serving process with concurrent callers is exactly
    that.  So ``fork`` backs only single-threaded-at-pool-start
    parents; a threaded parent gets ``forkserver`` (workers rebuild
    from the picklable :class:`EngineSpec`, re-mapping a mapped
    artifact's shard files, so its phi is still shared through the
    page cache).  Non-POSIX platforms fall back to the default
    context.

    Fork additionally requires Python >= 3.11, where a fork-context
    executor launches **all** its workers at the first submit
    (python/cpython#90622) — which happens under :class:`ParallelFoldIn`'s
    pool lock immediately after this thread count check, so every fork
    occurs while the process is still provably single-threaded.
    Earlier executors fork workers incrementally, one per submit,
    possibly long after the caller has started threads.  The check
    cannot see non-Python threads (BLAS pools, embedding hosts); such
    processes should pass ``num_workers=1`` or call
    :meth:`ParallelFoldIn.warm_up` at startup.

    As with any non-fork start method, the serving program's entry
    point must be import-safe (the standard ``if __name__ ==
    "__main__"`` guard) when pools are created from a threaded parent.
    """
    try:
        if sys.version_info >= (3, 11) and threading.active_count() == 1:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


@dataclass(frozen=True)
class HedgePolicy:
    """When to duplicate a straggling task on another worker.

    The dispatcher keeps a rolling window of completed task latencies;
    a task still running after ``max(min_wait, multiplier *
    quantile(window))`` seconds is resubmitted (up to ``max_hedges``
    times, each hedge waiting a further threshold).  The first copy to
    finish wins; the loser is cancelled if still queued, or its result
    discarded — with the wasted work surfaced on the
    ``serving.hedge.wasted_tokens`` counter.  Results are unaffected
    either way: both copies sample the same per-document streams.

    With an empty window (nothing completed yet) the threshold is
    ``min_wait`` alone, so a batch whose *every* task stalls can still
    hedge instead of waiting forever for a first sample.
    """

    #: Latency quantile of the rolling window the threshold scales from.
    quantile: float = 0.95
    #: Threshold = ``multiplier`` times the window quantile.
    multiplier: float = 2.0
    #: Floor (seconds) below which tasks are never hedged — keeps fast
    #: healthy batches from hedging on scheduler jitter.
    min_wait: float = 0.05
    #: Duplicate submissions allowed per task.
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in (0, 1], got {self.quantile}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if self.min_wait < 0.0:
            raise ValueError(
                f"min_wait must be >= 0, got {self.min_wait}")
        if self.max_hedges < 1:
            raise ValueError(
                f"max_hedges must be >= 1, got {self.max_hedges}")

    def threshold(self, observed: float | None) -> float:
        """Seconds a task may run before its next hedge is due."""
        if observed is None:
            return self.min_wait
        return max(self.min_wait, self.multiplier * observed)


@dataclass(frozen=True)
class WorkerFault:
    """Deterministic straggler injection for benches and tests.

    When passed to :class:`ParallelFoldIn`, exactly one worker — the
    ``rank``-th to initialize — sleeps ``sleep_seconds`` at the start
    of every non-empty task it runs.  Production paths never set this
    (the default is no fault); it exists so the hedging machinery can
    be exercised against a *reproducible* straggler instead of waiting
    for a noisy neighbor.  The stall happens inside the worker's timed
    region, so the straggler's ``busy_seconds`` reflect its occupancy.
    """

    sleep_seconds: float
    rank: int = 0

    def __post_init__(self) -> None:
        if self.sleep_seconds < 0.0:
            raise ValueError(
                f"sleep_seconds must be >= 0, got {self.sleep_seconds}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild the fold-in engine.

    Exactly one of ``phi`` / ``sharded`` is set — both in the
    word-major ``(V, T)`` layout the engine gathers from, so rebuilding
    an engine from either is copy-free.  ``phi`` ships the validated
    array to the worker (pickled once at pool start); ``sharded`` is a
    mapped artifact's lazy :class:`~repro.serving.sharding.ShardedPhi`
    (schema v3, or a legacy v2 member read as one shard) whose pickle
    carries only the shard *map* — each worker unpickles an unmapped
    view and maps the same files read-only, so a large model exists
    once in physical memory, and with several shards each worker maps
    just the shards its own documents touch.  Both sources are
    pre-validated, so workers skip re-validation (and the parent never
    renormalizes a mapped phi, so workers serve its exact bits).
    """

    alpha: float
    iterations: int
    mode: str
    phi: np.ndarray | None = None
    sharded: ShardedPhi | None = None
    #: Resolved token-loop backend name (never "auto": workers must
    #: sample on the same backend the parent resolved, not re-resolve
    #: in an environment that might differ).
    backend: str = "python"

    def __post_init__(self) -> None:
        if (self.phi is None) == (self.sharded is None):
            raise ValueError(
                "exactly one of phi / sharded must be provided")
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}")

    def build_engine(self) -> FoldInEngine:
        word_major = self.sharded if self.sharded is not None \
            else self.phi
        # The engine re-transposes to word-major internally; handing it
        # the (T, V) transpose view makes that a no-op, not a copy.
        return FoldInEngine(word_major.T, self.alpha,
                            iterations=self.iterations,
                            mode=self.mode, validate=False,
                            backend=self.backend)


# Per-process worker state, installed by the pool initializer.  One
# engine + one scratch per worker process; documents are independent,
# so that is the entire worker-side state.
_WORKER_ENGINE: FoldInEngine | None = None
_WORKER_SCRATCH: FoldInScratch | None = None
_WORKER_FAULT_SLEEP: float = 0.0


def _init_worker(engine_or_spec: FoldInEngine | EngineSpec,
                 fault: WorkerFault | None = None,
                 fault_counter: Any | None = None) -> None:
    """Install the worker's engine (and its injected fault, if any).

    Under the ``fork`` context the parent passes its *engine object*,
    which the worker inherits copy-on-write — phi, prior masses and the
    O(V * T) alias tables exist once in physical memory across the
    whole pool and are never rebuilt.  Non-fork contexts receive the
    picklable :class:`EngineSpec` and rebuild (paying the alias
    construction per worker, but keeping a mapped phi shared via its
    files).

    ``fault_counter`` is a shared ``multiprocessing.Value`` handing
    each worker a distinct initialization rank (initargs travel with
    the worker ``Process``, never through the pickled call queue, so
    sync primitives are legal here); the worker whose rank matches
    ``fault.rank`` becomes the designated straggler.
    """
    global _WORKER_ENGINE, _WORKER_SCRATCH, _WORKER_FAULT_SLEEP
    _WORKER_ENGINE = (engine_or_spec if isinstance(engine_or_spec,
                                                   FoldInEngine)
                      else engine_or_spec.build_engine())
    # A fork-inherited engine carries the parent's recorder — whose
    # lock may have been mid-acquire at fork, and whose metrics would
    # land in a dead copy anyway.  Workers never record directly; their
    # accounting flows back to the parent as plain stats dicts.
    _WORKER_ENGINE.recorder = NULL_RECORDER
    _WORKER_SCRATCH = _WORKER_ENGINE.new_scratch()
    _WORKER_FAULT_SLEEP = 0.0
    if fault is not None and fault_counter is not None:
        with fault_counter.get_lock():
            rank = fault_counter.value
            fault_counter.value += 1
        if rank == fault.rank:
            _WORKER_FAULT_SLEEP = fault.sleep_seconds


def _fold_shard(documents: list[np.ndarray], indices: list[int],
                call_seed: np.random.SeedSequence
                ) -> tuple[np.ndarray, dict[str, Any]]:
    """Fold one shard of (already validated) documents in a worker.

    ``indices`` are the documents' positions in the full batch — the
    only thing their RNG streams are keyed by, which is what makes the
    shard assignment irrelevant to the result.

    Returns ``(rows, stats)`` where ``stats`` is this task's
    utilization accounting — ``{"worker": pid, "docs", "tokens",
    "busy_seconds"}`` — merged by the parent into per-worker counters
    (workers themselves never hold a live recorder).
    """
    start = perf_counter()
    if _WORKER_FAULT_SLEEP and documents:
        sleep(_WORKER_FAULT_SLEEP)
    rows = _WORKER_ENGINE.theta_documents(
        documents, [document_rng(call_seed, index) for index in indices],
        _WORKER_SCRATCH)
    stats = {"worker": os.getpid(), "docs": len(documents),
             "tokens": sum(doc.shape[0] for doc in documents),
             "busy_seconds": perf_counter() - start}
    return rows, stats


class _TaskLatencies:
    """Rolling window + EWMA of completed task latencies (seconds).

    Shared across calls (and caller threads) of one
    :class:`ParallelFoldIn`: the hedge threshold should reflect what
    tasks normally cost on this pool, not just within one batch.  The
    lock is held only for O(window) bookkeeping, never across waits.
    """

    def __init__(self, window: int = _LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)
        self.ewma: float | None = None

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._window.append(seconds)
            self.ewma = (seconds if self.ewma is None
                         else _EWMA_DECAY * self.ewma
                         + (1.0 - _EWMA_DECAY) * seconds)

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile of the window, ``None`` when empty."""
        with self._lock:
            if not self._window:
                return None
            data = sorted(self._window)
        return data[max(1, math.ceil(q * len(data))) - 1]


class _TaskState:
    """Parent-side bookkeeping for one micro-batch task.

    Mutable by design (unlike the frozen specs): it lives entirely
    inside the dispatching call and never crosses a process boundary.
    """

    __slots__ = ("indices", "tokens", "first_submitted", "hedges",
                 "live", "resolved")

    def __init__(self, indices: list[int], tokens: int) -> None:
        self.indices = indices
        self.tokens = tokens
        self.first_submitted: float | None = None
        self.hedges = 0          # duplicate submissions issued
        self.live = 0            # futures currently in flight
        self.resolved = False    # rows written to theta


class ParallelFoldIn:
    """Shards fold-in batches over a dynamic pool of worker processes.

    :meth:`theta` is safe to call from concurrent threads: the inline
    path samples on a per-thread scratch, and the worker pool is built
    exactly once under a lock (in a threaded parent it uses the
    ``forkserver`` start method, since forking a multi-threaded process
    is deadlock-prone).

    Parameters
    ----------
    engine:
        The parent-side :class:`FoldInEngine` (already validated).  With
        one worker it does all the work inline; with more, each worker
        process rebuilds an identical engine from the spec.
    num_workers:
        Initial process count.  Results are bit-identical for every
        value; the right number is roughly the machine's core count.
    recorder:
        Optional :class:`~repro.telemetry.Recorder` collecting
        per-worker utilization (``serving.worker.{docs,tokens,
        busy_seconds}`` keyed by worker pid), batch totals, task
        latency (``serving.task.seconds``), hedge accounting
        (``serving.hedge.{issued,won,wasted_tokens}``) and pool sizing
        (``serving.pool.{workers,grown,shrunk}``).  Recorders never
        cross the process boundary — workers return plain stats dicts
        and the parent merges them — so any recorder (locks and all)
        is safe here with every pool context.
    task_docs:
        Upper bound on documents per dispatched task; defaults to the
        engine's ``batch_size``.  The dispatcher additionally splits a
        batch into roughly ``4 * max_workers`` tasks so fast workers
        can steal work; smaller values buy finer balancing on skewed
        batches at more submission overhead.  Pure scheduling — theta
        never depends on the split.
    hedge:
        Optional :class:`HedgePolicy` enabling straggler hedging.
        ``None`` (default) never duplicates work.
    min_workers / max_workers:
        Elastic pool bounds.  Both default to ``num_workers`` (fixed
        pool).  When they differ, each call grows the pool toward the
        batch's task count immediately and shrinks it only after
        ``2`` consecutive lower-demand calls; resizes reuse the locked
        pool-swap machinery, so in-flight tasks always drain on the
        pool that accepted them.
    fault:
        Optional :class:`WorkerFault` straggler injection (tests and
        benches only; ``None`` in production).
    """

    def __init__(self, engine: FoldInEngine, num_workers: int = 1,
                 recorder: Recorder | None = None, *,
                 task_docs: int | None = None,
                 hedge: HedgePolicy | None = None,
                 min_workers: int | None = None,
                 max_workers: int | None = None,
                 fault: WorkerFault | None = None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        if task_docs is not None and task_docs < 1:
            raise ValueError(
                f"task_docs must be >= 1, got {task_docs}")
        min_workers = (num_workers if min_workers is None
                       else int(min_workers))
        max_workers = (num_workers if max_workers is None
                       else int(max_workers))
        if min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) must be >= min_workers "
                f"({min_workers})")
        self.engine = engine
        self.num_workers = int(num_workers)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.task_docs = None if task_docs is None else int(task_docs)
        self.hedge = hedge
        self.fault = fault
        self.recorder = ensure_recorder(recorder)
        # Mapped engines ship the shard map, never the matrix: the
        # ShardedPhi pickle is a few paths + offsets, and each non-fork
        # worker maps the same files (with several shards, only those
        # its documents touch).  Fork workers inherit the parent's view
        # copy-on-write and do the same.
        self._spec = EngineSpec(
            alpha=engine.alpha, iterations=engine.iterations,
            mode=engine.mode,
            phi=engine._phi_by_word if engine.sharded is None else None,
            sharded=engine.sharded, backend=engine.backend_name)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._pool_size = min(max_workers,
                              max(min_workers, self.num_workers))
        self._shrink_votes = 0
        self._latencies = _TaskLatencies()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _inline_scratch(self) -> FoldInScratch:
        """The calling thread's private scratch, created on first use.

        The inline (``workers == 1``) path reuses a scratch across
        calls like worker processes do, but the buffers are mutable
        sampling state — one scratch per *thread*, not per fold-in, is
        what keeps two threads sharing a session from corrupting each
        other's theta.
        """
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = self.engine.new_scratch()
        return scratch

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, created on first use at the current size.

        Caller must hold ``_pool_lock`` — and keep holding it through
        its ``submit`` calls: two racing callers must never both build
        a pool (the loser's worker processes would leak), and a
        concurrent :meth:`close` must never shut the pool down between
        lookup and submission (its ``shutdown(wait=True)`` still
        drains work submitted before the swap).
        """
        if self._pool is None:
            context = _pool_context()
            # fork: hand workers the parent engine itself (inherited
            # copy-on-write, alias tables and all); otherwise ship
            # the picklable spec and let workers rebuild.
            payload = (self.engine
                       if context.get_start_method() == "fork"
                       else self._spec)
            # The rank counter rides in initargs, which travel with
            # each worker Process (fork inheritance / spawn reduction),
            # never through the pickled call queue — the one channel
            # where a multiprocessing.Value is legal.
            fault_counter = (context.Value("i", 0)
                             if self.fault is not None else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size, mp_context=context,
                initializer=_init_worker,
                initargs=(payload, self.fault, fault_counter))
            self.recorder.gauge("serving.pool.workers",
                                self._pool_size)
        return self._pool

    def _retire_pool_locked(self, new_size: int) -> None:
        """Swap the pool out at ``new_size`` (caller holds the lock).

        The old pool shuts down *without* waiting: futures already
        submitted to it still drain (only new submissions are barred),
        so a concurrent :meth:`theta` mid-harvest never stalls, and its
        processes exit once their queue empties.
        """
        pool, self._pool = self._pool, None
        self._pool_size = new_size
        if pool is not None:
            pool.shutdown(wait=False)

    def _resize_locked(self, queue_depth: int) -> None:
        """Elastic sizing: grow eagerly, shrink reluctantly.

        Called at dispatch time with the batch's task count (caller
        holds the lock).  Growth is immediate — queued demand is paying
        for idle capacity right now; shrinking waits for
        ``_SHRINK_PATIENCE`` consecutive lower-demand calls so one
        small request between large ones does not thrash worker
        processes.  No-op for a fixed pool (``min == max``).
        """
        if self.min_workers == self.max_workers:
            return
        desired = min(self.max_workers,
                      max(self.min_workers, queue_depth))
        if desired > self._pool_size:
            self._retire_pool_locked(desired)
            self._shrink_votes = 0
            self.recorder.count("serving.pool.grown")
            self.recorder.gauge("serving.pool.workers", desired)
        elif desired < self._pool_size:
            self._shrink_votes += 1
            if self._shrink_votes >= _SHRINK_PATIENCE:
                self._retire_pool_locked(desired)
                self._shrink_votes = 0
                self.recorder.count("serving.pool.shrunk")
                self.recorder.gauge("serving.pool.workers", desired)
        else:
            self._shrink_votes = 0

    def theta(self, documents: Sequence[np.ndarray],
              seed: int | np.random.SeedSequence
              | np.random.Generator | None = None) -> np.ndarray:
        """Fold-in ``theta`` rows, shape ``(len(documents), T)``.

        ``seed`` names the call's root ``SeedSequence``; document ``i``
        samples on the stream keyed ``(seed, i)`` regardless of which
        worker runs it, so the result is a pure function of the seed
        and the documents — not of worker count, task boundaries,
        completion order, pool resizes or hedged duplicates.  Empty
        documents get the uniform row and are never shipped to a
        worker.
        """
        call_seed = ensure_seed_sequence(seed)
        documents = self.engine.check_documents(documents)
        theta = np.empty((len(documents), self.engine.num_topics))
        pending: list[int] = []
        for index, doc in enumerate(documents):
            if doc.shape[0] == 0:
                theta[index] = 1.0 / self.engine.num_topics
            else:
                pending.append(index)
        if not pending:
            return theta
        if self.max_workers == 1 or len(pending) == 1:
            recorder = self.recorder
            if recorder is NULL_RECORDER:
                self._fold_inline(documents, theta, pending, call_seed)
                return theta
            # Inline execution is one task run by this process: time it
            # with the recorder's clock (injectable for deterministic
            # tests) and merge it exactly like a worker's stats dict.
            clock = getattr(recorder, "clock", perf_counter)
            start_time = clock()
            self._fold_inline(documents, theta, pending, call_seed)
            self._record_task({
                "worker": os.getpid(), "docs": len(pending),
                "tokens": sum(documents[i].shape[0] for i in pending),
                "busy_seconds": clock() - start_time})
            return theta
        sharded = self.engine.sharded
        if sharded is not None and sharded.num_shards > 1:
            # Shard-affine assignment: order pending documents by their
            # dominant phi shard (ties by batch index) before the
            # contiguous split below, so a task's documents cluster on
            # the same shards and each worker maps a subset of the
            # shard files instead of all of them.  Pure scheduling:
            # every document still samples on its index-keyed stream,
            # so theta is invariant to this reorder — and to any shard
            # layout.  One vectorized pass over the whole batch: a
            # flat shard lookup, per-(doc, shard) counts via bincount,
            # then a stable argsort (pending is already in index order,
            # so stability reproduces the (dominant, index) tie-break).
            flat = np.concatenate([documents[i] for i in pending])
            owner = np.repeat(
                np.arange(len(pending)),
                [documents[i].shape[0] for i in pending])
            counts = np.bincount(
                owner * sharded.num_shards + sharded.shard_of(flat),
                minlength=len(pending) * sharded.num_shards)
            dominant = counts.reshape(
                len(pending), sharded.num_shards).argmax(axis=1)
            order = np.argsort(dominant, kind="stable")
            pending = [pending[position] for position in order]
        return self._dispatch(documents, theta, pending, call_seed)

    def _fold_inline(self, documents: Sequence[np.ndarray],
                     theta: np.ndarray, pending: list[int],
                     call_seed: np.random.SeedSequence) -> None:
        """Fold the pending documents in this thread.

        A lone document takes :meth:`FoldInEngine.theta_document`, so a
        single-document request traces as one per-document fold; more
        go through :meth:`FoldInEngine.theta_documents`, which hands
        large enough groups to the document-batched lane.  Both sample
        each document on its index-keyed stream, so the rows are the
        same bits a worker would return.
        """
        scratch = self._inline_scratch()
        if len(pending) == 1:
            index, = pending
            theta[index] = self.engine.theta_document(
                documents[index], document_rng(call_seed, index), scratch)
            return
        theta[pending] = self.engine.theta_documents(
            [documents[i] for i in pending],
            [document_rng(call_seed, i) for i in pending], scratch)

    def _dispatch(self, documents: Sequence[np.ndarray],
                  theta: np.ndarray, pending: list[int],
                  call_seed: np.random.SeedSequence) -> np.ndarray:
        """Dynamic micro-batch dispatch with optional hedging.

        Tasks are harvested in completion order, so a fast worker that
        finishes early immediately receives queued work (work stealing
        by pull), and — when a :class:`HedgePolicy` is set — a task
        overstaying the latency window's threshold is duplicated onto
        another worker, first result winning.  Every document samples
        its own index-keyed stream, so none of this can change theta.
        """
        hedge = self.hedge
        recorder = self.recorder
        record = recorder is not NULL_RECORDER
        limit = self.task_docs or self.engine.batch_size
        split = min(self.max_workers, len(pending)) * _TASKS_PER_WORKER
        task_size = max(1, min(limit, -(-len(pending) // split)))
        states = []
        for start in range(0, len(pending), task_size):
            indices = pending[start:start + task_size]
            states.append(_TaskState(
                indices,
                sum(documents[i].shape[0] for i in indices)))
        queue = deque(states)
        inflight: dict[Future, tuple[_TaskState, float]] = {}
        hedged_futures: set[Future] = set()
        with self._pool_lock:
            self._resize_locked(len(states))
        max_inflight = max(1, self._pool_size * _INFLIGHT_PER_WORKER)

        def submit(state: _TaskState, hedged: bool) -> None:
            with self._pool_lock:
                future = self._ensure_pool().submit(
                    _fold_shard,
                    [documents[i] for i in state.indices],
                    state.indices, call_seed)
            now = perf_counter()
            if state.first_submitted is None:
                state.first_submitted = now
            state.live += 1
            inflight[future] = (state, now)
            if hedged:
                hedged_futures.add(future)

        def active() -> int:
            return sum(1 for state, _ in inflight.values()
                       if not state.resolved)

        while queue and active() < max_inflight:
            submit(queue.popleft(), hedged=False)
        unresolved = len(states)
        while unresolved:
            timeout = None
            if hedge is not None:
                threshold = hedge.threshold(
                    self._latencies.quantile(hedge.quantile))
                now = perf_counter()
                next_due = None
                seen: set[int] = set()
                for state, _ in list(inflight.values()):
                    if state.resolved or id(state) in seen:
                        continue
                    seen.add(id(state))
                    while (state.hedges < hedge.max_hedges
                           and state.first_submitted
                           + threshold * (state.hedges + 1) <= now):
                        state.hedges += 1
                        submit(state, hedged=True)
                        recorder.count("serving.hedge.issued")
                    if state.hedges < hedge.max_hedges:
                        due = (state.first_submitted
                               + threshold * (state.hedges + 1))
                        next_due = (due if next_due is None
                                    else min(next_due, due))
                if next_due is not None:
                    timeout = max(next_due - perf_counter(), 1e-3)
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                state, submitted = inflight.pop(future)
                state.live -= 1
                was_hedge = future in hedged_futures
                hedged_futures.discard(future)
                if state.resolved:
                    # Loser of a hedge race: rows discarded; wasted
                    # work was accounted by the callback attached when
                    # the winner resolved.
                    continue
                error = future.exception()
                if error is not None:
                    if state.live > 0:
                        # A duplicate of this task is still in flight
                        # and may deliver; only the task's *last*
                        # execution gets to fail the batch.
                        continue
                    raise error
                rows, stats = future.result()
                theta[state.indices] = rows
                state.resolved = True
                unresolved -= 1
                latency = perf_counter() - submitted
                self._latencies.observe(latency)
                if record:
                    self._record_task(stats)
                    recorder.observe("serving.task.seconds", latency)
                    recorder.gauge("serving.task.ewma_seconds",
                                   self._latencies.ewma)
                    if was_hedge:
                        recorder.count("serving.hedge.won")
                if state.live:
                    # First result won: cancel still-queued duplicates;
                    # ones already running finish harmlessly (their
                    # rows are identical and ignored) with the cost
                    # surfaced as wasted tokens when they land.
                    for loser, (owner, _) in list(inflight.items()):
                        if (owner is state and not loser.cancel()
                                and record):
                            loser.add_done_callback(partial(
                                self._discard_loser,
                                tokens=state.tokens))
            while queue and active() < max_inflight:
                submit(queue.popleft(), hedged=False)
        return theta

    def _discard_loser(self, future: Future, tokens: int) -> None:
        """Done-callback for a hedge race's loser: count wasted work.

        Runs on an executor thread, possibly after :meth:`theta`
        returned — the recorder is thread-safe and this is the only
        place ``serving.hedge.wasted_tokens`` is fed, so the counter
        converges once the pool drains (``close()`` waits for that).
        """
        if future.cancelled() or future.exception() is not None:
            return
        self.recorder.count("serving.hedge.wasted_tokens", tokens)

    def _record_task(self, stats: dict[str, Any]) -> None:
        """Merge one task's worker-side stats into the recorder.

        Per-worker series are keyed by the worker's pid — summing
        ``serving.worker.busy_seconds`` across workers against wall
        time gives pool utilization; the per-pid split shows balance.
        Batch totals and the task-latency histogram are also fed here
        so sequential and parallel serving expose the same series.
        Hedge losers never reach this method: merged docs/tokens stay
        invariant to worker count *and* to hedging.
        """
        recorder = self.recorder
        worker = stats["worker"]
        recorder.count("serving.worker.docs", stats["docs"],
                       worker=worker)
        recorder.count("serving.worker.tokens", stats["tokens"],
                       worker=worker)
        recorder.count("serving.worker.busy_seconds",
                       stats["busy_seconds"], worker=worker)
        recorder.count("serving.foldin.documents", stats["docs"])
        recorder.count("serving.foldin.tokens", stats["tokens"])
        recorder.observe("serving.foldin.batch_seconds",
                         stats["busy_seconds"], mode=self.engine.mode)

    # ------------------------------------------------------------------
    def warm_up(self) -> "ParallelFoldIn":
        """Spawn the worker pool now (no-op when the pool can't grow
        past one worker).

        Call this at process startup — before request threads or
        native (BLAS, embedding-host) thread pools exist — to pin
        every worker fork to a provably safe moment instead of the
        first multi-document :meth:`theta` call.  The empty submit
        matters: fork-context executors launch their workers at the
        first submit, not at executor construction.
        """
        if self.max_workers > 1:
            with self._pool_lock:
                future = self._ensure_pool().submit(
                    _fold_shard, [], [], np.random.SeedSequence(0))
            future.result()
        return self

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Safe to call while other threads are mid-:meth:`theta`: they
        submit under the same lock that swaps the pool out, already
        submitted shards drain before shutdown completes, and any
        later call simply respawns a pool on demand.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelFoldIn":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ParallelFoldIn(num_workers={self.num_workers}, "
                f"pool_size={self._pool_size}, "
                f"mode={self.engine.mode!r}, "
                f"hedge={'on' if self.hedge is not None else 'off'}, "
                f"mmap={self._spec.sharded is not None}, "
                f"pool={'up' if self._pool is not None else 'down'})")


def available_cpus() -> int:
    """CPUs this process can actually use.

    ``os.cpu_count()`` reports the host's cores; a pinned or
    container-throttled process may be allowed far fewer.  Honors the
    scheduler affinity mask and (best-effort) a cgroup-v2 CPU quota, so
    worker-count decisions and benchmark speedup gates reflect reality
    in CI containers.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        count = os.cpu_count()
    count = count or 1
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max") \
            .read_text().split()[:2]
        if quota != "max":
            count = min(count, max(1, int(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return max(1, count)
