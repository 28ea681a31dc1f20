"""Batched fold-in Gibbs inference for unseen documents.

Query-time inference ("fold-in") estimates a document-topic mixture
``theta`` for documents the model never trained on, by Gibbs-sampling
token assignments against the *frozen* topic-word distributions ``phi``
— the paper's held-out treatment where the training counts folded into
phi stand in for the ``n + ñ`` numerators (see
:mod:`repro.metrics.perplexity`).

The legacy implementation lived inside ``heldout_gibbs_theta`` as a dense
per-token Python loop that re-validated ``phi``, re-gathered a
``(Nd, T)`` probability block and re-drew a scalar uniform per token for
*every* document of *every* call.  :class:`FoldInEngine` productizes it:

* ``phi`` is validated (and, for float32-drift snapshots, renormalized)
  **once per engine**, not per call — sessions serving many batches pay
  the ``O(T * V)`` checks a single time;
* the per-document ``phi[:, word_ids]`` gather lands in a **reused
  buffer** sized to the longest document seen by the current scratch,
  as do the weight, cumulative-sum and accumulator rows;
* the per-token uniforms are **pre-drawn in chunks** (one
  ``rng.random(Nd)`` call per document sweep).  NumPy's
  ``Generator.random`` consumes the bit stream identically whether
  called ``Nd`` times or once with size ``Nd`` (the same contract the
  training engines rely on), so the draw stream matches the legacy loop
  exactly;
* documents are processed in ``batch_size`` groups — the unit
  :mod:`repro.serving.parallel` shards over workers;
* the token loops themselves live in the unified sampling runtime
  (:mod:`repro.sampling.runtime`): the engine compiles its frozen state
  into a :class:`~repro.sampling.runtime.FoldInTable` and a pluggable
  :class:`~repro.sampling.runtime.TokenLoopBackend`
  (``backend="auto"|"python"|"numba"``) executes the per-document
  sampling — the same backends the training engines run on.

Concurrency contract: the engine itself holds **only frozen state**
(the validated ``phi`` layouts, the sparse lane's prior masses and
alias tables, the resolved backend — all frozen after construction)
and is therefore shareable — many threads, or forked worker processes,
may call :meth:`FoldInEngine.theta` /
:meth:`FoldInEngine.theta_document` on one engine concurrently.  All
mutable sampling buffers live in a :class:`FoldInScratch`, created per
call by default or passed explicitly by callers (workers) that want to
reuse one across documents.

Two sampling lanes:

``mode="exact"``
    The legacy dense draw, bit-for-bit: weights
    ``phi[:, w] * (nd + alpha)`` cumulative-summed over all ``T`` topics
    with the reference boundary clamp.  ``heldout_gibbs_theta`` now
    delegates here, and ``tests/test_serving.py`` pins seed-for-seed
    equality against the legacy loop.
``mode="sparse"``
    Bucketed draws in the style of
    :mod:`repro.sampling.sparse_engine`: because ``phi`` is frozen, the
    weight splits into a static per-word prior mass
    (``alpha * sum_t phi[t, w]``, precomputed for the whole vocabulary)
    plus a document bucket over the nonzero ``nd`` topics — O(nnz) per
    token instead of O(T), the serving default.  Prior-bucket hits are
    answered in O(1) by per-word Walker alias tables
    (:mod:`repro.sampling.alias`), precomputed once per engine;
    previously each hit paid a binary search over a per-word cumulative
    sum.  Statistically equivalent to the exact lane (same conditional
    distribution), not draw-for-draw identical.  The document-bucket
    mass is a running (sequential) sum, the last entry of the same
    prefix sums the draw bisects.

Documents on their own streams (:meth:`FoldInEngine.theta_documents`,
what :mod:`repro.serving.parallel` calls for every task and every
multi-document inline call) can also take a **document-batched** sparse
lane: :meth:`~repro.sampling.runtime.PythonBackend.foldin_sparse_batch`
samples token position ``p`` of every document in a micro-batch in one
numpy pass, each document still drawing from its own stream in the
per-document lane's order, so every row is bit-identical to folding
that document alone.  Routing is by group size only: documents are
grouped at most :attr:`FoldInEngine.batch_size` at a time (so the
lane's scratch stays ``batch_size x T`` floats), a group of at least
:data:`BATCH_LANE_MIN_DOCS` documents goes to the batched lane when the
backend has one, and smaller groups — a lone document in particular —
stay on the per-document lane.  The constant is the measured crossover
of the two lanes (``benchmarks/test_bench_serving.py``).  The exact
lane and the shared-stream :meth:`FoldInEngine.theta` never batch.

Mapped phi (schema-v2/v3 artifacts): when ``phi`` is the lazy
``(T, V)`` face of a :class:`~repro.serving.sharding.ShardedPhi`, the
engine goes **shard-aware** instead of materializing.  The exact lane
gathers through the view's shard-local ``take``; the sparse lane's
prior masses and alias tables are built **per shard, on first touch**
(:class:`_ShardedFoldInTables`) — per-word row sums and
:func:`~repro.sampling.alias.build_alias_rows` are row-independent, so
the per-shard tables are bit-identical to whole-matrix tables row for
row and the served theta never depends on the shard layout (pinned by
``tests/test_sharded_serving.py``).  A single-shard view — the
``mmap_phi=True`` layout, and every legacy v2 artifact — takes the
dense fast path off its one block, the whole word-major matrix, keeping
shards=1 serving throughput at parity with unsharded; its
stochasticity check runs on that block and raises (never renormalizes:
worker processes re-map the file, so a private renormalized copy would
serve different bits than the workers).
:meth:`FoldInEngine.touch` prefetches exactly the shards a batch
needs; :meth:`FoldInEngine.theta` touches each batch before sampling
it.
"""

from __future__ import annotations

import threading
import warnings
from typing import Sequence

import numpy as np

from repro.sampling.alias import build_alias_rows
from repro.sampling.rng import ensure_rng
from repro.sampling.runtime import (FoldInTable, TokenLoopBackend,
                                    TopicSet, resolve_backend)
from repro.serving.sharding import ShardedPhi, TransposedShardedPhi
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder

#: Fold-in sampling lanes.
MODES = ("exact", "sparse")

#: Smallest group :meth:`FoldInEngine.theta_documents` sends to the
#: backend's document-batched sparse lane; smaller groups take the
#: per-document lane.  The measured crossover of the two lanes'
#: docs/sec at T=200 (``benchmarks/results/foldin_lane_crossover.txt``:
#: batched/per-document is ~0.7x at 8 documents and ~1.25x at 16, for
#: 20-, 100- and 1000-token documents alike).
BATCH_LANE_MIN_DOCS = 16

#: Row sums within this tolerance of 1 are accepted as exact.
PHI_SUM_ATOL = 1e-6
#: Row sums within this looser tolerance are renormalized with a warning
#: — the drift signature of phi snapshots stored in float32 and upcast.
PHI_RENORM_ATOL = 1e-3


def validate_phi(phi: np.ndarray, *, stacklevel: int = 2) -> np.ndarray:
    """Check and return ``phi`` as a float64 ``(T, V)`` stochastic matrix.

    Rows must be non-negative and sum to 1 within ``PHI_SUM_ATOL``; rows
    within the looser ``PHI_RENORM_ATOL`` (a float32 round-trip
    signature) are renormalized with a warning.  Shared by the fold-in
    engine and every perplexity estimator in
    :mod:`repro.metrics.perplexity`.

    ``stacklevel`` positions the renormalization warning and follows
    the :func:`warnings.warn` convention counted from this function:
    the default 2 points at the direct caller; wrappers validating on a
    caller's behalf pass 3 so the warning lands on *their* caller's
    line.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError(f"phi must be 2-d, got shape {phi.shape}")
    if np.any(phi < 0):
        raise ValueError("phi has negative entries")
    sums = phi.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=PHI_SUM_ATOL):
        if not np.allclose(sums, 1.0, rtol=0.0, atol=PHI_RENORM_ATOL):
            raise ValueError("phi rows must sum to 1")
        warnings.warn(
            "phi row sums drift from 1 by more than "
            f"{PHI_SUM_ATOL:g} (max |sum - 1| = "
            f"{float(np.abs(sums - 1.0).max()):.2e}, consistent with a "
            "float32 round-trip); renormalizing rows",
            RuntimeWarning, stacklevel=stacklevel)
        phi = phi / sums[:, np.newaxis]
    return phi


def _as_sharded(phi) -> ShardedPhi | None:
    """The word-major sharded view behind a ``phi`` argument, if any.

    Engines take phi in the canonical ``(T, V)`` orientation, so a
    sharded model arrives as the lazy transpose face; a bare
    (word-major) :class:`ShardedPhi` is rejected rather than silently
    served transposed.
    """
    if isinstance(phi, TransposedShardedPhi):
        return phi.T
    if isinstance(phi, ShardedPhi):
        raise TypeError(
            "FoldInEngine takes phi in (T, V) orientation; pass the "
            "sharded view's transpose face (sharded.T), not the bare "
            "word-major ShardedPhi")
    return None


class _ShardedFoldInTables:
    """Sparse-lane tables for a sharded phi, built per shard on first
    touch.

    Holds one ``(prior_mass, alias_accept, alias_topic)`` triple per
    shard — the same arrays an unsharded engine precomputes for the
    whole vocabulary, restricted to the shard's word rows.  Both are
    row-independent constructions (per-word sums;
    :func:`~repro.sampling.alias.build_alias_rows` replays an identical
    per-row pop/push sequence whatever rows share a block), so every
    row is bit-identical to its whole-matrix counterpart — the
    foundation of the sharded == unsharded serving contract.

    The :class:`_ShardedRows` views expose the ``table[word]`` /
    ``table.take(word_ids)`` surface the runtime lanes already use, so
    :class:`~repro.sampling.runtime.FoldInTable` carries them in place
    of arrays and the python backend samples unchanged.  Construction
    is lock-guarded (engines are shared across threads); reads are
    lock-free.
    """

    def __init__(self, sharded: ShardedPhi, alpha: float,
                 owner: "FoldInEngine | None" = None) -> None:
        self._sharded = sharded
        self._alpha = alpha
        # The owning engine, read (not captured) at build time so each
        # shard-table construction lands on the engine's *current*
        # recorder — workers reset theirs to NULL after fork.
        self._owner = owner
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]
                           | None] = [None] * sharded.num_shards
        self._lock = threading.Lock()
        self.prior_mass = _ShardedRows(self, 0)
        self.alias_accept = _ShardedRows(self, 1)
        self.alias_topic = _ShardedRows(self, 2)

    @property
    def sharded(self) -> ShardedPhi:
        return self._sharded

    def shard(self, index: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tables = self._tables[index]
        if tables is None:
            tables = self._build(index)
        return tables

    def _build(self, index: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with self._lock:
            tables = self._tables[index]
            if tables is not None:
                return tables
            block = self._sharded.block(index)
            prior_mass = self._alpha * block.sum(axis=1)
            accept, alias = build_alias_rows(block)
            tables = (prior_mass, accept, alias)
            self._tables[index] = tables
            if self._owner is not None:
                self._owner.recorder.count(
                    "serving.foldin.shard_table_builds")
            return tables

    def ensure(self, shard_ids: Sequence[int]) -> None:
        """Build the tables of the given shards now (prefetch)."""
        for index in shard_ids:
            self.shard(int(index))


class _ShardedRows:
    """Word-indexed view over one column of a
    :class:`_ShardedFoldInTables` triple (0 = prior mass, 1 = alias
    accept rows, 2 = alias topic rows).

    ``view[word]`` answers the sparse lane's per-token lookups;
    :meth:`take` gathers whole documents for backends that need dense
    operands (the compiled lanes).  Both return the same values the
    unsharded arrays would.
    """

    __slots__ = ("_tables", "_column")

    def __init__(self, tables: _ShardedFoldInTables, column: int) -> None:
        self._tables = tables
        self._column = column

    def __getitem__(self, word):
        shard, local = self._tables.sharded.locate(word)
        return self._tables.shard(shard)[self._column][local]

    def take(self, word_ids, axis=0):
        if axis != 0:
            raise ValueError(
                f"sharded fold-in tables gather along the word axis "
                f"(axis=0), got axis={axis}")
        ids = np.asarray(word_ids, dtype=np.int64)
        # Prior masses are one float per word; alias rows span the
        # topics (accept floats, alias topic ids).  Known up front, so
        # an empty gather maps and builds nothing.
        if self._column == 0:
            out = np.empty(ids.shape)
        else:
            out = np.empty(ids.shape + (self._tables.sharded.shape[1],),
                           dtype=np.float64 if self._column == 1
                           else np.int64)
        shard_ids = self._tables.sharded.shard_of(ids)
        for shard in np.unique(shard_ids):
            shard = int(shard)
            table = self._tables.shard(shard)[self._column]
            start = self._tables.sharded.shard_ranges[shard][0]
            sel = np.flatnonzero(shard_ids == shard)
            out[sel] = table[ids[sel] - start]
        return out


class FoldInScratch:
    """The mutable sampling state of one fold-in caller.

    Everything a fold-in draw writes lives here — the per-token weight,
    cumulative-sum and accumulator rows, the grow-only ``(Nd, T)``
    gather buffer of the exact lane, and the sparse lane's
    :class:`~repro.sampling.sparse_engine.TopicSet` of nonzero document
    topics.  One scratch belongs to exactly one thread of execution at
    a time; the engine it pairs with stays immutable and shared.
    """

    __slots__ = ("work", "cumulative", "accumulated", "gather",
                 "doc_topics")

    def __init__(self, num_topics: int, sparse: bool) -> None:
        self.work = np.empty(num_topics)
        self.cumulative = np.empty(num_topics)
        self.accumulated = np.empty(num_topics)
        self.gather = np.empty((0, num_topics))
        self.doc_topics = TopicSet(0, num_topics) if sparse else None

    def ensure_gather(self, length: int) -> np.ndarray:
        """The ``(>= length, T)`` gather buffer, grown if needed."""
        if length > self.gather.shape[0]:
            self.gather = np.empty((length, self.work.shape[0]))
        return self.gather


class FoldInEngine:
    """Estimates ``theta`` for batches of unseen documents against a
    frozen ``phi``.

    The engine holds only immutable state after construction and is
    safe to share across threads and forked worker processes; see the
    module docstring's concurrency contract.

    Parameters
    ----------
    phi:
        Topic-word distributions ``(T, V)``; validated once here (pass
        ``validate=False`` when the caller already ran
        :func:`validate_phi`).  The lazy face of a mapped artifact
        (``load_model`` of a v2/v3 artifact) is served from its
        read-only member maps as-is, so many worker processes share one
        physical copy; validation checks it without renormalizing.
    alpha:
        Symmetric document-topic prior of the fold-in sampler.
    iterations:
        Gibbs sweeps per document; the first half burns in and the rest
        are averaged (always at least the final sweep).
    mode:
        ``"exact"`` (the legacy dense draw, seed-pinned to
        ``heldout_gibbs_theta``) or ``"sparse"`` (bucketed O(nnz)
        draws with O(1) alias-table prior hits, the serving default
        through :class:`~repro.serving.session.InferenceSession`).
    batch_size:
        Documents per buffer-sizing group in :meth:`theta`.
    backend:
        Token-loop backend executing the per-document sampling:
        ``"auto"`` (default — compiled when numba is importable, python
        otherwise), ``"python"`` or ``"numba"``; a resolved
        :class:`~repro.sampling.runtime.TokenLoopBackend` also passes
        through.  The resolved name is exposed as
        :attr:`backend_name` (workers rebuild engines from it).
    recorder:
        Optional :class:`~repro.telemetry.Recorder`; :meth:`theta`
        records per-batch latency, document/token counts, shard
        touches, the ``mapped_bytes`` gauge and lazy shard-table
        builds.  ``None`` (default) runs with the zero-overhead null
        recorder.  Recording never draws randomness, so theta is
        bit-identical with and without one.  The attribute is the one
        piece of mutable engine state — worker processes reset it to
        the null recorder so a forked engine never writes into the
        parent's (locked) sink; all other state stays frozen and
        share-safe.
    """

    def __init__(self, phi: np.ndarray, alpha: float,
                 iterations: int = 30, mode: str = "exact",
                 batch_size: int = 64,
                 validate: bool = True,
                 backend: str | TokenLoopBackend = "auto",
                 recorder: Recorder | None = None) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {iterations}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}")
        # Telemetry sink (NULL_RECORDER by default); mutable on purpose
        # so worker processes can neutralize an inherited recorder.
        # Assigned before table construction: lazy shard-table builds
        # read it through their owner reference.
        self.recorder = ensure_recorder(recorder)
        sharded = _as_sharded(phi)
        if sharded is None:
            phi = validate_phi(phi, stacklevel=3) if validate \
                else np.asarray(phi, dtype=np.float64)
            num_topics, vocab_size = phi.shape
        elif sharded.num_shards == 1:
            vocab_size, num_topics = sharded.shape
            if validate:
                # The one block is mapped for serving anyway, so check
                # every row; raise rather than renormalize into a
                # private copy that re-mapping workers would not share.
                block = sharded.block(0)
                if np.any(block < 0):
                    raise ValueError("phi has negative entries")
                if not np.allclose(block.sum(axis=0), 1.0, rtol=0.0,
                                   atol=PHI_SUM_ATOL):
                    raise ValueError(
                        f"phi rows must sum to 1 within {PHI_SUM_ATOL:g}; "
                        f"a mapped phi is never renormalized")
        else:
            # Row-stochasticity checks would map every shard, defeating
            # the lazy view; the shard map itself was validated at load
            # (contiguous coverage) and the manifest's per-shard masses
            # give a whole-matrix stochasticity check for free.
            vocab_size, num_topics = sharded.shape
            if validate:
                masses = sharded.shard_masses
                if masses is not None and not np.isclose(
                        sum(masses), num_topics, rtol=0.0,
                        atol=PHI_RENORM_ATOL * num_topics):
                    raise ValueError(
                        f"sharded phi mass {sum(masses):.6g} is not the "
                        f"topic count {num_topics}; the artifact's phi "
                        f"rows cannot all sum to 1")
        self.alpha = float(alpha)
        self.iterations = int(iterations)
        self.mode = mode
        self.batch_size = int(batch_size)
        self.num_topics = int(num_topics)
        self.vocab_size = int(vocab_size)
        self._backend = resolve_backend(backend)
        self._sharded = sharded
        self._sparse_tables: _ShardedFoldInTables | None = None
        if sharded is not None and sharded.num_shards == 1:
            # One shard is the whole word-major matrix: serve the dense
            # fast path off its block so the per-token loop is
            # byte-for-byte the unsharded one (no per-word shard
            # lookups), while touch()/mapped-bytes accounting keep
            # working through the view.
            phi_by_word = sharded.block(0)
        elif sharded is not None:
            phi_by_word = sharded
        else:
            #: ``(V, T)`` layout for per-word row gathers.  When ``phi``
            #: is the transpose view of an already word-major array (a
            #: worker's spec array), this is that array itself — no
            #: copy.
            phi_by_word = np.ascontiguousarray(phi.T)
        self._phi_by_word = phi_by_word
        if mode != "sparse":
            self._prior_mass = None
            self._alias_accept = None
            self._alias_topic = None
        elif isinstance(phi_by_word, ShardedPhi):
            # Multi-shard sparse lane: per-shard tables, built on first
            # touch of each shard so cold start maps nothing and a
            # batch's table-build cost tracks its shard working set.
            self._sparse_tables = _ShardedFoldInTables(phi_by_word,
                                                       self.alpha,
                                                       owner=self)
            self._prior_mass = self._sparse_tables.prior_mass
            self._alias_accept = self._sparse_tables.alias_accept
            self._alias_topic = self._sparse_tables.alias_topic
        else:
            #: Static prior-bucket mass per word: ``alpha * sum_t phi``.
            self._prior_mass = self.alpha * phi_by_word.sum(axis=1)
            #: Per-word Walker alias tables over ``phi[:, w]`` — a
            #: prior-bucket hit costs one table lookup instead of a
            #: binary search over a per-word cumulative sum.  Built once
            #: per engine (O(V * T), same as the cumulative sums they
            #: replace) and frozen thereafter.
            self._alias_accept, self._alias_topic = \
                build_alias_rows(phi_by_word)
        #: The frozen-phi prior/doc split as a flat runtime kernel
        #: table — what any backend (and every worker process)
        #: actually samples from.
        self._table = FoldInTable(
            alpha=self.alpha, iterations=self.iterations,
            num_topics=self.num_topics, phi_by_word=self._phi_by_word,
            prior_mass=self._prior_mass,
            alias_accept=self._alias_accept,
            alias_topic=self._alias_topic)

    @property
    def backend_name(self) -> str:
        """The resolved token-loop backend executing this engine."""
        return self._backend.name

    @property
    def sharded(self) -> ShardedPhi | None:
        """The lazy sharded phi this engine serves from, if any."""
        return self._sharded

    def touch(self, word_ids: np.ndarray) -> tuple[int, ...]:
        """Prefetch the shards (and their sparse-lane tables) that
        ``word_ids`` touch; returns the touched shard indices.

        No-op (empty tuple) for unsharded engines.  :meth:`theta` calls
        this per batch, so a batch's phi working set is mapped in one
        pass rather than one page fault at a time mid-sampling; callers
        that know a request's vocabulary ahead of time can warm shards
        explicitly the same way.
        """
        if self._sharded is None:
            return ()
        shards = self._sharded.touch(word_ids)
        if self._sparse_tables is not None:
            self._sparse_tables.ensure(shards)
        return shards

    # ------------------------------------------------------------------
    def new_scratch(self) -> FoldInScratch:
        """A fresh mutable-state object for one caller of this engine."""
        return FoldInScratch(self.num_topics, sparse=self.mode == "sparse")

    def check_documents(self, documents: Sequence[np.ndarray]
                        ) -> list[np.ndarray]:
        """Coerce word-id documents to int64 and bounds-check them."""
        documents = [np.asarray(doc, dtype=np.int64) for doc in documents]
        for index, doc in enumerate(documents):
            if doc.ndim != 1:
                raise ValueError(
                    f"document {index} word ids must be 1-d, got shape "
                    f"{doc.shape}")
            if doc.size and (int(doc.min()) < 0
                             or int(doc.max()) >= self.vocab_size):
                raise ValueError(
                    f"document {index} references word ids outside the "
                    f"model vocabulary (size {self.vocab_size})")
        return documents

    # ------------------------------------------------------------------
    def theta(self, documents: Sequence[np.ndarray],
              rng: int | np.random.Generator | None = None,
              scratch: FoldInScratch | None = None) -> np.ndarray:
        """Fold-in ``theta`` rows, shape ``(len(documents), T)``.

        ``documents`` are word-id arrays over the model vocabulary.
        Empty documents get the uniform row ``1 / T`` without consuming
        any randomness (matching the legacy loop).  All documents share
        the single sequential ``rng`` stream (the legacy contract that
        ``heldout_gibbs_theta`` is seed-pinned to); worker-shardable
        per-document streams live in :mod:`repro.serving.parallel`.

        Each call uses its own :class:`FoldInScratch` unless one is
        passed, so one engine can serve concurrent callers.
        """
        rng = ensure_rng(rng)
        documents = self.check_documents(documents)
        if scratch is None:
            scratch = self.new_scratch()
        recorder = self.recorder
        theta = np.empty((len(documents), self.num_topics))
        for start in range(0, len(documents), self.batch_size):
            batch = documents[start:start + self.batch_size]
            if recorder is NULL_RECORDER:
                self._theta_batch(batch, theta, start, rng, scratch)
                continue
            # Instrumentation is per batch (a handful of recorder calls
            # per `batch_size` documents), never per token — the <= 5%
            # overhead gate in benchmarks/test_bench_telemetry_overhead
            # rides on this granularity.
            with recorder.span("serving.foldin.batch_seconds",
                               mode=self.mode):
                shards = self._theta_batch(batch, theta, start, rng,
                                           scratch)
            recorder.count("serving.foldin.documents", len(batch))
            recorder.count("serving.foldin.tokens",
                           int(sum(doc.shape[0] for doc in batch)))
            if shards:
                recorder.count("serving.foldin.shard_touches",
                               len(shards))
            if self._sharded is not None:
                recorder.gauge("serving.foldin.mapped_bytes",
                               self._sharded.mapped_bytes)
        return theta

    def _theta_batch(self, batch: Sequence[np.ndarray],
                     out: np.ndarray, start: int,
                     rng: np.random.Generator,
                     scratch: FoldInScratch) -> tuple[int, ...]:
        """Fold one batch into ``out[start:start + len(batch)]``;
        returns the shard indices the batch touched (empty when
        unsharded)."""
        shards: tuple[int, ...] = ()
        if self._sharded is not None and self._sharded.num_shards > 1:
            # Map exactly this batch's shard working set up front
            # (and build its sparse tables), instead of faulting
            # shards in token by token mid-sampling.  Single-shard
            # engines already run the dense fast path; scanning
            # every batch's word ids would be pure overhead there.
            occupied = [doc for doc in batch if doc.shape[0]]
            if occupied:
                shards = self.touch(np.concatenate(occupied))
        for offset, doc in enumerate(batch):
            out[start + offset] = self._fold_one(doc, rng, scratch)
        return shards

    def theta_document(self, word_ids: np.ndarray,
                       rng: int | np.random.Generator | None,
                       scratch: FoldInScratch | None = None) -> np.ndarray:
        """Fold in one document on its own RNG stream; returns its
        ``theta`` row.

        The per-document entry point of worker-sharded serving
        (:mod:`repro.serving.parallel`): each document arrives with a
        stream derived from its index, so results do not depend on how
        documents are grouped over workers or batches.
        """
        rng = ensure_rng(rng)
        (word_ids,) = self.check_documents([word_ids])
        if scratch is None:
            scratch = self.new_scratch()
        return self._fold_one(word_ids, rng, scratch)

    def theta_documents(self, documents: Sequence[np.ndarray],
                        rngs: Sequence[np.random.Generator],
                        scratch: FoldInScratch | None = None
                        ) -> np.ndarray:
        """Fold in documents already passed through
        :meth:`check_documents`, document ``i`` on its own stream
        ``rngs[i]``; returns ``(len(documents), T)`` theta rows.

        Row ``i`` is bit-identical to ``theta_document(documents[i],
        rngs[i])``.  Documents are folded in groups of at most
        :attr:`batch_size`; on the sparse lane, a group of at least
        :data:`BATCH_LANE_MIN_DOCS` documents goes to the backend's
        document-batched lane when it has one, anything smaller to the
        per-document lane.
        """
        count = len(documents)
        theta = np.empty((count, self.num_topics))
        batched = self.mode == "sparse" and self._backend.foldin_batched
        # Even groups: 70 documents at batch_size 64 fold as 35 + 35,
        # not as 64 + a 6-document tail below the crossover.
        groups = max(1, -(-count // self.batch_size))
        size = max(1, -(-count // groups))
        for start in range(0, count, size):
            stop = start + size
            group = documents[start:stop]
            if batched and len(group) >= BATCH_LANE_MIN_DOCS:
                theta[start:stop] = self._backend.foldin_sparse_batch(
                    self._table, group, rngs[start:stop])
                continue
            if scratch is None:
                scratch = self.new_scratch()
            for offset, doc in enumerate(group):
                theta[start + offset] = self._fold_one(
                    doc, rngs[start + offset], scratch)
        return theta

    # ------------------------------------------------------------------
    def _fold_one(self, word_ids: np.ndarray, rng: np.random.Generator,
                  scratch: FoldInScratch) -> np.ndarray:
        """One validated document on the engine's per-document lane,
        executed by the runtime backend.

        The exact lane matches the original ``heldout_gibbs_theta``
        loop bit-for-bit on the python backend (and the numba
        backend's sequential cumsum preserves that — see
        :mod:`repro.sampling.runtime_numba`); see
        :meth:`repro.sampling.runtime.PythonBackend.foldin_sparse` for
        the sparse lane's prior/document bucket split.  Empty documents
        get the uniform row without consuming randomness.
        """
        if word_ids.shape[0] == 0:
            return np.full(self.num_topics, 1.0 / self.num_topics)
        if self.mode == "exact":
            scratch.ensure_gather(word_ids.shape[0])
            return self._backend.foldin_exact(self._table, word_ids, rng,
                                              scratch)
        return self._backend.foldin_sparse(self._table, word_ids, rng,
                                           scratch)
