"""The unified sampling runtime: one pluggable token-loop core.

Every sampler in this library bottoms out in the same shape of work —
walk tokens, update counts, turn a handful of cached arrays into a
categorical draw.  Before this module that loop existed three times
(the fast training engine, the sparse bucketed engine and the serving
fold-in), each as Python code closed over kernel objects.  This module
inverts that: kernels compile their hot-path caches into flat numpy
**kernel tables** (struct-of-arrays: bucket masses, lambda-cache rows
``nw * C + D``, alias tables, document/word bucket indices), and a
:class:`TokenLoopBackend` executes the token loop over those tables.
The decomposition is *data*; the loop is a *backend*.

Two backends ship:

``"python"``
    The reference backend — the interpreted loops this module absorbed
    from :mod:`repro.sampling.fast_engine`,
    :mod:`repro.sampling.sparse_engine` and
    :mod:`repro.serving.foldin`, draw-for-draw identical to them (the
    existing exactness suites are the oracle).  Always available.
``"numba"``
    An optional compiled backend (:mod:`repro.sampling.runtime_numba`)
    that auto-registers when :mod:`numba` imports and is silently
    absent otherwise.  Its LDA/EDA dense lanes and both fold-in lanes
    preserve the python backend's summation order and are
    draw-identical; lanes whose speedup *is* a reassociation (the
    Source-LDA lambda refresh) are statistically equivalent — the same
    contract PR 2 established for the sparse engine.

``resolve_backend("auto")`` picks the compiled backend when present and
falls back to python otherwise, so ``backend="auto"`` (the default
everywhere) degrades cleanly on machines without numba.

Lanes a backend does not implement fall through to the python backend
per-lane: a kernel without a table (third-party
:class:`~repro.sampling.fast_engine.FastKernelPath` subclasses, the CTM
mask kernel) or a non-serial scan strategy always samples on the
interpreted loop, whatever backend was requested.

The RNG contract is unchanged from the engines this module absorbed:
a fixed number of uniforms per token — one for the dense/sparse/fold-in
lanes, four for the alias/MH lane (word proposal, word coin, doc
proposal, doc coin) — pre-drawn in chunks through ``rng.random(n)``
(NumPy consumes the bit stream identically whether asked ``n`` times or
once with size ``n``), so backends can be swapped without shifting a
shared random stream — the same property the alias-table split trick
relies on.

The fold-in sparse lane also has a document-batched form on the python
backend (:meth:`PythonBackend.foldin_sparse_batch`): token position
``p`` of every document in a micro-batch is sampled in one numpy pass,
bit-identical row for row to the per-document lane.

The alias/MH training lane (:class:`AliasMHTable`,
:func:`run_alias_mh_chunk`) is the amortized-O(1) counterpart of the
sparse bucket walk: stale proposal tables plus Metropolis-Hastings
correction against the exact conditional, per AliasLDA (Li et al., KDD
2014) and LightLDA (Yuan et al., WWW 2015).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from repro.sampling.alias import (alias_draw, alias_draw_many,
                                  build_alias_table)
from repro.sampling.scans import last_positive_index

#: Segment size (as a shift) of the source lanes' two-level floor walk:
#: a floor draw scans 2**BLOCK_SHIFT block sums plus one segment
#: instead of all S source topics.
BLOCK_SHIFT = 6
BLOCK_SIZE = 1 << BLOCK_SHIFT


# ----------------------------------------------------------------------
# Bucket membership structures (shared by the sparse lanes).

class TopicSet:
    """Nonzero-topic ids of one count row restricted to ``[lo, hi)``.

    O(1) add/discard via swap-remove, and a zero-copy array view for
    vectorized gathers.  Entry order is arbitrary — each draw computes
    bucket masses and cumulative sums from the same snapshot of the
    array, so any fixed order partitions the mass consistently.
    """

    __slots__ = ("_lo", "_hi", "_buf", "_pos", "_n")

    def __init__(self, lo: int, hi: int) -> None:
        self._lo = lo
        self._hi = hi
        self._buf = np.empty(max(hi - lo, 1), dtype=np.int64)
        self._pos: dict[int, int] = {}
        self._n = 0

    def begin(self, row: np.ndarray) -> None:
        """Rebuild from a full count row (absolute topic indices)."""
        nonzero = np.flatnonzero(row[self._lo:self._hi])
        n = nonzero.shape[0]
        if n:
            np.add(nonzero, self._lo, out=self._buf[:n])
        self._n = n
        self._pos = {int(t): i for i, t in enumerate(self._buf[:n])}

    def add(self, topic: int) -> None:
        pos = self._pos
        if topic in pos:
            return
        i = self._n
        self._buf[i] = topic
        pos[topic] = i
        self._n = i + 1

    def discard(self, topic: int) -> None:
        pos = self._pos
        i = pos.pop(topic, None)
        if i is None:
            return
        n = self._n - 1
        if i != n:
            last = int(self._buf[n])
            self._buf[i] = last
            pos[last] = i
        self._n = n

    def array(self) -> np.ndarray:
        """View of the current member topics (absolute indices)."""
        return self._buf[:self._n]


class WordTopicLists:
    """Per-word lists of topics with ``nw[w, t] > 0``.

    Built from the flat token/assignment arrays in O(N + V) — not from
    a dense ``nw`` scan, which would cost O(V * T) per sweep — and then
    maintained exactly (add on the 0 -> 1 transition, remove on 1 -> 0),
    so the lists never hold stale zeros or duplicates.  Word columns are
    short in realistic corpora, which keeps the per-token word-bucket
    walk O(nnz).
    """

    __slots__ = ("lists",)

    def __init__(self, words: np.ndarray, z: np.ndarray,
                 vocab_size: int) -> None:
        sets: list[set[int]] = [set() for _ in range(vocab_size)]
        for word, topic in zip(words.tolist(), z.tolist()):
            sets[word].add(topic)
        # Sorted for a canonical walk order: draws must be reproducible
        # functions of the seed, not of set iteration order.
        self.lists: list[list[int]] = [sorted(s) for s in sets]

    def add(self, word: int, topic: int) -> None:
        self.lists[word].append(topic)

    def remove(self, word: int, topic: int) -> None:
        self.lists[word].remove(topic)


# ----------------------------------------------------------------------
# Kernel tables: flat struct-of-arrays descriptions of a kernel's hot
# path.  Array fields alias the owning path's caches — the path's
# ``begin_sweep`` refreshes them in place, and the backend loop applies
# the same per-token updates the path's ``topic_changed`` would.

@dataclass(eq=False)
class LdaDenseTable:
    """Equation 2 for all-symmetric topics: ``(nw + b) / (nt + V b)``."""

    kind: ClassVar[str] = "lda"

    alpha: float
    beta: float
    beta_sum: float
    nt_beta: np.ndarray          # (T,) live `nt + V * beta` cache
    out: np.ndarray              # (T,) weight buffer


@dataclass(eq=False)
class EdaDenseTable:
    """Fixed-phi weights: ``phi_by_word[w] * (nd + alpha)``."""

    kind: ClassVar[str] = "eda"

    alpha: float
    phi_by_word: np.ndarray      # (V, T) frozen
    out: np.ndarray              # (T,) weight buffer


@dataclass(eq=False)
class SourceDenseTable:
    """The ``nw * C + D`` lambda-integration caches of Equation 3.

    ``E`` is the augmented integral cache (row 0 = ``C``, row ``u + 1``
    = the unique-value integral ``E[u, t]``); ``flat`` holds per-word
    flattened gather indices so a token's ``D`` row is one ``take``;
    ``aug``/``omega``/``sum_delta`` are the refresh operands applied
    when a topic's ``nt`` changes.
    """

    kind: ClassVar[str] = "source"

    alpha: float
    beta: float
    beta_sum: float
    num_free: int
    omega: np.ndarray            # (A,) quadrature weights
    sum_delta: np.ndarray        # (S, A)
    aug: np.ndarray              # (S, U + 1, A) augmented power tables
    E: np.ndarray                # (U + 1, S) live integral cache
    E_flat: np.ndarray           # E.reshape(-1)
    C: np.ndarray                # E[0] view
    flat: np.ndarray             # (V, S) gather indices into E_flat
    inverse_plus: np.ndarray     # (V, S) unique-value rows of E (+1
                                 # for the unit row): D[w, s] =
                                 # E[inverse_plus[w, s], s]
    nt_free: np.ndarray          # (K,) live `nt + V * beta` cache
    dbuf: np.ndarray             # (S,) D-row gather buffer
    ratio_buf: np.ndarray        # (A,) refresh scratch
    column_buf: np.ndarray       # (U + 1,) refresh scratch
    out: np.ndarray              # (T,) weight buffer


@dataclass(eq=False)
class SourceBijectiveTable:
    """The bijective (``K == 0``) sparse lane's bucket structure.

    The ``s + r + q`` partition as data: the word bucket walks
    ``word_lists``, the document bucket reweights the document's token
    slice (``doc_z`` cursor machinery), the prior bucket splits into the
    epsilon-floor vector ``E1`` plus the CSR correction entries
    (``corr_ptr``/``corr_flat``/``corr_topics``) over article
    vocabularies, with a two-level block walk for the rare floor draw.
    The trailing cursor fields carry per-document position across chunk
    boundaries; ``begin_sweep`` on the owning path resets them.
    """

    kind: ClassVar[str] = "source_bijective"

    alpha: float
    num_source: int
    # Live lambda-integration caches (shared with the dense table).
    E: np.ndarray
    E_flat: np.ndarray
    E1: np.ndarray               # E[1] view: the epsilon-floor row
    C: np.ndarray
    aug: np.ndarray
    omega: np.ndarray
    sum_delta: np.ndarray
    flat: np.ndarray
    ratio_buf: np.ndarray
    column_buf: np.ndarray
    # Correction CSR (by word) over the article vocabularies.
    corr_ptr: list
    corr_flat: np.ndarray
    corr_topics: np.ndarray
    corr_buf: np.ndarray
    corr_cum_buf: np.ndarray
    # Two-level floor walk.
    block_starts: np.ndarray
    blocks: np.ndarray
    # Document token-slice machinery.
    doc_starts: list
    doc_lengths: list
    doc_z: np.ndarray
    token_idx: np.ndarray
    token_d: np.ndarray
    token_cum: np.ndarray
    # Per-sweep structures (rebound by the owning path's begin_sweep).
    word_lists: list | None = None
    # Document cursor (persists across chunk calls within a sweep).
    current_doc: int = -1
    position: int = 0
    doc_len: int = 0
    nd_row: np.ndarray | None = None
    # Compiled-backend scratch (lazily populated by runtime_numba).
    compiled: object = None


@dataclass(eq=False)
class FoldInTable:
    """Frozen-phi fold-in data: the prior/document split as arrays.

    ``prior_mass``/``alias_accept``/``alias_topic`` are ``None`` on the
    exact lane (which cumulative-sums the dense weight instead).

    The array fields are duck-typed: backends only require per-word row
    access (``table.phi_by_word[word]``, ``prior_mass[word]``, …) and a
    ``take(word_ids, axis=0)`` gather.  Column-sharded serving
    (:mod:`repro.serving.sharding`) exploits this by installing lazy
    views that map and build per-shard tables on first touch; compiled
    backends detect a non-``ndarray`` field and densify per document
    before entering the kernel.
    """

    kind: ClassVar[str] = "foldin"

    alpha: float
    iterations: int
    num_topics: int
    phi_by_word: np.ndarray               # (V, T) frozen, maybe lazy
    prior_mass: np.ndarray | None = None  # (V,) alpha * sum_t phi
    alias_accept: np.ndarray | None = None
    alias_topic: np.ndarray | None = None


@dataclass(eq=False)
class AliasMHTable:
    """Stale-proposal Metropolis-Hastings structure of the alias engine.

    The alias/MH lane (AliasLDA, Li et al. KDD 2014; LightLDA, Yuan et
    al. WWW 2015) replaces the per-token bucket walk with two
    Metropolis-Hastings sub-steps against *stale* proposal
    distributions, each O(1) amortized:

    * the **word proposal** is an additive mixture of two independently
      refreshed frozen components over the word-dependent weight factor
      — a per-word sparse component (stale nonzero word-topic weights,
      rebuilt every :attr:`rebuild_every` draws of that word) plus a
      shared dense component (the smoothing/epsilon-floor factor,
      snapshotted per sweep into a Walker alias table).  Because every
      component stores its own frozen weights and mass, the proposal
      density ``q(t)`` is *exactly* evaluable no matter how stale any
      component is — rebuild cadence affects acceptance rate, never
      correctness;
    * the **doc proposal** reuses LightLDA's token-slice trick: one
      uniform either picks a random *other* token of the document (a
      draw proportional to the live decremented ``nd`` row) or a
      uniform topic (the ``alpha`` smoothing arm), so it is never stale
      and needs no per-document tables.

    Acceptance tests use the exact conditional from the live counts,
    and both proposals are constructed to be independent of the topic
    being resampled (word components rebuild only after the token's
    decrement; the doc slice skips the token's own slot), so one
    alias/MH transition leaves the same per-token conditional invariant
    that the other engines sample directly (pinned by the chi-squared
    invariance test in ``tests/test_alias_engine.py``).

    Three modes share the structure: ``"lda"`` (live factor
    ``(nw + b) / (nt + V b)``), ``"eda"`` (frozen phi — the per-word
    proposal is a static stacked Walker table, never stale) and
    ``"source_bijective"`` (live factor ``nw * C + D`` through the
    shared lambda caches, sparse component over the word's nonzero
    counts plus article-correction support, dense component over the
    stale epsilon floor ``E1``).

    The python lane keeps the per-word components as plain lists
    (bisect beats numpy scalar calls at these sizes); the compiled
    backend lazily mirrors them into flat arrays on
    :attr:`compiled`.  ``mh_counts`` accumulates ``[proposals,
    accepts]`` across sweeps for acceptance-rate reporting.
    """

    kind: ClassVar[str] = "alias_mh"

    mode: str                    # "lda" | "eda" | "source_bijective"
    alpha: float
    num_topics: int
    rebuild_every: int
    mh_counts: np.ndarray        # (2,) [proposals, accepts]
    # Document token-slice machinery (LightLDA doc proposal).
    doc_starts: list
    doc_lengths: list
    doc_z: np.ndarray
    # (1,) count of stale word-component rebuilds (array so compiled
    # lanes and in-place accumulation share one cell).
    rebuilds: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64))
    # Per-word stale sparse component (None in eda mode): stale support
    # topics (sorted), their frozen weights, the running cumsum used by
    # proposal draws, the component mass, and the per-word draw counter
    # driving the rebuild cadence.
    word_topics: list | None = None
    word_vals: list | None = None
    word_cum: list | None = None
    word_mass: list | None = None
    draws_since: list | None = None
    # Shared dense stale component (None in eda mode): frozen weights,
    # mass and the Walker alias table built over them per sweep.
    dense_vals: list | None = None
    dense_accept: list | None = None
    dense_alias: list | None = None
    dense_mass: float = 0.0
    # lda-mode live-conditional operands.
    beta: float = 0.0
    beta_sum: float = 0.0
    # eda-mode static proposal tables (phi never goes stale).
    phi_by_word: np.ndarray | None = None
    eda_accept: np.ndarray | None = None
    eda_alias: np.ndarray | None = None
    eda_validated: bool = False
    # source_bijective-mode live lambda caches (shared with the fast
    # path; refreshed per topic change exactly like the other lanes).
    E: np.ndarray | None = None
    E_flat: np.ndarray | None = None
    E1: np.ndarray | None = None
    C: np.ndarray | None = None
    aug: np.ndarray | None = None
    omega: np.ndarray | None = None
    sum_delta: np.ndarray | None = None
    flat: np.ndarray | None = None
    ratio_buf: np.ndarray | None = None
    column_buf: np.ndarray | None = None
    corr_ptr: list | None = None
    corr_flat: np.ndarray | None = None
    corr_topics: np.ndarray | None = None
    # Document cursor (persists across chunk calls within a sweep).
    current_doc: int = -1
    position: int = 0
    doc_len: int = 0
    nd_row: np.ndarray | None = None
    # Compiled-backend scratch (lazily populated by runtime_numba).
    compiled: object = None


# ----------------------------------------------------------------------
# Backend protocol and registry.

class TokenLoopBackend(ABC):
    """Executes token loops over kernel tables.

    One backend instance is stateless and shared; all mutable sampling
    state lives in the engines' states, the kernel tables' live caches
    and the callers' scratch objects.  ``sweep_dense``/``sweep_sparse``
    receive the whole sweep engine (state, kernel path, table, rng,
    scan, chunk size); the fold-in entry points receive the frozen
    :class:`FoldInTable` plus one document and its caller's scratch.
    """

    #: Registry key; subclasses override.
    name: str = ""

    @abstractmethod
    def sweep_dense(self, engine) -> None:
        """One full dense sweep for a
        :class:`~repro.sampling.fast_engine.FastSweepEngine`."""

    @abstractmethod
    def sweep_sparse(self, engine) -> None:
        """One full bucketed sweep for a
        :class:`~repro.sampling.sparse_engine.SparseSweepEngine` whose
        kernel has a sparse path."""

    @abstractmethod
    def sweep_alias(self, engine) -> None:
        """One full alias/MH sweep for an
        :class:`~repro.sampling.alias_engine.AliasSweepEngine` whose
        kernel has an alias path."""

    @abstractmethod
    def foldin_exact(self, table: FoldInTable, word_ids: np.ndarray,
                     rng: np.random.Generator, scratch) -> np.ndarray:
        """Fold one document in on the dense (legacy-pinned) lane."""

    @abstractmethod
    def foldin_sparse(self, table: FoldInTable, word_ids: np.ndarray,
                      rng: np.random.Generator, scratch) -> np.ndarray:
        """Fold one document in on the bucketed prior/document lane."""

    #: Whether :meth:`foldin_sparse_batch` is this backend's faster way
    #: to fold a micro-batch; engines fold per document otherwise.
    foldin_batched: ClassVar[bool] = False

    def foldin_sparse_batch(self, table: FoldInTable,
                            documents: Sequence[np.ndarray],
                            rngs: Sequence[np.random.Generator]
                            ) -> np.ndarray:
        """Fold validated documents in on the bucketed lane, row ``i``
        bit-identical to :meth:`foldin_sparse` on ``documents[i]`` with
        ``rngs[i]``."""
        raise NotImplementedError(
            f"the {self.name!r} backend has no document-batched fold-in "
            f"lane")


_REGISTRY: dict[str, TokenLoopBackend] = {}


def register_backend(backend: TokenLoopBackend) -> None:
    """Make ``backend`` selectable by its ``name``.

    Registering a name twice replaces the previous backend — that is
    how a freshly importable compiled backend would shadow a stub.
    """
    if not backend.name:
        raise ValueError("backend must carry a non-empty name")
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this process, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(backend: str | TokenLoopBackend = "auto"
                    ) -> TokenLoopBackend:
    """The backend object for a ``backend=`` argument.

    ``"auto"`` prefers the compiled backend when its import succeeded
    and falls back to ``"python"`` otherwise; explicit names must be
    registered — asking for ``"numba"`` on a machine without numba is
    an error (silently sampling interpreted when the caller demanded
    compiled would misreport every benchmark downstream).  Backend
    instances pass through, so engines can hand each other resolved
    backends without a name round-trip.
    """
    if isinstance(backend, TokenLoopBackend):
        return backend
    if backend == "auto":
        preferred = _REGISTRY.get("numba")
        return preferred if preferred is not None else _REGISTRY["python"]
    try:
        return _REGISTRY[backend]
    except KeyError:
        hint = ("; the numba backend registers only when numba is "
                "importable" if backend == "numba" else "")
        raise ValueError(
            f"backend must be 'auto' or one of {available_backends()}, "
            f"got {backend!r}{hint}") from None


# ----------------------------------------------------------------------
# The reference backend: the interpreted token loops, verbatim from the
# engines they were extracted from (the exactness suites pin this).

class PythonBackend(TokenLoopBackend):
    """The always-available interpreted backend.

    Token streams are chunked into plain Python lists (list indexing
    plus native-int array subscripts beat NumPy scalar extraction in a
    per-token loop, and chunking bounds the boxed-object footprint at
    large corpora).  Each token reads only its own ``z`` entry, so the
    per-chunk batched write-back is equivalent to per-token stores; the
    ``finally`` keeps ``z`` synced with the counts if a kernel raises
    mid-chunk (matching the reference engine's failure state of a
    single decremented-but-unassigned token).
    """

    name = "python"
    foldin_batched = True

    # ------------------------------------------------------------ dense
    def sweep_dense(self, engine) -> None:
        path = engine._path
        if path is None:
            self._sweep_dense_generic(engine)
            return
        path.begin_sweep()
        table = engine._table
        if table is None:
            self._sweep_dense_object(engine, path)
        elif table.kind == "lda":
            self._sweep_dense_lda(engine, table)
        elif table.kind == "eda":
            self._sweep_dense_eda(engine, table)
        elif table.kind == "source":
            self._sweep_dense_source(engine, table)
        else:  # pragma: no cover - future table kinds
            self._sweep_dense_object(engine, path)

    def _chunks(self, engine):
        """Token chunks as (start, words, doc_ids, old_topics, uniforms)
        plain-list tuples; consecutive ``rng.random(c)`` batches
        concatenate to the same stream as one ``rng.random(N)``."""
        state = engine.state
        z = state.z
        rng_random = engine.rng.random
        chunk = engine.chunk_size
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            yield (start,
                   state.words[start:stop].tolist(),
                   state.doc_ids[start:stop].tolist(),
                   z[start:stop].tolist(),
                   rng_random(stop - start).tolist())

    def _sweep_dense_lda(self, engine, table: LdaDenseTable) -> None:
        state = engine.state
        z = state.z
        nw = state.nw
        nt = state.nt
        nd = state.nd
        alpha = table.alpha
        beta = table.beta
        beta_sum = table.beta_sum
        nt_beta = table.nt_beta
        out = table.out
        scan = engine.scan
        inline_serial = engine._inline_serial
        cumulative = np.empty(state.num_topics)
        inf = np.inf
        num_topics = state.num_topics
        float64 = np.float64
        np_add = np.add

        current_doc = -1
        doc_row = None
        for start, words, doc_ids, old_topics, uniforms in \
                self._chunks(engine):
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                for word, doc, old, u in zip(words, doc_ids, old_topics,
                                             uniforms):
                    nw[word, old] -= 1.0
                    nt[old] -= 1.0
                    nd[doc, old] -= 1.0
                    if doc != current_doc:
                        doc_row = nd[doc] + alpha
                        current_doc = doc
                    else:
                        doc_row[old] = nd[doc, old] + alpha
                    nt_beta[old] = nt[old] + beta_sum
                    np_add(nw[word], beta, out=out)
                    out /= nt_beta
                    out *= doc_row
                    if inline_serial:
                        out.cumsum(dtype=float64, out=cumulative)
                    else:
                        cumulative = scan.inclusive_scan(
                            np.asarray(out, dtype=float64))
                    total = cumulative[-1]
                    if not (0.0 < total < inf):
                        raise ValueError(
                            f"topic weights must have positive finite "
                            f"mass, got total={total!r}")
                    new = int(cumulative.searchsorted(u * total,
                                                      side="right"))
                    if new == num_topics:
                        new = last_positive_index(cumulative)
                    append_new(new)
                    nw[word, new] += 1.0
                    nt[new] += 1.0
                    nd[doc, new] += 1.0
                    doc_row[new] = nd[doc, new] + alpha
                    nt_beta[new] = nt[new] + beta_sum
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    def _sweep_dense_eda(self, engine, table: EdaDenseTable) -> None:
        state = engine.state
        z = state.z
        nw = state.nw
        nt = state.nt
        nd = state.nd
        alpha = table.alpha
        phi_by_word = table.phi_by_word
        out = table.out
        scan = engine.scan
        inline_serial = engine._inline_serial
        cumulative = np.empty(state.num_topics)
        inf = np.inf
        num_topics = state.num_topics
        float64 = np.float64
        np_multiply = np.multiply

        current_doc = -1
        doc_row = None
        for start, words, doc_ids, old_topics, uniforms in \
                self._chunks(engine):
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                for word, doc, old, u in zip(words, doc_ids, old_topics,
                                             uniforms):
                    nw[word, old] -= 1.0
                    nt[old] -= 1.0
                    nd[doc, old] -= 1.0
                    if doc != current_doc:
                        doc_row = nd[doc] + alpha
                        current_doc = doc
                    else:
                        doc_row[old] = nd[doc, old] + alpha
                    np_multiply(phi_by_word[word], doc_row, out=out)
                    if inline_serial:
                        out.cumsum(dtype=float64, out=cumulative)
                    else:
                        cumulative = scan.inclusive_scan(
                            np.asarray(out, dtype=float64))
                    total = cumulative[-1]
                    if not (0.0 < total < inf):
                        raise ValueError(
                            f"topic weights must have positive finite "
                            f"mass, got total={total!r}")
                    new = int(cumulative.searchsorted(u * total,
                                                      side="right"))
                    if new == num_topics:
                        new = last_positive_index(cumulative)
                    append_new(new)
                    nw[word, new] += 1.0
                    nt[new] += 1.0
                    nd[doc, new] += 1.0
                    doc_row[new] = nd[doc, new] + alpha
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    def _sweep_dense_source(self, engine,
                            table: SourceDenseTable) -> None:
        state = engine.state
        z = state.z
        nw = state.nw
        nt = state.nt
        nd = state.nd
        alpha = table.alpha
        beta = table.beta
        beta_sum = table.beta_sum
        k = table.num_free
        omega = table.omega
        sum_delta = table.sum_delta
        aug = table.aug
        e_matrix = table.E
        e_flat = table.E_flat
        c_per_topic = table.C
        flat = table.flat
        nt_free = table.nt_free
        dbuf = table.dbuf
        ratio = table.ratio_buf
        column = table.column_buf
        out = table.out
        scan = engine.scan
        inline_serial = engine._inline_serial
        cumulative = np.empty(state.num_topics)
        inf = np.inf
        num_topics = state.num_topics
        float64 = np.float64
        np_add = np.add
        np_divide = np.divide
        np_matmul = np.matmul
        np_multiply = np.multiply

        current_doc = -1
        doc_row = None
        for start, words, doc_ids, old_topics, uniforms in \
                self._chunks(engine):
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                for word, doc, old, u in zip(words, doc_ids, old_topics,
                                             uniforms):
                    nw[word, old] -= 1.0
                    nt[old] -= 1.0
                    nd[doc, old] -= 1.0
                    if doc != current_doc:
                        doc_row = nd[doc] + alpha
                        current_doc = doc
                    else:
                        doc_row[old] = nd[doc, old] + alpha
                    # topic_changed(old): refresh the E column (or the
                    # free denominator) keyed on the changed nt.
                    if old < k:
                        nt_free[old] = nt[old] + beta_sum
                    else:
                        t = old - k
                        np_add(nt[old], sum_delta[t], out=ratio)
                        np_divide(omega, ratio, out=ratio)
                        np_matmul(aug[t], ratio, out=column)
                        e_matrix[:, t] = column
                    e_flat.take(flat[word], out=dbuf)
                    if k:
                        np_divide(nw[word, :k] + beta, nt_free,
                                  out=out[:k])
                        np_multiply(nw[word, k:], c_per_topic,
                                    out=out[k:])
                        out[k:] += dbuf
                    else:
                        np_multiply(nw[word], c_per_topic, out=out)
                        out += dbuf
                    out *= doc_row
                    if inline_serial:
                        out.cumsum(dtype=float64, out=cumulative)
                    else:
                        cumulative = scan.inclusive_scan(
                            np.asarray(out, dtype=float64))
                    total = cumulative[-1]
                    if not (0.0 < total < inf):
                        raise ValueError(
                            f"topic weights must have positive finite "
                            f"mass, got total={total!r}")
                    new = int(cumulative.searchsorted(u * total,
                                                      side="right"))
                    if new == num_topics:
                        new = last_positive_index(cumulative)
                    append_new(new)
                    nw[word, new] += 1.0
                    nt[new] += 1.0
                    nd[doc, new] += 1.0
                    doc_row[new] = nd[doc, new] + alpha
                    if new < k:
                        nt_free[new] = nt[new] + beta_sum
                    else:
                        t = new - k
                        np_add(nt[new], sum_delta[t], out=ratio)
                        np_divide(omega, ratio, out=ratio)
                        np_matmul(aug[t], ratio, out=column)
                        e_matrix[:, t] = column
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    def _sweep_dense_object(self, engine, path) -> None:
        """The object lane: kernels whose path exports no table (CTM,
        third-party paths) drive ``path.weights``/``topic_changed`` per
        token, exactly as the pre-runtime fast engine did."""
        state = engine.state
        z = state.z
        nw = state.nw
        nt = state.nt
        nd = state.nd
        alpha = path.alpha
        scan = engine.scan
        inline_serial = engine._inline_serial
        cumulative = np.empty(state.num_topics)
        inf = np.inf
        path_weights = path.weights
        topic_changed = path.topic_changed
        num_topics = state.num_topics
        float64 = np.float64

        current_doc = -1
        doc_row = None
        for start, words, doc_ids, old_topics, uniforms in \
                self._chunks(engine):
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                for word, doc, old, u in zip(words, doc_ids, old_topics,
                                             uniforms):
                    nw[word, old] -= 1.0
                    nt[old] -= 1.0
                    nd[doc, old] -= 1.0
                    if doc != current_doc:
                        doc_row = nd[doc] + alpha
                        current_doc = doc
                    else:
                        doc_row[old] = nd[doc, old] + alpha
                    topic_changed(old)
                    w = path_weights(word, doc_row)
                    if inline_serial:
                        w.cumsum(dtype=float64, out=cumulative)
                    else:
                        cumulative = scan.inclusive_scan(
                            np.asarray(w, dtype=float64))
                    total = cumulative[-1]
                    if not (0.0 < total < inf):
                        raise ValueError(
                            f"topic weights must have positive finite "
                            f"mass, got total={total!r}")
                    new = int(cumulative.searchsorted(u * total,
                                                      side="right"))
                    if new == num_topics:
                        new = last_positive_index(cumulative)
                    append_new(new)
                    nw[word, new] += 1.0
                    nt[new] += 1.0
                    nd[doc, new] += 1.0
                    doc_row[new] = nd[doc, new] + alpha
                    topic_changed(new)
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    def _sweep_dense_generic(self, engine) -> None:
        """Kernels with no fast path at all: per-token
        ``kernel.weights`` calls (which already include the document
        factor)."""
        state = engine.state
        kernel_weights = engine.kernel.weights
        z = state.z
        nw = state.nw
        nt = state.nt
        nd = state.nd
        scan = engine.scan
        inline_serial = engine._inline_serial
        cumsum = np.cumsum
        inf = np.inf
        num_topics = state.num_topics
        float64 = np.float64

        for start, words, doc_ids, old_topics, uniforms in \
                self._chunks(engine):
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                for word, doc, old, u in zip(words, doc_ids, old_topics,
                                             uniforms):
                    nw[word, old] -= 1.0
                    nt[old] -= 1.0
                    nd[doc, old] -= 1.0
                    w = kernel_weights(word, doc)
                    if inline_serial:
                        # dtype matches the reference scan's float64
                        # cast, so non-float64 kernel weights accumulate
                        # identically on both engines.
                        cumulative = cumsum(w, dtype=float64)
                    else:
                        cumulative = scan.inclusive_scan(
                            np.asarray(w, dtype=float64))
                    total = cumulative[-1]
                    if not (0.0 < total < inf):
                        raise ValueError(
                            f"topic weights must have positive finite "
                            f"mass, got total={total!r}")
                    new = int(cumulative.searchsorted(u * total,
                                                      side="right"))
                    if new == num_topics:
                        new = last_positive_index(cumulative)
                    append_new(new)
                    nw[word, new] += 1.0
                    nt[new] += 1.0
                    nd[doc, new] += 1.0
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    # ----------------------------------------------------------- sparse
    def sweep_sparse(self, engine) -> None:
        """Bucketed sweep: the table lane runs the single-frame chunk
        loop over a :class:`SourceBijectiveTable`; paths without a table
        (LDA/EDA buckets, the mixed-layout source lane) drive
        ``path.step`` per token through their own bucket walks."""
        state = engine.state
        path = engine._path
        z = state.z
        rng_random = engine.rng.random
        chunk = engine.chunk_size

        path.begin_sweep()
        table = path.sparse_table()
        step = path.step
        begin_document = path.begin_document
        current_doc = -1
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            words = state.words[start:stop].tolist()
            doc_ids = state.doc_ids[start:stop].tolist()
            old_topics = z[start:stop].tolist()
            uniforms = rng_random(stop - start).tolist()
            new_topics: list[int] = []
            append_new = new_topics.append
            try:
                if table is not None:
                    run_source_bijective_chunk(
                        state, table, words, doc_ids, old_topics,
                        uniforms, new_topics, path._inclusive_scan)
                else:
                    for word, doc, old, u in zip(words, doc_ids,
                                                 old_topics, uniforms):
                        if doc != current_doc:
                            begin_document(doc)
                            current_doc = doc
                        append_new(step(word, doc, old, u))
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    # ------------------------------------------------------------ alias
    def sweep_alias(self, engine) -> None:
        """Alias/MH sweep: the chunk loop over an :class:`AliasMHTable`.

        Each token consumes exactly **four** pre-drawn uniforms (word
        proposal, word MH coin, doc proposal, doc MH coin) — coins are
        consumed even on self-proposals and rebuilds consume no RNG, so
        the stream position after a sweep depends only on the token
        count, never on proposal outcomes or rebuild cadence.
        """
        state = engine.state
        path = engine._path
        z = state.z
        rng_random = engine.rng.random
        chunk = engine.chunk_size

        path.begin_sweep()
        table = path.alias_table()
        for start in range(0, state.num_tokens, chunk):
            stop = min(start + chunk, state.num_tokens)
            words = state.words[start:stop].tolist()
            doc_ids = state.doc_ids[start:stop].tolist()
            old_topics = z[start:stop].tolist()
            uniforms = rng_random(4 * (stop - start)).tolist()
            new_topics: list[int] = []
            try:
                run_alias_mh_chunk(state, table, words, doc_ids,
                                   old_topics, uniforms, new_topics)
            finally:
                if new_topics:
                    z[start:start + len(new_topics)] = new_topics

    # ---------------------------------------------------------- fold-in
    def foldin_exact(self, table: FoldInTable, word_ids: np.ndarray,
                     rng: np.random.Generator, scratch) -> np.ndarray:
        """The legacy dense fold-in sampler with hoisted buffers.

        Arithmetic, draw order and RNG consumption match the original
        ``heldout_gibbs_theta`` loop bit-for-bit: same initialization
        call, the same ``phi_w * (nd + alpha)`` product, the same
        float64 cumulative sum, and the same ``searchsorted`` +
        last-positive-topic boundary clamp as ``rng.categorical``'s
        reference draw.
        """
        length = int(word_ids.shape[0])
        num_topics = table.num_topics
        alpha = table.alpha
        iterations = table.iterations
        work = scratch.work
        cumulative = scratch.cumulative
        accumulated = scratch.accumulated
        word_probs = np.take(table.phi_by_word, word_ids, axis=0,
                             out=scratch.gather[:length])
        assignments = rng.integers(0, num_topics, size=length)
        doc_counts = np.bincount(assignments, minlength=num_topics) \
            .astype(np.float64)
        assignments = assignments.tolist()
        # Burn in the first half, but always accumulate at least the
        # final sweep (iterations == 1 would otherwise return the prior
        # mean).
        burn_in = min(max(1, iterations // 2), iterations - 1)
        accumulated.fill(0.0)
        samples = 0
        inf = np.inf
        rng_random = rng.random
        for iteration in range(iterations):
            uniforms = rng_random(length).tolist()
            for position in range(length):
                doc_counts[assignments[position]] -= 1.0
                np.add(doc_counts, alpha, out=work)
                np.multiply(word_probs[position], work, out=work)
                np.cumsum(work, out=cumulative)
                total = cumulative[-1]
                if not (0.0 < total < inf):
                    raise ValueError(
                        f"categorical weights must have positive finite "
                        f"mass, got total={total!r}")
                topic = int(cumulative.searchsorted(
                    uniforms[position] * total, side="right"))
                if topic >= num_topics:
                    # u * total rounded up to exactly total; land on the
                    # last positive-weight topic.
                    topic = last_positive_index(cumulative)
                assignments[position] = topic
                doc_counts[topic] += 1.0
            if iteration >= burn_in:
                accumulated += doc_counts
                samples += 1
        mean_counts = accumulated / max(samples, 1)
        return (mean_counts + alpha) / (length + num_topics * alpha)

    def foldin_sparse(self, table: FoldInTable, word_ids: np.ndarray,
                      rng: np.random.Generator, scratch) -> np.ndarray:
        """Bucketed fold-in draws: static per-word prior mass + O(nnz)
        document bucket, with O(1) alias-table prior hits.

        The fold-in weight ``phi_w[t] * (nd[t] + alpha)`` splits into

            alpha * phi_w[t]      [prior bucket, mass precomputed]
            phi_w[t] * nd[t]      [document bucket, nonzero nd only]

        A document touches at most ``Nd`` distinct topics, so the common
        draw walks ``O(nnz)`` entries; prior-bucket hits (mass ``alpha``
        out of ``Nd + T * alpha``) resolve through the per-word Walker
        alias table in O(1) — the residual uniform that landed the draw
        in the bucket is recycled as the alias draw, so RNG consumption
        stays one uniform per token.
        """
        length = int(word_ids.shape[0])
        num_topics = table.num_topics
        alpha = table.alpha
        iterations = table.iterations
        phi_by_word = table.phi_by_word
        prior_mass = table.prior_mass
        alias_accept = table.alias_accept
        alias_topic = table.alias_topic
        accumulated = scratch.accumulated
        assignments = rng.integers(0, num_topics, size=length)
        doc_counts = np.bincount(assignments, minlength=num_topics) \
            .astype(np.float64)
        assignments = assignments.tolist()
        words = word_ids.tolist()
        doc_topics = scratch.doc_topics
        doc_topics.begin(doc_counts)
        burn_in = min(max(1, iterations // 2), iterations - 1)
        accumulated.fill(0.0)
        samples = 0
        inf = np.inf
        rng_random = rng.random
        for iteration in range(iterations):
            uniforms = rng_random(length).tolist()
            for position in range(length):
                old = assignments[position]
                doc_counts[old] -= 1.0
                if doc_counts[old] == 0.0:
                    doc_topics.discard(old)
                word = words[position]
                phi_row = phi_by_word[word]
                members = doc_topics.array()
                # Running (sequential) sum: the bucket mass is the last
                # prefix sum, so zero-padded rows of the batched lane
                # and the compiled lane accumulate the same bits.
                cumulative = np.add.accumulate(
                    doc_counts.take(members) * phi_row.take(members))
                r_mass = float(cumulative[-1]) if members.shape[0] \
                    else 0.0
                s_mass = prior_mass[word]
                total = r_mass + s_mass
                if not (0.0 < total < inf):
                    raise ValueError(
                        f"categorical weights must have positive finite "
                        f"mass, got total={total!r}")
                x = uniforms[position] * total
                if x < r_mass:
                    index = int(cumulative.searchsorted(x, side="right"))
                    if index >= cumulative.shape[0]:
                        index = last_positive_index(cumulative)
                    topic = int(members[index])
                else:
                    # Prior bucket: proportional to phi_w over all
                    # topics.  The leftover fraction of the uniform is
                    # itself uniform on [0, 1); one alias lookup turns
                    # it into the topic.  ``check=False`` skips the
                    # all-zero poison test, which is unreachable here:
                    # reaching this branch requires x >= r_mass with
                    # total > 0, impossible when s_mass == 0 (the tables
                    # were validated at build time by the fold-in
                    # engine's phi checks).
                    v = (x - r_mass) / s_mass
                    topic = alias_draw(alias_accept[word],
                                       alias_topic[word], v, check=False)
                assignments[position] = topic
                if doc_counts[topic] == 0.0:
                    doc_topics.add(topic)
                doc_counts[topic] += 1.0
            if iteration >= burn_in:
                accumulated += doc_counts
                samples += 1
        mean_counts = accumulated / max(samples, 1)
        return (mean_counts + alpha) / (length + num_topics * alpha)

    def foldin_sparse_batch(self, table: FoldInTable,
                            documents: Sequence[np.ndarray],
                            rngs: Sequence[np.random.Generator]
                            ) -> np.ndarray:
        """Fold a micro-batch in on the sparse lane, one token position
        across every document at a time; returns ``(len(documents),
        T)`` theta rows.

        Documents are independent given the frozen phi, so position
        ``p`` of every document still that long is sampled in one numpy
        pass.  Row ``i`` is bit-identical to :meth:`foldin_sparse` on
        ``documents[i]`` with ``rngs[i]``, whatever else the batch
        holds:

        * each document draws ``integers`` and one ``random(Nd)`` per
          sweep from its own stream, in the scalar lane's order;
        * rows are ordered longest first, so the rows sampling at
          position ``p`` are a prefix of the batch;
        * the swap-remove :class:`TopicSet` becomes member and slot
          arrays over every row plus a ``(B,)`` size, with the same
          member order;
        * member weights ``nd * phi`` are gathered into an ``(M, k)``
          block padded with a sentinel topic whose count is always
          zero, so one running sum per row gives every row's bucket
          mass (``cum[-1]``) without the padding changing a bit;
        * document-bucket draws take ``(cum <= x).sum(0)``, the
          right-bisection of :meth:`foldin_sparse`, with the same
          last-positive clamp; prior-bucket draws go through
          :func:`~repro.sampling.alias.alias_draw_many`.

        Lazy (sharded) table fields are gathered once per batch into
        dense batch-local tables over the batch's distinct words, so no
        per-token shard lookups remain.  Documents must already be
        validated (int64 ids inside the vocabulary); empty ones get the
        uniform row and consume no randomness.
        """
        num_docs = len(documents)
        num_topics = table.num_topics
        alpha = table.alpha
        iterations = table.iterations
        theta = np.empty((num_docs, num_topics))
        lengths = np.fromiter((doc.shape[0] for doc in documents),
                              dtype=np.int64, count=num_docs)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        theta[order[lengths == 0]] = 1.0 / num_topics
        num_rows = int(np.count_nonzero(lengths))
        if not num_rows:
            return theta
        order = order[:num_rows]
        lengths = lengths[:num_rows]
        longest = int(lengths[0])
        streams = [rngs[i] for i in order]
        length_list = lengths.tolist()

        token_words = np.concatenate([documents[i] for i in order])
        fields = (table.phi_by_word, table.prior_mass, table.alias_accept,
                  table.alias_topic)
        if not all(isinstance(field, np.ndarray)
                   and field.flags.c_contiguous for field in fields):
            vocabulary, token_words = np.unique(token_words,
                                                return_inverse=True)
            fields = tuple(np.ascontiguousarray(field.take(vocabulary,
                                                           axis=0))
                           for field in fields)
        phi, prior_mass, alias_accept, alias_topic = fields
        phi = phi.reshape(-1)
        # Validated phi rows are finite and non-negative, so when every
        # prior mass in the batch is positive and finite no total can
        # fail the mass check, and the prior-bucket divisor is never
        # zero; otherwise both are guarded per position.
        batch_prior = prior_mass.take(token_words)
        guarded = not (0.0 < batch_prior.min()
                       and batch_prior.max() < np.inf)

        # Position-major tokens: row p holds position p of every
        # document, and its first ``active[p]`` entries are live.
        # Assignments are held as flat cells ``row * width + topic`` of
        # the ``(B, T + 1)`` counts and slots, whose last column is the
        # sentinel topic.  Members are topic-major, ``(slot, row)``, so
        # a position's member block is ``(M, k)`` and the running sums
        # and bisection counts run down axis 0; their extra last slot
        # is always the sentinel, so a bisection count of M stays a
        # valid slot.
        width = num_topics + 1
        count_base = np.arange(num_rows) * width
        words = np.zeros((longest, num_rows), dtype=np.int64)
        assignments = np.zeros((longest, num_rows), dtype=np.int64)
        counts = np.zeros((num_rows, width))
        slots = np.zeros((num_rows, width), dtype=np.int64)
        members = np.full((width, num_rows), num_topics, dtype=np.int64)
        sizes = np.zeros(num_rows, dtype=np.int64)
        start = 0
        for row, (rng, length) in enumerate(zip(streams, length_list)):
            words[:length, row] = token_words[start:start + length]
            start += length
            initial = rng.integers(0, num_topics, size=length)
            assignments[:length, row] = initial + count_base[row]
            row_counts = np.bincount(initial, minlength=num_topics)
            counts[row, :num_topics] = row_counts
            nonzero = row_counts.nonzero()[0]
            members[:nonzero.shape[0], row] = nonzero
            slots[row, nonzero] = np.arange(nonzero.shape[0])
            sizes[row] = nonzero.shape[0]
        phi_cells = words * num_topics
        active = np.searchsorted(-lengths, -np.arange(longest),
                                 side="left").tolist()
        row_ids = np.arange(num_rows)
        counts_flat = counts.ravel()
        slots_flat = slots.ravel()
        uniforms = np.zeros((num_rows, longest))
        accumulated = np.zeros((num_rows, num_topics))
        burn_in = min(max(1, iterations // 2), iterations - 1)
        samples = 0
        inf = np.inf
        for iteration in range(iterations):
            for row, (rng, length) in enumerate(zip(streams,
                                                    length_list)):
                rng.random(out=uniforms[row, :length])
            draws = np.ascontiguousarray(uniforms.T)
            for position, k in enumerate(active):
                rows = row_ids[:k]
                cells = assignments[position, :k]
                held = counts_flat.take(cells) - 1.0
                counts_flat.put(cells, held)
                emptied = (held == 0.0).nonzero()[0]
                if emptied.shape[0]:
                    # Swap-remove: the last member fills the hole.
                    tail = sizes[emptied] - 1
                    hole = slots_flat.take(cells.take(emptied))
                    last = members[tail, emptied]
                    members[hole, emptied] = last
                    slots[emptied, last] = hole
                    members[tail, emptied] = num_topics
                    sizes[emptied] = tail
                live = sizes[:k]
                span = max(int(live[live.argmax()]), 1)
                block = members[:span, :k]
                base = count_base[:k]
                weights = counts_flat.take(block + base)
                # The sentinel's phi cell is the next word's first (or,
                # clipped, the last) entry: finite, and times a zero
                # count it adds exactly nothing.
                weights *= phi.take(block + phi_cells[position, :k],
                                    mode="clip")
                cumulative = np.cumsum(weights, axis=0)
                r_mass = cumulative[-1]
                word = words[position, :k]
                s_mass = prior_mass.take(word)
                total = r_mass + s_mass
                if guarded:
                    if not (0.0 < total.min() and total.max() < inf):
                        bad = total[~((total > 0.0) & (total < inf))][0]
                        raise ValueError(
                            f"categorical weights must have positive "
                            f"finite mass, got total={bad!r}")
                    # A zero prior mass only pairs with a document-
                    # bucket draw; keep the discarded prior answer
                    # finite.
                    s_mass = np.where(s_mass > 0.0, s_mass, 1.0)
                x = draws[position, :k] * total
                in_doc = x < r_mass
                # Both buckets' answers for every row; ``in_doc`` picks.
                index = (cumulative <= x).sum(axis=0)
                past = in_doc & (index >= live)
                if np.count_nonzero(past):
                    # u * total rounded up to the bucket mass: land on
                    # the last positive-weight member.
                    index[past] = (cumulative[:, past]
                                   < r_mass[past]).sum(axis=0)
                prior = alias_draw_many(
                    alias_accept, alias_topic,
                    np.maximum(x - r_mass, 0.0) / s_mass,
                    rows=word, check=False)
                topics = np.where(in_doc, members[index, rows], prior)
                cells = topics + base
                assignments[position, :k] = cells
                held = counts_flat.take(cells)
                added = (held == 0.0).nonzero()[0]
                if added.shape[0]:
                    size = sizes[added]
                    members[size, added] = topics[added]
                    slots_flat.put(cells.take(added), size)
                    sizes[added] = size + 1
                counts_flat.put(cells, held + 1.0)
            if iteration >= burn_in:
                accumulated += counts[:, :num_topics]
                samples += 1
        mean_counts = accumulated / max(samples, 1)
        theta[order] = (mean_counts + alpha) \
            / (lengths + num_topics * alpha)[:, np.newaxis]
        return theta


def run_source_bijective_chunk(state, table: SourceBijectiveTable,
                               words: list, doc_ids: list,
                               old_topics: list, uniforms: list,
                               out: list,
                               inclusive_scan: Callable) -> None:
    """Single-frame chunk loop for the bijective (``K == 0``) sparse
    Source-LDA lane, driven entirely by a :class:`SourceBijectiveTable`.

    Everything the per-token work touches — count rows, the shared
    ``E`` cache and its refresh operands, the gather buffers — is bound
    to locals once per chunk, and the E-column refresh (same arithmetic
    as the dense source lane's ``topic_changed``) is inlined because it
    runs twice per token.  The document cursor persists on the table
    across chunk boundaries; ``inclusive_scan`` drives the rare floor
    segment scan so Algorithm 2/3 scan strategies stay exercised.
    """
    nw = state.nw
    nt = state.nt
    z = state.z
    nd = state.nd
    e_flat = table.E_flat
    e1 = table.E1
    e_matrix = table.E
    aug = table.aug
    omega = table.omega
    sum_delta = table.sum_delta
    ratio = table.ratio_buf
    column = table.column_buf
    c_per_topic = table.C
    flat = table.flat
    alpha = table.alpha
    word_lists = table.word_lists
    corr_ptr = table.corr_ptr
    corr_flat = table.corr_flat
    corr_topics = table.corr_topics
    corr_buf = table.corr_buf
    corr_cum_buf = table.corr_cum_buf
    token_idx = table.token_idx
    token_d = table.token_d
    token_cum = table.token_cum
    blocks = table.blocks
    block_starts = table.block_starts
    doc_starts = table.doc_starts
    doc_lengths = table.doc_lengths
    doc_z_full = table.doc_z
    num_source = table.num_source
    num_blocks = blocks.shape[0]
    np_add = np.add
    np_divide = np.divide
    np_matmul = np.matmul
    np_reduceat = np.add.reduceat
    inf = np.inf
    append_out = out.append
    current_doc = table.current_doc
    nd_row = table.nd_row
    length = table.doc_len
    position = table.position
    doc_z = doc_z_full[:length]
    indices = token_idx[:length]
    r_weights = token_d[:length]
    r_cum = token_cum[:length]
    try:
        for word, doc, old, u in zip(words, doc_ids, old_topics,
                                     uniforms):
            if doc != current_doc:
                # Document entry: load the token slice (topic of every
                # token in the document) and reset the position cursor.
                length = doc_lengths[doc]
                start_token = doc_starts[doc]
                nd_row = nd[doc]
                doc_z_full[:length] = z[start_token:start_token + length]
                position = 0
                current_doc = doc
                doc_z = doc_z_full[:length]
                indices = token_idx[:length]
                r_weights = token_d[:length]
                r_cum = token_cum[:length]
            word_list = word_lists[word]
            nw_row = nw[word]
            # Decrement and refresh the old topic's caches.
            nw_row[old] -= 1.0
            nt[old] -= 1.0
            nd_row[old] -= 1.0
            np_add(nt[old], sum_delta[old], out=ratio)
            np_divide(omega, ratio, out=ratio)
            np_matmul(aug[old], ratio, out=column)
            e_matrix[:, old] = column
            if nw_row[old] == 0.0:
                word_list.remove(old)
            # q: word bucket over the nonzero nw[word] topics.
            q_weights: list[float] = []
            q_mass = 0.0
            for t in word_list:
                weight = nw_row[t] * c_per_topic[t] \
                    * (nd_row[t] + alpha)
                q_weights.append(weight)
                q_mass += weight
            # r: document bucket over the document's token slice
            # (weight D[z_j] per other token j; the current token's
            # slot is zeroed).
            flat_row = flat[word]
            flat_row.take(doc_z, out=indices)
            e_flat.take(indices, out=r_weights)
            r_weights[position] = 0.0
            r_weights.cumsum(out=r_cum)
            r_mass = float(r_cum[-1])
            # s (correction): alpha * (D - E1) over this word's
            # articles.
            lo = corr_ptr[word]
            hi = corr_ptr[word + 1]
            if hi > lo:
                corr_weights = corr_buf[:hi - lo]
                corr_cum = corr_cum_buf[:hi - lo]
                e_flat.take(corr_flat[lo:hi], out=corr_weights)
                corr_weights -= e1.take(corr_topics[lo:hi])
                corr_weights.cumsum(out=corr_cum)
                sc_mass = alpha * float(corr_cum[-1])
            else:
                corr_cum = None
                sc_mass = 0.0
            # s (floor): alpha * E1 over every source topic.
            sfl_mass = alpha * float(e1.sum())
            total = q_mass + r_mass + sc_mass + sfl_mass
            if not (0.0 < total < inf):
                raise ValueError(
                    f"topic weights must have positive finite "
                    f"mass, got total={total!r}")
            x = u * total
            new = -1
            if x < q_mass:
                acc = 0.0
                for weight, t in zip(q_weights, word_list):
                    acc += weight
                    if x < acc:
                        new = t
                        break
            if new < 0:
                x -= q_mass
                if x < r_mass:
                    index = int(r_cum.searchsorted(x, side="right"))
                    if index >= length:
                        # Boundary draw over the zeroed current slot;
                        # take the last token slot with positive
                        # weight.
                        index = last_positive_index(r_cum)
                    new = int(doc_z[index])
                else:
                    x -= r_mass
                    if corr_cum is not None and x < sc_mass:
                        index = int(corr_cum.searchsorted(
                            x / alpha, side="right"))
                        if index >= corr_cum.shape[0]:
                            # Corrections may include zeros (repeated
                            # floor values); clamp to the last positive
                            # one.
                            index = last_positive_index(corr_cum)
                        new = int(corr_topics[lo + index])
                    else:
                        x -= sc_mass
                        # s (floor): E1 is strictly positive.  Two-
                        # level walk: fresh block sums pick a segment,
                        # one segment scan picks the topic.
                        target = x / alpha
                        np_reduceat(e1, block_starts, out=blocks)
                        block_cum = blocks.cumsum()
                        block = int(block_cum.searchsorted(
                            target, side="right"))
                        if block >= num_blocks:
                            block = num_blocks - 1
                        if block:
                            target -= block_cum[block - 1]
                        lo_t = block << BLOCK_SHIFT
                        segment = e1[lo_t:lo_t + BLOCK_SIZE]
                        cumulative = inclusive_scan(segment)
                        index = int(cumulative.searchsorted(
                            target, side="right"))
                        if index >= segment.shape[0]:
                            index = segment.shape[0] - 1
                        new = lo_t + index
            # Increment and refresh the new topic's caches.
            nw_row[new] += 1.0
            nt[new] += 1.0
            nd_row[new] += 1.0
            np_add(nt[new], sum_delta[new], out=ratio)
            np_divide(omega, ratio, out=ratio)
            np_matmul(aug[new], ratio, out=column)
            e_matrix[:, new] = column
            if nw_row[new] == 1.0:
                word_list.append(new)
            doc_z[position] = new
            position += 1
            append_out(new)
    finally:
        table.current_doc = current_doc
        table.position = position
        table.doc_len = length
        table.nd_row = nd_row


# ----------------------------------------------------------------------
# The alias/MH lane: stale proposal components + MH correction.

def rebuild_alias_word(table: AliasMHTable, state, word: int) -> None:
    """Refresh ``word``'s stale sparse proposal component from the live
    counts.

    The support is the word's nonzero-count topics (plus, in the
    source mode, the word's article-correction topics, where the
    dense-minus-floor residue ``D - E1`` is nonzero); the stored values
    freeze the live word factor minus the dense component's target at
    this instant.  O(support) with vectorized gathers — amortized over
    :attr:`~AliasMHTable.rebuild_every` draws of the word.

    The chunk loop only calls this with the current token already
    removed from the counts, so the frozen component never includes the
    topic being resampled (a prerequisite for the fixed-proposal MH
    test to be exact).
    """
    table.rebuilds[0] += 1
    nw_row = state.nw[word]
    support = np.flatnonzero(nw_row)
    if table.mode == "lda":
        vals = nw_row.take(support) / (state.nt.take(support)
                                       + table.beta_sum)
    else:  # source_bijective
        lo = table.corr_ptr[word]
        hi = table.corr_ptr[word + 1]
        if hi > lo:
            support = np.union1d(support, table.corr_topics[lo:hi])
        d_vals = table.E_flat.take(table.flat[word].take(support))
        vals = (nw_row.take(support) * table.C.take(support)
                + d_vals - table.E1.take(support))
        # D - E1 can dip a hair below zero through float error on
        # off-article support topics (where it is exactly zero in real
        # arithmetic); proposal weights must stay non-negative.
        np.maximum(vals, 0.0, out=vals)
    cum = np.cumsum(vals)
    table.word_topics[word] = support.tolist()
    table.word_vals[word] = vals.tolist()
    table.word_cum[word] = cum.tolist()
    table.word_mass[word] = float(cum[-1]) if vals.shape[0] else 0.0
    table.draws_since[word] = 0


def rebuild_alias_dense(table: AliasMHTable, state) -> None:
    """Snapshot the shared dense proposal component (once per sweep).

    LDA mode freezes the smoothing factor ``beta / (nt + V * beta)``;
    the source mode freezes the epsilon floor ``E1``.  Both are strictly
    positive, so the mixture proposal covers every topic regardless of
    how stale the sparse components are — the MH support condition holds
    unconditionally.
    """
    if table.mode == "lda":
        vals = table.beta / (state.nt + table.beta_sum)
    else:
        vals = table.E1.copy()
    accept, alias_idx = build_alias_table(vals)
    table.dense_vals = vals.tolist()
    table.dense_mass = float(vals.sum())
    table.dense_accept = accept.tolist()
    table.dense_alias = alias_idx.tolist()


def run_alias_mh_chunk(state, table: AliasMHTable, words: list,
                       doc_ids: list, old_topics: list, uniforms: list,
                       out: list) -> None:
    """Chunk loop of the alias/MH lane (LightLDA-style cycled MH).

    Per token, two Metropolis-Hastings sub-steps against the exact live
    conditional ``pi``:

    1. **word proposal** from the stale mixture (per-word sparse
       component + shared dense component; EDA draws its static stacked
       alias rows in one batched call instead), accepted with
       ``u * pi(s) * q(t) < pi(t) * q(s)``;
    2. **doc proposal** from the document's token slice — minus the
       current token's slot — plus the uniform ``alpha`` arm (never
       stale), accepted with the analogous test against
       ``q_d(t) = nd_dec[t] + alpha``.

    Both proposals are kept independent of the topic being resampled:
    the stale word component is only ever rebuilt *after* the token's
    decrement, and the doc slice excludes the token's own slot.  A
    proposal that saw the current assignment would make ``q`` a
    function of the state, and the fixed-proposal acceptance test
    ``u * pi(s) * q(t) < pi(t) * q(s)`` would no longer leave the
    exact conditional invariant (the chi-squared pin in
    ``tests/test_alias_engine.py`` catches the resulting bias).

    ``uniforms`` holds exactly ``4 * len(words)`` variates; coins are
    consumed even on self-proposals, and stale-table rebuilds draw no
    RNG, so the stream is pinned by token count alone.  The strict
    ``<`` in both tests rejects the ``0 < 0`` case, which keeps
    zero-probability states (EDA's zero-phi topics) from being entered
    through float ties.  Proposal/acceptance totals accumulate on
    ``table.mh_counts``.
    """
    nw = state.nw
    nt = state.nt
    nd = state.nd
    z = state.z
    mode = table.mode
    is_lda = mode == "lda"
    is_eda = mode == "eda"
    is_source = mode == "source_bijective"
    alpha = table.alpha
    num_topics = table.num_topics
    alpha_times_t = alpha * num_topics
    rebuild_every = table.rebuild_every
    doc_starts = table.doc_starts
    doc_lengths = table.doc_lengths
    doc_z_full = table.doc_z
    append_out = out.append
    proposals = 0
    accepts = 0
    # Stale word-proposal components (non-eda modes).
    word_topics = table.word_topics
    word_vals = table.word_vals
    word_cum = table.word_cum
    word_mass = table.word_mass
    draws_since = table.draws_since
    dense_vals = table.dense_vals
    dense_accept = table.dense_accept
    dense_alias = table.dense_alias
    dense_mass = table.dense_mass
    # Mode-specific live-conditional operands.
    beta = table.beta
    beta_sum = table.beta_sum
    phi_by_word = table.phi_by_word
    if is_source:
        e_flat = table.E_flat
        e_matrix = table.E
        aug = table.aug
        omega = table.omega
        sum_delta = table.sum_delta
        ratio = table.ratio_buf
        column = table.column_buf
        c_per_topic = table.C
        flat = table.flat
        np_add = np.add
        np_divide = np.divide
        np_matmul = np.matmul
    if is_eda:
        # All word proposals of the chunk in one vectorized batch — the
        # static per-word tables never go stale, so nothing per-token
        # needs rebuilding.  The poison check is skipped entirely when
        # the phi rows were validated at table build time.
        word_props = alias_draw_many(
            table.eda_accept, table.eda_alias,
            np.asarray(uniforms[0::4]),
            rows=np.asarray(words, dtype=np.int64),
            check=not table.eda_validated).tolist()
    current_doc = table.current_doc
    nd_row = table.nd_row
    doc_len = table.doc_len
    position = table.position
    doc_z = doc_z_full[:doc_len]
    cursor = 0
    index = 0
    try:
        for word, doc, s0 in zip(words, doc_ids, old_topics):
            u1 = uniforms[cursor]
            u2 = uniforms[cursor + 1]
            u3 = uniforms[cursor + 2]
            u4 = uniforms[cursor + 3]
            cursor += 4
            if doc != current_doc:
                doc_len = doc_lengths[doc]
                start_token = doc_starts[doc]
                nd_row = nd[doc]
                doc_z_full[:doc_len] = z[start_token:start_token
                                         + doc_len]
                position = 0
                current_doc = doc
                doc_z = doc_z_full[:doc_len]
            nw_row = nw[word]
            phi_row = phi_by_word[word] if is_eda else None
            # Remove the token from the counts (the conditional both MH
            # tests target excludes the current token).
            nw_row[s0] -= 1.0
            nt[s0] -= 1.0
            nd_row[s0] -= 1.0
            if is_source:
                np_add(nt[s0], sum_delta[s0], out=ratio)
                np_divide(omega, ratio, out=ratio)
                np_matmul(aug[s0], ratio, out=column)
                e_matrix[:, s0] = column
                flat_row = flat[word]
            if not is_eda:
                # Rebuild *after* the decrement: the frozen component
                # must never include the topic being resampled, or the
                # proposal depends on the current state and the
                # fixed-proposal MH test stops being exact (the
                # chi-squared invariance pin detects the resulting
                # flattening bias).
                if draws_since[word] >= rebuild_every:
                    rebuild_alias_word(table, state, word)
                draws_since[word] += 1
            s = s0
            # pi(s) carries across the two sub-steps; None means "not
            # computed yet" (self-proposals skip the evaluation).
            pi_s = None
            # ---------------------------------------- word sub-step
            if is_eda:
                t = word_props[index]
            else:
                wm = word_mass[word]
                x = u1 * (wm + dense_mass)
                if x < wm:
                    cum = word_cum[word]
                    i = bisect_right(cum, x)
                    if i >= len(cum):  # float boundary
                        i = len(cum) - 1
                    t = word_topics[word][i]
                else:
                    v = (x - wm) / dense_mass
                    scaled = v * num_topics
                    cell = int(scaled)
                    if cell >= num_topics:
                        cell = num_topics - 1
                    t = (cell if scaled - cell < dense_accept[cell]
                         else dense_alias[cell])
            proposals += 1
            if t != s:
                if is_lda:
                    pi_s = (nw_row[s] + beta) / (nt[s] + beta_sum) \
                        * (nd_row[s] + alpha)
                    pi_t = (nw_row[t] + beta) / (nt[t] + beta_sum) \
                        * (nd_row[t] + alpha)
                elif is_eda:
                    pi_s = phi_row[s] * (nd_row[s] + alpha)
                    pi_t = phi_row[t] * (nd_row[t] + alpha)
                else:
                    pi_s = (nw_row[s] * c_per_topic[s]
                            + e_flat[flat_row[s]]) * (nd_row[s] + alpha)
                    pi_t = (nw_row[t] * c_per_topic[t]
                            + e_flat[flat_row[t]]) * (nd_row[t] + alpha)
                if is_eda:
                    q_s = phi_row[s]
                    q_t = phi_row[t]
                else:
                    topics = word_topics[word]
                    vals = word_vals[word]
                    i = bisect_left(topics, s)
                    q_s = dense_vals[s] + (
                        vals[i] if i < len(topics) and topics[i] == s
                        else 0.0)
                    i = bisect_left(topics, t)
                    q_t = dense_vals[t] + (
                        vals[i] if i < len(topics) and topics[i] == t
                        else 0.0)
                if u2 * pi_s * q_t < pi_t * q_s:
                    s = t
                    pi_s = pi_t
                    accepts += 1
            else:
                accepts += 1
            # ----------------------------------------- doc sub-step
            # Proposal over the document's *other* tokens plus the
            # uniform alpha arm: q_d(t) = nd_dec[t] + alpha.  The
            # current token's slot is skipped so q_d, like the word
            # proposal, never depends on the topic being resampled
            # (LightLDA's self-inclusive slice is cheaper but makes
            # the proposal state-dependent, which the fixed-proposal
            # acceptance test does not correct for).
            others = doc_len - 1
            x = u3 * (others + alpha_times_t)
            if x < others:
                j = int(x)
                if j >= others:  # float boundary
                    j = others - 1
                if j >= position:
                    j += 1
                t = int(doc_z[j])
            else:
                t = int((x - others) / alpha)
                if t >= num_topics:  # float boundary
                    t = num_topics - 1
            proposals += 1
            if t != s:
                if is_lda:
                    if pi_s is None:
                        pi_s = (nw_row[s] + beta) / (nt[s] + beta_sum) \
                            * (nd_row[s] + alpha)
                    pi_t = (nw_row[t] + beta) / (nt[t] + beta_sum) \
                        * (nd_row[t] + alpha)
                elif is_eda:
                    if pi_s is None:
                        pi_s = phi_row[s] * (nd_row[s] + alpha)
                    pi_t = phi_row[t] * (nd_row[t] + alpha)
                else:
                    if pi_s is None:
                        pi_s = (nw_row[s] * c_per_topic[s]
                                + e_flat[flat_row[s]]) \
                            * (nd_row[s] + alpha)
                    pi_t = (nw_row[t] * c_per_topic[t]
                            + e_flat[flat_row[t]]) * (nd_row[t] + alpha)
                # histogram(doc_z minus the skipped slot) == nd_dec:
                # slots before ``position`` hold this sweep's updated
                # topics and nd is updated token by token.
                qd_s = nd_row[s] + alpha
                qd_t = nd_row[t] + alpha
                if u4 * pi_s * qd_t < pi_t * qd_s:
                    s = t
                    accepts += 1
            else:
                accepts += 1
            # Put the token back under its (possibly new) topic.
            nw_row[s] += 1.0
            nt[s] += 1.0
            nd_row[s] += 1.0
            if is_source:
                np_add(nt[s], sum_delta[s], out=ratio)
                np_divide(omega, ratio, out=ratio)
                np_matmul(aug[s], ratio, out=column)
                e_matrix[:, s] = column
            doc_z[position] = s
            position += 1
            index += 1
            append_out(s)
    finally:
        table.current_doc = current_doc
        table.position = position
        table.doc_len = doc_len
        table.nd_row = nd_row
        table.mh_counts[0] += proposals
        table.mh_counts[1] += accepts


register_backend(PythonBackend())

# The compiled backend self-registers on import; machines without numba
# simply keep the python backend as the "auto" resolution.
try:
    import repro.sampling.runtime_numba  # noqa: F401  (self-registers)
except ImportError:
    pass
