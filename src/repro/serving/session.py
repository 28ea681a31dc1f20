"""Batched query-time inference over a fitted (or reloaded) model.

An :class:`InferenceSession` is the serving façade: construct it once
from a :class:`~repro.models.base.FittedTopicModel` (fresh from ``fit``
or reloaded through :mod:`repro.serving.artifacts` /
:class:`~repro.serving.registry.ModelRegistry`), then answer
theta / top-topics / label queries for batches of **raw, unseen text**.

The pipeline per batch is:

1. **tokenize** with the session's :class:`~repro.text.Tokenizer`
   (``None`` splits on whitespace, matching
   :meth:`Corpus.from_texts <repro.text.corpus.Corpus.from_texts>`'s
   treatment of pre-tokenized input);
2. **map to word ids** against the model vocabulary with an explicit
   out-of-vocabulary policy — ``"ignore"`` drops OOV tokens (the
   conventional held-out treatment) and reports per-document OOV
   counts, ``"error"`` raises on the first unknown token;
3. **fold in** through the session's
   :class:`~repro.serving.foldin.FoldInEngine`, whose ``phi``
   validation and gather buffers were set up once at construction.

Documents that are empty (or entirely OOV under ``"ignore"``) get the
uniform prior row ``1 / T``.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.models.base import FittedTopicModel, default_alpha
from repro.sampling.rng import ensure_seed_sequence
from repro.serving.foldin import MODES, FoldInEngine, validate_phi
from repro.serving.parallel import HedgePolicy, ParallelFoldIn
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary

#: Out-of-vocabulary policies for query documents.
OOV_POLICIES = ("ignore", "error")


def _alpha_from_metadata(recorded: object, num_topics: int) -> float:
    """Recover the fold-in prior from ``metadata["alpha"]``.

    Bools are rejected outright (``True`` satisfies
    ``isinstance(..., int)`` and used to silently become ``alpha=1.0``);
    Python and NumPy real scalars are accepted when positive and
    finite; anything else falls back to the paper default ``50 / T``
    **with a warning** — the fallback used to be silent, hiding
    corrupted metadata from operators.
    """
    if recorded is None:
        return default_alpha(num_topics)
    valid = (isinstance(recorded, (int, float, np.integer, np.floating))
             and not isinstance(recorded, (bool, np.bool_)))
    if valid:
        value = float(recorded)
        if math.isfinite(value) and value > 0:
            return value
    fallback = default_alpha(num_topics)
    warnings.warn(
        f"fitted model metadata records an unusable alpha "
        f"{recorded!r} ({type(recorded).__name__}); falling back to "
        f"the paper default 50/T = {fallback:g} — pass alpha= "
        f"explicitly to silence this",
        RuntimeWarning, stacklevel=3)
    return fallback


@dataclass(frozen=True)
class TopicScore:
    """One ranked topic for one document."""

    topic: int
    label: str | None
    probability: float


@dataclass(frozen=True)
class InferenceResult:
    """Batched fold-in output.

    Attributes
    ----------
    theta:
        Document-topic mixtures, shape ``(N, T)``; rows sum to 1.
    num_tokens:
        In-vocabulary tokens actually folded in, per document.
    num_oov:
        Tokens dropped as out-of-vocabulary, per document (always zero
        under the ``"error"`` policy).
    """

    theta: np.ndarray
    num_tokens: np.ndarray
    num_oov: np.ndarray

    def __len__(self) -> int:
        return int(self.theta.shape[0])


class InferenceSession:
    """Serves topic inference for batches of unseen documents.

    Parameters
    ----------
    model:
        A :class:`FittedTopicModel`, or anything with a ``.model``
        attribute holding one (e.g. the
        :class:`~repro.serving.artifacts.LoadedModel` returned by
        ``load_model`` / ``ModelRegistry.load``).
    alpha:
        Document-topic prior for fold-in; defaults to the fitted
        model's recorded ``metadata["alpha"]``, else the paper's
        ``50 / T``.
    iterations:
        Gibbs sweeps per document (first half burns in).
    mode:
        Fold-in lane: ``"sparse"`` (bucketed O(nnz) draws, the serving
        default) or ``"exact"`` (the legacy dense draw); see
        :class:`~repro.serving.foldin.FoldInEngine`.
    batch_size:
        Documents per fold-in worker task (and per buffer-sizing group
        in the engine's legacy sequential API).  A scheduling knob
        only — results never depend on it, because documents sample on
        index-keyed streams.
    backend:
        Token-loop backend executing the fold-in sampling:
        ``"auto"`` (default), ``"python"`` or ``"numba"``; see
        :mod:`repro.sampling.runtime`.  The resolved name is exposed
        as :attr:`backend` and shipped to worker processes, so the
        whole pool samples on one backend.
    oov:
        ``"ignore"`` (drop unknown tokens, reported per document) or
        ``"error"`` (raise on the first unknown token).
    tokenizer:
        Tokenizer for raw-text queries; ``None`` splits on whitespace.
        Pre-tokenized queries (lists of tokens) skip it entirely.
    seed:
        Seed, ``SeedSequence`` or generator naming the session's root
        random stream.  Every ``infer`` call spawns a child sequence,
        and every document samples on a stream keyed by that child and
        its index in the batch — so a seeded session is reproducible
        end to end *and* its results are independent of
        ``num_workers`` and ``batch_size``.  The session may be shared
        across threads: spawning is lock-guarded, so concurrent calls
        always get distinct child streams (which call gets which child
        follows arrival order).
    num_workers:
        Worker processes for fold-in (see
        :class:`~repro.serving.parallel.ParallelFoldIn`); ``1`` (the
        default) runs inline.  Results are bit-identical for every
        value.  Sessions over mapped artifacts (schema v3, e.g.
        ``save_model(..., mmap_phi=True)``, or legacy v2) ship workers
        the shard *map*, so the whole pool maps the same files and
        shares one physical phi; with several shards each worker maps
        only the shards its documents touch (out-of-core serving; see
        :mod:`repro.serving.sharding`).
    min_workers / max_workers:
        Elastic bounds on the fold-in pool (both default to
        ``num_workers``: fixed pool).  When they differ, the pool grows
        toward each batch's task count and shrinks again after
        sustained lower demand; see
        :class:`~repro.serving.parallel.ParallelFoldIn`.
    task_docs:
        Upper bound on documents per dispatched fold-in task
        (default: ``batch_size``).  Smaller tasks balance skewed
        batches more finely; pure scheduling, results never change.
    hedge_policy:
        Optional :class:`~repro.serving.parallel.HedgePolicy` enabling
        hedged recomputation of straggling fold-in tasks (first result
        wins; results are bit-identical either way because documents
        sample index-keyed streams).  ``None`` (default) never
        duplicates work.
    recorder:
        Optional :class:`~repro.telemetry.Recorder`; shared with the
        fold-in engine and worker-pool front so one sink collects
        end-to-end request latency (``serving.request_seconds``),
        request/document/token/OOV counters and per-worker utilization.
        ``None`` (default) disables all recording at zero overhead, and
        recording never changes inference results.
    """

    def __init__(self, model: FittedTopicModel, *,
                 alpha: float | None = None,
                 iterations: int = 30,
                 mode: str = "sparse",
                 batch_size: int = 64,
                 oov: str = "ignore",
                 tokenizer: Tokenizer | None = None,
                 seed: int | np.random.SeedSequence
                 | np.random.Generator | None = None,
                 num_workers: int = 1,
                 min_workers: int | None = None,
                 max_workers: int | None = None,
                 task_docs: int | None = None,
                 hedge_policy: HedgePolicy | None = None,
                 backend: str = "auto",
                 recorder: Recorder | None = None) -> None:
        model = getattr(model, "model", model)
        if not isinstance(model, FittedTopicModel):
            raise TypeError(
                f"model must be a FittedTopicModel (or wrap one), got "
                f"{type(model).__name__}")
        if oov not in OOV_POLICIES:
            raise ValueError(
                f"oov must be one of {OOV_POLICIES}, got {oov!r}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if alpha is None:
            alpha = _alpha_from_metadata(model.metadata.get("alpha"),
                                         model.num_topics)
        self.model = model
        self.oov = oov
        self.tokenizer = tokenizer
        self.recorder = ensure_recorder(recorder)
        self._seed = ensure_seed_sequence(seed)
        # SeedSequence.spawn mutates n_children_spawned without
        # synchronization; concurrent infer calls must not race it or
        # two calls can sample on the same child stream.
        self._seed_lock = threading.Lock()
        phi = model.phi
        if isinstance(phi, np.ndarray):
            # Validate here rather than inside the engine so a
            # renormalization warning names the line that built the
            # session, not library internals.  Mapped phi skips this
            # (the engine checks it — a one-shard view row by row, a
            # multi-shard one by the manifest's per-shard masses — and
            # raises rather than renormalizes).
            phi = validate_phi(phi, stacklevel=3)
            validate = False
        else:
            validate = True
        self._engine = FoldInEngine(phi, alpha,
                                    iterations=iterations, mode=mode,
                                    batch_size=batch_size,
                                    backend=backend,
                                    validate=validate,
                                    recorder=self.recorder)
        # ParallelFoldIn detects a mapped engine's lazy sharded phi
        # and ships workers the shard map, not a pickled copy.
        self._foldin = ParallelFoldIn(
            self._engine, num_workers=num_workers,
            recorder=self.recorder, task_docs=task_docs,
            hedge=hedge_policy, min_workers=min_workers,
            max_workers=max_workers)

    # ------------------------------------------------------------------
    @property
    def num_topics(self) -> int:
        return self._engine.num_topics

    @property
    def alpha(self) -> float:
        return self._engine.alpha

    @property
    def vocabulary(self) -> Vocabulary:
        return self.model.vocabulary

    @property
    def num_workers(self) -> int:
        return self._foldin.num_workers

    @property
    def backend(self) -> str:
        """The resolved token-loop backend serving this session."""
        return self._engine.backend_name

    def warm_up(self) -> "InferenceSession":
        """Spawn the fold-in worker pool now instead of at the first
        query (no-op for ``num_workers=1``).  Call at process startup,
        before request threads or native thread pools exist — see
        :meth:`~repro.serving.parallel.ParallelFoldIn.warm_up`."""
        self._foldin.warm_up()
        return self

    def close(self) -> None:
        """Shut down the fold-in worker pool (idempotent; the session
        keeps working afterwards, respawning workers on demand)."""
        self._foldin.close()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def encode(self, documents: Iterable[str | Sequence[str]]
               ) -> tuple[list[np.ndarray], np.ndarray]:
        """Tokenize + vocabulary-map query documents.

        Each document is either a raw string (tokenized by the session
        tokenizer, or whitespace-split when none is configured) or an
        already-tokenized sequence of string tokens.  Returns the
        word-id arrays and the per-document OOV counts.
        """
        if isinstance(documents, str):
            raise TypeError(
                "documents must be an iterable of documents, not a bare "
                "string — wrap a single query in a list")
        vocabulary = self.model.vocabulary
        encoded: list[np.ndarray] = []
        oov_counts: list[int] = []
        for index, document in enumerate(documents):
            if isinstance(document, str):
                tokens = (self.tokenizer.tokenize(document)
                          if self.tokenizer is not None
                          else document.split())
            else:
                tokens = list(document)
            try:
                ids = vocabulary.encode(tokens,
                                        skip_unknown=self.oov == "ignore")
            except KeyError as error:
                raise KeyError(
                    f"document {index} has a token outside the model "
                    f"vocabulary (oov='error'): {error.args[0]}"
                ) from error
            encoded.append(ids)
            oov_counts.append(len(tokens) - ids.shape[0])
        return encoded, np.asarray(oov_counts, dtype=np.int64)

    def infer(self, documents: Iterable[str | Sequence[str]],
              ) -> InferenceResult:
        """Fold in a batch of raw documents; returns theta + OOV stats."""
        recorder = self.recorder
        with recorder.span("serving.request_seconds"):
            encoded, num_oov = self.encode(documents)
            # One spawned child per call keeps successive calls on
            # fresh, reproducible streams; within the call, documents
            # are keyed by index, so num_workers/batch_size never
            # change the bits.
            with self._seed_lock:
                call_seed = self._seed.spawn(1)[0]
            theta = self._foldin.theta(encoded, seed=call_seed)
            lengths = np.asarray([doc.shape[0] for doc in encoded],
                                 dtype=np.int64)
        if recorder is not NULL_RECORDER:
            recorder.count("serving.requests")
            recorder.count("serving.documents", len(encoded))
            recorder.count("serving.tokens", int(lengths.sum()))
            recorder.count("serving.oov_tokens", int(num_oov.sum()))
        return InferenceResult(theta=theta, num_tokens=lengths,
                               num_oov=num_oov)

    def theta(self, documents: Iterable[str | Sequence[str]]) -> np.ndarray:
        """Document-topic mixtures for a batch, shape ``(N, T)``."""
        return self.infer(documents).theta

    def _resolve_theta(self, queries) -> np.ndarray:
        """``queries`` may be raw documents (folded in now), an
        :class:`InferenceResult`, or a theta array from an earlier
        :meth:`infer` — reusing a result avoids re-sampling and keeps
        rankings consistent with the theta the caller already holds."""
        if isinstance(queries, InferenceResult):
            return queries.theta
        if isinstance(queries, np.ndarray) and queries.dtype.kind == "f":
            theta = np.asarray(queries, dtype=np.float64)
            if theta.ndim != 2 or theta.shape[1] != self.num_topics:
                raise ValueError(
                    f"theta must have shape (N, {self.num_topics}), got "
                    f"{theta.shape}")
            return theta
        return self.infer(queries).theta

    def top_topics(self, queries, top_n: int = 5
                   ) -> list[list[TopicScore]]:
        """The ``top_n`` most probable topics per document, with labels.

        ``queries`` is a batch of raw documents, or — to rank without
        re-running inference — the :class:`InferenceResult`/theta of a
        previous :meth:`infer` call.
        """
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        theta = self._resolve_theta(queries)
        labels = self.model.topic_labels
        results = []
        for row in theta:
            order = np.argsort(-row, kind="stable")[:top_n]
            results.append([TopicScore(topic=int(t),
                                       label=labels[int(t)],
                                       probability=float(row[t]))
                           for t in order])
        return results

    def top_labels(self, queries) -> list[str | None]:
        """The best *labeled* topic's label per document.

        ``None`` for a document when the model carries no topic labels
        (e.g. plain LDA) — callers distinguish "unlabeled model" from a
        label by the ``None``.  Like :meth:`top_topics`, accepts raw
        documents or a previous :class:`InferenceResult`/theta.
        """
        theta = self._resolve_theta(queries)
        labeled = self.model.labeled_topic_indices()
        if not labeled:
            return [None] * theta.shape[0]
        labeled = np.asarray(labeled, dtype=np.int64)
        labels = self.model.topic_labels
        best = labeled[np.argmax(theta[:, labeled], axis=1)]
        return [labels[int(t)] for t in best]
