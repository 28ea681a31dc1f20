"""The three workloads: how each sets up, what one operation is, and how
its outputs are checked.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`);
what an "operation" is differs:

* ``train`` — one ``SourceLDA(source).fit(...)`` call;
* ``serve_batch`` — one ``infer`` call with a few hundred documents;
* ``serve_interactive`` — one ``infer`` call with a single document.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from measure import median, tail
from repro import Corpus, KnowledgeSource, SourceLDA
from repro.metrics.accuracy import labeled_accuracy
from repro.sampling.rng import document_rng, document_seed_sequence
from repro.serving import (FoldInEngine, InferenceSession, ModelRegistry,
                           available_cpus)
from repro.text.tokenizer import Tokenizer
from world import World, make_queries

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "docs_per_s": "docs/s",
    "latency_p50_ms": "ms",
    "label_accuracy": "fraction",
    "peak_rss_mb": "MB",
}

#: Gibbs sweeps of each timed training fit.
TRAIN_ITERATIONS = 15
#: Sweeps of the untimed fit that produces the served model.
FIXTURE_ITERATIONS = 5
#: Fold-in sweeps per document (the session default, pinned).
FOLDIN_ITERATIONS = 30
FOLDIN_MODE = "sparse"
MODEL_NAME = "medline"
#: Fitted-label accuracy below this fails the train check (chance is
#: 1/B = 0.005).
TRAIN_ACCURACY_FLOOR = 0.1
#: Share of queries whose top label must be their dominant generating
#: topic's.
SERVE_ACCURACY_FLOOR = {"serve_batch": 0.25, "serve_interactive": 0.15}
#: Documents per batch re-folded inline for the bit-identity check.
IDENTITY_SAMPLE = 4


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return bool(ok)


@dataclass
class OpRecord:
    """One timed operation as the benchmark saw it."""

    index: int
    wall: float
    docs: int
    tokens: int
    #: Latencies of the operation's steps, in seconds (the sweeps of a
    #: fit; the call itself for serving).
    steps: list[float] = field(default_factory=list)
    #: Documents whose top label matched the answer key.
    label_hits: int = 0


def rows_are_distributions(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix, dtype=np.float64)
    return bool(np.isfinite(matrix).all() and (matrix >= 0).all()
                and np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9))


def build_inputs(world: World) -> tuple[Corpus, KnowledgeSource]:
    """The corpus and knowledge source, built from the world's raw text."""
    corpus = Corpus.from_texts(world.train_texts)
    source = KnowledgeSource.from_texts(
        world.article_texts, tokenizer=Tokenizer(remove_stopwords=False))
    return corpus, source


class Workload:
    """Base: subclasses fill in set-up, one operation and its checks."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5
    #: Untimed operations on the measured set-up before timing starts.
    warm_up_ops = 0
    #: Operations every run makes, however long they take.
    min_ops = 1
    #: Traced operations the per-layer window aggregates.
    traced_window = 1
    #: Operations per session in the traced run's alternating blocks.
    block_ops = 1
    #: What the latency samples time.
    step = "request"

    def __init__(self, world: World, seed: int, scratch: Path) -> None:
        self.world = world
        self.seed = seed
        self.scratch = scratch

    def prepare(self) -> None:
        """Untimed fixtures."""

    def setup(self, recorder: Any = None) -> Any:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        """Release what :meth:`setup` built."""

    def op(self, ctx: Any, index: int, ledger: Ledger,
           timed: Callable[[], Any]) -> OpRecord:
        """One operation; only the part inside ``with timed() as watch``
        is timed (and traced)."""
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return []

    def finish(self, records: list[OpRecord], ledger: Ledger) -> float:
        """Run-level checks; returns ``label_accuracy``."""
        raise NotImplementedError

    def end_to_end(self, setups: list[float], records: list[OpRecord],
                   ledger: Ledger, rss_mb: float) -> dict[str, float]:
        steps = [step for record in records for step in record.steps]
        wall = sum(r.wall for r in records)
        return {
            "setup_s": median(setups),
            "tokens_per_s": sum(r.tokens for r in records) / wall if wall else 0.0,
            "docs_per_s": sum(r.docs for r in records) / wall if wall else 0.0,
            "latency_p50_ms": median(steps) * 1e3,
            "label_accuracy": self.finish(records, ledger),
            "peak_rss_mb": rss_mb,
        }


# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    """Raw text -> corpus + knowledge source -> ``SourceLDA.fit``."""

    name = "train"
    #: A set-up takes ~40 ms, so many fit in a second.
    setup_repeats = 25
    min_ops = 2
    step = "sweep"

    def prepare(self) -> None:
        self._first: np.ndarray | None = None
        self._accuracy: float | None = None

    def setup(self, recorder: Any = None) -> tuple[Corpus, KnowledgeSource]:
        return build_inputs(self.world)

    def op(self, ctx, index: int, ledger: Ledger, timed) -> OpRecord:
        corpus, source = ctx
        with timed() as watch:
            fitted = SourceLDA(source).fit(
                corpus, iterations=TRAIN_ITERATIONS, seed=self.seed,
                track_log_likelihood=True)
        ledger.check(rows_are_distributions(fitted.theta),
                     f"fit {index}: theta rows are not distributions")
        ledger.check(rows_are_distributions(fitted.phi),
                     f"fit {index}: phi rows are not distributions")
        ledger.check(len(fitted.log_likelihoods) == TRAIN_ITERATIONS
                     and np.isfinite(fitted.log_likelihoods).all(),
                     f"fit {index}: log-likelihood trace is not finite")
        assignments = fitted.flat_assignments()
        if self._first is None:
            self._first = assignments
            self._accuracy = labeled_accuracy(
                assignments, fitted.topic_labels, self.world.token_topics,
                self.world.generating_labels)
        else:
            ledger.check(np.array_equal(assignments, self._first),
                         f"fit {index}: same seed gave other assignments")
        return OpRecord(
            index=index, wall=watch.wall,
            docs=len(corpus) * TRAIN_ITERATIONS,
            tokens=corpus.num_tokens * TRAIN_ITERATIONS,
            steps=list(fitted.metadata["iteration_seconds"]))

    def finish(self, records: list[OpRecord], ledger: Ledger) -> float:
        accuracy = self._accuracy or 0.0
        ledger.check(accuracy >= TRAIN_ACCURACY_FLOOR,
                     f"label_accuracy {accuracy:.3f} < "
                     f"{TRAIN_ACCURACY_FLOOR}")
        return accuracy


# ----------------------------------------------------------------------
@dataclass
class ServeContext:
    registry: ModelRegistry
    session: InferenceSession
    #: ``infer`` calls made on this session (names each call's seed).
    calls: int = 0


class ServeWorkload(Workload):
    """Closed-loop ``infer`` calls from one single-threaded client
    against the production session configuration."""

    #: Documents per request, and the query pool they cycle through.
    request_docs: int
    query_count = 1500
    query_length: float
    query_stream: int
    #: Session root seed; call ``k`` samples on its ``k``-th child.
    session_seed = 12345
    setup_repeats = 9

    def prepare(self) -> None:
        self.queries = make_queries(self.world, self.query_count,
                                    self.query_length, self.query_stream)
        corpus, source = build_inputs(self.world)
        fitted = SourceLDA(source).fit(corpus, iterations=FIXTURE_ITERATIONS,
                                       seed=self.seed)
        self.root = self.scratch / "registry"
        ModelRegistry(self.root).publish(MODEL_NAME, fitted, mmap_phi=True)
        self._reference: FoldInEngine | None = None
        self.workers = available_cpus()

    def setup(self, recorder: Any = None) -> ServeContext:
        registry = ModelRegistry(self.root)
        loaded = registry.load(MODEL_NAME, mmap_phi=True)
        session = InferenceSession(
            loaded, seed=self.session_seed, num_workers=self.workers,
            iterations=FOLDIN_ITERATIONS, mode=FOLDIN_MODE,
            recorder=recorder)
        session.warm_up()
        return ServeContext(registry, session)

    def teardown(self, ctx: ServeContext) -> None:
        ctx.session.close()
        ctx.registry.clear_cache()

    def worker_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def op(self, ctx: ServeContext, index: int, ledger: Ledger,
           timed) -> OpRecord:
        positions = self.positions(index)
        texts = [self.queries.texts[p] for p in positions]
        call = ctx.calls
        with timed() as watch:
            result = ctx.session.infer(texts)
        ctx.calls += 1
        ledger.check(rows_are_distributions(result.theta),
                     f"request {index}: theta rows are not distributions")
        ledger.check(
            np.array_equal(result.num_oov,
                           self.queries.oov_tokens[positions])
            and np.array_equal(result.num_tokens,
                               self.queries.known_tokens[positions]),
            f"request {index}: OOV/known token counts differ from inputs")
        labels = ctx.session.top_labels(result)
        hits = sum(label == self.queries.dominant_labels[p]
                   for label, p in zip(labels, positions))
        self.check_identity(ctx, call, texts, result.theta, index, ledger)
        return OpRecord(index=index, wall=watch.wall, docs=len(texts),
                        tokens=int(result.num_tokens.sum()),
                        steps=[watch.wall],
                        label_hits=hits)

    def positions(self, index: int) -> list[int]:
        """Query pool positions of request ``index``."""
        return [(index * self.request_docs + k) % len(self.queries)
                for k in range(self.request_docs)]

    def check_identity(self, ctx, call, texts, theta, index, ledger) -> None:
        """Serving workloads whose calls fan out to the pool re-fold a
        sample inline; single-document calls already run inline."""

    def finish(self, records: list[OpRecord], ledger: Ledger) -> float:
        window = [r for r in records if r.index < self.min_ops]
        accuracy = (sum(r.label_hits for r in window)
                    / max(1, sum(r.docs for r in window)))
        floor = SERVE_ACCURACY_FLOOR[self.name]
        ledger.check(accuracy >= floor,
                     f"top-label agreement {accuracy:.3f} < {floor}")
        return accuracy


class ServeBatchWorkload(ServeWorkload):
    name = "serve_batch"
    request_docs = 250
    query_length = 100.0
    query_stream = 1
    #: The first request builds each worker's fold-in tables and runs
    #: ~20% slower than the rest.
    warm_up_ops = 1
    min_ops = 3
    traced_window = 2

    def check_identity(self, ctx, call, texts, theta, index, ledger) -> None:
        """Theta is a pure function of (call seed, index, words): a
        sample re-folded inline must match the pooled rows bit for bit."""
        if self._reference is None:
            self._reference = FoldInEngine(
                ctx.session.model.phi, ctx.session.alpha, iterations=FOLDIN_ITERATIONS,
                mode=FOLDIN_MODE, backend=ctx.session.backend)
        engine = self._reference
        call_seed = document_seed_sequence(
            np.random.SeedSequence(self.session_seed), call)
        step = max(1, len(texts) // IDENTITY_SAMPLE)
        sample = list(range(0, len(texts), step))[:IDENTITY_SAMPLE]
        encoded, _ = ctx.session.encode([texts[p] for p in sample])
        scratch = engine.new_scratch()
        same = all(
            np.array_equal(engine.theta_document(
                ids, document_rng(call_seed, p), scratch), theta[p])
            for p, ids in zip(sample, encoded))
        ledger.check(same, f"request {index}: pooled theta differs from "
                           f"the inline re-fold")


class ServeInteractiveWorkload(ServeWorkload):
    """Single-document requests: one pass over the query set, then round
    after round over its first :attr:`repeat_docs` documents.

    The host's speed drifts by tens of percent over tens of seconds
    (other tenants share its cores), which moves a run's median request
    as much as any change to the program would.  A request takes a few
    milliseconds, short enough to fall wholly inside a quiet moment, so
    the repeated documents are each requested dozens of times and the
    rates and latency come from each one's fastest request: what the
    program costs on a host it has to itself.  The first pass, over
    distinct documents, gives ``label_accuracy``.
    """

    name = "serve_interactive"
    request_docs = 1
    query_length = 20.0
    query_stream = 2
    query_count = 1024
    #: Documents requested again and again after the first pass.
    repeat_docs = 128
    min_ops = query_count
    traced_window = 500
    block_ops = 100

    def positions(self, index: int) -> list[int]:
        if index < len(self.queries):
            return [index]
        return [index % self.repeat_docs]

    def end_to_end(self, setups: list[float], records: list[OpRecord],
                   ledger: Ledger, rss_mb: float) -> dict[str, float]:
        metrics = super().end_to_end(setups, records, ledger, rss_mb)
        best: dict[int, OpRecord] = {}
        for record in records:
            position, = self.positions(record.index)
            if position >= self.repeat_docs:
                continue
            if position not in best or record.wall < best[position].wall:
                best[position] = record
        ledger.check(len(best) == self.repeat_docs,
                     f"{self.repeat_docs - len(best)} repeated documents "
                     f"were never served")
        wall = sum(r.wall for r in best.values())
        metrics.update(
            tokens_per_s=sum(r.tokens for r in best.values()) / wall,
            docs_per_s=len(best) / wall,
            latency_p50_ms=median(r.wall for r in best.values()) * 1e3)
        return metrics


WORKLOADS = {cls.name: cls for cls in (TrainWorkload, ServeBatchWorkload,
                                       ServeInteractiveWorkload)}


def tail_summary(step: str, records: list[OpRecord]) -> str:
    """Median and highest well-sampled percentile of the step latencies,
    named like ``request_p99_ms``."""
    steps = [sample for record in records for sample in record.steps]
    if not steps:
        return f"{step} latency: no samples"
    text = f"{step}_p50_ms {median(steps) * 1e3:.3f}"
    found = tail(steps)
    if found is not None:
        q, value = found
        text += f", {step}_p{q:g}_ms {value * 1e3:.3f}"
    return f"{text} (n={len(steps)})"
