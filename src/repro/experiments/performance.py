"""Performance benchmarking (Section IV.E, Fig. 8f).

The paper generates corpora over knowledge sources of ``B`` = 100 .. 10,000
topics and plots average Gibbs-iteration time for 1, 3 and 6 parallel
units, demonstrating (i) linear scaling in the number of topics and (ii)
speedup from the parallel sampling algorithms.

The authors' testbed ran native threads; our substrate is Python, where
per-token thread dispatch costs more than the arithmetic it parallelizes
for small ``B``.  We therefore report both:

* **measured** per-iteration wall-clock times with the real thread pool
  executing Algorithm 3's chunked scans, and
* **modeled** times from the algorithms' ``O(Max[T/P, P])`` critical path,
  anchored to the measured single-thread cost — the shape the paper's
  figure asserts.

Alongside Fig. 8f, :func:`run_engine_speedup` reports the fast-vs-
reference sweep-engine throughput (tokens/sec) on a Source-LDA workload:
the fast engine's incremental lambda-integration caches
(:mod:`repro.sampling.fast_engine`) drop the per-token cost from
``O(S * A)`` to ``O(S)``, which is what lets the paper-scale ``B``
values run at all on this substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.bijective import BijectiveSourceLDA
from repro.core.kernels import SourceTopicsKernel
from repro.core.priors import SourcePrior
from repro.experiments.config import LAPTOP, ExperimentScale
from repro.experiments.reporting import format_table
from repro.knowledge.source import KnowledgeSource
from repro.knowledge.wikipedia import make_lexicon, zipf_probabilities
from repro.models.base import default_alpha
from repro.sampling.alias_engine import DEFAULT_REBUILD_EVERY
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.integration import LambdaGrid
from repro.sampling.parallel import WorkerPool
from repro.sampling.rng import ensure_rng
from repro.sampling.simple_parallel import SimpleParallelScan
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus


def random_topic_source(num_topics: int, vocab_size: int = 400,
                        article_length: int = 60,
                        seed: int = 0) -> KnowledgeSource:
    """Topics "generated randomly from a given vocabulary" (Section IV.E)."""
    if num_topics < 1:
        raise ValueError(f"num_topics must be >= 1, got {num_topics}")
    rng = ensure_rng(seed)
    lexicon = make_lexicon(vocab_size, seed=seed)
    pmf = zipf_probabilities(vocab_size)
    articles = {}
    for index in range(num_topics):
        order = rng.permutation(vocab_size)
        draws = rng.choice(vocab_size, size=article_length, p=pmf)
        articles[f"topic-{index:05d}"] = [lexicon[order[d]] for d in draws]
    return KnowledgeSource(articles)


@dataclass(frozen=True)
class ScalingRow:
    """One x position of Fig. 8(f)."""

    num_topics: int
    measured_seconds: dict[int, float]
    modeled_seconds: dict[int, float]


@dataclass
class ScalingResult:
    rows: list[ScalingRow]
    thread_counts: tuple[int, ...]

    def is_linear_in_topics(self, tolerance: float = 0.35) -> bool:
        """Does single-thread time grow linearly with B (Fig. 8f's
        claim)?  Checks the correlation of time against B."""
        if len(self.rows) < 3:
            return True
        topics = np.array([row.num_topics for row in self.rows],
                          dtype=np.float64)
        times = np.array([row.measured_seconds[1] for row in self.rows])
        correlation = np.corrcoef(topics, times)[0, 1]
        return bool(correlation > 1.0 - tolerance)


def _modeled_time(serial_seconds: float, num_topics: int,
                  threads: int) -> float:
    """Critical-path model: work shrinks to ``Max[T/P, P]`` per token."""
    critical = max(num_topics / threads, threads)
    return serial_seconds * critical / num_topics


def run_scaling(scale: ExperimentScale = LAPTOP,
                topic_counts: list[int] | None = None,
                thread_counts: tuple[int, ...] = (1, 3, 6),
                num_documents: int = 10,
                document_length: int = 40,
                iterations: int = 2,
                seed: int = 0) -> ScalingResult:
    """Measure average iteration time vs knowledge-source size."""
    if topic_counts is None:
        topic_counts = [100, 250, 500, 1000, 2000]
    rows = []
    rng = ensure_rng(seed)
    for num_topics in topic_counts:
        source = random_topic_source(num_topics, seed=seed)
        vocabulary = source.vocabulary().freeze()
        id_lists = [rng.integers(0, len(vocabulary),
                                 size=document_length).tolist()
                    for _ in range(num_documents)]
        corpus = Corpus.from_word_id_lists(id_lists, vocabulary)
        measured: dict[int, float] = {}
        modeled: dict[int, float] = {}
        for threads in thread_counts:
            with WorkerPool(threads) as pool:
                scan = SimpleParallelScan(blocks=max(threads, 1),
                                          pool=pool if threads > 1
                                          else None)
                model = BijectiveSourceLDA(source, alpha=0.5, scan=scan)
                start = perf_counter()
                fitted = model.fit(corpus, iterations=iterations,
                                   seed=seed)
                elapsed = perf_counter() - start
            iteration_seconds = fitted.metadata["iteration_seconds"]
            measured[threads] = float(np.mean(iteration_seconds)) \
                if iteration_seconds else elapsed / max(iterations, 1)
        serial = measured[thread_counts[0]]
        for threads in thread_counts:
            modeled[threads] = _modeled_time(serial, num_topics, threads)
        rows.append(ScalingRow(num_topics=num_topics, measured_seconds=dict(
            measured), modeled_seconds=modeled))
    return ScalingResult(rows=rows, thread_counts=thread_counts)


@dataclass(frozen=True)
class EngineSpeedup:
    """Sweep throughput of all three engines on one Source-LDA workload."""

    num_topics: int
    approximation_steps: int
    num_tokens: int
    reference_tokens_per_second: float
    fast_tokens_per_second: float
    sparse_tokens_per_second: float
    exact: bool
    sparse_consistent: bool

    @property
    def speedup(self) -> float:
        """Fast over reference."""
        return (self.fast_tokens_per_second
                / self.reference_tokens_per_second)

    @property
    def sparse_speedup(self) -> float:
        """Sparse over reference."""
        return (self.sparse_tokens_per_second
                / self.reference_tokens_per_second)

    @property
    def sparse_vs_fast(self) -> float:
        """Sparse over fast — the bucketed sampler's marginal win."""
        return (self.sparse_tokens_per_second
                / self.fast_tokens_per_second)


def _time_source_sweeps(corpus: Corpus, prior: SourcePrior,
                        grid: LambdaGrid, tables, engine: str,
                        alpha: float, seed: int, sweeps: int,
                        backend: str = "auto",
                        rebuild_every: int | str = DEFAULT_REBUILD_EVERY,
                        ) -> tuple[float, np.ndarray, bool, float | None]:
    """Best-sweep tokens/sec of one engine on a Source-LDA workload.

    All engines run from identical init and draw seeds (one warm-up
    sweep, then ``sweeps`` timed ones; the fastest is reported because
    per-sweep work is identical, so the minimum is the least
    noise-contaminated estimate on a shared machine).  Returns the
    throughput, the final assignments, the count-matrix consistency
    flag and the alias engine's MH acceptance rate (``None`` for the
    other engines).
    """
    state = GibbsState(corpus, prior.num_topics)
    state.initialize_random(ensure_rng(seed + 1))
    kernel = SourceTopicsKernel(state, num_free=0, alpha=alpha,
                                beta=1.0, tables=tables, grid=grid)
    sampler = CollapsedGibbsSampler(state, kernel, ensure_rng(seed + 2),
                                    engine=engine, backend=backend,
                                    rebuild_every=rebuild_every)
    sampler.sweep()  # warm-up: caches, allocator, branch predictors
    best = np.inf
    for _ in range(sweeps):
        start = perf_counter()
        sampler.sweep()
        best = min(best, perf_counter() - start)
    return (state.num_tokens / best, state.z.copy(),
            state.counts_consistent(), sampler.acceptance_rate)


def _source_workload(num_topics: int, vocab_size: int,
                     num_documents: int, document_length: int,
                     approximation_steps: int, seed: int
                     ) -> tuple[Corpus, SourcePrior, LambdaGrid, object]:
    """The Section IV.E random-topic workload shared by the engine
    benches."""
    source = random_topic_source(num_topics, vocab_size=vocab_size,
                                 article_length=80, seed=seed)
    vocabulary = source.vocabulary().freeze()
    rng = ensure_rng(seed)
    id_lists = [rng.integers(0, len(vocabulary),
                             size=document_length).tolist()
                for _ in range(num_documents)]
    corpus = Corpus.from_word_id_lists(id_lists, vocabulary)
    prior = SourcePrior(source, vocabulary)
    grid = LambdaGrid.from_prior(0.7, 0.3, steps=approximation_steps)
    tables = prior.grid_tables(grid.nodes)
    return corpus, prior, grid, tables


def run_engine_speedup(num_topics: int = 2000,
                       approximation_steps: int = 16,
                       num_documents: int = 30,
                       document_length: int = 60,
                       vocab_size: int = 500,
                       sweeps: int = 2,
                       seed: int = 0,
                       alpha: float | None = None) -> EngineSpeedup:
    """Time reference vs fast vs sparse sweeps of the Source-LDA kernel.

    All engines run from identical init and draw seeds (one warm-up
    sweep, then ``sweeps`` timed ones).  ``exact`` records whether the
    fast engine produced byte-identical assignments to the reference
    (its contract); the sparse engine is statistically rather than
    draw-for-draw equivalent, so ``sparse_consistent`` records the
    count-matrix invariant instead.

    ``alpha`` defaults to the paper's symmetric document-topic prior
    ``50 / T`` (:func:`repro.models.base.default_alpha`); the prior
    governs how much of the conditional mass sits in the sparse
    engine's O(nnz) count buckets versus its prior bucket.
    """
    if alpha is None:
        alpha = default_alpha(num_topics)
    corpus, prior, grid, tables = _source_workload(
        num_topics, vocab_size, num_documents, document_length,
        approximation_steps, seed)

    throughput: dict[str, float] = {}
    assignments: dict[str, np.ndarray] = {}
    num_tokens = corpus.num_tokens
    sparse_consistent = False
    for engine in ("reference", "fast", "sparse"):
        # Pinned to the python backend: this bench compares *engines*,
        # and its `exact` flag asserts the python-lane draw-identity
        # contract — on "auto" a compiled fast lane would measure the
        # backend swap instead (run_backend_speedup covers that axis).
        tps, final_z, consistent, _acceptance = _time_source_sweeps(
            corpus, prior, grid, tables, engine, alpha, seed, sweeps,
            backend="python")
        throughput[engine] = tps
        assignments[engine] = final_z
        if engine == "sparse":
            sparse_consistent = consistent
    return EngineSpeedup(
        num_topics=num_topics,
        approximation_steps=approximation_steps,
        num_tokens=num_tokens,
        reference_tokens_per_second=throughput["reference"],
        fast_tokens_per_second=throughput["fast"],
        sparse_tokens_per_second=throughput["sparse"],
        exact=bool(np.array_equal(assignments["reference"],
                                  assignments["fast"])),
        sparse_consistent=sparse_consistent)


def format_engine_speedup(result: EngineSpeedup) -> str:
    table = format_table(
        ["engine", "tokens/sec"],
        [["reference", result.reference_tokens_per_second],
         ["fast", result.fast_tokens_per_second],
         ["sparse", result.sparse_tokens_per_second]],
        title=(f"Sweep engines - Source-LDA, B={result.num_topics}, "
               f"A={result.approximation_steps}, "
               f"{result.num_tokens} tokens"))
    return (f"{table}\n"
            f"fast/reference: {result.speedup:.2f}x | "
            f"sparse/reference: {result.sparse_speedup:.2f}x | "
            f"sparse/fast: {result.sparse_vs_fast:.2f}x\n"
            f"fast byte-identical to reference: {result.exact} | "
            f"sparse counts consistent: {result.sparse_consistent}")


@dataclass
class BackendSpeedup:
    """Engine-by-backend sweep throughput on one Source-LDA workload."""

    num_topics: int
    approximation_steps: int
    num_tokens: int
    engines: tuple[str, ...]
    #: engine -> backend -> best-sweep tokens/sec; ``None`` marks a
    #: backend that is not installed on this machine (recorded rather
    #: than dropped so the bench gate can skip it with a reason).
    tokens_per_second: dict[str, dict[str, float | None]]
    #: engine -> backend -> count-matrix consistency (``None`` when the
    #: backend was not timed).
    consistent: dict[str, dict[str, bool | None]]
    #: backend -> alias-engine MH acceptance rate (``None`` when the
    #: alias engine or the backend was not timed).
    acceptance_rate: dict[str, float | None]

    @property
    def compiled_vs_python(self) -> dict[str, float | None]:
        """Per-engine numba/python throughput ratio; ``None`` where a
        side was not timed (numba not installed, subset run)."""
        ratios: dict[str, float | None] = {}
        for engine in self.engines:
            series = self.tokens_per_second.get(engine, {})
            numba = series.get("numba")
            python = series.get("python")
            ratios[engine] = (numba / python
                              if numba and python else None)
        return ratios


def run_backend_speedup(num_topics: int = 2000,
                        approximation_steps: int = 16,
                        num_documents: int = 30,
                        document_length: int = 60,
                        vocab_size: int = 2000,
                        sweeps: int = 2,
                        seed: int = 0,
                        engines: tuple[str, ...] = ("fast", "sparse",
                                                    "alias"),
                        alpha: float | None = None,
                        backends: tuple[str, ...] = ("python", "numba")
                        ) -> BackendSpeedup:
    """Time sweep engines under every requested token-loop backend.

    The workload is the B=2000 Source-LDA configuration of
    :func:`run_engine_speedup`.  A backend in ``backends`` that is not
    registered in :mod:`repro.sampling.runtime` (numba not installed)
    records ``None`` for its series instead of dropping them — the
    bench JSON then carries an explicit "not measured here" marker that
    ``benchmarks/compare.py`` skips with a reason.  Backends sample the
    same chain-shape from identical seeds; the compiled lanes are
    distributional (not draw-for-draw) mirrors, so per-backend
    count-matrix consistency is recorded instead of assignment
    equality.  The alias engine's MH acceptance rate is stamped per
    backend (the source-mode alias lane stays interpreted under numba,
    so its two columns measure the same lane today).
    """
    from repro.sampling.runtime import available_backends
    if alpha is None:
        alpha = default_alpha(num_topics)
    available = available_backends()
    corpus, prior, grid, tables = _source_workload(
        num_topics, vocab_size, num_documents, document_length,
        approximation_steps, seed)
    throughput: dict[str, dict[str, float | None]] = {}
    consistent: dict[str, dict[str, bool | None]] = {}
    acceptance: dict[str, float | None] = {}
    for engine in engines:
        throughput[engine] = {}
        consistent[engine] = {}
        for backend in backends:
            if backend not in available:
                throughput[engine][backend] = None
                consistent[engine][backend] = None
                if engine == "alias":
                    acceptance[backend] = None
                continue
            tps, _final_z, ok, rate = _time_source_sweeps(
                corpus, prior, grid, tables, engine, alpha, seed,
                sweeps, backend=backend)
            throughput[engine][backend] = tps
            consistent[engine][backend] = ok
            if engine == "alias":
                acceptance[backend] = rate
    return BackendSpeedup(
        num_topics=num_topics,
        approximation_steps=approximation_steps,
        num_tokens=corpus.num_tokens,
        engines=tuple(engines),
        tokens_per_second=throughput,
        consistent=consistent,
        acceptance_rate=acceptance)


def format_backend_speedup(result: BackendSpeedup) -> str:
    rows = []
    for engine in result.engines:
        for backend, tps in sorted(
                result.tokens_per_second[engine].items()):
            rows.append([engine, backend,
                         "n/a" if tps is None else tps])
    table = format_table(
        ["engine", "backend", "tokens/sec"], rows,
        title=(f"Token-loop backends - Source-LDA, "
               f"B={result.num_topics}, "
               f"A={result.approximation_steps}, "
               f"{result.num_tokens} tokens"))
    ratios = result.compiled_vs_python
    if any(ratio is not None for ratio in ratios.values()):
        tail = " | ".join(
            f"{engine} numba/python: "
            + (f"{ratio:.2f}x" if ratio is not None else "n/a")
            for engine, ratio in ratios.items())
    else:
        tail = "numba backend not installed (python only)"
    rates = {backend: rate
             for backend, rate in result.acceptance_rate.items()
             if rate is not None}
    if rates:
        tail += "\nalias MH acceptance: " + ", ".join(
            f"{backend} {rate:.3f}"
            for backend, rate in sorted(rates.items()))
    return f"{table}\n{tail}"


@dataclass(frozen=True)
class SparseScalingRow:
    """Sparse/alias-vs-fast throughput at one source size ``B``."""

    num_topics: int
    fast_tokens_per_second: float
    sparse_tokens_per_second: float
    sparse_consistent: bool
    alias_tokens_per_second: float
    alias_consistent: bool
    alias_acceptance_rate: float | None
    alias_auto_tokens_per_second: float
    """Alias engine with ``rebuild_every="auto"`` — the table-rebuild
    cadence scaled to ``B`` by
    :func:`~repro.sampling.alias_engine.resolve_rebuild_every` instead
    of the fixed default."""
    alias_auto_consistent: bool

    @property
    def sparse_vs_fast(self) -> float:
        return (self.sparse_tokens_per_second
                / self.fast_tokens_per_second)

    @property
    def alias_vs_sparse(self) -> float:
        return (self.alias_tokens_per_second
                / self.sparse_tokens_per_second)

    @property
    def auto_vs_alias(self) -> float:
        return (self.alias_auto_tokens_per_second
                / self.alias_tokens_per_second)


@dataclass
class SparseScalingResult:
    rows: list[SparseScalingRow]
    approximation_steps: int
    num_tokens: int


def run_sparse_scaling(topic_grid: tuple[int, ...] = (500, 2000, 8000),
                       approximation_steps: int = 16,
                       num_documents: int = 20,
                       document_length: int = 50,
                       vocab_size: int = 1000,
                       sweeps: int = 2,
                       seed: int = 0) -> SparseScalingResult:
    """Sparse/alias-vs-fast tokens/sec across a grid of sizes ``B``.

    The fast engine's per-token cost is O(S) (weight pass plus a full
    cumulative sum); the sparse engine's bucket walks touch only the
    nonzero count topics, so its advantage should *grow* with ``B`` —
    the ROADMAP claim this bench pins down.  The alias engine's MH
    proposals are O(1) amortized per token, so *its* advantage over
    sparse should in turn grow with ``B`` (the stale word tables
    amortize their O(B) rebuild over ``rebuild_every`` draws while the
    sparse walk still scans the nonzero topics of every row).  The
    reference engine is omitted: at the top of the grid its O(S * A)
    per-token cost would dominate the bench for no extra information.
    """
    if len(topic_grid) < 2:
        raise ValueError(
            f"topic_grid needs at least two sizes, got {topic_grid}")
    rows = []
    num_tokens = 0
    for num_topics in topic_grid:
        alpha = default_alpha(num_topics)
        corpus, prior, grid, tables = _source_workload(
            num_topics, vocab_size, num_documents, document_length,
            approximation_steps, seed)
        num_tokens = corpus.num_tokens
        # Pinned to the python backend like run_engine_speedup: the
        # sparse/fast and alias/sparse ratios are engine comparisons,
        # and the compiled backend covers only part of the lanes today.
        fast_tps, _, _, _ = _time_source_sweeps(
            corpus, prior, grid, tables, "fast", alpha, seed, sweeps,
            backend="python")
        sparse_tps, _, sparse_ok, _ = _time_source_sweeps(
            corpus, prior, grid, tables, "sparse", alpha, seed, sweeps,
            backend="python")
        alias_tps, _, alias_ok, acceptance = _time_source_sweeps(
            corpus, prior, grid, tables, "alias", alpha, seed, sweeps,
            backend="python")
        # The same engine with rebuild_every="auto": the rebuild
        # cadence stretches with B (B // 64 past the default), so the
        # O(B) table rebuilds stay amortized at the top of the grid.
        auto_tps, _, auto_ok, _ = _time_source_sweeps(
            corpus, prior, grid, tables, "alias", alpha, seed, sweeps,
            backend="python", rebuild_every="auto")
        rows.append(SparseScalingRow(
            num_topics=num_topics,
            fast_tokens_per_second=fast_tps,
            sparse_tokens_per_second=sparse_tps,
            sparse_consistent=sparse_ok,
            alias_tokens_per_second=alias_tps,
            alias_consistent=alias_ok,
            alias_acceptance_rate=acceptance,
            alias_auto_tokens_per_second=auto_tps,
            alias_auto_consistent=auto_ok))
    return SparseScalingResult(rows=rows,
                               approximation_steps=approximation_steps,
                               num_tokens=num_tokens)


def format_sparse_scaling(result: SparseScalingResult) -> str:
    table = format_table(
        ["topics (B)", "fast tok/s", "sparse tok/s", "sparse/fast",
         "alias tok/s", "alias/sparse", "MH accept",
         "alias-auto tok/s", "auto/alias"],
        [[row.num_topics, row.fast_tokens_per_second,
          row.sparse_tokens_per_second, row.sparse_vs_fast,
          row.alias_tokens_per_second, row.alias_vs_sparse,
          "n/a" if row.alias_acceptance_rate is None
          else row.alias_acceptance_rate,
          row.alias_auto_tokens_per_second, row.auto_vs_alias]
         for row in result.rows],
        title=(f"Sparse/alias engine advantage vs B - "
               f"A={result.approximation_steps}, "
               f"{result.num_tokens} tokens"))
    consistent = all(row.sparse_consistent and row.alias_consistent
                     and row.alias_auto_consistent
                     for row in result.rows)
    return (f"{table}\nsparse+alias counts consistent at every B: "
            f"{consistent}")


@dataclass(frozen=True)
class ServingThroughputRow:
    """Fold-in serving throughput at one batch size."""

    batch_size: int
    docs_per_second: float
    tokens_per_second: float


@dataclass
class ServingThroughput:
    rows: list[ServingThroughputRow]
    num_topics: int
    num_query_documents: int
    query_document_length: int
    foldin_iterations: int
    mode: str
    model_class: str


def _serving_workload(num_source_topics: int, vocab_size: int,
                      num_train_documents: int,
                      train_document_length: int, train_iterations: int,
                      num_query_documents: int,
                      query_document_length: int, seed: int):
    """Fitted bijective Source-LDA model plus raw-text queries — the
    one workload every serving bench times, shared so their docs/sec
    figures stay comparable (the serving twin of the sweep benches'
    ``_source_workload``).

    Query text is drawn from the full Zipf lexicon: mostly
    in-vocabulary, with the tail words exercising the OOV-drop path.
    """
    source = random_topic_source(num_source_topics,
                                 vocab_size=vocab_size,
                                 article_length=80, seed=seed)
    vocabulary = source.vocabulary().freeze()
    rng = ensure_rng(seed)
    id_lists = [rng.integers(0, len(vocabulary),
                             size=train_document_length).tolist()
                for _ in range(num_train_documents)]
    corpus = Corpus.from_word_id_lists(id_lists, vocabulary)
    fitted = BijectiveSourceLDA(source, alpha=0.5).fit(
        corpus, iterations=train_iterations, seed=seed)
    lexicon = make_lexicon(vocab_size, seed=seed)
    pmf = zipf_probabilities(vocab_size)
    queries = [" ".join(
        lexicon[i] for i in rng.choice(vocab_size,
                                       size=query_document_length, p=pmf))
        for _ in range(num_query_documents)]
    return fitted, queries


def run_serving_throughput(num_source_topics: int = 40,
                           vocab_size: int = 300,
                           num_train_documents: int = 40,
                           train_document_length: int = 80,
                           train_iterations: int = 15,
                           num_query_documents: int = 48,
                           query_document_length: int = 40,
                           foldin_iterations: int = 20,
                           batch_sizes: tuple[int, ...] = (1, 8, 32),
                           mode: str = "sparse",
                           seed: int = 0) -> ServingThroughput:
    """Time the full save -> load -> serve path of ``repro.serving``.

    Fits a bijective Source-LDA model on a random-topic workload,
    persists it through :func:`repro.serving.save_model`, reloads it,
    and serves batches of raw-text query documents (drawn from the same
    Zipf lexicon, so a realistic fraction is in-vocabulary) through an
    :class:`~repro.serving.InferenceSession` at each batch size.
    """
    import tempfile

    from repro.serving import InferenceSession, load_model, save_model

    fitted, queries = _serving_workload(
        num_source_topics, vocab_size, num_train_documents,
        train_document_length, train_iterations, num_query_documents,
        query_document_length, seed)

    with tempfile.TemporaryDirectory() as tmp:
        save_model(fitted, f"{tmp}/model", model_class="BijectiveSourceLDA")
        loaded = load_model(f"{tmp}/model")
    rows = []
    for batch_size in batch_sizes:
        session = InferenceSession(loaded, iterations=foldin_iterations,
                                   mode=mode, batch_size=batch_size,
                                   seed=seed)
        session.theta(queries[:batch_size])  # warm-up: buffers, caches
        start = perf_counter()
        result = session.infer(queries)
        elapsed = perf_counter() - start
        rows.append(ServingThroughputRow(
            batch_size=batch_size,
            docs_per_second=num_query_documents / elapsed,
            tokens_per_second=float(result.num_tokens.sum()) / elapsed))
    return ServingThroughput(rows=rows,
                             num_topics=fitted.num_topics,
                             num_query_documents=num_query_documents,
                             query_document_length=query_document_length,
                             foldin_iterations=foldin_iterations,
                             mode=mode,
                             model_class="BijectiveSourceLDA")


@dataclass(frozen=True)
class ParallelServingRow:
    """Serving throughput at one worker count."""

    num_workers: int
    docs_per_second: float
    tokens_per_second: float
    #: Per-worker ``busy_seconds / wall`` over the timed batch, keyed by
    #: worker pid (the inline path reports the parent pid).  On a
    #: single-core host these sum to ~1 at every worker count — the
    #: machine-visible reason the docs/sec column is flat there.
    worker_utilization: dict[str, float]
    #: Mean of the per-worker fractions: busy / (wall * workers).
    pool_utilization: float


@dataclass
class ParallelServing:
    rows: list[ParallelServingRow]
    deterministic: bool
    """Same seed ⇒ bit-identical theta across every worker count AND
    across a v1 (in-memory) vs one-shard v3 (mmap) artifact load."""
    phi_mmapped: bool
    num_cores: int
    num_topics: int
    num_query_documents: int
    query_document_length: int
    foldin_iterations: int
    mode: str


def run_parallel_serving(num_source_topics: int = 40,
                         vocab_size: int = 300,
                         num_train_documents: int = 40,
                         train_document_length: int = 80,
                         train_iterations: int = 15,
                         num_query_documents: int = 64,
                         query_document_length: int = 40,
                         foldin_iterations: int = 20,
                         worker_counts: tuple[int, ...] = (1, 2, 4),
                         mode: str = "sparse",
                         seed: int = 0) -> ParallelServing:
    """Worker-sharded serving: docs/sec at several worker counts, plus
    the determinism contract of :mod:`repro.serving.parallel`.

    The model is persisted twice — a v1 artifact (phi inside the
    compressed npz) and a one-shard schema-v3 artifact
    (``mmap_phi=True``) whose uncompressed phi member is memory-mapped
    — and both must serve bit-identical theta on a fixed seed at
    *every* worker count (per-document RNG streams make shard
    boundaries invisible).  Throughput rows time the mmap path end to
    end, worker pool spin-up excluded (a warm-up batch
    spawns it, as a long-lived server would), and carry each worker's
    ``busy_seconds / wall`` utilization from the telemetry recorder —
    on a one-core host the fractions sum to ~1 however many workers
    run, which is why the throughput column is flat there.
    """
    import tempfile

    from repro.serving import (InferenceSession, available_cpus,
                               load_model, save_model)
    from repro.telemetry import InMemoryRecorder

    fitted, queries = _serving_workload(
        num_source_topics, vocab_size, num_train_documents,
        train_document_length, train_iterations, num_query_documents,
        query_document_length, seed)

    rows = []
    deterministic = True
    reference_theta = None
    with tempfile.TemporaryDirectory() as tmp:
        save_model(fitted, f"{tmp}/v1", model_class="BijectiveSourceLDA")
        save_model(fitted, f"{tmp}/v3", model_class="BijectiveSourceLDA",
                   mmap_phi=True)
        loaded_v1 = load_model(f"{tmp}/v1")
        loaded_v3 = load_model(f"{tmp}/v3", mmap_phi=True)
        for workers in worker_counts:
            recorder = InMemoryRecorder()
            with InferenceSession(loaded_v3,
                                  iterations=foldin_iterations,
                                  mode=mode, seed=seed,
                                  num_workers=workers,
                                  recorder=recorder) as session:
                session.theta(queries[:4])  # warm-up: pool + buffers
                recorder.reset()  # utilization covers the timed batch
                start = perf_counter()
                result = session.infer(queries)
                elapsed = perf_counter() - start
            busy = recorder.counter_series(
                "serving.worker.busy_seconds")
            rows.append(ParallelServingRow(
                num_workers=workers,
                docs_per_second=num_query_documents / elapsed,
                tokens_per_second=float(result.num_tokens.sum())
                / elapsed,
                worker_utilization={
                    str(dict(labels).get("worker")): value / elapsed
                    for labels, value in sorted(busy.items())},
                pool_utilization=sum(busy.values())
                / (elapsed * workers)))
            # Determinism probe at this worker count: fixed seed 123,
            # both artifact flavors.
            for loaded in (loaded_v1, loaded_v3):
                with InferenceSession(loaded,
                                      iterations=foldin_iterations,
                                      mode=mode, seed=123,
                                      num_workers=workers) as probe:
                    theta = probe.theta(queries)
                if reference_theta is None:
                    reference_theta = theta
                elif not np.array_equal(reference_theta, theta):
                    deterministic = False
        phi_mmapped = loaded_v3.phi_mmapped
        loaded_v3.close()
    return ParallelServing(rows=rows, deterministic=deterministic,
                           phi_mmapped=phi_mmapped,
                           num_cores=available_cpus(),
                           num_topics=fitted.num_topics,
                           num_query_documents=num_query_documents,
                           query_document_length=query_document_length,
                           foldin_iterations=foldin_iterations,
                           mode=mode)


@dataclass(frozen=True)
class ElasticServingRow:
    """Per-request latency percentiles for one hedging setting."""

    hedging: bool
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    mean_seconds: float
    hedges_issued: int
    hedges_won: int
    wasted_tokens: int


@dataclass
class ElasticServing:
    rows: list[ElasticServingRow]
    """Exactly two rows: hedging off, then hedging on."""
    deterministic: bool
    """Hedged theta bit-identical to unhedged theta on every request."""
    p99_ratio: float
    """Hedged p99 / unhedged p99 — the tail-rescue factor."""
    elastic_deterministic: bool
    """Elastic-pool (min != max workers) theta bit-identical to the
    inline single-worker reference across a resize-forcing sequence."""
    pool_grown: int
    pool_shrunk: int
    straggler_sleep_seconds: float
    num_requests: int
    docs_per_request: int
    num_workers: int
    task_docs: int
    num_topics: int
    foldin_iterations: int
    mode: str


def _latency_percentile(latencies: list[float], q: float) -> float:
    """Exact nearest-rank percentile (matches the telemetry
    histograms' convention — no interpolation)."""
    data = sorted(latencies)
    return data[max(1, math.ceil(q * len(data))) - 1]


def run_elastic_serving(num_topics: int = 32,
                        vocab_size: int = 300,
                        num_requests: int = 16,
                        docs_per_request: int = 8,
                        foldin_iterations: int = 20,
                        num_workers: int = 4,
                        task_docs: int = 1,
                        straggler_sleep: float = 0.5,
                        mode: str = "sparse",
                        seed: int = 0) -> ElasticServing:
    """Tail latency under a reproducible straggler: hedging off vs on.

    One pool worker is made a deterministic straggler via the
    :class:`~repro.serving.parallel.WorkerFault` hook (it sleeps
    ``straggler_sleep`` seconds per task — a stall, not CPU work, so
    the measurement holds even on a one-core host).  Every request is
    a skewed batch (mostly short documents plus one heavy one), served
    twice with identical per-request seeds: once with hedging
    disabled, where each request's latency is pinned to the straggler,
    and once under an aggressive :class:`HedgePolicy`, where the
    dispatcher re-submits the stuck task to a healthy worker and the
    first result wins.  Theta must be bit-identical between the two
    runs (per-document RNG streams make the duplicate execution
    invisible), and the hedge counters price the rescue in wasted
    tokens.

    A third, fault-free pass drives an elastic pool
    (``min_workers=1 .. num_workers``) through a resize-forcing batch
    sequence and checks it against the inline single-worker reference.
    """
    from repro.serving import (FoldInEngine, HedgePolicy,
                               ParallelFoldIn, WorkerFault)
    from repro.telemetry import InMemoryRecorder

    rng = ensure_rng(seed)
    phi = rng.dirichlet(np.ones(vocab_size), size=num_topics)
    requests = []
    for _ in range(num_requests):
        lengths = rng.integers(8, 24, size=docs_per_request)
        lengths[int(rng.integers(docs_per_request))] = 120  # heavy doc
        requests.append([rng.integers(0, vocab_size, size=int(n))
                         for n in lengths])
    fault = WorkerFault(sleep_seconds=straggler_sleep, rank=0)
    # Anchor the hedge threshold to the *median* healthy-task latency.
    # Hedged wins are observed at threshold + rescue time; with one
    # straggler in ``docs_per_request`` tasks those slow observations
    # make up ~1/8 of the window, so a q90 nearest-rank cut can land on
    # them and escalate the threshold run over run.  The median cannot.
    policy = HedgePolicy(quantile=0.5, multiplier=3.0, min_wait=0.02,
                         max_hedges=2)

    def serve(hedge):
        engine = FoldInEngine(phi, 0.5, iterations=foldin_iterations,
                              mode=mode)
        recorder = InMemoryRecorder()
        thetas, latencies = [], []
        with ParallelFoldIn(engine, num_workers=num_workers,
                            recorder=recorder, task_docs=task_docs,
                            hedge=hedge, fault=fault) as foldin:
            foldin.warm_up()
            for index, docs in enumerate(requests):
                start = perf_counter()
                thetas.append(foldin.theta(
                    docs, seed=np.random.SeedSequence([seed, index])))
                latencies.append(perf_counter() - start)
        # Pool drained: the loser-side wasted_tokens counter is final.
        return thetas, latencies, recorder

    rows = []
    all_thetas = []
    for hedge in (None, policy):
        thetas, latencies, recorder = serve(hedge)
        all_thetas.append(thetas)
        rows.append(ElasticServingRow(
            hedging=hedge is not None,
            p50_seconds=_latency_percentile(latencies, 0.50),
            p95_seconds=_latency_percentile(latencies, 0.95),
            p99_seconds=_latency_percentile(latencies, 0.99),
            mean_seconds=sum(latencies) / len(latencies),
            hedges_issued=int(recorder.counter_total(
                "serving.hedge.issued")),
            hedges_won=int(recorder.counter_total(
                "serving.hedge.won")),
            wasted_tokens=int(recorder.counter_total(
                "serving.hedge.wasted_tokens"))))
    deterministic = all(
        np.array_equal(unhedged, hedged)
        for unhedged, hedged in zip(*all_thetas))

    # Elastic pool: no fault, batch sizes force a grow, a patient
    # shrink, and a regrow; theta must match the inline reference.
    engine = FoldInEngine(phi, 0.5, iterations=foldin_iterations,
                          mode=mode)
    reference = ParallelFoldIn(FoldInEngine(
        phi, 0.5, iterations=foldin_iterations, mode=mode))
    pattern = [requests[0], requests[1][:2], requests[2][:2],
               requests[3][:2], requests[0]]
    elastic_recorder = InMemoryRecorder()
    elastic_deterministic = True
    with ParallelFoldIn(engine, num_workers=1, min_workers=1,
                        max_workers=num_workers,
                        recorder=elastic_recorder,
                        task_docs=task_docs) as foldin:
        for index, docs in enumerate(pattern):
            call_seed = [seed, 7, index]
            got = foldin.theta(
                docs, seed=np.random.SeedSequence(call_seed))
            want = reference.theta(
                docs, seed=np.random.SeedSequence(call_seed))
            if not np.array_equal(got, want):
                elastic_deterministic = False

    return ElasticServing(
        rows=rows, deterministic=deterministic,
        p99_ratio=rows[1].p99_seconds / rows[0].p99_seconds,
        elastic_deterministic=elastic_deterministic,
        pool_grown=int(elastic_recorder.counter_total(
            "serving.pool.grown")),
        pool_shrunk=int(elastic_recorder.counter_total(
            "serving.pool.shrunk")),
        straggler_sleep_seconds=straggler_sleep,
        num_requests=num_requests,
        docs_per_request=docs_per_request,
        num_workers=num_workers, task_docs=task_docs,
        num_topics=num_topics,
        foldin_iterations=foldin_iterations, mode=mode)


@dataclass(frozen=True)
class ShardedServingRow:
    """Serving throughput + mapped-phi footprint at one shard layout."""

    target_shards: int
    num_shards: int
    shard_words: int
    docs_per_second: float
    tokens_per_second: float
    quartile_mapped_bytes: int
    quartile_mapped_fraction: float


@dataclass
class ShardedServing:
    rows: list[ShardedServingRow]
    baseline_docs_per_second: float
    """Unsharded (v1, in-memory phi) serving throughput — the parity
    reference for the single-shard fast path."""
    deterministic: bool
    """Same seed ⇒ bit-identical theta across the unsharded load and
    every shard layout."""
    phi_nbytes: int
    num_topics: int
    vocab_size: int
    num_query_documents: int
    query_document_length: int
    foldin_iterations: int
    mode: str


def run_sharded_serving(num_source_topics: int = 40,
                        vocab_size: int = 320,
                        num_train_documents: int = 40,
                        train_document_length: int = 80,
                        train_iterations: int = 15,
                        num_query_documents: int = 48,
                        query_document_length: int = 40,
                        foldin_iterations: int = 20,
                        shard_counts: tuple[int, ...] = (1, 4, 16),
                        mode: str = "sparse",
                        timing_repeats: int = 3,
                        seed: int = 0) -> ShardedServing:
    """Out-of-core serving: throughput and mapped-phi footprint vs
    shard count (schema v3, :mod:`repro.serving.sharding`).

    For each target shard count the model is persisted column-sharded
    (``shard_words = V // target``, so the leading ``target // 4``
    shards never exceed a quarter of the matrix), reloaded lazily, and
    serves the full raw-text query set through an
    :class:`~repro.serving.InferenceSession` — that times the
    end-to-end sharded path against the unsharded baseline.  A second,
    *fresh* (nothing mapped) load then folds in a batch confined to
    the first quarter of the shard layout and reports how many phi
    bytes actually mapped: the out-of-core claim is that the footprint
    tracks the batch's vocabulary, not the matrix (1/4-ish of phi at
    16 shards, all of it at 1).

    The determinism probe re-serves a fixed seed on every layout and
    on the unsharded artifact: sharding is storage, so theta must be
    bit-identical throughout.

    Each timing is the best of ``timing_repeats`` fresh sessions, and
    the repeats are **interleaved across layouts** (every pass serves
    the baseline and every shard count once): the workload is
    sub-second at bench scale, where host drift — frequency scaling,
    cache state — swings a measurement 20%+ between the start and end
    of the run, and the baseline-vs-shards=1 parity claim must compare
    layouts under the same drift, not whichever was timed last.
    """
    import tempfile

    from repro.serving import InferenceSession, load_model, save_model
    from repro.serving.foldin import FoldInEngine

    fitted, queries = _serving_workload(
        num_source_topics, vocab_size, num_train_documents,
        train_document_length, train_iterations, num_query_documents,
        query_document_length, seed)
    actual_vocab = fitted.vocab_size
    rng = ensure_rng(seed + 1)

    def serve_once(loaded):
        """One timed serve of the full query set in a fresh session."""
        with InferenceSession(loaded, iterations=foldin_iterations,
                              mode=mode, seed=seed) as session:
            session.theta(queries[:4])  # warm-up: buffers, tables
            start = perf_counter()
            result = session.infer(queries)
            return perf_counter() - start, result

    rows = []
    deterministic = True
    phi_nbytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        save_model(fitted, f"{tmp}/plain",
                   model_class="BijectiveSourceLDA")
        loads: dict = {"baseline": load_model(f"{tmp}/plain")}
        shard_words_of = {}
        for target in shard_counts:
            shard_words_of[target] = max(1, actual_vocab // target)
            save_model(fitted, f"{tmp}/shards{target}",
                       model_class="BijectiveSourceLDA",
                       shard_words=shard_words_of[target])
            loads[target] = load_model(f"{tmp}/shards{target}")
        # Interleaved best-of timing (see docstring): each pass serves
        # every layout once, in a fixed order.
        best = {key: float("inf") for key in loads}
        served = {}
        for _ in range(max(1, timing_repeats)):
            for key, loaded in loads.items():
                elapsed, served[key] = serve_once(loaded)
                best[key] = min(best[key], elapsed)
        baseline_dps = num_query_documents / best["baseline"]
        with InferenceSession(loads["baseline"],
                              iterations=foldin_iterations,
                              mode=mode, seed=123) as probe:
            reference_theta = probe.theta(queries)
        loads["baseline"].close()
        for target in shard_counts:
            shard_words = shard_words_of[target]
            path = f"{tmp}/shards{target}"
            loaded = loads[target]
            phi_nbytes = loaded.model.phi.T.nbytes
            elapsed, result = best[target], served[target]
            with InferenceSession(loaded, iterations=foldin_iterations,
                                  mode=mode, seed=123) as probe:
                if not np.array_equal(reference_theta,
                                      probe.theta(queries)):
                    deterministic = False
            loaded.close()
            # Footprint probe on a fresh, unmapped load: a batch
            # confined to the words of the leading quarter of the
            # shard layout (the whole single shard at target=1).
            probe_loaded = load_model(path)
            sharded = probe_loaded.model.phi.T
            front = max(1, target // 4)
            stop_word = sharded.shard_ranges[front - 1][1]
            quartile_docs = [
                rng.integers(0, stop_word, size=query_document_length)
                for _ in range(max(1, num_query_documents // 4))]
            engine = FoldInEngine(probe_loaded.model.phi, 0.5,
                                  iterations=foldin_iterations,
                                  mode=mode)
            engine.theta(quartile_docs, rng=seed)
            mapped = sharded.mapped_bytes
            rows.append(ShardedServingRow(
                target_shards=target,
                num_shards=sharded.num_shards,
                shard_words=shard_words,
                docs_per_second=num_query_documents / elapsed,
                tokens_per_second=float(result.num_tokens.sum())
                / elapsed,
                quartile_mapped_bytes=mapped,
                quartile_mapped_fraction=mapped / sharded.nbytes))
            probe_loaded.close()
    return ShardedServing(rows=rows,
                          baseline_docs_per_second=baseline_dps,
                          deterministic=deterministic,
                          phi_nbytes=phi_nbytes,
                          num_topics=fitted.num_topics,
                          vocab_size=actual_vocab,
                          num_query_documents=num_query_documents,
                          query_document_length=query_document_length,
                          foldin_iterations=foldin_iterations,
                          mode=mode)


def format_sharded_serving(result: ShardedServing) -> str:
    table = format_table(
        ["shards", "shard words", "docs/sec", "tokens/sec",
         "1/4-batch mapped KiB", "mapped fraction"],
        [[row.num_shards, row.shard_words, row.docs_per_second,
          row.tokens_per_second, row.quartile_mapped_bytes / 1024,
          row.quartile_mapped_fraction]
         for row in result.rows],
        title=(f"Column-sharded serving - T={result.num_topics}, "
               f"V={result.vocab_size} "
               f"(phi {result.phi_nbytes / 1024:.0f} KiB), "
               f"{result.num_query_documents} query docs x "
               f"{result.query_document_length} tokens, "
               f"{result.foldin_iterations} fold-in sweeps, "
               f"mode={result.mode}"))
    return (f"{table}\n"
            f"unsharded baseline: "
            f"{result.baseline_docs_per_second:.1f} docs/sec\n"
            f"theta bit-identical across shard layouts: "
            f"{result.deterministic}")


def format_elastic_serving(result: ElasticServing) -> str:
    table = format_table(
        ["hedging", "p50 (s)", "p95 (s)", "p99 (s)", "mean (s)",
         "hedges", "won", "wasted tokens"],
        [[("on" if row.hedging else "off"), row.p50_seconds,
          row.p95_seconds, row.p99_seconds, row.mean_seconds,
          row.hedges_issued, row.hedges_won, row.wasted_tokens]
         for row in result.rows],
        title=(f"Elastic serving - {result.num_requests} requests x "
               f"{result.docs_per_request} docs, "
               f"{result.num_workers} workers, "
               f"task_docs={result.task_docs}, straggler sleeps "
               f"{result.straggler_sleep_seconds:.2f}s/task, "
               f"T={result.num_topics}, "
               f"{result.foldin_iterations} fold-in sweeps, "
               f"mode={result.mode}"))
    return (f"{table}\n"
            f"hedged p99 / unhedged p99: {result.p99_ratio:.3f}\n"
            f"theta bit-identical hedged vs unhedged: "
            f"{result.deterministic}\n"
            f"elastic pool: grew {result.pool_grown}x, shrank "
            f"{result.pool_shrunk}x, bit-identical vs inline: "
            f"{result.elastic_deterministic}")


def format_parallel_serving(result: ParallelServing) -> str:
    table = format_table(
        ["workers", "docs/sec", "tokens/sec", "pool util"],
        [[row.num_workers, row.docs_per_second, row.tokens_per_second,
          row.pool_utilization]
         for row in result.rows],
        title=(f"Parallel serving - T={result.num_topics}, "
               f"{result.num_query_documents} query docs x "
               f"{result.query_document_length} tokens, "
               f"{result.foldin_iterations} fold-in sweeps, "
               f"mode={result.mode}, {result.num_cores} core(s)"))
    return (f"{table}\n"
            f"theta bit-identical across workers and v1-vs-one-shard-v3: "
            f"{result.deterministic}\n"
            f"one-shard v3 phi served from mmap: {result.phi_mmapped}")


def format_serving_throughput(result: ServingThroughput) -> str:
    table = format_table(
        ["batch size", "docs/sec", "tokens/sec"],
        [[row.batch_size, row.docs_per_second, row.tokens_per_second]
         for row in result.rows],
        title=(f"Serving throughput - {result.model_class}, "
               f"T={result.num_topics}, "
               f"{result.num_query_documents} query docs x "
               f"{result.query_document_length} tokens, "
               f"{result.foldin_iterations} fold-in sweeps, "
               f"mode={result.mode}"))
    return table


def format_scaling(result: ScalingResult) -> str:
    headers = (["topics (B)"]
               + [f"measured {t}t (s)" for t in result.thread_counts]
               + [f"modeled {t}t (s)" for t in result.thread_counts])
    table_rows = []
    for row in result.rows:
        table_rows.append(
            [row.num_topics]
            + [row.measured_seconds[t] for t in result.thread_counts]
            + [row.modeled_seconds[t] for t in result.thread_counts])
    table = format_table(headers, table_rows,
                         title="Fig. 8(f) - average iteration time")
    verdict = (f"single-thread time linear in B: "
               f"{result.is_linear_in_topics()}")
    return table + "\n" + verdict


@dataclass
class TelemetryOverhead:
    """Recorder-on vs recorder-off fold-in throughput on one workload."""

    docs_per_second_off: float
    docs_per_second_on: float
    identical: bool
    """Bit-identical theta recorder-on vs off on the same seed."""
    snapshot: dict
    """The live recorder's final ``snapshot()`` (one timed run's worth
    of counters/histograms — stamped into the bench record)."""
    num_topics: int
    num_documents: int
    document_length: int
    foldin_iterations: int
    mode: str
    repeats: int

    @property
    def overhead_ratio(self) -> float:
        """``on / off`` throughput: 1.0 = recording is free, 0.95 =
        5% throughput lost to the live recorder."""
        return self.docs_per_second_on / self.docs_per_second_off


def run_telemetry_overhead(num_topics: int = 50,
                           vocab_size: int = 2000,
                           num_documents: int = 2000,
                           document_length: int = 40,
                           foldin_iterations: int = 5,
                           mode: str = "sparse",
                           repeats: int = 3,
                           seed: int = 0) -> TelemetryOverhead:
    """Measure what a live :class:`~repro.telemetry.InMemoryRecorder`
    costs on a batched fold-in workload.

    Two engines over the same random-Dirichlet phi — one with the
    default null recorder, one with a live in-memory recorder — fold in
    the same ``num_documents`` Zipf-drawn query documents on the same
    seed.  Runs are **interleaved best-of-``repeats``** (off, on, off,
    on, ...) so machine noise hits both sides alike, and the thetas are
    compared bit for bit: instrumentation must never touch the draw
    stream.  Fold-in instrumentation is per *batch*, so the measured
    overhead is a handful of recorder calls per ``batch_size``
    documents — the property the <= 5% gate in
    ``benchmarks/test_bench_telemetry_overhead.py`` enforces.
    """
    from repro.serving import FoldInEngine
    from repro.telemetry import InMemoryRecorder

    rng = ensure_rng(seed)
    phi = rng.dirichlet(np.full(vocab_size, 0.05), size=num_topics)
    pmf = zipf_probabilities(vocab_size)
    documents = [rng.choice(vocab_size, size=document_length, p=pmf)
                 .astype(np.int64) for _ in range(num_documents)]

    alpha = default_alpha(num_topics)
    engine_off = FoldInEngine(phi, alpha, iterations=foldin_iterations,
                              mode=mode, validate=False)
    recorder = InMemoryRecorder()
    engine_on = FoldInEngine(phi, alpha, iterations=foldin_iterations,
                             mode=mode, validate=False,
                             recorder=recorder)

    warm = documents[:64]
    theta_off = theta_on = None
    best_off = best_on = float("inf")
    for engine in (engine_off, engine_on):  # buffers, tables, caches
        engine.theta(warm, rng=ensure_rng(seed))
    for _ in range(repeats):
        recorder.reset()  # keep the snapshot to one timed run's worth
        start = perf_counter()
        theta_off = engine_off.theta(documents, rng=ensure_rng(seed))
        best_off = min(best_off, perf_counter() - start)
        start = perf_counter()
        theta_on = engine_on.theta(documents, rng=ensure_rng(seed))
        best_on = min(best_on, perf_counter() - start)

    return TelemetryOverhead(
        docs_per_second_off=num_documents / best_off,
        docs_per_second_on=num_documents / best_on,
        identical=bool(np.array_equal(theta_off, theta_on)),
        snapshot=recorder.snapshot(),
        num_topics=num_topics,
        num_documents=num_documents,
        document_length=document_length,
        foldin_iterations=foldin_iterations,
        mode=mode,
        repeats=repeats)


def format_telemetry_overhead(result: TelemetryOverhead) -> str:
    table = format_table(
        ["recorder", "docs/sec"],
        [["off (NullRecorder)", result.docs_per_second_off],
         ["on (InMemoryRecorder)", result.docs_per_second_on]],
        title=(f"Telemetry overhead - fold-in, T={result.num_topics}, "
               f"{result.num_documents} docs x "
               f"{result.document_length} tokens, "
               f"{result.foldin_iterations} sweeps, mode={result.mode}, "
               f"best of {result.repeats}"))
    verdict = (f"throughput ratio on/off: {result.overhead_ratio:.3f}  "
               f"bit-identical theta: {result.identical}")
    return table + "\n" + verdict
