"""The layer map: what the traced run wraps, what it reports, and which
end-to-end metric each per-layer metric should move on which workload.

Layers are named after the program's modules.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

from spans import Target

#: Public functions wrapped in the traced run, with their span names.
TARGETS = (
    Target("repro.text.corpus", "Corpus.from_texts", "text.corpus_build"),
    Target("repro.knowledge.source", "KnowledgeSource.from_texts",
           "knowledge.source_build"),
    Target("repro.core.source_lda", "SourceLDA.fit", "models.fit"),
    Target("repro.core.priors", "SourcePrior.__init__", "core.prior"),
    Target("repro.core.source_lda", "informed_word_topic_probs",
           "core.prior"),
    Target("repro.core.source_lda", "calibrate_smoothing", "core.calibrate"),
    Target("repro.core.priors", "SourcePrior.grid_tables",
           "core.grid_tables"),
    Target("repro.core.kernels", "SourceTopicsKernel.phi", "core.phi"),
    Target("repro.core.source_lda", "topic_document_frequencies_from_counts",
           "core.reduce"),
    Target("repro.core.source_lda", "reduce_by_count_frequency",
           "core.reduce"),
    Target("repro.sampling.state", "GibbsState.__init__", "sampling.init"),
    Target("repro.sampling.state", "GibbsState.initialize_informed",
           "sampling.init"),
    Target("repro.sampling.state", "GibbsState.initialize_random",
           "sampling.init"),
    Target("repro.sampling.gibbs", "CollapsedGibbsSampler.__init__",
           "sampling.init"),
    Target("repro.sampling.gibbs", "CollapsedGibbsSampler.sweep",
           "sampling.sweep"),
    Target("repro.core.kernels", "SourceTopicsKernel.log_likelihood",
           "sampling.log_likelihood"),
    Target("repro.core.source_lda", "posterior_theta", "models.theta"),
    Target("repro.serving.registry", "ModelRegistry.__init__",
           "artifacts.load"),
    Target("repro.serving.registry", "ModelRegistry.load", "artifacts.load"),
    Target("repro.serving.session", "InferenceSession.__init__",
           "session.build"),
    Target("repro.serving.session", "InferenceSession.warm_up",
           "parallel.warm_up"),
    Target("repro.serving.session", "InferenceSession.infer",
           "session.infer"),
    Target("repro.serving.session", "InferenceSession.encode", "text.encode"),
    Target("repro.serving.parallel", "ParallelFoldIn.theta",
           "parallel.theta"),
    Target("repro.serving.foldin", "FoldInEngine.theta_document",
           "foldin.document"),
)

#: Per-layer metrics of the traced run: name -> (unit, what it measures,
#: the end-to-end metric it should move and on which workload).
PER_LAYER = {
    "text.corpus_build_s": (
        "s", "Corpus.from_texts, median per set-up", "setup_s on train"),
    "text.encode_s": (
        "s", "InferenceSession.encode, total over the request window",
        "latency_p50_ms on serve_interactive; negligible on serve_batch"),
    "text.encode_p50_ms": (
        "ms", "InferenceSession.encode, median per request",
        "latency_p50_ms on serve_interactive"),
    "knowledge.source_build_s": (
        "s", "KnowledgeSource.from_texts, median per set-up",
        "setup_s on train"),
    "core.prior_s": (
        "s", "SourcePrior + informed_word_topic_probs, median per fit",
        "tokens_per_s on train (a few %)"),
    "core.calibrate_s": (
        "s", "calibrate_smoothing, median per fit",
        "tokens_per_s on train (a few %)"),
    "core.grid_tables_s": (
        "s", "SourcePrior.grid_tables, median per fit",
        "tokens_per_s on train (a few %)"),
    "core.phi_s": (
        "s", "SourceTopicsKernel.phi, median per fit",
        "tokens_per_s on train (a few %)"),
    "core.reduce_s": (
        "s", "superset reduction, median per fit",
        "tokens_per_s on train (a few %)"),
    "sampling.init_s": (
        "s", "GibbsState build + init + sampler build, median per fit",
        "tokens_per_s on train; none on serve"),
    "sampling.first_sweep_s": (
        "s", "first sweep incl. lazy kernel-table build, median per fit",
        "tokens_per_s on train; none on serve"),
    "sampling.sweep_p50_s": (
        "s", "median later sweep", "tokens_per_s and latency_p50_ms on "
        "train, close to 1:1; none on serve"),
    "sampling.sweep_tokens_per_s": (
        "tok/s", "corpus tokens / sampling.sweep_p50_s",
        "tokens_per_s on train, close to 1:1; none on serve"),
    "sampling.log_likelihood_s": (
        "s", "SourceTopicsKernel.log_likelihood, total per fit",
        "tokens_per_s on train"),
    "models.theta_s": (
        "s", "posterior_theta, median per fit", "tokens_per_s on train"),
    "models.fit_other_s": (
        "s", "SourceLDA.fit self time (work in no wrapped call)",
        "tokens_per_s on train"),
    "artifacts.load_s": (
        "s", "ModelRegistry + load(mmap_phi=True), median per set-up",
        "setup_s on serve_*"),
    "session.build_s": (
        "s", "InferenceSession(...): phi validation, prior-mass and alias "
        "tables, median per set-up", "setup_s on serve_*"),
    "session.other_s": (
        "s", "infer wall - encode - ParallelFoldIn.theta, total over the "
        "request window", "latency_p50_ms on serve_interactive"),
    "foldin.document_p50_ms": (
        "ms", "FoldInEngine.theta_document on the inline path, median",
        "latency_p50_ms on serve_interactive"),
    "foldin.tokens_per_s": (
        "tok/s", "sampled tokens x sweeps / busy time of all fold-in "
        "tasks", "docs_per_s on serve_batch; latency_p50_ms on "
        "serve_interactive by its share"),
    "parallel.warm_up_s": (
        "s", "InferenceSession.warm_up (pool start), median per set-up",
        "setup_s on serve_*"),
    "parallel.theta_s": (
        "s", "ParallelFoldIn.theta self time (dispatch, merge and waiting "
        "on workers), total over the request window",
        "docs_per_s on serve_batch; ~0 on serve_interactive"),
    "parallel.worker_busy_s": (
        "s", "serving.worker.busy_seconds of pool workers, total",
        "docs_per_s on serve_batch; 0 on serve_interactive"),
    "parallel.pool_utilization": (
        "fraction", "worker busy / (pooled theta wall x workers)",
        "docs_per_s on serve_batch; 0 on serve_interactive"),
    "parallel.overhead_s": (
        "s", "pooled theta wall - worker busy / workers, total",
        "docs_per_s on serve_batch; 0 on serve_interactive"),
    "serve.docs": (
        "count", "documents served in the request window (exact)", "-"),
    "serve.tokens": (
        "count", "in-vocabulary tokens served (exact)", "-"),
    "serve.oov_tokens": (
        "count", "out-of-vocabulary tokens dropped (exact)", "-"),
    "foldin.sampled_tokens": (
        "count", "tokens folded in by all tasks (exact)", "-"),
    "parallel.tasks": (
        "count", "tasks dispatched to the pool (exact)", "-"),
    "parallel.hedges_issued": (
        "count", "hedged duplicate tasks (expected 0)", "-"),
    "coverage": (
        "fraction", "sum of layer self times / traced wall time "
        "(checked >= 0.95)", "-"),
    "trace.overhead_ratio": (
        "ratio", "median traced op wall / median untraced op wall", "-"),
    "trace.unmeasured_layers": (
        "count", "wrapped functions that no longer exist", "-"),
    "host.calibration_mops": (
        "Mop/s", "fixed calibration micro-bench on this host", "-"),
}
