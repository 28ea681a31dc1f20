"""The unified sampling runtime: registry, kernel tables, backend parity.

Covers the PR-5 contract:

* the backend registry (``python`` always present, ``numba`` only when
  importable, ``auto`` degrading cleanly without it);
* kernel tables aliasing the live path caches (data, not code);
* the backend-parity matrix — all six model classes and both fold-in
  lanes produce equivalent results on every available backend
  (draw-identical where the lane contract says so, distributionally
  valid elsewhere); the numba half of the matrix skips gracefully on
  machines without numba;
* the vectorized alias-row builder staying bit-identical to the
  sequential Vose reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA, LdaKernel
from repro.sampling.alias import build_alias_rows, build_alias_table
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.runtime import (PythonBackend, available_backends,
                                    resolve_backend)
from repro.sampling.state import GibbsState
from repro.serving.foldin import FoldInEngine

HAVE_NUMBA = "numba" in available_backends()
needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba backend not installed")


def make_state(corpus, num_topics, seed=3):
    state = GibbsState(corpus, num_topics)
    state.initialize_random(np.random.default_rng(seed))
    return state


#: (name, factory) for all six model classes; factories take the
#: knowledge source plus engine/backend kwargs.
def _model_factories(wiki_source):
    return [
        ("lda", lambda **kw: LDA(4, **kw)),
        ("eda", lambda **kw: EDA(wiki_source, **kw)),
        ("ctm", lambda **kw: CTM(wiki_source, num_free_topics=1,
                                 top_n_words=20, **kw)),
        ("bijective", lambda **kw: BijectiveSourceLDA(wiki_source, **kw)),
        ("mixture", lambda **kw: MixtureSourceLDA(wiki_source,
                                                  num_free_topics=2,
                                                  **kw)),
        ("source", lambda **kw: SourceLDA(wiki_source,
                                          num_unlabeled_topics=1,
                                          approximation_steps=3, **kw)),
    ]


class TestRegistry:
    def test_python_backend_always_available(self):
        assert "python" in available_backends()
        assert isinstance(resolve_backend("python"), PythonBackend)

    def test_auto_resolves_to_a_registered_backend(self):
        resolved = resolve_backend("auto")
        assert resolved.name in available_backends()
        if not HAVE_NUMBA:
            # The clean-degradation contract: no numba, auto == python.
            assert resolved.name == "python"

    def test_backend_instance_passes_through(self):
        backend = resolve_backend("python")
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("fortran")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_missing_numba_is_loud_when_explicit(self):
        # auto degrades silently; an explicit request must not.
        with pytest.raises(ValueError, match="numba"):
            resolve_backend("numba")

    def test_sampler_validates_and_reports_backend(self, tiny_corpus):
        state = make_state(tiny_corpus, 2)
        kernel = LdaKernel(state, 0.5, 0.1)
        rng = np.random.default_rng(0)
        sampler = CollapsedGibbsSampler(state, kernel, rng,
                                        backend="python")
        assert sampler.backend == "python"
        with pytest.raises(ValueError, match="backend"):
            CollapsedGibbsSampler(state, kernel, rng, backend="warp")

    def test_auto_fallback_fits_every_model(self, wiki_source,
                                            wiki_corpus):
        # backend="auto" must fit cleanly whatever is installed.
        for name, factory in _model_factories(wiki_source):
            fitted = factory(engine="fast", backend="auto").fit(
                wiki_corpus, iterations=1, seed=5)
            np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0,
                                       err_msg=name)


class TestKernelTables:
    """Tables are views of the live caches — data, not copies."""

    def test_lda_table_aliases_caches(self, tiny_corpus):
        state = make_state(tiny_corpus, 3)
        path = LdaKernel(state, 0.5, 0.1).fast_path()
        table = path.table()
        assert table.kind == "lda"
        assert table.nt_beta is path._nt_beta
        path.begin_sweep()
        np.testing.assert_array_equal(table.nt_beta,
                                      state.nt + 0.1 * state.vocab_size)

    def test_source_table_aliases_caches(self, small_source, tiny_corpus):
        from repro.core.kernels import SourceTopicsKernel
        from repro.core.priors import SourcePrior
        from repro.sampling.integration import LambdaGrid
        prior = SourcePrior(small_source, tiny_corpus.vocabulary)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=3)
        tables = prior.grid_tables(grid.nodes)
        state = make_state(tiny_corpus, prior.num_topics)
        kernel = SourceTopicsKernel(state, num_free=0, alpha=0.5,
                                    beta=0.1, tables=tables, grid=grid)
        dense = kernel.fast_path().table()
        assert dense.kind == "source"
        assert dense.E_flat.base is dense.E
        sparse_path = kernel.sparse_path()
        bij = sparse_path.sparse_table()
        assert bij is not None and bij.kind == "source_bijective"
        # Live-cache sharing: the sparse table reads the fast path's E.
        assert bij.E is sparse_path._fast._E
        # The SparseKernelPath driver protocol (begin_document) must
        # stay callable on a bijective path even though the runtime
        # chunk loop does its own document bookkeeping.
        sparse_path.begin_sweep()
        sparse_path.begin_document(0)

    def test_paths_without_tables_stay_on_object_lane(self, wiki_source,
                                                      wiki_corpus):
        from repro.models.ctm import CtmKernel, concept_word_mask
        mask = concept_word_mask(wiki_source, wiki_corpus.vocabulary,
                                 top_n_words=20)
        state = make_state(wiki_corpus, 2 + len(wiki_source))
        kernel = CtmKernel(state, mask, 2, alpha=0.5, beta=0.1)
        assert kernel.fast_path().table() is None


class TestPythonBackendIsPrePrBehavior:
    """backend="python" must be the engines' historical behavior —
    the existing exactness suites pin python-vs-reference; this pins
    explicit-python vs the default resolution."""

    @pytest.mark.parametrize("engine", ["fast", "sparse"])
    def test_explicit_python_matches_default(self, wiki_source,
                                             wiki_corpus, engine):
        for name, factory in _model_factories(wiki_source):
            default = factory(engine=engine).fit(
                wiki_corpus, iterations=2, seed=5)
            explicit = factory(engine=engine, backend="python").fit(
                wiki_corpus, iterations=2, seed=5)
            if not HAVE_NUMBA:
                # auto == python: the chains must be byte-identical.
                np.testing.assert_array_equal(
                    default.flat_assignments(),
                    explicit.flat_assignments(), err_msg=name)
            np.testing.assert_allclose(explicit.theta.sum(axis=1), 1.0,
                                       err_msg=name)


@needs_numba
class TestBackendParityMatrix:
    """python vs numba across all six model classes and both engines.

    Draw-identical lanes (compiled LDA/EDA dense loops preserve the
    python backend's summation order; lanes numba does not compile
    fall through to the interpreted loop) must produce byte-identical
    chains.  The compiled Source-LDA dense lane reassociates the
    quadrature contraction and is checked distributionally.
    """

    DRAW_IDENTICAL_FAST = {"lda", "eda", "ctm"}

    def _fit_pair(self, factory, corpus, engine):
        fitted = {}
        for backend in ("python", "numba"):
            fitted[backend] = factory(engine=engine,
                                      backend=backend).fit(
                corpus, iterations=3, seed=5)
        return fitted["python"], fitted["numba"]

    @pytest.mark.parametrize("engine", ["fast", "sparse"])
    def test_all_models_agree(self, wiki_source, wiki_corpus, engine):
        for name, factory in _model_factories(wiki_source):
            py, nb = self._fit_pair(factory, wiki_corpus, engine)
            draw_identical = (engine == "fast"
                              and name in self.DRAW_IDENTICAL_FAST) \
                or (engine == "sparse" and name == "ctm")
            if draw_identical:
                np.testing.assert_array_equal(
                    py.flat_assignments(), nb.flat_assignments(),
                    err_msg=f"{name}/{engine}")
            # Distributional flooring for every lane: valid simplex
            # rows and per-topic occupancy in the same ballpark.
            np.testing.assert_allclose(nb.theta.sum(axis=1), 1.0,
                                       err_msg=f"{name}/{engine}")
            np.testing.assert_allclose(
                nb.theta.mean(axis=0), py.theta.mean(axis=0),
                atol=0.10, err_msg=f"{name}/{engine}")


class TestFoldInBackends:
    @pytest.fixture
    def phi(self):
        rng = np.random.default_rng(11)
        phi = rng.random((6, 30))
        return phi / phi.sum(axis=1, keepdims=True)

    @pytest.fixture
    def docs(self):
        rng = np.random.default_rng(12)
        return [rng.integers(0, 30, size=n) for n in (14, 3, 25)]

    def test_backend_name_exposed(self, phi):
        engine = FoldInEngine(phi, alpha=0.4, backend="python")
        assert engine.backend_name == "python"
        auto = FoldInEngine(phi, alpha=0.4)
        assert auto.backend_name in available_backends()

    def test_engine_spec_ships_resolved_backend(self, phi):
        from repro.serving.parallel import ParallelFoldIn
        engine = FoldInEngine(phi, alpha=0.4, mode="sparse",
                              backend="python")
        foldin = ParallelFoldIn(engine, num_workers=1)
        assert foldin._spec.backend == "python"

    def test_session_exposes_backend(self, phi):
        from repro.models.base import FittedTopicModel
        from repro.serving.session import InferenceSession
        from repro.text.vocabulary import Vocabulary
        vocabulary = Vocabulary()
        for i in range(30):
            vocabulary.add(f"w{i}")
        model = FittedTopicModel(
            phi=phi, theta=np.full((2, 6), 1 / 6),
            assignments=[np.zeros(3, dtype=np.int64)],
            vocabulary=vocabulary.freeze(),
            metadata={"alpha": 0.4})
        session = InferenceSession(model, backend="python")
        assert session.backend == "python"
        theta = session.theta([["w1", "w2", "w3"]])
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    @needs_numba
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_lane_parity_python_vs_numba(self, phi, docs, mode):
        thetas = {}
        for backend in ("python", "numba"):
            engine = FoldInEngine(phi, alpha=0.4, iterations=40,
                                  mode=mode, backend=backend)
            thetas[backend] = engine.theta(docs, rng=123)
        # Both compiled fold-in lanes preserve summation order (the
        # sparse bucket mass is a running sum on both backends):
        # byte-identical theta.
        np.testing.assert_array_equal(thetas["python"], thetas["numba"])
        for theta in thetas.values():
            np.testing.assert_allclose(theta.sum(axis=1), 1.0)


class TestVectorizedAliasRows:
    """The lockstep builder must replay Vose bit-for-bit per row."""

    def test_bit_identical_to_sequential(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            rows = int(rng.integers(1, 30))
            n = int(rng.integers(1, 40))
            weights = rng.random((rows, n))
            weights *= rng.random((rows, n)) < 0.7  # sprinkle zeros
            if trial % 4 == 0:
                weights[0] = 0.0  # all-zero poison row
            accept, alias = build_alias_rows(weights)
            for row in range(rows):
                ref_accept, ref_alias = build_alias_table(weights[row])
                np.testing.assert_array_equal(accept[row], ref_accept)
                np.testing.assert_array_equal(alias[row], ref_alias)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2-d"):
            build_alias_rows(np.ones(3))
        with pytest.raises(ValueError, match="non-empty"):
            build_alias_rows(np.ones((2, 0)))
        with pytest.raises(ValueError, match="finite"):
            build_alias_rows(np.array([[1.0, -0.5]]))

    def test_empty_row_matrix(self):
        accept, alias = build_alias_rows(np.empty((0, 4)))
        assert accept.shape == (0, 4)
        assert alias.shape == (0, 4)
