"""Property suite for the document-batched sparse fold-in lane.

The contract under test: a document's theta row is a pure function of
``(call seed, document index, words)``, so folding it inside a batch —
on :meth:`PythonBackend.foldin_sparse_batch`, whatever else the batch
holds, under any phi layout, worker count or hedge — gives the same
bits as folding it alone with :meth:`FoldInEngine.theta_document`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import FittedTopicModel
from repro.sampling.rng import document_rng
from repro.sampling.runtime import resolve_backend
from repro.serving import (FoldInEngine, HedgePolicy, ParallelFoldIn,
                           WorkerFault, load_model, save_model)
from repro.serving.foldin import BATCH_LANE_MIN_DOCS
from repro.telemetry import InMemoryRecorder
from repro.text.vocabulary import Vocabulary

TOPICS = 24
VOCAB = 40
ALPHA = 0.3
ITERATIONS = 4
#: Phi layouts: ``None`` is the in-memory array, ``"v2"`` a legacy v2
#: word-major member, integers are v3 ``shard_words`` (VOCAB = one
#: shard, the ``mmap_phi=True`` layout, down to one word per shard).
LAYOUTS = (None, "v2", VOCAB, 7, 1)

PYTHON = resolve_backend("python")


def _phi_with_zeros() -> np.ndarray:
    """A stochastic ``(T, V)`` phi where about half the entries are
    exactly zero, yet every word keeps positive mass in some topic.

    Zero-weight members leave flat stretches in the document bucket's
    running sums, which the bisection must step over exactly as the
    per-document lane does.  (The last-positive clamp itself cannot
    fire there: a document-bucket draw has ``x < cum[-1]``.)"""
    rng = np.random.default_rng(5)
    phi = rng.random((TOPICS, VOCAB)) * (rng.random((TOPICS, VOCAB)) < 0.5)
    phi[rng.integers(0, TOPICS, size=VOCAB), np.arange(VOCAB)] += 0.05
    return phi / phi.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def engines(tmp_path_factory, v2_artifact):
    """One sparse engine per phi layout, all serving the same phi."""
    phi = _phi_with_zeros()
    model = FittedTopicModel(
        phi=phi, theta=np.full((2, TOPICS), 1.0 / TOPICS), assignments=[],
        vocabulary=Vocabulary.from_tokens([f"w{i:02d}"
                                           for i in range(VOCAB)]),
        metadata={"alpha": ALPHA})
    root = tmp_path_factory.mktemp("layouts")
    built = {}
    for layout in LAYOUTS:
        if layout is None:
            served = phi
        elif layout == "v2":
            served = load_model(v2_artifact(model, root / "v2"),
                                mmap_phi=True).model.phi
        else:
            served = load_model(save_model(
                model, root / f"v3-{layout}", shard_words=layout)).model.phi
        built[layout] = FoldInEngine(served, ALPHA, iterations=ITERATIONS,
                                     mode="sparse", backend="python")
    return built


def _alone(engine, documents, seed):
    root = np.random.SeedSequence(seed)
    return np.array([engine.theta_document(doc, document_rng(root, index))
                     for index, doc in enumerate(documents)]
                    ).reshape(len(documents), TOPICS)


def _streams(documents, seed):
    root = np.random.SeedSequence(seed)
    return [document_rng(root, index) for index in range(len(documents))]


word = st.integers(0, VOCAB - 1)
document = st.one_of(
    st.lists(word, min_size=0, max_size=50),
    st.lists(word, min_size=1, max_size=1),
    st.tuples(word, st.integers(1, 30)).map(lambda pair: [pair[0]]
                                            * pair[1]),
).map(lambda ids: np.array(ids, dtype=np.int64))
batches = st.lists(document, min_size=0, max_size=12)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(documents=batches, seed=seeds, layout=st.sampled_from(LAYOUTS))
def test_batched_rows_equal_documents_folded_alone(engines, documents,
                                                   seed, layout):
    """Ragged lengths, 1-token and single-word-repeated documents,
    empty documents and a zero-riddled phi, on every layout."""
    engine = engines[layout]
    rows = PYTHON.foldin_sparse_batch(engine._table, documents,
                                      _streams(documents, seed))
    assert rows.shape == (len(documents), TOPICS)
    assert np.array_equal(rows, _alone(engine, documents, seed))


@settings(max_examples=15, deadline=None)
@given(documents=st.lists(document, max_size=3 * BATCH_LANE_MIN_DOCS),
       seed=seeds, batch_size=st.integers(1, 2 * BATCH_LANE_MIN_DOCS))
def test_engine_routing_is_invisible(documents, seed, batch_size):
    """Groups below the crossover take the per-document lane, larger
    ones the batched lane; the caller cannot tell which ran."""
    engine = FoldInEngine(_phi_with_zeros(), ALPHA, iterations=ITERATIONS,
                          mode="sparse", batch_size=batch_size,
                          backend="python")
    rows = engine.theta_documents(documents, _streams(documents, seed))
    assert np.array_equal(rows, _alone(engine, documents, seed))


def test_single_sweep_accumulates_from_the_first():
    """iterations=1 has no burn-in: the only sweep is averaged."""
    phi = _phi_with_zeros()
    engine = FoldInEngine(phi, ALPHA, iterations=1, mode="sparse",
                          backend="python")
    documents = [np.arange(VOCAB), np.array([3]), np.array([9] * 12)]
    rows = PYTHON.foldin_sparse_batch(engine._table, documents,
                                      _streams(documents, 77))
    assert np.array_equal(rows, _alone(engine, documents, 77))


def test_a_word_no_topic_emits_fails_both_lanes_alike():
    """Zero total mass raises the scalar lane's error in the batch too,
    rather than drawing from an empty distribution."""
    phi = _phi_with_zeros()
    phi[:, 0] = 0.0
    phi /= phi.sum(axis=1, keepdims=True)
    engine = FoldInEngine(phi, ALPHA, iterations=2, mode="sparse",
                          backend="python")
    documents = [np.array([1, 2, 3]), np.array([0, 0])]
    with pytest.raises(ValueError, match="positive finite mass"):
        engine.theta_document(documents[1], document_rng(
            np.random.SeedSequence(1), 1))
    with pytest.raises(ValueError, match="positive finite mass"):
        PYTHON.foldin_sparse_batch(engine._table, documents,
                                   _streams(documents, 1))


def test_empty_batch_touches_no_shard(tmp_path):
    """An empty task (what ``warm_up`` submits) maps no shard and
    builds no shard table, through either the lane or a table gather."""
    phi = _phi_with_zeros()
    model = FittedTopicModel(
        phi=phi, theta=np.full((2, TOPICS), 1.0 / TOPICS), assignments=[],
        vocabulary=Vocabulary.from_tokens([f"w{i:02d}"
                                           for i in range(VOCAB)]),
        metadata={"alpha": ALPHA})
    loaded = load_model(save_model(model, tmp_path / "m", shard_words=9))
    recorder = InMemoryRecorder()
    engine = FoldInEngine(loaded.model.phi, ALPHA, iterations=2,
                          mode="sparse", backend="python",
                          recorder=recorder)
    table = engine._table
    none = np.empty(0, dtype=np.int64)
    assert table.prior_mass.take(none).shape == (0,)
    assert table.alias_accept.take(none).shape == (0, TOPICS)
    assert table.alias_accept.take(none).dtype == np.float64
    assert table.alias_topic.take(none).shape == (0, TOPICS)
    assert table.alias_topic.take(none).dtype == np.int64
    assert PYTHON.foldin_sparse_batch(table, [], []).shape == (0, TOPICS)
    assert engine.theta_documents([], []).shape == (0, TOPICS)
    rows = PYTHON.foldin_sparse_batch(table, [none, none], [None, None])
    assert np.array_equal(rows, np.full((2, TOPICS), 1.0 / TOPICS))
    assert engine.sharded.mapped_bytes == 0
    assert recorder.counter_total("serving.foldin.shard_table_builds") == 0


@pytest.mark.parametrize("layout", [None, 1])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pooled_rows_equal_documents_folded_alone(engines, layout,
                                                  workers):
    """Worker tasks fold on the batched lane; the merged theta still
    matches every document folded alone, at any worker count."""
    rng = np.random.default_rng(workers)
    # Enough documents that every worker task reaches the crossover.
    documents = [rng.integers(0, VOCAB, size=int(n))
                 for n in rng.integers(0, 12, size=65 * workers)]
    documents[3] = np.array([11] * 25)
    engine = engines[layout]
    expected = _alone(engine, documents, 21)
    with ParallelFoldIn(engine, num_workers=workers) as foldin:
        foldin.warm_up()
        assert np.array_equal(foldin.theta(documents, seed=21), expected)


def test_hedged_straggler_keeps_batched_bits(engines):
    """A straggling worker whose batched tasks get hedged: duplicates
    race, the first wins, and no bit moves."""
    rng = np.random.default_rng(8)
    documents = [rng.integers(0, VOCAB, size=int(n))
                 for n in rng.integers(1, 12, size=130)]
    engine = engines[7]
    expected = _alone(engine, documents, 4)
    with ParallelFoldIn(
            engine, num_workers=2, task_docs=BATCH_LANE_MIN_DOCS,
            hedge=HedgePolicy(quantile=0.5, multiplier=2.0, min_wait=0.01,
                              max_hedges=2),
            fault=WorkerFault(sleep_seconds=0.05, rank=0)) as foldin:
        foldin.warm_up()
        assert np.array_equal(foldin.theta(documents, seed=4), expected)
