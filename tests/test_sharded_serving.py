"""Tests for column-sharded phi serving (schema v3).

The load-bearing claim is bit-identity: sharding is a storage/paging
decision and must never change served theta — for any shard layout,
any worker count, and documents whose vocabulary straddles shard
boundaries.  The rest pins the out-of-core contract (only touched
shards map), artifact validation, checksums, mmap lifecycle (close /
ResourceWarning), registry fingerprinting, and the alias engine's
``rebuild_every="auto"`` cadence.
"""

from __future__ import annotations

import gc
import json
import warnings

import numpy as np
import pytest

from repro.models.base import FittedTopicModel
from repro.sampling.alias_engine import (DEFAULT_REBUILD_EVERY,
                                         resolve_rebuild_every)
from repro.serving import (InferenceSession, ManifestError, ModelRegistry,
                           ShardedPhi, TransposedShardedPhi, load_model,
                           read_manifest, save_model, plan_shard_starts)
from repro.serving.foldin import FoldInEngine
from repro.serving.parallel import ParallelFoldIn
from repro.text.vocabulary import Vocabulary

TOPICS = 6
VOCAB = 37


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    phi = rng.dirichlet(np.ones(VOCAB), size=TOPICS)
    theta = rng.dirichlet(np.ones(TOPICS), size=9)
    vocab = Vocabulary.from_tokens([f"w{i:03d}" for i in range(VOCAB)])
    return FittedTopicModel(phi=phi, theta=theta, assignments=[],
                            vocabulary=vocab,
                            metadata={"alpha": 0.4})


@pytest.fixture(scope="module")
def documents():
    rng = np.random.default_rng(7)
    docs = [rng.integers(0, VOCAB, size=int(rng.integers(1, 60)))
            for _ in range(10)]
    # One document whose vocabulary straddles every shard boundary of
    # the layouts under test, one empty, one single-word.
    docs.append(np.arange(VOCAB, dtype=np.int64))
    docs.append(np.empty(0, dtype=np.int64))
    docs.append(np.array([VOCAB - 1], dtype=np.int64))
    return docs


def _sharded_load(fitted, tmp_path, shard_words, name="m"):
    path = save_model(fitted, tmp_path / name, shard_words=shard_words)
    return load_model(path)


# ----------------------------------------------------------------------
# plan + view mechanics
# ----------------------------------------------------------------------
class TestShardedPhiView:
    def test_plan_shard_starts(self):
        assert plan_shard_starts(10, 4) == (0, 4, 8)
        assert plan_shard_starts(10, 10) == (0,)
        assert plan_shard_starts(10, 100) == (0,)
        assert plan_shard_starts(10, 1) == tuple(range(10))
        with pytest.raises(ValueError, match="shard_words"):
            plan_shard_starts(10, 0)
        with pytest.raises(ValueError, match="vocab_size"):
            plan_shard_starts(0, 4)

    def test_lazy_row_and_gather_identity(self, fitted, tmp_path):
        loaded = _sharded_load(fitted, tmp_path, shard_words=7)
        sharded = loaded.model.phi.T
        assert isinstance(sharded, ShardedPhi)
        assert sharded.shape == (VOCAB, TOPICS)
        assert sharded.mapped_shards == ()
        word_major = np.ascontiguousarray(fitted.phi.T)
        # Scalar rows (incl. negative), slices and fancy gathers all
        # reproduce the whole-matrix bytes.
        assert np.array_equal(sharded[0], word_major[0])
        assert np.array_equal(sharded[-1], word_major[-1])
        assert np.array_equal(sharded[3:20:2], word_major[3:20:2])
        ids = np.array([0, 36, 6, 7, 8, 20, 6])
        assert np.array_equal(sharded.take(ids, axis=0),
                              word_major.take(ids, axis=0))
        # np.take with out= dispatches through the duck method.
        out = np.empty((len(ids), TOPICS))
        np.take(sharded, ids, axis=0, out=out)
        assert np.array_equal(out, word_major.take(ids, axis=0))
        assert np.array_equal(np.asarray(sharded), word_major)
        loaded.close()

    def test_touch_maps_only_needed_shards(self, fitted, tmp_path):
        loaded = _sharded_load(fitted, tmp_path, shard_words=7)
        sharded = loaded.model.phi.T
        assert sharded.num_shards == 6
        assert sharded.touch(np.array([0, 3])) == (0,)
        assert sharded.mapped_shards == (0,)
        assert sharded.touch(np.array([35, 36])) == (5,)
        assert sharded.mapped_shards == (0, 5)
        # Footprint counts mapped shards only (last shard is short:
        # rows 35..36).
        per_row = TOPICS * 8
        assert sharded.mapped_bytes == (7 + 2) * per_row
        assert sharded.nbytes == VOCAB * per_row
        with pytest.raises(IndexError, match="outside the vocabulary"):
            sharded.touch(np.array([VOCAB]))
        loaded.close()
        assert sharded.mapped_shards == ()
        # The view stays usable after close: gathers re-map lazily.
        assert np.array_equal(sharded[10],
                              np.ascontiguousarray(fitted.phi.T)[10])
        loaded.close()

    def test_bounds_and_type_errors(self, fitted, tmp_path):
        loaded = _sharded_load(fitted, tmp_path, shard_words=10)
        sharded = loaded.model.phi.T
        with pytest.raises(IndexError):
            sharded[VOCAB]
        with pytest.raises(IndexError):
            sharded.take(np.array([0, VOCAB]))
        with pytest.raises(ValueError, match="axis"):
            sharded.take(np.array([0]), axis=1)
        with pytest.raises(TypeError, match="materialize"):
            sharded[object()]
        transposed = loaded.model.phi
        assert isinstance(transposed, TransposedShardedPhi)
        with pytest.raises(TypeError, match="materialize"):
            transposed[0:2]
        loaded.close()

    def test_transposed_face(self, fitted, tmp_path):
        loaded = _sharded_load(fitted, tmp_path, shard_words=5)
        transposed = loaded.model.phi
        assert transposed.shape == (TOPICS, VOCAB)
        assert transposed.T is loaded.model.phi.T.T.T  # same ShardedPhi
        for topic in range(TOPICS):
            assert np.array_equal(transposed[topic], fitted.phi[topic])
        assert np.array_equal(np.asarray(transposed), fitted.phi)
        # The documented model surface works on the lazy view.
        assert loaded.model.num_topics == TOPICS
        assert loaded.model.vocab_size == VOCAB
        top = loaded.model.top_word_ids(0, n=3)
        assert np.array_equal(top, np.argsort(-fitted.phi[0],
                                              kind="stable")[:3])
        loaded.close()

    def test_pickle_ships_map_not_blocks(self, fitted, tmp_path):
        import pickle
        loaded = _sharded_load(fitted, tmp_path, shard_words=7)
        sharded = loaded.model.phi.T
        sharded.touch(np.arange(VOCAB))
        clone = pickle.loads(pickle.dumps(sharded))
        assert clone.mapped_shards == ()          # arrives unmapped
        assert clone.shard_ranges == sharded.shard_ranges
        assert np.array_equal(np.asarray(clone), np.asarray(sharded))
        clone.close()
        loaded.close()


# ----------------------------------------------------------------------
# artifact round-trip + validation
# ----------------------------------------------------------------------
class TestShardedArtifacts:
    def test_round_trip_schema_v3(self, fitted, tmp_path):
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        manifest = read_manifest(path)
        assert manifest["schema_version"] == 3
        storage = manifest["phi_storage"]
        assert storage["layout"] == "word_major_sharded"
        assert storage["shard_words"] == 7
        shards = storage["shards"]
        assert [s["start"] for s in shards] == [0, 7, 14, 21, 28, 35]
        assert shards[-1]["stop"] == VOCAB
        assert (path / shards[0]["member"]).is_file()
        # Per-shard masses tile the total probability mass T.
        assert sum(s["mass"] for s in shards) == pytest.approx(TOPICS)
        loaded = load_model(path)
        assert loaded.schema_version == 3
        assert loaded.phi_mmapped
        assert loaded.shard_map == tuple(
            (s["start"], s["stop"]) for s in shards)
        assert np.array_equal(np.asarray(loaded.model.phi), fitted.phi)
        assert np.array_equal(loaded.model.theta, fitted.theta)
        loaded.close()

    def test_shard_words_validation(self, fitted, tmp_path):
        from repro.serving import ArtifactError
        with pytest.raises(ArtifactError, match="shard_words"):
            save_model(fitted, tmp_path / "m", shard_words=0)

    def test_checksums_catch_corruption(self, fitted, tmp_path):
        path = save_model(fitted, tmp_path / "m", shard_words=20)
        loaded = load_model(path)
        sharded = loaded.model.phi.T
        sharded.verify_checksums()
        member = path / read_manifest(path)["phi_storage"]["shards"][1][
            "member"]
        raw = bytearray(member.read_bytes())
        raw[-1] ^= 0xFF
        member.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt"):
            sharded.verify_checksums()
        loaded.close()

    @pytest.mark.parametrize("mutate, match", [
        (lambda s: s["shards"].pop(0), "tile"),
        (lambda s: s["shards"][0].update(start=1), "tile"),
        (lambda s: s["shards"][-1].update(stop=VOCAB - 1), "cover"),
        (lambda s: s.update(shards=[]), "shard list"),
        (lambda s: s["shards"][0].update(member=123), "malformed"),
    ])
    def test_manifest_shard_map_validation(self, fitted, tmp_path,
                                           mutate, match):
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        manifest = json.loads((path / "manifest.json").read_text())
        mutate(manifest["phi_storage"])
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=match):
            load_model(path)

    def test_missing_member_fails_loudly(self, fitted, tmp_path):
        from repro.serving import ArtifactError
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        member = read_manifest(path)["phi_storage"]["shards"][2]["member"]
        (path / member).unlink()
        with pytest.raises(ArtifactError, match="missing"):
            load_model(path)

    def test_resave_unsharded_removes_stale_shards(self, fitted,
                                                   tmp_path):
        """Overwriting a sharded artifact with an unsharded save must
        not leave orphan shard members behind."""
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        assert list(path.glob("phi_shard_*.npy"))
        save_model(fitted, tmp_path / "m", overwrite=True)
        assert not list(path.glob("phi_shard_*.npy"))
        loaded = load_model(path)
        assert loaded.schema_version == 1
        assert np.array_equal(loaded.model.phi, fitted.phi)
        loaded.close()


# ----------------------------------------------------------------------
# bit-identity: the tentpole property
# ----------------------------------------------------------------------
class TestShardedBitIdentity:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    @pytest.mark.parametrize("shard_words", [VOCAB, 19, 6, 1])
    def test_engine_theta_identical(self, fitted, documents, tmp_path,
                                    mode, shard_words):
        """{1, 2, 7, V} shards, single process, both fold-in lanes."""
        loaded = _sharded_load(fitted, tmp_path, shard_words,
                               name=f"m{mode}{shard_words}")
        baseline = FoldInEngine(fitted.phi, 0.4, iterations=8,
                                mode=mode)
        engine = FoldInEngine(loaded.model.phi, 0.4, iterations=8,
                              mode=mode)
        expected = baseline.theta(documents, rng=123)
        actual = engine.theta(documents, rng=123)
        assert np.array_equal(expected, actual)
        loaded.close()

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    @pytest.mark.parametrize("num_workers", [1, 4])
    def test_parallel_theta_identical(self, fitted, documents, tmp_path,
                                      mode, num_workers):
        loaded = _sharded_load(fitted, tmp_path, 6,
                               name=f"p{mode}{num_workers}")
        baseline = ParallelFoldIn(
            FoldInEngine(fitted.phi, 0.4, iterations=8, mode=mode),
            num_workers=num_workers)
        foldin = ParallelFoldIn(
            FoldInEngine(loaded.model.phi, 0.4, iterations=8,
                         mode=mode),
            num_workers=num_workers)
        try:
            expected = baseline.theta(documents, seed=9)
            actual = foldin.theta(documents, seed=9)
        finally:
            baseline.close()
            foldin.close()
        assert np.array_equal(expected, actual)
        loaded.close()

    def test_session_end_to_end_identical(self, fitted, tmp_path):
        plain = save_model(fitted, tmp_path / "plain")
        sharded = save_model(fitted, tmp_path / "sharded", shard_words=6)
        texts = ["w001 w006 w035 w036", "w000", "w012 w012 w020"]
        loaded_plain = load_model(plain)
        loaded_sharded = load_model(sharded)
        result_plain = InferenceSession(loaded_plain, seed=5).infer(texts)
        result_sharded = InferenceSession(loaded_sharded,
                                          seed=5).infer(texts)
        assert np.array_equal(result_plain.theta, result_sharded.theta)
        loaded_plain.close()
        loaded_sharded.close()

    def test_boundary_straddling_document(self, fitted, tmp_path):
        """A single document touching words on both sides of one shard
        boundary gathers rows from two blocks mid-document."""
        loaded = _sharded_load(fitted, tmp_path, 19, name="straddle")
        doc = np.array([17, 18, 19, 20, 18, 19], dtype=np.int64)
        engine = FoldInEngine(loaded.model.phi, 0.4, iterations=8,
                              mode="sparse")
        assert engine.touch(doc) == (0, 1)
        baseline = FoldInEngine(fitted.phi, 0.4, iterations=8,
                                mode="sparse")
        assert np.array_equal(baseline.theta([doc], rng=1),
                              engine.theta([doc], rng=1))
        loaded.close()

    def test_batch_touch_prefetches_union(self, fitted, documents,
                                          tmp_path):
        loaded = _sharded_load(fitted, tmp_path, 6, name="prefetch")
        engine = FoldInEngine(loaded.model.phi, 0.4, mode="sparse")
        sharded = engine.sharded
        assert sharded is not None
        engine.theta([np.array([0, 1]), np.array([36])], rng=0)
        assert sharded.mapped_shards == (0, 6)
        loaded.close()


# ----------------------------------------------------------------------
# lifecycle: close, eviction, ResourceWarning
# ----------------------------------------------------------------------
class TestMmapLifecycle:
    def test_close_releases_maps_and_is_idempotent(self, fitted,
                                                   tmp_path):
        loaded = _sharded_load(fitted, tmp_path, 7)
        sharded = loaded.model.phi.T
        sharded.touch(np.arange(VOCAB))
        assert sharded.mapped_bytes > 0
        loaded.close()
        loaded.close()
        assert sharded.mapped_bytes == 0

    def test_leaked_sharded_map_warns_on_collection(self, fitted,
                                                    tmp_path):
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        loaded = load_model(path)
        loaded.model.phi.T.touch(np.array([0]))
        resource = loaded.phi_resource
        del loaded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del resource
            gc.collect()
        assert any(issubclass(w.category, ResourceWarning)
                   and "unclosed ShardedPhi" in str(w.message)
                   for w in caught)

    def test_closed_load_does_not_warn(self, fitted, tmp_path):
        path = save_model(fitted, tmp_path / "m", shard_words=7)
        loaded = load_model(path)
        loaded.model.phi.T.touch(np.array([0]))
        loaded.close()
        resource = loaded.phi_resource
        del loaded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del resource
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_leaked_v2_map_warns_on_collection(self, fitted, tmp_path,
                                               v2_artifact):
        """A legacy v2 load is owned by the same one-shard view, so it
        leaks and warns exactly like a v3 load."""
        loaded = load_model(v2_artifact(fitted, tmp_path / "m"),
                            mmap_phi=True)
        loaded.model.phi.T.touch(np.array([0]))
        resource = loaded.phi_resource
        assert resource.mapped_shards == (0,)
        del loaded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del resource
            gc.collect()
        assert any(issubclass(w.category, ResourceWarning)
                   and "unclosed ShardedPhi" in str(w.message)
                   for w in caught)

    def test_registry_eviction_closes(self, fitted, tmp_path):
        registry = ModelRegistry(tmp_path / "registry", cache_size=1)
        registry.publish("a", fitted, shard_words=7)
        registry.publish("b", fitted)
        loaded_a = registry.load("a")
        resource = loaded_a.phi_resource
        loaded_a.model.phi.T.touch(np.array([0]))
        assert resource.mapped_shards == (0,)
        registry.load("b")                      # evicts and closes "a"
        assert resource.mapped_shards == ()
        registry.clear_cache()


# ----------------------------------------------------------------------
# registry fingerprinting
# ----------------------------------------------------------------------
class TestRegistryFingerprint:
    def test_publish_forwards_shard_words(self, fitted, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish("demo", fitted, shard_words=7)
        assert read_manifest(record.path)["schema_version"] == 3
        loaded = registry.load("demo")
        assert loaded.shard_map is not None
        assert registry.cached_keys == (
            ("demo", 1, "v3:sharded:0-7,7-14,14-21,21-28,28-35,35-37"),)
        registry.clear_cache()

    def test_interleaved_flavors_never_cross_hit(self, fitted, tmp_path):
        """Rewriting a version directory in place (out-of-band — the
        registry's own publish keeps versions immutable) must not be
        served from a stale cache entry keyed on the old storage."""
        registry = ModelRegistry(tmp_path / "registry", cache_size=4)
        record = registry.publish("demo", fitted)
        plain = registry.load("demo")
        assert plain.shard_map is None
        # Out-of-band re-save of the same version, now sharded.
        save_model(fitted, record.path, shard_words=19, overwrite=True)
        sharded = registry.load("demo")
        assert sharded is not plain
        assert sharded.shard_map == ((0, 19), (19, VOCAB))
        # The stale plain entry was purged (and closed), not kept as a
        # sibling: one entry per (name, version).
        assert registry.cached_keys == (
            ("demo", 1, "v3:sharded:0-19,19-37"),)
        assert registry.load("demo") is sharded
        registry.clear_cache()


# ----------------------------------------------------------------------
# alias engine: rebuild_every="auto"
# ----------------------------------------------------------------------
class TestAutoRebuildCadence:
    def test_resolver(self):
        assert resolve_rebuild_every("auto", 500) == DEFAULT_REBUILD_EVERY
        assert resolve_rebuild_every("auto", 64 * 64) == 64
        assert resolve_rebuild_every("auto", 8000) == 125
        assert resolve_rebuild_every("auto", 16000) == 250
        assert resolve_rebuild_every(7, 16000) == 7
        with pytest.raises(ValueError, match="'auto'"):
            resolve_rebuild_every("fast", 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_rebuild_every(0, 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_rebuild_every(True, 100)

    def test_sampler_accepts_auto(self):
        from repro.models.lda import LdaKernel
        from repro.sampling.gibbs import CollapsedGibbsSampler
        from repro.sampling.state import GibbsState
        from repro.text.corpus import Corpus
        corpus = Corpus.from_texts(["a b c d", "b c d e a"],
                                   tokenizer=None)
        rng = np.random.default_rng(0)
        state = GibbsState(corpus, 3)
        state.initialize_random(rng)
        kernel = LdaKernel(state, 0.5, 0.1)
        sampler = CollapsedGibbsSampler(state, kernel, rng,
                                        engine="alias",
                                        rebuild_every="auto")
        assert sampler._sweep_engine.rebuild_every == \
            DEFAULT_REBUILD_EVERY
        sampler.run(2)
