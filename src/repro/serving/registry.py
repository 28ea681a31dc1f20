"""Named, versioned model storage with an LRU cache of loaded models.

A :class:`ModelRegistry` owns one directory tree::

    <root>/<name>/v<version>/manifest.json
                            /arrays.npz

``publish`` assigns monotonically increasing versions per name;
``resolve`` maps ``(name, version-or-latest)`` to a concrete artifact;
``load`` memoizes deserialized models in a bounded LRU so a serving
process answering queries for a handful of hot models never re-reads
their ``.npz`` blobs from disk.

Versions are **claimed atomically**: ``publish`` creates the ``v<N>/``
directory with an exclusive ``mkdir`` before writing anything into it,
retrying on the next number when a concurrent publisher wins the race.
The previous scan-then-write scheme let two publishers both pick
``v(N+1)`` and silently overwrite each other — a violation of the
immutability contract this layer exists to provide.  A claim directory
only becomes a *version* once its manifest lands (``versions`` /
``resolve`` ignore manifest-less directories), so a publisher that
crashes mid-save leaves a dead claim that blocks nothing but its own
number.
"""

from __future__ import annotations

import re
import shutil
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.models.base import FittedTopicModel
from repro.serving.artifacts import (ArtifactError, LoadedModel,
                                     load_model, read_manifest,
                                     save_model)
from repro.telemetry import Recorder, ensure_recorder

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_DIR_RE = re.compile(r"^v(\d+)$")


def _phi_fingerprint(manifest: dict) -> str:
    """Stable summary of how an artifact stores phi.

    Folded into the load-cache key so two artifacts that resolve to the
    same ``(name, version)`` but carry different storage shapes — e.g. a
    re-published sharded flavor interleaved with an in-memory one — can
    never satisfy each other's cache lookups.
    """
    schema = manifest.get("schema_version", 1)
    storage = manifest.get("phi_storage")
    if not isinstance(storage, dict):
        return f"v{schema}:npz"
    layout = storage.get("layout", "word_major")
    if layout == "word_major_sharded":
        shards = storage.get("shards")
        spans = ",".join(
            f"{entry.get('start')}-{entry.get('stop')}"
            for entry in shards) if isinstance(shards, list) else "?"
        return f"v{schema}:sharded:{spans}"
    return f"v{schema}:{layout}"


@dataclass(frozen=True)
class ModelRecord:
    """One resolved (name, version) → artifact directory mapping."""

    name: str
    version: int
    path: Path


class ModelRegistry:
    """Resolves named/versioned model artifacts under one root directory.

    Parameters
    ----------
    root:
        Registry directory (created on first publish).
    cache_size:
        Maximum number of loaded models kept in memory; least recently
        used artifacts are evicted first.  ``0`` disables caching.
    recorder:
        Optional :class:`~repro.telemetry.Recorder` counting cache
        hits/misses/evictions (``registry.cache_*``), publishes
        (``registry.publishes``) and mmap lifecycle events
        (``registry.mmap_opens`` / ``registry.mmap_closes``) — the
        inputs to a cache-sizing or rollover dashboard.
    """

    def __init__(self, root: str | Path, cache_size: int = 4,
                 recorder: Recorder | None = None) -> None:
        if cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {cache_size}")
        self.root = Path(root)
        self.cache_size = int(cache_size)
        self.recorder = ensure_recorder(recorder)
        self._cache: OrderedDict[tuple[str, int, str],
                                 LoadedModel] = OrderedDict()

    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, "
                f"'.', '_' and '-', starting with a letter or digit")
        return name

    def names(self) -> list[str]:
        """All model names with at least one published version.

        Directories that are not valid model names (editor droppings,
        ``.cache``-style clutter) are skipped, not errors.
        """
        if not self.root.is_dir():
            return []
        return sorted(entry.name for entry in self.root.iterdir()
                      if entry.is_dir() and _NAME_RE.match(entry.name)
                      and self.versions(entry.name))

    def versions(self, name: str) -> list[int]:
        """Published versions of ``name``, ascending."""
        self._check_name(name)
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            match = _VERSION_DIR_RE.match(entry.name)
            if match and (entry / "manifest.json").is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    def _claimed_versions(self, name: str) -> list[int]:
        """Every version *directory* of ``name`` — published or merely
        claimed by an in-flight (or crashed) publisher.  Fresh claims
        must clear all of these, not just the published ones, or a
        publisher would retry the same contested number forever."""
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        return sorted(int(match.group(1))
                      for entry in model_dir.iterdir()
                      if (match := _VERSION_DIR_RE.match(entry.name)))

    def resolve(self, name: str, version: int | None = None) -> ModelRecord:
        """Map ``name`` (and optional ``version``; latest otherwise) to
        its artifact directory."""
        self._check_name(name)
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"no versions of model {name!r} in registry "
                           f"at {self.root}")
        if version is None:
            version = versions[-1]
        elif version not in versions:
            raise KeyError(
                f"model {name!r} has no version {version}; published "
                f"versions: {versions}")
        return ModelRecord(name=name, version=int(version),
                           path=self.root / name / f"v{int(version)}")

    # ------------------------------------------------------------------
    #: Publish retry bound; each retry means a concurrent publisher won
    #: one race, so the bound is only ever reached under pathological
    #: contention (or a filesystem that lies about mkdir exclusivity).
    _PUBLISH_ATTEMPTS = 100

    def publish(self, name: str, model: FittedTopicModel,
                model_class: str | None = None,
                version: int | None = None,
                mmap_phi: bool = False,
                shard_words: int | None = None) -> ModelRecord:
        """Save ``model`` as the next (or an explicit new) version of
        ``name``.

        The version number is claimed with an exclusive ``mkdir`` of
        the ``v<N>/`` directory *before* the artifact is written, so
        concurrent publishers can never both write the same version:
        the loser of a ``mkdir`` race rescans and takes the next free
        number (auto-versioning) or fails loudly (explicit version).
        ``mmap_phi`` and ``shard_words`` are forwarded to
        :func:`save_model` (a schema-v3 artifact with one mappable phi
        shard, or with ``shard_words``-word shards).
        """
        self._check_name(name)
        (self.root / name).mkdir(parents=True, exist_ok=True)
        if version is not None:
            if version < 1:
                raise ValueError(f"version must be >= 1, got {version}")
            version = int(version)
            try:
                (self.root / name / f"v{version}").mkdir()
            except FileExistsError:
                raise ArtifactError(
                    f"model {name!r} version {version} is already "
                    f"published (or claimed by a concurrent publisher); "
                    f"versions are immutable") from None
        else:
            for _ in range(self._PUBLISH_ATTEMPTS):
                claimed = self._claimed_versions(name)
                version = (claimed[-1] + 1) if claimed else 1
                try:
                    (self.root / name / f"v{version}").mkdir()
                    break
                except FileExistsError:
                    # A concurrent publisher claimed this number between
                    # the scan and the mkdir; rescan and go higher.
                    continue
            else:
                raise ArtifactError(
                    f"could not claim a version of model {name!r} after "
                    f"{self._PUBLISH_ATTEMPTS} attempts")
        record = ModelRecord(name=name, version=version,
                             path=self.root / name / f"v{version}")
        try:
            save_model(model, record.path, model_class=model_class,
                       mmap_phi=mmap_phi, shard_words=shard_words)
            self.recorder.count("registry.publishes", name=name)
        except BaseException:
            # The claim is ours (exclusive mkdir) and no manifest landed,
            # so nothing can be reading it: release the version number
            # instead of wedging it on a junk directory.  Only a crash
            # leaves a dead claim behind.
            shutil.rmtree(record.path, ignore_errors=True)
            raise
        return record

    def load(self, name: str, version: int | None = None,
             mmap_phi: bool = False) -> LoadedModel:
        """Load a published model, memoized through the LRU cache.

        Resolving ``version=None`` re-checks the directory for the
        latest version on every call, so freshly published models are
        picked up; the cache key is the concrete resolved version plus
        a fingerprint of the artifact's phi storage (schema version,
        layout and — for sharded artifacts — the shard map), so two
        storage flavors interleaved at the same coordinates are
        distinct cache entries.  ``mmap_phi`` is not part of the key:
        it never changes what a load returns (mapped artifacts always
        load mapped; on a v1 artifact it only warns, on a cache miss).

        Evicted entries (LRU overflow or a stale fingerprint at the
        same coordinates) have ``close()`` called so their mmap
        handles are released promptly instead of waiting for GC.
        """
        record = self.resolve(name, version)
        fingerprint = _phi_fingerprint(read_manifest(record.path))
        key = (record.name, record.version, fingerprint)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.recorder.count("registry.cache_hits")
            return cached
        self.recorder.count("registry.cache_misses")
        # Purge cache entries for the same (name, version) whose stored
        # fingerprint no longer matches the on-disk artifact.
        stale = [k for k in self._cache if k[:2] == key[:2]]
        for stale_key in stale:
            self._evict(self._cache.pop(stale_key))
        loaded = load_model(record.path, mmap_phi=mmap_phi,
                            stacklevel=3)
        if loaded.phi_mmapped:
            self.recorder.count("registry.mmap_opens")
        if self.cache_size > 0:
            self._cache[key] = loaded
            while len(self._cache) > self.cache_size:
                self._evict(self._cache.popitem(last=False)[1])
        return loaded

    def _evict(self, loaded: LoadedModel) -> None:
        """Close one model leaving the cache, counting the eviction
        (and the mmap release, when it held one)."""
        self.recorder.count("registry.cache_evictions")
        if loaded.phi_mmapped:
            self.recorder.count("registry.mmap_closes")
        loaded.close()

    def manifest(self, name: str, version: int | None = None) -> dict:
        """The manifest of a published model, without loading arrays."""
        return read_manifest(self.resolve(name, version).path)

    @property
    def cached_keys(self) -> tuple[tuple[str, int, str], ...]:
        """Current cache contents as ``(name, version,
        phi-fingerprint)`` keys, least recently used first (for tests
        and monitoring)."""
        return tuple(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached model, closing their mmap handles."""
        while self._cache:
            self._evict(self._cache.popitem(last=False)[1])

    def __repr__(self) -> str:
        return (f"ModelRegistry(root={str(self.root)!r}, "
                f"models={len(self.names())}, "
                f"cached={len(self._cache)})")
