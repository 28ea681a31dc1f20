"""Versioned on-disk persistence for fitted topic models.

An *artifact* is one directory holding everything needed to reload a
:class:`~repro.models.base.FittedTopicModel` bit-exactly and serve it:

``manifest.json``
    Schema-versioned JSON: artifact format tag, model class name, the
    corpus vocabulary (id order), topic labels (knowledge-source
    metadata), scalar hyperparameters, and the full fit metadata tree
    with every array replaced by a pointer into the ``.npz``.
``arrays.npz``
    Compressed, lossless NumPy arrays: ``phi``, ``theta``, the flattened
    per-token assignments plus document lengths, the log-likelihood
    trace, and every array-valued metadata entry.
``phi_shard_<k>.npy`` (schema v3, optional)
    ``save_model(..., shard_words=N)`` externalizes ``phi`` out of the
    compressed archive as its word-major ``(V, T)`` transpose, split
    along the **vocabulary axis** into **uncompressed** ``.npy`` blocks
    of ``N`` contiguous words each.  Zip members can never be
    memory-mapped, but a bare ``.npy`` can.  The manifest's
    ``phi_storage`` carries the shard map — per-shard word ranges,
    total probability masses and SHA-256 checksums — and
    :func:`load_model` returns a lazy
    :class:`~repro.serving.sharding.ShardedPhi` view that maps shards
    read-only on first touch, so a query batch's phi footprint is the
    shards its words live in, not the whole matrix (out-of-core
    serving; models bigger than RAM load fine), and the OS page cache
    keeps one physical copy for every serving process.
    ``save_model(..., mmap_phi=True)`` writes the one-shard layout
    (``shard_words = V``): a single ``phi_shard_0.npy`` holding the
    whole word-major matrix.
``phi_word_major.npy`` (schema v2, read only)
    The legacy mappable layout: one uncompressed word-major member,
    byte-for-byte the block a one-shard v3 artifact stores.  Nothing
    writes it any more; :func:`load_model` reads it as a one-shard
    :class:`~repro.serving.sharding.ShardedPhi`, so every mapped phi
    has one owner and one ``close()``.

The manifest is the compatibility surface: :func:`load_model` refuses
artifacts whose ``schema_version`` is newer than this build understands
(and anything that is not an artifact at all), so stale servers fail
loudly instead of misreading future layouts.  Writers record the
*minimum* version their layout needs — v1 when everything lives in the
``.npz`` (readable by every release of this library), v3 when phi is
externalized as shards — and this build reads v1, v2 and v3.  All six
model classes (LDA, EDA, CTM and the Source-LDA family) round-trip
through the same two functions — the model class is recorded as a
name, not pickled, so artifacts stay portable and auditable.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.models.base import FittedTopicModel
from repro.serving.sharding import (ShardedPhi, _sha256_file,
                                    plan_shard_starts)
from repro.text.vocabulary import Vocabulary

#: Newest artifact schema version this build reads; bump on layout
#: changes.  Writers stamp the minimum version their layout needs
#: (1 = everything in the npz, 3 = phi column-sharded along the
#: vocabulary axis); 2 (phi externalized whole) is read, never written.
SCHEMA_VERSION = 3
#: Format tag distinguishing artifacts from arbitrary JSON + NPZ pairs.
ARTIFACT_FORMAT = "repro.serving/model-artifact"

MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "arrays.npz"
#: The legacy v2 uncompressed phi member — ``phi.T`` as a contiguous
#: ``(V, T)`` array.  Read as a one-shard view; removed on overwrite.
PHI_MEMBER_FILENAME = "phi_word_major.npy"
#: The v3 shard members — contiguous word-major vocabulary ranges,
#: written by ``save_model(..., shard_words=N)`` (or ``mmap_phi=True``:
#: one shard).
PHI_SHARD_TEMPLATE = "phi_shard_{index}.npy"
#: Glob matching every possible phi shard member, for stale cleanup on
#: overwrite.
PHI_SHARD_GLOB = "phi_shard_*.npy"

#: Reserved npz keys for the model's own arrays; metadata arrays get
#: generated ``meta_<n>`` keys that never collide with these.
_MODEL_ARRAY_KEYS = ("phi", "theta", "assignments_flat",
                     "assignment_lengths", "log_likelihoods")


class ArtifactError(ValueError):
    """A model artifact could not be written or read."""


class ManifestError(ArtifactError):
    """The artifact manifest is missing, malformed or unsupported."""


# ----------------------------------------------------------------------
# Metadata tree <-> (JSON tree, npz arrays)
# ----------------------------------------------------------------------
def _encode_value(value: Any, arrays: dict[str, np.ndarray],
                  path: str) -> Any:
    """JSON-encode one metadata value, externalizing arrays into
    ``arrays`` under generated keys."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            # np.savez would pickle it, but np.load(allow_pickle=False)
            # could never read it back — fail at save time, not load.
            raise ArtifactError(
                f"cannot serialize object-dtype metadata array at "
                f"{path}")
        key = f"meta_{len(arrays)}"
        arrays[key] = value
        return {"__kind__": "ndarray", "key": key}
    if isinstance(value, tuple):
        return {"__kind__": "tuple",
                "items": [_encode_value(v, arrays, f"{path}[{i}]")
                          for i, v in enumerate(value)]}
    if isinstance(value, list):
        return [_encode_value(v, arrays, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(value, dict):
        # Encoded as pairs because metadata keys are not always strings
        # (phi snapshots are keyed by iteration number).
        return {"__kind__": "dict",
                "items": [[_encode_value(k, arrays, f"{path}<key>"),
                           _encode_value(v, arrays, f"{path}[{k!r}]")]
                          for k, v in value.items()]}
    raise ArtifactError(
        f"cannot serialize metadata value of type "
        f"{type(value).__name__} at {path}")


def _decode_value(value: Any, arrays: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(v, arrays) for v in value]
    if isinstance(value, dict):
        kind = value.get("__kind__")
        if kind == "ndarray":
            key = value["key"]
            if key not in arrays:
                raise ManifestError(
                    f"manifest references missing array {key!r}")
            return arrays[key]
        if kind == "tuple":
            return tuple(_decode_value(v, arrays)
                         for v in value["items"])
        if kind == "dict":
            return {_hashable(_decode_value(k, arrays)):
                    _decode_value(v, arrays)
                    for k, v in value["items"]}
        raise ManifestError(f"unknown metadata encoding kind {kind!r}")
    return value


def _hashable(key: Any) -> Any:
    if isinstance(key, np.ndarray):
        raise ManifestError("metadata dict keys cannot be arrays")
    return key


def _scalar_hyperparameters(metadata: dict[str, Any]) -> dict[str, Any]:
    """The JSON-scalar metadata entries — the fit's hyperparameters
    (alpha, beta, mu, sigma, epsilon, ...) as recorded by every model's
    ``fit``."""
    return {key: (bool(value) if isinstance(value, (bool, np.bool_))
                  else int(value) if isinstance(value, (int, np.integer))
                  else float(value)
                  if isinstance(value, (float, np.floating)) else value)
            for key, value in metadata.items()
            if isinstance(value, (bool, int, float, str,
                                  np.bool_, np.integer, np.floating))}


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def save_model(model: FittedTopicModel, path: str | Path,
               model_class: str | None = None,
               overwrite: bool = False,
               mmap_phi: bool = False,
               shard_words: int | None = None) -> Path:
    """Persist ``model`` as a versioned artifact directory at ``path``.

    Parameters
    ----------
    model:
        Any fitted model — all six model classes produce the same
        :class:`FittedTopicModel` surface and round-trip identically.
    model_class:
        Recorded in the manifest (e.g. ``"SourceLDA"``); purely
        descriptive, never executed on load.
    overwrite:
        Refuse to clobber an existing artifact unless set.
    mmap_phi:
        Externalize ``phi`` as one uncompressed word-major shard
        member, the ``shard_words = V`` layout (schema v3), so serving
        workers can memory-map one shared copy; everything else stays
        in the compressed ``.npz``.  Costs disk (phi no longer
        compresses) and buys zero-copy multi-process loading.
    shard_words:
        Shard the word-major phi into contiguous ``phi_shard_<k>.npy``
        members of ``shard_words`` vocabulary words each (schema v3;
        the last shard takes the remainder).  The manifest records the
        shard map — word ranges, per-shard probability masses and
        SHA-256 checksums — and loads come back as a lazy
        :class:`~repro.serving.sharding.ShardedPhi` that maps only the
        shards a query batch touches.  Shard members are plain ``.npy``
        files and therefore always mappable, so ``mmap_phi`` is
        implied (and ignored) when sharding.

    Returns the artifact directory path.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if manifest_path.exists() and not overwrite:
        raise ArtifactError(
            f"artifact already exists at {path}; pass overwrite=True to "
            f"replace it")
    if shard_words is None and mmap_phi:
        # The mappable layout is the one-shard layout.
        shard_words = model.vocab_size
    if shard_words is not None and shard_words < 1:
        raise ArtifactError(
            f"shard_words must be >= 1, got {shard_words}")
    path.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    metadata_tree = _encode_value(dict(model.metadata), arrays, "metadata")
    flat = model.flat_assignments()
    lengths = np.asarray([len(a) for a in model.assignments],
                         dtype=np.int64)
    vocabulary = model.vocabulary
    manifest = {
        "format": ARTIFACT_FORMAT,
        # The minimum version that can describe this layout, so v1-only
        # readers keep loading artifacts that never asked for mmap.
        "schema_version": 3 if shard_words is not None else 1,
        "model_class": model_class,
        "num_topics": model.num_topics,
        "num_documents": model.num_documents,
        "vocab_size": model.vocab_size,
        "num_tokens": int(flat.shape[0]),
        "topic_labels": list(model.topic_labels),
        "num_labeled_topics": len(model.labeled_topic_indices()),
        "vocabulary": list(vocabulary.words),
        "vocabulary_frozen": vocabulary.frozen,
        "hyperparameters": _scalar_hyperparameters(model.metadata),
        "metadata": metadata_tree,
    }
    sharded = shard_words is not None
    shard_entries: list[dict[str, Any]] = []
    if sharded:
        word_major = np.ascontiguousarray(
            np.asarray(model.phi, dtype=np.float64).T)
        starts = plan_shard_starts(model.vocab_size, shard_words)
        stops = starts[1:] + (model.vocab_size,)
        for index, (start, stop) in enumerate(zip(starts, stops)):
            shard_entries.append({
                "member": PHI_SHARD_TEMPLATE.format(index=index),
                "start": int(start), "stop": int(stop),
                # The shard's total probability mass: lets the fold-in
                # engine sanity-check stochasticity (sum over shards
                # ~= T) without mapping a single block.
                "mass": float(word_major[start:stop].sum()),
            })
        manifest["phi_storage"] = {"layout": "word_major_sharded",
                                   "shard_words": int(shard_words),
                                   "shards": shard_entries}
    if len(vocabulary) != model.vocab_size:
        raise ArtifactError(
            f"vocabulary has {len(vocabulary)} words but phi covers "
            f"{model.vocab_size}")
    # Crash discipline: stage everything in tmp files first, then — only
    # when overwriting — unlink the old manifest *before* swapping data
    # files in, and write the new manifest *last*.  A crash anywhere in
    # the swap window leaves a manifest-less directory that fails loudly
    # ("no artifact manifest"), never a loadable hybrid mixing one
    # model's phi with another's theta/arrays.  The invalid window spans
    # only the final renames; readers of the *old* artifact are the
    # accepted casualty of overwrite=True.
    arrays_tmp = path / (ARRAYS_FILENAME + ".tmp")
    manifest_tmp = path / (MANIFEST_FILENAME + ".tmp")
    model_arrays = {
        "theta": model.theta,
        "assignments_flat": flat.astype(np.int64),
        "assignment_lengths": lengths,
        "log_likelihoods": np.asarray(model.log_likelihoods,
                                      dtype=np.float64),
    }
    if not sharded:
        model_arrays["phi"] = np.asarray(model.phi, dtype=np.float64)
    with open(arrays_tmp, "wb") as handle:
        np.savez_compressed(handle, **model_arrays, **arrays)
    for entry in shard_entries:
        shard_tmp = path / (entry["member"] + ".tmp")
        with open(shard_tmp, "wb") as handle:
            np.save(handle, np.ascontiguousarray(
                word_major[entry["start"]:entry["stop"]]))
        # Checksum the staged bytes — what the rename publishes is
        # exactly what was hashed.
        entry["sha256"] = _sha256_file(shard_tmp)
    manifest_tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    # --- swap window: old manifest gone first, new manifest last ---
    if manifest_path.exists():
        manifest_path.unlink()
    legacy_member = path / PHI_MEMBER_FILENAME
    if legacy_member.exists():
        # Overwriting a legacy v2 artifact: drop the stale member so
        # nothing can ever mmap an outdated phi.
        legacy_member.unlink()
    new_members = {entry["member"] for entry in shard_entries}
    for stale in path.glob(PHI_SHARD_GLOB):
        # Overwriting a v3 artifact with fewer shards (or a v1
        # layout): stale shard members beyond the new map must go, or a
        # future layout with more shards could resurrect them.
        if stale.name not in new_members:
            stale.unlink()
    for entry in shard_entries:
        (path / (entry["member"] + ".tmp")).replace(path / entry["member"])
    arrays_tmp.replace(path / ARRAYS_FILENAME)
    manifest_tmp.replace(manifest_path)
    return path


@dataclass(frozen=True)
class LoadedModel:
    """A reloaded artifact: the fitted model plus its manifest facts.

    ``phi_mmapped`` records whether this load maps phi (any v2 or v3
    load — member blocks always map read-only) rather than reading it
    into memory.  ``shard_map`` is then the per-shard ``(start, stop)``
    word ranges (``((0, V),)`` for a v2 artifact; ``None`` for v1), and
    the model's ``phi`` is a lazy
    :class:`~repro.serving.sharding.TransposedShardedPhi`; serving
    layers ship its shard map to worker processes so each maps the
    same files.

    Loads that map files own them until :meth:`close`: call it (the
    registry does on cache eviction) to release maps and descriptors
    deterministically instead of waiting on garbage collection.
    """

    model: FittedTopicModel
    model_class: str | None
    schema_version: int
    path: Path
    manifest: dict[str, Any]
    #: The closeable map owner: the
    #: :class:`~repro.serving.sharding.ShardedPhi` itself (v2/v3).
    phi_resource: ShardedPhi | None = field(default=None, repr=False)

    @property
    def phi_mmapped(self) -> bool:
        return self.phi_resource is not None

    @property
    def shard_map(self) -> tuple[tuple[int, int], ...] | None:
        return (self.phi_resource.shard_ranges
                if self.phi_resource is not None else None)

    def close(self) -> None:
        """Release the load's mapped phi resources (idempotent).

        v2/v3: drops the shard block cache and closes every mapped
        member file; the lazy view stays usable and re-maps on the next
        gather.  v1 (nothing mapped): no-op.
        """
        if self.phi_resource is not None:
            self.phi_resource.close()


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate an artifact manifest.

    Raises :class:`ManifestError` for a missing/unparseable manifest, a
    foreign format tag, or a schema version this build does not support.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise ManifestError(f"no artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise ManifestError(
            f"artifact manifest at {manifest_path} is not valid JSON: "
            f"{error}") from error
    if not isinstance(manifest, dict) \
            or manifest.get("format") != ARTIFACT_FORMAT:
        raise ManifestError(
            f"{manifest_path} is not a {ARTIFACT_FORMAT} manifest")
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ManifestError(
            f"artifact manifest has invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ManifestError(
            f"artifact schema version {version} is newer than the "
            f"supported version {SCHEMA_VERSION}; upgrade this library "
            f"to load it")
    return manifest


def _read_shard_map(manifest: dict[str, Any], shards: Any,
                    path: Path) -> ShardedPhi:
    """Validate a shard list and build the lazy view over it."""
    vocab_size = manifest.get("vocab_size")
    num_topics = manifest.get("num_topics")
    if not isinstance(shards, list) or not shards \
            or not isinstance(vocab_size, int) \
            or not isinstance(num_topics, int):
        raise ManifestError(
            f"sharded artifact manifest needs a non-empty shard list "
            f"plus integer vocab_size/num_topics, got {shards!r}")
    cursor = 0
    for entry in shards:
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("member"), str) \
                or not isinstance(entry.get("start"), int) \
                or not isinstance(entry.get("stop"), int):
            raise ManifestError(
                f"malformed phi shard entry {entry!r}")
        if entry["start"] != cursor or entry["stop"] <= entry["start"]:
            raise ManifestError(
                f"phi shard ranges must tile the vocabulary "
                f"contiguously; shard {entry['member']!r} covers "
                f"[{entry['start']}, {entry['stop']}) after offset "
                f"{cursor}")
        cursor = entry["stop"]
    if cursor != vocab_size:
        raise ManifestError(
            f"phi shards cover {cursor} words but the vocabulary has "
            f"{vocab_size}")
    shard_paths = tuple(path / entry["member"] for entry in shards)
    for shard_path in shard_paths:
        if not shard_path.is_file():
            raise ArtifactError(
                f"artifact phi member missing at {shard_path}")
    masses = (tuple(float(entry["mass"]) for entry in shards)
              if all(isinstance(entry.get("mass"), (int, float))
                     for entry in shards) else None)
    checksums = (tuple(entry["sha256"] for entry in shards)
                 if all(isinstance(entry.get("sha256"), str)
                        for entry in shards) else None)
    return ShardedPhi(shard_paths,
                      tuple(entry["start"] for entry in shards),
                      vocab_size, num_topics, mmap=True,
                      masses=masses, checksums=checksums)


def load_model(path: str | Path, mmap_phi: bool = False, *,
               stacklevel: int = 2) -> LoadedModel:
    """Reload an artifact written by :func:`save_model`.

    ``phi``/``theta``/assignments/labels/metadata are restored bit-exact
    (float64 arrays round-trip losslessly through the ``.npz``; the
    uncompressed phi members are lossless by construction).

    Artifacts with externalized phi — schema v3, and legacy schema v2,
    read as a one-shard view over its ``phi_word_major.npy`` — load
    **lazily**: ``model.phi`` becomes the ``(T, V)`` face of a
    :class:`~repro.serving.sharding.ShardedPhi` that maps member blocks
    read-only on first touch, so loading never materializes the matrix,
    serving maps only the shards queries actually reference, and any
    number of processes loading the same artifact share one physical
    copy (materializing via ``np.asarray(model.phi)`` stays bit-exact).
    ``mmap_phi=True`` asks for that mapped phi: v1 artifacts (phi inside
    the ``.npz``, which can never be mapped) still load, falling back
    to an in-memory phi with a warning.

    ``stacklevel`` positions the v1 mmap-fallback warning (standard
    :func:`warnings.warn` convention counted from this function; the
    default 2 names the direct caller).  Wrappers loading on a caller's
    behalf — ``ModelRegistry.load`` — pass 3 so the warning lands on
    the caller's line.
    """
    path = Path(path)
    manifest = read_manifest(path)
    arrays_path = path / ARRAYS_FILENAME
    if not arrays_path.is_file():
        raise ArtifactError(f"artifact arrays missing at {arrays_path}")
    phi_storage = manifest.get("phi_storage")
    sharded: ShardedPhi | None = None
    if phi_storage is not None:
        if not isinstance(phi_storage, dict):
            raise ManifestError(
                f"artifact manifest has unsupported phi_storage "
                f"{phi_storage!r}")
        layout = phi_storage.get("layout")
        if layout == "word_major_sharded":
            shards = phi_storage.get("shards")
        elif layout == "word_major" \
                and isinstance(phi_storage.get("member"), str):
            # Legacy v2: the whole word-major matrix in one member —
            # the same bytes as a one-shard v3 layout.
            shards = [{"member": phi_storage["member"], "start": 0,
                       "stop": manifest.get("vocab_size")}]
        else:
            raise ManifestError(
                f"artifact manifest has unsupported phi_storage "
                f"{phi_storage!r}")
        sharded = _read_shard_map(manifest, shards, path)
    elif mmap_phi:
        warnings.warn(
            f"artifact at {path} stores phi inside the compressed "
            f"archive (schema v1), which cannot be memory-mapped; "
            f"loading phi into memory instead — re-save with "
            f"mmap_phi=True for a mappable artifact",
            RuntimeWarning, stacklevel=stacklevel)
    required = tuple(key for key in _MODEL_ARRAY_KEYS
                     if key != "phi" or sharded is None)
    with np.load(arrays_path) as arrays:
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ArtifactError(
                f"artifact arrays at {arrays_path} are missing {missing}")
        # The canonical (T, V) face of a sharded view stays lazy.
        phi = arrays["phi"] if sharded is None else sharded.T
        theta = arrays["theta"]
        flat = arrays["assignments_flat"]
        lengths = arrays["assignment_lengths"]
        log_likelihoods = arrays["log_likelihoods"].tolist()
        encoded_metadata = manifest.get("metadata")
        # A missing/empty metadata entry means "no metadata", not an
        # encoded tree.
        metadata = (_decode_value(encoded_metadata, arrays)
                    if encoded_metadata else {})
    if int(lengths.sum()) != int(flat.shape[0]):
        raise ArtifactError(
            "assignment lengths do not sum to the flat assignment count")
    assignments = []
    cursor = 0
    for length in lengths.tolist():
        assignments.append(flat[cursor:cursor + length].copy())
        cursor += length
    vocabulary = Vocabulary(manifest.get("vocabulary", ()))
    if manifest.get("vocabulary_frozen"):
        vocabulary.freeze()
    labels = tuple(manifest.get("topic_labels") or ())
    model = FittedTopicModel(
        phi=phi, theta=theta, assignments=assignments,
        vocabulary=vocabulary, topic_labels=labels,
        log_likelihoods=log_likelihoods,
        metadata=metadata if isinstance(metadata, dict) else {})
    return LoadedModel(model=model,
                       model_class=manifest.get("model_class"),
                       schema_version=int(manifest["schema_version"]),
                       path=path, manifest=manifest,
                       phi_resource=sharded)
