"""Model persistence and batched inference serving.

The serving subsystem has two halves:

**Artifacts** — :func:`save_model` / :func:`load_model` persist any
fitted model (all six model classes) as a schema-versioned directory of
compressed arrays plus a JSON manifest, and :class:`ModelRegistry`
resolves named, versioned artifacts with an LRU cache of loaded models.
``save_model(shard_words=N)`` writes the phi matrix column-sharded
(schema v3) so loads serve out-of-core through a lazy
:class:`ShardedPhi` view that maps only the shards a batch touches;
``save_model(mmap_phi=True)`` writes it as one mappable shard.

**Inference** — :class:`InferenceSession` answers theta / top-topics /
label queries for batches of unseen raw-text documents, tokenizing and
vocabulary-mapping through :mod:`repro.text` with an explicit OOV
policy, then folding documents in through the batched
:class:`FoldInEngine` (which also backs
:func:`repro.metrics.perplexity.heldout_gibbs_theta`).

Quickstart::

    from repro.serving import ModelRegistry, InferenceSession

    registry = ModelRegistry("artifacts")
    registry.publish("reuters", fitted, model_class="SourceLDA")
    session = InferenceSession(registry.load("reuters"), seed=0)
    result = session.infer(["oil prices rose sharply", ...])
"""

from repro.serving.artifacts import (ARTIFACT_FORMAT,
                                     PHI_MEMBER_FILENAME,
                                     SCHEMA_VERSION, ArtifactError,
                                     LoadedModel, ManifestError,
                                     load_model, read_manifest,
                                     save_model)
from repro.serving.foldin import (FoldInEngine, FoldInScratch,
                                  validate_phi)
from repro.serving.parallel import (EngineSpec, HedgePolicy,
                                    ParallelFoldIn, WorkerFault,
                                    available_cpus)
from repro.serving.registry import ModelRecord, ModelRegistry
from repro.serving.session import (InferenceResult, InferenceSession,
                                   TopicScore)
from repro.serving.sharding import (ShardedPhi, TransposedShardedPhi,
                                    plan_shard_starts)

__all__ = [
    "ARTIFACT_FORMAT",
    "ArtifactError",
    "EngineSpec",
    "FoldInEngine",
    "FoldInScratch",
    "HedgePolicy",
    "InferenceResult",
    "InferenceSession",
    "LoadedModel",
    "ManifestError",
    "ModelRecord",
    "ModelRegistry",
    "PHI_MEMBER_FILENAME",
    "ParallelFoldIn",
    "SCHEMA_VERSION",
    "ShardedPhi",
    "TopicScore",
    "TransposedShardedPhi",
    "WorkerFault",
    "available_cpus",
    "load_model",
    "plan_shard_starts",
    "read_manifest",
    "save_model",
    "validate_phi",
]
