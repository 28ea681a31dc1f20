"""Shared fixtures: small corpora, knowledge sources, and a legacy
artifact writer."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.knowledge.source import KnowledgeSource
from repro.knowledge.wikipedia import SyntheticWikipedia
from repro.serving import PHI_MEMBER_FILENAME, save_model
from repro.serving.artifacts import ARRAYS_FILENAME, MANIFEST_FILENAME
from repro.text.corpus import Corpus


def write_v2_artifact(model, path) -> Path:
    """Hand-write a legacy schema-v2 artifact of ``model`` at ``path``.

    The library reads v2 but never writes it; this reproduces the
    layout for the reader tests: phi leaves the ``.npz`` and lands
    uncompressed in ``phi_word_major.npy`` as its contiguous word-major
    ``(V, T)`` transpose, and the manifest says ``schema_version: 2``
    with a whole-member ``phi_storage``.
    """
    path = save_model(model, path)
    with np.load(path / ARRAYS_FILENAME) as arrays:
        kept = {key: arrays[key] for key in arrays.files if key != "phi"}
        phi = arrays["phi"]
    np.save(path / PHI_MEMBER_FILENAME, np.ascontiguousarray(phi.T))
    np.savez_compressed(path / ARRAYS_FILENAME, **kept)
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    manifest["schema_version"] = 2
    manifest["phi_storage"] = {"member": PHI_MEMBER_FILENAME,
                               "layout": "word_major"}
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2))
    return path


@pytest.fixture(scope="session")
def v2_artifact():
    """:func:`write_v2_artifact`, for tests in any module."""
    return write_v2_artifact


@pytest.fixture
def tiny_corpus() -> Corpus:
    """The paper's two-document case-study corpus."""
    return Corpus.from_texts(
        ["pencil pencil umpire", "ruler ruler baseball"], tokenizer=None)


@pytest.fixture
def small_source() -> KnowledgeSource:
    """A three-article knowledge source with distinctive vocabularies."""
    return KnowledgeSource({
        "School Supplies": ("pencil pencil pencil ruler ruler eraser "
                            "notebook paper pen crayon").split(),
        "Baseball": ("baseball baseball umpire umpire bat ball pitcher "
                     "inning glove base").split(),
        "Cooking": ("recipe oven flour sugar butter saucepan whisk bake "
                    "bake knead").split(),
    })


@pytest.fixture
def wiki_source() -> KnowledgeSource:
    """A synthetic-Wikipedia source of five pseudo-word topics."""
    wiki = SyntheticWikipedia([f"Topic {i}" for i in range(5)],
                              article_length=120, core_vocab_size=10,
                              background_vocab_size=40, seed=11)
    return wiki.knowledge_source()


@pytest.fixture
def wiki_corpus(wiki_source: KnowledgeSource) -> Corpus:
    """A 40-document corpus sampled from the wiki_source articles."""
    rng = np.random.default_rng(7)
    texts = []
    labels = wiki_source.labels
    for index in range(40):
        article = wiki_source.tokens(labels[index % len(labels)])
        texts.append(" ".join(rng.choice(article, size=30)))
    return Corpus.from_texts(texts, tokenizer=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(123)
