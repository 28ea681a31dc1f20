"""One synthetic world per seed: the benchmark's generated inputs.

A world is a MedlinePlus-style knowledge source of ``B`` candidate topics
and a training corpus generated from ``K`` of them by the Source-LDA
process (``generate_source_lda_corpus``), both rendered as raw text.
Query pools for the serving workloads are drawn from the same generating
topics restricted to the training vocabulary, with a fixed share of
tokens replaced by lexicon-tail words the fitted model has never seen
(out-of-vocabulary), so every world serves the same number of known
tokens per query.

Everything here is a pure function of the seed.  The answer keys (token
topics, dominant topics, OOV counts) stay with the benchmark; the program
only ever receives the texts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import generate_source_lda_corpus
from repro.knowledge.medline import medline_knowledge_source

#: B: candidate topics in the knowledge source.
SOURCE_TOPICS = 200
#: K: topics that actually generate the corpus.
GENERATING_TOPICS = 20
TRAIN_DOCUMENTS = 200
TRAIN_DOCUMENT_LENGTH = 80.0
#: Dirichlet concentration of each document's topic mixture.
DOCUMENT_ALPHA = 0.5
#: Lambda of every generating topic: the paper's prior mean, with no
#: spread, so that no seed's world is much harder to label than another's.
LAMBDA_MU, LAMBDA_SIGMA = 0.7, 0.0
#: Share of query tokens replaced by out-of-vocabulary tail words.
OOV_RATE = 0.1


@dataclass(frozen=True)
class World:
    """Raw-text inputs of one seed plus the answer key for the checks."""

    seed: int
    #: Knowledge-source article text per topic label.
    article_texts: dict[str, str]
    #: Training documents as whitespace-separated raw text.
    train_texts: tuple[str, ...]
    #: Generating topic of every training token (index into
    #: ``generating_labels``), in corpus order.
    token_topics: np.ndarray
    generating_labels: tuple[str, ...]
    #: Word distributions of the generating topics over ``words``.
    topic_distributions: np.ndarray
    #: The knowledge-source vocabulary the distributions index.
    words: tuple[str, ...]
    #: Source words absent from the training texts: guaranteed OOV for a
    #: model fitted on them.
    tail_words: tuple[str, ...]


@dataclass(frozen=True)
class QueryPool:
    """Held-out query documents with what a correct server must report."""

    texts: tuple[str, ...]
    #: Tokens of each document outside the training vocabulary.
    oov_tokens: np.ndarray
    #: Tokens of each document inside it (what fold-in samples).
    known_tokens: np.ndarray
    #: Label of each document's dominant generating topic.
    dominant_labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.texts)


def make_world(seed: int, source_topics: int = SOURCE_TOPICS,
               generating_topics: int = GENERATING_TOPICS,
               train_documents: int = TRAIN_DOCUMENTS,
               train_document_length: float = TRAIN_DOCUMENT_LENGTH
               ) -> World:
    """The world of ``seed`` (the same seed always gives the same one)."""
    source = medline_knowledge_source(num_topics=source_topics, seed=seed)
    synthetic = generate_source_lda_corpus(
        source, num_topics=generating_topics,
        num_documents=train_documents,
        avg_document_length=train_document_length, alpha=DOCUMENT_ALPHA,
        mu=LAMBDA_MU, sigma=LAMBDA_SIGMA, seed=seed)
    vocabulary = synthetic.corpus.vocabulary
    words = vocabulary.words
    train_texts = tuple(" ".join(words[int(i)] for i in doc.word_ids)
                        for doc in synthetic.corpus)
    seen = {word for text in train_texts for word in text.split()}
    return World(
        seed=seed,
        article_texts={label: " ".join(source.tokens(label))
                       for label in source.labels},
        train_texts=train_texts,
        token_topics=synthetic.token_topics,
        generating_labels=synthetic.chosen_topics,
        topic_distributions=synthetic.topic_distributions,
        words=words,
        tail_words=tuple(w for w in words if w not in seen))


def make_queries(world: World, count: int, mean_length: float,
                 stream: int) -> QueryPool:
    """``count`` held-out documents of Poisson(``mean_length``) tokens.

    ``stream`` separates pools of one world (batch vs interactive) so
    each is its own deterministic draw.  Each token is drawn from the
    generating process over the training vocabulary, then replaced by a
    tail word with probability :data:`OOV_RATE`.
    """
    rng = np.random.default_rng([world.seed, stream])
    num_topics = world.topic_distributions.shape[0]
    lengths = np.maximum(1, rng.poisson(mean_length, size=count))
    mixtures = rng.dirichlet(np.full(num_topics, DOCUMENT_ALPHA),
                             size=count)
    owners = np.repeat(np.arange(count), lengths)
    # Inverse-CDF topic draw per token from its document's mixture: one
    # search over all documents' CDFs laid end to end (document d's
    # occupies (d, d + 1]).
    topic_cdf = (np.cumsum(mixtures, axis=1)
                 + np.arange(count)[:, None]).ravel()
    topics = np.clip(
        np.searchsorted(topic_cdf, owners + rng.random(owners.shape[0]),
                        side="right") - owners * num_topics,
        0, num_topics - 1)
    word_ids = np.empty(owners.shape[0], dtype=np.int64)
    tail = set(world.tail_words)
    in_vocabulary = np.asarray([word not in tail for word in world.words])
    word_cdf = np.cumsum(world.topic_distributions * in_vocabulary, axis=1)
    word_cdf /= word_cdf[:, -1:]
    uniforms = rng.random(owners.shape[0])
    for topic in range(num_topics):
        mask = topics == topic
        word_ids[mask] = np.minimum(
            np.searchsorted(word_cdf[topic], uniforms[mask], side="right"),
            word_cdf.shape[1] - 1)
    replaced = rng.random(owners.shape[0]) < OOV_RATE
    substitutes = rng.integers(len(world.tail_words), size=owners.shape[0])
    texts, oov, known, dominant = [], [], [], []
    cursor = 0
    for doc, length in enumerate(lengths):
        tokens = []
        for position in range(cursor, cursor + length):
            tokens.append(world.tail_words[substitutes[position]]
                          if replaced[position]
                          else world.words[word_ids[position]])
        unseen = int(replaced[cursor:cursor + length].sum())
        kept = topics[cursor:cursor + length][~replaced[cursor:cursor + length]]
        counts = np.bincount(kept, minlength=num_topics)
        # Ties between equally frequent topics go to the larger mixture
        # weight, so the answer key is never arbitrary.
        best = np.flatnonzero(counts == counts.max())
        top = int(best[np.argmax(mixtures[doc, best])])
        texts.append(" ".join(tokens))
        oov.append(unseen)
        known.append(length - unseen)
        dominant.append(world.generating_labels[top])
        cursor += length
    return QueryPool(texts=tuple(texts),
                     oov_tokens=np.asarray(oov, dtype=np.int64),
                     known_tokens=np.asarray(known, dtype=np.int64),
                     dominant_labels=tuple(dominant))
