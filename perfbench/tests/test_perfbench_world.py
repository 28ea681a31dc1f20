import numpy as np

from world import make_queries, make_world

SMALL = dict(source_topics=20, generating_topics=4, train_documents=12,
             train_document_length=20.0)


def test_world_is_a_pure_function_of_the_seed():
    first, again = make_world(3, **SMALL), make_world(3, **SMALL)
    assert first.train_texts == again.train_texts
    assert first.article_texts == again.article_texts
    assert np.array_equal(first.token_topics, again.token_topics)
    assert first.generating_labels == again.generating_labels
    queries = make_queries(first, 30, 15.0, stream=1)
    repeat = make_queries(again, 30, 15.0, stream=1)
    assert queries.texts == repeat.texts
    assert queries.dominant_labels == repeat.dominant_labels
    assert np.array_equal(queries.oov_tokens, repeat.oov_tokens)


def test_worlds_differ_across_seeds_and_streams():
    first, other = make_world(3, **SMALL), make_world(4, **SMALL)
    assert first.train_texts != other.train_texts
    assert first.article_texts != other.article_texts
    assert (make_queries(first, 30, 15.0, stream=1).texts
            != make_queries(first, 30, 15.0, stream=2).texts)


def test_query_answer_key_matches_the_texts():
    world = make_world(5, **SMALL)
    seen = {word for text in world.train_texts for word in text.split()}
    assert not seen & set(world.tail_words)
    queries = make_queries(world, 40, 25.0, stream=1)
    for text, oov, known, label in zip(queries.texts, queries.oov_tokens,
                                       queries.known_tokens,
                                       queries.dominant_labels):
        tokens = text.split()
        assert oov == sum(token not in seen for token in tokens)
        assert oov + known == len(tokens)
        assert label in world.generating_labels
    assert len(world.token_topics) == sum(
        len(text.split()) for text in world.train_texts)
