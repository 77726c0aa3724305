"""Corpus building and collapsed-Gibbs topic modeling."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from clickroles.errors import DataError, UsageError
from clickroles.features import read_topic_assignments
from clickroles.tableio import read_matrix_csv
from clickroles.topics import (
    Corpus,
    build_corpus,
    dominant_from_row,
    dominant_topic,
    fit_lda,
    parse_documents,
    tokenize,
    top_words,
    write_assignments,
    write_phi,
    write_top_words,
)


def planted_corpus(
    docs_per_topic: int = 50,
    tokens_per_doc: int = 30,
    vocab_per_topic: int = 15,
    k: int = 2,
    seed: int = 123,
) -> tuple[Corpus, list[int]]:
    """Documents drawn from k disjoint vocabularies, one topic each."""
    rng = np.random.default_rng(seed)
    suffixes = ["".join(p) for p in itertools.product("abcdefghij", repeat=2)]
    prefixes = ["alpha", "bravo", "charlie", "delta"][:k]
    vocabs = [
        [prefixes[t] + s for s in suffixes[:vocab_per_topic]] for t in range(k)
    ]
    texts = []
    planted = []
    for t in range(k):
        for d in range(docs_per_topic):
            words = rng.choice(vocabs[t], size=tokens_per_doc)
            texts.append((f"doc-{t}-{d}", " ".join(words)))
            planted.append(t)
    corpus = build_corpus(texts, stop_words=frozenset())
    return corpus, planted


def permutation_accuracy(assigned: list[int], planted: list[int], k: int) -> float:
    best = 0.0
    for perm in itertools.permutations(range(k)):
        hits = sum(1 for a, p in zip(assigned, planted) if perm[a] == p)
        best = max(best, hits / len(planted))
    return best


class TestTokenize:
    def test_stop_words_and_case(self):
        assert tokenize("The cat sat", stop_words={"the"}) == ["cat", "sat"]

    def test_short_and_nonalpha_dropped(self):
        assert tokenize("a I x2 42 cat-dog, mouse!", stop_words=frozenset()) == [
            "cat",
            "dog",
            "mouse",
        ]


class TestBuildCorpus:
    def test_hand_counted_fixture(self):
        texts = [
            ("A", "apple banana apple"),
            ("B", "banana cherry"),
            ("C", "apple apple apple cherry"),
        ]
        corpus = build_corpus(texts, stop_words=frozenset())
        assert corpus.vocabulary == ("apple", "banana", "cherry")
        assert corpus.documents[0] == ((0, 2), (1, 1))
        assert corpus.documents[1] == ((1, 1), (2, 1))
        assert corpus.documents[2] == ((0, 3), (2, 1))
        assert corpus.total_tokens == 9

    def test_stop_word_only_document_flagged(self):
        corpus = build_corpus([("A", "the the the"), ("B", "cat")], stop_words={"the"})
        assert corpus.articles == ("A", "B")
        assert corpus.documents[0] == ()
        assert corpus.empty_articles == ("A",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty"):
            build_corpus([])

    def test_duplicate_article(self):
        with pytest.raises(DataError, match="duplicate"):
            build_corpus([("A", "x y"), ("A", "z w")], stop_words=frozenset())

    def test_vocabulary_first_appearance(self):
        corpus = build_corpus(
            [("A", "zebra apple"), ("B", "apple mango")], stop_words=frozenset()
        )
        assert corpus.vocabulary == ("zebra", "apple", "mango")

    def test_parse_documents(self):
        lines = ["A\tsome text", "", "B\tmore"]
        assert list(parse_documents(lines)) == [(1, "A", "some text"), (3, "B", "more")]
        with pytest.raises(DataError, match="line 1"):
            list(parse_documents(["no tab here"]))


class TestFitLda:
    def test_validation(self):
        corpus = build_corpus([("A", "cat dog bird")], stop_words=frozenset())
        with pytest.raises(UsageError):
            fit_lda(corpus, k=1, iterations=5)
        with pytest.raises(UsageError):
            fit_lda(corpus, k=2, iterations=0)
        with pytest.raises(DataError, match="vocabulary"):
            fit_lda(corpus, k=10, iterations=5)
        for hyper in ({"alpha": -1.0}, {"alpha": 0.0}, {"beta": -0.5}, {"beta": float("nan")}):
            with pytest.raises(UsageError):
                fit_lda(corpus, k=2, iterations=5, **hyper)

    def test_normalization_and_positivity(self):
        corpus, _ = planted_corpus(docs_per_topic=10, tokens_per_doc=12)
        model = fit_lda(corpus, k=3, iterations=10, seed=2)
        assert np.all(model.phi > 0)
        assert np.all(model.theta > 0)
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_bit_identical(self):
        corpus, _ = planted_corpus(docs_per_topic=8, tokens_per_doc=10)
        m1 = fit_lda(corpus, k=2, iterations=15, seed=7)
        m2 = fit_lda(corpus, k=2, iterations=15, seed=7)
        assert np.array_equal(m1.phi, m2.phi)
        assert np.array_equal(m1.theta, m2.theta)

    def test_different_seed_differs(self):
        corpus, _ = planted_corpus(docs_per_topic=8, tokens_per_doc=10)
        m1 = fit_lda(corpus, k=2, iterations=15, seed=7)
        m2 = fit_lda(corpus, k=2, iterations=15, seed=8)
        assert not np.array_equal(m1.theta, m2.theta)

    def test_count_conservation_every_iteration(self):
        corpus, _ = planted_corpus(docs_per_topic=6, tokens_per_doc=8)
        total = corpus.total_tokens
        calls = []

        def check(it, topic_word, doc_topic):
            assert sum(map(sum, topic_word)) == total
            assert sum(map(sum, doc_topic)) == total
            calls.append(it)

        fit_lda(corpus, k=2, iterations=6, seed=0, on_iteration=check)
        assert calls == list(range(6))

    def test_planted_recovery(self):
        corpus, planted = planted_corpus()
        model = fit_lda(corpus, k=2, iterations=50, seed=11)
        assigned = [dominant_topic(model, a) for a in corpus.articles]
        assert permutation_accuracy(assigned, planted, 2) >= 0.9

    def test_empty_document_gets_uniform_theta(self):
        corpus = build_corpus(
            [("A", "the the"), ("B", "cat dog cat dog mouse")], stop_words={"the"}
        )
        model = fit_lda(corpus, k=2, iterations=5, seed=0)
        np.testing.assert_allclose(model.theta[0], [0.5, 0.5], atol=1e-12)


class TestDominant:
    def test_argmax(self):
        assert dominant_from_row(np.array([0.7, 0.3])) == 0
        assert dominant_from_row(np.array([0.3, 0.7])) == 1

    def test_tie_lowest_id(self):
        assert dominant_from_row(np.array([0.5, 0.5])) == 0
        assert dominant_from_row(np.array([0.2, 0.4, 0.4])) == 1

    def test_unknown_article(self):
        corpus, _ = planted_corpus(docs_per_topic=4, tokens_per_doc=6)
        model = fit_lda(corpus, k=2, iterations=3, seed=0)
        with pytest.raises(DataError):
            dominant_topic(model, "nope")


class TestTopWords:
    def test_planted_vocabulary_recovered(self):
        corpus, planted = planted_corpus()
        model = fit_lda(corpus, k=2, iterations=50, seed=11)
        # each fitted topic's top-10 should come from one planted vocabulary
        for topic in range(2):
            words = top_words(model, topic, 10)
            assert len(words) == 10
            prefixes = {w[:2] for w in words}
            assert len(prefixes) == 1

    def test_delta_phi(self):
        corpus, _ = planted_corpus(docs_per_topic=4, tokens_per_doc=6)
        model = fit_lda(corpus, k=2, iterations=3, seed=0)
        row = np.full(len(model.vocabulary), 1e-9)
        row[5] = 1.0
        spiked = TopicsDummy(model, row)
        assert top_words(spiked, 0, 3)[0] == model.vocabulary[5]

    def test_bounds(self):
        corpus, _ = planted_corpus(docs_per_topic=4, tokens_per_doc=6)
        model = fit_lda(corpus, k=2, iterations=3, seed=0)
        with pytest.raises(UsageError):
            top_words(model, 0, len(model.vocabulary) + 1)
        with pytest.raises(UsageError):
            top_words(model, 0, 0)
        with pytest.raises(UsageError):
            top_words(model, 5, 2)


def TopicsDummy(model, row):
    """Clone of a fitted model with topic 0's phi row replaced."""
    phi = model.phi.copy()
    phi[0] = row
    return type(model)(
        model.k,
        model.alpha,
        model.beta,
        model.iterations,
        model.seed,
        model.articles,
        model.vocabulary,
        phi,
        model.theta,
    )


class TestOutputs:
    def test_assignments_file_roundtrip(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        model = fit_lda(corpus, k=2, iterations=10, seed=4)
        path = tmp_path / "topics.tsv"
        write_assignments(path, model)
        back = read_topic_assignments(path)
        assert back.articles == tuple(sorted(corpus.articles))
        assert back["topic_id"][back.articles.index("doc-0-0")] == dominant_topic(model, "doc-0-0")

    def test_phi_matrix_roundtrip(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        model = fit_lda(corpus, k=2, iterations=10, seed=4)
        path = tmp_path / "phi.csv"
        write_phi(path, model)
        matrix, meta = read_matrix_csv(path)
        np.testing.assert_array_equal(matrix, model.phi)
        assert meta["k"] == "2"
        assert meta["seed"] == "4"

    def test_top_words_report(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        model = fit_lda(corpus, k=2, iterations=10, seed=4)
        path = tmp_path / "words.txt"
        write_top_words(path, model, n=5, labels=["First", "Second"])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0\tFirst\t")
        assert len(lines[1].split("\t")[2].split()) == 5
