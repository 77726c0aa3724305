"""Corpus building and collapsed-Gibbs topic modeling."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError, UsageError
from clickroles.features import read_topic_assignments
from clickroles.tableio import read_matrix_csv
from clickroles.topics import (
    DEFAULT_TOPIC_LABELS,
    Corpus,
    IterationHook,
    build_numbered_corpus,
    fit_lda,
    parse_documents,
    tokenize,
    top_words,
    topic_names,
    write_assignments,
    write_phi,
    write_top_words,
)


DOCS = "docs.tsv"  # the source file the corpus builder's errors name


def corpus_of(lines, stop_words):
    return build_numbered_corpus(parse_documents(lines, DOCS), stop_words, DOCS)


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
            texts.append(f"doc-{t}-{d}\t" + " ".join(words))
            planted.append(t)
    corpus = corpus_of(texts, frozenset())
    return corpus, planted


def permutation_accuracy(assigned: list[int], planted: list[int], k: int) -> float:
    best = 0.0
    for perm in itertools.permutations(range(k)):
        hits = sum(1 for a, p in zip(assigned, planted) if perm[a] == p)
        best = max(best, hits / len(planted))
    return best


def reference_fit_lda(
    corpus: Corpus,
    k: int = 20,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
    on_iteration: IterationHook | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar collapsed Gibbs sweep fit_lda replaced, kept as its oracle:
    every weight and running sum is formed one at a time in a Python loop;
    returns (phi, theta).

    alpha defaults to 50/k; alpha and beta must be positive and finite.
    `on_iteration(i, topic_word, doc_topic)` is called after each sweep
    with the live count matrices, k x V and D x k (read-only use).
    """
    if k < 2:
        raise UsageError(f"k must be at least 2, got {k}")
    if iterations < 1:
        raise UsageError(f"iterations must be positive, got {iterations}")
    if alpha is None:
        alpha = 50.0 / k
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{name} must be positive and finite, got {value}")
    v = len(corpus.vocabulary)
    if k > v:
        raise DataError(f"k={k} exceeds vocabulary size {v}")

    # flatten to token instances; the count matrices live as plain lists
    # (the sweep is a tight scalar loop)
    docs: list[list[int]] = [
        [tid for tid, cnt in doc for _ in range(cnt)] for doc in corpus.documents
    ]
    d_count = len(docs)
    total = sum(len(doc) for doc in docs)
    if total == 0:
        raise DataError("corpus has no tokens after stop word removal")

    rng = np.random.default_rng(seed)
    n_dk = [[0] * k for _ in range(d_count)]
    n_kw = [[0] * v for _ in range(k)]
    n_k = [0] * k
    z: list[list[int]] = []

    init_u = rng.random(total).tolist()
    pos = 0
    for d, doc in enumerate(docs):
        zd = []
        nd = n_dk[d]
        for w in doc:
            t = min(int(init_u[pos] * k), k - 1)
            pos += 1
            zd.append(t)
            nd[t] += 1
            n_kw[t][w] += 1
            n_k[t] += 1
        z.append(zd)

    vbeta = v * beta
    for it in range(iterations):
        u_iter = rng.random(total).tolist()
        pos = 0
        for d, doc in enumerate(docs):
            nd = n_dk[d]
            zd = z[d]
            for i, w in enumerate(doc):
                t = zd[i]
                nd[t] -= 1
                n_kw[t][w] -= 1
                n_k[t] -= 1

                total_weight = 0.0
                weights = []
                for kk in range(k):
                    wgt = (nd[kk] + alpha) * (n_kw[kk][w] + beta) / (n_k[kk] + vbeta)
                    total_weight += wgt
                    weights.append(total_weight)
                r = u_iter[pos] * total_weight
                pos += 1
                t = 0
                while weights[t] < r:
                    t += 1

                zd[i] = t
                nd[t] += 1
                n_kw[t][w] += 1
                n_k[t] += 1
        if on_iteration is not None:
            on_iteration(it, n_kw, n_dk)

    phi = (np.asarray(n_kw, dtype=float) + beta) / (
        np.asarray(n_k, dtype=float)[:, None] + vbeta
    )
    doc_len = np.asarray([len(doc) for doc in docs], dtype=float)
    theta = (np.asarray(n_dk, dtype=float) + alpha) / (doc_len[:, None] + k * alpha)
    return phi, theta


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
            "A\tapple banana apple",
            "B\tbanana cherry",
            "C\tapple apple apple cherry",
        ]
        corpus = corpus_of(texts, frozenset())
        assert corpus.vocabulary == ("apple", "banana", "cherry")
        assert corpus.documents[0] == ((0, 2), (1, 1))
        assert corpus.documents[1] == ((1, 1), (2, 1))
        assert corpus.documents[2] == ((0, 3), (2, 1))
        assert corpus.total_tokens == 9

    def test_stop_word_only_document_flagged(self):
        corpus = corpus_of(["A\tthe the the", "B\tcat"], {"the"})
        assert corpus.articles == ("A", "B")
        assert corpus.documents[0] == ()
        assert corpus.empty_articles == ("A",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="^docs.tsv: empty corpus$"):
            build_numbered_corpus([], frozenset(), DOCS)

    def test_duplicate_article(self):
        with pytest.raises(DataError, match="duplicate"):
            corpus_of(["A\tx y", "A\tz w"], frozenset())

    def test_vocabulary_first_appearance(self):
        corpus = corpus_of(["A\tzebra apple", "B\tapple mango"], frozenset())
        assert corpus.vocabulary == ("zebra", "apple", "mango")

    def test_parse_documents(self):
        lines = ["A\tsome text", "", "B\tmore"]
        assert list(parse_documents(lines, DOCS)) == [(1, "A", "some text"), (3, "B", "more")]
        with pytest.raises(DataError, match="^docs.tsv:1: "):
            list(parse_documents(["no tab here"], DOCS))


class TestFitLda:
    def test_k_above_vocabulary_is_data_error(self):
        corpus = corpus_of(["A\tcat dog bird"], frozenset())
        with pytest.raises(DataError, match="vocabulary"):
            fit_lda(corpus, k=10, iterations=5, alpha=50.0 / 10, beta=0.01, seed=0)

    def test_normalization_and_positivity(self):
        corpus, _ = planted_corpus(docs_per_topic=10, tokens_per_doc=12)
        phi, theta = fit_lda(corpus, k=3, iterations=10, seed=2, alpha=50.0 / 3, beta=0.01)
        assert np.all(phi > 0)
        assert np.all(theta > 0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_bit_identical(self):
        corpus, _ = planted_corpus(docs_per_topic=8, tokens_per_doc=10)
        phi1, theta1 = fit_lda(corpus, k=2, iterations=15, seed=7, alpha=50.0 / 2, beta=0.01)
        phi2, theta2 = fit_lda(corpus, k=2, iterations=15, seed=7, alpha=50.0 / 2, beta=0.01)
        assert np.array_equal(phi1, phi2)
        assert np.array_equal(theta1, theta2)

    def test_different_seed_differs(self):
        corpus, _ = planted_corpus(docs_per_topic=8, tokens_per_doc=10)
        _, theta1 = fit_lda(corpus, k=2, iterations=15, seed=7, alpha=50.0 / 2, beta=0.01)
        _, theta2 = fit_lda(corpus, k=2, iterations=15, seed=8, alpha=50.0 / 2, beta=0.01)
        assert not np.array_equal(theta1, theta2)

    def test_overflowing_hyperparameters_rejected(self):
        corpus = corpus_of(["A\tcat dog bird cat"], frozenset())
        for hyper, name in (
            ({"alpha": 1e308}, "alpha"),  # k*alpha is inf
            ({"beta": 1e308}, "beta"),  # V*beta is inf
            ({"alpha": 1e200, "beta": 1e200}, "sampling weights overflow"),  # a weight's product is inf
        ):
            with pytest.raises(UsageError, match=name):
                fit_lda(corpus, **{"k": 2, "alpha": 50.0 / 2, "beta": 0.01, "iterations": 1, "seed": 0, **hyper})

    def test_count_conservation_every_iteration(self):
        corpus, _ = planted_corpus(docs_per_topic=6, tokens_per_doc=8)
        total = corpus.total_tokens
        calls = []

        def check(it, word_topic, doc_topic):
            assert len(word_topic) == len(corpus.vocabulary)
            topic_totals = [sum(col) for col in zip(*word_topic)]
            assert topic_totals == [sum(col) for col in zip(*doc_topic)]
            assert sum(topic_totals) == total
            assert sum(map(sum, doc_topic)) == total
            calls.append(it)

        fit_lda(corpus, k=2, alpha=50.0 / 2, beta=0.01, iterations=6, seed=0, on_iteration=check)
        assert calls == list(range(6))

    def test_planted_recovery(self):
        corpus, planted = planted_corpus()
        phi, theta = fit_lda(corpus, k=2, iterations=50, seed=11, alpha=50.0 / 2, beta=0.01)
        assigned = theta.argmax(axis=1).tolist()
        assert permutation_accuracy(assigned, planted, 2) >= 0.9

    def test_empty_document_gets_uniform_theta(self):
        corpus = corpus_of(["A\tthe the", "B\tcat dog cat dog mouse"], {"the"})
        phi, theta = fit_lda(corpus, k=2, iterations=5, seed=0, alpha=50.0 / 2, beta=0.01)
        np.testing.assert_allclose(theta[0], [0.5, 0.5], atol=1e-12)


@st.composite
def lda_cases(draw):
    """A small corpus (zero-length documents allowed) and a fit setting."""
    v = draw(st.integers(2, 6))
    documents = draw(st.lists(
        st.dictionaries(st.integers(0, v - 1), st.integers(1, 4), max_size=v), min_size=1, max_size=5,
    ).filter(lambda docs: any(docs)))
    corpus = Corpus(
        tuple(f"doc{d}" for d in range(len(documents))),
        tuple(f"w{i}" for i in range(v)),
        tuple(tuple(sorted(doc.items())) for doc in documents),
        tuple(f"doc{d}" for d, doc in enumerate(documents) if not doc),
    )
    k = draw(st.integers(2, v))
    setting = {
        "k": k,
        "alpha": draw(st.sampled_from([50.0 / k, 0.1])),
        # a tiny beta makes weights that vanish beside the running sum, and
        # the smallest subnormal makes weights (even every weight) exactly 0
        "beta": draw(st.sampled_from([5e-324, 1e-300, 1e-20]) | st.floats(1e-300, 10.0)),
        "iterations": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32)),
    }
    return corpus, setting


class TestReferenceSweep:
    @settings(max_examples=150, deadline=None)
    @given(lda_cases())
    @example((  # a single document; the once-seen words' weights are a few
        # subnormal steps, so u * total often lands exactly on a running total
        corpus_of(["A\tcat dog cat bird dog cat mouse"], frozenset()),
        {"k": 3, "alpha": 0.1, "beta": 5e-324, "iterations": 3, "seed": 0},
    ))
    @example((  # a zero-length document between two others, and tiny beta
        corpus_of(["A\tcat dog", "B\tthe", "C\tdog dog bird"], {"the"}),
        {"k": 2, "alpha": 0.1, "beta": 1e-300, "iterations": 3, "seed": 1},
    ))
    def test_bit_identical_to_reference(self, case):
        corpus, setting = case
        ours, theirs = [], []
        phi, theta = fit_lda(corpus, **setting, on_iteration=lambda i, wt, dt: ours.append(
            ([list(col) for col in zip(*wt)], [row[:] for row in dt])))
        expected_phi, expected_theta = reference_fit_lda(corpus, **setting, on_iteration=lambda i, tw, dt: theirs.append(
            ([row[:] for row in tw], [row[:] for row in dt])))
        assert ours == theirs
        assert np.array_equal(phi, expected_phi)
        assert np.array_equal(theta, expected_theta)


class TestDominant:
    """The topic write_assignments gives each article, from its theta row."""

    def assigned(self, tmp_path, theta: list[list[float]]) -> list[int]:
        articles = tuple(f"doc{d}" for d in range(len(theta)))
        write_assignments(tmp_path / "topics.tsv", articles, np.array(theta))
        return read_topic_assignments(tmp_path / "topics.tsv")["topic_id"].tolist()

    def test_argmax(self, tmp_path):
        assert self.assigned(tmp_path, [[0.7, 0.3], [0.3, 0.7]]) == [0, 1]

    def test_tie_lowest_id(self, tmp_path):
        assert self.assigned(tmp_path, [[0.5, 0.5]]) == [0]
        assert self.assigned(tmp_path, [[0.2, 0.4, 0.4]]) == [1]


class TestTopWords:
    def test_planted_vocabulary_recovered(self):
        corpus, planted = planted_corpus()
        phi, theta = fit_lda(corpus, k=2, iterations=50, seed=11, alpha=50.0 / 2, beta=0.01)
        # each fitted topic's top-10 should come from one planted vocabulary
        for topic in range(2):
            words = top_words(phi, corpus.vocabulary, topic, 10)
            assert len(words) == 10
            prefixes = {w[:2] for w in words}
            assert len(prefixes) == 1

    def test_delta_phi(self):
        corpus, _ = planted_corpus(docs_per_topic=4, tokens_per_doc=6)
        phi, theta = fit_lda(corpus, k=2, iterations=3, seed=0, alpha=50.0 / 2, beta=0.01)
        phi[0] = np.full(len(corpus.vocabulary), 1e-9)
        phi[0, 5] = 1.0
        assert top_words(phi, corpus.vocabulary, 0, 3)[0] == corpus.vocabulary[5]

    def test_report_caps_n_at_the_vocabulary(self, tmp_path):
        # --top-words may exceed V; the report lists each topic's whole vocabulary
        corpus, _ = planted_corpus(docs_per_topic=4, tokens_per_doc=6)
        phi, theta = fit_lda(corpus, k=2, iterations=3, seed=0, alpha=50.0 / 2, beta=0.01)
        path = tmp_path / "words.txt"
        write_top_words(path, phi, corpus.vocabulary, len(corpus.vocabulary) + 1, {0: "First", 1: "Second"})
        words = [line.split("\t")[2].split() for line in path.read_text().splitlines()]
        assert words == [top_words(phi, corpus.vocabulary, topic, len(corpus.vocabulary)) for topic in range(2)]


class TestOutputs:
    def test_assignments_file_roundtrip(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        phi, theta = fit_lda(corpus, k=2, iterations=10, seed=4, alpha=50.0 / 2, beta=0.01)
        path = tmp_path / "topics.tsv"
        write_assignments(path, corpus.articles, theta)
        back = read_topic_assignments(path)
        assert back.articles == tuple(sorted(corpus.articles))
        row = theta[corpus.articles.index("doc-0-0")]
        assert back["topic_id"][back.articles.index("doc-0-0")] == row.argmax()

    def test_phi_matrix_roundtrip(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        settings = {"k": 2, "alpha": 50.0 / 2, "beta": 0.01, "iterations": 10, "seed": 4}
        phi, _ = fit_lda(corpus, **settings)
        path = tmp_path / "phi.csv"
        write_phi(path, phi, settings)
        matrix, meta = read_matrix_csv(path)
        np.testing.assert_array_equal(matrix, phi)
        assert meta["k"] == "2"
        assert meta["seed"] == "4"

    def test_top_words_report(self, tmp_path):
        corpus, _ = planted_corpus(docs_per_topic=5, tokens_per_doc=8)
        phi, theta = fit_lda(corpus, k=2, iterations=10, seed=4, alpha=50.0 / 2, beta=0.01)
        path = tmp_path / "words.txt"
        write_top_words(path, phi, corpus.vocabulary, 5, {0: "First", 1: "Second"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0\tFirst\t")
        assert len(lines[1].split("\t")[2].split()) == 5


class TestTopicNames:
    def test_paper_names_for_ids_zero_to_nineteen(self):
        names = topic_names(range(20), None)
        assert list(names) == list(range(20))
        assert list(names.values()) == list(DEFAULT_TOPIC_LABELS)
        assert (names[1], names[10]) == ("Architecture", "Military")

    def test_other_id_sets_are_numbered(self):
        assert topic_names([0, 2], None) == {0: "topic-0", 2: "topic-2"}
        assert topic_names(range(21), None)[1] == "topic-1"
        assert topic_names([], None) == {}

    def test_given_names_replace_the_paper_names(self):
        names = topic_names(range(20), {3: "Politics!", 99: "unused"})
        assert (names[3], names[1]) == ("Politics!", "topic-1")
        assert set(names) == set(range(20))
        assert topic_names(range(20), {})[1] == "topic-1"
