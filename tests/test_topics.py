"""Corpus building and collapsed-Gibbs topic modeling."""

from __future__ import annotations

import itertools
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError, UsageError
from clickroles.tableio import read_matrix_csv
from clickroles.topics import (
    DEFAULT_TOPIC_LABELS,
    Corpus,
    IterationHook,
    corpus_from_file,
    fit_lda,
    read_topic_assignments,
    tokenize,
    top_words,
    topic_names,
    write_assignments,
    write_phi,
    write_top_words,
)
from test_linkgraph import traced_peak


def corpus_of(lines, stop_words):
    """The corpus of a documents file holding `lines`, named docs.tsv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "docs.tsv")
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return corpus_from_file(path, stop_words)


def hand_corpus(documents: list[list[int]], v: int) -> Corpus:
    """The Corpus of `documents`, each its token ids ascending, named
    doc0, doc1, ... over the words w0 .. w{v-1}."""
    return Corpus(
        tuple(f"doc{d}" for d in range(len(documents))),
        tuple(f"w{i}" for i in range(v)),
        np.array([w for doc in documents for w in doc], np.int32),
        np.cumsum([0, *map(len, documents)], dtype=np.int64),
    )


def documents_of(corpus: Corpus) -> list[list[int]]:
    """Each document's token ids, in corpus order."""
    return [corpus.tokens[a:b].tolist() for a, b in itertools.pairwise(corpus.offsets)]


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

    # each document is its token instances; the count matrices live as
    # plain lists (the sweep is a tight scalar loop)
    docs = documents_of(corpus)
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
        # ascending ids, not text order: the sweep draws in this order
        assert corpus.tokens.tolist() == [0, 0, 1, 1, 2, 0, 0, 0, 2]
        assert corpus.offsets.tolist() == [0, 3, 5, 9]
        assert (corpus.tokens.dtype, corpus.offsets.dtype) == (np.int32, np.int64)

    def test_stop_word_only_document_kept_empty(self):
        corpus = corpus_of(["A\tthe the the", "B\tcat"], {"the"})
        assert corpus.articles == ("A", "B")
        assert documents_of(corpus) == [[], [0]]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match=r"docs\.tsv: empty corpus$"):
            corpus_of(["", ""], frozenset())

    def test_duplicate_article(self):
        with pytest.raises(DataError, match=r"docs\.tsv:2: duplicate article 'A'$"):
            corpus_of(["A\tx y", "A\tz w"], frozenset())

    def test_vocabulary_first_appearance(self):
        corpus = corpus_of(["A\tzebra apple", "B\tapple mango"], frozenset())
        assert corpus.vocabulary == ("zebra", "apple", "mango")

    def test_blank_lines_skipped_and_a_line_without_tab_rejected(self):
        corpus = corpus_of(["A\tsome text", "", "B\tmore"], frozenset())
        assert corpus.articles == ("A", "B")
        with pytest.raises(DataError, match=r"docs\.tsv:3: expected article<TAB>text$"):
            corpus_of(["A\tsome text", "", "no tab here"], frozenset())


class TestMemory:
    """Peak bytes per token of corpus_from_file on a seeded file of 4,000
    documents of 40 tokens (160k tokens) over a 1,000-word vocabulary.
    The (token id, count) pair form took 67.4 B per token, per-document
    token id lists 13.1, the flat int32 ids 7.7."""

    def test_corpus_peak_per_token(self, tmp_path):
        words = ["".join(p) for p in itertools.product("abcdefghij", repeat=3)]
        rng = np.random.default_rng(0)
        path = tmp_path / "docs.tsv"
        path.write_text("".join(
            f"doc{d}\t{' '.join(words[i] for i in row)}\n"
            for d, row in enumerate(rng.integers(0, len(words), (4000, 40)).tolist())
        ))
        corpus, peak = traced_peak(corpus_from_file, path, frozenset())
        assert peak / 160_000 <= 10
        assert len(corpus.tokens) == 160_000


class TestFitLda:
    def test_k_above_vocabulary_is_data_error(self):
        corpus = corpus_of(["A\tcat dog bird"], frozenset())
        with pytest.raises(DataError, match="vocabulary"):
            fit_lda(corpus, k=10, iterations=5, alpha=50.0 / 10, beta=0.01, seed=0)

    @pytest.mark.parametrize("ids", [[0, 2], [-1, 1]])
    def test_token_id_outside_vocabulary_is_refused(self, ids):
        # before the compiled sweep indexes the counts with it
        with pytest.raises(ValueError, match="outside the vocabulary"):
            fit_lda(hand_corpus([ids], 2), k=2, iterations=1, alpha=0.1, beta=0.01, seed=0)

    @pytest.mark.parametrize("offsets", [[1, 2], [0, 1], [0, 3], [0, 2, 1, 2]])
    def test_offsets_that_do_not_split_the_tokens_are_refused(self, offsets):
        # before the compiled sweep reads the tokens through them
        corpus = replace(hand_corpus([[0, 1]], 2), offsets=np.array(offsets, np.int64))
        with pytest.raises(ValueError, match="offsets do not split the 2 tokens"):
            fit_lda(corpus, k=2, iterations=1, alpha=0.1, beta=0.01, seed=0)

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
        total = len(corpus.tokens)
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
        st.lists(st.integers(0, v - 1), max_size=4 * v).map(sorted), min_size=1, max_size=5,
    ).filter(any))
    corpus = hand_corpus(documents, v)
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
            ([list(col) for col in zip(*wt)], dt.tolist())))
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
