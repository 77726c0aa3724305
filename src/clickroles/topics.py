"""Topic modeling over article texts.

Latent Dirichlet allocation fit by collapsed Gibbs sampling: the model
keeps one topic assignment per token instance and resamples each from
the full conditional

    p(z = k) ∝ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

with all counts excluding the token being resampled. fit_lda returns
phi and theta, point estimates from the final counts with Dirichlet
smoothing; its caller, which holds the settings, passes them to
write_phi and write_theta as metadata. The sampler is sequential by
design; all randomness comes from one seeded generator, so a run is
reproducible bit for bit.

A Corpus holds its documents as the sweep reads them: one flat int32
array of token ids, document after document, each document's ids (one
per token instance) ascending (ids number the vocabulary by first
appearance in the file), and int64 offsets where each document starts
and ends in it. The sweep visits the tokens in that order and draws one
uniform per token, so the order is part of the output: text order would
give other draws and other bytes. The topic assignment table this module
writes is declared here too, as TOPIC_ASSIGNMENT, with its writer and
its reader.

The sweep itself is lda_sweep in _sweep.c, which clickroles.native
compiles and loads inside the first fit, never at import. It keeps the
counts as int64 arrays, n_dk D x k, n_wk V x k (word-major: n_wk[w] is
one token's row of k counts) and n_k, reads the corpus's two arrays as
they are, and updates the int32 assignments z in place. Python draws
each sweep's uniforms, one rng.random(total) per sweep, and passes them
in, so the draw order does not depend on the sweep. Per token the C loop:
  - removes the token from its counts;
  - forms each weight as ((n_dk+alpha) * (n_kw+beta)) / (n_k+V*beta),
    in that operation order;
  - sums the weights left to right, the running total starting from
    the first weight;
  - takes the first topic whose running total is >= u * total (a
    binary search: the totals never decrease), weights that underflow
    to 0 (equal neighbouring totals) included;
  - adds the token to its new topic's counts.
Without a C compiler, or when the build or the load fails, fit_lda
raises DataError (exit 1) and fits nothing.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .tableio import COUNT, ColumnTable, iter_lines, ratio, read_columns, write_columns, write_matrix_csv, write_rows

# minimal English function-word list; callers with real corpora should
# supply their own via the stop word file
DEFAULT_STOP_WORDS = frozenset(
    """a about above after again all also an and any are as at be because been
    before being below between both but by can did do does doing down during
    each few for from further had has have having he her here hers him his how
    i if in into is it its itself just me more most my no nor not now of off
    on once only or other our out over own same she so some such than that the
    their them then there these they this those through to too under until up
    very was we were what when where which while who whom why will with you
    your""".split()
)

# the topic assignment table: each article's dominant topic and its theta
# weight, written by write_assignments and read back by `features --topics`
TOPIC_ASSIGNMENT = {"topic_id": COUNT, "weight": ratio("weight")}

# human labels assigned to one historical 20-topic fit on the full
# corpus; topic identity depends on the fit, so treat these as display
# names for topic ids 0..19 (see topic_names), not as ground truth
DEFAULT_TOPIC_LABELS = (
    "Technology, Stubs",
    "Architecture",
    "Sports",
    "Politics",
    "TV&Movies",
    "Fine Arts&Culture",
    "Biology",
    "Music",
    "Research&Education",
    "Media/Economics",
    "Military",
    "Industry&Chemistry",
    "North America",
    "Space&Racing",
    "Europe",
    "Asia",
    "Latin America&Iberia",
    "UK&Commonwealth",
    "Eastern Europe&Russia",
    "Awards&Celebrities",
)


def topic_names(ids: Iterable[int], given: Mapping[int, str] | None) -> dict[int, str]:
    """The display name of each topic id: its entry in `given` (a
    ``--labels`` file), else, when nothing is given and the ids are
    exactly 0..19, its DEFAULT_TOPIC_LABELS name, else ``topic-N``."""
    ids = list(ids)
    if given is None:
        given = dict(enumerate(DEFAULT_TOPIC_LABELS)) if ids == list(range(len(DEFAULT_TOPIC_LABELS))) else {}
    return {i: given.get(i, f"topic-{i}") for i in ids}


_WORD_RE = re.compile(r"\w+")


def tokenize(text: str, stop_words: Collection[str]) -> list[str]:
    """Lowercased alphabetic tokens, stop words and single letters removed."""
    return [
        t
        for t in _WORD_RE.findall(text.lower())
        if len(t) >= 2 and t.isalpha() and t not in stop_words
    ]


@dataclass(frozen=True)
class Corpus:
    articles: tuple[str, ...]
    vocabulary: tuple[str, ...]
    # every token id, one per token instance, document after document and
    # ascending within each (the sequence fit_lda samples), int32
    tokens: np.ndarray
    # document d's ids are tokens[offsets[d]:offsets[d + 1]], empty if
    # nothing survives tokenize; int64, one more than the documents
    offsets: np.ndarray


def corpus_from_file(path: str | Path, stop_words: Collection[str]) -> Corpus:
    """The corpus of an "article<TAB>text" file, with a first-appearance
    vocabulary order; blank lines are skipped and documents that tokenize
    to nothing are kept, empty.

    A line without the tab or the article (``path:N``), a repeated article
    (``path:N``) or a file with no documents raises DataError.
    """
    articles: dict[str, None] = {}  # insertion-ordered
    token_ids: dict[str, int] = {}
    tokens, offsets = array("i"), array("q", [0])
    for lineno, line in enumerate(iter_lines(path), start=1):
        if not line:
            continue
        article, sep, text = line.partition("\t")
        if not sep or not article:
            raise DataError(f"{path}:{lineno}: expected article<TAB>text")
        if article in articles:
            raise DataError(f"{path}:{lineno}: duplicate article {article!r}")
        articles[article] = None
        tokens.fromlist(sorted(token_ids.setdefault(t, len(token_ids)) for t in tokenize(text, stop_words)))
        offsets.append(len(tokens))
    if not articles:
        raise DataError(f"{path}: empty corpus")
    return Corpus(tuple(articles), tuple(token_ids), np.frombuffer(tokens, np.int32), np.frombuffer(offsets, np.int64))


def read_stop_words(path: str | Path) -> frozenset[str]:
    return frozenset(w.strip().lower() for w in iter_lines(path) if w.strip())


IterationHook = Callable[[int, np.ndarray, np.ndarray], None]


def fit_lda(
    corpus: Corpus,
    k: int,
    alpha: float,
    beta: float,
    iterations: int,
    seed: int,
    on_iteration: IterationHook | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gibbs fit; deterministic for a given seed. Returns phi,
    k x V, and theta, D x k in corpus order, each row summing to 1.

    Needs k >= 2, iterations >= 1 and a positive, finite alpha and beta;
    UsageError if k*alpha, V*beta or the sum of the k sampling weights
    overflows, DataError if the compiled sweep does not load.
    `on_iteration(i, word_topic, doc_topic)` is called after each sweep
    with the live int64 count arrays, word-major V x k and D x k,
    read-only.
    """
    v = len(corpus.vocabulary)
    if k > v:
        raise DataError(f"k={k} exceeds vocabulary size {v}")

    tokens, offsets = corpus.tokens, corpus.offsets
    n_docs, total = len(offsets) - 1, len(tokens)
    lengths = np.diff(offsets)
    # the compiled sweep indexes tokens by these offsets and n_wk by these ids unchecked
    if offsets[0] != 0 or offsets[-1] != total or (lengths < 0).any():
        raise ValueError(f"the document offsets do not split the {total} tokens")
    if total and not 0 <= tokens.min() <= tokens.max() < v:
        raise ValueError(f"a token id lies outside the vocabulary of {v} words")

    rng = np.random.default_rng(seed)
    z = (rng.random(total) * k).astype(np.int32)
    np.minimum(z, k - 1, out=z)
    n_dk = np.zeros((n_docs, k), np.int64)
    np.add.at(n_dk, (np.repeat(np.arange(n_docs), lengths), z), 1)
    n_wk = np.zeros((v, k), np.int64)
    np.add.at(n_wk, (tokens, z), 1)
    n_k = n_wk.sum(axis=0)

    max_len = int(lengths.max())
    max_freq = int(n_wk.sum(axis=1).max())
    # n_kw <= n_k, so a weight is at most n_dk + alpha and the k weights
    # sum to at most max_len + k*alpha (doubled for rounding); the product
    # (n_dk+alpha)*(n_kw+beta) is formed before the division
    vbeta = v * beta
    if not math.isfinite(2 * (max_len + k * alpha)):
        raise UsageError(f"alpha={alpha} is too large: k*alpha overflows for k={k}")
    if not math.isfinite(vbeta):
        raise UsageError(f"beta={beta} is too large: V*beta overflows for V={v}")
    if not math.isfinite((max_len + alpha) * (max_freq + beta)):
        raise UsageError(f"alpha={alpha} and beta={beta} are too large: the sampling weights overflow")

    from . import native  # here, not at the top: every subcommand imports this module

    sweep = native.load().lda_sweep
    cum = np.empty(k)  # the sweep's running totals
    word_topic, doc_topic = n_wk.view(), n_dk.view()
    word_topic.flags.writeable = doc_topic.flags.writeable = False
    for it in range(iterations):
        # each sweep's uniforms are drawn as it starts and freed as it ends
        sweep(n_docs, offsets, tokens, z, k, n_dk, n_wk, n_k, rng.random(total), alpha, beta, vbeta, cum)
        if on_iteration is not None:
            on_iteration(it, word_topic, doc_topic)

    phi = (n_wk.T + beta) / (n_k[:, None] + vbeta)
    theta = (n_dk + alpha) / (lengths[:, None] + k * alpha)
    return phi, theta


def top_words(phi: np.ndarray, vocabulary: Sequence[str], topic: int, n: int) -> list[str]:
    """The n highest-phi tokens of a topic, ties broken by token id;
    `topic` is in range(k) and n in 1..V, the vocabulary size."""
    order = np.lexsort((np.arange(len(vocabulary)), -phi[topic]))
    return [vocabulary[i] for i in order[:n]]


def write_assignments(path: str | Path, articles: Sequence[str], theta: np.ndarray) -> None:
    """Each article's dominant topic (ties to the lowest id) and that
    topic's theta weight, in title order."""
    topic = theta.argmax(axis=1)
    weight = np.take_along_axis(theta, topic[:, None], axis=1)[:, 0]
    table = ColumnTable.in_title_order(articles, dict(zip(TOPIC_ASSIGNMENT, (topic, weight))))
    write_columns(path, TOPIC_ASSIGNMENT, table)


def read_topic_assignments(path: str | Path) -> ColumnTable:
    """A topic assignment table: the topic_id column and the weight, a
    theta entry in [0, 1]."""
    return read_columns(path, TOPIC_ASSIGNMENT)


def write_phi(path: str | Path, phi: np.ndarray, metadata: dict[str, object]) -> None:
    write_matrix_csv(path, phi, metadata)


def write_theta(path: str | Path, theta: np.ndarray, metadata: dict[str, object]) -> None:
    write_matrix_csv(path, theta, metadata)


def write_top_words(
    path: str | Path, phi: np.ndarray, vocabulary: Sequence[str], n: int, labels: Mapping[int, str]
) -> None:
    """One line per topic of `phi`: its id, its name in `labels` (see
    topic_names) and its n highest-phi words, at most the whole vocabulary."""
    rows = (
        (topic, labels[topic], " ".join(top_words(phi, vocabulary, topic, min(n, len(vocabulary)))))
        for topic in range(len(phi))
    )
    write_rows(path, rows)
