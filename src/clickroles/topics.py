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

A Corpus holds each document once, in the form the sweep reads: its
token ids, one per token instance, in ascending id order (ids number the
vocabulary by first appearance in the file). The sweep visits the tokens
in that order and draws one uniform per token, so the order is part of
the output: text order would give other draws and other bytes. The
topic assignment table this module writes is declared here too, as
TOPIC_ASSIGNMENT, with its writer and its reader.

The sweep keeps the integer counts as plain lists, topic-word stored
word-major (n_wk[w] is one token's row of k counts), and three float
factor caches beside them, each cell reset from its count whenever that
count changes: a_d[k] = n_dk + alpha (built once per document visit),
b_wk[w][k] = n_kw + beta and den[k] = n_k + V*beta. a and b come from
tables indexed by count, so equal counts share one float. A token's
draw is then C-level iteration over the caches:

    weights = accumulate(map(truediv, map(mul, a_d, b_w), den))
    t = bisect_left(weights, u * weights[-1])

and gives the same topic, bit for bit, as a scalar loop over k that
adds each weight to a running total and walks to the first total at
or above u * total:
  - each weight is ((n_dk+alpha) * (n_kw+beta)) / (n_k+V*beta) on the
    same operands in the same operation order;
  - accumulate starts from the first weight, and 0.0 + w0 == w0;
  - the running totals never decrease, so bisect_left returns the first
    index whose total is >= u * total, as the walk does, weights that
    underflow to 0 (equal neighbouring totals) included.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, truediv
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .tableio import (
    COUNT, ColumnTable, column_table, iter_lines, ratio, read_columns, write_columns, write_matrix_csv, write_rows,
)

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
    # per document: its token ids, one per token instance, in ascending id
    # order (the sequence fit_lda samples); empty if nothing survives tokenize
    documents: tuple[list[int], ...]


def corpus_from_file(path: str | Path, stop_words: Collection[str]) -> Corpus:
    """The corpus of an "article<TAB>text" file, with a first-appearance
    vocabulary order; blank lines are skipped and documents that tokenize
    to nothing are kept, empty.

    A line without the tab or the article (``path:N``), a repeated article
    (``path:N``) or a file with no documents raises DataError.
    """
    articles: list[str] = []
    seen: set[str] = set()
    token_ids: dict[str, int] = {}
    docs: list[list[int]] = []
    for lineno, line in enumerate(iter_lines(path), start=1):
        if not line:
            continue
        article, sep, text = line.partition("\t")
        if not sep or not article:
            raise DataError(f"{path}:{lineno}: expected article<TAB>text")
        if article in seen:
            raise DataError(f"{path}:{lineno}: duplicate article {article!r}")
        seen.add(article)
        articles.append(article)
        docs.append(sorted(token_ids.setdefault(t, len(token_ids)) for t in tokenize(text, stop_words)))
    if not articles:
        raise DataError(f"{path}: empty corpus")
    return Corpus(tuple(articles), tuple(token_ids), tuple(docs))


def read_stop_words(path: str | Path) -> frozenset[str]:
    return frozenset(w.strip().lower() for w in iter_lines(path) if w.strip())


IterationHook = Callable[[int, list[list[int]], list[list[int]]], None]


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
    overflows. `on_iteration(i, word_topic, doc_topic)` is called after
    each sweep with the live count matrices, word-major V x k and D x k
    (read-only use).
    """
    v = len(corpus.vocabulary)
    if k > v:
        raise DataError(f"k={k} exceeds vocabulary size {v}")

    # the count matrices live as plain lists (the sweep is a tight scalar loop)
    docs = corpus.documents
    d_count = len(docs)
    total = sum(len(doc) for doc in docs)

    rng = np.random.default_rng(seed)
    n_dk = [[0] * k for _ in range(d_count)]
    n_wk = [[0] * k for _ in range(v)]
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
            n_wk[w][t] += 1
            n_k[t] += 1
        z.append(zd)
    del init_u

    max_len = max(map(len, docs))
    max_freq = max(map(sum, n_wk))
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

    # float factor caches, each cell reset from its int count when that
    # count changes; cells with equal counts share one float of a_of/b_of
    a_of = [c + alpha for c in range(max_len + 1)]
    b_of = [c + beta for c in range(max_freq + 1)]
    b_wk = [[b_of[c] for c in row] for row in n_wk]
    den = [c + vbeta for c in n_k]
    for it in range(iterations):
        u_iter = iter(rng.random(total).tolist())
        for d, doc in enumerate(docs):
            nd = n_dk[d]
            a_d = [a_of[c] for c in nd]
            zd = z[d]
            for i, (w, u) in enumerate(zip(doc, u_iter)):
                t = zd[i]
                nw = n_wk[w]
                b_w = b_wk[w]
                c = nd[t] - 1
                nd[t] = c
                a_d[t] = a_of[c]
                c = nw[t] - 1
                nw[t] = c
                b_w[t] = b_of[c]
                c = n_k[t] - 1
                n_k[t] = c
                den[t] = c + vbeta

                weights = list(accumulate(map(truediv, map(mul, a_d, b_w), den)))
                t = bisect_left(weights, u * weights[-1])

                zd[i] = t
                c = nd[t] + 1
                nd[t] = c
                a_d[t] = a_of[c]
                c = nw[t] + 1
                nw[t] = c
                b_w[t] = b_of[c]
                c = n_k[t] + 1
                n_k[t] = c
                den[t] = c + vbeta
        del u_iter  # free this sweep's uniforms before the next sweep draws
        if on_iteration is not None:
            on_iteration(it, n_wk, n_dk)

    phi = (np.asarray(n_wk, dtype=float).T + beta) / (
        np.asarray(n_k, dtype=float)[:, None] + vbeta
    )
    doc_len = np.asarray([len(doc) for doc in docs], dtype=float)
    theta = (np.asarray(n_dk, dtype=float) + alpha) / (doc_len[:, None] + k * alpha)
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
    rows = zip(articles, topic.tolist(), weight.tolist())
    write_columns(path, TOPIC_ASSIGNMENT, column_table(rows, TOPIC_ASSIGNMENT))


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
