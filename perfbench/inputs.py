"""Seeded input generator for the benchmark workloads (numpy + stdlib only).

Every generator draws from one ``numpy.random.Generator`` built from the
workload seed, so the same seed and sizes give the same bytes. Each
workload directory also gets ``truth.json``: the exact totals and the
planted structure the output checks compare against.

Planted structure:

- half of the articles are search-heavy (searchshare >= 0.8 by
  construction), the other half navigation-heavy (searchshare <= 0.25),
  so the corpus mean splits them cleanly into search-* and nav-* roles;
- internal-link transition counts are Zipf-distributed, and link targets
  are Zipf-popular beyond one guaranteed inbound link per article;
- in the edge list, search-heavy articles link out more and are linked
  to more, so degree and k-core track the role;
- content and edit counts are shifted upward for search-heavy articles;
- documents are topic-pure: each draws every token from its planted
  topic's own vocabulary, disjoint from every other topic's.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTENT_HEADER = "article\tsections\tfigures\tlists\ttables\trevisions\teditors\tage\tsize"
MAX_LINK_COUNT = 1_000_000


@dataclass(frozen=True)
class DumpSize:
    articles: int
    link_lines: int  # at least `articles`: one guaranteed inbound link each

    @property
    def lines(self) -> int:
        """Lines of the dump: header, search records, link records, other records."""
        return 1 + self.articles + self.link_lines + self.articles // 4


@dataclass(frozen=True)
class CorpusSize:
    documents: int
    topics: int
    words_per_topic: int
    tokens_per_document: int


def title(i: int) -> str:
    return f"Article_{i:06d}"


def _word(topic: int, j: int) -> str:
    # letters only, at least two of them, never a stop word
    letters = "abcdefghijklmnopqrstuvwxyz"
    a, b = divmod(j, 26)
    return "q" + letters[topic % 26] + letters[topic // 26] + letters[a % 26] + letters[b]


def planted_search(rng: np.random.Generator, n: int) -> np.ndarray:
    """Boolean mask: exactly half of the articles are search-heavy."""
    return rng.permutation(n) < n // 2


def write_dump(rng: np.random.Generator, size: DumpSize, search: np.ndarray, path: Path) -> dict:
    """Gzipped transition dump; returns its exact totals."""
    n, m = size.articles, size.link_lines
    popular = rng.permutation(n)
    extra = popular[(rng.zipf(1.3, m - n) - 1) % n]
    resource = np.concatenate([rng.permutation(n), extra])
    referrer = rng.integers(0, n, m)
    same = referrer == resource
    referrer[same] = (referrer[same] + 1) % n
    link_count = np.minimum(10 + rng.zipf(1.8, m) - 1, MAX_LINK_COUNT).astype(np.int64)

    in_nav = np.zeros(n, dtype=np.int64)
    np.add.at(in_nav, resource, link_count)
    out_nav = np.zeros(n, dtype=np.int64)
    np.add.at(out_nav, referrer, link_count)
    extra_search = np.minimum(rng.zipf(1.8, n), MAX_LINK_COUNT).astype(np.int64)
    in_se = np.where(
        search,
        4 * in_nav + 10 + extra_search,
        1 + rng.integers(0, in_nav // 5 + 1),
    )

    other = rng.integers(0, n, n // 4)
    other_count = 10 + rng.integers(0, 100, n // 4)
    names = [title(i) for i in range(n)]
    lines = [f"other-search\t{names[i]}\texternal\t{c}" for i, c in enumerate(in_se.tolist())]
    lines += [
        f"{names[r]}\t{names[s]}\tlink\t{c}"
        for r, s, c in zip(referrer.tolist(), resource.tolist(), link_count.tolist())
    ]
    lines += [
        f"other-{'empty' if j % 2 else 'external'}\t{names[a]}\t{'other' if j % 2 else 'external'}\t{c}"
        for j, (a, c) in enumerate(zip(other.tolist(), other_count.tolist()))
    ]
    order = rng.permutation(len(lines)).tolist()
    text = "prev\tcurr\ttype\tn\n" + "\n".join(lines[i] for i in order) + "\n"
    path.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=1, mtime=0))
    return {
        "lines": len(lines) + 1,
        "records": len(lines),
        "in_se": int(in_se.sum()),
        "in_nav": int(in_nav.sum()),
        "out_nav": int(link_count.sum()),
        "total_views": int(in_se.sum() + in_nav.sum()),
        "table_sha256": table_digest(
            f"{name}\t{a}\t{b}\t{c}"
            for name, a, b, c in zip(names, in_se.tolist(), in_nav.tolist(), out_nav.tolist())
        ),
    }


def table_digest(rows) -> str:
    """SHA-256 of per-article `article<TAB>in_se<TAB>in_nav<TAB>out_nav` rows, in title order."""
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def write_edges(rng: np.random.Generator, search: np.ndarray, path: Path) -> None:
    """Edge list whose degrees and cores are higher for search-heavy articles."""
    n = len(search)
    out_degree = 2 + rng.poisson(np.where(search, 10.0, 3.0))
    weight = np.where(search, 4.0, 1.0)
    sources = np.repeat(np.arange(n), out_degree)
    targets = rng.choice(n, size=len(sources), p=weight / weight.sum())
    text = "".join(f"{title(s)}\t{title(t)}\n" for s, t in zip(sources.tolist(), targets.tolist()))
    path.write_text(text, encoding="utf-8")


def write_content(rng: np.random.Generator, search: np.ndarray, path: Path) -> None:
    """Content/edit table with role-shifted counts."""
    n = len(search)
    s = search.astype(float)
    revisions = np.rint(rng.lognormal(4.0 + 0.6 * s, 0.8)).astype(np.int64)
    editors = np.maximum(1, (revisions * rng.uniform(0.1, 0.5, n)).astype(np.int64))
    columns = [
        rng.poisson(5.0 + 3.0 * s),  # sections
        rng.poisson(2.0 + s),  # figures
        rng.poisson(1.0, n),  # lists
        rng.poisson(1.0 + s),  # tables
        revisions,
        editors,
    ]
    age = np.round(rng.uniform(0.0, 5000.0, n), 1).tolist()
    size = np.round(rng.lognormal(9.0 + 0.4 * s, 0.7), 1).tolist()
    rows = [CONTENT_HEADER]
    for i in range(n):
        counts = "\t".join(str(int(c[i])) for c in columns)
        rows.append(f"{title(i)}\t{counts}\t{age[i]!r}\t{size[i]!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_documents(rng: np.random.Generator, size: CorpusSize, topic: np.ndarray, path: Path) -> None:
    """Topic-pure documents, one per article: every token from its topic's vocabulary."""
    words = rng.integers(0, size.words_per_topic, (size.documents, size.tokens_per_document))
    rows = (
        f"{title(d)}\t" + " ".join(_word(int(topic[d]), j) for j in words[d].tolist())
        for d in range(size.documents)
    )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def role_topics(rng: np.random.Generator, search: np.ndarray, k: int) -> np.ndarray:
    """Planted topic per article: search-heavy ones mostly in the first half."""
    half = k // 2
    low = rng.integers(0, half, len(search))
    high = rng.integers(half, k, len(search))
    first_half = np.where(rng.random(len(search)) < 0.8, search, ~search)
    return np.where(first_half, low, high)


def generate_traffic(seed: int, root: Path, dump: DumpSize) -> dict:
    rng = np.random.default_rng([seed, 1])
    search = planted_search(rng, dump.articles)
    truth = {"dump": write_dump(rng, dump, search, root / "clicks.tsv.gz")}
    truth["search_articles"] = [title(i) for i in np.flatnonzero(search).tolist()]
    return truth


def generate_roles(seed: int, root: Path, dump: DumpSize, corpus: CorpusSize) -> dict:
    rng = np.random.default_rng([seed, 2])
    search = planted_search(rng, dump.articles)
    truth = {"dump": write_dump(rng, dump, search, root / "clicks.tsv.gz")}
    write_edges(rng, search, root / "edges.tsv")
    write_content(rng, search, root / "content.tsv")
    topic = role_topics(rng, search, corpus.topics)
    write_documents(rng, corpus, topic, root / "documents.tsv")
    truth["search_articles"] = [title(i) for i in np.flatnonzero(search).tolist()]
    truth["topics"] = topic.tolist()
    return truth


def generate_topics(seed: int, root: Path, corpus: CorpusSize) -> dict:
    rng = np.random.default_rng([seed, 3])
    topic = rng.integers(0, corpus.topics, corpus.documents)
    write_documents(rng, corpus, topic, root / "documents.tsv")
    return {"topics": topic.tolist()}


def write_truth(root: Path, truth: dict) -> None:
    (root / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
