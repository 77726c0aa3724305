"""Feature joins and per-group summaries.

Brings the per-article tables together (traffic metrics, link-network
degrees, content/edit counts, topic assignment) and computes the three
descriptive views used downstream: medians per traffic role, quartile
curves over equal-count feature bins, and per-topic share statistics.
Roles and topics are summarized by the same two rules over their row
masks: ``metrics.shares`` for article and view shares and ``medians``
for content medians.

The metrics, network, content, topic-assignment and joined tables are
each a ``tableio.ColumnTable``, sorted by title on read, and each is
declared once as a schema (METRICS, NETWORK, CONTENT,
topics.TOPIC_ASSIGNMENT, JOINED) that its reader and writer share:
counts are int64, ratios, ``age`` and ``size`` float64, ``quadrant``
the index of the article's role in ``metrics.ROLES`` and ``topic_id``
-1 for no topic, an empty cell on disk.
Every view works on whole columns; medians and quartiles sort stably,
so equal values (0.0 and -0.0 among them) keep title order.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .linkgraph import NETWORK
from .metrics import METRICS, ROLES, role_masks, shares
from .tableio import COUNT, REAL, ColumnTable, optional, read_columns, write_columns, write_rows

CONTENT = {
    **dict.fromkeys(("sections", "figures", "lists", "tables", "revisions", "editors"), COUNT),
    "age": REAL,
    "size": REAL,
}
JOINED = {**METRICS, **NETWORK, **CONTENT, "topic_id": optional(COUNT, -1)}

# bin/median features in reporting order: network block, then content/edit
DEFAULT_MEDIAN_FEATURES = (*NETWORK, *CONTENT)

# the columns a median, bin or target may name
NUMERIC_FEATURES = ("searchshare", "resistance", "total_views") + DEFAULT_MEDIAN_FEATURES


def _member(articles: Sequence[str], titles: set[str]) -> np.ndarray:
    return np.fromiter((a in titles for a in articles), dtype=bool, count=len(articles))


def join_features(
    metrics: ColumnTable,
    network: ColumnTable,
    content: ColumnTable,
    topics: ColumnTable | None,
) -> ColumnTable:
    """Inner join of the required feature families, keyed by title, in
    title order.

    A row survives only if metrics, network, and content all cover the
    article. The topic assignment is carried when present but never
    drops a row (shares over the assigned subpopulation are computed
    downstream); None means no topic table, and every row's topic_id is
    then -1. Every table is in title order, so the common titles, taken
    in metrics' order, and each table's rows of them line up.
    """
    common = set(metrics.articles).intersection(network.articles, content.articles)
    articles = tuple(a for a in metrics.articles if a in common)
    columns = {}
    for table in (metrics, network, content):
        rows = _member(table.articles, common)
        columns.update((name, column[rows]) for name, column in table.columns.items())
    topic_id = np.full(len(articles), -1, dtype=np.int64)
    if topics is not None:
        topic_id[_member(articles, set(topics.articles))] = topics["topic_id"][_member(topics.articles, common)]
    columns["topic_id"] = topic_id
    return ColumnTable(articles, {name: columns[name] for name in JOINED})


def median(values: Sequence[float]) -> float:
    """Median of the non-empty `values` with the even-size rule: mean of
    the two central values."""
    s = np.sort(np.asarray(values, dtype=float), kind="stable").tolist()
    m = len(s)
    if m % 2:
        return s[m // 2]
    return (s[m // 2 - 1] + s[m // 2]) / 2.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, Q2, Q3) of the non-empty `values` by linear interpolation
    between order statistics."""
    s = np.sort(np.asarray(values, dtype=float), kind="stable").tolist()
    m = len(s)

    def at(q: float) -> float:
        h = q * (m - 1)
        i = int(h)
        frac = h - i
        if frac == 0.0 or i + 1 >= m:
            return s[i]
        return s[i] + frac * (s[i + 1] - s[i])

    return at(0.25), at(0.5), at(0.75)


def medians(table: ColumnTable, names: Sequence[str], groups: Sequence[np.ndarray]) -> dict[str, list[float | None]]:
    """Each named column's median over each row group, a mask over
    `table`, in group order; None marks an empty group."""
    return {name: [median(table[name][rows]) if rows.any() else None for rows in groups] for name in names}


def group_medians(table: ColumnTable) -> dict[str, list[float | None]]:
    """Each DEFAULT_MEDIAN_FEATURES column's medians: one per traffic role,
    in ROLES order, then the overall one; None marks an empty group."""
    return medians(table, DEFAULT_MEDIAN_FEATURES, [*role_masks(table), np.ones(len(table), dtype=bool)])


@dataclass(frozen=True)
class BinSummary:
    bin: int
    count: int
    feature_low: float
    feature_high: float
    q1: float
    q2: float
    q3: float


def binned_quartiles(
    table: ColumnTable,
    bin_feature: str,
    target: str,
    bins: int,
) -> list[BinSummary]:
    """Quartiles of `target` over `bins` equal-count bins of `bin_feature`.

    Rows are ordered by (feature value, title) so ties split
    deterministically: a stable sort of the title-ordered feature column.
    With a remainder r, the first r bins hold one extra row.
    """
    if len(table) < bins:
        raise DataError(f"{len(table)} articles cannot fill {bins} bins")
    keys = table[bin_feature].astype(float)
    order = np.argsort(keys, kind="stable")
    keys = keys[order].tolist()
    targets = table[target].astype(float)[order]

    return [
        BinSummary(index, len(rows), keys[rows[0]], keys[rows[-1]], *quartiles(targets[rows]))
        for index, rows in enumerate(np.array_split(np.arange(len(table)), bins))
    ]


@dataclass(frozen=True)
class TopicStats:
    topic_id: int
    label: str
    articles: int
    article_pct: float
    views: int
    view_pct: float
    median_age: float
    median_editors: float
    median_revisions: float
    median_size: float


def topic_statistics(table: ColumnTable, labels: Mapping[int, str]) -> list[TopicStats]:
    """Per-topic article/view shares and content medians, each topic
    named by its entry in `labels`, which names every assigned id.

    Shares are percentages of the topic-assigned subpopulation (rows
    with no topic are outside the denominator).
    """
    assigned = table.take(np.flatnonzero(table["topic_id"] >= 0))
    ids = sorted(set(assigned["topic_id"].tolist()))
    groups = [assigned["topic_id"] == tid for tid in ids]
    per_topic = zip(*medians(assigned, ("age", "editors", "revisions", "size"), groups).values())
    return [
        TopicStats(tid, labels[tid], *share, *topic_medians)
        for tid, share, topic_medians in zip(ids, shares(assigned["total_views"], groups), per_topic)
    ]


def relative_difference_heatmap(topic_grid: np.ndarray, overall_grid: np.ndarray) -> np.ndarray:
    """Cell-wise ratio of the two grids, of one shape, after normalizing
    each to sum 1.

    Cells empty in the overall grid carry no comparison and come back as
    NaN (serialized as empty); a populated overall cell with an empty
    topic cell is a genuine ratio of 0.
    """
    topic_grid = np.asarray(topic_grid, dtype=float)
    overall_grid = np.asarray(overall_grid, dtype=float)
    topic_sum = topic_grid.sum()
    overall_sum = overall_grid.sum()
    if topic_sum <= 0 or overall_sum <= 0:
        raise DataError("cannot normalize an all-zero grid")
    ratio = np.full(topic_grid.shape, np.nan)
    populated = overall_grid > 0
    ratio[populated] = (topic_grid[populated] / topic_sum) / (
        overall_grid[populated] / overall_sum
    )
    return ratio


# ---------------------------------------------------------------------------
# file formats


def read_content_table(path: str | Path) -> ColumnTable:
    """A content table: six counts, then age and size, not negative."""
    return read_columns(
        path,
        CONTENT,
        (lambda c: (c["age"] < 0) | (c["size"] < 0), lambda title: f"negative content feature for {title!r}"),
    )


def write_joined_table(path: str | Path, table: ColumnTable) -> None:
    write_columns(path, JOINED, table)


def read_joined_table(path: str | Path) -> ColumnTable:
    """Read a table written by :func:`write_joined_table`, in title
    order; searchshare and resistance must lie in [0, 1], and an empty
    topic_id is -1."""
    return read_columns(path, JOINED)


def write_group_medians(path: str | Path, medians: Mapping[str, Sequence[float | None]]) -> None:
    """One row per feature: its median per traffic role, then overall."""
    write_rows(path, ((name, *values) for name, values in medians.items()), ("feature", *ROLES, "overall"))


def write_bin_table(path: str | Path, bin_feature: str, target: str, bins: Sequence[BinSummary]) -> None:
    """Quartile curve of `target` over bins of `bin_feature`, as CSV with
    "#" metadata lines."""
    metadata = {"bin_feature": bin_feature, "target": target, "bins": len(bins)}
    write_rows(path, map(astuple, bins), [f.name for f in fields(BinSummary)], metadata, sep=",")


def write_topic_stats(path: str | Path, stats: Sequence[TopicStats]) -> None:
    write_rows(path, map(astuple, stats), [f.name for f in fields(TopicStats)])
