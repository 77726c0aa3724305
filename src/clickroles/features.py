"""Feature joins and per-group summaries.

Brings the per-article tables together (traffic metrics, link-network
degrees, content/edit counts, topic assignment) and computes the three
descriptive views used downstream: medians per traffic role, quartile
curves over equal-count feature bins, and per-topic share statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .linkgraph import NetworkFeatures
from .metrics import QUADRANT_ORDER, MetricsTable, QuadrantLabel
from .tableio import fmt_value, open_text, parse_count, parse_ratio, parse_real, read_table, write_tsv

CONTENT_COLUMNS = (
    "article",
    "sections",
    "figures",
    "lists",
    "tables",
    "revisions",
    "editors",
    "age",
    "size",
)
TOPIC_ASSIGNMENT_COLUMNS = ("article", "topic_id", "weight")

# bin/median features in reporting order: network block, then content/edit
DEFAULT_MEDIAN_FEATURES = (
    "in_degree",
    "out_degree",
    "degree",
    "kcore",
    "sections",
    "figures",
    "lists",
    "tables",
    "revisions",
    "editors",
    "age",
    "size",
)
OVERALL_COLUMN = "overall"


@dataclass(frozen=True)
class ContentFeatures:
    article: str
    sections: int
    figures: int
    lists: int
    tables: int
    revisions: int
    editors: int
    age: float
    size: float


@dataclass(frozen=True)
class ArticleFeatures:
    article: str
    searchshare: float
    resistance: float
    total_views: int
    quadrant: QuadrantLabel
    in_degree: int
    out_degree: int
    degree: int
    kcore: int
    sections: int
    figures: int
    lists: int
    tables: int
    revisions: int
    editors: int
    age: float
    size: float
    topic_id: int | None


JOINED_COLUMNS = tuple(f.name for f in dataclass_fields(ArticleFeatures))

_NUMERIC_FIELDS = frozenset(
    ("searchshare", "resistance", "total_views") + DEFAULT_MEDIAN_FEATURES
)


def feature_value(row: ArticleFeatures, name: str) -> float:
    if name not in _NUMERIC_FIELDS:
        raise UsageError(f"unknown feature {name!r}")
    return float(getattr(row, name))


@dataclass
class JoinStats:
    kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)


def join_features(
    metrics: MetricsTable,
    network: Mapping[str, NetworkFeatures],
    content: Mapping[str, ContentFeatures],
    topics: Mapping[str, int] | None = None,
) -> tuple[list[ArticleFeatures], JoinStats]:
    """Inner join of the required feature families, keyed by title, in
    title order.

    A row survives only if metrics, network, and content all cover the
    article; drop counts per family record what fell out. The topic
    assignment is carried when present but never drops a row (shares
    over the assigned subpopulation are computed downstream).
    """
    common = set(metrics.articles) & network.keys() & content.keys()
    stats = JoinStats(kept=len(common))
    stats.dropped["metrics"] = len(metrics) - len(common)
    stats.dropped["network"] = len(network) - len(common)
    stats.dropped["content"] = len(content) - len(common)

    columns = (metrics.searchshare, metrics.resistance, metrics.total_views, metrics.quadrant)
    joined: list[ArticleFeatures] = []
    for article, searchshare, resistance, total_views, code in zip(
        metrics.articles, *(c.tolist() for c in columns)
    ):
        if article not in common:
            continue
        net = network[article]
        con = content[article]
        joined.append(
            ArticleFeatures(
                article, searchshare, resistance, total_views, QUADRANT_ORDER[code],
                net.in_degree, net.out_degree, net.degree, net.kcore,
                con.sections, con.figures, con.lists, con.tables, con.revisions, con.editors, con.age, con.size,
                topic_id=None if topics is None else topics.get(article),
            )
        )
    return joined, stats


def median(values: Sequence[float]) -> float:
    """Median with the even-size rule: mean of the two central values."""
    if not values:
        raise DataError("median of empty sequence")
    s = sorted(values)
    m = len(s)
    if m % 2:
        return float(s[m // 2])
    return (s[m // 2 - 1] + s[m // 2]) / 2.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, Q2, Q3) by linear interpolation between order statistics."""
    if not values:
        raise DataError("quartiles of empty sequence")
    s = sorted(values)
    m = len(s)

    def at(q: float) -> float:
        h = q * (m - 1)
        i = int(h)
        frac = h - i
        if frac == 0.0 or i + 1 >= m:
            return float(s[i])
        return s[i] + frac * (s[i + 1] - s[i])

    return at(0.25), at(0.5), at(0.75)


@dataclass(frozen=True)
class GroupMedianTable:
    features: tuple[str, ...]
    columns: tuple[str, ...]
    # feature -> column -> median; None marks an empty group
    values: dict[str, dict[str, float | None]]


def group_medians(
    rows: Sequence[ArticleFeatures],
    features: Sequence[str] = DEFAULT_MEDIAN_FEATURES,
) -> GroupMedianTable:
    """Median of each feature per traffic role, plus the overall column."""
    for name in features:
        if name not in _NUMERIC_FIELDS:
            raise UsageError(f"unknown feature {name!r}")
    by_group: dict[str, list[ArticleFeatures]] = {q.value: [] for q in QUADRANT_ORDER}
    for row in rows:
        by_group[row.quadrant.value].append(row)

    columns = tuple(q.value for q in QUADRANT_ORDER) + (OVERALL_COLUMN,)
    values: dict[str, dict[str, float | None]] = {}
    for name in features:
        per_column: dict[str, float | None] = {}
        for q in QUADRANT_ORDER:
            members = by_group[q.value]
            per_column[q.value] = (
                median([feature_value(r, name) for r in members]) if members else None
            )
        per_column[OVERALL_COLUMN] = (
            median([feature_value(r, name) for r in rows]) if rows else None
        )
        values[name] = per_column
    return GroupMedianTable(tuple(features), columns, values)


@dataclass(frozen=True)
class BinSummary:
    index: int
    count: int
    feature_low: float
    feature_high: float
    q1: float
    q2: float
    q3: float


@dataclass(frozen=True)
class BinnedQuartiles:
    bin_feature: str
    target: str
    bins: tuple[BinSummary, ...]


def binned_quartiles(
    rows: Sequence[ArticleFeatures],
    bin_feature: str,
    target: str,
    bins: int = 25,
) -> BinnedQuartiles:
    """Quartiles of `target` over `bins` equal-count bins of `bin_feature`.

    Rows are sorted by (feature value, title) so ties split
    deterministically; with a remainder r, the first r bins hold one
    extra row.
    """
    if bins < 1:
        raise UsageError(f"bins must be positive, got {bins}")
    if len(rows) < bins:
        raise DataError(f"{len(rows)} articles cannot fill {bins} bins")
    ordered = sorted(rows, key=lambda r: (feature_value(r, bin_feature), r.article))
    targets = [feature_value(r, target) for r in ordered]
    keys = [feature_value(r, bin_feature) for r in ordered]

    base, rem = divmod(len(ordered), bins)
    summaries: list[BinSummary] = []
    start = 0
    for index in range(bins):
        size = base + (1 if index < rem else 0)
        stop = start + size
        q1, q2, q3 = quartiles(targets[start:stop])
        summaries.append(
            BinSummary(index, size, keys[start], keys[stop - 1], q1, q2, q3)
        )
        start = stop
    return BinnedQuartiles(bin_feature, target, tuple(summaries))


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


def topic_statistics(
    rows: Sequence[ArticleFeatures],
    labels: Mapping[int, str] | None = None,
) -> list[TopicStats]:
    """Per-topic article/view shares and content medians.

    Shares are percentages of the topic-assigned subpopulation (rows
    with no topic are outside the denominator).
    """
    assigned = [r for r in rows if r.topic_id is not None]
    if not assigned:
        return []
    total_views = sum(r.total_views for r in assigned)
    by_topic: dict[int, list[ArticleFeatures]] = {}
    for row in assigned:
        by_topic.setdefault(row.topic_id, []).append(row)

    out: list[TopicStats] = []
    for topic_id in sorted(by_topic):
        members = by_topic[topic_id]
        views = sum(r.total_views for r in members)
        out.append(
            TopicStats(
                topic_id=topic_id,
                label=(labels or {}).get(topic_id, f"topic-{topic_id}"),
                articles=len(members),
                article_pct=100.0 * len(members) / len(assigned),
                views=views,
                view_pct=100.0 * views / total_views if total_views else 0.0,
                median_age=median([r.age for r in members]),
                median_editors=median([float(r.editors) for r in members]),
                median_revisions=median([float(r.revisions) for r in members]),
                median_size=median([r.size for r in members]),
            )
        )
    return out


def relative_difference_heatmap(topic_grid: np.ndarray, overall_grid: np.ndarray) -> np.ndarray:
    """Cell-wise ratio of the two grids after normalizing each to sum 1.

    Cells empty in the overall grid carry no comparison and come back as
    NaN (serialized as empty); a populated overall cell with an empty
    topic cell is a genuine ratio of 0.
    """
    topic_grid = np.asarray(topic_grid, dtype=float)
    overall_grid = np.asarray(overall_grid, dtype=float)
    if topic_grid.shape != overall_grid.shape:
        raise UsageError(
            f"grid shapes differ: {topic_grid.shape} vs {overall_grid.shape}"
        )
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


def read_content_table(path: str | Path) -> dict[str, ContentFeatures]:
    def parse(row: list[str]) -> ContentFeatures:
        age, size = parse_real(row[7]), parse_real(row[8])
        if age < 0 or size < 0:
            raise DataError(f"negative content feature for {row[0]!r}")
        return ContentFeatures(row[0], *(parse_count(v) for v in row[1:7]), age, size)

    return {c.article: c for c in read_table(path, CONTENT_COLUMNS, parse)}


def read_topic_assignments(path: str | Path) -> dict[str, int]:
    return dict(read_table(path, TOPIC_ASSIGNMENT_COLUMNS, lambda row: (row[0], parse_count(row[1]))))


def write_joined_table(path: str | Path, rows: Sequence[ArticleFeatures]) -> None:
    def cells(r: ArticleFeatures):
        for name in JOINED_COLUMNS:
            v = getattr(r, name)
            yield v.value if isinstance(v, QuadrantLabel) else v

    write_tsv(path, JOINED_COLUMNS, (tuple(cells(r)) for r in rows))


def read_joined_table(path: str | Path) -> list[ArticleFeatures]:
    """Read a table written by :func:`write_joined_table`; searchshare
    and resistance must lie in [0, 1]."""

    def parse(r: list[str]) -> ArticleFeatures:
        return ArticleFeatures(
            r[0], parse_ratio("searchshare", r[1]), parse_ratio("resistance", r[2]),
            parse_count(r[3]), QuadrantLabel(r[4]),
            *(parse_count(v) for v in r[5:15]),  # in_degree .. editors
            age=parse_real(r[15]),
            size=parse_real(r[16]),
            topic_id=parse_count(r[17]) if r[17] else None,
        )

    return read_table(path, JOINED_COLUMNS, parse)


def write_group_medians(path: str | Path, table: GroupMedianTable) -> None:
    rows = (
        (name, *(fmt_value(table.values[name][col]) for col in table.columns))
        for name in table.features
    )
    write_tsv(path, ("feature", *table.columns), rows)


def write_bin_table(path: str | Path, result: BinnedQuartiles) -> None:
    """Quartile curve as CSV with "#" metadata lines."""
    with open_text(path, "wt") as fh:
        fh.write(f"# bin_feature={result.bin_feature}\n")
        fh.write(f"# target={result.target}\n")
        fh.write(f"# bins={len(result.bins)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("bin", "count", "feature_low", "feature_high", "q1", "q2", "q3"))
        for b in result.bins:
            writer.writerow(
                (
                    b.index,
                    b.count,
                    fmt_value(b.feature_low),
                    fmt_value(b.feature_high),
                    fmt_value(b.q1),
                    fmt_value(b.q2),
                    fmt_value(b.q3),
                )
            )


def write_topic_stats(path: str | Path, stats: Sequence[TopicStats]) -> None:
    columns = (
        "topic_id",
        "label",
        "articles",
        "article_pct",
        "views",
        "view_pct",
        "median_age",
        "median_editors",
        "median_revisions",
        "median_size",
    )
    rows = (
        (
            s.topic_id,
            s.label,
            s.articles,
            fmt_value(s.article_pct),
            s.views,
            fmt_value(s.view_pct),
            fmt_value(s.median_age),
            fmt_value(s.median_editors),
            fmt_value(s.median_revisions),
            fmt_value(s.median_size),
        )
        for s in stats
    )
    write_tsv(path, columns, rows)
