"""Traffic metrics: searchshare, resistance, and the four-group roles.

searchshare(a) = in_se(a) / (in_se(a) + in_nav(a)) is the fraction of an
article's received views that arrived from search-engine referrers.
resistance(a) = 1 - out_nav(a) / (in_se(a) + in_nav(a)), clamped to
[0, 1], measures how much of the received traffic the article fails to
forward onward (1 = traffic sink). Both are defined only for articles
with positive inflow.

Articles are assigned to one of four roles by comparing against the
corpus-wide unweighted means of the two metrics. "Above mean" is a
strict inequality; values exactly at the mean fall on the at-or-below
side (the convention is fixed here for reproducibility; ties at the
mean are measure-zero in practice).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, UsageError
from .ingest import ArticleTraffic
from .tableio import read_table, write_keyvalues, write_tsv

METRICS_COLUMNS = ("article", "searchshare", "resistance", "total_views", "quadrant")


class QuadrantLabel(enum.Enum):
    SEARCH_EXIT = "search-exit"
    SEARCH_RELAY = "search-relay"
    NAV_RELAY = "nav-relay"
    NAV_EXIT = "nav-exit"


QUADRANT_ORDER = (
    QuadrantLabel.SEARCH_EXIT,
    QuadrantLabel.SEARCH_RELAY,
    QuadrantLabel.NAV_RELAY,
    QuadrantLabel.NAV_EXIT,
)


@dataclass(frozen=True)
class TrafficMetrics:
    article: str
    searchshare: float
    resistance: float
    total_views: int


@dataclass(frozen=True)
class CorpusThresholds:
    mean_searchshare: float
    mean_resistance: float


def compute_searchshare(traffic: ArticleTraffic) -> float:
    inflow = traffic.in_se + traffic.in_nav
    if inflow <= 0:
        raise DataError(f"searchshare undefined for zero-inflow article {traffic.article!r}")
    return traffic.in_se / inflow


def compute_resistance(traffic: ArticleTraffic) -> float:
    """1 - outflow/inflow, clamped into [0, 1].

    Clamping matters: a few articles forward more traffic than they
    receive (several links opened from one view), which would otherwise
    push the raw value negative.
    """
    inflow = traffic.in_se + traffic.in_nav
    if inflow <= 0:
        raise DataError(f"resistance undefined for zero-inflow article {traffic.article!r}")
    raw = 1.0 - traffic.out_nav / inflow
    return min(1.0, max(0.0, raw))


def metrics_table(traffic: dict[str, ArticleTraffic] | Iterable[ArticleTraffic]) -> list[TrafficMetrics]:
    """Compute metrics for every article with positive inflow, sorted by
    title for deterministic downstream output."""
    rows = traffic.values() if isinstance(traffic, dict) else traffic
    out = [
        TrafficMetrics(t.article, compute_searchshare(t), compute_resistance(t), t.total_views)
        for t in sorted(rows, key=lambda t: t.article)
        if t.in_se + t.in_nav > 0
    ]
    return out


def corpus_thresholds(metrics: Sequence[TrafficMetrics]) -> CorpusThresholds:
    """Unweighted arithmetic means over the article population."""
    if not metrics:
        raise DataError("cannot compute thresholds of an empty metrics table")
    n = len(metrics)
    return CorpusThresholds(
        mean_searchshare=sum(m.searchshare for m in metrics) / n,
        mean_resistance=sum(m.resistance for m in metrics) / n,
    )


def assign_quadrant(metrics: TrafficMetrics, thresholds: CorpusThresholds) -> QuadrantLabel:
    above_ss = metrics.searchshare > thresholds.mean_searchshare
    above_res = metrics.resistance > thresholds.mean_resistance
    if above_ss:
        return QuadrantLabel.SEARCH_EXIT if above_res else QuadrantLabel.SEARCH_RELAY
    return QuadrantLabel.NAV_EXIT if above_res else QuadrantLabel.NAV_RELAY


def group_shares(
    metrics: Sequence[TrafficMetrics], thresholds: CorpusThresholds
) -> dict[QuadrantLabel, tuple[float, float]]:
    """Percentage of articles and of received views per role group.

    The four groups partition the table, so each percentage column sums
    to 100 up to rounding.
    """
    if not metrics:
        raise DataError("cannot compute group shares of an empty metrics table")
    article_counts = {label: 0 for label in QUADRANT_ORDER}
    view_counts = {label: 0 for label in QUADRANT_ORDER}
    total_views = 0
    for m in metrics:
        label = assign_quadrant(m, thresholds)
        article_counts[label] += 1
        view_counts[label] += m.total_views
        total_views += m.total_views
    n = len(metrics)
    return {
        label: (
            100.0 * article_counts[label] / n,
            100.0 * view_counts[label] / total_views if total_views else 0.0,
        )
        for label in QUADRANT_ORDER
    }


def _bin_index(value: float, bins: int) -> int:
    # Equal-width bins over [0,1]; the last bin is right-closed so 1.0
    # lands in bin bins-1.
    return min(int(value * bins), bins - 1)


def histogram(
    values: Sequence[float],
    weights: Sequence[float] | None = None,
    bins: int = 100,
) -> np.ndarray:
    """Equal-width histogram over [0, 1]; weighted variant sums weights
    per bin instead of counting."""
    if bins < 1:
        raise UsageError(f"bin count must be >= 1, got {bins}")
    if weights is not None and len(weights) != len(values):
        raise UsageError("values and weights must have equal length")
    out = np.zeros(bins, dtype=float)
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise DataError(f"histogram value outside [0,1]: {v!r}")
        out[_bin_index(v, bins)] += 1.0 if weights is None else weights[i]
    return out


def heatmap_grid(
    metrics: Sequence[TrafficMetrics],
    grid_size: int = 50,
    weighted: bool = False,
) -> np.ndarray:
    """Bin articles by (resistance, searchshare) into a grid_size x
    grid_size grid; rows index resistance bins, columns searchshare bins,
    both ascending. Cells hold article counts, or view sums when
    weighted. Raw values: any log scaling for display happens elsewhere.
    """
    if grid_size < 1:
        raise UsageError(f"grid size must be >= 1, got {grid_size}")
    grid = np.zeros((grid_size, grid_size), dtype=float)
    for m in metrics:
        r = _bin_index(m.resistance, grid_size)
        s = _bin_index(m.searchshare, grid_size)
        grid[r, s] += m.total_views if weighted else 1.0
    return grid


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    sorted_vals = arr[order]
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def correlations(metrics: Sequence[TrafficMetrics]) -> dict[str, float]:
    """Unweighted pearson and spearman correlations between searchshare
    and resistance over the article population."""
    if len(metrics) < 2:
        raise DataError("need at least two articles for correlations")
    ss = np.array([m.searchshare for m in metrics])
    res = np.array([m.resistance for m in metrics])
    pearson = float(np.corrcoef(ss, res)[0, 1])
    spearman = float(np.corrcoef(average_ranks(ss), average_ranks(res))[0, 1])
    return {"pearson": pearson, "spearman": spearman}


def write_metrics_table(
    path: str | Path,
    metrics: Sequence[TrafficMetrics],
    thresholds: CorpusThresholds,
) -> None:
    rows = (
        (m.article, m.searchshare, m.resistance, m.total_views, assign_quadrant(m, thresholds).value)
        for m in metrics
    )
    write_tsv(path, METRICS_COLUMNS, rows)


def read_metrics_table(path: str | Path) -> tuple[list[TrafficMetrics], dict[str, QuadrantLabel]]:
    """Read a metrics table; returns the rows plus article -> quadrant."""
    rows = read_table(
        path,
        METRICS_COLUMNS,
        lambda r: (TrafficMetrics(r[0], float(r[1]), float(r[2]), int(r[3])), QuadrantLabel(r[4])),
    )
    return [m for m, _ in rows], {m.article: q for m, q in rows}


def write_thresholds(path: str | Path, thresholds: CorpusThresholds) -> None:
    write_keyvalues(
        path,
        {
            "mean_searchshare": thresholds.mean_searchshare,
            "mean_resistance": thresholds.mean_resistance,
        },
    )


def write_group_shares(path: str | Path, shares: dict[QuadrantLabel, tuple[float, float]]) -> None:
    """Group share table, percentages reported to 0.1."""
    rows = [
        (label.value, f"{shares[label][0]:.1f}", f"{shares[label][1]:.1f}")
        for label in QUADRANT_ORDER
    ]
    write_tsv(path, ("group", "article_pct", "view_pct"), rows)
