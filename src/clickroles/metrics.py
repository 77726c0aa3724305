"""Traffic metrics: searchshare, resistance, and the four-group roles.

searchshare(a) = in_se(a) / (in_se(a) + in_nav(a)) is the fraction of an
article's received views that arrived from search-engine referrers.
resistance(a) = 1 - out_nav(a) / (in_se(a) + in_nav(a)), clamped to
[0, 1], measures how much of the received traffic the article fails to
forward onward (1 = traffic sink). Both are defined only for articles
with positive inflow.

Articles are assigned to one of the four ROLES by comparing against the
corpus-wide unweighted means of the two metrics. "Above mean" is a
strict inequality; values exactly at the mean fall on the at-or-below
side (the convention is fixed here for reproducibility; ties at the
mean are measure-zero in practice).

The metrics table is a ``tableio.ColumnTable``: the article titles,
ascending and unique, and the row-aligned columns of the METRICS
schema: searchshare and resistance (float64 ratios), total_views (an
int64 count) and a quadrant code (the int8 index of the article's role
in ROLES, written as the role's name).
Every metric is computed on whole columns of the traffic table. Since
every count is at most 2**53 (``tableio.MAX_COUNT``), int64 -> float64
is exact and each column quotient equals the correctly rounded quotient
of the integers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .tableio import COUNT, ColumnTable, labels, ratio, read_columns, write_columns, write_keyvalues, write_rows

# The four roles, each at its quadrant code.
ROLES = ("search-exit", "search-relay", "nav-relay", "nav-exit")

METRICS = {
    "searchshare": ratio("searchshare"),
    "resistance": ratio("resistance"),
    "total_views": COUNT,
    "quadrant": labels("quadrant", ROLES),
}


@dataclass(frozen=True)
class CorpusThresholds:
    mean_searchshare: float
    mean_resistance: float


def metrics_table(traffic: ColumnTable) -> tuple[ColumnTable, CorpusThresholds]:
    """Metrics and role of every article with positive inflow, in title
    order, and the corpus thresholds the roles were assigned by.

    Resistance is clamped into [0, 1]: a few articles forward more
    traffic than they receive (several links opened from one view),
    which would otherwise push the raw value negative.
    """
    kept = traffic.take(np.flatnonzero(traffic["total_views"] > 0))
    inflow = kept["total_views"]
    searchshare = kept["in_se"] / inflow
    resistance = np.clip(1.0 - kept["out_nav"] / inflow, 0.0, 1.0)
    thresholds = corpus_thresholds(searchshare, resistance)
    quadrant = assign_quadrants(searchshare, resistance, thresholds)
    columns = dict(zip(METRICS, (searchshare, resistance, inflow, quadrant)))
    return ColumnTable(kept.articles, columns), thresholds


def corpus_thresholds(searchshare: np.ndarray, resistance: np.ndarray) -> CorpusThresholds:
    """Unweighted arithmetic means over the article population, each a
    sequential sum (np.sum adds pairwise and can differ in the last bit)."""
    n = len(searchshare)
    return CorpusThresholds(
        mean_searchshare=sum(searchshare.tolist()) / n,
        mean_resistance=sum(resistance.tolist()) / n,
    )


def assign_quadrants(
    searchshare: np.ndarray, resistance: np.ndarray, thresholds: CorpusThresholds
) -> np.ndarray:
    """Quadrant code per row: the index of its role in ROLES."""
    above_ss = searchshare > thresholds.mean_searchshare
    above_res = resistance > thresholds.mean_resistance
    # search-exit 0, search-relay 1, nav-relay 2, nav-exit 3
    return np.where(above_ss, 1 - above_res, 2 + above_res).astype(np.int8)


def group_shares(metrics: ColumnTable) -> dict[str, tuple[float, float]]:
    """Percentage of articles and of received views per role, by name.

    The four groups partition the table, so each percentage column sums
    to 100 up to rounding. View totals are exact Python-int sums.
    """
    n = len(metrics)
    in_group = [metrics["quadrant"] == code for code in range(len(ROLES))]
    article_counts = [int(np.count_nonzero(rows)) for rows in in_group]
    view_counts = [sum(metrics["total_views"][rows].tolist()) for rows in in_group]
    total_views = sum(view_counts)
    return {
        role: (
            100.0 * article_counts[code] / n,
            100.0 * view_counts[code] / total_views if total_views else 0.0,
        )
        for code, role in enumerate(ROLES)
    }


def _bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bin index over [0, 1] per value; the last bin is
    right-closed so 1.0 lands in bin bins-1."""
    values = np.asarray(values, dtype=float)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise DataError(f"histogram value outside [0,1]: {values[outside][0].item()!r}")
    return np.minimum((values * bins).astype(np.int64), bins - 1)


def histogram(values: np.ndarray, weights: np.ndarray | None, bins: int) -> np.ndarray:
    """Equal-width histogram over [0, 1]: article counts per bin, or with
    `weights` (as long as `values`) their sums per bin, in input order."""
    return np.bincount(_bins(values, bins), weights, minlength=bins).astype(float)


def heatmap_grid(
    resistance: np.ndarray,
    searchshare: np.ndarray,
    weights: np.ndarray | None,
    grid_size: int,
) -> np.ndarray:
    """Bin articles by (resistance, searchshare) into a grid_size x
    grid_size grid; rows index resistance bins, columns searchshare bins,
    both ascending. Cells hold article counts, or the sums of `weights`
    (views) added in input order. Raw values: any log scaling for display
    happens elsewhere.
    """
    cells = _bins(resistance, grid_size) * grid_size + _bins(searchshare, grid_size)
    grid = np.bincount(cells, weights, minlength=grid_size * grid_size)
    return grid.astype(float).reshape(grid_size, grid_size)


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank; each NaN is a
    group of its own."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(arr)])) - 1
    ranks = np.empty(len(arr), dtype=float)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def correlations(metrics: ColumnTable) -> dict[str, float]:
    """Unweighted pearson and spearman correlations between searchshare
    and resistance over the article population, which holds at least two
    articles; both NaN, undefined, when either column holds one distinct
    value."""
    ss, res = metrics["searchshare"], metrics["resistance"]
    if ss.min() == ss.max() or res.min() == res.max():
        return {"pearson": math.nan, "spearman": math.nan}
    pearson = float(np.corrcoef(ss, res)[0, 1])
    spearman = float(np.corrcoef(average_ranks(ss), average_ranks(res))[0, 1])
    return {"pearson": pearson, "spearman": spearman}


def write_metrics_table(path: str | Path, metrics: ColumnTable) -> None:
    write_columns(path, METRICS, metrics)


def read_metrics_table(path: str | Path) -> ColumnTable:
    """Read a metrics table written by :func:`write_metrics_table`, in
    title order; searchshare and resistance must lie in [0, 1] and
    total_views must be positive."""
    return read_columns(
        path,
        METRICS,
        (lambda c: c["total_views"] == 0, lambda _: "total_views 0: metrics need positive inflow"),
    )


def write_thresholds(path: str | Path, thresholds: CorpusThresholds) -> None:
    write_keyvalues(path, asdict(thresholds))


def write_group_shares(path: str | Path, shares: dict[str, tuple[float, float]]) -> None:
    """Group share table, percentages reported to 0.1."""
    rows = [(role, f"{shares[role][0]:.1f}", f"{shares[role][1]:.1f}") for role in ROLES]
    write_rows(path, rows, ("group", "article_pct", "view_pct"))
