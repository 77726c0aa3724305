"""Descending pageview rankings and cumulative top-k overlap curves.

The overlap between two rankings at depth k is |top_k(A) n top_k(B)| / k,
an unweighted cumulative set overlap; top-weighting is deliberately not
applied, since the curve is read at explicit depths rather than
summarized into one score. Rankings are total orders: ties on the key
value break by ascending article title so every curve is reproducible.
A ranking is the row order of one stable argsort of a negated int64
column of the traffic table (counts at most 2**53, so negation cannot
overflow); the table is in title order, so ties keep title order.
rank_articles returns that row order and cumulative_overlap the list of
(k, overlap) points; the caller names the two rankings to write_curve.

A row is in both top-k sets exactly when the later of its two rank
positions is below k, so with pos_a and pos_b the 0-based positions of
each row, one ``common = cumsum(bincount(maximum(pos_a, pos_b)))`` gives
|top_k(A) n top_k(B)| as common[k - 1] for every depth at once. The
counts are exact integers, so each overlap is the correctly rounded
quotient of two ints.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .tableio import ColumnTable, write_rows

RANKING_KEYS = ("total", "in_se", "in_nav", "out_nav")


def rank_articles(traffic: ColumnTable, key: str) -> np.ndarray:
    """The row order of all rows descending by the traffic key, ties
    broken by ascending title. Zero-valued articles stay in, at the tail."""
    return np.argsort(-traffic["total_views" if key == "total" else key], kind="stable")


def cumulative_overlap(a: np.ndarray, b: np.ndarray, ks: list[int]) -> list[tuple[int, float]]:
    """The (k, overlap) points, overlap = |top_k(a) n top_k(b)| / k, at
    each depth of `ks`, a non-empty, strictly increasing list of positive
    depths, for two row orders of one table (see the module docstring)."""
    limit = min(len(a), len(b))
    if ks[-1] > limit:
        raise DataError(f"depth {ks[-1]} exceeds ranking length {limit}")

    positions = []
    for order in (a, b):
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        positions.append(position)
    common = np.cumsum(np.bincount(np.maximum(*positions))).tolist()
    return [(k, common[k - 1] / k) for k in ks]


def default_ks(n: int) -> list[int]:
    """Logarithmic depth schedule 1, 2, 5, 10, 20, 50, ... capped at n,
    with n itself always included; n is at least 1."""
    ks: list[int] = []
    base = 1
    while base <= n:
        for mult in (1, 2, 5):
            k = base * mult
            if k > n:
                break
            ks.append(k)
        base *= 10
    if ks[-1] != n:
        ks.append(n)
    return ks


def write_curve(path: str | Path, ranking_a: str, ranking_b: str, points: list[tuple[int, float]]) -> None:
    """The (k, overlap) points of the rankings named `ranking_a` and
    `ranking_b`, as CSV with "#" metadata lines."""
    write_rows(path, points, ("k", "overlap"), {"ranking_a": ranking_a, "ranking_b": ranking_b}, sep=",")
