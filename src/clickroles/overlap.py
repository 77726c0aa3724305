"""Descending pageview rankings and cumulative top-k overlap curves.

The overlap between two rankings at depth k is |top_k(A) n top_k(B)| / k,
an unweighted cumulative set overlap; top-weighting is deliberately not
applied, since the curve is read at explicit depths rather than
summarized into one score. Rankings are total orders: ties on the key
value break by ascending article title so every curve is reproducible.
A ranking is one stable argsort of a negated int64 column of the
traffic table (counts at most 2**53, so negation cannot overflow); the
table is in title order, so ties keep title order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .tableio import ColumnTable, write_rows

RANKING_KEYS = ("total", "in_se", "in_nav", "out_nav")


@dataclass(frozen=True)
class Ranking:
    key: str
    articles: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.articles)


@dataclass(frozen=True)
class OverlapCurve:
    ranking_a: str
    ranking_b: str
    points: tuple[tuple[int, float], ...]


def rank_articles(traffic: ColumnTable, key: str) -> Ranking:
    """Rank all articles descending by the traffic key, ties broken by
    ascending title. Zero-valued articles stay in, at the tail."""
    if key not in RANKING_KEYS:
        raise UsageError(f"unknown ranking key {key!r}; expected one of {RANKING_KEYS}")
    order = np.argsort(-traffic["total_views" if key == "total" else key], kind="stable")
    return Ranking(key, tuple(traffic.articles[i] for i in order.tolist()))


def cumulative_overlap(a: Ranking, b: Ranking, ks: list[int]) -> OverlapCurve:
    """Overlap |top_k(a) n top_k(b)| / k at each requested depth.

    Single incremental pass: at each depth the newly revealed article of
    each ranking is checked against the set revealed so far by the other.
    """
    if not ks:
        raise UsageError("at least one depth k is required")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise UsageError("depths must be strictly increasing")
    if ks[0] < 1:
        raise UsageError("depths must be positive")
    limit = min(len(a), len(b))
    if ks[-1] > limit:
        raise DataError(f"depth {ks[-1]} exceeds ranking length {limit}")

    seen_a: set[str] = set()
    seen_b: set[str] = set()
    common = 0
    points: list[tuple[int, float]] = []
    want = iter(ks)
    next_k = next(want)
    for depth in range(1, ks[-1] + 1):
        article_a = a.articles[depth - 1]
        article_b = b.articles[depth - 1]
        if article_a == article_b:
            common += 1
        else:
            if article_a in seen_b:
                common += 1
            if article_b in seen_a:
                common += 1
        seen_a.add(article_a)
        seen_b.add(article_b)
        if depth == next_k:
            points.append((depth, common / depth))
            next_k = next(want, None)
            if next_k is None:
                break
    return OverlapCurve(a.key, b.key, tuple(points))


def default_ks(n: int) -> list[int]:
    """Logarithmic depth schedule 1, 2, 5, 10, 20, 50, ... capped at n,
    with n itself always included."""
    if n < 1:
        raise UsageError("ranking must be non-empty")
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


def write_curve(path: str | Path, curve: OverlapCurve) -> None:
    metadata = {"ranking_a": curve.ranking_a, "ranking_b": curve.ranking_b}
    write_rows(path, curve.points, ("k", "overlap"), metadata, sep=",")
