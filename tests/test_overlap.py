"""Rankings as row orders against a per-row sort, and the rank-position
overlap curve against brute-force set intersection and against the
incremental set walk it replaced (reference_cumulative_overlap)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.overlap import cumulative_overlap, default_ks, rank_articles
from feature_rows import traffic_of


def traffic(*rows):
    """The traffic table of (article, in_se, in_nav, out_nav) rows."""
    return traffic_of(rows)


def ranked(table, key):
    """The titles of `table` in the order rank_articles gives by `key`."""
    return tuple(table.articles[i] for i in rank_articles(table, key).tolist())


def reference_ranking(rows, key):
    """Sort by (-value, title): the per-row ranking the argsort replaces."""
    index = {"in_se": 1, "in_nav": 2, "out_nav": 3}

    def value(row):
        return row[1] + row[2] if key == "total" else row[index[key]]

    return tuple(r[0] for r in sorted(rows, key=lambda r: (-value(r), r[0])))


def reference_cumulative_overlap(a, b, ks):
    """The overlap points of the title rankings `a` and `b` at depths
    `ks` by the incremental set walk that cumulative_overlap replaced:
    at each depth the newly revealed article of each ranking is checked
    against the set revealed so far by the other."""
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    common = 0
    points: list[tuple[int, float]] = []
    want = iter(ks)
    next_k = next(want)
    for depth in range(1, ks[-1] + 1):
        article_a = a[depth - 1]
        article_b = b[depth - 1]
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
    return points


def ranking(order):
    return np.array(order, dtype=np.int64)


class TestRanking:
    def test_descending_by_key(self):
        assert ranked(traffic(("A", 5, 0, 0), ("B", 9, 0, 0)), "total") == ("B", "A")

    def test_tie_broken_by_title(self):
        assert ranked(traffic(("B", 5, 0, 0), ("A", 0, 5, 0)), "total") == ("A", "B")

    def test_input_order_irrelevant(self):
        items = [(f"A{i}", i % 3, 0, 0) for i in range(10)]
        forward = rank_articles(traffic(*items), "total")
        backward = rank_articles(traffic(*reversed(items)), "total")
        assert forward.tolist() == backward.tolist()

    def test_zero_valued_articles_at_tail(self):
        assert ranked(traffic(("A", 0, 0, 0), ("B", 3, 0, 0)), "total") == ("B", "A")

    def test_all_four_keys(self):
        table = traffic(("A", 1, 4, 9))
        for key in ("total", "in_se", "in_nav", "out_nav"):
            assert ranked(table, key) == ("A",)

    @given(
        counts=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.one_of(st.integers(0, 5), st.just(2**53))),
            max_size=40,
        ),
        key=st.sampled_from(["total", "in_se", "in_nav", "out_nav"]),
    )
    @settings(max_examples=100)
    def test_matches_sorted_reference(self, counts, key):
        rows = [(f"T{i:02d}", *c) for i, c in enumerate(counts)]
        assert ranked(traffic(*reversed(rows)), key) == reference_ranking(rows, key)


def brute_force_overlap(a, b, k):
    return len(set(a[:k]) & set(b[:k])) / k


class TestCumulativeOverlap:
    def test_identical_rankings(self):
        r = ranking(range(6))
        points = cumulative_overlap(r, r, [1, 3, 6])
        assert [v for _, v in points] == [1.0, 1.0, 1.0]

    def test_disjoint_rankings(self):
        a = ranking([0, 1, 2, 3, 4, 5])
        b = ranking([3, 4, 5, 0, 1, 2])
        points = cumulative_overlap(a, b, [1, 2, 3])
        assert [v for _, v in points] == [0.0, 0.0, 0.0]

    def test_hand_example(self):
        # rows a, b, c, d: a ranks a b c d, b ranks b a d c
        a = ranking([0, 1, 2, 3])
        b = ranking([1, 0, 3, 2])
        assert cumulative_overlap(a, b, [3]) == [(3, 2 / 3)]

    def test_k_beyond_length_is_domain_error(self):
        a = ranking([0, 1])
        with pytest.raises(DataError, match="^depth 3 exceeds ranking length 2$"):
            cumulative_overlap(a, a, [3])

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 120)
            rows = range(n + rng.randint(0, 40))
            a = tuple(rng.sample(rows, len(rows)))
            b = tuple(rng.sample(rows, len(rows)))
            ks = sorted(rng.sample(range(1, n + 1), min(n, 12)))
            for k, value in cumulative_overlap(ranking(a), ranking(b), ks):
                assert value == brute_force_overlap(a, b, k)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_symmetry_and_bounds(self, data):
        n = data.draw(st.integers(min_value=1, max_value=50))
        rows = range(80)
        rng = random.Random(data.draw(st.integers(0, 2**30)))
        a = tuple(rng.sample(rows, len(rows)))
        b = tuple(rng.sample(rows, len(rows)))
        ks = list(range(1, n + 1))
        ab = cumulative_overlap(ranking(a), ranking(b), ks)
        ba = cumulative_overlap(ranking(b), ranking(a), ks)
        assert [v for _, v in ab] == [v for _, v in ba]
        for _, v in ab:
            assert 0.0 <= v <= 1.0
        # full-depth sanity: overlap(n) is the plain set overlap
        full = len(set(a[:n]) & set(b[:n])) / n
        assert ab[-1][1] == full

    @given(
        counts=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60),
        keys=st.sampled_from([(a, b) for a in ("total", "in_se", "in_nav", "out_nav")
                              for b in ("total", "in_se", "in_nav", "out_nav")]),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_reference_walk_on_tied_rankings(self, counts, keys, data):
        table = traffic(*((f"T{i:02d}", *c) for i, c in enumerate(counts)))
        ks = sorted(data.draw(st.sets(st.integers(1, len(counts)), min_size=1)))
        points = cumulative_overlap(rank_articles(table, keys[0]), rank_articles(table, keys[1]), ks)
        assert points == reference_cumulative_overlap(ranked(table, keys[0]), ranked(table, keys[1]), ks)
        assert all(type(v) is float for _, v in points)


class TestDefaultKs:
    def test_small(self):
        assert default_ks(1) == [1]
        assert default_ks(7) == [1, 2, 5, 7]

    def test_round_hundred(self):
        assert default_ks(100) == [1, 2, 5, 10, 20, 50, 100]

    def test_includes_n(self):
        ks = default_ks(12345)
        assert ks[-1] == 12345
        assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))
