import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError, UsageError
from clickroles.overlap import Ranking, cumulative_overlap, default_ks, rank_articles
from feature_rows import traffic_of


def traffic(*rows):
    """The traffic table of (article, in_se, in_nav, out_nav) rows."""
    return traffic_of(rows)


def reference_ranking(rows, key):
    """Sort by (-value, title): the per-row ranking the argsort replaces."""
    index = {"in_se": 1, "in_nav": 2, "out_nav": 3}

    def value(row):
        return row[1] + row[2] if key == "total" else row[index[key]]

    return tuple(r[0] for r in sorted(rows, key=lambda r: (-value(r), r[0])))


class TestRanking:
    def test_descending_by_key(self):
        assert rank_articles(traffic(("A", 5, 0, 0), ("B", 9, 0, 0)), "total").articles == ("B", "A")

    def test_tie_broken_by_title(self):
        assert rank_articles(traffic(("B", 5, 0, 0), ("A", 0, 5, 0)), "total").articles == ("A", "B")

    def test_input_order_irrelevant(self):
        items = [(f"A{i}", i % 3, 0, 0) for i in range(10)]
        forward = rank_articles(traffic(*items), "total")
        backward = rank_articles(traffic(*reversed(items)), "total")
        assert forward == backward

    def test_zero_valued_articles_at_tail(self):
        assert rank_articles(traffic(("A", 0, 0, 0), ("B", 3, 0, 0)), "total").articles == ("B", "A")

    def test_all_four_keys(self):
        table = traffic(("A", 1, 4, 9))
        for key in ("total", "in_se", "in_nav", "out_nav"):
            assert rank_articles(table, key).articles == ("A",)

    def test_unknown_key(self):
        with pytest.raises(UsageError):
            rank_articles(traffic(), "pagerank")

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
        assert rank_articles(traffic(*reversed(rows)), key).articles == reference_ranking(rows, key)


def brute_force_overlap(a, b, k):
    return len(set(a[:k]) & set(b[:k])) / k


class TestCumulativeOverlap:
    def test_identical_rankings(self):
        r = Ranking("total", tuple("abcdef"))
        curve = cumulative_overlap(r, r, [1, 3, 6])
        assert [v for _, v in curve.points] == [1.0, 1.0, 1.0]

    def test_disjoint_rankings(self):
        a = Ranking("total", ("a", "b", "c"))
        b = Ranking("in_se", ("x", "y", "z"))
        curve = cumulative_overlap(a, b, [1, 2, 3])
        assert [v for _, v in curve.points] == [0.0, 0.0, 0.0]

    def test_hand_example(self):
        a = Ranking("total", ("a", "b", "c"))
        b = Ranking("in_se", ("b", "a", "d"))
        curve = cumulative_overlap(a, b, [3])
        assert curve.points == ((3, 2 / 3),)

    def test_k_beyond_length_is_domain_error(self):
        a = Ranking("total", ("a", "b"))
        with pytest.raises(DataError):
            cumulative_overlap(a, a, [3])

    def test_non_increasing_ks_rejected(self):
        a = Ranking("total", ("a", "b", "c"))
        with pytest.raises(UsageError):
            cumulative_overlap(a, a, [2, 2])

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 120)
            universe = [f"A{i}" for i in range(n + rng.randint(0, 40))]
            a = Ranking("total", tuple(rng.sample(universe, n)))
            b = Ranking("in_nav", tuple(rng.sample(universe, n)))
            ks = sorted(rng.sample(range(1, n + 1), min(n, 12)))
            curve = cumulative_overlap(a, b, ks)
            for k, value in curve.points:
                assert value == brute_force_overlap(a.articles, b.articles, k)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_symmetry_and_bounds(self, data):
        n = data.draw(st.integers(min_value=1, max_value=50))
        universe = list(range(80))
        rng = random.Random(data.draw(st.integers(0, 2**30)))
        a = Ranking("total", tuple(str(x) for x in rng.sample(universe, n)))
        b = Ranking("in_se", tuple(str(x) for x in rng.sample(universe, n)))
        ks = list(range(1, n + 1))
        ab = cumulative_overlap(a, b, ks)
        ba = cumulative_overlap(b, a, ks)
        assert [v for _, v in ab.points] == [v for _, v in ba.points]
        for _, v in ab.points:
            assert 0.0 <= v <= 1.0
        # full-depth sanity: overlap(n) is the plain set overlap
        full = len(set(a.articles) & set(b.articles)) / n
        assert ab.points[-1][1] == full


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
