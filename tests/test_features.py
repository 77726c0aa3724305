"""Feature joining, medians, equal-count bins, topic stats, ratio grids."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError, UsageError
from clickroles.features import (
    ArticleFeatures,
    ContentFeatures,
    binned_quartiles,
    feature_value,
    group_medians,
    join_features,
    median,
    quartiles,
    read_content_table,
    read_joined_table,
    read_topic_assignments,
    relative_difference_heatmap,
    topic_statistics,
    write_bin_table,
    write_joined_table,
)
from clickroles.linkgraph import NetworkFeatures
from clickroles.metrics import QUADRANT_ORDER, MetricsTable, QuadrantLabel, read_metrics_table


def make_row(article="A", **overrides) -> ArticleFeatures:
    values = dict(
        article=article,
        searchshare=0.5,
        resistance=0.5,
        total_views=100,
        quadrant=QuadrantLabel.NAV_RELAY,
        in_degree=1,
        out_degree=1,
        degree=2,
        kcore=1,
        sections=1,
        figures=0,
        lists=0,
        tables=0,
        revisions=5,
        editors=2,
        age=1.0,
        size=10.0,
        topic_id=None,
    )
    values.update(overrides)
    return ArticleFeatures(**values)


def make_inputs(titles_m, titles_n, titles_c):
    titles = tuple(sorted(titles_m))
    n = len(titles)
    nav_relay = QUADRANT_ORDER.index(QuadrantLabel.NAV_RELAY)
    metrics = MetricsTable(
        titles, np.full(n, 0.5), np.full(n, 0.5), np.full(n, 10, dtype=np.int64), np.full(n, nav_relay, dtype=np.int8)
    )
    network = {t: NetworkFeatures(t, 1, 2, 3, 1) for t in titles_n}
    content = {t: ContentFeatures(t, 1, 0, 0, 0, 5, 2, 1.0, 10.0) for t in titles_c}
    return metrics, network, content


class TestJoin:
    def test_disjoint_keys_empty(self):
        metrics, network, content = make_inputs(["A"], ["B"], ["C"])
        joined, stats = join_features(metrics, network, content)
        assert joined == []
        assert stats.kept == 0
        assert stats.dropped == {"metrics": 1, "network": 1, "content": 1}

    def test_single_row(self):
        metrics, network, content = make_inputs(["A"], ["A"], ["A"])
        joined, stats = join_features(metrics, network, content)
        assert len(joined) == 1
        assert stats.kept == 1
        row = joined[0]
        assert (row.article, row.in_degree, row.revisions) == ("A", 1, 5)
        assert row.topic_id is None
        # plain Python numbers, so the joined table writes them as such
        assert (type(row.searchshare), type(row.total_views)) == (float, int)
        assert row.quadrant is QuadrantLabel.NAV_RELAY

    def test_topic_carried_but_optional(self):
        metrics, network, content = make_inputs(["A", "B"], ["A", "B"], ["A", "B"])
        joined, _ = join_features(metrics, network, content, topics={"A": 3})
        by_title = {r.article: r for r in joined}
        assert by_title["A"].topic_id == 3
        assert by_title["B"].topic_id is None

    def test_duplicate_metric_key(self, tmp_path):
        # titles are unique by construction of the table, checked on read
        path = tmp_path / "metrics.tsv"
        path.write_text(
            "article\tsearchshare\tresistance\ttotal_views\tquadrant\n"
            "A\t0.5\t0.5\t10\tnav-relay\nA\t0.5\t0.5\t10\tnav-relay\n"
        )
        with pytest.raises(DataError, match="'A'"):
            read_metrics_table(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_nested_loop_join(self, seed):
        rng = np.random.default_rng(seed)
        pool = [f"T{i:02d}" for i in range(30)]
        pick = lambda: [t for t in pool if rng.random() < 0.6]
        titles_m, titles_n, titles_c = pick(), pick(), pick()
        metrics, network, content = make_inputs(titles_m, titles_n, titles_c)

        expected = []
        for article in metrics.articles:
            net_hits = [n for k, n in network.items() if k == article]
            con_hits = [c for k, c in content.items() if k == article]
            for net in net_hits:
                for con in con_hits:
                    expected.append((article, net.in_degree, con.revisions))
        expected.sort()

        joined, stats = join_features(metrics, network, content)
        got = sorted((r.article, r.in_degree, r.revisions) for r in joined)
        assert got == expected
        assert stats.kept == len(expected)
        assert stats.dropped["metrics"] == len(titles_m) - len(expected)

    def test_output_sorted_by_title(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        path.write_text(
            "article\tsearchshare\tresistance\ttotal_views\tquadrant\n"
            + "".join(f"{t}\t0.5\t0.5\t10\tnav-relay\n" for t in "CAB")
        )
        _, network, content = make_inputs([], ["A", "B", "C"], ["B", "C", "A"])
        joined, _ = join_features(read_metrics_table(path), network, content)
        assert [r.article for r in joined] == ["A", "B", "C"]


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_mean_of_central(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_empty_raises(self):
        with pytest.raises(DataError):
            median([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_matches_numpy(self, values):
        assert median(values) == pytest.approx(float(np.median(values)), abs=1e-9)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_duplication_invariant(self, values):
        assert median(values) == pytest.approx(median(values * 2), abs=1e-9)


class TestGroupMedians:
    def test_per_group_and_overall(self):
        rows = [
            make_row("A", quadrant=QuadrantLabel.SEARCH_EXIT, kcore=10),
            make_row("B", quadrant=QuadrantLabel.SEARCH_EXIT, kcore=20),
            make_row("C", quadrant=QuadrantLabel.NAV_RELAY, kcore=50),
        ]
        table = group_medians(rows, ["kcore"])
        cell = table.values["kcore"]
        assert cell["search-exit"] == 15.0
        assert cell["nav-relay"] == 50.0
        assert cell["overall"] == 20.0

    def test_empty_group_absent(self):
        rows = [make_row("A", quadrant=QuadrantLabel.NAV_EXIT)]
        table = group_medians(rows, ["age"])
        assert table.values["age"]["search-relay"] is None
        assert table.values["age"]["nav-exit"] == 1.0

    def test_duplicated_rows_leave_medians_unchanged(self):
        rng = np.random.default_rng(3)
        rows = [
            make_row(
                f"A{i}",
                quadrant=QuadrantLabel(np.random.default_rng(i).choice(
                    ["search-exit", "search-relay", "nav-relay", "nav-exit"]
                )),
                kcore=int(rng.integers(0, 100)),
                age=float(rng.uniform(0, 20)),
            )
            for i in range(31)
        ]
        doubled = rows + [
            ArticleFeatures(**{**r.__dict__, "article": r.article + "#2"}) for r in rows
        ]
        t1 = group_medians(rows, ["kcore", "age"])
        t2 = group_medians(doubled, ["kcore", "age"])
        assert t1.values == t2.values

    def test_unknown_feature(self):
        with pytest.raises(UsageError):
            group_medians([make_row()], ["pagerank"])


class TestQuartiles:
    def test_constant(self):
        assert quartiles([2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0)

    def test_hand_example(self):
        # [1,2,3,4]: positions 0.75, 1.5, 2.25
        q1, q2, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
        assert (q1, q2, q3) == (1.75, 2.5, 3.25)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80))
    def test_ordering(self, values):
        q1, q2, q3 = quartiles(values)
        assert q1 <= q2 <= q3


class TestBinnedQuartiles:
    def test_four_articles_two_bins(self):
        rows = [make_row(f"A{i}", kcore=i, searchshare=i / 10) for i in range(4)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=2)
        assert [b.count for b in result.bins] == [2, 2]
        assert result.bins[0].feature_low == 0.0
        assert result.bins[1].feature_high == 3.0

    def test_constant_target(self):
        rows = [make_row(f"A{i}", kcore=i) for i in range(10)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=5)
        for b in result.bins:
            assert b.q1 == b.q2 == b.q3 == 0.5

    def test_remainder_goes_to_first_bins(self):
        rows = [make_row(f"A{i}", kcore=i) for i in range(10)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=3)
        assert [b.count for b in result.bins] == [4, 3, 3]

    def test_too_few_articles(self):
        with pytest.raises(DataError):
            binned_quartiles([make_row()], "kcore", "searchshare", bins=2)

    def test_tie_break_by_title(self):
        # equal kcore everywhere: bin membership decided by title order
        rows = [make_row(f"A{i}", kcore=7, searchshare=i / 10) for i in range(4)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=2)
        assert result.bins[0].q2 == pytest.approx(0.05)
        assert result.bins[1].q2 == pytest.approx(0.25)

    @pytest.mark.parametrize("seed,n,bins", [(0, 251, 25), (1, 400, 25), (2, 97, 10)])
    def test_against_numpy_percentile(self, seed, n, bins):
        rng = np.random.default_rng(seed)
        rows = [
            make_row(
                f"A{i:04d}",
                kcore=int(rng.integers(0, 40)),
                searchshare=float(rng.random()),
            )
            for i in range(n)
        ]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=bins)
        ordered = sorted(rows, key=lambda r: (r.kcore, r.article))
        base, rem = divmod(n, bins)
        start = 0
        for b in result.bins:
            size = base + (1 if b.index < rem else 0)
            chunk = [r.searchshare for r in ordered[start : start + size]]
            assert b.count == size
            assert b.q1 == pytest.approx(np.percentile(chunk, 25), abs=1e-12)
            assert b.q2 == pytest.approx(np.percentile(chunk, 50), abs=1e-12)
            assert b.q3 == pytest.approx(np.percentile(chunk, 75), abs=1e-12)
            start += size

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.floats(0, 1)), min_size=6, max_size=120),
        st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, data, bins):
        rows = [make_row(f"A{i:03d}", kcore=k, searchshare=s) for i, (k, s) in enumerate(data)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=bins)
        counts = [b.count for b in result.bins]
        assert sum(counts) == len(rows)
        assert max(counts) - min(counts) <= 1
        for b in result.bins:
            assert b.q1 <= b.q2 <= b.q3
            assert b.feature_low <= b.feature_high


class TestTopicStatistics:
    def test_single_topic(self):
        rows = [make_row("A", topic_id=0), make_row("B", topic_id=0)]
        (stats,) = topic_statistics(rows)
        assert stats.article_pct == 100.0
        assert stats.view_pct == 100.0

    def test_view_split(self):
        rows = [
            make_row("A", topic_id=0, total_views=30),
            make_row("B", topic_id=1, total_views=10),
        ]
        s0, s1 = topic_statistics(rows)
        assert (s0.view_pct, s1.view_pct) == (75.0, 25.0)
        assert s0.article_pct == 50.0

    def test_unassigned_outside_denominator(self):
        rows = [
            make_row("A", topic_id=0, total_views=30),
            make_row("B", topic_id=None, total_views=1000),
        ]
        (stats,) = topic_statistics(rows)
        assert stats.article_pct == 100.0
        assert stats.view_pct == 100.0

    def test_labels_and_medians(self):
        rows = [
            make_row("A", topic_id=2, age=4.0),
            make_row("B", topic_id=2, age=6.0),
        ]
        (stats,) = topic_statistics(rows, labels={2: "Sports"})
        assert stats.label == "Sports"
        assert stats.median_age == 5.0

    def test_share_sums(self):
        rng = np.random.default_rng(9)
        rows = [
            make_row(
                f"A{i}",
                topic_id=int(rng.integers(0, 5)),
                total_views=int(rng.integers(10, 1000)),
            )
            for i in range(100)
        ]
        stats = topic_statistics(rows)
        assert sum(s.article_pct for s in stats) == pytest.approx(100.0, abs=1e-9)
        assert sum(s.view_pct for s in stats) == pytest.approx(100.0, abs=1e-9)


class TestRelativeDifference:
    def test_identical_grids_are_one(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        ratio = relative_difference_heatmap(grid, grid)
        assert np.allclose(ratio, 1.0)

    def test_zero_overall_masked(self):
        topic = np.array([[1.0, 1.0], [0.0, 2.0]])
        overall = np.array([[2.0, 0.0], [1.0, 1.0]])
        ratio = relative_difference_heatmap(topic, overall)
        assert np.isnan(ratio[0, 1])
        assert ratio[1, 0] == 0.0

    def test_against_hand_division(self):
        rng = np.random.default_rng(4)
        topic = rng.integers(0, 6, size=(5, 5)).astype(float)
        overall = rng.integers(0, 6, size=(5, 5)).astype(float)
        overall[0, 0] = max(overall[0, 0], 1.0)
        topic[0, 0] = max(topic[0, 0], 1.0)
        ratio = relative_difference_heatmap(topic, overall)
        ts, os_ = topic.sum(), overall.sum()
        for i in range(5):
            for j in range(5):
                if overall[i, j] == 0:
                    assert np.isnan(ratio[i, j])
                else:
                    assert ratio[i, j] == pytest.approx(
                        (topic[i, j] / ts) / (overall[i, j] / os_), abs=1e-12
                    )

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            relative_difference_heatmap(np.ones((2, 2)), np.ones((3, 3)))

    def test_all_zero_grid(self):
        with pytest.raises(DataError):
            relative_difference_heatmap(np.zeros((2, 2)), np.ones((2, 2)))


class TestFileFormats:
    def test_content_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "content.tsv"
        path.write_text(
            "article\tsections\tfigures\tlists\ttables\trevisions\teditors\tage\tsize\n"
            "A\t3\t1\t0\t2\t40\t7\t5.5\t12.25\n"
        )
        table = read_content_table(path)
        assert table["A"].age == 5.5
        assert table["A"].tables == 2

        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "article\tsections\tfigures\tlists\ttables\trevisions\teditors\tage\tsize\n"
            "A\t3\t1\t0\t2\t40\t7\t-1.0\t12.25\n"
        )
        with pytest.raises(DataError, match="negative"):
            read_content_table(bad)

    def test_topic_assignments(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("article\ttopic_id\tweight\nA\t3\t0.9\nB\t0\t0.5\n")
        assert read_topic_assignments(path) == {"A": 3, "B": 0}

    def test_joined_roundtrip(self, tmp_path):
        rows = [
            make_row("A", topic_id=4, quadrant=QuadrantLabel.SEARCH_EXIT),
            make_row("B", topic_id=None),
        ]
        path = tmp_path / "joined.tsv"
        write_joined_table(path, rows)
        assert read_joined_table(path) == rows

    def test_bin_table_format(self, tmp_path):
        rows = [make_row(f"A{i}", kcore=i, searchshare=i / 10) for i in range(4)]
        result = binned_quartiles(rows, "kcore", "searchshare", bins=2)
        path = tmp_path / "bins.csv"
        write_bin_table(path, result)
        text = path.read_text().splitlines()
        assert text[0] == "# bin_feature=kcore"
        assert text[3] == "bin,count,feature_low,feature_high,q1,q2,q3"
        assert len(text) == 6


class TestFeatureValue:
    def test_lookup_and_rejection(self):
        row = make_row(kcore=9)
        assert feature_value(row, "kcore") == 9.0
        with pytest.raises(UsageError):
            feature_value(row, "article")
