"""Feature joining, medians, equal-count bins, topic stats, ratio grids.

The per-row reference implementations below (``ref_*``) are the row-by-row
forms of the column operations; hypothesis tests require exactly equal
results, signed zeros included, on drawn tables read from unsorted files.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.features import (
    CONTENT,
    DEFAULT_MEDIAN_FEATURES,
    JOINED,
    TopicStats,
    binned_quartiles,
    group_medians,
    join_features,
    median,
    quartiles,
    read_content_table,
    read_joined_table,
    relative_difference_heatmap,
    topic_statistics,
    write_bin_table,
    write_joined_table,
)
from clickroles.linkgraph import NETWORK, read_network_table
from clickroles.metrics import METRICS, ROLES, read_metrics_table
from clickroles.tableio import ColumnTable, fmt_value
from clickroles.topics import TOPIC_ASSIGNMENT, read_topic_assignments, topic_names
from feature_rows import joined_tsv, make_row, make_table, table_rows


def make_inputs(titles_m, titles_n, titles_c):
    def table(titles, **values):
        titles = tuple(sorted(titles))
        return ColumnTable(titles, {k: np.full(len(titles), v) for k, v in values.items()})

    nav_relay = np.int8(ROLES.index("nav-relay"))
    metrics = table(titles_m, searchshare=0.5, resistance=0.5, total_views=10, quadrant=nav_relay)
    network = table(titles_n, in_degree=1, out_degree=2, degree=3, kcore=1)
    content = table(titles_c, sections=1, figures=0, lists=0, tables=0, revisions=5, editors=2, age=1.0, size=10.0)
    return metrics, network, content


# ---------------------------------------------------------------------------
# per-row references


def ref_median(values):
    s = sorted(values)
    m = len(s)
    if m % 2:
        return float(s[m // 2])
    return (s[m // 2 - 1] + s[m // 2]) / 2.0


def ref_quartiles(values):
    s = sorted(values)
    m = len(s)

    def at(q):
        h = q * (m - 1)
        i = int(h)
        frac = h - i
        if frac == 0.0 or i + 1 >= m:
            return float(s[i])
        return s[i] + frac * (s[i + 1] - s[i])

    return at(0.25), at(0.5), at(0.75)


def ref_join(metrics, network, content, topics):
    """Per-row inner join of title -> cells dicts, in title order, and
    the drop counts per family."""
    common = metrics.keys() & network.keys() & content.keys()
    joined = []
    for article in sorted(metrics):
        if article in common:
            topic_id = None if topics is None else topics.get(article)
            cells = (article, *metrics[article], *network[article], *content[article], topic_id)
            joined.append(dict(zip(("article", *JOINED), cells)))
    dropped = {"metrics": len(metrics), "network": len(network), "content": len(content)}
    return joined, {k: v - len(common) for k, v in dropped.items()}


def ref_group_medians(rows, features):
    by_group = {role: [] for role in ROLES}
    for row in rows:
        by_group[row["quadrant"]].append(row)
    values = {}
    for name in features:
        per_column = [
            ref_median([float(r[name]) for r in members]) if members else None
            for members in by_group.values()
        ]
        per_column.append(ref_median([float(r[name]) for r in rows]) if rows else None)
        values[name] = per_column
    return values


def ref_binned_quartiles(rows, bin_feature, target, bins):
    ordered = sorted(rows, key=lambda r: (float(r[bin_feature]), r["article"]))
    base, rem = divmod(len(ordered), bins)
    out, start = [], 0
    for index in range(bins):
        stop = start + base + (1 if index < rem else 0)
        chunk = ordered[start:stop]
        q1, q2, q3 = ref_quartiles([float(r[target]) for r in chunk])
        low, high = float(chunk[0][bin_feature]), float(chunk[-1][bin_feature])
        out.append((index, stop - start, low, high, q1, q2, q3))
        start = stop
    return out


def ref_topic_statistics(rows, labels=None):
    assigned = [r for r in rows if r["topic_id"] is not None]
    if not assigned:
        return []
    total_views = sum(r["total_views"] for r in assigned)
    by_topic = {}
    for row in assigned:
        by_topic.setdefault(row["topic_id"], []).append(row)
    out = []
    for topic_id in sorted(by_topic):
        members = by_topic[topic_id]
        views = sum(r["total_views"] for r in members)
        out.append(
            TopicStats(
                topic_id=topic_id,
                label=(labels or {}).get(topic_id, f"topic-{topic_id}"),
                articles=len(members),
                article_pct=100.0 * len(members) / len(assigned),
                views=views,
                view_pct=100.0 * views / total_views if total_views else 0.0,
                median_age=ref_median([r["age"] for r in members]),
                median_editors=ref_median([float(r["editors"]) for r in members]),
                median_revisions=ref_median([float(r["revisions"]) for r in members]),
                median_size=ref_median([r["size"] for r in members]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# drawn tables: few distinct values, so ties are common; both zeros appear

TITLES = st.text(alphabet="abAB_\u00e91", min_size=1, max_size=3)
COUNT = st.integers(0, 3)
RATIO = st.sampled_from([-0.0, 0.0, 0.25, 1.0]) | st.floats(0, 1)
REAL = st.sampled_from([-0.0, 0.0, 0.5, 2.0]) | st.floats(0, 10)
ROW_CELLS = st.fixed_dictionaries({
    "searchshare": RATIO,
    "resistance": RATIO,
    "total_views": st.integers(0, 50),
    **{name: COUNT for name in DEFAULT_MEDIAN_FEATURES[:10]},
    "age": REAL,
    "size": REAL,
    "topic_id": st.none() | st.integers(0, 3),
})


@st.composite
def joined_rows(draw, min_size=0):
    """Rows in drawn (unsorted) title order, over a drawn subset of the
    quadrants, so some groups are empty."""
    titles = draw(st.lists(TITLES, min_size=min_size, max_size=25, unique=True))
    quadrants = draw(st.lists(st.sampled_from(ROLES), min_size=1, max_size=4, unique=True))
    return [make_row(t, quadrant=draw(st.sampled_from(quadrants)), **draw(ROW_CELLS)) for t in titles]


def read_back(rows) -> ColumnTable:
    """`rows` written to joined.tsv in the order given, then read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "joined.tsv"
        path.write_text(joined_tsv(rows), encoding="utf-8")
        return read_joined_table(path)


def by_title(rows):
    return sorted(rows, key=lambda r: r["article"])


class TestJoin:
    def test_disjoint_keys_empty(self):
        metrics, network, content = make_inputs(["A"], ["B"], ["C"])
        joined, stats = join_features(metrics, network, content, None)
        assert len(joined) == 0 and joined.articles == ()
        assert stats.kept == 0
        assert stats.dropped == {"metrics": 1, "network": 1, "content": 1}

    def test_single_row(self):
        metrics, network, content = make_inputs(["A"], ["A"], ["A"])
        joined, stats = join_features(metrics, network, content, None)
        assert len(joined) == 1
        assert stats.kept == 1
        (row,) = table_rows(joined)
        assert (row["article"], row["in_degree"], row["revisions"]) == ("A", 1, 5)
        assert row["topic_id"] is None
        assert tuple(joined.columns) == tuple(JOINED)
        assert (joined["searchshare"].dtype, joined["total_views"].dtype) == (np.float64, np.int64)
        assert (joined["quadrant"].dtype, joined["topic_id"].dtype) == (np.int8, np.int64)
        assert row["quadrant"] == "nav-relay"

    def test_topic_carried_but_optional(self):
        metrics, network, content = make_inputs(["A", "B"], ["A", "B"], ["A", "B"])
        topics = ColumnTable(("A",), {"topic_id": np.array([3])})
        joined, _ = join_features(metrics, network, content, topics)
        assert joined["topic_id"].tolist() == [3, -1]

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
            net_hits = [n for k, n in zip(network.articles, network["in_degree"].tolist()) if k == article]
            con_hits = [c for k, c in zip(content.articles, content["revisions"].tolist()) if k == article]
            for net in net_hits:
                for con in con_hits:
                    expected.append((article, net, con))
        expected.sort()

        joined, stats = join_features(metrics, network, content, None)
        got = sorted(zip(joined.articles, joined["in_degree"].tolist(), joined["revisions"].tolist()))
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
        joined, _ = join_features(read_metrics_table(path), network, content, None)
        assert joined.articles == ("A", "B", "C")

    @given(
        st.dictionaries(TITLES, st.tuples(RATIO, RATIO, st.integers(1, 50), st.sampled_from(ROLES))),
        st.dictionaries(TITLES, st.tuples(COUNT, COUNT, COUNT, COUNT)),
        st.dictionaries(TITLES, st.tuples(*[COUNT] * 6, REAL, REAL)),
        st.none() | st.dictionaries(TITLES, COUNT),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_join(self, metrics, network, content, topics, rng):
        """Tables read from files in shuffled title order join exactly as
        the per-row join of their cells."""
        tables = {
            "metrics": (METRICS, metrics),
            "network": (NETWORK, network),
            "content": (CONTENT, content),
            "topics": (TOPIC_ASSIGNMENT, {t: (k, 0.5) for t, k in (topics or {}).items()}),
        }
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, (schema, cells) in tables.items():
                rows = [(t, *c) for t, c in cells.items()]
                rng.shuffle(rows)
                text = "".join(
                    "\t".join(map(fmt_value, row)) + "\n"
                    for row in rows
                )
                paths[name] = Path(tmp) / f"{name}.tsv"
                paths[name].write_text("\t".join(("article", *schema)) + "\n" + text, encoding="utf-8")
            joined, stats = join_features(
                read_metrics_table(paths["metrics"]),
                read_network_table(paths["network"]),
                read_content_table(paths["content"]),
                None if topics is None else read_topic_assignments(paths["topics"]),
            )
        expected, dropped = ref_join(metrics, network, content, topics)
        assert repr(table_rows(joined)) == repr(expected)
        assert (stats.kept, stats.dropped) == (len(expected), dropped)


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_mean_of_central(self):
        assert median([4, 1, 3, 2]) == 2.5

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_matches_numpy(self, values):
        assert median(values) == pytest.approx(float(np.median(values)), abs=1e-9)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_duplication_invariant(self, values):
        assert median(values) == pytest.approx(median(values * 2), abs=1e-9)

    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_matches_sorted_reference(self, values):
        # equal values keep their order, so the sign of a zero median does too
        assert repr(median(values)) == repr(ref_median(values))


class TestGroupMedians:
    def test_per_group_and_overall(self):
        rows = [
            make_row("A", quadrant="search-exit", kcore=10),
            make_row("B", quadrant="search-exit", kcore=20),
            make_row("C", quadrant="nav-relay", kcore=50),
        ]
        cell = dict(zip((*ROLES, "overall"), group_medians(make_table(rows))["kcore"]))
        assert cell["search-exit"] == 15.0
        assert cell["nav-relay"] == 50.0
        assert cell["overall"] == 20.0

    def test_empty_group_absent(self):
        rows = [make_row("A", quadrant="nav-exit")]
        cell = dict(zip((*ROLES, "overall"), group_medians(make_table(rows))["age"]))
        assert cell["search-relay"] is None
        assert cell["nav-exit"] == 1.0

    def test_duplicated_rows_leave_medians_unchanged(self):
        rng = np.random.default_rng(3)
        rows = [
            make_row(
                f"A{i}",
                quadrant=str(np.random.default_rng(i).choice(
                    ["search-exit", "search-relay", "nav-relay", "nav-exit"]
                )),
                kcore=int(rng.integers(0, 100)),
                age=float(rng.uniform(0, 20)),
            )
            for i in range(31)
        ]
        doubled = rows + [{**r, "article": r["article"] + "#2"} for r in rows]
        t1 = group_medians(make_table(rows))
        t2 = group_medians(make_table(doubled))
        assert t1 == t2

    @given(joined_rows())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_reference(self, rows):
        medians = group_medians(read_back(rows))
        assert repr(medians) == repr(ref_group_medians(by_title(rows), DEFAULT_MEDIAN_FEATURES))


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

    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_matches_sorted_reference(self, values):
        assert repr(quartiles(values)) == repr(ref_quartiles(values))


class TestBinnedQuartiles:
    def test_four_articles_two_bins(self):
        rows = [make_row(f"A{i}", kcore=i, searchshare=i / 10) for i in range(4)]
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=2)
        assert [b.count for b in summaries] == [2, 2]
        assert summaries[0].feature_low == 0.0
        assert summaries[1].feature_high == 3.0

    def test_constant_target(self):
        rows = [make_row(f"A{i}", kcore=i) for i in range(10)]
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=5)
        for b in summaries:
            assert b.q1 == b.q2 == b.q3 == 0.5

    def test_remainder_goes_to_first_bins(self):
        rows = [make_row(f"A{i}", kcore=i) for i in range(10)]
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=3)
        assert [b.count for b in summaries] == [4, 3, 3]

    def test_too_few_articles(self):
        with pytest.raises(DataError):
            binned_quartiles(make_table([make_row()]), "kcore", "searchshare", bins=2)

    def test_tie_break_by_title(self):
        # equal kcore everywhere: bin membership decided by title order
        rows = [make_row(f"A{i}", kcore=7, searchshare=i / 10) for i in range(4)]
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=2)
        assert summaries[0].q2 == pytest.approx(0.05)
        assert summaries[1].q2 == pytest.approx(0.25)

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
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=bins)
        ordered = sorted(rows, key=lambda r: (r["kcore"], r["article"]))
        base, rem = divmod(n, bins)
        start = 0
        for b in summaries:
            size = base + (1 if b.index < rem else 0)
            chunk = [r["searchshare"] for r in ordered[start : start + size]]
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
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=bins)
        counts = [b.count for b in summaries]
        assert sum(counts) == len(rows)
        assert max(counts) - min(counts) <= 1
        for b in summaries:
            assert b.q1 <= b.q2 <= b.q3
            assert b.feature_low <= b.feature_high

    @given(
        joined_rows(min_size=1),
        st.sampled_from(["age", "size", "kcore", "searchshare"]),
        st.sampled_from(["searchshare", "age", "total_views"]),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_reference(self, rows, bin_feature, target, bins):
        bins = min(bins, len(rows))
        summaries = binned_quartiles(read_back(rows), bin_feature, target, bins)
        got = [(b.index, b.count, b.feature_low, b.feature_high, b.q1, b.q2, b.q3) for b in summaries]
        assert repr(got) == repr(ref_binned_quartiles(by_title(rows), bin_feature, target, bins))


class TestTopicStatistics:
    def test_single_topic(self):
        rows = [make_row("A", topic_id=0), make_row("B", topic_id=0)]
        (stats,) = topic_statistics(make_table(rows), {0: "topic-0"})
        assert stats.article_pct == 100.0
        assert stats.view_pct == 100.0

    def test_view_split(self):
        rows = [
            make_row("A", topic_id=0, total_views=30),
            make_row("B", topic_id=1, total_views=10),
        ]
        s0, s1 = topic_statistics(make_table(rows), {0: "topic-0", 1: "topic-1"})
        assert (s0.view_pct, s1.view_pct) == (75.0, 25.0)
        assert s0.article_pct == 50.0

    def test_unassigned_outside_denominator(self):
        rows = [
            make_row("A", topic_id=0, total_views=30),
            make_row("B", topic_id=None, total_views=1000),
        ]
        (stats,) = topic_statistics(make_table(rows), {0: "topic-0"})
        assert stats.article_pct == 100.0
        assert stats.view_pct == 100.0

    def test_labels_and_medians(self):
        rows = [
            make_row("A", topic_id=2, age=4.0),
            make_row("B", topic_id=2, age=6.0),
        ]
        (stats,) = topic_statistics(make_table(rows), {2: "Sports"})
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
        stats = topic_statistics(make_table(rows), {i: f"topic-{i}" for i in range(5)})
        assert sum(s.article_pct for s in stats) == pytest.approx(100.0, abs=1e-9)
        assert sum(s.view_pct for s in stats) == pytest.approx(100.0, abs=1e-9)

    @given(joined_rows())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_reference(self, rows):
        given = {1: "Sports"}
        labels = topic_names(sorted({r["topic_id"] for r in rows if r["topic_id"] is not None}), given)
        got = topic_statistics(read_back(rows), labels)
        assert repr(got) == repr(ref_topic_statistics(by_title(rows), given))


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
        assert table.articles == ("A",)
        assert table["age"].tolist() == [5.5]
        assert table["tables"].tolist() == [2]

        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "article\tsections\tfigures\tlists\ttables\trevisions\teditors\tage\tsize\n"
            "A\t3\t1\t0\t2\t40\t7\t-1.0\t12.25\n"
        )
        with pytest.raises(DataError, match="negative"):
            read_content_table(bad)

    def test_topic_assignments(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("article\ttopic_id\tweight\nB\t0\t0.5\nA\t3\t0.9\n")
        table = read_topic_assignments(path)
        assert table.articles == ("A", "B")
        assert table["topic_id"].tolist() == [3, 0]

    def test_joined_roundtrip(self, tmp_path):
        rows = [
            make_row("A", topic_id=4, quadrant="search-exit"),
            make_row("B", topic_id=None),
        ]
        path = tmp_path / "joined.tsv"
        write_joined_table(path, make_table(rows))
        assert table_rows(read_joined_table(path)) == rows
        assert path.read_text() == joined_tsv(rows)

    def test_bin_table_format(self, tmp_path):
        rows = [make_row(f"A{i}", kcore=i, searchshare=i / 10) for i in range(4)]
        summaries = binned_quartiles(make_table(rows), "kcore", "searchshare", bins=2)
        path = tmp_path / "bins.csv"
        write_bin_table(path, "kcore", "searchshare", summaries)
        text = path.read_text().splitlines()
        assert text[0] == "# bin_feature=kcore"
        assert text[3] == "bin,count,feature_low,feature_high,q1,q2,q3"
        assert len(text) == 6


class TestFeatureValue:
    def test_lookup(self):
        # a count column is binned and summarised as float64
        (summary,) = binned_quartiles(make_table([make_row(kcore=9)]), "kcore", "kcore", bins=1)
        values = (summary.feature_low, summary.feature_high, summary.q1, summary.q2, summary.q3)
        assert [(type(v), v) for v in values] == [(float, 9.0)] * 5
