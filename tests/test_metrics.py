import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.metrics import (
    METRICS,
    ROLES,
    CorpusThresholds,
    assign_quadrants,
    average_ranks,
    correlations,
    corpus_thresholds,
    group_shares,
    heatmap_grid,
    histogram,
    metrics_table,
    read_metrics_table,
    write_metrics_table,
)
from clickroles.tableio import ColumnTable
from feature_rows import traffic_of


# ---------------------------------------------------------------------------
# per-row reference: the scalar formulas and binning that the columnar
# metrics replace, kept as the oracle they must match bit for bit


def reference_searchshare(in_se, in_nav, out_nav):
    return in_se / (in_se + in_nav)


def reference_resistance(in_se, in_nav, out_nav):
    raw = 1.0 - out_nav / (in_se + in_nav)
    return min(1.0, max(0.0, raw))


def reference_bin(value, bins):
    return min(int(value * bins), bins - 1)


def reference_histogram(values, weights, bins):
    out = np.zeros(bins, dtype=float)
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise DataError(f"histogram value outside [0,1]: {v!r}")
        out[reference_bin(v, bins)] += 1.0 if weights is None else weights[i]
    return out


def reference_heatmap(rows, grid_size, weighted):
    """rows: (searchshare, resistance, total_views)."""
    grid = np.zeros((grid_size, grid_size), dtype=float)
    for ss, res, views in rows:
        grid[reference_bin(res, grid_size), reference_bin(ss, grid_size)] += views if weighted else 1.0
    return grid


def reference_quadrant(ss, res, thresholds):
    above_ss = ss > thresholds.mean_searchshare
    above_res = res > thresholds.mean_resistance
    if above_ss:
        return "search-exit" if above_res else "search-relay"
    return "nav-exit" if above_res else "nav-relay"


def reference_metrics(rows):
    """rows: (article, in_se, in_nav, out_nav) -> title-ordered
    (article, searchshare, resistance, total_views, quadrant) rows and
    the thresholds."""
    kept = [r for r in sorted(rows) if r[1] + r[2] > 0]
    values = [(a, reference_searchshare(*c), reference_resistance(*c), c[0] + c[1]) for a, *c in kept]
    n = len(values)
    thresholds = CorpusThresholds(sum(v[1] for v in values) / n, sum(v[2] for v in values) / n)
    return [(*v, reference_quadrant(v[1], v[2], thresholds)) for v in values], thresholds


def reference_group_shares(rows):
    """rows: (searchshare, resistance, total_views, quadrant)."""
    articles = {label: 0 for label in ROLES}
    views = {label: 0 for label in ROLES}
    total = 0
    for _, _, v, label in rows:
        articles[label] += 1
        views[label] += v
        total += v
    return {
        label: (100.0 * articles[label] / len(rows), 100.0 * views[label] / total if total else 0.0)
        for label in ROLES
    }


def reference_average_ranks(values):
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


# ---------------------------------------------------------------------------
# table helpers


def table(*rows):
    """The traffic table of (article, in_se, in_nav, out_nav) rows."""
    return traffic_of(rows)


def one(in_se=0, in_nav=0, out_nav=0):
    """searchshare and resistance of a one-article table."""
    metrics, _ = metrics_table(table(("A", in_se, in_nav, out_nav)))
    return metrics["searchshare"][0].item(), metrics["resistance"][0].item()


def make_metrics(rows, thresholds=None):
    """Metrics table of (searchshare, resistance, total_views) rows, titled
    A0000, A0001, ..., with quadrants assigned
    at the rows' own means unless thresholds are given."""
    ss = np.array([r[0] for r in rows], dtype=float)
    res = np.array([r[1] for r in rows], dtype=float)
    views = np.array([r[2] for r in rows], dtype=np.int64)
    thresholds = thresholds or corpus_thresholds(ss, res)
    articles = tuple(f"A{i:04d}" for i in range(len(rows)))
    quadrant = assign_quadrants(ss, res, thresholds)
    return ColumnTable(articles, dict(zip(METRICS, (ss, res, views, quadrant))))


def labels(codes):
    return [ROLES[c] for c in np.asarray(codes).tolist()]


class TestSearchshare:
    def test_direct_formula(self):
        assert one(in_se=3, in_nav=1)[0] == 0.75

    def test_zero_search_boundary(self):
        assert one(in_se=0, in_nav=7)[0] == 0.0

    def test_zero_inflow_row_is_dropped(self):
        # zero inflow never gets a metric: the row is left out
        metrics, _ = metrics_table(table(("A", 0, 0, 5), ("B", 1, 0, 0)))
        assert metrics.articles == ("B",)


class TestResistance:
    def test_traffic_sink(self):
        assert one(in_se=60, in_nav=40, out_nav=0)[1] == 1.0

    def test_clamped_to_zero(self):
        assert one(in_se=60, in_nav=40, out_nav=150)[1] == 0.0

    def test_zero_inflow_row_is_dropped(self):
        metrics, _ = metrics_table(table(("A", 0, 0, 0), ("B", 2, 2, 1)))
        assert metrics.articles == ("B",)
        assert metrics["resistance"].tolist() == [0.75]


counts = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**7),
).filter(lambda c: c[0] + c[1] > 0)


class TestMetricProperties:
    @given(c=counts)
    def test_ranges_and_total(self, c):
        metrics, _ = metrics_table(table(("A", *c)))
        assert 0.0 <= metrics["searchshare"][0] <= 1.0
        assert 0.0 <= metrics["resistance"][0] <= 1.0
        assert metrics["total_views"].tolist() == [c[0] + c[1]]

    @given(c=counts)
    def test_share_complement(self, c):
        ss, _ = one(*c)
        nav_share = c[1] / (c[0] + c[1])
        assert math.isclose(ss + nav_share, 1.0, abs_tol=1e-15)

    @given(c=counts, factor=st.integers(min_value=1, max_value=1000))
    def test_scale_invariance(self, c, factor):
        assert one(*(v * factor for v in c)) == one(*c)


class TestThresholds:
    def test_two_article_mean(self):
        t = corpus_thresholds(np.array([0.2, 0.8]), np.array([0.5, 0.7]))
        assert t.mean_searchshare == pytest.approx(0.5)
        assert t.mean_resistance == pytest.approx(0.6)

    def test_single_article_identity(self):
        t = corpus_thresholds(np.array([0.3]), np.array([0.9]))
        assert t.mean_searchshare == 0.3 and t.mean_resistance == 0.9

    def test_sequential_sum(self):
        # np.sum adds pairwise; the means are left-to-right sums
        values = np.array([1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16] * 3)
        t = corpus_thresholds(values, values)
        assert t.mean_searchshare == sum(values.tolist()) / len(values)


class TestQuadrants:
    thresholds = CorpusThresholds(0.66, 0.88)

    def quadrant(self, ss, res):
        (label,) = labels(assign_quadrants(np.array([ss]), np.array([res]), self.thresholds))
        return label

    def test_search_relay(self):
        assert self.quadrant(0.9, 0.2) == "search-relay"

    def test_boundary_is_at_or_below(self):
        assert self.quadrant(0.66, 0.88) == "nav-relay"

    @pytest.mark.parametrize(
        "ss,res,expected",
        [
            (0.9, 0.95, "search-exit"),
            (0.9, 0.88, "search-relay"),
            (0.5, 0.95, "nav-exit"),
            (0.5, 0.5, "nav-relay"),
        ],
    )
    def test_all_four_cells(self, ss, res, expected):
        assert self.quadrant(ss, res) == expected

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0, max_value=1),
                st.integers(min_value=1, max_value=10**6),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_partition_and_share_sums(self, rows):
        metrics = make_metrics(rows)
        shares = group_shares(metrics)
        assert sum(pct for pct, _ in shares.values()) == pytest.approx(100.0, abs=0.1)
        assert sum(pct for _, pct in shares.values()) == pytest.approx(100.0, abs=0.1)
        assert len(metrics["quadrant"]) == len(rows)
        assert set(labels(metrics["quadrant"])) <= set(ROLES)


class TestHistogram:
    def test_two_bins(self):
        assert histogram([0.1, 0.9], None, 2).tolist() == [1.0, 1.0]

    def test_weighted(self):
        assert histogram([0.1, 0.9], [10, 30], 2).tolist() == [10.0, 30.0]

    def test_last_bin_right_closed(self):
        assert histogram([1.0], None, 4).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_out_of_range_rejected(self):
        for value in (1.5, -0.25, math.nan):
            with pytest.raises(DataError):
                histogram([value], None, 2)

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0, max_value=100),
            ),
            max_size=100,
        ),
        bins=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50)
    def test_weighted_mass_conservation(self, pairs, bins):
        values = [v for v, _ in pairs]
        weights = [w for _, w in pairs]
        binned = histogram(values, weights=weights, bins=bins)
        # independent check: direct summation of the raw weights
        assert binned.sum() == pytest.approx(sum(weights), rel=1e-12, abs=1e-9)


def naive_grid(rows, grid_size, weighted):
    """Per-article re-binning oracle: linear scan over bin edges."""
    edges = [b / grid_size for b in range(grid_size + 1)]

    def locate(value):
        for b in range(grid_size):
            if value < edges[b + 1]:
                return b
        return grid_size - 1

    grid = np.zeros((grid_size, grid_size))
    for ss, res, views in rows:
        grid[locate(res), locate(ss)] += views if weighted else 1
    return grid


def grid_of(rows, grid_size, weighted=False):
    metrics = make_metrics(rows)
    weights = metrics["total_views"] if weighted else None
    return heatmap_grid(metrics["resistance"], metrics["searchshare"], weights, grid_size)


class TestHeatmap:
    def test_corner_cell(self):
        grid = grid_of([(1.0, 1.0, 7)], grid_size=10)
        assert grid[9, 9] == 1.0 and grid.sum() == 1.0

    def test_conservation(self):
        rows = [(i / 10, (10 - i) / 10, i + 1) for i in range(10)]
        assert grid_of(rows, 5).sum() == len(rows)
        assert grid_of(rows, 5, weighted=True).sum() == sum(v for _, _, v in rows)

    def test_matches_rebinning_oracle(self):
        rng = np.random.default_rng(7)
        rows = [(float(rng.random()), float(rng.random()), int(rng.integers(1, 100))) for _ in range(1000)]
        for weighted in (False, True):
            got = grid_of(rows, grid_size=13, weighted=weighted)
            assert np.array_equal(got, naive_grid(rows, 13, weighted))


class TestCorrelations:
    def test_perfectly_aligned(self):
        out = correlations(make_metrics([(i / 10, i / 10, 1) for i in range(10)]))
        assert out["pearson"] == pytest.approx(1.0)
        assert out["spearman"] == pytest.approx(1.0)

    def test_monotone_but_nonlinear_spearman(self):
        # spearman sees through any strictly monotone warp; pearson does not
        out = correlations(make_metrics([(i / 20, (i / 20) ** 8, 1) for i in range(1, 20)]))
        assert out["spearman"] == pytest.approx(1.0)
        assert out["pearson"] < 1.0

    @pytest.mark.parametrize("rows", [
        [(1.0, 1.0, 10), (1.0, 1.0, 20)],  # pure search inflow: both columns constant
        [(0.2, 1.0, 10), (0.7, 1.0, 20), (0.9, 1.0, 5)],  # resistance alone constant
    ])
    def test_constant_column_is_nan_without_a_warning(self, rows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = correlations(make_metrics(rows))
        assert [str(w.message) for w in caught] == []
        assert math.isnan(out["pearson"]) and math.isnan(out["spearman"])

    def test_average_ranks_ties(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf, -math.inf]),
                st.floats(allow_nan=True),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_average_ranks_equal_loop(self, values):
        got = average_ranks(values)
        want = reference_average_ranks(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTableRoundtrip:
    def test_metrics_table_sorted_and_filtered(self):
        metrics, _ = metrics_table(table(("B", 3, 1, 2), ("A", 0, 10, 0), ("Z", 0, 0, 9)))
        assert metrics.articles == ("A", "B")
        assert metrics["searchshare"][1] == 0.75

    def test_write_read_roundtrip(self, tmp_path):
        metrics = make_metrics([(0.75, 0.5, 4), (0.0, 1.0, 10)])
        path = tmp_path / "metrics.tsv"
        write_metrics_table(path, metrics)
        loaded = read_metrics_table(path)
        assert loaded.articles == metrics.articles
        assert list(loaded.columns) == list(METRICS)
        for name, want in metrics.columns.items():
            got = loaded[name]
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_read_sorts_by_title(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        path.write_text(
            "article\tsearchshare\tresistance\ttotal_views\tquadrant\n"
            "B\t0.5\t0.5\t3\tnav-exit\nA\t0.25\t1.0\t4\tsearch-exit\n"
        )
        loaded = read_metrics_table(path)
        assert loaded.articles == ("A", "B")
        assert loaded["total_views"].tolist() == [4, 3]
        assert labels(loaded["quadrant"]) == ["search-exit", "nav-exit"]


# ---------------------------------------------------------------------------
# the columnar metrics equal the per-row reference exactly

# counts that put searchshare and resistance exactly on bin edges k/bins,
# at 0 and 1, and resistance below zero (clamped)
edge_counts = st.one_of(
    st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 300)),
    st.tuples(st.integers(0, 2**52), st.integers(0, 2**52), st.integers(0, 2**53)),
    st.tuples(st.sampled_from([0, 1, 2, 5, 10, 25, 50]), st.sampled_from([0, 50, 100]), st.sampled_from([0, 25, 50, 100, 150, 400])),
)
traffic_rows = st.lists(edge_counts, min_size=1, max_size=60).map(
    lambda cs: [(f"T{i:03d}", *c) for i, c in enumerate(cs)]
).filter(lambda rows: any(r[1] + r[2] > 0 for r in rows))


class TestColumnarEqualsReference:
    @given(rows=traffic_rows)
    @settings(max_examples=200)
    def test_metrics_and_thresholds(self, rows):
        metrics, thresholds = metrics_table(table(*reversed(rows)))
        want, want_thresholds = reference_metrics(rows)
        assert thresholds == want_thresholds
        assert metrics.articles == tuple(w[0] for w in want)
        assert metrics["searchshare"].tolist() == [w[1] for w in want]
        assert metrics["resistance"].tolist() == [w[2] for w in want]
        assert metrics["total_views"].tolist() == [w[3] for w in want]
        assert labels(metrics["quadrant"]) == [w[4] for w in want]
        assert group_shares(metrics) == reference_group_shares([w[1:] for w in want])

    @given(rows=traffic_rows, bins=st.sampled_from([1, 2, 3, 4, 5, 10, 50, 100]))
    @settings(max_examples=200)
    def test_histograms_and_heatmaps(self, rows, bins):
        metrics, _ = metrics_table(table(*rows))
        views = metrics["total_views"].tolist()
        for column in (metrics["searchshare"], metrics["resistance"]):
            values = column.tolist()
            assert np.array_equal(histogram(column, None, bins), reference_histogram(values, None, bins))
            got = histogram(column, metrics["total_views"], bins)
            assert np.array_equal(got, reference_histogram(values, [float(v) for v in views], bins))
        triples = list(zip(metrics["searchshare"].tolist(), metrics["resistance"].tolist(), views))
        for weights, weighted in ((None, False), (metrics["total_views"], True)):
            got = heatmap_grid(metrics["resistance"], metrics["searchshare"], weights, bins)
            assert np.array_equal(got, reference_heatmap(triples, bins, weighted))

    @given(
        ss=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_quadrants_at_the_means(self, ss, data):
        # values on a coarse grid land exactly on the means often
        res = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(ss), max_size=len(ss)))
        thresholds = corpus_thresholds(np.array(ss), np.array(res))
        got = labels(assign_quadrants(np.array(ss), np.array(res), thresholds))
        assert got == [reference_quadrant(s, r, thresholds) for s, r in zip(ss, res)]

    @pytest.mark.parametrize("bins", [1, 3, 7, 10, 49, 50, 100])
    def test_every_bin_edge(self, bins):
        values = [k / bins for k in range(bins + 1)] + [math.nextafter(k / bins, 0.0) for k in range(1, bins + 1)]
        assert np.array_equal(histogram(values, None, bins), reference_histogram(values, None, bins))
