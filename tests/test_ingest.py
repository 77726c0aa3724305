import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.ingest import (
    ParseStats,
    TRAFFIC,
    aggregate_traffic,
    parse_clickstream,
    read_traffic_file,
    read_traffic_table,
    write_traffic_table,
)
from clickroles.tableio import MAX_COUNT

DUMP = "dump.tsv"  # the source file the parser's errors name


def parse_all(lines, strict=False, stats=None):
    return list(parse_clickstream(lines, strict, ParseStats() if stats is None else stats, DUMP))


def parsed(records, stats=None):
    """parse_clickstream's records of the dump lines of (referrer,
    resource, rawtype, count) tuples."""
    lines = ("\t".join(map(str, record)) for record in records)
    return parse_clickstream(lines, False, ParseStats() if stats is None else stats, DUMP)


def rows(table):
    """article -> (in_se, in_nav, out_nav, total_views) of a traffic table."""
    return dict(zip(table.articles, zip(*(table[name].tolist() for name in TRAFFIC))))


def assert_well_formed(table):
    """Titles ascending and unique, the TRAFFIC schema columns in order,
    each int64 and row-aligned, and total_views = in_se + in_nav."""
    assert list(table.articles) == sorted(set(table.articles))
    assert list(table.columns) == list(TRAFFIC)
    for column in table.columns.values():
        assert column.dtype == np.int64 and column.shape == (len(table),)
    assert (table["total_views"] == table["in_se"] + table["in_nav"]).all()


class TestParse:
    def test_well_formed_line(self):
        recs = parse_all(["other-search\tRio_de_Janeiro\texternal\t1000"])
        assert recs == [(None, "Rio_de_Janeiro", 1000)]

    def test_three_fields_skipped_lenient(self):
        stats = ParseStats()
        recs = parse_all(["a\tb\t7"], stats=stats)
        assert recs == []
        assert stats.malformed == 1

    def test_empty_input(self):
        stats = ParseStats()
        assert parse_all([], stats=stats) == []
        assert stats.lines == 0 and stats.records == 0 and stats.malformed == 0

    def test_strict_aborts_with_line_number(self):
        lines = ["a\tb\tlink\t20", "bad line"]
        with pytest.raises(DataError, match="^dump.tsv:2: "):
            parse_all(lines, strict=True)

    @pytest.mark.parametrize(
        "count",
        ["-5", "3.5", "ten", "", "1_000", "+12", " 12 ", "12\r", "\u0663\u0663", "\uff11\uff12", "1" * 5000,
         str(2**53 + 1)],
    )
    def test_bad_count_always_malformed(self, count):
        stats = ParseStats()
        assert parse_all([f"a\tb\tlink\t{count}"], stats=stats) == []
        assert stats.malformed == 1
        with pytest.raises(DataError):
            parse_all([f"a\tb\tlink\t{count}"], strict=True)

    def test_count_bound_is_inclusive(self):
        recs = parse_all([f"a\tb\tlink\t{MAX_COUNT}", f"a\tb\tlink\t{'0' * 20}{MAX_COUNT}"])
        assert [count for *_, count in recs] == [2**53, 2**53]

    def test_empty_resource_malformed(self):
        stats = ParseStats()
        assert parse_all(["a\t\tlink\t20"], stats=stats) == []
        assert stats.malformed == 1

    def test_empty_referrer_malformed(self):
        stats = ParseStats()
        assert parse_all(["\tb\tlink\t20"], stats=stats) == []
        assert stats.malformed == 1 and stats.records == 0
        with pytest.raises(DataError, match=r"^dump.tsv:1: malformed record '\\tb\\tlink\\t20'$"):
            parse_all(["\tb\tlink\t20"], strict=True)

    def test_below_dump_floor_kept_but_counted(self):
        stats = ParseStats()
        recs = parse_all(["a\tb\tlink\t3"], stats=stats)
        assert len(recs) == 1
        assert stats.below_min_count == 1

    def test_unknown_rawtype_skipped_lenient_aborts_strict(self):
        stats = ParseStats()
        assert parse_all(["a\tb\tweird\t30"], stats=stats) == []
        assert stats.unknown_rawtype == 1 and stats.malformed == 0
        with pytest.raises(DataError, match="^dump.tsv:1: "):
            parse_all(["a\tb\tweird\t30"], strict=True)

    def test_header_line_tolerated_once(self):
        stats = ParseStats()
        recs = parse_all(["prev\tcurr\ttype\tn", "a\tb\tlink\t20"], stats=stats)
        assert len(recs) == 1
        assert stats.header_lines == 1 and stats.malformed == 0

    def test_input_order_preserved(self):
        lines = [f"other-search\tA{i}\texternal\t{10 + i}" for i in range(5)]
        recs = parse_all(lines)
        assert [resource for _, resource, _ in recs] == [f"A{i}" for i in range(5)]


class TestClassify:
    """The referrer rule, seen in the record the parser yields for one
    line and in what that line adds to the table."""

    @pytest.mark.parametrize(
        "referrer,rawtype,role",
        [
            ("other-search", "external", "search"),
            ("Hanging_Gardens_of_Babylon", "link", "navigation"),
            ("other-empty", "other", "none"),
            ("other-external", "external", "none"),
            ("other-internal", "other", "none"),
            ("other-other", "other", "none"),
            ("Hanging_Gardens_of_Babylon", "external", "none"),
            ("Hanging_Gardens_of_Babylon", "other", "none"),
        ],
    )
    def test_referrer_rule(self, referrer, rawtype, role):
        expected = {
            "search": {"X": (10, 0, 0, 10)},
            "navigation": {"X": (0, 10, 0, 10)},
            "none": {},
        }[role]
        assert rows(aggregate_traffic(parsed([(referrer, "X", rawtype, 10)]), DUMP)) == expected
        stats = ParseStats()
        yielded = {"search": [(None, "X", 10)], "navigation": [(referrer, "X", 10)], "none": []}[role]
        assert list(parsed([(referrer, "X", rawtype, 10)], stats)) == yielded
        # checked and counted, yielded or not; a record not yielded is unused
        assert stats == ParseStats(lines=1, records=1, unused=int(role == "none"))

    def test_reserved_token_beats_rawtype(self):
        assert rows(aggregate_traffic(parsed([("other-search", "X", "link", 10)]), DUMP)) == {"X": (10, 0, 0, 10)}
        for token in ("other-empty", "other-external"):
            assert rows(aggregate_traffic(parsed([(token, "X", "link", 10)]), DUMP)) == {}


class TestAggregate:
    def test_update_rules(self):
        records = [
            ("other-search", "A", "external", 30),
            ("A", "B", "link", 10),
        ]
        table = aggregate_traffic(parsed(records), DUMP)
        assert rows(table) == {"A": (30, 0, 10, 30), "B": (0, 10, 0, 10)}
        assert_well_formed(table)

    def test_all_missing_gives_empty_map(self):
        records = [("other-empty", "A", "other", 50)]
        table = aggregate_traffic(parsed(records), DUMP)
        assert len(table) == 0
        assert_well_formed(table)

    def test_referrer_only_article_dropped_by_default(self):
        records = [("R", "B", "link", 5)]
        table = aggregate_traffic(parsed(records), DUMP)
        assert rows(table) == {"B": (0, 5, 0, 5)}

    def test_other_external_contributes_nothing(self):
        records = [("other-external", "A", "external", 40)]
        assert len(aggregate_traffic(parsed(records), DUMP)) == 0

    def test_sum_above_bound_names_source(self):
        records = [
            ("other-search", "A", "external", MAX_COUNT),
            ("B", "A", "link", 1),
        ]
        with pytest.raises(DataError, match="^dump.tsv: .*'A'"):
            aggregate_traffic(parsed(records), DUMP)
        # outflow is bounded too, on an article with little inflow
        records = [("other-search", "R", "external", 1), ("R", "B", "link", MAX_COUNT), ("R", "C", "link", 1)]
        with pytest.raises(DataError, match="^dump.tsv: .*'R'"):
            aggregate_traffic(parsed(records), DUMP)
        records = [("other-search", "A", "external", MAX_COUNT)]
        assert rows(aggregate_traffic(parsed(records), DUMP))["A"] == (MAX_COUNT, 0, 0, MAX_COUNT)


records_strategy = st.lists(
    st.tuples(
        st.sampled_from(["other-search", "other-empty", "other-external", "A", "B", "C", "D"]),
        st.sampled_from(["A", "B", "C", "D", "E"]),
        st.sampled_from(["link", "external", "other"]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


class TestAggregateProperties:
    @given(records=records_strategy, seed=st.randoms())
    @settings(max_examples=60)
    def test_order_independence(self, records, seed):
        shuffled = list(records)
        seed.shuffle(shuffled)
        assert rows(aggregate_traffic(parsed(records), DUMP)) == rows(aggregate_traffic(parsed(shuffled), DUMP))

    @given(records=records_strategy, extra=records_strategy)
    @settings(max_examples=40)
    def test_monotonicity(self, records, extra):
        before = rows(aggregate_traffic(parsed(records), DUMP))
        after = rows(aggregate_traffic(parsed(records + extra), DUMP))
        for article, counts in before.items():
            assert all(grown >= was for grown, was in zip(after[article], counts))


class TestStreaming:
    def lines(self):
        return [
            "other-search\tA\texternal\t30",
            "A\tB\tlink\t10",
            "other-empty\tA\tother\t99",
            "B\tC\tlink\t12",
        ]

    def test_fusion_equals_two_phase(self):
        streamed = aggregate_traffic(parse_clickstream(iter(self.lines()), False, ParseStats(), DUMP), DUMP)
        materialized = aggregate_traffic(parse_all(self.lines()), DUMP)
        assert rows(streamed) == rows(materialized)

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "clicks.tsv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(self.lines()) + "\n")
        table = read_traffic_file(path, False, ParseStats())
        assert rows(table)["A"] == (30, 0, 10, 30)

    def test_traffic_table_roundtrip(self, tmp_path):
        table = aggregate_traffic(parse_all(self.lines()), DUMP)
        path = tmp_path / "traffic.tsv"
        write_traffic_table(path, table)
        back = read_traffic_table(path)
        assert back.articles == table.articles and rows(back) == rows(table)

    def test_duplicate_article_rejected_on_read(self, tmp_path):
        path = tmp_path / "traffic.tsv"
        path.write_text(
            "article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t1\t0\t0\t1\nA\t2\t0\t0\t2\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            read_traffic_table(path)

    def test_read_sorts_by_title(self, tmp_path):
        path = tmp_path / "traffic.tsv"
        path.write_text("article\tin_se\tin_nav\tout_nav\ttotal_views\nB\t1\t0\t0\t1\nA\t2\t3\t4\t5\n")
        table = read_traffic_table(path)
        assert rows(table) == {"A": (2, 3, 4, 5), "B": (1, 0, 0, 1)}
        assert_well_formed(table)

    @pytest.mark.parametrize("cells", ["1_000\t0\t0\t1000", " 5 \t0\t0\t5", f"{2**53 + 1}\t0\t0\t{2**53 + 1}",
                                       "3\t2\t0\t6"], ids=["underscore", "spaced", "above 2**53", "inconsistent total"])
    def test_bad_counts_rejected_on_read(self, tmp_path, cells):
        path = tmp_path / "traffic.tsv"
        path.write_text(f"article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t1\t0\t0\t1\nB\t{cells}\n")
        with pytest.raises(DataError, match=f"^{path}:3: "):
            read_traffic_table(path)


titles = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                 min_size=1, max_size=6)
dump_lines = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(["other-search", "other-empty", "other-external"]), titles),
        titles,
        st.sampled_from(["link", "external", "other"]),
        st.integers(min_value=0, max_value=2**40),
    ),
    max_size=40,
)


class TestRoundTrip:
    @given(lines=dump_lines)
    @settings(max_examples=150, deadline=None)
    def test_parse_aggregate_write_read(self, tmp_path_factory, lines):
        # a real header first, so no later line is taken for one
        text = ["prev\tcurr\ttype\tn"] + [f"{r}\t{a}\t{t}\t{c}" for r, a, t, c in lines]
        table = aggregate_traffic(parse_clickstream(text, False, ParseStats(), DUMP), DUMP)
        assert_well_formed(table)
        path = tmp_path_factory.mktemp("roundtrip") / "traffic.tsv"
        write_traffic_table(path, table)
        back = read_traffic_table(path)
        assert_well_formed(back)
        assert back.articles == table.articles
        for name in TRAFFIC:
            assert back[name].tolist() == table[name].tolist()
        # and against a per-record Python sum
        expected = {}
        for referrer, article, rawtype, count in lines:
            if referrer == "other-search":
                expected.setdefault(article, [0, 0, 0])[0] += count
            elif referrer not in ("other-empty", "other-external") and rawtype == "link":
                expected.setdefault(article, [0, 0, 0])[1] += count
                expected.setdefault(referrer, [0, 0, 0])[2] += count
        expected = {a: (*c, c[0] + c[1]) for a, c in expected.items() if c[0] + c[1] > 0}
        assert rows(back) == expected
