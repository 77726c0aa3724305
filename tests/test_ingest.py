import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.ingest import (
    AggregateConfig,
    ArticleTraffic,
    ParseStats,
    ParserConfig,
    ReferrerClass,
    ReferrerConfig,
    TransitionRecord,
    aggregate_traffic,
    classify_referrer,
    parse_clickstream,
    read_traffic_file,
    read_traffic_table,
    write_traffic_table,
)


def parse_all(lines, config=None, stats=None):
    return list(parse_clickstream(lines, config, stats))


class TestParse:
    def test_well_formed_line(self):
        recs = parse_all(["other-search\tRio_de_Janeiro\texternal\t1000"])
        assert recs == [TransitionRecord("other-search", "Rio_de_Janeiro", "external", 1000)]

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
        with pytest.raises(DataError, match="line 2"):
            parse_all(lines, ParserConfig(strict=True))

    @pytest.mark.parametrize(
        "count",
        ["-5", "3.5", "ten", "", "1_000", "+12", " 12 ", "12\r", "\u0663\u0663", "\uff11\uff12", "1" * 5000],
    )
    def test_bad_count_always_malformed(self, count):
        stats = ParseStats()
        assert parse_all([f"a\tb\tlink\t{count}"], stats=stats) == []
        assert stats.malformed == 1
        with pytest.raises(DataError):
            parse_all([f"a\tb\tlink\t{count}"], ParserConfig(strict=True))

    def test_empty_resource_malformed(self):
        stats = ParseStats()
        assert parse_all(["a\t\tlink\t20"], stats=stats) == []
        assert stats.malformed == 1

    def test_below_dump_floor_kept_but_counted(self):
        stats = ParseStats()
        recs = parse_all(["a\tb\tlink\t3"], stats=stats)
        assert len(recs) == 1
        assert stats.below_min_count == 1

    def test_unknown_rawtype_skipped_lenient_aborts_strict(self):
        stats = ParseStats()
        assert parse_all(["a\tb\tweird\t30"], stats=stats) == []
        assert stats.unknown_rawtype == 1 and stats.malformed == 0
        with pytest.raises(DataError, match="line 1"):
            parse_all(["a\tb\tweird\t30"], ParserConfig(strict=True))

    def test_header_line_tolerated_once(self):
        stats = ParseStats()
        recs = parse_all(["prev\tcurr\ttype\tn", "a\tb\tlink\t20"], stats=stats)
        assert len(recs) == 1
        assert stats.header_lines == 1 and stats.malformed == 0

    def test_input_order_preserved(self):
        lines = [f"other-search\tA{i}\texternal\t{10 + i}" for i in range(5)]
        recs = parse_all(lines)
        assert [r.resource for r in recs] == [f"A{i}" for i in range(5)]


class TestClassify:
    @pytest.mark.parametrize(
        "referrer,rawtype,expected",
        [
            ("other-search", "external", ReferrerClass.SEARCH_ENGINE),
            ("Hanging_Gardens_of_Babylon", "link", ReferrerClass.INTERNAL_ARTICLE),
            ("other-empty", "other", ReferrerClass.MISSING),
            ("other-external", "external", ReferrerClass.OTHER_EXTERNAL),
            ("other-internal", "other", ReferrerClass.OTHER),
            ("other-other", "other", ReferrerClass.OTHER),
        ],
    )
    def test_default_mapping(self, referrer, rawtype, expected):
        record = TransitionRecord(referrer, "X", rawtype, 10)
        assert classify_referrer(record) is expected

    def test_reserved_token_beats_rawtype(self):
        record = TransitionRecord("other-search", "X", "link", 10)
        assert classify_referrer(record) is ReferrerClass.SEARCH_ENGINE

    def test_config_override(self):
        config = ReferrerConfig(search_tokens=frozenset({"special-search"}))
        record = TransitionRecord("special-search", "X", "external", 10)
        assert classify_referrer(record, config) is ReferrerClass.SEARCH_ENGINE
        assert classify_referrer(TransitionRecord("other-search", "X", "external", 10), config) is ReferrerClass.OTHER


class TestAggregate:
    def test_update_rules(self):
        records = [
            TransitionRecord("other-search", "A", "external", 30),
            TransitionRecord("A", "B", "link", 10),
        ]
        table = aggregate_traffic(records)
        assert table["A"].in_se == 30 and table["A"].in_nav == 0 and table["A"].out_nav == 10
        assert table["A"].total_views == 30
        assert table["B"].in_nav == 10 and table["B"].total_views == 10

    def test_all_missing_gives_empty_map(self):
        records = [TransitionRecord("other-empty", "A", "other", 50)]
        assert aggregate_traffic(records) == {}

    def test_referrer_only_article_dropped_by_default(self):
        records = [TransitionRecord("R", "B", "link", 5)]
        table = aggregate_traffic(records)
        assert "R" not in table and table["B"].in_nav == 5

    def test_referrer_only_article_kept_with_flag(self):
        records = [TransitionRecord("R", "B", "link", 5)]
        table = aggregate_traffic(records, AggregateConfig(keep_referrer_only=True))
        assert table["R"].out_nav == 5 and table["R"].total_views == 0

    def test_other_external_contributes_nothing(self):
        records = [TransitionRecord("other-external", "A", "external", 40)]
        assert aggregate_traffic(records) == {}


records_strategy = st.lists(
    st.builds(
        TransitionRecord,
        referrer=st.sampled_from(["other-search", "other-empty", "other-external", "A", "B", "C", "D"]),
        resource=st.sampled_from(["A", "B", "C", "D", "E"]),
        rawtype=st.sampled_from(["link", "external", "other"]),
        count=st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


class TestAggregateProperties:
    @given(records=records_strategy, seed=st.randoms())
    @settings(max_examples=60)
    def test_order_independence(self, records, seed):
        shuffled = list(records)
        seed.shuffle(shuffled)
        assert aggregate_traffic(records) == aggregate_traffic(shuffled)

    @given(records=records_strategy)
    @settings(max_examples=60)
    def test_conservation_with_referrers_kept(self, records):
        table = aggregate_traffic(records, AggregateConfig(keep_referrer_only=True))
        assert sum(t.in_nav for t in table.values()) == sum(t.out_nav for t in table.values())

    @given(records=records_strategy, extra=records_strategy)
    @settings(max_examples=40)
    def test_monotonicity(self, records, extra):
        config = AggregateConfig(keep_referrer_only=True)
        before = aggregate_traffic(records, config)
        after = aggregate_traffic(records + extra, config)
        for article, t in before.items():
            grown = after[article]
            assert grown.in_se >= t.in_se
            assert grown.in_nav >= t.in_nav
            assert grown.out_nav >= t.out_nav


class TestStreaming:
    def lines(self):
        return [
            "other-search\tA\texternal\t30",
            "A\tB\tlink\t10",
            "other-empty\tA\tother\t99",
            "B\tC\tlink\t12",
        ]

    def test_fusion_equals_two_phase(self):
        streamed = aggregate_traffic(parse_clickstream(iter(self.lines())))
        materialized = aggregate_traffic(parse_all(self.lines()))
        assert streamed == materialized

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "clicks.tsv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(self.lines()) + "\n")
        table = read_traffic_file(path)
        assert table["A"].in_se == 30

    def test_traffic_table_roundtrip(self, tmp_path):
        table = aggregate_traffic(parse_all(self.lines()), AggregateConfig(keep_referrer_only=True))
        path = tmp_path / "traffic.tsv"
        write_traffic_table(path, table)
        assert read_traffic_table(path) == table

    def test_duplicate_article_rejected_on_read(self, tmp_path):
        path = tmp_path / "traffic.tsv"
        path.write_text(
            "article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t1\t0\t0\t1\nA\t2\t0\t0\t2\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            read_traffic_table(path)
