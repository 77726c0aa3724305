"""The single clickstream pass against the per-record reference.

The reference below is the straightforward form of the same rules: one
frozen record object per line, stats attributes bumped per line, the
referrer classified per record through an if-chain over its own literal
token sets (not the module's constants, so a wrong constant fails here),
and a node-id closure called per edge endpoint. The pipeline's pass must
give the same records, traffic tables, ParseStats, graphs, EdgeStats and
error texts on every drawn dump.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError
from clickroles.ingest import PUBLIC_DUMP_MIN_COUNT, ParseStats, aggregate_traffic, parse_clickstream
from clickroles.linkgraph import EdgeStats, LinkGraph, build_graph
from clickroles.tableio import MAX_COUNT, parse_count
from feature_rows import traffic_of


@dataclass(frozen=True)
class Record:
    referrer: str
    resource: str
    rawtype: str
    count: int


# the 2016-08 dump's referrer rule
SEARCH = {"other-search"}
MISSING = {"other-empty"}
EXTERNAL = {"other-external"}
INTERNAL_RAWTYPE = "link"
KNOWN_RAWTYPES = {"link", "external", "other"}
HEADER = re.compile(r"^(prev|referr?er)\b")


def reference_parse(lines, strict, stats, source=None):
    for lineno, line in enumerate(lines, start=1):
        stats.lines += 1
        if not line:
            continue
        fields = line.split("\t")
        if lineno == 1 and HEADER.match(fields[0]):
            stats.header_lines += 1
            continue
        if len(fields) != 4:
            if strict:
                raise DataError(f"{source}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
            stats.malformed += 1
            continue
        referrer, resource, rawtype, count_text = fields
        try:
            count = parse_count(count_text)
        except ValueError:
            count = -1
        if count < 0 or not resource:
            if strict:
                raise DataError(f"{source}:{lineno}: malformed record {line!r}")
            stats.malformed += 1
            continue
        if rawtype not in KNOWN_RAWTYPES:
            if strict:
                raise DataError(f"{source}:{lineno}: unknown type token {rawtype!r}")
            stats.unknown_rawtype += 1
            continue
        if count < PUBLIC_DUMP_MIN_COUNT:
            stats.below_min_count += 1
        stats.records += 1
        yield Record(referrer, resource, rawtype, count)


def reference_classify(record):
    if record.referrer in SEARCH:
        return "search-engine"
    if record.referrer in MISSING:
        return "missing"
    if record.referrer in EXTERNAL:
        return "other-external"
    if record.rawtype == INTERNAL_RAWTYPE:
        return "internal-article"
    return "other"


def reference_yielded(records):
    """The (referrer, resource, count) records parse_clickstream yields:
    referrer None for a search record, the referring article for an
    internal link, and no record of any other class."""
    for record in records:
        cls = reference_classify(record)
        if cls == "search-engine":
            yield None, record.resource, record.count
        elif cls == "internal-article":
            yield record.referrer, record.resource, record.count


def reference_aggregate(records, source=None):
    sums = defaultdict(lambda: [0, 0, 0])  # in_se, in_nav, out_nav
    for record in records:
        cls = reference_classify(record)
        if cls == "search-engine":
            sums[record.resource][0] += record.count
        elif cls == "internal-article":
            sums[record.resource][1] += record.count
            sums[record.referrer][2] += record.count
    rows = [(a, *c) for a, c in sums.items() if c[0] + c[1] > 0]
    for article, in_se, in_nav, out_nav in rows:
        if max(in_se + in_nav, out_nav) > MAX_COUNT:
            prefix = "" if source is None else f"{source}: "
            raise DataError(f"{prefix}traffic of {article!r} exceeds 2**53 views")
    return traffic_of(rows)


def reference_edges(records):
    for record in records:
        if reference_classify(record) == "internal-article":
            yield record.referrer, record.resource


def reference_build_graph(edges, stats):
    titles, index = [], {}

    def node_id(title):
        i = index.get(title)
        if i is None:
            i = index[title] = len(titles)
            titles.append(title)
        return i

    src_list, dst_list = [], []
    for source, target in edges:
        s = node_id(source)
        t = node_id(target)
        if s == t:
            stats.self_loops += 1
            continue
        src_list.append(s)
        dst_list.append(t)
    n = len(titles)
    if not src_list:
        return LinkGraph(titles, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))
    keys = np.unique(np.asarray(src_list, dtype=np.int64) * np.int64(n) + np.asarray(dst_list, dtype=np.int64))
    stats.duplicates += len(src_list) - len(keys)
    return LinkGraph(titles, (keys // n).astype(np.int32), (keys % n).astype(np.int32))


def outcome(run):
    """run()'s result, or the text of the DataError it raised."""
    try:
        return run()
    except DataError as exc:
        return f"DataError: {exc}"


def table_key(table):
    if isinstance(table, str):
        return table
    return table.articles, [(name, c.dtype, c.tolist()) for name, c in table.columns.items()]


def graph_key(graph):
    if isinstance(graph, str):
        return graph
    return (graph.titles, graph.sources.dtype, graph.targets.dtype, graph.sources.tolist(),
            graph.targets.tolist())


TOKENS = ["other-search", "other-empty", "other-external", "other-internal", "special-search", "gone"]
TITLES = ["A", "B", "C", "D", "prev", "referer"]
counts = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.sampled_from([str(MAX_COUNT), str(MAX_COUNT + 1), "0" * 20 + "17", "-5", "1_000", " 12", "x", "",
                     "٣٣", "1" * 5000]),
)
records = st.builds(
    "\t".join,
    st.tuples(
        st.sampled_from(TOKENS + TITLES),
        st.sampled_from(TITLES + [""]),
        st.sampled_from(["link", "external", "other", "weird"]),
        counts,
    ),
)
odd_lines = st.one_of(
    st.just(""),
    st.sampled_from(["prev\tcurr\ttype\tn", "referrer\tA\tlink\t20", "prev-x\tB\tlink\t12"]),
    st.builds("\t".join, st.lists(st.sampled_from(TITLES + ["link", "20"]), min_size=1, max_size=6)),
)
dumps = st.lists(st.one_of(records, records, records, odd_lines), max_size=30)


class TestAgainstReference:
    @given(lines=dumps, strict=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_tables_graphs_stats_and_errors(self, lines, strict):
        stats, expected_stats = ParseStats(), ParseStats()
        table = outcome(lambda: aggregate_traffic(parse_clickstream(lines, strict, stats, "d.tsv"), "d.tsv"))
        expected = outcome(lambda: reference_aggregate(reference_parse(lines, strict, expected_stats, "d.tsv"),
                                                       "d.tsv"))
        assert table_key(table) == table_key(expected)
        assert stats == expected_stats

        stats, expected_stats = ParseStats(), ParseStats()
        edge_stats, expected_edge_stats = EdgeStats(), EdgeStats()
        graph = outcome(lambda: build_graph(
            ((referrer, resource) for referrer, resource, _ in parse_clickstream(lines, strict, stats, "d.tsv")
             if referrer is not None), edge_stats))
        expected = outcome(lambda: reference_build_graph(
            reference_edges(reference_parse(lines, strict, expected_stats, "d.tsv")), expected_edge_stats))
        assert graph_key(graph) == graph_key(expected)
        assert (stats, edge_stats) == (expected_stats, expected_edge_stats)

    @given(lines=dumps)
    @settings(max_examples=200, deadline=None)
    def test_records_and_classes(self, lines):
        expected = list(reference_parse(lines, False, ParseStats()))
        got = list(parse_clickstream(lines, False, ParseStats(), "d.tsv"))
        assert got == list(reference_yielded(expected))
        assert all(type(record) is tuple for record in got)
        # each yielded record's class, as what it adds to the traffic table alone
        assert [table_key(outcome(lambda: aggregate_traffic([r], "d.tsv"))) for r in got] == [
            table_key(outcome(lambda: reference_aggregate([r]))) for r in expected
            if reference_classify(r) in ("search-engine", "internal-article")
        ]

    def test_stats_written_when_the_pass_is_closed_early(self):
        lines = ["prev\tcurr\ttype\tn", "other-search\tA\texternal\t5", "", "A\tB\tlink\t20", "bad"]
        stats = ParseStats()
        records = parse_clickstream(lines, False, stats, "d.tsv")
        next(records)
        records.close()
        assert stats == ParseStats(lines=2, records=1, below_min_count=1, header_lines=1)
