"""Clickstream ingestion: parse, classify, and aggregate transition dumps.

The input is the public aggregated transition log: tab-separated lines of
``referrer<TAB>resource<TAB>type<TAB>count``, where the referrer is either
another article title or a reserved token (``other-search``,
``other-empty``, ...). Aggregation produces the traffic table, a
``tableio.ColumnTable``: the article titles, ascending and unique, and
the int64 count columns of the TRAFFIC schema aligned with them: the
search inflow, navigation inflow and navigation outflow of each, and
total_views. total_views is definitionally in_se + in_nav: only views
arriving by search or internal navigation count as page accesses here.

The referrer rule is fixed by the 2016-08 dump and lives here alone: a
referrer in SEARCH_TOKENS (``other-search``) is a search engine, the
other RESERVED_TOKENS (``other-empty``, ``other-external``) carry no
in-counts, and any other referrer is an internal article if the raw
type is INTERNAL_RAWTYPE (``link``), else it carries no in-counts.

A dump is read in one streaming pass, shared by ``ingest`` and
``graph --clickstream``: parse_clickstream classifies each record by set
lookups in those constants and yields plain ``(referrer, resource,
count)`` tuples of search records (referrer None) and internal links
only, so no Python function is called per record and memory grows with
the number of articles, not with the number of lines.

Counts are summed as plain Python ints, a commutative integer sum, so
the result is independent of record order; the columns are built once
at the end. Every count and every per-article sum is at most 2**53
(``tableio.MAX_COUNT``), so each converts to float64 exactly: a larger
dump count is a malformed line, a larger sum a DataError naming the
file.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError
from .tableio import COUNT, MAX_COUNT, ColumnTable, column_table, iter_lines, read_columns, write_columns

TRAFFIC = dict.fromkeys(("in_se", "in_nav", "out_nav", "total_views"), COUNT)

# Pair-count floor of the compliant public dump (pairs occurring fewer
# times are withheld at the source). Records below it are flagged, not
# dropped.
PUBLIC_DUMP_MIN_COUNT = 10

# The referrer rule of the 2016-08 release (see the module docstring).
SEARCH_TOKENS = frozenset({"other-search"})
RESERVED_TOKENS = SEARCH_TOKENS | {"other-empty", "other-external"}
INTERNAL_RAWTYPE = "link"
KNOWN_RAWTYPES = frozenset({INTERNAL_RAWTYPE, "external", "other"})
# One leading header line matching this pattern is tolerated.
HEADER_PATTERN = re.compile(r"^(prev|referr?er)\b")


@dataclass
class ParseStats:
    """Counters maintained while parsing."""

    lines: int = 0
    records: int = 0
    malformed: int = 0
    unknown_rawtype: int = 0
    below_min_count: int = 0
    header_lines: int = 0


def parse_clickstream(
    lines: Iterable[str],
    strict: bool,
    stats: ParseStats,
    source: str | Path,
) -> Iterator[tuple[str | None, str, int]]:
    """Yield one plain ``(referrer, resource, count)`` tuple per
    well-formed search or internal-link line, in order, by the module's
    referrer rule: the referrer is None for a search record and the
    referring article for an internal link. A well-formed record of
    neither kind is counted but not yielded.

    Malformed lines (wrong field count, empty resource, or a count that
    is not ASCII digits only or exceeds MAX_COUNT) abort in strict mode
    as ``path:N``, the `source` file and the 1-based line number, and are
    tallied and skipped in lenient mode. A raw type
    outside KNOWN_RAWTYPES (``link``, ``external``, ``other``) is treated
    the same way, under its own counter. One leading line matching
    HEADER_PATTERN is skipped as a header.
    Records with counts below the public dump floor are kept but counted.
    The counters are added to `stats` when the pass ends, however it
    ends: exhausted, closed early or aborted.
    """
    is_header = HEADER_PATTERN.match
    known_rawtypes = KNOWN_RAWTYPES
    search_tokens = SEARCH_TOKENS
    reserved_tokens = RESERVED_TOKENS
    internal_rawtype = INTERNAL_RAWTYPE
    lineno = records = malformed = unknown_rawtype = below_min_count = header_lines = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            fields = line.split("\t")
            if lineno == 1 and line and is_header(fields[0]):
                header_lines += 1
                continue
            if len(fields) != 4:
                if not line:
                    continue
                if strict:
                    raise DataError(f"{source}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
                malformed += 1
                continue
            referrer, resource, rawtype, count_text = fields
            # tableio.parse_count's rule, inline: ASCII digits, at most
            # MAX_COUNT (int() fails past sys.get_int_max_str_digits())
            try:
                count = int(count_text) if count_text.isascii() and count_text.isdigit() else -1
            except ValueError:
                count = -1
            if count < 0 or count > MAX_COUNT or not resource:
                if strict:
                    raise DataError(f"{source}:{lineno}: malformed record {line!r}")
                malformed += 1
                continue
            if rawtype not in known_rawtypes:
                if strict:
                    raise DataError(f"{source}:{lineno}: unknown type token {rawtype!r}")
                unknown_rawtype += 1
                continue
            if count < PUBLIC_DUMP_MIN_COUNT:
                below_min_count += 1
            records += 1
            if referrer in reserved_tokens:
                if referrer in search_tokens:
                    yield None, resource, count
            elif rawtype == internal_rawtype:
                yield referrer, resource, count
    finally:
        stats.lines += lineno
        stats.records += records
        stats.malformed += malformed
        stats.unknown_rawtype += unknown_rawtype
        stats.below_min_count += below_min_count
        stats.header_lines += header_lines


def aggregate_traffic(records: Iterable[tuple[str | None, str, int]], source: str | Path) -> ColumnTable:
    """Aggregate parse_clickstream's records into per-article traffic.

    A search record (referrer None) adds to the resource's in_se; an
    internal link adds to the resource's in_nav and to the referrer's
    out_nav. Articles with zero inflow (seen only as referrers) fall
    outside the studied population and are dropped. An article whose
    inflow or outflow exceeds MAX_COUNT raises DataError naming the
    `source` file.
    """
    sums: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # in_se, in_nav, out_nav
    for referrer, resource, count in records:
        if referrer is None:
            sums[resource][0] += count
        else:
            sums[resource][1] += count
            sums[referrer][2] += count

    rows = [(a, *c, c[0] + c[1]) for a, c in sums.items() if c[0] + c[1] > 0]
    for article, _, _, out_nav, total_views in rows:
        if max(total_views, out_nav) > MAX_COUNT:
            raise DataError(f"{source}: traffic of {article!r} exceeds 2**53 views")
    return column_table(rows, TRAFFIC)


def read_traffic_file(path: str | Path, strict: bool, stats: ParseStats) -> ColumnTable:
    """Parse + aggregate a clickstream dump file (optionally gzipped) in
    one streaming pass."""
    return aggregate_traffic(parse_clickstream(iter_lines(path), strict, stats, path), path)


def write_traffic_table(path: str | Path, table: ColumnTable) -> None:
    """Write the per-article traffic table, one row per article in title
    order."""
    write_columns(path, TRAFFIC, table)


def read_traffic_table(path: str | Path) -> ColumnTable:
    """Read a traffic table written by :func:`write_traffic_table`;
    total_views must equal in_se + in_nav."""
    return read_columns(
        path,
        TRAFFIC,
        (lambda c: c["in_se"] + c["in_nav"] != c["total_views"], lambda title: f"inconsistent total_views for {title!r}"),
    )
