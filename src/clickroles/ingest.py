"""Clickstream ingestion: parse, classify, and aggregate transition dumps.

The input is the public aggregated transition log: tab-separated lines of
``referrer<TAB>resource<TAB>type<TAB>count``, where the referrer is either
another article title or a reserved token (``other-search``,
``other-empty``, ...). Aggregation produces one ArticleTraffic row per
article holding the search inflow, navigation inflow, and navigation
outflow counts that the traffic metrics are computed from.

All counts are plain Python ints (arbitrary precision, so 64-bit-scale
totals are exact) and every aggregation is a commutative integer sum:
the result is independent of record order. A dump is read in one
streaming pass, so memory grows with the number of articles, not with
the number of lines.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError
from .tableio import iter_lines, read_table, where, write_tsv

TRAFFIC_COLUMNS = ("article", "in_se", "in_nav", "out_nav", "total_views")

# Pair-count floor of the compliant public dump (pairs occurring fewer
# times are withheld at the source). Records below it are flagged, not
# dropped.
PUBLIC_DUMP_MIN_COUNT = 10


class ReferrerClass(enum.Enum):
    SEARCH_ENGINE = "search-engine"
    INTERNAL_ARTICLE = "internal-article"
    OTHER_EXTERNAL = "other-external"
    MISSING = "missing"
    OTHER = "other"


@dataclass(frozen=True)
class TransitionRecord:
    """One (referrer, resource) transition row from the dump."""

    referrer: str
    resource: str
    rawtype: str
    count: int


@dataclass(frozen=True)
class ReferrerConfig:
    """Mapping from reserved referrer tokens and raw types to classes.

    The reserved tokens vary across dump releases, so they are
    configuration rather than code. Defaults match the 2016-08 release.
    Classification precedence: reserved token first, then the ``link``
    raw type, then OTHER.
    """

    search_tokens: frozenset[str] = frozenset({"other-search"})
    missing_tokens: frozenset[str] = frozenset({"other-empty"})
    external_tokens: frozenset[str] = frozenset({"other-external"})
    internal_rawtype: str = "link"


@dataclass(frozen=True)
class ParserConfig:
    strict: bool = False
    known_rawtypes: frozenset[str] = frozenset({"link", "external", "other"})
    # One leading header line matching this pattern is tolerated.
    header_pattern: str = r"^(prev|referr?er)\b"


@dataclass
class ParseStats:
    """Counters maintained while parsing."""

    lines: int = 0
    records: int = 0
    malformed: int = 0
    unknown_rawtype: int = 0
    below_min_count: int = 0
    header_lines: int = 0


@dataclass
class ArticleTraffic:
    """Per-article traffic aggregate.

    total_views is definitionally in_se + in_nav: only views arriving by
    search or internal navigation count as page accesses here.
    """

    article: str
    in_se: int = 0
    in_nav: int = 0
    out_nav: int = 0

    @property
    def total_views(self) -> int:
        return self.in_se + self.in_nav


@dataclass(frozen=True)
class AggregateConfig:
    referrers: ReferrerConfig = field(default_factory=ReferrerConfig)
    # Articles seen only as referrers (out_nav > 0, zero inflow) fall
    # outside the studied population; keeping them is only useful for
    # flow-conservation checks.
    keep_referrer_only: bool = False


def parse_clickstream(
    lines: Iterable[str],
    config: ParserConfig | None = None,
    stats: ParseStats | None = None,
    source: str | Path | None = None,
) -> Iterator[TransitionRecord]:
    """Yield one TransitionRecord per well-formed input line, in order.

    Malformed lines (wrong field count, empty resource, or a count that
    is not ASCII digits only) abort in strict mode with the 1-based line
    number, after the path of the `source` file if given, and are
    tallied and skipped in lenient mode. Unknown raw type tokens are
    treated the same way, under their own counter.
    Records with counts below the public dump floor are kept but counted.
    """
    config = config or ParserConfig()
    if stats is None:
        stats = ParseStats()
    header_re = re.compile(config.header_pattern)
    for lineno, line in enumerate(lines, start=1):
        stats.lines += 1
        if not line:
            continue
        fields = line.split("\t")
        if lineno == 1 and header_re.match(fields[0]):
            stats.header_lines += 1
            continue
        if len(fields) != 4:
            if config.strict:
                raise DataError(f"{where(source, lineno)}: expected 4 tab-separated fields, got {len(fields)}")
            stats.malformed += 1
            continue
        referrer, resource, rawtype, count_text = fields
        # int() alone would also take "+12", "1_000", " 12 " and
        # non-ASCII decimal digits
        try:
            count = int(count_text) if count_text.isascii() and count_text.isdigit() else -1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            count = -1
        if count < 0 or not resource:
            if config.strict:
                raise DataError(f"{where(source, lineno)}: malformed record {line!r}")
            stats.malformed += 1
            continue
        if rawtype not in config.known_rawtypes:
            if config.strict:
                raise DataError(f"{where(source, lineno)}: unknown type token {rawtype!r}")
            stats.unknown_rawtype += 1
            continue
        if count < PUBLIC_DUMP_MIN_COUNT:
            stats.below_min_count += 1
        stats.records += 1
        yield TransitionRecord(referrer, resource, rawtype, count)


def classify_referrer(record: TransitionRecord, config: ReferrerConfig | None = None) -> ReferrerClass:
    """Classify a record's referrer. Total and deterministic: exactly one
    class per record, a pure function of (referrer, rawtype, config)."""
    config = config or ReferrerConfig()
    if record.referrer in config.search_tokens:
        return ReferrerClass.SEARCH_ENGINE
    if record.referrer in config.missing_tokens:
        return ReferrerClass.MISSING
    if record.referrer in config.external_tokens:
        return ReferrerClass.OTHER_EXTERNAL
    if record.rawtype == config.internal_rawtype:
        return ReferrerClass.INTERNAL_ARTICLE
    return ReferrerClass.OTHER


def aggregate_traffic(
    records: Iterable[TransitionRecord],
    config: AggregateConfig | None = None,
) -> dict[str, ArticleTraffic]:
    """Aggregate classified transition records into per-article traffic.

    Search-engine records add to the resource's in_se; internal-article
    records add to the resource's in_nav and to the referrer's out_nav.
    Missing/other-external/other records carry no in-counts. Articles
    with zero inflow are dropped unless keep_referrer_only is set.
    """
    config = config or AggregateConfig()
    table: dict[str, ArticleTraffic] = {}

    def row(article: str) -> ArticleTraffic:
        traffic = table.get(article)
        if traffic is None:
            traffic = table[article] = ArticleTraffic(article)
        return traffic

    for record in records:
        cls = classify_referrer(record, config.referrers)
        if cls is ReferrerClass.SEARCH_ENGINE:
            row(record.resource).in_se += record.count
        elif cls is ReferrerClass.INTERNAL_ARTICLE:
            row(record.resource).in_nav += record.count
            row(record.referrer).out_nav += record.count

    if not config.keep_referrer_only:
        table = {a: t for a, t in table.items() if t.in_se + t.in_nav > 0}
    return table


def read_traffic_file(path: str | Path, parser_config: ParserConfig | None = None,
                      aggregate_config: AggregateConfig | None = None,
                      stats: ParseStats | None = None) -> dict[str, ArticleTraffic]:
    """Parse + aggregate a clickstream dump file (optionally gzipped) in
    one streaming pass."""
    return aggregate_traffic(parse_clickstream(iter_lines(path), parser_config, stats, path), aggregate_config)


def write_traffic_table(path: str | Path, table: dict[str, ArticleTraffic]) -> None:
    """Write the per-article traffic table, sorted by article title."""
    rows = (
        (t.article, t.in_se, t.in_nav, t.out_nav, t.total_views)
        for t in (table[a] for a in sorted(table))
    )
    write_tsv(path, TRAFFIC_COLUMNS, rows)


def read_traffic_table(path: str | Path) -> dict[str, ArticleTraffic]:
    """Read a traffic table written by :func:`write_traffic_table`."""

    def parse(row: list[str]) -> ArticleTraffic:
        traffic = ArticleTraffic(row[0], int(row[1]), int(row[2]), int(row[3]))
        if traffic.total_views != int(row[4]):
            raise DataError(f"inconsistent total_views for {row[0]!r}")
        return traffic

    return {t.article: t for t in read_table(path, TRAFFIC_COLUMNS, parse)}
