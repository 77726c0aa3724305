"""Directed article link network: construction, degrees, k-core.

Nodes get dense integer ids in order of first appearance; edges are
deduplicated and stripped of self-loops at build time, then held as a
pair of sorted int64 arrays (compressed form, a few bytes per edge, so
hundred-million-edge graphs fit in memory). ``graph --clickstream``
takes its edges from the dump's internal transitions, read by the same
single pass as ``ingest`` and classified by the same referrer rule.

The k-core index is computed on the undirected projection (an edge
exists if either direction exists) by level-wise frontier peeling over
an int32 CSR adjacency (int64 when the node count does not fit): at
level k every live node of degree <= k has core k, and each round peels
one frontier and looks only at its neighbours, so a round costs the
frontier's edges, not the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from .ingest import INTERNAL_RAWTYPE, RESERVED_TOKENS
from .tableio import ColumnTable, iter_lines, parse_count, read_columns, where, write_columns

NETWORK_COLUMNS = ("article", "in_degree", "out_degree", "degree", "kcore")


@dataclass
class EdgeStats:
    lines: int = 0
    edges: int = 0
    malformed: int = 0
    self_loops: int = 0
    duplicates: int = 0


@dataclass
class LinkGraph:
    titles: list[str]
    index: dict[str, int]
    sources: np.ndarray  # int64, lexicographically sorted with targets
    targets: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.titles)

    @property
    def edge_count(self) -> int:
        return len(self.sources)


def parse_edges(
    lines: Iterable[str],
    strict: bool = False,
    stats: EdgeStats | None = None,
    source: str | Path | None = None,
) -> Iterator[tuple[str, str]]:
    """Yield (source, target) title pairs from tab-separated lines; a
    strict-mode error names the `source` file, if given."""
    if stats is None:
        stats = EdgeStats()
    for lineno, line in enumerate(lines, start=1):
        stats.lines += 1
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            if strict:
                raise DataError(f"{where(source, lineno)}: expected 2 tab-separated titles")
            stats.malformed += 1
            continue
        yield fields[0], fields[1]


def build_graph(edges: Iterable[tuple[str, str]], stats: EdgeStats | None = None) -> LinkGraph:
    """Build a deduplicated, self-loop-free directed graph.

    Node ids are assigned by first appearance in the edge stream (source
    before target within a pair), so the id assignment is deterministic
    for a given stream.
    """
    if stats is None:
        stats = EdgeStats()
    index: dict[str, int] = {}
    get = index.get
    src_list: list[int] = []
    dst_list: list[int] = []
    for source, target in edges:
        s = get(source)
        if s is None:
            s = index[source] = len(index)
        t = get(target)
        if t is None:
            t = index[target] = len(index)
        if s == t:
            stats.self_loops += 1
            continue
        src_list.append(s)
        dst_list.append(t)

    titles = list(index)  # insertion order is id order
    n = len(titles)
    if not src_list:
        return LinkGraph(titles, index, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    keys = sorted_unique(src * np.int64(n) + dst)
    stats.duplicates += len(src) - len(keys)
    stats.edges = len(keys)
    return LinkGraph(titles, index, keys // n, keys % n)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) of an integer array by one sort, which on large
    arrays numpy 2.x runs many times faster than np.unique."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def graph_from_file(path: str | Path, strict: bool = False, stats: EdgeStats | None = None) -> LinkGraph:
    return build_graph(parse_edges(iter_lines(path), strict, stats, path), stats)


def edges_from_clickstream(records: Iterable[tuple[str, str, str, int]]) -> Iterator[tuple[str, str]]:
    """Approximate link edges from internal-navigation transitions: the
    records whose referrer is not one of ingest.RESERVED_TOKENS
    (``other-search``, ``other-empty``, ``other-external``) and whose raw
    type is ``link``, the internal-article rule of ingest.aggregate_traffic.

    Underestimates the true link graph (only traveled links at least the
    dump floor appear); outputs derived from it are labeled accordingly.
    """
    reserved_tokens = RESERVED_TOKENS
    internal_rawtype = INTERNAL_RAWTYPE
    for referrer, resource, rawtype, _ in records:
        if rawtype == internal_rawtype and referrer not in reserved_tokens:
            yield referrer, resource


def degrees(graph: LinkGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(in_degree, out_degree, degree) per node id, exact counts."""
    n = graph.node_count
    out_deg = np.bincount(graph.sources, minlength=n)
    in_deg = np.bincount(graph.targets, minlength=n)
    return in_deg, out_deg, in_deg + out_deg


def undirected_projection(graph: LinkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges (u < v) of the graph."""
    n = graph.node_count
    if graph.edge_count == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = np.minimum(graph.sources, graph.targets)
    hi = np.maximum(graph.sources, graph.targets)
    keys = sorted_unique(lo * np.int64(n) + hi)
    return keys // n, keys % n


def kcore_decomposition(graph: LinkGraph) -> np.ndarray:
    """Core number per node id (int64) on the undirected projection.

    Level-wise frontier peel (the core definition of Batagelj & Zaversnik,
    peeled a level at a time). Node ids and the CSR neighbour array are
    int32, or int64 when the node count does not fit. At level k (the
    larger of the last level and the least live degree) every live node
    of degree <= k gets core k: a round peels the frontier, takes one off
    a live node's degree per peeled neighbour, and makes the next
    frontier of just those neighbours now at degree <= k. A round thus
    costs O(edges of the frontier), not O(n); over the whole peel each
    edge is gathered at most twice, and the live set is compacted once
    per level.
    """
    n = graph.node_count
    ids = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    lo, hi = undirected_projection(graph)
    heads = np.concatenate([lo, hi], dtype=ids)
    tails = np.concatenate([hi, lo], dtype=ids)
    del lo, hi
    degree = np.bincount(heads, minlength=n)
    order = np.argsort(heads, kind="stable")
    neighbors = tails[order]
    del heads, tails, order
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])

    deg = degree.astype(ids)  # degree among live nodes
    core = np.full(n, -1, dtype=np.int64)  # -1 while live
    live = np.arange(n, dtype=ids)
    k = 0
    while len(live):
        live_deg = deg[live]
        k = max(k, int(live_deg.min()))
        frontier = live[live_deg <= k]
        while len(frontier):
            core[frontier] = k
            # the frontier's CSR slices, gathered as one index array
            starts = offsets[frontier]
            lengths = degree[frontier]
            ends = np.cumsum(lengths)
            slots = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
            touched = neighbors[slots]
            touched = touched[core[touched] < 0]
            np.subtract.at(deg, touched, 1)
            frontier = sorted_unique(touched[deg[touched] <= k])
        live = live[core[live] < 0]
    return core


def network_features(graph: LinkGraph) -> ColumnTable:
    """Degrees and core number per article, in title order."""
    in_deg, out_deg, deg = degrees(graph)
    core = kcore_decomposition(graph)
    titles = graph.titles
    order = np.array(sorted(range(len(titles)), key=titles.__getitem__), dtype=np.int64)
    columns = dict(zip(NETWORK_COLUMNS[1:], (in_deg, out_deg, deg, core)))
    return ColumnTable(tuple(titles[i] for i in order.tolist()), {k: v[order] for k, v in columns.items()})


def write_network_table(path: str | Path, features: ColumnTable) -> None:
    write_columns(path, NETWORK_COLUMNS, features)


def read_network_table(path: str | Path) -> ColumnTable:
    return read_columns(
        path,
        NETWORK_COLUMNS,
        lambda r: (r[0], *(parse_count(v) for v in r[1:])),
        dict.fromkeys(NETWORK_COLUMNS[1:], np.int64),
    )
