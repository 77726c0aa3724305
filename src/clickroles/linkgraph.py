"""Directed article link network: construction, degrees, k-core.

Nodes get dense integer ids in order of first appearance; edges are
deduplicated and stripped of self-loops at build time, then held as a
pair of sorted int64 arrays (compressed form, a few bytes per edge, so
hundred-million-edge graphs fit in memory). ``graph --clickstream``
takes its edges from the dump's internal transitions, read by the same
single pass as ``ingest`` and classified by the same referrer map.

The k-core index is computed on the undirected projection (an edge
exists if either direction exists), by bucket peeling in increasing
degree order: when a node is peeled its remaining degree is final and
equals its core number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from .ingest import ReferrerConfig
from .tableio import iter_lines, parse_count, read_table, where, write_tsv

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
    """np.unique(keys) of an int64 array by one sort, which on large
    arrays numpy 2.x runs many times faster than np.unique."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def graph_from_file(path: str | Path, strict: bool = False, stats: EdgeStats | None = None) -> LinkGraph:
    return build_graph(parse_edges(iter_lines(path), strict, stats, path), stats)


def edges_from_clickstream(
    records: Iterable[tuple[str, str, str, int]],
    referrers: ReferrerConfig | None = None,
) -> Iterator[tuple[str, str]]:
    """Approximate link edges from internal-navigation transitions: the
    records whose referrer is no reserved token and whose raw type is the
    internal one (the referrer rule of ingest.classify_referrer).

    Underestimates the true link graph (only traveled links at least the
    dump floor appear); outputs derived from it are labeled accordingly.
    """
    referrers = referrers or ReferrerConfig()
    token_classes = referrers.token_classes()
    internal_rawtype = referrers.internal_rawtype
    for referrer, resource, rawtype, _ in records:
        if rawtype == internal_rawtype and referrer not in token_classes:
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
    """Core number per node id on the undirected projection.

    Bucket peeling: process nodes in increasing current degree; peeling a
    node decrements the degrees of its not-yet-peeled neighbours and
    keeps the degree ordering intact via swaps, one edge touch per
    endpoint overall.
    """
    n = graph.node_count
    lo, hi = undirected_projection(graph)
    deg_arr = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)

    # CSR adjacency of the projection, as plain lists for the peel loop
    heads = np.concatenate([lo, hi])
    tails = np.concatenate([hi, lo])
    order = np.argsort(heads, kind="stable")
    neighbors = tails[order].tolist()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    offsets = offsets.tolist()

    deg = deg_arr.tolist()
    if n == 0:
        return np.empty(0, dtype=np.int64)
    max_deg = max(deg)

    # vert: nodes sorted by degree; pos[v]: index of v in vert;
    # bin_start[d]: first index in vert with degree >= d
    counts = [0] * (max_deg + 1)
    for d in deg:
        counts[d] += 1
    bin_start = [0] * (max_deg + 2)
    for d in range(max_deg + 1):
        bin_start[d + 1] = bin_start[d] + counts[d]
    fill = bin_start[:-1].copy()
    vert = [0] * n
    pos = [0] * n
    for v in range(n):
        p = fill[deg[v]]
        vert[p] = v
        pos[v] = p
        fill[deg[v]] += 1

    for i in range(n):
        v = vert[i]
        dv = deg[v]
        for j in range(offsets[v], offsets[v + 1]):
            u = neighbors[j]
            du = deg[u]
            if du > dv:
                # swap u with the first node of its degree bucket, then
                # shrink the bucket so u drops into the one below
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    vert[pw] = u
                    pos[w] = pu
                    pos[u] = pw
                bin_start[du] += 1
                deg[u] = du - 1

    return np.asarray(deg, dtype=np.int64)


@dataclass(frozen=True)
class NetworkFeatures:
    article: str
    in_degree: int
    out_degree: int
    degree: int
    kcore: int


def network_features(graph: LinkGraph) -> list[NetworkFeatures]:
    in_deg, out_deg, deg = degrees(graph)
    core = kcore_decomposition(graph)
    return [
        NetworkFeatures(title, int(in_deg[i]), int(out_deg[i]), int(deg[i]), int(core[i]))
        for i, title in enumerate(graph.titles)
    ]


def write_network_table(path: str | Path, features: list[NetworkFeatures]) -> None:
    rows = (
        (f.article, f.in_degree, f.out_degree, f.degree, f.kcore)
        for f in sorted(features, key=lambda f: f.article)
    )
    write_tsv(path, NETWORK_COLUMNS, rows)


def read_network_table(path: str | Path) -> dict[str, NetworkFeatures]:
    rows = read_table(
        path,
        NETWORK_COLUMNS,
        lambda r: NetworkFeatures(r[0], *(parse_count(v) for v in r[1:])),
    )
    return {f.article: f for f in rows}
