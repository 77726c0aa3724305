"""Table rows for tests: joined feature rows as plain dicts, to build a
ColumnTable from and read one back, so per-row reference code can be
checked against the column operations; and traffic tables built from
(article, in_se, in_nav, out_nav) tuples."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from clickroles.features import JOINED
from clickroles.ingest import TRAFFIC
from clickroles.metrics import ROLES
from clickroles.tableio import ColumnTable, fmt_value

ROW_DEFAULTS = dict(
    searchshare=0.5,
    resistance=0.5,
    total_views=100,
    quadrant="nav-relay",
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


def traffic_of(rows: Iterable[tuple[str, int, int, int]]) -> ColumnTable:
    """The traffic table of (article, in_se, in_nav, out_nav) rows with
    unique titles, in any order; total_views is in_se + in_nav."""
    rows = list(rows)
    in_se, in_nav, out_nav = np.array([counts for _, *counts in rows], dtype=np.int64).reshape(-1, 3).T
    articles = [article for article, *_ in rows]
    return ColumnTable.in_title_order(articles, dict(zip(TRAFFIC, (in_se, in_nav, out_nav, in_se + in_nav))))


def make_row(article: str = "A", **overrides) -> dict:
    return {"article": article, **ROW_DEFAULTS, **overrides}


def make_table(rows: Iterable[dict]) -> ColumnTable:
    """The joined table of `rows`, sorted by title."""
    rows = sorted(rows, key=lambda r: r["article"])
    columns = {}
    for name, kind in JOINED.items():
        cells = [r[name] for r in rows]
        if name == "quadrant":
            cells = [ROLES.index(q) for q in cells]
        elif name == "topic_id":
            cells = [-1 if t is None else t for t in cells]
        columns[name] = np.array(cells, dtype=kind.dtype)
    return ColumnTable(tuple(r["article"] for r in rows), columns)


def table_rows(table: ColumnTable) -> list[dict]:
    """The rows of a joined table as dicts of Python values."""
    cells = {name: table[name].tolist() for name in JOINED}
    cells["quadrant"] = [ROLES[q] for q in cells["quadrant"]]
    cells["topic_id"] = [None if t < 0 else t for t in cells["topic_id"]]
    return [dict(zip(("article", *JOINED), values)) for values in zip(table.articles, *cells.values())]


def joined_tsv(rows: Iterable[dict]) -> str:
    """`rows` as joined.tsv text, in the order given."""
    columns = ("article", *JOINED)
    lines = ["\t".join(columns)]
    for r in rows:
        lines.append("\t".join(fmt_value(r[k]) for k in columns))
    return "\n".join(lines) + "\n"
