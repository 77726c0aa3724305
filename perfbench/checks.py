"""Output checks for benchmark runs.

Each check reads one subcommand's ``--out`` directory and returns a list
of failure messages; an empty list means the output is correct. The
benchmark charges any failure to that subcommand invocation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import inputs


def read_keyvalues(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines() if line)
    return {k: v for k, v in pairs}


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_ingest(out: Path, dump: dict) -> list[str]:
    """Line, record and per-column count totals equal the generator's, and
    so does every article's row: a lost, doubled or mis-merged shard
    shows in the per-article digest even where the column sums agree."""
    stats = read_keyvalues(out / "ingest_stats.txt")
    failures = [
        f"ingest {key}={stats.get(key)} but the dump has {dump[key]}"
        for key in ("lines", "records")
        if stats.get(key) != str(dump[key])
    ]
    header, rows = read_tsv(out / "traffic.tsv")
    for column in ("in_se", "in_nav", "out_nav", "total_views"):
        j = header.index(column)
        total = sum(int(r[j]) for r in rows)
        if total != dump[column]:
            failures.append(f"traffic.tsv {column} sums to {total}, the dump to {dump[column]}")
    if inputs.table_digest("\t".join(r[:4]) for r in rows) != dump["table_sha256"]:
        failures.append("traffic.tsv per-article counts differ from the dump's")
    return failures


def check_metrics(out: Path, search_articles: list[str]) -> list[str]:
    """Role shares sum to 100 and the planted split lands on the search side.

    group_shares.tsv prints each share to 0.1, so a column of four may
    miss 100 by up to 4 x 0.05. Each printed share must also be the
    rounding of the share recomputed from metrics.tsv (0 for a group
    metrics.tsv lacks), and every quadrant of metrics.tsv must be printed.
    """
    failures = []
    header, rows = read_tsv(out / "metrics.tsv")
    q, v = header.index("quadrant"), header.index("total_views")
    articles: dict[str, int] = {}
    views: dict[str, int] = {}
    for r in rows:
        articles[r[q]] = articles.get(r[q], 0) + 1
        views[r[q]] = views.get(r[q], 0) + int(r[v])
    shares = {
        "article_pct": {g: 100.0 * n / len(rows) for g, n in articles.items()},
        "view_pct": {g: 100.0 * n / sum(views.values()) for g, n in views.items()},
    }
    printed_header, printed = read_tsv(out / "group_shares.tsv")
    missing = sorted(set(articles) - {r[0] for r in printed})
    if missing:
        failures.append(f"group_shares.tsv lacks the groups {missing} of metrics.tsv")
    for j, column in enumerate(printed_header[1:], start=1):
        total = sum(float(r[j]) for r in printed)
        if abs(total - 100.0) > 0.2 + 1e-9:
            failures.append(f"group_shares.tsv {column} sums to {total}")
        for r in printed:
            if abs(float(r[j]) - shares[column].get(r[0], 0.0)) > 0.05 + 1e-9:
                failures.append(f"group_shares.tsv {r[0]} {column} is {r[j]}, not {shares[column].get(r[0])}")

    planted = set(search_articles)
    misplaced = sum((r[0] in planted) != r[q].startswith("search-") for r in rows)
    if misplaced or len(rows) != 2 * len(planted):
        failures.append(f"{misplaced} of {len(rows)} articles outside their planted search/nav side")
    return failures


def mean_aucs(out: Path) -> dict[str, float]:
    lines = (out / "eval.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return {r[1]: float(r[3]) for r in rows if r[2] == "mean"}


def check_model(out: Path, min_auc: dict[str, float]) -> list[str]:
    """Cross-validated AUC of each planted-signal group is clearly above chance."""
    aucs = mean_aucs(out)
    return [
        f"mean AUC of {group} is {aucs.get(group)}, below {bound}"
        for group, bound in min_auc.items()
        if aucs.get(group, 0.0) < bound
    ]


def topic_recovery(out: Path, planted: list[int]) -> float:
    """Share of documents whose fitted dominant topic matches the planted
    one under a greedy one-to-one matching of fitted to planted topics."""
    _, rows = read_tsv(out / "topics.tsv")
    fitted = np.asarray([int(r[1]) for r in rows])
    truth = np.asarray([planted[int(r[0].rsplit("_", 1)[1])] for r in rows])
    k = max(fitted.max(), truth.max()) + 1
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (truth, fitted), 1)
    matched = 0
    for _ in range(k):
        i, j = np.unravel_index(np.argmax(table), table.shape)
        matched += int(table[i, j])
        table[i, :] = -1
        table[:, j] = -1
    return matched / len(rows)


def check_topics(out: Path, planted: list[int], min_recovery: float) -> list[str]:
    recovery = topic_recovery(out, planted)
    if recovery < min_recovery:
        return [f"planted topic recovery {recovery:.3f} below {min_recovery}"]
    return []


def tree_digest(out: Path) -> str:
    """SHA-256 over every file of an output directory, with the manifest's
    `created` timestamp removed (the one field a rerun may change)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("created", None)
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        digest.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()
