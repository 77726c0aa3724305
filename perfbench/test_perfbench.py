"""Fast tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

import checks
import inputs
import run

TINY_DUMP = inputs.DumpSize(articles=300, link_lines=900)
TINY_CORPUS = inputs.CorpusSize(documents=300, topics=20, words_per_topic=10, tokens_per_document=8)


def tiny_roles() -> run.Workload:
    generate = partial(inputs.generate_roles, dump=TINY_DUMP, corpus=TINY_CORPUS)
    return dataclasses.replace(run.WORKLOADS["roles"], generate=generate)


def test_generator_is_deterministic_per_seed(tmp_path: Path) -> None:
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        _, _, digest = run.setup(tiny_roles(), seed, tmp_path / name)
        digests.append(digest)
        assert sorted(p.name for p in (tmp_path / name / "in").iterdir()) == [
            "clicks.tsv.gz", "content.tsv", "documents.tsv", "edges.tsv", "truth.json",
        ]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_corrupted_count_is_a_failure(tmp_path: Path) -> None:
    workload = dataclasses.replace(
        run.WORKLOADS["traffic"],
        generate=partial(inputs.generate_traffic, dump=TINY_DUMP),
        commands=run.WORKLOADS["traffic"].commands[:2],  # ingest, metrics
    )
    _, truth, _ = run.setup(workload, 3, tmp_path)
    ledger = run.Ledger()
    with run.Launcher() as launcher:
        first = run.run_pipeline(launcher, workload, tmp_path / "plain", truth, traced=False)
    assert ledger.record(first), [s.failures for s in first.steps]

    table = tmp_path / "plain" / "run" / "ingest" / "traffic.tsv"
    lines = table.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split("\t")
    cells[2] = str(int(cells[2]) + 1)  # in_nav of the first article
    lines[1] = "\t".join(cells)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")

    steps = [dataclasses.replace(s, failures=[], digest="") for s in first.steps]
    run.check_steps(workload, tmp_path / "plain", steps, truth)
    assert ledger.record(run.Run(first.wall, steps, {})) is False
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert any("in_nav" in f for f in steps[0].failures)
    assert any("differs from the first run" in f for f in steps[0].failures)


def test_moved_count_fails_the_per_article_check(tmp_path: Path) -> None:
    truth = inputs.generate_traffic(4, tmp_path, TINY_DUMP)["dump"]
    out = tmp_path / "ingest"
    with run.Launcher() as launcher:
        code = launcher.run(
            [sys.executable, "-c", run.ENTRY, "ingest", "--clickstream", "clicks.tsv.gz", "--out", "ingest"],
            tmp_path,
        )[2]
    assert code == 0 and checks.check_ingest(out, truth) == []

    # one view moved between two articles leaves every column sum as it was
    table = out / "traffic.tsv"
    lines = [line.split("\t") for line in table.read_text(encoding="utf-8").splitlines()]
    for row, delta in ((lines[1], 1), (lines[2], -1)):
        row[1] = str(int(row[1]) + delta)
        row[4] = str(int(row[4]) + delta)
    table.write_text("".join("\t".join(r) + "\n" for r in lines), encoding="utf-8")
    assert checks.check_ingest(out, truth) == ["traffic.tsv per-article counts differ from the dump's"]


def test_traffic_dump_spans_several_ingest_chunks(tmp_path: Path) -> None:
    truth = inputs.generate_traffic(1, tmp_path, TINY_DUMP)
    assert truth["dump"]["lines"] == TINY_DUMP.lines
    assert run.TRAFFIC_DUMP.lines > 3 * run.INGEST_CHUNK_LINES


def test_traced_run_leaves_outputs_byte_identical(tmp_path: Path) -> None:
    workload = tiny_roles()
    _, truth, _ = run.setup(workload, 5, tmp_path)
    with run.Launcher() as launcher:
        plain = run.run_pipeline(launcher, workload, tmp_path / "plain", truth, traced=False)
        traced = run.run_pipeline(launcher, workload, tmp_path / "traced", truth, traced=True)

    assert [s.sub for s in traced.steps] == [c[0] for c in workload.commands]
    for a, b in zip(plain.steps, traced.steps):
        assert not any(f.startswith("exit code") for f in a.failures + b.failures)
        assert a.digest and a.digest == b.digest, a.sub

    spans = traced.spans["model"]
    by_id = dict(enumerate(spans))
    pool = [s for s in spans if s["name"] == "model.train_gbdt" and not s["main"]]
    assert pool, "cross-validation folds should train on pool threads"
    assert all(by_id[s["parent"]]["name"] == "model.cross_validate" for s in pool)
    assert all(s["self"] <= s["wall"] + 1e-9 for s in spans)
    graph = {s["name"]: s for s in traced.spans["graph"]}
    kcore = graph["linkgraph.kcore_decomposition"]
    assert graph["linkgraph.network_features"]["self"] <= (
        graph["linkgraph.network_features"]["wall"] - kcore["wall"] + 1e-9
    )


def test_child_peak_rss_is_its_own(tmp_path: Path) -> None:
    ballast = b"x" * (200 << 20)  # resident in this process, not in the child
    with run.Launcher() as launcher:
        _, rss_mb, code, _ = launcher.run([sys.executable, "-c", "pass"], tmp_path)
    assert len(ballast) and code == 0
    assert rss_mb < 100


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_group_shares_check(tmp_path: Path) -> None:
    rows = [("A", "search-exit", 1), ("B", "search-relay", 1), ("C", "nav-exit", 1), ("D", "nav-exit", 1)]
    (tmp_path / "metrics.tsv").write_text(
        "article\tquadrant\ttotal_views\n" + "".join(f"{a}\t{q}\t{v}\n" for a, q, v in rows), encoding="utf-8"
    )
    printed = [("search-exit", "25.0"), ("search-relay", "25.0"), ("nav-exit", "50.0"), ("nav-relay", "0.0")]

    def shares(table) -> list[str]:
        lines = "".join(f"{g}\t{p}\t{p}\n" for g, p in table)
        (tmp_path / "group_shares.tsv").write_text("group\tarticle_pct\tview_pct\n" + lines, encoding="utf-8")
        return checks.check_metrics(tmp_path, ["A", "B"])

    assert shares(printed) == []
    assert any("lacks the groups ['nav-exit']" in f for f in shares(printed[:2] + printed[3:]))
    assert any("sums to 100.3" in f for f in shares(printed[:2] + [("nav-exit", "50.3"), printed[3]]))


def test_topic_recovery_is_permutation_invariant(tmp_path: Path) -> None:
    planted = [0, 0, 1, 1, 2, 2]
    rows = ["article\ttopic_id\tweight"] + [
        f"{inputs.title(i)}\t{(t + 1) % 3}\t0.5" for i, t in enumerate(planted)
    ]
    (tmp_path / "topics.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert checks.topic_recovery(tmp_path, planted) == 1.0
    assert checks.topic_recovery(tmp_path, [0, 1, 0, 1, 0, 1]) < 1.0
