"""End-to-end tests for the command-line interface.

A module-scoped fixture runs the whole pipeline once over a small
synthetic corpus; the tests then assert on exit codes, emitted files,
manifest completeness, and byte-level determinism of reruns.
"""

import argparse
import ast
import gzip
import hashlib
import json
import random
import re
import time
import warnings
from itertools import combinations
from pathlib import Path

import pytest

import clickroles
from clickroles.cli import build_parser, main
from clickroles.errors import DataError
from clickroles.features import read_joined_table
from clickroles.ingest import write_traffic_table
from clickroles.manifest import build_manifest, read_manifest, write_manifest
from clickroles.model import load_model
from clickroles.overlap import RANKING_KEYS
from clickroles.tableio import read_keyvalues

import numpy as np


def make_inputs(root: Path) -> dict[str, Path]:
    rng = random.Random(11)
    articles = [f"Article_{i:03d}" for i in range(50)]

    lines = []
    for i, a in enumerate(articles):
        hi = 5000 if i % 2 == 0 else 40  # half search-heavy, half nav-heavy
        lines.append(f"other-search\t{a}\texternal\t{rng.randint(10, hi)}")
        lines.append(f"other-empty\t{a}\texternal\t{rng.randint(10, 60)}")
    for _ in range(300):
        a, b = rng.sample(articles, 2)
        lines.append(f"{a}\t{b}\tlink\t{rng.randint(10, 200)}")
    clickstream = root / "clickstream.tsv"
    clickstream.write_text("\n".join(lines) + "\n")

    rows = ["article\tsections\tfigures\tlists\ttables\trevisions\teditors\tage\tsize"]
    for a in articles:
        rows.append("\t".join([a] + [str(rng.randint(1, 400)) for _ in range(8)]))
    content = root / "content.tsv"
    content.write_text("\n".join(rows) + "\n")

    vocab_a = [f"alpha{c1}{c2}" for c1 in "abcdefgh" for c2 in "abcdefgh"]
    vocab_b = [f"bravo{c1}{c2}" for c1 in "abcdefgh" for c2 in "abcdefgh"]
    docs = []
    for i, a in enumerate(articles):
        words = rng.choices(vocab_a if i % 2 == 0 else vocab_b, k=30)
        docs.append(f"{a}\t" + " ".join(words))
    documents = root / "documents.tsv"
    documents.write_text("\n".join(docs) + "\n")

    return {"clickstream": clickstream, "content": content, "documents": documents}


def run(*argv: object) -> int:
    return main([str(a) for a in argv])


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict[str, Path]:
    """Inputs plus one completed run of every subcommand."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = make_inputs(root)
    out = {name: root / "run" / name for name in (
        "ingest", "metrics", "overlap", "graph", "topics",
        "features", "bins", "model", "sample", "report",
    )}

    assert run("ingest", "--clickstream", paths["clickstream"], "--out", out["ingest"]) == 0
    traffic = out["ingest"] / "traffic.tsv"
    assert run("metrics", "--traffic", traffic, "--out", out["metrics"]) == 0
    assert run("overlap", "--traffic", traffic, "--out", out["overlap"]) == 0
    assert run("graph", "--clickstream", paths["clickstream"], "--out", out["graph"]) == 0
    assert run(
        "topics", "--documents", paths["documents"],
        "--k", 2, "--iterations", 40, "--out", out["topics"],
    ) == 0
    assert run(
        "features",
        "--metrics", out["metrics"] / "metrics.tsv",
        "--network", out["graph"] / "network.tsv",
        "--content", paths["content"],
        "--topics", out["topics"] / "topics.tsv",
        "--grid", 10, "--out", out["features"],
    ) == 0
    joined = out["features"] / "joined.tsv"
    assert run("bins", "--joined", joined, "--bins", 5, "--out", out["bins"]) == 0
    assert run(
        "model", "--joined", joined,
        "--trees", 15, "--folds", 4, "--min-leaf", 2, "--out", out["model"],
    ) == 0
    assert run("sample", "--traffic", traffic, "--n", 10, "--out", out["sample"]) == 0
    assert run(
        "report", "--inputs", *[out[k] for k in out if k != "report"], "--out", out["report"],
    ) == 0
    return {**paths, **out, "root": root}


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["ingest", "--clickstream", "x", "--out", str(tmp_path), "--what"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["ingest"]) == 2
        assert "--out" in capsys.readouterr().err or True

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(["ingest", "--clickstream", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'nope.tsv'}: input file not found\n"

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "clickroles" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_graph_needs_exactly_one_source(self, tmp_path, pipeline):
        both = main(["graph", "--edges", "a", "--clickstream", "b",
                     "--out", str(tmp_path / "g")])
        neither = main(["graph", "--out", str(tmp_path / "g")])
        assert both == 2 and neither == 2

    def ingest_error(self, tmp_path, capsys, dump: Path, *flags: str) -> str:
        assert main(["ingest", "--clickstream", str(dump), *flags,
                     "--out", str(tmp_path / "o")]) == 1
        return capsys.readouterr().err

    def test_truncated_gzip_is_data_error(self, tmp_path, capsys):
        text = "".join(f"other-search\tArticle_{i}\texternal\t{10 + i}\n" for i in range(5000))
        whole = gzip.compress(text.encode())
        dump = tmp_path / "clicks.tsv.gz"
        dump.write_bytes(whole[: len(whole) // 2])
        err = self.ingest_error(tmp_path, capsys, dump)
        assert re.search(rf"{re.escape(str(dump))}:[1-9]\d*: ", err)

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        # > 8 KB of good lines first, so the bad byte is past the first
        # decoded block and the reported line is a real one
        good = b"".join(b"other-search\tA_%d\texternal\t30\n" % i for i in range(2000))
        dump = tmp_path / "clicks.tsv"
        dump.write_bytes(good + b"other-search\t\xff\texternal\t30\n")
        err = self.ingest_error(tmp_path, capsys, dump)
        found = re.search(rf"{re.escape(str(dump))}:(\d+): ", err)
        assert found and 1 <= int(found.group(1)) <= 2000

    def test_empty_dump_is_data_error(self, tmp_path, capsys):
        dump = tmp_path / "clicks.tsv"
        dump.write_bytes(b"")
        assert str(dump) in self.ingest_error(tmp_path, capsys, dump)

    def test_non_ascii_count_aborts_strict(self, tmp_path, capsys):
        dump = tmp_path / "clicks.tsv"
        dump.write_text("other-search\tA\texternal\t30\nother-search\tB\texternal\t\u0663\u0663\n",
                        encoding="utf-8")
        assert f"{dump}:2: " in self.ingest_error(tmp_path, capsys, dump, "--strict")

    @pytest.mark.parametrize("flag, text", [
        ("--edges", "A\tB\noops\n"),
        ("--clickstream", "other-search\tA\texternal\t30\noops\n"),
    ], ids=["edges", "clickstream"])
    def test_strict_graph_error_names_file(self, tmp_path, capsys, flag, text):
        source = tmp_path / "in.tsv"
        source.write_text(text)
        assert main(["graph", flag, str(source), "--strict", "--out", str(tmp_path / "g")]) == 1
        assert f"{source}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, lines", [
        ("--edges", "", 0),
        ("--edges", "A B\nA\t\n\tB\n", 3),
        ("--clickstream", "other-search\tA\texternal\t30\nother-empty\tB\texternal\t12\n", 2),
    ], ids=["empty-edge-list", "all-malformed-edge-list", "dump-without-links"])
    def test_graph_without_nodes_is_data_error(self, tmp_path, capsys, flag, text, lines):
        source = tmp_path / "in.tsv"
        source.write_text(text)
        out = tmp_path / "g"
        assert main(["graph", flag, str(source), "--out", str(out)]) == 1
        assert f"{source}: no edges in {lines} lines" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_document_line_names_file(self, tmp_path, capsys):
        docs = tmp_path / "documents.tsv"
        docs.write_text("A\tsome words here\nno tab on this line\n")
        assert main(["topics", "--documents", str(docs), "--k", "2", "--iterations", "1",
                     "--out", str(tmp_path / "t")]) == 1
        assert f"{docs}:2: " in capsys.readouterr().err

    def test_duplicate_document_names_file_and_line(self, tmp_path, capsys):
        docs = tmp_path / "documents.tsv"
        docs.write_text("A\tsome words here\n\nB\tmore words\nA\tagain\n")
        assert main(["topics", "--documents", str(docs), "--k", "2", "--iterations", "1",
                     "--out", str(tmp_path / "t")]) == 1
        assert f"{docs}:4: duplicate article 'A'" in capsys.readouterr().err

    def test_empty_corpus_names_file(self, tmp_path, capsys):
        docs = tmp_path / "documents.tsv"
        docs.write_text("")
        assert main(["topics", "--documents", str(docs), "--k", "2", "--iterations", "1",
                     "--out", str(tmp_path / "t")]) == 1
        assert f"{docs}: empty corpus" in capsys.readouterr().err

    def test_corpus_of_stop_words_names_file(self, tmp_path, capsys):
        # no token left means no vocabulary, so k exceeds it
        docs, stop = tmp_path / "documents.tsv", tmp_path / "stop.txt"
        docs.write_text("A\tthe cat\nB\tthe dog\n")
        stop.write_text("the\ncat\ndog\n")
        assert run("topics", "--documents", docs, "--stopwords", stop, "--k", 2, "--iterations", 1,
                   "--out", tmp_path / "t") == 1
        assert capsys.readouterr().err == f"error: {docs}: k=2 exceeds vocabulary size 0\n"
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("sub", ["sample", "topics"])
    def test_negative_seed_is_usage_error(self, tmp_path, pipeline, capsys, sub):
        args = {"sample": ["--traffic", pipeline["ingest"] / "traffic.tsv", "--n", 5],
                "topics": ["--documents", pipeline["documents"], "--k", 2, "--iterations", 1]}[sub]
        assert run(sub, *args, "--seed", -3, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "argument --seed: " in err and "Traceback" not in err

    def features_run(self, tmp_path, pipeline, *flags) -> int:
        return run(
            "features", "--metrics", pipeline["metrics"] / "metrics.tsv",
            "--network", pipeline["graph"] / "network.tsv", "--content", pipeline["content"],
            "--topics", pipeline["topics"] / "topics.tsv", *flags, "--out", tmp_path / "f",
        )

    def test_negative_feature_grid_is_usage_error(self, tmp_path, pipeline, capsys):
        assert self.features_run(tmp_path, pipeline, "--grid", -5) == 2
        assert "argument --grid: " in capsys.readouterr().err

    def test_malformed_labels_line_names_file_and_line(self, tmp_path, pipeline, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("# topic names\n0=Sports\nno equals sign\n")
        assert self.features_run(tmp_path, pipeline, "--labels", labels) == 1
        assert f"{labels}:3: " in capsys.readouterr().err

    def test_topic_group_without_topics_is_usage_error(self, tmp_path, pipeline, capsys):
        assert run(
            "features", "--metrics", pipeline["metrics"] / "metrics.tsv",
            "--network", pipeline["graph"] / "network.tsv", "--content", pipeline["content"],
            "--grid", 0, "--out", tmp_path / "f",
        ) == 0
        code = run("model", "--joined", tmp_path / "f" / "joined.tsv", "--groups", "topic",
                   "--trees", 1, "--folds", 2, "--out", tmp_path / "m")
        assert code == 2
        assert "error: no 'topic' features present" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_two_row_class_cannot_train_on_two_folds(self, tmp_path, pipeline, capsys):
        # a threshold with two rows above it: each fold trains on one of them
        joined = pipeline["features"] / "joined.tsv"
        searchshare = sorted(read_joined_table(joined)["searchshare"].tolist())
        assert searchshare[-3] < searchshare[-2]
        code = run("model", "--joined", joined, "--threshold", repr(searchshare[-3]),
                   "--trees", 1, "--folds", 2, "--min-leaf", 1, "--out", tmp_path / "m")
        assert code == 1
        assert capsys.readouterr().err == f"error: {joined}: need at least 2 instances per class\n"
        assert not (tmp_path / "m").exists()

    # table -> (subcommand reading it, its flag, a numeric column)
    TABLE_READERS = {
        "joined": ("model", "--joined", "in_degree"),
        "traffic": ("metrics", "--traffic", "out_nav"),
        "metrics": ("features", "--metrics", "total_views"),
        "network": ("features", "--network", "kcore"),
        "content": ("features", "--content", "revisions"),
        "topics": ("features", "--topics", "topic_id"),
    }

    # a fault's replacement for the numeric cell; "short row" cuts the row
    CELL_FAULTS = {"bad cell": "x", "underscore count": "1_000", "spaced count": " 5 ",
                   "count above 2**53": str(2**53 + 1)}

    @pytest.mark.parametrize("table", sorted(TABLE_READERS))
    @pytest.mark.parametrize("fault", ["bad cell", "short row", "underscore count", "spaced count",
                                       "count above 2**53"])
    def test_bad_table_row_is_data_error(self, tmp_path, pipeline, capsys, table, fault):
        sub, flag, column = self.TABLE_READERS[table]
        self.assert_bad_row(tmp_path, pipeline, capsys, sub, flag, column, self.CELL_FAULTS.get(fault))

    # (subcommand, flag, float column, value)
    @pytest.mark.parametrize("sub, flag, column, value", [
        ("features", "--content", "age", "nan"),
        ("features", "--content", "size", "inf"),
        ("features", "--metrics", "searchshare", "nan"),
        ("features", "--metrics", "searchshare", "1.5"),
        ("features", "--metrics", "resistance", "-0.1"),
        ("model", "--joined", "resistance", "-inf"),
        ("features", "--topics", "weight", "abc"),
        ("features", "--topics", "weight", "1.5"),
        # the forms float() takes and the count rule refuses
        ("features", "--content", "age", "1_0"),
        ("features", "--metrics", "resistance", " 0.5 "),
        ("model", "--joined", "size", "\u0661\u0662"),
    ], ids=["content-age-nan", "content-size-inf", "metrics-nan", "metrics-searchshare-above-1",
            "metrics-resistance-below-0", "joined-inf", "topics-weight-not-a-number", "topics-weight-above-1",
            "content-age-underscore", "metrics-resistance-padded", "joined-size-non-ascii"])
    def test_non_finite_cell_is_data_error(self, tmp_path, pipeline, capsys, sub, flag, column, value):
        self.assert_bad_row(tmp_path, pipeline, capsys, sub, flag, column, value)

    # (subcommand, the text of its traffic table, the message after the path)
    @pytest.mark.parametrize("sub, text, message", [
        pytest.param("metrics", "article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t0\t0\t5\t0\n",
                     "no articles with positive inflow", id="metrics-no-inflow"),
        pytest.param("metrics", "", "empty table", id="empty-table"),
        pytest.param("sample", "article\tviews\nA\t1\n",
                     "unexpected header: got ['article', 'views'], "
                     "expected ['article', 'in_se', 'in_nav', 'out_nav', 'total_views']", id="unexpected-header"),
    ])
    def test_data_error_starts_with_its_file(self, tmp_path, capsys, sub, text, message):
        path = tmp_path / "in.tsv"
        path.write_text(text)
        assert run(sub, "--traffic", path, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_input_gone_before_the_manifest_hashes_it(self, tmp_path, pipeline, capsys, monkeypatch):
        traffic = tmp_path / "traffic.tsv"
        traffic.write_bytes((pipeline["ingest"] / "traffic.tsv").read_bytes())

        def write_then_remove_input(path, table):
            write_traffic_table(path, table)
            traffic.unlink()

        monkeypatch.setattr("clickroles.cli.write_traffic_table", write_then_remove_input)
        assert run("sample", "--traffic", traffic, "--n", 5, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {traffic}: input file not found\n"

    @pytest.mark.parametrize("sub", ["bins", "model"])
    def test_joined_ratio_outside_unit_interval(self, tmp_path, pipeline, capsys, sub):
        err = self.assert_bad_row(tmp_path, pipeline, capsys, sub, "--joined", "searchshare", "1.5")
        assert f"{tmp_path / 'bad_joined.tsv'}:3: searchshare 1.5 outside [0, 1]" in err

    def test_metrics_zero_views_is_data_error(self, tmp_path, pipeline, capsys):
        # metrics exist only for articles with positive inflow
        err = self.assert_bad_row(tmp_path, pipeline, capsys, "features", "--metrics", "total_views", "0")
        assert f"{tmp_path / 'bad_metrics.tsv'}:3: total_views 0" in err

    def test_labels_keys_follow_the_count_rule(self, tmp_path, pipeline, capsys):
        def features(labels: str, out: str = "f") -> int:
            (tmp_path / "labels.txt").write_text(labels)
            return run(
                "features", "--metrics", pipeline["metrics"] / "metrics.tsv",
                "--network", pipeline["graph"] / "network.tsv", "--content", pipeline["content"],
                "--topics", pipeline["topics"] / "topics.tsv", "--labels", tmp_path / "labels.txt",
                "--grid", 0, "--out", tmp_path / out,
            )

        assert features("1=Sports\n") == 0
        stats = (tmp_path / "f" / "topic_stats.tsv").read_text().splitlines()
        assert [line.split("\t")[1] for line in stats[1:]] == ["topic-0", "Sports"]
        # "1_0" would be topic 10 to int(); a bad labels file is bad data
        assert features("# names\n1_0=Sports\n", out="g") == 1
        assert f"{tmp_path / 'labels.txt'}:2: count '1_0' is not ASCII digits" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()
        # 3 and 003 are one id: neither line may silently win
        assert features("3=Foo\n003=Bar\n", out="h") == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'labels.txt'}:2: duplicate key 3\n"
        assert not (tmp_path / "h").exists()

    def assert_bad_row(self, tmp_path, pipeline, capsys, sub, flag, column, value):
        """Run `sub` with the table of `flag` broken on line 3: its `column`
        cell set to `value`, or the row cut short if value is None; returns
        the error output."""
        inputs = {
            "--joined": pipeline["features"] / "joined.tsv",
            "--traffic": pipeline["ingest"] / "traffic.tsv",
            "--metrics": pipeline["metrics"] / "metrics.tsv",
            "--network": pipeline["graph"] / "network.tsv",
            "--content": pipeline["content"],
            "--topics": pipeline["topics"] / "topics.tsv",
        }
        lines = inputs[flag].read_text(encoding="utf-8").splitlines()
        cells = lines[2].split("\t")
        if value is not None:
            cells[lines[0].split("\t").index(column)] = value
        else:
            cells = cells[: min(5, len(cells) - 1)]
        lines[2] = "\t".join(cells)
        inputs[flag] = tmp_path / f"bad_{flag[2:]}.tsv"
        inputs[flag].write_text("\n".join(lines) + "\n", encoding="utf-8")
        reads = [f for s, f, _ in self.TABLE_READERS.values() if s == sub] or [flag]
        argv = [sub, *(a for f in reads for a in (f, str(inputs[f]))), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{inputs[flag]}:3: " in err
        return err

    def test_count_above_bound_in_dump(self, tmp_path, capsys):
        dump = tmp_path / "clicks.tsv"
        dump.write_text(f"other-search\tA\texternal\t30\nother-search\tB\texternal\t{2**53 + 1}\n")
        assert f"{dump}:2: " in self.ingest_error(tmp_path, capsys, dump, "--strict")
        # lenient: the line is malformed, skipped and counted
        assert main(["ingest", "--clickstream", str(dump), "--out", str(tmp_path / "ok")]) == 0
        assert read_keyvalues(tmp_path / "ok" / "ingest_stats.txt")["malformed"] == "1"

    def test_sum_above_bound_in_dump(self, tmp_path, capsys):
        dump = tmp_path / "clicks.tsv"
        dump.write_text(f"other-search\tA\texternal\t{2**53}\nB\tA\tlink\t1\n")
        err = self.ingest_error(tmp_path, capsys, dump)
        assert f"{dump}: " in err and "'A'" in err

    def test_bad_overlap_pair_is_usage_error(self, tmp_path, pipeline):
        code = main(["overlap", "--traffic", str(pipeline["ingest"] / "traffic.tsv"),
                     "--pairs", "totalin_se", "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_overlap_key_writes_nothing(self, tmp_path, pipeline, capsys):
        # the valid first pair must not be written before the bad second one is seen
        code = run("overlap", "--traffic", pipeline["ingest"] / "traffic.tsv",
                   "--pairs", "total:in_se,total:bogus", "--out", tmp_path / "o")
        assert code == 2
        assert "argument --pairs: 'total:bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--bins", 0), ("--grid", 0), ("--grid", -1)])
    def test_bad_metrics_size_writes_nothing(self, tmp_path, pipeline, capsys, flag, value):
        code = run("metrics", "--traffic", pipeline["ingest"] / "traffic.tsv", flag, value,
                   "--out", tmp_path / "m")
        assert code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("sub", ["sample", "ingest"])
    def test_uncreatable_out_is_data_error(self, tmp_path, pipeline, capsys, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        if sub == "sample":  # --out is the file itself
            out = blocker
            args = ["--traffic", pipeline["ingest"] / "traffic.tsv", "--n", 5]
        else:  # --out lies under the file
            out = blocker / "sub"
            args = ["--clickstream", pipeline["clickstream"]]
        assert run(sub, *args, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "a regular file\n"

    # (subcommand, output name linked to a full device): the row writer,
    # report's copy and the JSON writer
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("sub, name", [("metrics", "metrics.tsv"), ("report", "metrics.tsv"),
                                           ("report", "index.json")])
    def test_failed_write_is_data_error(self, tmp_path, pipeline, capsys, sub, name):
        out = tmp_path / "o"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        args = {"metrics": ["--traffic", pipeline["ingest"] / "traffic.tsv"],
                "report": ["--inputs", pipeline["metrics"]]}[sub]
        assert run(sub, *args, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(out / name) in err and "No space left on device" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_failed_clearing_is_data_error(self, tmp_path, pipeline, capsys):
        out = tmp_path / "o"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("overlap", "--traffic", traffic, "--out", out) == 0
        listed = out / "overlap_total_in_se.csv"
        listed.unlink()
        listed.mkdir()  # a directory now: unlink cannot remove it
        assert run("overlap", "--traffic", traffic, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"cannot remove {listed}: " in err and "Traceback" not in err
        listed.rmdir()
        assert run("overlap", "--traffic", traffic, "--out", out) == 0

    def test_bad_depths_is_usage_error(self, tmp_path, pipeline):
        code = main(["overlap", "--traffic", str(pipeline["ingest"] / "traffic.tsv"),
                     "--depths", "1,two", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_header_only_traffic_overlap_is_data_error(self, tmp_path, capsys):
        # nothing to rank is bad data, as it is for metrics, not a usage error
        traffic = tmp_path / "traffic.tsv"
        traffic.write_text("article\tin_se\tin_nav\tout_nav\ttotal_views\n")
        assert run("overlap", "--traffic", traffic, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {traffic}: no articles to rank\n"
        assert not (tmp_path / "o").exists()

    def test_features_on_disjoint_tables_is_data_error(self, tmp_path, pipeline, capsys):
        # one row each, of three different articles: no article to join
        sources = {"--metrics": pipeline["metrics"] / "metrics.tsv", "--network": pipeline["graph"] / "network.tsv",
                   "--content": pipeline["content"]}
        files, used = {}, set()
        for flag, source in sources.items():
            header, *rows = source.read_text().splitlines()
            row = next(r for r in rows if r.split("\t")[0] not in used)
            used.add(row.split("\t")[0])
            files[flag] = tmp_path / source.name
            files[flag].write_text(f"{header}\n{row}\n")
        assert run("features", *(a for flag, path in files.items() for a in (flag, path)), "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {files['--metrics']}: no article is also in both {files['--network']} and {files['--content']}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_features_on_header_only_network_is_data_error(self, tmp_path, pipeline, capsys):
        network = tmp_path / "network.tsv"
        network.write_text((pipeline["graph"] / "network.tsv").read_text().splitlines()[0] + "\n")
        code = run("features", "--metrics", pipeline["metrics"] / "metrics.tsv", "--network", network,
                   "--content", pipeline["content"], "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"error: {network}: no articles to join\n"
        assert not (tmp_path / "o").exists()

    # each asks for 32 or 64 PiB, beyond any 64-bit address space, so the
    # allocation fails at once whatever the machine's overcommit setting
    @pytest.mark.parametrize("flag, value", [("--grid", 67108864), ("--bins", 9007199254740992)])
    def test_setting_too_large_to_allocate_is_data_error(self, tmp_path, pipeline, capsys, flag, value):
        out = tmp_path / "m"
        assert run("metrics", "--traffic", pipeline["ingest"] / "traffic.tsv", flag, value, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_depth_beyond_ranking_names_traffic_file(self, tmp_path, pipeline, capsys):
        traffic = pipeline["ingest"] / "traffic.tsv"
        n = len(traffic.read_text().splitlines()) - 1
        code = run("overlap", "--traffic", traffic, "--depths", f"1,{n + 1}", "--out", tmp_path / "o")
        assert code == 1
        assert f"error: {traffic}: depth {n + 1} exceeds ranking length {n}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--alpha", "1e308"), ("--beta", "1e307")])
    def test_overflowing_topic_setting_writes_nothing(self, tmp_path, pipeline, capsys, flag, value):
        # k*alpha or V*beta is inf: every weight would be 0 or nan, and phi or theta all 0.0
        code = run("topics", "--documents", pipeline["documents"], "--k", 3, "--iterations", 1,
                   flag, value, "--out", tmp_path / "t")
        assert code == 2
        assert f"error: {flag[2:]}={float(value)} is too large" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    # (subcommand, a flag, a value its type rejects, a fragment of the message)
    @pytest.mark.parametrize("sub, flag, value, message", [
        pytest.param("ingest", "--threads", "0", "is not an integer from 1", id="ingest-threads"),
        pytest.param("ingest", "--threads", "-3", "is not an integer from 1", id="ingest-threads-negative"),
        pytest.param("model", "--threads", "0", "is not an integer from 1", id="model-threads"),
        pytest.param("metrics", "--bins", "0", "is not an integer from 1", id="metrics-bins"),
        pytest.param("metrics", "--grid", "0", "is not an integer from 1", id="metrics-grid"),
        pytest.param("features", "--grid", "-1", "is not an integer from 0", id="features-grid"),
        pytest.param("topics", "--top-words", "0", "is not an integer from 1", id="topics-top-words"),
        pytest.param("topics", "--top-words", "-2", "is not an integer from 1", id="topics-top-words-negative"),
        pytest.param("sample", "--n", "0", "is not an integer from 1", id="sample-n"),
        pytest.param("sample", "--seed", "-1", "is not an integer from 0", id="sample-seed"),
        pytest.param("overlap", "--pairs", "total:bogus", "'total:bogus' is not", id="overlap-pairs"),
        pytest.param("overlap", "--pairs", "total:in_se, total:in_se", "'total:in_se' is given twice",
                     id="overlap-pairs-repeated"),
        pytest.param("overlap", "--depths", "1,two", "'two' is not", id="overlap-depths"),
        pytest.param("overlap", "--depths", "1,1_0", "'1_0' is not", id="overlap-depths-underscore"),
        pytest.param("overlap", "--depths", "0,5", "'0' is not", id="overlap-depths-zero"),
        pytest.param("overlap", "--depths", "5,2", "is not strictly increasing", id="overlap-depths-decreasing"),
        pytest.param("overlap", "--depths", "2,2", "'2' is given twice", id="overlap-depths-repeated"),
        pytest.param("bins", "--bins", "0", "is not an integer from 1", id="bins-bins"),
        pytest.param("bins", "--topic", "-1", "is not an integer from 0", id="bins-topic"),
        pytest.param("bins", "--topic", "1_0", "is not an integer from 0", id="bins-topic-underscore"),
        pytest.param("bins", "--bin-feature", "quadrant", "invalid choice: 'quadrant'", id="bins-bin-feature"),
        pytest.param("bins", "--target", "article", "invalid choice: 'article'", id="bins-target"),
        pytest.param("topics", "--k", "1", "is not an integer from 2", id="topics-k"),
        pytest.param("topics", "--iterations", "0", "is not an integer from 1", id="topics-iterations"),
        pytest.param("topics", "--alpha", "-1", "is not a positive finite number", id="topics-alpha"),
        pytest.param("topics", "--alpha", "0", "is not a positive finite number", id="topics-alpha-zero"),
        pytest.param("topics", "--beta", "-0.5", "is not a positive finite number", id="topics-beta"),
        pytest.param("topics", "--beta", "nan", "is not a positive finite number", id="topics-beta-nan"),
        pytest.param("topics", "--alpha", "1_0", "is not a positive finite number", id="topics-alpha-underscore"),
        pytest.param("topics", "--beta", " 0.5 ", "is not a positive finite number", id="topics-beta-padded"),
        pytest.param("model", "--trees", "-2", "is not an integer from 1", id="model-trees"),
        pytest.param("model", "--depth", "-1", "is not an integer from 0", id="model-depth"),
        pytest.param("model", "--rate", "0", "is not a positive finite number", id="model-rate"),
        pytest.param("model", "--rate", "-1", "is not a positive finite number", id="model-rate-negative"),
        pytest.param("model", "--rate", "nan", "is not a positive finite number", id="model-rate-nan"),
        pytest.param("model", "--rate", "inf", "is not a positive finite number", id="model-rate-inf"),
        pytest.param("model", "--rate", "\u0661", "is not a positive finite number", id="model-rate-non-ascii"),
        pytest.param("model", "--min-leaf", "-5", "is not an integer from 1", id="model-min-leaf"),
        pytest.param("model", "--folds", "1", "is not an integer from 2", id="model-folds"),
        pytest.param("model", "--threshold", "1.5", "is not a number from 0 to 1", id="model-threshold"),
        pytest.param("model", "--threshold", "0_1", "is not a number from 0 to 1", id="model-threshold-underscore"),
        pytest.param("model", "--task", "views", "invalid choice: 'views'", id="model-task"),
        pytest.param("model", "--groups", "bogus", "'bogus' is not one of", id="model-groups"),
        pytest.param("model", "--groups", "topic,topic", "'topic' is given twice", id="model-groups-repeated"),
        pytest.param("features", "--labels", "labels.txt", "needs --topics", id="features-labels-without-topics"),
    ])
    def test_bad_setting_is_rejected_before_any_read(self, tmp_path, capsys, sub, flag, value, message):
        # no input exists: a check made after the first read would be exit 1, "input file not found"
        inputs = {"ingest": ["--clickstream"], "metrics": ["--traffic"], "overlap": ["--traffic"],
                  "features": ["--metrics", "--network", "--content"], "bins": ["--joined"],
                  "topics": ["--documents"], "model": ["--joined"], "sample": ["--traffic"]}[sub]
        missing = [a for f in inputs for a in (f, tmp_path / "missing.tsv")]
        assert run(sub, *missing, flag, value, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err and message in err
        assert not (tmp_path / "o").exists()

    def test_every_setting_has_a_checked_type(self):
        # a flag's declaration checks its value: each flag that takes one has
        # choices or a type stricter than int, float or str
        unchecked = [
            f"{name} {action.option_strings[0]}"
            for name, parser in subcommand_parsers().items()
            for action in parser._actions
            if action.option_strings and action.nargs != 0 and action.choices is None
            and action.type in (None, int, float, str)
            and action.dest != "out" and (name, action.dest) != ("report", "inputs")
        ]
        assert unchecked == []

    # (subcommand, its flags, the input flag the data error names, a fragment of the message)
    @pytest.mark.parametrize("sub, flags, source, message", [
        pytest.param("bins", ["--joined", "joined", "--topic", 99], "joined", "no rows assigned to topic 99",
                     id="bins-topic"),
        pytest.param("bins", ["--joined", "joined", "--bins", 100000], "joined", "cannot fill 100000 bins",
                     id="bins-bins"),
        pytest.param("sample", ["--traffic", "traffic", "--n", 5000], "traffic", "cannot sample 5000 articles",
                     id="sample-n"),
        pytest.param("model", ["--joined", "joined", "--trees", 1, "--folds", 1000], "joined",
                     "fewer than 1000 folds", id="model-folds"),
        pytest.param("topics", ["--documents", "documents", "--k", 100000, "--iterations", 1], "documents",
                     "k=100000 exceeds vocabulary size", id="topics-k"),
    ])
    def test_data_error_names_its_input(self, tmp_path, pipeline, capsys, sub, flags, source, message):
        files = {"joined": pipeline["features"] / "joined.tsv", "traffic": pipeline["ingest"] / "traffic.tsv",
                 "documents": pipeline["documents"]}
        argv = [files.get(f, f) for f in flags]
        assert run(sub, *argv, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[source]}: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["metrics", "--traffic", "t.tsv", "--seed", "1"], "--seed"),
        (["model", "--joined", "j.tsv", "--strict"], "--strict"),
        (["sample", "--traffic", "t.tsv", "--config", "x"], "--config"),
    ], ids=["metrics-seed", "model-strict", "sample-config"])
    def test_undeclared_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stopwords", "--documents"])
    def test_empty_input_value_is_usage_error(self, tmp_path, pipeline, capsys, flag):
        inputs = {"--stopwords": ["--documents", pipeline["documents"], "--stopwords", ""],
                  "--documents": ["--documents", ""]}[flag]
        assert run("topics", *inputs, "--out", tmp_path / "t") == 2
        assert f"argument {flag}: must name a file" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


# ---------------------------------------------------------------------------
# defaults: a setting's default is written once, on its flag

# The library's own defaults: general helpers that callers in src/ set
# differently, fit_lda's per-sweep hook and the zeroed run counters.
KEPT_DEFAULTS = {
    "cli.main": {"argv"},
    "cli._OutputDir.file": {"kind"},
    "tableio.open_text": {"mode"},
    "tableio.write_rows": {"header", "metadata", "sep"},
    "tableio.read_keyvalues": {"key"},
    "topics.fit_lda": {"on_iteration"},
    "ingest.ParseStats": {"lines", "records", "malformed", "unknown_rawtype", "below_min_count", "header_lines"},
    "linkgraph.EdgeStats": {"lines", "malformed", "self_loops", "duplicates"},
    "features.JoinStats": {"kept", "dropped"},
}


def library_defaults(package: Path) -> list[str]:
    """``module.qualname.name`` of every parameter default and dataclass
    field default in the modules of `package`, in source order."""
    found: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                args = child.args
                positional = args.posonlyargs + args.args
                given = positional[len(positional) - len(args.defaults):]
                given += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.extend(f"{name}.{a.arg}" for a in given)
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}"
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    fields = [s.target.id for s in child.body if isinstance(s, ast.AnnAssign) and s.value is not None]
                    found.extend(f"{name}.{field}" for field in fields)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_each_default_lives_on_its_flag():
    # cli passes every setting, so a default in the library is a second
    # copy of the flag's, free to drift from it
    copies = [
        name for name in library_defaults(Path(clickroles.__file__).parent)
        if name.rsplit(".", 1)[1] not in KEPT_DEFAULTS.get(name.rsplit(".", 1)[0], ())
    ]
    assert copies == []


# ---------------------------------------------------------------------------
# usage errors: the parser refuses a flag, or a setting cannot work on the data

# the library functions whose settings can fail on the data alone: a
# feature group with no columns, LDA hyperparameters that overflow
USAGE_ERROR_FUNCTIONS = {"model.select_group", "topics.fit_lda"}


def usage_error_raises(package: Path) -> list[str]:
    """``module.qualname:line`` of every ``raise UsageError`` in the
    modules of `package` but cli, in source order."""
    found: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "UsageError":
                    found.append(f"{prefix}:{child.lineno}")
            visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        if path.stem != "cli":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_usage_error_is_raised_only_where_a_setting_meets_the_data():
    # each flag's rule is checked once, by the parser; any other UsageError
    # below it checks a condition that a caller in src/ already rules out
    sites = usage_error_raises(Path(clickroles.__file__).parent)
    stray = [site for site in sites if site.partition(":")[0] not in USAGE_ERROR_FUNCTIONS]
    assert stray == [], "every library raise of UsageError:\n" + "\n".join(sites)


# ---------------------------------------------------------------------------
# per-subcommand outputs


class TestOutputs:
    def test_ingest_files(self, pipeline):
        names = {p.name for p in pipeline["ingest"].iterdir()}
        assert names == {"traffic.tsv", "ingest_stats.txt", "manifest.json"}

    def test_ingest_stats_counts(self, pipeline):
        stats = read_keyvalues(pipeline["ingest"] / "ingest_stats.txt")
        assert stats["articles"] == "50"
        assert stats["lines"] == "400"  # 2 per article + 300 link rows
        assert stats["records"] == "400"
        assert stats["malformed"] == "0"

    def test_metrics_files(self, pipeline):
        names = {p.name for p in pipeline["metrics"].iterdir()}
        assert {"metrics.tsv", "thresholds.txt", "group_shares.tsv",
                "correlations.txt", "histogram_searchshare.tsv",
                "histogram_resistance.tsv", "heatmap_articles.csv",
                "heatmap_views.csv", "manifest.json"} == names

    def test_constant_metric_column_leaves_correlations_empty(self, tmp_path, capsys):
        # pure search inflow: searchshare and resistance are 1.0 for every article
        traffic = tmp_path / "traffic.tsv"
        traffic.write_text("article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t10\t0\t0\t10\nB\t20\t0\t0\t20\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("metrics", "--traffic", traffic, "--out", tmp_path / "m")
        assert [str(w.message) for w in caught] == []
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "m" / "correlations.txt").read_text() == "pearson=\nspearman=\n"

    def test_one_article_has_no_correlations(self, tmp_path, capsys):
        traffic = tmp_path / "traffic.tsv"
        traffic.write_text("article\tin_se\tin_nav\tout_nav\ttotal_views\nA\t10\t5\t3\t15\n")
        assert run("metrics", "--traffic", traffic, "--out", tmp_path / "m") == 0
        assert capsys.readouterr().err == ""
        names = {p.name for p in (tmp_path / "m").iterdir()}
        assert "correlations.txt" not in names and "metrics.tsv" in names

    def test_histogram_totals(self, pipeline):
        lines = (pipeline["metrics"] / "histogram_searchshare.tsv").read_text().splitlines()
        header, rows = lines[0].split("\t"), [l.split("\t") for l in lines[1:]]
        assert header == ["bin", "low", "high", "articles", "views"]
        assert len(rows) == 50
        assert sum(int(r[3]) for r in rows) == 50  # every article in some bin

    def test_histogram_views_are_plain_numbers(self, pipeline):
        for directory in ("metrics", "report"):
            for name in ("histogram_searchshare.tsv", "histogram_resistance.tsv"):
                lines = (pipeline[directory] / name).read_text().splitlines()
                column = lines[0].split("\t").index("views")
                for line in lines[1:]:
                    float(line.split("\t")[column])  # not np.float64(...)

    def test_overlap_default_pairs(self, pipeline):
        names = sorted(p.name for p in pipeline["overlap"].iterdir() if p.suffix == ".csv")
        assert len(names) == 6  # all unordered key pairs
        assert "overlap_total_in_se.csv" in names

    def test_overlap_explicit_pair(self, tmp_path, pipeline):
        out = tmp_path / "o"
        assert run("overlap", "--traffic", pipeline["ingest"] / "traffic.tsv",
                   "--pairs", "total:in_se", "--depths", "1,5,10", "--out", out) == 0
        curves = [p.name for p in out.iterdir() if p.suffix == ".csv"]
        assert curves == ["overlap_total_in_se.csv"]

    def test_graph_stats_source(self, pipeline):
        stats = read_keyvalues(pipeline["graph"] / "graph_stats.txt")
        assert stats["edge_source"] == "clickstream-approximation"
        assert int(stats["nodes"]) == 50
        assert int(stats["edges"]) > 0

    def test_graph_from_clickstream_counts_skipped_lines(self, tmp_path):
        dump = tmp_path / "clicks.tsv"
        dump.write_text("other-search\tA\texternal\t30\nA\tB\tlink\t20\nA\tB\t7\n"
                        "B\tC\tlink\tmany\nB\tC\tweird\t15\n")
        assert run("ingest", "--clickstream", dump, "--out", tmp_path / "i") == 0
        ingest = read_keyvalues(tmp_path / "i" / "ingest_stats.txt")
        assert (ingest["malformed"], ingest["unknown_rawtype"]) == ("2", "1")
        assert run("graph", "--clickstream", dump, "--out", tmp_path / "g") == 0
        graph = read_keyvalues(tmp_path / "g" / "graph_stats.txt")
        assert (graph["edges"], graph["malformed"]) == ("1", "3")

    def test_graph_from_edge_list(self, tmp_path, pipeline):
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\nB\tC\nC\tA\n")
        out = tmp_path / "g"
        assert run("graph", "--edges", edges, "--out", out) == 0
        stats = read_keyvalues(out / "graph_stats.txt")
        assert stats["edge_source"] == "edge-list"
        assert stats["nodes"] == "3" and stats["edges"] == "3"

    def test_blank_edge_lines_are_skipped(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("\nA\tB\n\n\nB\tC\n\n")
        assert run("graph", "--edges", edges, "--strict", "--out", tmp_path / "s") == 0
        assert run("graph", "--edges", edges, "--out", tmp_path / "g") == 0
        stats = read_keyvalues(tmp_path / "g" / "graph_stats.txt")
        assert (stats["nodes"], stats["edges"], stats["malformed"]) == ("3", "2", "0")

    def test_crlf_input_matches_lf(self, tmp_path, pipeline):
        clicks = pipeline["clickstream"].read_bytes()
        edges = b"A\tB\nB\tC\nC\tA\nC\tD\n"
        variants = {
            "lf.tsv": lambda b: b,
            "crlf.tsv": lambda b: b.replace(b"\n", b"\r\n"),
            "crlf.tsv.gz": lambda b: gzip.compress(b.replace(b"\n", b"\r\n")),
        }
        outputs = set()
        for suffix, encode in variants.items():
            (tmp_path / f"clicks_{suffix}").write_bytes(encode(clicks))
            (tmp_path / f"edges_{suffix}").write_bytes(encode(edges))
            ingest, graph = tmp_path / f"ingest_{suffix}", tmp_path / f"graph_{suffix}"
            assert run("ingest", "--clickstream", tmp_path / f"clicks_{suffix}", "--out", ingest) == 0
            assert run("graph", "--edges", tmp_path / f"edges_{suffix}", "--out", graph) == 0
            outputs.add(((ingest / "traffic.tsv").read_bytes(), (graph / "network.tsv").read_bytes()))
        assert len(outputs) == 1

    def test_topics_files(self, pipeline):
        names = {p.name for p in pipeline["topics"].iterdir()}
        assert {"topics.tsv", "phi.csv", "theta.csv", "top_words.txt",
                "corpus_stats.txt", "manifest.json"} == names

    def test_features_files(self, pipeline):
        names = {p.name for p in pipeline["features"].iterdir()}
        assert {"joined.tsv", "medians.tsv", "join_stats.txt", "topic_stats.tsv",
                "ratio_topic_0.csv", "ratio_topic_1.csv", "manifest.json"} == names

    def test_bins_file_name_reflects_features(self, pipeline):
        assert (pipeline["bins"] / "bins_kcore_searchshare.csv").exists()

    def test_model_eval_structure(self, pipeline):
        lines = (pipeline["model"] / "eval.csv").read_text().splitlines()
        assert lines[0] == "task,feature_group,fold,auc"
        # four groups (topic columns present) x (4 folds + mean)
        assert len(lines) == 1 + 4 * 5
        groups = {line.split(",")[1] for line in lines[1:]}
        assert groups == {"network", "content-edit", "topic", "all"}

    def test_model_resistance_task(self, tmp_path, pipeline):
        joined = pipeline["features"] / "joined.tsv"
        out = tmp_path / "m"
        assert run("model", "--joined", joined, "--task", "resistance", "--groups", "network",
                   "--trees", 3, "--folds", 3, "--min-leaf", 2, "--out", out) == 0
        tasks = {line.split(",")[0] for line in (out / "eval.csv").read_text().splitlines()[1:]}
        assert tasks == {"resistance"}
        # a relay is at or below the 0.88 cut; every row has a topic, so none is dropped
        table = read_joined_table(joined)
        stats = read_keyvalues(out / "model_stats.txt")
        assert stats["dropped_without_topic"] == "0"
        assert int(stats["positives"]) == int(np.count_nonzero(table["resistance"] <= 0.88))

    def test_saved_models_load_and_predict(self, pipeline):
        model = load_model(pipeline["model"] / "model_network.json")
        scores = model.decision_scores(np.zeros((4, len(model.feature_names))))
        assert scores.shape == (4,)
        assert np.isfinite(scores).all()

    def test_sample_is_subset(self, pipeline):
        full = (pipeline["ingest"] / "traffic.tsv").read_text().splitlines()
        sample = (pipeline["sample"] / "traffic_sample.tsv").read_text().splitlines()
        assert len(sample) == 11  # header + 10 rows
        assert sample[0] == full[0]
        assert set(sample[1:]) <= set(full[1:])

    def test_sample_seed_determinism(self, tmp_path, pipeline):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("sample", "--traffic", traffic, "--n", 10, "--seed", 3, "--out", a) == 0
        assert run("sample", "--traffic", traffic, "--n", 10, "--seed", 3, "--out", b) == 0
        assert run("sample", "--traffic", traffic, "--n", 10, "--seed", 4, "--out", c) == 0
        read = lambda d: (d / "traffic_sample.tsv").read_bytes()
        assert read(a) == read(b)
        assert read(a) != read(c)


# ---------------------------------------------------------------------------
# manifests


class TestManifests:
    def test_round_trip(self, tmp_path):
        source = tmp_path / "in.tsv"
        source.write_text("x\n")
        outputs = {"b_stats.txt": None, "a.tsv": "demo_table"}
        manifest = build_manifest("demo", {"bins": 3}, [source], outputs, seed=5)
        write_manifest(tmp_path, manifest)
        back = read_manifest(tmp_path)
        assert back == manifest
        assert list(back.outputs) == ["a.tsv", "b_stats.txt"]
        assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == {
            "a.tsv": "demo_table", "b_stats.txt": None,
        }

    def test_missing_input_rejected(self, tmp_path):
        with pytest.raises(DataError):
            build_manifest("demo", {}, [tmp_path / "absent"], {}, None)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path)

    def test_every_emitted_file_is_listed(self, pipeline):
        for name in ("ingest", "metrics", "overlap", "graph", "topics",
                     "features", "bins", "model", "sample", "report"):
            directory = pipeline[name]
            manifest = read_manifest(directory)
            actual = sorted(p.name for p in directory.iterdir() if p.name != "manifest.json")
            assert list(manifest.outputs) == actual, name
            assert manifest.subcommand == name

    def test_config_is_the_declared_flags(self, tmp_path, pipeline):
        for name, parser in subcommand_parsers().items():
            manifest = read_manifest(pipeline[name])
            declared = {a.dest for a in parser._actions if a.dest != "help"}
            assert set(manifest.config) == declared - {"out", "seed"}, name
            assert manifest.seed == (0 if name in ("topics", "model", "sample") else None), name
        assert read_manifest(pipeline["overlap"]).config["pairs"] == [list(p) for p in combinations(RANKING_KEYS, 2)]
        assert run("overlap", "--traffic", pipeline["ingest"] / "traffic.tsv", "--pairs", "total:in_se, in_nav:out_nav",
                   "--depths", "1,2", "--out", tmp_path / "o") == 0
        config = read_manifest(tmp_path / "o").config
        assert config["pairs"] == [["total", "in_se"], ["in_nav", "out_nav"]] and config["depths"] == [1, 2]
        assert read_manifest(pipeline["model"]).config["groups"] is None

    def test_diagnostics_have_no_kind(self, pipeline):
        for name, diagnostic in (("ingest", "ingest_stats.txt"), ("graph", "graph_stats.txt"),
                                 ("features", "join_stats.txt"), ("topics", "corpus_stats.txt"),
                                 ("model", "model_stats.txt"), ("report", "index.json")):
            outputs = read_manifest(pipeline[name]).outputs
            assert outputs[diagnostic] is None, name
            assert all(kind for n, kind in outputs.items() if n != diagnostic), name

    @pytest.mark.parametrize("text", [
        b'{"subcommand": "metrics", "outp',  # truncated
        b'{"subcommand": "\xff"}',
        b"{}",
        b"[]",
        b'{"subcommand": "metrics", "version": "x", "seed": 0, "config": {}, "inputs": {}, '
        b'"outputs": ["metrics.tsv"], "created": "x"}',  # the list form of earlier versions
        b'{"subcommand": "metrics", "version": "x", "seed": 0, "config": {}, "inputs": {}, '
        b'"outputs": {"../metrics.tsv": "metrics_table"}, "created": "x"}',
    ], ids=["truncated", "invalid-utf8", "empty-object", "not-an-object", "outputs-list", "outputs-path"])
    def test_bad_manifest_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_bytes(text)
        with pytest.raises(DataError, match=re.escape(str(bad / "manifest.json"))):
            read_manifest(bad)
        code = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "r")])
        assert code == 1
        assert f"{bad / 'manifest.json'}: " in capsys.readouterr().err

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, pipeline, monkeypatch, capsys):
        out = tmp_path / "m"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("metrics", "--traffic", traffic, "--out", out) == 0
        assert (out / "manifest.json").exists()

        def fail(path, thresholds):
            raise DataError(f"cannot write {path}")

        monkeypatch.setattr("clickroles.cli.write_thresholds", fail)
        assert run("metrics", "--traffic", traffic, "--out", out) == 1
        assert "thresholds.txt" in capsys.readouterr().err
        assert (out / "metrics.tsv").exists()  # written before the failure
        assert not (out / "manifest.json").exists()
        code = main(["report", "--inputs", str(out), "--out", str(tmp_path / "r")])
        assert code == 1
        assert str(out) in capsys.readouterr().err

    def test_usage_error_keeps_manifest(self, tmp_path, pipeline):
        out = tmp_path / "m"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("metrics", "--traffic", traffic, "--out", out) == 0
        assert run("metrics", "--traffic", traffic, "--bins", 0, "--out", out) == 2
        assert read_manifest(out).subcommand == "metrics"

    def test_rerun_removes_listed_outputs_only(self, tmp_path, pipeline):
        out = tmp_path / "o"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("overlap", "--traffic", traffic, "--out", out) == 0
        (out / "notes.txt").write_text("kept\n")
        assert run("overlap", "--traffic", traffic, "--pairs", "total:in_se", "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt", "overlap_total_in_se.csv"]

    def test_rerun_over_unreadable_manifest_removes_only_it(self, tmp_path, pipeline):
        out = tmp_path / "o"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("overlap", "--traffic", traffic, "--out", out) == 0
        (out / "manifest.json").write_text("{")
        assert run("overlap", "--traffic", traffic, "--pairs", "total:in_se", "--out", out) == 0
        assert len(list(out.glob("overlap_*.csv"))) == 6
        assert list(read_manifest(out).outputs) == ["overlap_total_in_se.csv"]

    def test_rerun_keeps_listed_file_named_as_input(self, tmp_path, pipeline):
        out = tmp_path / "o"
        assert run("ingest", "--clickstream", pipeline["clickstream"], "--out", out) == 0
        assert run("metrics", "--traffic", out / "traffic.tsv", "--out", out) == 0
        assert (out / "traffic.tsv").exists()
        assert not (out / "ingest_stats.txt").exists()
        assert read_manifest(out).subcommand == "metrics"

    def test_inputs_are_hashed(self, pipeline):
        manifest = read_manifest(pipeline["ingest"])
        digest = next(iter(manifest.inputs.values()))
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_inputs_are_the_input_flags_in_flag_order(self, tmp_path, pipeline, monkeypatch):
        # manifest.json sorts its keys, so the order is seen where it is built
        built = []

        def spy(subcommand, config, inputs, outputs, seed=None):
            built.append(list(map(str, inputs)))
            return build_manifest(subcommand, config, inputs, outputs, seed=seed)

        monkeypatch.setattr("clickroles.cli.build_manifest", spy)
        p = pipeline
        traffic, joined = p["ingest"] / "traffic.tsv", p["features"] / "joined.tsv"
        tables = [p["metrics"] / "metrics.tsv", p["graph"] / "network.tsv", p["content"]]
        expected = {
            p["ingest"]: [p["clickstream"]],
            p["metrics"]: [traffic],
            p["overlap"]: [traffic],
            p["sample"]: [traffic],
            p["graph"]: [p["clickstream"]],
            p["topics"]: [p["documents"]],
            p["features"]: [*tables, p["topics"] / "topics.tsv"],
            p["bins"]: [joined],
            p["model"]: [joined],
        }
        edges, stopwords, labels = tmp_path / "edges.tsv", tmp_path / "stop.txt", tmp_path / "labels.txt"
        edges.write_text("A\tB\nB\tC\n")
        stopwords.write_text("alphaaa\n")
        labels.write_text("0=Sports\n")
        fresh = {tmp_path / "g": [edges], tmp_path / "t": [p["documents"], stopwords],
                 tmp_path / "f": [*tables, p["topics"] / "topics.tsv", labels], tmp_path / "f0": tables}
        assert run("graph", "--edges", edges, "--out", tmp_path / "g") == 0
        assert run("topics", "--stopwords", stopwords, "--documents", p["documents"],
                   "--k", 2, "--iterations", 2, "--out", tmp_path / "t") == 0
        # given in another order than the flags are declared in
        assert run("features", "--labels", labels, "--topics", p["topics"] / "topics.tsv",
                   "--content", p["content"], "--network", tables[1], "--metrics", tables[0],
                   "--grid", 0, "--out", tmp_path / "f") == 0
        assert run("features", "--metrics", tables[0], "--network", tables[1], "--content", p["content"],
                   "--out", tmp_path / "f0") == 0
        assert built == [list(map(str, inputs)) for inputs in fresh.values()]
        for directory, inputs in {**expected, **fresh}.items():
            assert sorted(read_manifest(directory).inputs) == sorted(map(str, inputs)), directory
        index = json.loads((p["report"] / "index.json").read_text())["files"]
        bundled = [str(Path(e["source"]) / e["file"]) for e in index]
        assert sorted(read_manifest(p["report"]).inputs) == sorted(bundled)


# ---------------------------------------------------------------------------
# determinism


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in directory.iterdir()
        if p.name != "manifest.json"
    }


def manifest_without_timestamp(directory: Path) -> dict:
    doc = json.loads((directory / "manifest.json").read_text())
    doc.pop("created")
    return doc


class TestDeterminism:
    def test_rerun_is_byte_identical_except_timestamp(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        traffic = pipeline["ingest"] / "traffic.tsv"
        for out in (a, b):
            assert run("metrics", "--traffic", traffic, "--out", out) == 0
        assert tree_bytes(a) == tree_bytes(b)
        assert manifest_without_timestamp(a) == manifest_without_timestamp(b)

    def test_model_rerun_identical(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        joined = pipeline["features"] / "joined.tsv"
        for out in (a, b):
            assert run("model", "--joined", joined, "--groups", "network",
                       "--trees", 10, "--folds", 3, "--min-leaf", 2, "--out", out) == 0
        assert tree_bytes(a) == tree_bytes(b)
        assert read_manifest(a).config["groups"] == ["network"]

    def test_thread_count_does_not_change_outputs(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("ingest", "--clickstream", pipeline["clickstream"],
                   "--threads", 1, "--out", a) == 0
        assert run("ingest", "--clickstream", pipeline["clickstream"],
                   "--threads", 3, "--out", b) == 0
        assert (a / "traffic.tsv").read_bytes() == (b / "traffic.tsv").read_bytes()

    def test_model_threads_identical(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        joined = pipeline["features"] / "joined.tsv"
        assert run("model", "--joined", joined, "--groups", "all", "--trees", 10,
                   "--folds", 3, "--min-leaf", 2, "--threads", 1, "--out", a) == 0
        assert run("model", "--joined", joined, "--groups", "all", "--trees", 10,
                   "--folds", 3, "--min-leaf", 2, "--threads", 4, "--out", b) == 0
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()


# ---------------------------------------------------------------------------
# report bundles


class TestReport:
    def test_bundle_contents(self, pipeline):
        index = json.loads((pipeline["report"] / "index.json").read_text())
        names = [e["file"] for e in index["files"]]
        assert names == sorted(names)
        for e in index["files"]:
            assert (pipeline["report"] / e["file"]).exists()
            assert e["kind"] == read_manifest(e["source"]).outputs[e["file"]]
        bundled = {p.name for p in pipeline["report"].iterdir()}
        assert bundled == set(names) | {"index.json", "manifest.json"}
        kinds = read_manifest(pipeline["report"]).outputs
        assert kinds == {**{e["file"]: e["kind"] for e in index["files"]}, "index.json": None}

    def test_run_stats_left_out(self, pipeline):
        bundled = {p.name for p in pipeline["report"].iterdir()}
        assert "ingest_stats.txt" not in bundled
        assert "join_stats.txt" not in bundled
        assert "topic_stats.tsv" in bundled  # a deliverable, not run diagnostics

    def test_copies_are_faithful(self, pipeline):
        original = (pipeline["metrics"] / "metrics.tsv").read_bytes()
        assert (pipeline["report"] / "metrics.tsv").read_bytes() == original

    def test_identical_duplicates_collapse(self, tmp_path, pipeline):
        out = tmp_path / "r"
        assert run("report", "--inputs", pipeline["metrics"], pipeline["metrics"],
                   "--out", out) == 0
        assert (out / "metrics.tsv").exists()

    def test_conflicting_duplicates_rejected(self, tmp_path, pipeline, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "metrics.tsv").write_text("article\tdifferent\n")
        write_manifest(clone, build_manifest("metrics", {}, [], {"metrics.tsv": "metrics_table"}, None))
        code = main(["report", "--inputs", str(pipeline["metrics"]), str(clone),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "metrics.tsv" in capsys.readouterr().err

    def test_empty_inputs_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"  # of deliverables: it holds one run diagnostic
        empty.mkdir()
        (empty / "graph_stats.txt").write_text("nodes=1\n")
        write_manifest(empty, build_manifest("graph", {}, [], {"graph_stats.txt": None}, None))
        code = main(["report", "--inputs", str(empty), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "ingest" in capsys.readouterr().err

    def test_input_without_manifest_rejected(self, tmp_path, pipeline, capsys):
        copy = tmp_path / "copy"
        copy.mkdir()
        (copy / "traffic.tsv").write_bytes((pipeline["ingest"] / "traffic.tsv").read_bytes())
        code = main(["report", "--inputs", str(pipeline["metrics"]), str(copy),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert str(copy) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_listed_file_rejected(self, tmp_path, pipeline, capsys):
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        for p in pipeline["metrics"].iterdir():
            (damaged / p.name).write_bytes(p.read_bytes())
        (damaged / "heatmap_views.csv").unlink()
        code = main(["report", "--inputs", str(damaged), "--out", str(tmp_path / "r")])
        assert code == 1
        assert str(damaged / "heatmap_views.csv") in capsys.readouterr().err

    def test_narrowed_rerun_bundles_only_listed_files(self, tmp_path, pipeline):
        out, bundle = tmp_path / "o", tmp_path / "r"
        traffic = pipeline["ingest"] / "traffic.tsv"
        assert run("overlap", "--traffic", traffic, "--out", out) == 0
        assert len(list(out.glob("overlap_*.csv"))) == 6
        assert run("overlap", "--traffic", traffic, "--pairs", "total:in_se", "--out", out) == 0
        assert list(read_manifest(out).outputs) == ["overlap_total_in_se.csv"]
        assert run("report", "--inputs", out, "--out", bundle) == 0
        bundled = {p.name for p in bundle.iterdir()}
        assert bundled == {"overlap_total_in_se.csv", "index.json", "manifest.json"}

    def test_missing_directory_rejected(self, tmp_path, capsys):
        code = main(["report", "--inputs", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'ghost'}: not a directory\n"

    def test_rerun_with_own_out_among_inputs(self, tmp_path, pipeline):
        out = tmp_path / "r"
        assert run("report", "--inputs", pipeline["metrics"], pipeline["bins"], "--out", out) == 0
        first = tree_bytes(out)
        # listed first, the earlier bundle would be the source of every copy
        assert run("report", "--inputs", out, pipeline["metrics"], pipeline["bins"], "--out", out) == 0
        assert "index.json" in first and "metrics.tsv" in first
        assert tree_bytes(out) == first

    def test_rerun_is_stable(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("report", "--inputs", pipeline["metrics"], pipeline["bins"],
                       "--out", out) == 0
        assert tree_bytes(a) == tree_bytes(b)


# ---------------------------------------------------------------------------
# golden output digests

GOLDEN = Path(__file__).parent / "golden" / "pipeline.sha256"
# hold the run timestamp and the absolute tmp paths of their inputs
VOLATILE = {"manifest.json", "run/report/index.json"}


def output_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if path.is_file() and path.name not in VOLATILE and name not in VOLATILE:
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestGolden:
    def test_pipeline_outputs_match_golden_digests(self, pipeline):
        actual = output_digests(pipeline["root"])
        expected = {}
        for line in GOLDEN.read_text().splitlines():
            digest, _, name = line.partition("  ")
            expected[name] = digest
        if actual != expected:
            new = "".join(f"{digest}  {name}\n" for name, digest in actual.items())
            pytest.fail(f"pipeline outputs differ from {GOLDEN}; new digests:\n{new}")


# ---------------------------------------------------------------------------
# mutated inputs

# each kind of damage once per input, then this many more of the random kinds
EXTRA_CASES = 30
FUZZ_SECONDS = 15.0
RANDOM_MUTATIONS = ("truncate", "flip", "duplicate", "drop", "extra-tab", "cell")
MUTATIONS = RANDOM_MUTATIONS + ("header-only", "empty", "crlf", "truncated-gzip")
BAD_CELLS = [b"nan", b"1e400", b"inf", b"-1", b" 3", b"\xff", b"9" * 20, b""]


def mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
    """`data`, a file of LF-ended lines, damaged by one mutation `kind`;
    "truncated-gzip" gives the first half of its gzip."""
    lines = data.split(b"\n")[:-1]
    row = rng.randrange(len(lines))
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "flip":
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        return bytes(flipped)
    if kind == "truncated-gzip":
        packed = gzip.compress(data)
        return packed[: len(packed) // 2]
    if kind == "empty":
        return b""
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "header-only":
        lines = lines[:1]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "drop":
        del lines[row]
    elif kind == "extra-tab":
        at = rng.randrange(len(lines[row]) + 1)
        lines[row] = lines[row][:at] + b"\t" + lines[row][at:]
    else:  # "cell"
        cells = lines[row].split(b"\t")
        cells[rng.randrange(len(cells))] = rng.choice(BAD_CELLS)
        lines[row] = b"\t".join(cells)
    return b"".join(line + b"\n" for line in lines)


def fuzzed_runs(p: dict[str, Path], made: dict[str, Path]) -> list[tuple[str, dict[str, Path], str, list]]:
    """(subcommand, its input files by flag, the flag whose file is mutated,
    its other flags): every input of every subcommand that reads files;
    `made` holds the edge list, labels and stop words the pipeline does
    not use."""
    traffic, joined = p["ingest"] / "traffic.tsv", p["features"] / "joined.tsv"
    tables = {"--metrics": p["metrics"] / "metrics.tsv", "--network": p["graph"] / "network.tsv",
              "--content": p["content"], "--topics": p["topics"] / "topics.tsv"}
    runs = [
        ("ingest", {"--clickstream": p["clickstream"]}, []),
        ("metrics", {"--traffic": traffic}, ["--bins", 5, "--grid", 5]),
        ("overlap", {"--traffic": traffic}, []),
        ("sample", {"--traffic": traffic}, ["--n", 10]),
        ("graph", {"--edges": made["edges.tsv"]}, []),
        ("graph", {"--clickstream": p["clickstream"]}, []),
        ("topics", {"--documents": p["documents"]}, ["--k", 2, "--iterations", 2]),
        ("bins", {"--joined": joined}, ["--bins", 5]),
        ("model", {"--joined": joined}, ["--trees", 2, "--folds", 3, "--min-leaf", 2]),
    ]
    return [(sub, inputs, flag, extra) for sub, inputs, extra in runs for flag in inputs] + [
        ("features", tables, flag, ["--grid", 5]) for flag in tables
    ] + [
        ("features", {**tables, "--labels": made["labels.txt"]}, "--labels", ["--grid", 5]),
        ("topics", {"--documents": p["documents"], "--stopwords": made["stopwords.txt"]}, "--stopwords",
         ["--k", 2, "--iterations", 2]),
    ]


def test_mutated_inputs_end_in_a_clean_exit(tmp_path, pipeline, capsys):
    """Each damaged input ends in exit 0, 1 or 2, with no traceback and
    no --out unless the run succeeds; an exit-1 message names the
    damaged file first."""
    rng = random.Random(7)
    made = {name: tmp_path / name for name in ("edges.tsv", "labels.txt", "stopwords.txt")}
    links = [line.split("\t")[:2] for line in pipeline["clickstream"].read_text().splitlines()]
    made["edges.tsv"].write_text("".join(f"{a}\t{b}\n" for a, b in links if not a.startswith("other-")))
    made["labels.txt"].write_text("# topic names\n0=Sports\n1=Arts\n")
    made["stopwords.txt"].write_text("the\nalphaaa\nbravobb\n")
    started = time.perf_counter()
    failures, codes = [], []
    for sub, inputs, flag, extra in fuzzed_runs(pipeline, made):
        kinds = list(MUTATIONS) + [rng.choice(RANDOM_MUTATIONS) for _ in range(EXTRA_CASES)]
        for kind in kinds:
            case = tmp_path / f"case{len(codes)}"
            case.mkdir()
            source = inputs[flag]
            damaged = case / (source.name + (".gz" if kind == "truncated-gzip" else ""))
            damaged.write_bytes(mutate(source.read_bytes(), kind, rng))
            files = {**inputs, flag: damaged}
            out = case / "out"
            argv = [sub, *(a for f, path in files.items() for a in (f, path)), *extra, "--out", out]
            what = f"{sub} {flag} {kind} ({damaged})"
            try:
                code = run(*argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure reported
                failures.append(f"{what}: raised {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            codes.append(code)
            if code not in (0, 1, 2) or "Traceback" in err:
                failures.append(f"{what}: exit {code}: {err}")
            if code != 0 and out.exists():
                failures.append(f"{what}: exit {code} left {sorted(p.name for p in out.iterdir())}")
            if code == 1 and not err.startswith(f"error: {damaged}"):
                failures.append(f"{what}: the message does not start with the file: {err}")
    elapsed = time.perf_counter() - started
    assert not failures, "\n".join(failures)
    assert len(codes) == len(fuzzed_runs(pipeline, made)) * (len(MUTATIONS) + EXTRA_CASES)
    assert elapsed < FUZZ_SECONDS, f"{len(codes)} cases took {elapsed:.1f} s"
