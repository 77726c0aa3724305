"""Command-line entry point.

One command, ten subcommands, wiring the pipeline end to end:

    ingest    clickstream dump -> per-article traffic table
    metrics   traffic table -> searchshare/resistance, roles, histograms
    overlap   traffic table -> cumulative rank-overlap curves
    graph     edge list or clickstream -> degrees and k-core table
    features  metric + network + content (+ topic) tables -> joined table,
              role medians, topic statistics, per-topic ratio grids
    bins      joined table -> quartile curve over equal-count bins
    topics    article texts -> fitted topic model and assignments
    model     joined table -> cross-validated classifiers and AUC report
    sample    traffic table -> seeded uniform article sample
    report    earlier output dirs -> one plot-ready bundle with an index

Every subcommand takes --out and writes its files there; `main` then
writes the manifest, which hashes the files its input-file flags name
(the flags of type _Input). Exit codes: 0 success, 1 bad data, 2 bad
usage. All randomness comes from --seed; a --config file supplies
key=value defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, UsageError
from .features import (
    binned_quartiles,
    group_medians,
    join_features,
    read_content_table,
    read_joined_table,
    read_topic_assignments,
    relative_difference_heatmap,
    topic_statistics,
    write_bin_table,
    write_group_medians,
    write_joined_table,
    write_topic_stats,
)
from .ingest import (
    ParseStats,
    parse_clickstream,
    read_traffic_file,
    read_traffic_table,
    write_traffic_table,
)
from .linkgraph import (
    EdgeStats,
    build_graph,
    edges_from_clickstream,
    graph_from_file,
    network_features,
    read_network_table,
    write_network_table,
)
from .manifest import MANIFEST_NAME, build_manifest, read_manifest, write_manifest
from .metrics import (
    correlations,
    group_shares,
    heatmap_grid,
    histogram,
    metrics_table,
    read_metrics_table,
    write_group_shares,
    write_metrics_table,
    write_thresholds,
)
from .model import (
    FEATURE_GROUPS,
    GBDTConfig,
    balance,
    build_instances,
    cross_validate,
    save_model,
    select_group,
    train_gbdt,
    write_eval_report,
)
from .overlap import RANKING_KEYS, cumulative_overlap, default_ks, rank_articles, write_curve
from .tableio import (
    iter_lines, make_dir, oserror_as_data, parse_count, read_keyvalues, write_json, write_keyvalues, write_matrix_csv,
    write_rows,
)
from .topics import (
    DEFAULT_STOP_WORDS,
    DEFAULT_TOPIC_LABELS,
    corpus_from_file,
    fit_lda,
    read_stop_words,
    write_assignments,
    write_phi,
    write_theta,
    write_top_words,
)

# flags that take no value; config-file entries for them are true/false
_BOOL_KEYS = frozenset({"strict"})


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError instead of exiting."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


class _Input(str):
    """The type of a flag that names an input file: the manifest hashes it,
    and a rerun's clearing of --out never removes it."""


class _OutputDir:
    """Tracks every file a subcommand emits, with its kind, and the run's
    input files, for the manifest."""

    def __init__(self, args):
        self.path = Path(args.out)
        self.kinds: dict[str, str | None] = {}
        # the input-file flags' values in flag order; report sets its bundled files
        self.inputs: list[str] = [v for v in vars(args).values() if isinstance(v, _Input)]

    def file(self, name: str, kind: str | None = None) -> Path:
        """The path to write output `name` to; `kind` names what it holds
        for report, and None marks a run diagnostic that report leaves out."""
        if not self.kinds:
            self._clear()
        self.kinds[name] = kind
        return self.path / name

    def _clear(self) -> None:
        """Remove the files an earlier run's manifest lists, then the
        manifest: a rerun leaves none of the earlier run's outputs beside
        its own, and a rerun that fails partway leaves no manifest. An
        unreadable manifest is removed alone; unlisted files stay."""
        try:
            listed = [self.path / name for name in read_manifest(self.path).outputs]
        except DataError:
            listed = []
        inputs = {Path(p).resolve() for p in self.inputs}
        for path in [*listed, self.path / MANIFEST_NAME]:
            if path.resolve() in inputs:
                continue
            with oserror_as_data(f"cannot remove {path}"):
                try:
                    path.unlink()
                except (FileNotFoundError, NotADirectoryError):
                    pass


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative, so the count rule."""
    try:
        return parse_count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer up to 2**53, got {text!r}")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=_seed, default=0, help="seed for all randomness (>= 0)")
    common.add_argument(
        "--threads", type=int, default=1,
        help="cross-validation workers for model; other subcommands run on one thread",
    )
    common.add_argument("--strict", action="store_true", help="abort on malformed input lines")
    common.add_argument("--config", help="key=value file with flag defaults; flags win")
    return common


def build_parser() -> _Parser:
    top = _Parser(prog="clickroles", description=__doc__)
    top.add_argument("--version", action="version", version=f"clickroles {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    common = [_common_flags()]

    p = sub.add_parser("ingest", parents=common, help="aggregate a clickstream dump")
    p.add_argument("--clickstream", required=True, type=_Input, help="transition log (TSV, may be .gz)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", parents=common, help="per-article metrics and role shares")
    p.add_argument("--traffic", required=True, type=_Input, help="traffic table from ingest")
    p.add_argument("--bins", type=int, default=50, help="histogram bin count")
    p.add_argument("--grid", type=int, default=50, help="heatmap grid size")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("overlap", parents=common, help="rank-overlap curves")
    p.add_argument("--traffic", required=True, type=_Input)
    p.add_argument(
        "--pairs",
        default=None,
        help="comma list of key:key ranking pairs (default: all pairs of "
        + "/".join(RANKING_KEYS) + ")",
    )
    p.add_argument("--depths", default=None, help="comma list of depths k (default: log schedule)")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("graph", parents=common, help="link-graph degrees and k-core")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", type=_Input, help="edge list file (source<TAB>target, may be .gz)")
    source.add_argument("--clickstream", type=_Input, help="approximate edges from internal transitions")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("features", parents=common, help="join tables; medians and topic stats")
    p.add_argument("--metrics", required=True, type=_Input)
    p.add_argument("--network", required=True, type=_Input)
    p.add_argument("--content", required=True, type=_Input)
    p.add_argument("--topics", type=_Input, help="topic assignment table (optional)")
    p.add_argument("--labels", type=_Input, help="id=label file for topic display names")
    p.add_argument("--grid", type=int, default=50, help="ratio-grid size; 0 disables")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("bins", parents=common, help="quartiles over equal-count feature bins")
    p.add_argument("--joined", required=True, type=_Input)
    p.add_argument("--bin-feature", default="kcore")
    p.add_argument("--target", default="searchshare")
    p.add_argument("--bins", type=int, default=25)
    p.add_argument("--topic", type=int, default=None, help="restrict to one topic id")
    p.set_defaults(func=cmd_bins)

    p = sub.add_parser("topics", parents=common, help="fit a topic model over article texts")
    p.add_argument("--documents", required=True, type=_Input, help='lines of "article<TAB>text"')
    p.add_argument("--stopwords", type=_Input, help="stop word list, one per line")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--alpha", type=float, default=None, help="default 50/k")
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--top-words", type=int, default=10)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("model", parents=common, help="cross-validated role classifiers")
    p.add_argument("--joined", required=True, type=_Input)
    p.add_argument("--task", choices=("searchshare", "resistance"), default="searchshare")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--groups", default=None, help="comma list from: " + ", ".join(FEATURE_GROUPS))
    p.add_argument("--trees", type=int, default=200)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("--min-leaf", type=int, default=20)
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("sample", parents=common, help="seeded uniform article sample")
    p.add_argument("--traffic", required=True, type=_Input)
    p.add_argument("--n", type=int, default=50000)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("report", parents=common, help="bundle outputs into one indexed directory")
    p.add_argument("--inputs", nargs="+", required=True, help="output directories of earlier runs")
    p.set_defaults(func=cmd_report)

    return top


def _inject_config(argv: list[str]) -> list[str]:
    """Insert config-file entries as flags right after the subcommand.

    Later occurrences win in argparse, so explicit flags override the
    injected ones.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None or not argv or argv[0].startswith("-"):
        return argv

    injected: list[str] = []
    for lineno, line in enumerate(iter_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key in _BOOL_KEYS:
            if value.lower() in ("1", "true", "yes"):
                injected.append(f"--{key}")
            elif value.lower() not in ("0", "false", "no"):
                raise UsageError(f"{path}:{lineno}: {key} must be true or false")
        else:
            injected.append(f"--{key}={value}")
    return [argv[0]] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        out = _OutputDir(args)
        args.func(args, out)
        config = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand", "out", "config", "seed")}
        write_manifest(out.path, build_manifest(args.subcommand, config, out.inputs, out.kinds, seed=args.seed))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args, out: _OutputDir) -> None:
    stats = ParseStats()
    table = read_traffic_file(args.clickstream, args.strict, stats)
    if not table:
        raise DataError(
            f"{args.clickstream}: no articles with search or navigation inflow "
            f"in {stats.lines} lines"
        )
    write_traffic_table(out.file("traffic.tsv", "traffic_table"), table)
    write_keyvalues(out.file("ingest_stats.txt"), {"articles": len(table), **asdict(stats)})


def cmd_metrics(args, out: _OutputDir) -> None:
    for flag, value in (("--bins", args.bins), ("--grid", args.grid)):
        if value < 1:
            raise UsageError(f"{flag} must be positive, got {value}")
    traffic = read_traffic_table(args.traffic)
    if not traffic["total_views"].any():
        raise DataError(f"no articles with positive inflow in {args.traffic}")
    metrics, thresholds = metrics_table(traffic)
    write_metrics_table(out.file("metrics.tsv", "metrics_table"), metrics)
    write_thresholds(out.file("thresholds.txt", "thresholds"), thresholds)
    write_group_shares(out.file("group_shares.tsv", "group_shares"), group_shares(metrics))
    if len(metrics) >= 2:
        write_keyvalues(out.file("correlations.txt", "correlations"), correlations(metrics))

    for name in ("searchshare", "resistance"):
        by_articles = histogram(metrics[name], None, args.bins).tolist()
        by_views = histogram(metrics[name], metrics["total_views"], args.bins).tolist()
        rows = (
            (i, i / args.bins, (i + 1) / args.bins, int(by_articles[i]), by_views[i]) for i in range(args.bins)
        )
        write_rows(out.file(f"histogram_{name}.tsv", "histogram"), rows, ("bin", "low", "high", "articles", "views"))

    for weighted, name in ((False, "heatmap_articles.csv"), (True, "heatmap_views.csv")):
        weights = metrics["total_views"] if weighted else None
        grid = heatmap_grid(metrics["resistance"], metrics["searchshare"], weights, args.grid)
        write_matrix_csv(
            out.file(name, "heatmap"),
            grid,
            {"rows": "resistance", "cols": "searchshare", "grid": args.grid,
             "weighted": "views" if weighted else "articles"},
        )


def _parse_pairs(arg: str | None) -> list[tuple[str, str]]:
    if arg is None:
        return [
            (a, b)
            for i, a in enumerate(RANKING_KEYS)
            for b in RANKING_KEYS[i + 1 :]
        ]
    pairs = []
    for item in arg.split(","):
        a, sep, b = item.partition(":")
        if not sep:
            raise UsageError(f"ranking pair {item!r} must be key:key")
        pair = (a.strip(), b.strip())
        for key in pair:
            if key not in RANKING_KEYS:
                raise UsageError(f"unknown ranking key {key!r} in pair {item!r}; expected one of {RANKING_KEYS}")
        pairs.append(pair)
    return pairs


def cmd_overlap(args, out: _OutputDir) -> None:
    pairs = _parse_pairs(args.pairs)
    try:
        ks = None if args.depths is None else [int(k) for k in args.depths.split(",")]
    except ValueError:
        raise UsageError(f"--depths must be a comma list of integers: {args.depths!r}")
    traffic = read_traffic_table(args.traffic)
    if not len(traffic):
        raise DataError(f"no articles to rank in {args.traffic}")
    ks = ks or default_ks(len(traffic))
    rankings = {key: rank_articles(traffic, key) for key in dict.fromkeys(key for pair in pairs for key in pair)}
    try:
        curves = [cumulative_overlap(rankings[a], rankings[b], ks) for a, b in pairs]
    except DataError as exc:
        raise DataError(f"{args.traffic}: {exc}") from exc
    for curve in curves:
        write_curve(out.file(f"overlap_{curve.ranking_a}_{curve.ranking_b}.csv", "overlap_curve"), curve)


def cmd_graph(args, out: _OutputDir) -> None:
    stats = EdgeStats()
    if args.edges is not None:
        graph = graph_from_file(args.edges, strict=args.strict, stats=stats)
        source, source_path, lines = "edge-list", args.edges, stats.lines
    else:
        # traveled-link approximation: only transitions at or above the
        # dump floor appear, so degrees underestimate the true graph
        parse_stats = ParseStats()
        records = parse_clickstream(iter_lines(args.clickstream), args.strict, parse_stats, args.clickstream)
        graph = build_graph(edges_from_clickstream(records), stats)
        stats.malformed = parse_stats.malformed + parse_stats.unknown_rawtype
        source, source_path, lines = "clickstream-approximation", args.clickstream, parse_stats.lines
    if not graph.node_count:
        raise DataError(f"{source_path}: no edges in {lines} lines")
    write_network_table(out.file("network.tsv", "network_table"), network_features(graph))
    write_keyvalues(
        out.file("graph_stats.txt"),
        {
            "edge_source": source,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "self_loops": stats.self_loops,
            "duplicates": stats.duplicates,
            "malformed": stats.malformed,
        },
    )


def cmd_features(args, out: _OutputDir) -> None:
    if args.grid < 0:
        raise UsageError(f"--grid must be >= 0 (0 disables the ratio grids), got {args.grid}")
    labels = read_keyvalues(args.labels, parse_count) if args.labels is not None else None
    metrics = read_metrics_table(args.metrics)
    network = read_network_table(args.network)
    content = read_content_table(args.content)
    topics = read_topic_assignments(args.topics) if args.topics is not None else None

    joined, jstats = join_features(metrics, network, content, topics)
    write_joined_table(out.file("joined.tsv", "joined_table"), joined)
    write_group_medians(out.file("medians.tsv", "median_table"), group_medians(joined))
    write_keyvalues(
        out.file("join_stats.txt"),
        {"kept": jstats.kept, **{f"dropped_{k}": v for k, v in sorted(jstats.dropped.items())}},
    )

    if topics is not None:
        topic_ids = joined["topic_id"]
        assigned_ids = sorted(set(topic_ids[topic_ids >= 0].tolist()))
        if labels is None:
            labels = dict(enumerate(DEFAULT_TOPIC_LABELS)) if assigned_ids == list(range(20)) else {}
        write_topic_stats(out.file("topic_stats.tsv", "topic_statistics"), topic_statistics(joined, labels))
        if args.grid > 0 and assigned_ids:
            columns = [joined[name] for name in ("resistance", "searchshare", "total_views")]
            overall = heatmap_grid(*columns, args.grid)
            for tid in assigned_ids:
                members = topic_ids == tid
                ratio = relative_difference_heatmap(
                    heatmap_grid(*(c[members] for c in columns), args.grid), overall
                )
                write_matrix_csv(
                    out.file(f"ratio_topic_{tid}.csv", "ratio_heatmap"),
                    ratio,
                    {"topic_id": tid, "label": labels.get(tid, f"topic-{tid}"),
                     "rows": "resistance", "cols": "searchshare", "grid": args.grid},
                )


def cmd_bins(args, out: _OutputDir) -> None:
    table = read_joined_table(args.joined)
    suffix = ""
    if args.topic is not None:
        # -1 marks a row without a topic, so it matches no --topic
        table = table.take(np.flatnonzero((table["topic_id"] == args.topic) & (args.topic >= 0)))
        suffix = f"_topic{args.topic}"
        if not len(table):
            raise DataError(f"no rows assigned to topic {args.topic}")
    result = binned_quartiles(table, args.bin_feature, args.target, args.bins)
    write_bin_table(out.file(f"bins_{args.bin_feature}_{args.target}{suffix}.csv", "binned_quartiles"), result)


def cmd_topics(args, out: _OutputDir) -> None:
    if args.top_words < 1:
        raise UsageError(f"--top-words must be positive, got {args.top_words}")
    stop_words = read_stop_words(args.stopwords) if args.stopwords is not None else DEFAULT_STOP_WORDS
    corpus = corpus_from_file(args.documents, stop_words)
    model = fit_lda(
        corpus,
        k=args.k,
        alpha=args.alpha,
        beta=args.beta,
        iterations=args.iterations,
        seed=args.seed,
    )
    write_assignments(out.file("topics.tsv", "topic_assignments"), model)
    write_phi(out.file("phi.csv", "topic_word_matrix"), model)
    write_theta(out.file("theta.csv", "document_topic_matrix"), model)
    labels = DEFAULT_TOPIC_LABELS if args.k == len(DEFAULT_TOPIC_LABELS) else None
    write_top_words(out.file("top_words.txt", "top_words"), model, n=args.top_words, labels=labels)
    write_keyvalues(
        out.file("corpus_stats.txt"),
        {
            "documents": len(corpus.articles),
            "vocabulary": len(corpus.vocabulary),
            "tokens": corpus.total_tokens,
            "empty_documents": len(corpus.empty_articles),
        },
    )


def cmd_model(args, out: _OutputDir) -> None:
    config = GBDTConfig(
        n_trees=args.trees,
        max_depth=args.depth,
        learning_rate=args.rate,
        min_leaf=args.min_leaf,
        seed=args.seed,
    )
    instances, dropped = build_instances(read_joined_table(args.joined), args.task, args.threshold)
    has_topics = any(n.startswith("topic_") for n in instances.feature_names)
    if args.groups:
        groups = [g.strip() for g in args.groups.split(",")]
    else:
        groups = list(FEATURE_GROUPS) if has_topics else ["network", "content-edit"]
    reports = [
        cross_validate(instances, group, config, args.folds, task=args.task, threads=args.threads)
        for group in groups
    ]
    write_eval_report(out.file("eval.csv", "eval_report"), reports)
    for group in groups:
        # fold balance seeds are [seed, 0..folds-1]; stay clear of them
        subset = balance(select_group(instances, group), seed=[args.seed, args.folds])
        final = train_gbdt(subset.x, subset.y, config, subset.feature_names)
        save_model(out.file(f"model_{group}.json", "model"), final)
    write_keyvalues(
        out.file("model_stats.txt"),
        {
            "instances": len(instances),
            "dropped_without_topic": dropped,
            "positives": int(instances.y.sum()),
            "negatives": int(len(instances) - instances.y.sum()),
        },
    )


def cmd_sample(args, out: _OutputDir) -> None:
    if args.n < 1:
        raise UsageError(f"sample size must be positive, got {args.n}")
    table = read_traffic_table(args.traffic)
    if args.n > len(table):
        raise DataError(f"cannot sample {args.n} articles from {len(table)}")
    rng = np.random.default_rng(args.seed)
    chosen = rng.choice(len(table), size=args.n, replace=False)
    write_traffic_table(out.file("traffic_sample.tsv", "traffic_table"), table.take(np.sort(chosen)))


def cmd_report(args, out: _OutputDir) -> None:
    found: dict[str, tuple[Path, str, str]] = {}  # name -> (source path, kind, source dir)
    for directory in args.inputs:
        d = Path(directory)
        if not d.is_dir():
            raise DataError(f"not a directory: {directory}")
        if d.resolve() == out.path.resolve():
            continue  # a rerun's own earlier bundle
        for name, kind in read_manifest(d).outputs.items():
            src = d / name
            if not src.is_file():
                raise DataError(f"{src}: listed in {d / MANIFEST_NAME} but missing")
            if kind is None:
                continue
            if name in found:
                if src.read_bytes() != found[name][0].read_bytes():
                    raise DataError(
                        f"conflicting files named {name!r} in {found[name][2]} and {directory}"
                    )
                continue
            found[name] = (src, kind, directory)
    if not found:
        raise DataError(
            "no pipeline outputs found under the given directories; "
            "run ingest/metrics/overlap/graph/features/bins/topics/model first"
        )

    out.inputs = [str(found[name][0]) for name in sorted(found)]
    make_dir(out.path)
    index = []
    for name in sorted(found):
        src, kind, source_dir = found[name]
        dest = out.file(name, kind)
        with oserror_as_data(f"cannot copy {src} to {dest}"):
            shutil.copyfile(src, dest)
        index.append({"file": name, "kind": kind, "source": str(source_dir)})
    write_json(out.file("index.json"), {"files": index})


if __name__ == "__main__":
    sys.exit(main())
