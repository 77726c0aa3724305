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

Every subcommand takes --out and writes its files there. The first
`out.file()` clears an earlier run's outputs, so each subcommand makes
all of its results before it: a run that fails while computing leaves
an earlier --out as it was. `main` then writes the manifest, which
hashes the files its input-file flags name (the flags of type _Input).
Each flag's declaration checks its value, by its type or its choices,
as the command line is parsed: a bad value is a usage error before any
input is read, and the library takes the settings it is given as valid.
The manifest records exactly the flags a subcommand declares. Exit
codes: 0 success, 1 bad data (or no C compiler for topics' sampler), 2
bad usage. All randomness comes from --seed, which only topics, model
and sample take; the other manifests record a null seed.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, UsageError
from .features import (
    NUMERIC_FEATURES,
    binned_quartiles,
    group_medians,
    join_features,
    read_content_table,
    read_joined_table,
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
    graph_from_file,
    network_features,
    read_network_table,
    write_network_table,
)
from .manifest import MANIFEST_NAME, build_manifest, read_manifest, sha256_file, write_manifest
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
    TASKS,
    GBDTConfig,
    build_instances,
    cross_validate,
    default_groups,
    final_model,
    save_model,
    write_eval_report,
)
from .overlap import RANKING_KEYS, cumulative_overlap, default_ks, rank_articles, write_curve
from .tableio import (
    MAX_COUNT, iter_lines, make_dir, oserror_as_data, parse_count, parse_real, read_keyvalues, write_json,
    write_keyvalues, write_matrix_csv, write_rows,
)
from .topics import (
    DEFAULT_STOP_WORDS,
    corpus_from_file,
    fit_lda,
    read_stop_words,
    read_topic_assignments,
    topic_names,
    write_assignments,
    write_phi,
    write_theta,
    write_top_words,
)


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

    def __new__(cls, text: str):
        if not text:
            raise argparse.ArgumentTypeError("must name a file")
        return super().__new__(cls, text)


class _OutputDir:
    """Tracks every file a subcommand emits, with its kind, and the run's
    input files, for the manifest."""

    def __init__(self, args):
        self.path = Path(args.out)
        self.kinds: dict[str, str | None] = {}
        # the input-file flags' values in flag order, each to its SHA-256 or
        # None for the manifest to take; report sets its bundled files' digests
        self.inputs: dict[str, str | None] = dict.fromkeys(v for v in vars(args).values() if isinstance(v, _Input))

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


def _checked(parse, accept, what: str):
    """The type of a flag whose value `parse` converts (raising ValueError
    if it cannot) to a value that `accept` holds for; `what` names such
    values in the error for any other."""

    def convert(text: str):
        try:
            value = parse(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return convert


def _count(low: int, high: int = MAX_COUNT):
    """The type of a flag whose value is a count (the tableio.parse_count
    rule) from `low` to `high`."""
    top = "2**53" if high == MAX_COUNT else high
    return _checked(parse_count, lambda value: low <= value <= high, f"an integer from {low} to {top}")


def _comma_list(item):
    """The type of a flag whose value is a comma list of distinct elements,
    each (spaces stripped) checked by the flag type `item`."""

    def convert(text: str) -> list:
        values = []
        for part in map(str.strip, text.split(",")):
            value = item(part)
            if value in values:
                raise argparse.ArgumentTypeError(f"{part!r} is given twice")
            values.append(value)
        return values

    return convert


@contextmanager
def _about(path: str):
    """Prefix a DataError raised inside with `path`, the input file whose
    data it concerns."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def build_parser() -> _Parser:
    top = _Parser(prog="clickroles", description=__doc__)
    top.add_argument("--version", action="version", version=f"clickroles {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument(
        "--threads", type=_count(1), default=1,
        help="cross-validation workers for model; other subcommands run on one thread",
    )
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="abort on malformed input lines")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_count(0), default=0, help="seed for all randomness")
    positive = _checked(parse_real, lambda value: value > 0, "a positive finite number")

    p = sub.add_parser("ingest", parents=[common, strict], help="aggregate a clickstream dump")
    p.add_argument("--clickstream", required=True, type=_Input, help="transition log (TSV, may be .gz)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", parents=[common], help="per-article metrics and role shares")
    p.add_argument("--traffic", required=True, type=_Input, help="traffic table from ingest")
    p.add_argument("--bins", type=_count(1), default=50, help="histogram bin count")
    # a grid's cell count, its size squared, is a count too
    p.add_argument("--grid", type=_count(1, math.isqrt(MAX_COUNT)), default=50, help="heatmap grid size")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("overlap", parents=[common], help="rank-overlap curves")
    p.add_argument("--traffic", required=True, type=_Input)
    p.add_argument(
        "--pairs",
        type=_comma_list(_checked(
            lambda text: tuple(map(str.strip, text.split(":"))),
            lambda pair: len(pair) == 2 and set(pair) <= set(RANKING_KEYS),
            "key:key with keys from " + ", ".join(RANKING_KEYS),
        )),
        default=list(combinations(RANKING_KEYS, 2)),
        help="comma list of key:key ranking pairs (default: all pairs of " + "/".join(RANKING_KEYS) + ")",
    )
    p.add_argument(
        "--depths", type=_checked(_comma_list(_count(1)), lambda ks: ks == sorted(ks), "strictly increasing"),
        default=None, help="comma list of depths k (default: log schedule)",
    )
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("graph", parents=[common, strict], help="link-graph degrees and k-core")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", type=_Input, help="edge list file (source<TAB>target, may be .gz)")
    source.add_argument("--clickstream", type=_Input, help="approximate edges from internal transitions")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("features", parents=[common], help="join tables; medians and topic stats")
    p.add_argument("--metrics", required=True, type=_Input)
    p.add_argument("--network", required=True, type=_Input)
    p.add_argument("--content", required=True, type=_Input)
    p.add_argument("--topics", type=_Input, help="topic assignment table (optional)")
    p.add_argument("--labels", type=_Input, help="id=label file for topic display names")
    p.add_argument("--grid", type=_count(0, math.isqrt(MAX_COUNT)), default=50, help="ratio-grid size; 0 disables")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("bins", parents=[common], help="quartiles over equal-count feature bins")
    p.add_argument("--joined", required=True, type=_Input)
    p.add_argument("--bin-feature", choices=NUMERIC_FEATURES, default="kcore", metavar="FEATURE")
    p.add_argument("--target", choices=NUMERIC_FEATURES, default="searchshare", metavar="FEATURE")
    p.add_argument("--bins", type=_count(1), default=25)
    p.add_argument("--topic", type=_count(0), default=None, help="restrict to one topic id")
    p.set_defaults(func=cmd_bins)

    p = sub.add_parser("topics", parents=[common, seeded], help="fit a topic model over article texts")
    p.add_argument("--documents", required=True, type=_Input, help='lines of "article<TAB>text"')
    p.add_argument("--stopwords", type=_Input, help="stop word list, one per line")
    p.add_argument("--k", type=_count(2), default=20)
    p.add_argument("--alpha", type=positive, default=None, help="default 50/k")
    p.add_argument("--beta", type=positive, default=0.01)
    p.add_argument("--iterations", type=_count(1), default=1000)
    p.add_argument("--top-words", type=_count(1), default=10)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("model", parents=[common, seeded], help="cross-validated role classifiers")
    p.add_argument("--joined", required=True, type=_Input)
    p.add_argument("--task", choices=TASKS, default="searchshare")
    groups = ", ".join(FEATURE_GROUPS)
    p.add_argument(
        "--groups", type=_comma_list(_checked(str, FEATURE_GROUPS.__contains__, "one of " + groups)), default=None,
        help="comma list from: " + groups,
    )
    p.add_argument("--trees", type=_count(1), default=200)
    p.add_argument("--depth", type=_count(0), default=4)
    p.add_argument("--rate", type=_checked(parse_real, lambda rate: 0 < rate <= 1, "a number in (0, 1]"), default=0.1)
    p.add_argument("--min-leaf", type=_count(1), default=20)
    p.add_argument("--folds", type=_count(2), default=10)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("sample", parents=[common, seeded], help="seeded uniform article sample")
    p.add_argument("--traffic", required=True, type=_Input)
    p.add_argument("--n", type=_count(1), default=50000)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("report", parents=[common], help="bundle outputs into one indexed directory")
    p.add_argument("--inputs", nargs="+", required=True, help="output directories of earlier runs")
    p.set_defaults(func=cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = _OutputDir(args)
        args.func(args, out)
        config = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand", "out")}
        seed = config.pop("seed", None)
        write_manifest(out.path, build_manifest(args.subcommand, config, out.inputs, out.kinds, seed=seed))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
    traffic = read_traffic_table(args.traffic)
    if not traffic["total_views"].any():
        raise DataError(f"{args.traffic}: no articles with positive inflow")
    metrics, thresholds = metrics_table(traffic)
    views = metrics["total_views"]
    histograms = {
        name: (histogram(metrics[name], None, args.bins), histogram(metrics[name], views, args.bins))
        for name in ("searchshare", "resistance")
    }
    grids = {
        weighted: heatmap_grid(metrics["resistance"], metrics["searchshare"], weights, args.grid)
        for weighted, weights in (("articles", None), ("views", views))
    }
    shares = group_shares(metrics)
    coefficients = correlations(metrics) if len(metrics) >= 2 else None
    write_metrics_table(out.file("metrics.tsv", "metrics_table"), metrics)
    write_thresholds(out.file("thresholds.txt", "thresholds"), thresholds)
    write_group_shares(out.file("group_shares.tsv", "group_shares"), shares)
    if coefficients is not None:
        write_keyvalues(out.file("correlations.txt", "correlations"), coefficients)
    for name, (by_articles, by_views) in histograms.items():
        cells = enumerate(zip(by_articles.tolist(), by_views.tolist()))
        rows = ((i, i / args.bins, (i + 1) / args.bins, int(articles), v) for i, (articles, v) in cells)
        write_rows(out.file(f"histogram_{name}.tsv", "histogram"), rows, ("bin", "low", "high", "articles", "views"))
    for weighted, grid in grids.items():
        metadata = {"rows": "resistance", "cols": "searchshare", "grid": args.grid, "weighted": weighted}
        write_matrix_csv(out.file(f"heatmap_{weighted}.csv", "heatmap"), grid, metadata)


def cmd_overlap(args, out: _OutputDir) -> None:
    traffic = read_traffic_table(args.traffic)
    if not len(traffic):
        raise DataError(f"{args.traffic}: no articles to rank")
    ks = args.depths or default_ks(len(traffic))
    rankings = {key: rank_articles(traffic, key) for key in dict.fromkeys(key for pair in args.pairs for key in pair)}
    with _about(args.traffic):
        curves = [cumulative_overlap(rankings[a], rankings[b], ks) for a, b in args.pairs]
    for (a, b), points in zip(args.pairs, curves):
        write_curve(out.file(f"overlap_{a}_{b}.csv", "overlap_curve"), a, b, points)


def cmd_graph(args, out: _OutputDir) -> None:
    stats = EdgeStats()
    if args.edges is not None:
        graph = graph_from_file(args.edges, args.strict, stats)
        source, source_path, lines = "edge-list", args.edges, stats.lines
    else:
        # traveled-link approximation: only the dump's internal links at or
        # above its floor appear, so degrees underestimate the true graph
        parse_stats = ParseStats()
        records = parse_clickstream(iter_lines(args.clickstream), args.strict, parse_stats, args.clickstream)
        links = ((referrer, resource) for referrer, resource, _ in records if referrer is not None)
        graph = build_graph(links, stats)
        stats.malformed = parse_stats.malformed + parse_stats.unknown_rawtype
        source, source_path, lines = "clickstream-approximation", args.clickstream, parse_stats.lines
    if not graph.node_count:
        raise DataError(f"{source_path}: no edges in {lines} lines")
    network = network_features(graph)
    write_network_table(out.file("network.tsv", "network_table"), network)
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
    if args.labels is not None and args.topics is None:
        raise UsageError("argument --labels: needs --topics")
    labels = read_keyvalues(args.labels, parse_count) if args.labels is not None else None
    metrics = read_metrics_table(args.metrics)
    network = read_network_table(args.network)
    content = read_content_table(args.content)
    topics = read_topic_assignments(args.topics) if args.topics is not None else None

    joined = join_features(metrics, network, content, topics)
    if not len(joined):
        tables = ((args.metrics, metrics), (args.network, network), (args.content, content))
        empty = [path for path, table in tables if not len(table)]
        if empty:
            raise DataError(f"{empty[0]}: no articles to join")
        raise DataError(f"{args.metrics}: no article is also in both {args.network} and {args.content}")
    ratios = {}
    if topics is not None:
        topic_ids = joined["topic_id"]
        assigned_ids = sorted(set(topic_ids[topic_ids >= 0].tolist()))
        labels = topic_names(assigned_ids, labels)
        if args.grid > 0 and assigned_ids:
            columns = [joined[name] for name in ("resistance", "searchshare", "total_views")]
            overall = heatmap_grid(*columns, args.grid)
            grids = ((tid, heatmap_grid(*(c[topic_ids == tid] for c in columns), args.grid)) for tid in assigned_ids)
            ratios = {tid: relative_difference_heatmap(grid, overall) for tid, grid in grids}
    medians = group_medians(joined)
    topic_stats = topic_statistics(joined, labels) if topics is not None else None
    write_joined_table(out.file("joined.tsv", "joined_table"), joined)
    write_group_medians(out.file("medians.tsv", "median_table"), medians)
    write_keyvalues(
        out.file("join_stats.txt"),
        {
            "kept": len(joined),
            **{f"dropped_{name}": len(table) - len(joined)
               for name, table in (("content", content), ("metrics", metrics), ("network", network))},
        },
    )
    if topic_stats is not None:
        write_topic_stats(out.file("topic_stats.tsv", "topic_statistics"), topic_stats)
    for tid, ratio in ratios.items():
        write_matrix_csv(
            out.file(f"ratio_topic_{tid}.csv", "ratio_heatmap"),
            ratio,
            {"topic_id": tid, "label": labels[tid], "rows": "resistance", "cols": "searchshare", "grid": args.grid},
        )


def cmd_bins(args, out: _OutputDir) -> None:
    table = read_joined_table(args.joined)
    suffix = ""
    with _about(args.joined):
        if args.topic is not None:
            # -1 marks a row without a topic, and --topic is at least 0
            table = table.take(np.flatnonzero(table["topic_id"] == args.topic))
            suffix = f"_topic{args.topic}"
            if not len(table):
                raise DataError(f"no rows assigned to topic {args.topic}")
        summaries = binned_quartiles(table, args.bin_feature, args.target, args.bins)
    path = out.file(f"bins_{args.bin_feature}_{args.target}{suffix}.csv", "binned_quartiles")
    write_bin_table(path, args.bin_feature, args.target, summaries)


def cmd_topics(args, out: _OutputDir) -> None:
    from . import native  # here, not at the top: no other subcommand runs a compiled loop

    native.load()  # outside _about below: a compiler's error does not concern the documents
    stop_words = read_stop_words(args.stopwords) if args.stopwords is not None else DEFAULT_STOP_WORDS
    corpus = corpus_from_file(args.documents, stop_words)
    settings = {
        "k": args.k,
        "alpha": 50.0 / args.k if args.alpha is None else args.alpha,
        "beta": args.beta,
        "iterations": args.iterations,
        "seed": args.seed,
    }
    with _about(args.documents):
        phi, theta = fit_lda(corpus, **settings)
    labels = topic_names(range(args.k), None)
    write_assignments(out.file("topics.tsv", "topic_assignments"), corpus.articles, theta)
    write_phi(out.file("phi.csv", "topic_word_matrix"), phi, settings)
    write_theta(out.file("theta.csv", "document_topic_matrix"), theta, settings)
    write_top_words(out.file("top_words.txt", "top_words"), phi, corpus.vocabulary, args.top_words, labels)
    write_keyvalues(
        out.file("corpus_stats.txt"),
        {
            "documents": len(corpus.articles),
            "vocabulary": len(corpus.vocabulary),
            "tokens": len(corpus.tokens),
            "empty_documents": int(np.count_nonzero(np.diff(corpus.offsets) == 0)),
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
    table = read_joined_table(args.joined)
    instances = build_instances(table, args.task)
    groups = args.groups or default_groups(instances)
    with _about(args.joined):
        aucs = {group: cross_validate(instances, group, config, args.folds, threads=args.threads) for group in groups}
        models = [final_model(instances, group, config, args.folds) for group in groups]
    write_eval_report(out.file("eval.csv", "eval_report"), args.task, aucs)
    for group, model in zip(groups, models):
        save_model(out.file(f"model_{group}.json", "model"), model)
    write_keyvalues(
        out.file("model_stats.txt"),
        {
            "instances": len(instances),
            "dropped_without_topic": len(table) - len(instances),
            "positives": int(instances.y.sum()),
            "negatives": int(len(instances) - instances.y.sum()),
        },
    )


def cmd_sample(args, out: _OutputDir) -> None:
    table = read_traffic_table(args.traffic)
    if args.n > len(table):
        raise DataError(f"{args.traffic}: cannot sample {args.n} articles from {len(table)}")
    rng = np.random.default_rng(args.seed)
    sample = table.take(np.sort(rng.choice(len(table), size=args.n, replace=False)))
    write_traffic_table(out.file("traffic_sample.tsv", "traffic_table"), sample)


def cmd_report(args, out: _OutputDir) -> None:
    found: dict[str, tuple[Path, str, str, str]] = {}  # name -> (source path, kind, source dir, sha256)
    manifests = {}  # manifest path -> manifest
    for directory in args.inputs:
        d = Path(directory)
        if not d.is_dir():
            raise DataError(f"{directory}: not a directory")
        if d.resolve() == out.path.resolve():
            continue  # a rerun's own earlier bundle
        manifest = manifests[d / MANIFEST_NAME] = read_manifest(d)
        for name, kind in manifest.outputs.items():
            src = d / name
            if not src.is_file():
                raise DataError(f"{src}: listed in {d / MANIFEST_NAME} but missing")
            if kind is None:
                continue
            if name in (MANIFEST_NAME, "index.json"):
                raise DataError(f"{d / MANIFEST_NAME}: lists {name!r}, a file report writes itself")
            with oserror_as_data(f"cannot read {src}"):
                digest = sha256_file(src)
            if name not in found:
                found[name] = (src, kind, directory, digest)
            elif digest != found[name][3]:
                raise DataError(f"conflicting files named {name!r} in {found[name][2]} and {directory}")
    if not found:
        raise DataError(
            "no pipeline outputs found under the given directories; "
            "run ingest/metrics/overlap/graph/features/bins/topics/model first"
        )
    # each input a stage read under a bundled file's name must be that file
    for path, manifest in manifests.items():
        for given, digest in manifest.inputs.items():
            name = Path(given).name
            if name in found and digest != found[name][3]:
                raise DataError(
                    f"{path}: {manifest.subcommand} read {name} sha256 {digest}, bundle has {found[name][3]}"
                )

    out.inputs = {str(found[name][0]): found[name][3] for name in sorted(found)}
    make_dir(out.path)
    index = []
    for name in sorted(found):
        src, kind, source_dir, _ = found[name]
        dest = out.file(name, kind)
        with oserror_as_data(f"cannot copy {src} to {dest}"):
            shutil.copyfile(src, dest)
        index.append({"file": name, "kind": kind, "source": str(source_dir)})
    write_json(out.file("index.json"), {"files": index})


if __name__ == "__main__":
    sys.exit(main())
