"""Benchmark of the clickroles command-line pipeline.

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed, then runs its subcommands
as a user would, one ``clickroles`` process each, over and over until
--seconds have passed. Every run's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics:
  wall_s       pipeline wall time with the inputs on disk: the sum over
               subcommands of each one's fastest invocation (start to exit)
  peak_rss_mb  largest ru_maxrss among a run's subcommand processes
               (os.wait4 on each child), median over runs
  setup_s      generating the inputs from the seed and writing them to
               disk, fastest of the run's set-ups
The medians and quartiles of every sample are printed above the result;
end_to_end_metrics says why the times are minima.
--trace 1 alternates untraced runs with traced runs (perfbench/shim.py)
and reports the medians of the per-layer metrics listed in PER_LAYER.

An operation is one subcommand invocation. It fails on a non-zero exit,
on a failed output check, or when its output tree differs from the
first run's (manifest `created` field excluded). Work files go under
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SHIM = HERE / "shim.py"
SPAWN = HERE / "spawn.py"
ENTRY = "import sys; from clickroles.cli import main; sys.exit(main())"
THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_SECONDS = 0.25  # set up repeatedly before each run until this much time is spent
STARTUP_REPEATS = 5

# `ingest --threads 2` cuts its input into chunks of this many lines
# (clickroles.ingest.aggregate_sharded); the traffic dump spans four, so
# both pool threads parse and the merge spans shards.
INGEST_CHUNK_LINES = 200_000
TRAFFIC_DUMP = inputs.DumpSize(articles=40_000, link_lines=600_000)
ROLES_DUMP = inputs.DumpSize(articles=1_600, link_lines=6_400)
ROLES_CORPUS = inputs.CorpusSize(documents=1_600, topics=20, words_per_topic=50, tokens_per_document=15)
TOPICS_CORPUS = inputs.CorpusSize(documents=400, topics=20, words_per_topic=100, tokens_per_document=40)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, Path], dict]
    commands: tuple[tuple[str, ...], ...]  # argv per subcommand; paths relative to the run dir
    min_auc: dict[str, float] = field(default_factory=dict)
    min_recovery: float = 0.0


def _threads(n: int, *commands: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return tuple(c + ("--threads", str(n)) for c in commands)


WORKLOADS = {
    "traffic": Workload(
        partial(inputs.generate_traffic, dump=TRAFFIC_DUMP),
        _threads(
            THREADS,
            ("ingest", "--clickstream", "../in/clicks.tsv.gz", "--out", "run/ingest"),
            ("metrics", "--traffic", "run/ingest/traffic.tsv", "--out", "run/metrics"),
            ("overlap", "--traffic", "run/ingest/traffic.tsv", "--out", "run/overlap"),
            ("graph", "--clickstream", "../in/clicks.tsv.gz", "--out", "run/graph"),
            ("sample", "--traffic", "run/ingest/traffic.tsv", "--n", "5000", "--out", "run/sample"),
            ("report", "--inputs", "run/ingest", "run/metrics", "run/overlap", "run/graph",
             "run/sample", "--out", "run/report"),
        ),
    ),
    "roles": Workload(
        partial(inputs.generate_roles, dump=ROLES_DUMP, corpus=ROLES_CORPUS),
        _threads(
            THREADS,
            ("ingest", "--clickstream", "../in/clicks.tsv.gz", "--out", "run/ingest"),
            ("metrics", "--traffic", "run/ingest/traffic.tsv", "--out", "run/metrics"),
            ("graph", "--edges", "../in/edges.tsv", "--out", "run/graph"),
            ("topics", "--documents", "../in/documents.tsv", "--k", "20", "--alpha", "0.1",
             "--iterations", "5", "--out", "run/topics"),
            ("features", "--metrics", "run/metrics/metrics.tsv", "--network", "run/graph/network.tsv",
             "--content", "../in/content.tsv", "--topics", "run/topics/topics.tsv",
             "--out", "run/features"),
            ("bins", "--joined", "run/features/joined.tsv", "--bin-feature", "kcore",
             "--target", "searchshare", "--out", "run/bins"),
            ("model", "--joined", "run/features/joined.tsv", "--groups", "network,content-edit,topic,all",
             "--trees", "15", "--depth", "3", "--folds", "5", "--out", "run/model"),
            ("report", "--inputs", "run/ingest", "run/metrics", "run/graph", "run/topics",
             "run/features", "run/bins", "run/model", "--out", "run/report"),
        ),
        min_auc={"network": 0.8, "content-edit": 0.7, "topic": 0.55, "all": 0.8},
        min_recovery=0.45,
    ),
    "topics": Workload(
        partial(inputs.generate_topics, corpus=TOPICS_CORPUS),
        _threads(
            1,
            ("topics", "--documents", "../in/documents.tsv", "--k", "20", "--iterations", "40",
             "--out", "run/topics"),
        ),
        min_recovery=0.6,
    ),
}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SUBCOMMANDS = ("ingest", "metrics", "overlap", "graph", "sample", "topics", "features", "bins", "model", "report")
MODEL_GROUPS = ("network", "content-edit", "topic", "all")
PER_LAYER = (
    ("ingest.read_traffic_file_s", "s"),
    ("ingest.lines_per_s", "lines/s"),
    ("ingest.cpu_per_wall", "ratio"),
    ("ingest.write_traffic_table_s", "s"),
    ("ingest.read_traffic_table_s", "s"),
    ("ingest.records", "count"),
    ("ingest.malformed", "count"),
    ("metrics.metrics_table_s", "s"),
    ("metrics.summaries_s", "s"),
    ("metrics.write_metrics_table_s", "s"),
    ("overlap.rank_articles_s", "s"),
    ("overlap.cumulative_overlap_s", "s"),
    ("linkgraph.build_graph_s", "s"),
    ("linkgraph.edges_per_s", "edges/s"),
    ("linkgraph.kcore_decomposition_s", "s"),
    ("linkgraph.kcore_edges_per_s", "edges/s"),
    ("linkgraph.edges", "count"),
    ("linkgraph.max_core", "count"),
    ("features.join_features_s", "s"),
    ("features.group_medians_s", "s"),
    ("features.binned_quartiles_s", "s"),
    ("features.read_joined_table_s", "s"),
    ("topics.corpus_from_file_s", "s"),
    ("topics.fit_lda_s", "s"),
    ("topics.token_samples_per_s", "samples/s"),
    ("topics.tokens", "count"),
    ("topics.planted_recovery", "ratio"),
    ("model.cross_validate_s", "s"),
    ("model.train_gbdt_s", "s"),
    ("model.trees_per_s", "trees/s"),
    ("model.cv_cpu_per_wall", "ratio"),
    ("model.trees", "count"),
    *((f"model.mean_auc.{g}", "auc") for g in MODEL_GROUPS),
    ("manifest.build_manifest_s", "s"),
    ("cli.startup_s", "s"),
    *(
        (f"cli.{sub}.{name}", unit)
        for sub in SUBCOMMANDS
        for name, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"), ("unattributed_s", "s"))
    ),
    ("trace.overhead_s", "s"),
)


@dataclass
class Step:
    """One subcommand invocation."""

    sub: str
    out: str
    wall: float
    rss_mb: float
    failures: list[str]
    digest: str = ""


@dataclass
class Run:
    """One pass over a workload's subcommands."""

    wall: float
    steps: list[Step]
    spans: dict[str, list[dict]]  # subcommand -> shim records (traced runs only)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)


class Launcher:
    """Runs child processes through perfbench/spawn.py and waits for each."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(SPAWN)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path) -> tuple[float, float, int, str]:
        """Run one process to its exit: (wall s, ru_maxrss MB, exit code, stderr tail)."""
        err_path = cwd / "stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "env": self.env, "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        return reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"], tail


def check_output(workload: Workload, sub: str, out: Path, truth: dict) -> list[str]:
    if sub == "ingest":
        return checks.check_ingest(out, truth["dump"])
    if sub == "metrics":
        return checks.check_metrics(out, truth["search_articles"])
    if sub == "topics":
        return checks.check_topics(out, truth["topics"], workload.min_recovery)
    if sub == "model":
        return checks.check_model(out, workload.min_auc)
    return []


def check_steps(workload: Workload, cwd: Path, steps: list[Step], truth: dict) -> None:
    """Check and digest the output of every step that exited cleanly."""
    for step in steps:
        if not step.failures:
            try:
                step.failures = check_output(workload, step.sub, cwd / step.out, truth)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                step.failures = [f"unreadable output: {exc!r}"]
            step.digest = checks.tree_digest(cwd / step.out)


def run_pipeline(launcher: Launcher, workload: Workload, cwd: Path, truth: dict, traced: bool) -> Run:
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    steps: list[Step] = []
    start = time.perf_counter()
    for argv in workload.commands:
        sub, out = argv[0], argv[argv.index("--out") + 1]
        if traced:
            cmd = [sys.executable, str(SHIM), f"spans_{sub}.json", *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        wall, rss_mb, code, err = launcher.run(cmd, cwd)
        steps.append(Step(sub, out, wall, rss_mb, [f"exit code {code}: {err}"] if code else []))
        if code:
            break
    total = time.perf_counter() - start

    check_steps(workload, cwd, steps, truth)
    spans = {}
    if traced:
        for step in steps:
            path = cwd / f"spans_{step.sub}.json"
            spans[step.sub] = add_self_times(json.loads(path.read_text())) if path.exists() else []
    return Run(total, steps, spans)


class Ledger:
    """Counts operations and failures; holds the first run's output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}

    def record(self, run: Run) -> bool:
        """Charge a run's operations; True if every one succeeded."""
        for step in run.steps:
            if step.digest:
                expected = self.reference.setdefault(step.sub, step.digest)
                if step.digest != expected:
                    step.failures.append("output tree differs from the first run's")
            self.attempted += 1
            if step.failures:
                self.failed += 1
                print(f"FAIL {step.sub}: {'; '.join(step.failures)}", file=sys.stderr)
        return not any(s.failures for s in run.steps)


def setup(workload: Workload, seed: int, work: Path) -> tuple[float, dict, str]:
    """Generate the inputs into work/in: (seconds, truth, digest of the inputs)."""
    target = work / "in"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    start = time.perf_counter()
    truth = workload.generate(seed, target)
    inputs.write_truth(target, truth)
    elapsed = time.perf_counter() - start
    return elapsed, truth, checks.tree_digest(target)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"{name:<34} median {med:12.4f} {unit:<8} min {min(values):.4f} "
          f"p25 {q1:.4f} p75 {q3:.4f} n={len(values)}")


def add_self_times(spans: list[dict]) -> list[dict]:
    """Set each span's `self`: its wall time minus that of its same-thread
    children (a pool thread's work overlaps its waiting parent)."""
    for s in spans:
        s["self"] = s["wall"]
    for s in spans:
        parent = s["parent"]
        if parent is not None and spans[parent]["thread"] == s["thread"]:
            spans[parent]["self"] -= s["wall"]
    return spans


def _optional_keyvalues(path: Path) -> dict[str, str]:
    return checks.read_keyvalues(path) if path.exists() else {}


def layer_metrics(plain: Run, traced: Run, root: Path, truth: dict) -> dict[str, float]:
    """Per-layer metrics of one untraced/traced pair of runs.

    Times are summed over every call in the workload's subcommands; a
    layer the workload never calls reads 0.
    """
    spans = [s for sub in traced.spans.values() for s in sub]

    def wall(*names: str) -> float:
        return sum((s["wall"] for s in spans if s["name"] in names), 0.0)

    def cpu(name: str) -> float:
        return sum((s["process_cpu"] for s in spans if s["name"] == name), 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run = root / "run"
    ingest = _optional_keyvalues(run / "ingest" / "ingest_stats.txt")
    graph = _optional_keyvalues(run / "graph" / "graph_stats.txt")
    corpus = _optional_keyvalues(run / "topics" / "corpus_stats.txt")
    edges = int(graph.get("edges", 0))
    tokens = int(corpus.get("tokens", 0))
    iterations = 0
    if (run / "topics" / "manifest.json").exists():
        iterations = json.loads((run / "topics" / "manifest.json").read_text())["config"]["iterations"]
    max_core = 0
    if (run / "graph" / "network.tsv").exists():
        header, rows = checks.read_tsv(run / "graph" / "network.tsv")
        max_core = max((int(r[header.index("kcore")]) for r in rows), default=0)
    aucs = checks.mean_aucs(run / "model") if (run / "model" / "eval.csv").exists() else {}
    recovery = 0.0
    if (run / "topics" / "topics.tsv").exists():
        recovery = checks.topic_recovery(run / "topics", truth["topics"])

    m = {
        "ingest.read_traffic_file_s": wall("ingest.read_traffic_file"),
        "ingest.write_traffic_table_s": wall("ingest.write_traffic_table"),
        "ingest.read_traffic_table_s": wall("ingest.read_traffic_table"),
        "ingest.records": int(ingest.get("records", 0)),
        "ingest.malformed": int(ingest.get("malformed", 0)),
        "metrics.metrics_table_s": wall("metrics.metrics_table"),
        "metrics.summaries_s": wall(
            "metrics.group_shares", "metrics.histogram", "metrics.heatmap_grid", "metrics.correlations"
        ),
        "metrics.write_metrics_table_s": wall("metrics.write_metrics_table"),
        "overlap.rank_articles_s": wall("overlap.rank_articles"),
        "overlap.cumulative_overlap_s": wall("overlap.cumulative_overlap"),
        "linkgraph.build_graph_s": wall("linkgraph.build_graph"),
        "linkgraph.kcore_decomposition_s": wall("linkgraph.kcore_decomposition"),
        "linkgraph.edges": edges,
        "linkgraph.max_core": max_core,
        "features.join_features_s": wall("features.join_features"),
        "features.group_medians_s": wall("features.group_medians"),
        "features.binned_quartiles_s": wall("features.binned_quartiles"),
        "features.read_joined_table_s": wall("features.read_joined_table"),
        "topics.corpus_from_file_s": wall("topics.corpus_from_file"),
        "topics.fit_lda_s": wall("topics.fit_lda"),
        "topics.tokens": tokens,
        "topics.planted_recovery": recovery,
        "model.cross_validate_s": wall("model.cross_validate"),
        "model.train_gbdt_s": wall("model.train_gbdt"),
        "model.trees": sum(s["trees"] for s in spans),
        "manifest.build_manifest_s": wall("manifest.build_manifest"),
        "trace.overhead_s": traced.wall - plain.wall,
    }
    m["ingest.lines_per_s"] = ratio(int(ingest.get("lines", 0)), m["ingest.read_traffic_file_s"])
    m["ingest.cpu_per_wall"] = ratio(cpu("ingest.read_traffic_file"), m["ingest.read_traffic_file_s"])
    m["linkgraph.edges_per_s"] = ratio(edges, m["linkgraph.build_graph_s"])
    m["linkgraph.kcore_edges_per_s"] = ratio(edges, m["linkgraph.kcore_decomposition_s"])
    m["topics.token_samples_per_s"] = ratio(tokens * iterations, m["topics.fit_lda_s"])
    m["model.trees_per_s"] = ratio(m["model.trees"], m["model.train_gbdt_s"])
    m["model.cv_cpu_per_wall"] = ratio(cpu("model.cross_validate"), m["model.cross_validate_s"])
    for group in MODEL_GROUPS:
        m[f"model.mean_auc.{group}"] = aucs.get(group, 0.0)

    for sub in SUBCOMMANDS:
        step = next((s for s in plain.steps if s.sub == sub), None)
        traced_step = next((s for s in traced.steps if s.sub == sub), None)
        # spans and wall time of the same (traced) process
        attributed = sum(s["self"] for s in traced.spans.get(sub, []) if s["main"])
        m[f"cli.{sub}.wall_s"] = step.wall if step else 0.0
        m[f"cli.{sub}.peak_rss_mb"] = step.rss_mb if step else 0.0
        m[f"cli.{sub}.unattributed_s"] = traced_step.wall - attributed if traced_step else 0.0
    return m


def print_span_table(spans: list[dict]) -> None:
    """Calls, wall, self and thread CPU time per shimmed function."""
    table: dict[str, list[float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["wall"]
        row[2] += s["self"]
        row[3] += s["thread_cpu"]
    print(f"{'span':<34} {'calls':>6} {'wall_s':>9} {'self_s':>9} {'thread_cpu_s':>12}")
    for name, (calls, wall, own, cpu) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<34} {calls:>6} {wall:9.4f} {own:9.4f} {cpu:12.4f}")


def sample(launcher: Launcher, workload: Workload, seed: int, seconds: float, trace: bool):
    """Set up and run the workload until `seconds` have passed.

    Returns (untraced runs, traced runs, set-up times, ledger); traced
    runs alternate with untraced ones when `trace` is set. Stops early at
    the first failed operation.
    """
    work = WORK / "current"
    work.mkdir(parents=True, exist_ok=True)
    warm = launcher.run([sys.executable, "-c", "import clickroles.cli"], work)
    if warm[2]:
        raise RuntimeError(f"cannot import clickroles from {SRC}: {warm[3]}")

    ledger = Ledger()
    runs: list[Run] = []
    traced_runs: list[tuple[Run, dict]] = []
    setup_times: list[float] = []
    input_digests = set()
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        # fresh inputs before every run, so set-up samples spread over the whole measurement
        batch: list[float] = []
        while not batch or not trace and sum(batch) < SETUP_SECONDS:
            elapsed, truth, digest = setup(workload, seed, work)
            batch.append(elapsed)
            input_digests.add(digest)
        setup_times += batch
        if len(input_digests) != 1:
            raise RuntimeError("the input generator wrote different bytes for one seed")

        plain = run_pipeline(launcher, workload, work / "plain", truth, traced=False)
        runs.append(plain)
        ok = ledger.record(plain)
        print(f"run {len(runs)}: wall {plain.wall:.4f} s, peak RSS {plain.peak_rss_mb:.1f} MB, "
              + ", ".join(f"{s.sub} {s.wall:.3f}" for s in plain.steps))
        if ok and trace:
            traced = run_pipeline(launcher, workload, work / "traced", truth, traced=True)
            ok = ledger.record(traced)
            if ok:
                traced_runs.append((traced, layer_metrics(plain, traced, work / "traced", truth)))
            print(f"traced {len(traced_runs)}: wall {traced.wall:.4f} s")
        if not ok:
            break
    return runs, traced_runs, setup_times, ledger


def end_to_end_metrics(runs: list[Run], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    """wall_s: sum over subcommands of each one's fastest invocation.

    The host's other tenants slow this machine in phases that last from
    a second to a minute, always upward; the fastest invocation of each
    subcommand process is its cost without them. setup_s is likewise the
    fastest set-up; peak RSS does not suffer from them, so it is a median.
    """
    walls: dict[str, list[float]] = {}
    for run in runs:
        for step in run.steps:
            walls.setdefault(step.sub, []).append(step.wall)
    for sub, values in walls.items():
        describe(f"{sub} wall", values, "s")
    describe("run wall (first start to last exit)", [r.wall for r in runs], "s")
    describe("peak_rss_mb", [r.peak_rss_mb for r in runs], "MB")
    describe("setup_s", setup_times, "s")
    return {
        "wall_s": (sum(min(v) for v in walls.values()), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": (min(setup_times), "s"),
    }


def per_layer_metrics(launcher: Launcher, traced_runs: list[tuple[Run, dict]]) -> dict[str, tuple[float, str]]:
    """Median over traced runs of each per-layer metric, plus start-up time."""
    startup = [
        launcher.run([sys.executable, "-c", "import clickroles.cli"], WORK)[0] for _ in range(STARTUP_REPEATS)
    ]
    if traced_runs:
        last, _ = traced_runs[-1]
        print_span_table([s for sub in last.spans.values() for s in sub])
    metrics = {}
    for name, unit in PER_LAYER:
        values = startup if name == "cli.startup_s" else [m[name] for _, m in traced_runs] or [0.0]
        describe(name, values, unit)
        metrics[name] = (statistics.median(values), unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clickroles" / "cli.py").is_file():
        print(f"error: no clickroles sources under {SRC}", file=sys.stderr)
        return 2

    with Launcher() as launcher:
        runs, traced_runs, setup_times, ledger = sample(
            launcher, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
        if args.trace:
            metrics = per_layer_metrics(launcher, traced_runs)
        else:
            metrics = end_to_end_metrics(runs, setup_times)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
