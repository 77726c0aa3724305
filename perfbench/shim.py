"""Traced run of one clickroles subcommand.

    python3 perfbench/shim.py SPANS_JSON SUBCOMMAND [FLAGS...]

Replaces the layer-boundary functions listed in LAYER_FUNCTIONS with
timing shims, in their own module and in every other loaded clickroles
module that imported them by name (``clickroles.cli`` above all), then
runs ``clickroles.cli.main`` on the remaining arguments and writes one
record per call to SPANS_JSON. The program's own files are untouched.

Per-row helpers (``classify_referrer``, ``fmt_value``, ...) and
generators are left alone: a shim on a per-row call would cost more than
the work it times, and a generator returns before its work is done.
Their time lands in the calling span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

LAYER_FUNCTIONS = {
    "ingest": ("read_traffic_file", "write_traffic_table", "read_traffic_table"),
    "metrics": (
        "metrics_table",
        "corpus_thresholds",
        "group_shares",
        "histogram",
        "heatmap_grid",
        "correlations",
        "write_metrics_table",
        "read_metrics_table",
    ),
    "overlap": ("rank_articles", "cumulative_overlap", "write_curve"),
    "linkgraph": (
        "graph_from_file",
        "build_graph",
        "network_features",
        "kcore_decomposition",
        "write_network_table",
        "read_network_table",
    ),
    "features": (
        "join_features",
        "group_medians",
        "binned_quartiles",
        "topic_statistics",
        "read_content_table",
        "read_joined_table",
        "write_joined_table",
    ),
    "topics": ("corpus_from_file", "fit_lda", "write_assignments", "write_phi", "write_theta"),
    "model": ("build_instances", "cross_validate", "train_gbdt", "balance", "save_model"),
    "manifest": ("build_manifest", "write_manifest"),
}

class Recorder:
    """Collects spans from every thread.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost open span of the same thread. A span opened by a pool
    thread with nothing open on its own stack takes the innermost open
    span of the main thread as its parent (the call that is waiting on
    the pool); self time subtracts same-thread children only.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.spans: list[dict] = []
        self.stacks: dict[int, list[int]] = {}
        self.main_thread = threading.get_ident()

    def _open(self, name: str) -> tuple[int, list[int]]:
        thread = threading.get_ident()
        with self.lock:
            stack = self.stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self.stacks.get(self.main_thread)
                parent = main[-1] if main and thread != self.main_thread else None
            span_id = len(self.spans)
            self.spans.append(
                {"name": name, "parent": parent, "main": thread == self.main_thread, "thread": thread}
            )
            stack.append(span_id)
        return span_id, stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span_id, stack = self._open(name)
            wall0 = time.perf_counter()
            thread0 = time.thread_time()
            process0 = time.process_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record = {
                    "wall": time.perf_counter() - wall0,
                    "thread_cpu": time.thread_time() - thread0,
                    "process_cpu": time.process_time() - process0,
                    "trees": len(result.trees) if name == "model.train_gbdt" and result is not None else 0,
                }
                with self.lock:
                    self.spans[span_id].update(record)
                    stack.pop()

        return shim

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "clickroles" or n.startswith("clickroles.")]
        for module_name, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"clickroles.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                shim = self.wrap(f"{module_name}.{name}", original)
                for target in loaded:
                    if getattr(target, name, None) is original:
                        setattr(target, name, shim)


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    import clickroles.cli

    recorder = Recorder()
    recorder.install()
    code = clickroles.cli.main(args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
