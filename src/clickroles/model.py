"""Gradient-boosted tree classification of traffic roles.

An instance set stacks the joined table's feature columns, plus a
one-hot of the topic ids present. Binary targets come from thresholding
searchshare (above = search dominated) or resistance (at or below =
relay). The classifier is a stagewise ensemble of axis-aligned
regression trees fit to logistic-loss gradients with Newton leaf
values. Split search is exact greedy over sorted unique feature values
on columns sorted once per training set
(the pre-sorted column blocks of XGBoost, Chen & Guestrin 2016, §4.1):
every node keeps its rows in each feature's order, splits that order
stably into its children, and scores all features' candidate
thresholds in one vectorized pass, tie-broken toward the lowest feature
index and threshold so parallel and sequential searches agree. Leaves
record each training row's value as they are made, so a stage's step
needs no second walk of its tree. Evaluation is stratified 10-fold
cross-validation with the training side of each fold balanced by
seeded downsampling, scored by rank-statistic ROC AUC: cross_validate
returns one feature group's fold AUCs, and write_eval_report writes them
and their mean under the task its caller names. The final model of a
group is trained on every instance, balanced the same way.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .metrics import average_ranks
from .tableio import ColumnTable, open_text, write_json, write_rows

SEARCHSHARE_THRESHOLD = 0.66
RESISTANCE_THRESHOLD = 0.88
TASKS = ("searchshare", "resistance")

NETWORK_FEATURES = ("in_degree", "out_degree", "kcore")
CONTENT_EDIT_FEATURES = (
    "revisions",
    "editors",
    "size",
    "tables",
    "figures",
    "lists",
    "sections",
    "age",
)
FEATURE_GROUPS = ("network", "content-edit", "topic", "all")

MODEL_FORMAT_VERSION = 1

_EPS = 1e-12


def binarize_target(values: Sequence[float], task: str, threshold: float | None) -> np.ndarray:
    """0/1 labels for a metric vector, at the task's own cut
    (SEARCHSHARE_THRESHOLD or RESISTANCE_THRESHOLD) if threshold is None.

    searchshare: 1 iff value > threshold (strictly above is search
    dominated). resistance: 1 iff value <= threshold (boundary counts as
    relay).
    """
    if threshold is None:
        threshold = SEARCHSHARE_THRESHOLD if task == "searchshare" else RESISTANCE_THRESHOLD
    arr = np.asarray(values, dtype=float)
    if task == "searchshare":
        return (arr > threshold).astype(np.int8)
    return (arr <= threshold).astype(np.int8)


@dataclass(frozen=True)
class InstanceSet:
    feature_names: tuple[str, ...]
    x: np.ndarray  # n x d, float
    y: np.ndarray  # n, int8 in {0, 1}

    def __len__(self) -> int:
        return len(self.y)


def build_instances(
    table: ColumnTable,
    task: str,
    threshold: float | None,
) -> tuple[InstanceSet, int]:
    """Labeled instances from a joined feature table.

    The vector is network + content/edit features plus a one-hot of the
    dominant topic, one column ``topic_<id>`` per distinct id present,
    ascending. Rows without a topic assignment are excluded (the count
    comes back alongside); with no topics anywhere the vector simply has
    no topic block.
    """
    topic_id = table["topic_id"]
    ids = sorted(set(topic_id[topic_id >= 0].tolist()))
    rows = np.flatnonzero(topic_id >= 0) if ids else np.arange(len(table))
    dropped = len(table) - len(rows)

    base = NETWORK_FEATURES + CONTENT_EDIT_FEATURES
    names = base + tuple(f"topic_{i}" for i in ids)
    x = np.empty((len(rows), len(names)))
    for j, name in enumerate(base):
        x[:, j] = table[name][rows]
    x[:, len(base) :] = topic_id[rows, None] == np.array(ids, dtype=np.int64)
    y = binarize_target(table[task][rows], task, threshold)
    return InstanceSet(names, x, y), dropped


def select_group(instances: InstanceSet, group: str) -> InstanceSet:
    """Column subset for one of the named feature groups."""
    if group == "network":
        wanted = [n for n in instances.feature_names if n in NETWORK_FEATURES]
    elif group == "content-edit":
        wanted = [n for n in instances.feature_names if n in CONTENT_EDIT_FEATURES]
    elif group == "topic":
        wanted = [n for n in instances.feature_names if n.startswith("topic_")]
    else:
        wanted = list(instances.feature_names)
    if not wanted:
        raise UsageError(f"no {group!r} features present in the instance set")
    cols = [instances.feature_names.index(n) for n in wanted]
    return InstanceSet(tuple(wanted), instances.x[:, cols], instances.y)


def default_groups(instances: InstanceSet) -> list[str]:
    """The feature groups evaluated when none are named: every group if
    the instances have topic columns, else network and content-edit."""
    if any(name.startswith("topic_") for name in instances.feature_names):
        return list(FEATURE_GROUPS)
    return ["network", "content-edit"]


def balance(instances: InstanceSet, seed) -> InstanceSet:
    """Downsample the majority class to the minority size, seeded.

    Kept indices are re-sorted, so an already balanced set passes
    through with membership and order unchanged. `instances` holds
    both classes.
    """
    y = instances.y
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    rng = np.random.default_rng(seed)
    if len(pos) > len(neg):
        pos = rng.choice(pos, size=len(neg), replace=False)
    elif len(neg) > len(pos):
        neg = rng.choice(neg, size=len(pos), replace=False)
    keep = np.sort(np.concatenate([pos, neg]))
    return InstanceSet(instances.feature_names, instances.x[keep], instances.y[keep])


# ---------------------------------------------------------------------------
# boosted trees


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; feature -1 marks a leaf carrying `value`."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        idx = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        while True:
            feat = self.feature[idx]
            internal = feat >= 0
            if not internal.any():
                return self.value[idx]
            fx = x[rows, np.maximum(feat, 0)]
            go_left = fx <= self.threshold[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(internal, nxt, idx)

    def scale_values(self, factor: float) -> "Tree":
        return Tree(self.feature, self.threshold, self.left, self.right, self.value * factor)


@dataclass(frozen=True)
class GBDTConfig:
    n_trees: int
    max_depth: int
    learning_rate: float
    min_leaf: int
    seed: int


@dataclass(frozen=True)
class GBDTModel:
    initial_score: float
    learning_rate: float
    feature_names: tuple[str, ...]
    trees: tuple[Tree, ...]
    prior_fallback: bool

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.full(len(x), self.initial_score)
        for tree in self.trees:
            scores += self.learning_rate * tree.leaf_values(x)
        return scores


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(scores: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of raw scores, computed in a stable form."""
    z = np.asarray(scores, dtype=float)
    # log(1 + e^-m) with m = z for y=1, -z for y=0
    margin = np.where(y == 1, z, -z)
    return float(np.mean(np.logaddexp(0.0, -margin)))


class _TreeBuilder:
    """Grows one regression tree on gradient/hessian targets.

    `order` holds, per feature, the training rows in stable ascending
    order of that feature (d x n). Each node carries its own rows the
    same way (d x m) and hands each child its stable part, so no column
    is sorted again below the root. `row_value` receives each row's leaf
    value as the leaves are made.
    """

    def __init__(
        self,
        x_by_feature: np.ndarray,
        order: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        max_depth: int,
        min_leaf: int,
    ):
        self.x_by_feature = x_by_feature
        self.order = order
        self.g = g
        self.h = h
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.in_left = np.zeros(len(g), dtype=bool)
        self.row_value = np.empty(len(g))
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def build(self) -> Tree:
        self._grow(np.arange(len(self.g)), self.order, 0)
        return Tree(
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=float),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=float),
        )

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _grow(self, idx: np.ndarray, order: np.ndarray, depth: int) -> int:
        """`idx` is the node's rows ascending, so its sums add in the order
        they always have; `order` is the same rows in each feature's order."""
        node = self._new_node()
        split = None
        if depth < self.max_depth and len(idx) >= 2 * self.min_leaf:
            split = self._best_split(idx, order)
        if split is None:
            value = float(self.g[idx].sum() / (self.h[idx].sum() + _EPS))
            self.value[node] = value
            self.row_value[idx] = value
            return node
        j, thr, n_left = split
        self.feature[node] = j
        self.threshold[node] = thr
        # the rows with x[:, j] <= thr are the first n_left of feature j's order
        left_rows = order[j, :n_left]
        in_left = self.in_left
        in_left[left_rows] = True
        go_left = in_left[order]
        idx_left = in_left[idx]
        in_left[left_rows] = False
        d = len(order)
        left_order = order[go_left].reshape(d, n_left)
        right_order = order[~go_left].reshape(d, len(idx) - n_left)
        self.left[node] = self._grow(idx[idx_left], left_order, depth + 1)
        self.right[node] = self._grow(idx[~idx_left], right_order, depth + 1)
        return node

    def _best_split(self, idx: np.ndarray, order: np.ndarray) -> tuple[int, float, int] | None:
        """(feature, threshold, rows going left) of the best gain over all
        features, or None when no split improves by more than _EPS.

        Position k of a row of `order` is the split after its k+1 smallest
        rows; only positions leaving min_leaf rows on both sides are scored.
        Ties go to the lowest feature, then the lowest threshold.
        """
        lo, hi = self.min_leaf - 1, len(idx) - self.min_leaf
        xv = np.take_along_axis(self.x_by_feature, order, axis=1)
        boundary = xv[:, lo:hi] < xv[:, lo + 1 : hi + 1]
        if not boundary.any():
            return None
        g_total, h_total = self.g[idx].sum(), self.h[idx].sum()
        parent = g_total * g_total / (h_total + _EPS)
        head = order[:, :hi]
        # candidates in row-major order: lowest feature, then lowest threshold
        gl = np.cumsum(self.g[head], axis=1)[:, lo:][boundary]
        hl = np.cumsum(self.h[head], axis=1)[:, lo:][boundary]
        gr = g_total - gl
        hr = h_total - hl
        gain = gl * gl / (hl + _EPS) + gr * gr / (hr + _EPS) - parent
        c = int(np.argmax(gain))  # first max
        if not gain[c] > _EPS:  # require a strictly positive improvement
            return None
        j, k = divmod(int(np.flatnonzero(boundary)[c]), hi - lo)
        k += lo
        thr = float((xv[j, k] + xv[j, k + 1]) / 2.0)
        # x <= thr holds on a prefix of the sorted column; it is k + 1 long
        # unless the midpoint rounds up to the next value or is not finite
        n_left = int(np.count_nonzero(xv[j] <= thr))
        return j, thr, n_left


def train_gbdt(
    x: np.ndarray,
    y: np.ndarray,
    config: GBDTConfig,
    feature_names: Sequence[str],
) -> GBDTModel:
    """Stagewise fit; deterministic for a given config.

    Each stage fits a tree to the current gradients and is accepted only
    if it does not increase training loss; otherwise its leaf values are
    halved until it stops hurting (reaching zero in the limit), so the
    per-stage loss sequence is non-increasing by construction.

    `x` is n x d with one row per label of `y`, and `feature_names`
    names its d columns, as an InstanceSet holds them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos < 2 or n_neg < 2:
        raise DataError("need at least 2 instances per class")
    names = tuple(feature_names)

    initial = float(np.log(n_pos / n_neg))
    degenerate = bool(np.all(x == x[0], axis=0).all())
    if degenerate:
        return GBDTModel(initial, config.learning_rate, names, (), True)

    x_by_feature = np.ascontiguousarray(x.T)
    order = np.argsort(x_by_feature, axis=1, kind="stable")
    scores = np.full(len(y), initial)
    loss = log_loss(scores, y)
    trees: list[Tree] = []
    for _ in range(config.n_trees):
        p = _sigmoid(scores)
        g = y - p
        h = p * (1.0 - p)
        builder = _TreeBuilder(x_by_feature, order, g, h, config.max_depth, config.min_leaf)
        tree = builder.build()
        step = builder.row_value * config.learning_rate
        new_loss = log_loss(scores + step, y)
        halvings = 0
        while new_loss > loss and halvings < 60:
            tree = tree.scale_values(0.5)
            step *= 0.5
            new_loss = log_loss(scores + step, y)
            halvings += 1
        if new_loss > loss:
            tree = tree.scale_values(0.0)
            step *= 0.0
            new_loss = loss
        trees.append(tree)
        scores = scores + step
        loss = new_loss
    return GBDTModel(initial, config.learning_rate, names, tuple(trees), False)


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC of 0/1 `labels` that hold both classes; tied
    score pairs count one half."""
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    ranks = average_ranks(scores)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def stratified_folds(y: np.ndarray, n_folds: int, seed) -> list[np.ndarray]:
    """Seeded stratified partition: per-class shuffle, round-robin deal."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        if len(idx) < n_folds:
            raise DataError(
                f"class {cls} has {len(idx)} instances, fewer than {n_folds} folds"
            )
        for i, v in enumerate(rng.permutation(idx)):
            folds[i % n_folds].append(int(v))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def cross_validate(
    instances: InstanceSet,
    group: str,
    config: GBDTConfig,
    n_folds: int,
    threads: int,
) -> tuple[float, ...]:
    """Stratified k-fold evaluation of one feature group: the held-out
    AUC of each fold, in fold order.

    Only the training side of fold f is balanced, by the seed [seed, f];
    the held-out fold keeps its natural class mix. Fold results are
    merged in fold order, so any thread count gives the same AUCs.
    """
    subset = select_group(instances, group)
    folds = stratified_folds(subset.y, n_folds, config.seed)
    all_idx = np.arange(len(subset.y))

    def run_fold(f: int) -> float:
        test_idx = folds[f]
        train_mask = np.ones(len(subset.y), dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_idx[train_mask]
        train = InstanceSet(subset.feature_names, subset.x[train_idx], subset.y[train_idx])
        train = balance(train, seed=[config.seed, f])
        model = train_gbdt(train.x, train.y, config, subset.feature_names)
        scores = model.decision_scores(subset.x[test_idx])
        return roc_auc(scores, subset.y[test_idx])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return tuple(pool.map(run_fold, range(n_folds)))


def final_model(instances: InstanceSet, group: str, config: GBDTConfig, n_folds: int) -> GBDTModel:
    """One feature group's model on every instance, balanced by the seed
    [seed, n_folds], clear of the folds' [seed, 0..n_folds-1]."""
    subset = balance(select_group(instances, group), seed=[config.seed, n_folds])
    return train_gbdt(subset.x, subset.y, config, subset.feature_names)


# ---------------------------------------------------------------------------
# serialization


def save_model(path: str | Path, model: GBDTModel) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "loss": "logistic",
        "initial_score": model.initial_score,
        "learning_rate": model.learning_rate,
        "feature_names": list(model.feature_names),
        "prior_fallback": model.prior_fallback,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in model.trees
        ],
    }
    write_json(path, doc)


def load_model(path: str | Path) -> GBDTModel:
    with open_text(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version: {version!r}")
    trees = tuple(
        Tree(
            np.asarray(t["feature"], dtype=np.int64),
            np.asarray(t["threshold"], dtype=float),
            np.asarray(t["left"], dtype=np.int64),
            np.asarray(t["right"], dtype=np.int64),
            np.asarray(t["value"], dtype=float),
        )
        for t in doc["trees"]
    )
    return GBDTModel(
        float(doc["initial_score"]),
        float(doc["learning_rate"]),
        tuple(doc["feature_names"]),
        trees,
        bool(doc["prior_fallback"]),
    )


def write_eval_report(path: str | Path, task: str, aucs_by_group: Mapping[str, Sequence[float]]) -> None:
    """CSV with one row per fold and a mean row per feature group."""
    rows = (
        (task, group, fold, auc)
        for group, aucs in aucs_by_group.items()
        for fold, auc in (*enumerate(aucs), ("mean", sum(aucs) / len(aucs)))
    )
    write_rows(path, rows, ("task", "feature_group", "fold", "auc"), sep=",")
