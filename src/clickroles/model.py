"""Gradient-boosted tree classification of traffic roles.

An instance set stacks the joined table's feature columns, plus a
one-hot of the topic ids present; a feature group is the columns whose
names pass its test in FEATURE_GROUPS. Binary targets are the roles that
``metrics`` assigned at the corpus means, read from the joined table's
quadrant column: a task's positives are the roles TASKS names for it,
the search-dominated ones (searchshare strictly above its mean) or the
relays (resistance at or below its mean). The classifier is a
stagewise ensemble of axis-aligned regression trees fit to
logistic-loss gradients with Newton leaf values. Split search is exact
greedy over sorted unique feature values on columns sorted once per
training set (the pre-sorted column blocks of XGBoost, Chen & Guestrin
2016, §4.1): every node keeps its rows in each feature's order, splits
that order stably into its children, and scores all features' candidate
thresholds in one vectorized pass, tie-broken toward the lowest feature
index and threshold, so the vectorized scan picks the split a search of
one feature at a time would. A tree grows in one loop over a work list
of nodes, depth first with the left child before its sibling, so node
ids are in pre-order and the depth has no bound but the rows. Leaves
record each training row's value as they are made, so a stage's step
needs no second walk of its tree. A tree is five flat node arrays,
named with their dtypes once in TREE_ARRAYS, which the grower and the
model file's writer and reader follow. Evaluation is stratified 10-fold
cross-validation with the training side of each fold balanced by
seeded downsampling, scored by rank-statistic ROC AUC: cross_validate
returns one feature group's fold AUCs, and write_eval_report writes them
and their mean under the task its caller names. The final model of a
group is trained on every instance, balanced the same way.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .metrics import ROLES, average_ranks
from .tableio import ColumnTable, open_text, write_json, write_rows

# Each task's positive roles, by name from metrics.ROLES.
TASKS = {"searchshare": ("search-exit", "search-relay"), "resistance": ("search-relay", "nav-relay")}

# The model's own feature lists: NETWORK_FEATURES leaves out linkgraph's
# degree, the sum of its two degrees, and CONTENT_EDIT_FEATURES holds
# features.CONTENT in an order of its own. The order fixes the instance
# columns, and split ties go to the lowest feature index, so changing it
# changes the model_*.json bytes.
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
FEATURE_GROUPS = {
    "network": NETWORK_FEATURES.__contains__,
    "content-edit": CONTENT_EDIT_FEATURES.__contains__,
    "topic": lambda name: name.startswith("topic_"),
    "all": lambda _: True,
}

MODEL_FORMAT_VERSION = 1

_EPS = 1e-12


@dataclass(frozen=True)
class InstanceSet:
    feature_names: tuple[str, ...]
    x: np.ndarray  # n x d, float
    y: np.ndarray  # n, int8 in {0, 1}

    def __len__(self) -> int:
        return len(self.y)


def build_instances(table: ColumnTable, task: str) -> InstanceSet:
    """Labeled instances from a joined feature table, each labeled 1 iff
    its role is one of the task's positive roles in TASKS.

    The vector is network + content/edit features plus a one-hot of the
    dominant topic, one column ``topic_<id>`` per distinct id present,
    ascending. Rows without a topic assignment are excluded; with no
    topics anywhere the vector simply has no topic block.
    """
    topic_id = table["topic_id"]
    ids = sorted(set(topic_id[topic_id >= 0].tolist()))
    rows = np.flatnonzero(topic_id >= 0) if ids else np.arange(len(table))

    base = NETWORK_FEATURES + CONTENT_EDIT_FEATURES
    names = base + tuple(f"topic_{i}" for i in ids)
    x = np.empty((len(rows), len(names)))
    for j, name in enumerate(base):
        x[:, j] = table[name][rows]
    x[:, len(base) :] = topic_id[rows, None] == np.array(ids, dtype=np.int64)
    positive = [ROLES.index(role) for role in TASKS[task]]
    y = np.isin(table["quadrant"][rows], positive).astype(np.int8)
    return InstanceSet(names, x, y)


def select_group(instances: InstanceSet, group: str) -> InstanceSet:
    """The columns of `instances` that pass `group`'s test in FEATURE_GROUPS."""
    cols = [j for j, name in enumerate(instances.feature_names) if FEATURE_GROUPS[group](name)]
    if not cols:
        raise UsageError(f"no {group!r} features present in the instance set")
    return InstanceSet(tuple(instances.feature_names[j] for j in cols), instances.x[:, cols], instances.y)


def default_groups(instances: InstanceSet) -> list[str]:
    """The feature groups evaluated when none are named: every group if
    the instances have topic columns, else network and content-edit."""
    if any(map(FEATURE_GROUPS["topic"], instances.feature_names)):
        return list(FEATURE_GROUPS)
    return ["network", "content-edit"]


def balance(y: np.ndarray, seed) -> np.ndarray:
    """The rows of labels `y` (both classes present) kept when the
    majority class is downsampled, seeded, to the minority's size, in
    ascending order: an already balanced `y` keeps every row."""
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    rng = np.random.default_rng(seed)
    if len(pos) > len(neg):
        pos = rng.choice(pos, size=len(neg), replace=False)
    elif len(neg) > len(pos):
        neg = rng.choice(neg, size=len(pos), replace=False)
    return np.sort(np.concatenate([pos, neg]))


# ---------------------------------------------------------------------------
# boosted trees


# The node arrays of a Tree, in field order, each with its dtype.
TREE_ARRAYS = {"feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64, "value": np.float64}


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


def _tree(arrays: Mapping[str, Sequence]) -> Tree:
    """A Tree of the TREE_ARRAYS named in `arrays`, each at its dtype."""
    return Tree(**{name: np.asarray(arrays[name], dtype=dtype) for name, dtype in TREE_ARRAYS.items()})


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


def _grow_tree(
    x_by_feature: np.ndarray, order: np.ndarray, g: np.ndarray, h: np.ndarray, max_depth: int, min_leaf: int
) -> tuple[Tree, np.ndarray]:
    """One regression tree on gradient/hessian targets, and each training
    row's leaf value, recorded as the leaves are made.

    `order` holds, per feature, the training rows in stable ascending
    order of that feature (d x n). Each node carries its own rows the
    same way (d x m) and hands each child its stable part, so no column
    is sorted again below the root. Nodes come off a work list depth
    first, a left child before its sibling, so their ids are in pre-order:
    a left child is its parent's id + 1, and a right child's id is linked
    into its parent when it is popped.
    """
    row_value = np.empty(len(g))
    nodes: dict[str, list] = {name: [] for name in TREE_ARRAYS}
    # (parent of a right child or -1, the node's rows ascending, the same
    # rows in each feature's order, depth); ascending rows keep every sum
    # adding in the order it always has
    work = [(-1, np.arange(len(g)), order, 0)]
    while work:
        parent, idx, order, depth = work.pop()
        node = len(nodes["feature"])
        if parent >= 0:
            nodes["right"][parent] = node
        split = None
        if depth < max_depth and len(idx) >= 2 * min_leaf:
            split = _best_split(x_by_feature, g, h, min_leaf, idx, order)
        if split is None:
            value = float(g[idx].sum() / (h[idx].sum() + _EPS))
            row_value[idx] = value
            fields = (-1, 0.0, -1, -1, value)
        else:
            j, thr, n_left = split
            fields = (j, thr, node + 1, -1, 0.0)
            # the rows with x[:, j] <= thr are the first n_left of feature j's order
            in_left = np.zeros(len(g), dtype=bool)
            in_left[order[j, :n_left]] = True
            go_left = in_left[order]
            idx_left = in_left[idx]
            d = len(order)
            work.append((node, idx[~idx_left], order[~go_left].reshape(d, len(idx) - n_left), depth + 1))
            work.append((-1, idx[idx_left], order[go_left].reshape(d, n_left), depth + 1))
        for name, field in zip(TREE_ARRAYS, fields):
            nodes[name].append(field)
    return _tree(nodes), row_value


def _best_split(
    x_by_feature: np.ndarray, g: np.ndarray, h: np.ndarray, min_leaf: int, idx: np.ndarray, order: np.ndarray
) -> tuple[int, float, int] | None:
    """(feature, threshold, rows going left) of the best gain over all
    features for a node of _grow_tree, or None when no split improves by
    more than _EPS.

    Position k of a row of `order` is the split after its k+1 smallest
    rows; only positions leaving min_leaf rows on both sides are scored.
    Ties go to the lowest feature, then the lowest threshold.
    """
    lo, hi = min_leaf - 1, len(idx) - min_leaf
    xv = np.take_along_axis(x_by_feature, order, axis=1)
    boundary = xv[:, lo:hi] < xv[:, lo + 1 : hi + 1]
    if not boundary.any():
        return None
    g_total, h_total = g[idx].sum(), h[idx].sum()
    parent = g_total * g_total / (h_total + _EPS)
    head = order[:, :hi]
    # candidates in row-major order: lowest feature, then lowest threshold
    gl = np.cumsum(g[head], axis=1)[:, lo:][boundary]
    hl = np.cumsum(h[head], axis=1)[:, lo:][boundary]
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

    Each stage fits a tree to the current gradients and scales its leaf
    values by the first of 1, 2**-1, ..., 2**-60 that does not raise the
    training loss, or by 0 if none does, so the loss never increases.

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
        tree, row_value = _grow_tree(x_by_feature, order, g, h, config.max_depth, config.min_leaf)
        step = row_value * config.learning_rate
        scale = 1.0
        # at scale 0 the loss is the current one, which ends the loop
        while (new_loss := log_loss(scores + scale * step, y)) > loss:
            scale = scale / 2 if scale > 2.0**-60 else 0.0
        trees.append(replace(tree, value=tree.value * scale))
        scores = scores + scale * step
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
    """Seeded stratified partition: per-class shuffle, round-robin deal.
    Both classes are checked to fill n_folds before any fold is made."""
    by_class = [np.nonzero(y == cls)[0] for cls in (0, 1)]
    for cls, idx in enumerate(by_class):
        if len(idx) < n_folds:
            raise DataError(
                f"class {cls} has {len(idx)} instances, fewer than {n_folds} folds"
            )
    rng = np.random.default_rng(seed)
    dealt = [rng.permutation(idx) for idx in by_class]
    return [np.sort(np.concatenate([perm[f::n_folds] for perm in dealt])) for f in range(n_folds)]


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
    x, y = subset.x, subset.y
    folds = stratified_folds(y, n_folds, config.seed)

    def run_fold(f: int) -> float:
        test_idx = folds[f]
        train_idx = np.delete(np.arange(len(y)), test_idx)
        rows = train_idx[balance(y[train_idx], [config.seed, f])]
        model = train_gbdt(x[rows], y[rows], config, subset.feature_names)
        return roc_auc(model.decision_scores(x[test_idx]), y[test_idx])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return tuple(pool.map(run_fold, range(n_folds)))


def final_model(instances: InstanceSet, group: str, config: GBDTConfig, n_folds: int) -> GBDTModel:
    """One feature group's model on every instance, balanced by the seed
    [seed, n_folds], clear of the folds' [seed, 0..n_folds-1]."""
    subset = select_group(instances, group)
    rows = balance(subset.y, [config.seed, n_folds])
    return train_gbdt(subset.x[rows], subset.y[rows], config, subset.feature_names)


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
        "trees": [{name: getattr(t, name).tolist() for name in TREE_ARRAYS} for t in model.trees],
    }
    write_json(path, doc)


def load_model(path: str | Path) -> GBDTModel:
    with open_text(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version: {version!r}")
    return GBDTModel(
        float(doc["initial_score"]),
        float(doc["learning_rate"]),
        tuple(doc["feature_names"]),
        tuple(map(_tree, doc["trees"])),
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
