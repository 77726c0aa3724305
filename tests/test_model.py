"""Boosted-tree training, AUC, balancing, and cross-validation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickroles.errors import DataError, UsageError
from clickroles.features import CONTENT
from clickroles.linkgraph import NETWORK
from clickroles.metrics import ROLES, assign_quadrants, corpus_thresholds
from clickroles.model import (
    CONTENT_EDIT_FEATURES,
    FEATURE_GROUPS,
    GBDTConfig,
    GBDTModel,
    InstanceSet,
    NETWORK_FEATURES,
    TASKS,
    TREE_ARRAYS,
    Tree,
    _grow_tree,
    _sigmoid,
    balance,
    build_instances,
    cross_validate,
    default_groups,
    final_model,
    load_model,
    log_loss,
    roc_auc,
    save_model,
    select_group,
    stratified_folds,
    train_gbdt,
    write_eval_report,
)
from feature_rows import make_row, make_table


def pair_count_auc_exact(scores, labels) -> float:
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly,
    ties counting one half."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1][:, None]
    neg = s[y == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.shape[0] * neg.shape[1])


def separable_data(n: int, seed: int, d_noise: int = 2):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    noise = rng.normal(size=(n, d_noise))
    x = np.column_stack([x0, noise])
    y = (x0 > 0).astype(np.int8)
    return x, y


def feature_names(x) -> tuple[str, ...]:
    return tuple(f"f{j}" for j in range(x.shape[1]))


def stage_losses(model: GBDTModel, x, y) -> list[float]:
    scores = np.full(len(y), model.initial_score)
    losses = [log_loss(scores, y)]
    for tree in model.trees:
        scores = scores + model.learning_rate * tree.leaf_values(x)
        losses.append(log_loss(scores, y))
    return losses


def ref_build_instances(rows, task):
    """Per-row reference: rows with a topic (all rows when none has
    one), each cell filled in turn, one-hot over the distinct ids, each
    labeled by whether its role is one of the task's."""
    ids = sorted({r["topic_id"] for r in rows if r["topic_id"] is not None})
    kept = [r for r in rows if r["topic_id"] is not None] if ids else list(rows)
    base = NETWORK_FEATURES + CONTENT_EDIT_FEATURES
    names = base + tuple(f"topic_{i}" for i in ids)
    x = np.zeros((len(kept), len(names)), dtype=float)
    for i, r in enumerate(kept):
        for j, name in enumerate(base):
            x[i, j] = float(r[name])
        if ids:
            x[i, len(base) + ids.index(r["topic_id"])] = 1.0
    y = np.array([r["quadrant"] in TASKS[task] for r in kept], dtype=np.int8)
    return names, x, y


class TestBuildInstances:
    def test_feature_lists_name_joined_columns(self):
        # the model keeps its own feature order, which sets the model bytes
        assert set(NETWORK_FEATURES) <= set(NETWORK)
        assert set(CONTENT_EDIT_FEATURES) == set(CONTENT)

    def test_vector_layout(self):
        rows = [
            make_row("A", quadrant="search-exit", in_degree=7, revisions=42, topic_id=1),
            make_row("B", quadrant="nav-relay", topic_id=0),
        ]
        inst = build_instances(make_table(rows), "searchshare")
        assert len(inst) == 2
        assert inst.feature_names[:3] == NETWORK_FEATURES
        assert inst.feature_names[3:11] == CONTENT_EDIT_FEATURES
        assert inst.feature_names[11:] == ("topic_0", "topic_1")
        a = inst.x[0]
        assert a[inst.feature_names.index("in_degree")] == 7
        assert a[inst.feature_names.index("revisions")] == 42
        assert a[inst.feature_names.index("topic_1")] == 1.0
        assert a[inst.feature_names.index("topic_0")] == 0.0
        assert inst.y.tolist() == [1, 0]

    def test_rows_without_topic_dropped(self):
        rows = [make_row("A", topic_id=0, in_degree=3), make_row("B", topic_id=None, in_degree=5)]
        inst = build_instances(make_table(rows), "searchshare")
        assert len(inst) == 1
        _, x, y = ref_build_instances(rows[:1], "searchshare")
        assert np.array_equal(inst.x, x) and np.array_equal(inst.y, y)
        assert inst.x[0, inst.feature_names.index("in_degree")] == 3

    def test_no_topics_at_all(self):
        rows = [make_row("A"), make_row("B")]
        inst = build_instances(make_table(rows), "resistance")
        assert len(inst) == 2
        assert all(not n.startswith("topic_") for n in inst.feature_names)

    def test_default_groups_follow_the_topic_columns(self):
        with_topics = build_instances(make_table([make_row("A", topic_id=2), make_row("B", topic_id=0)]),
                                      "searchshare")
        without = build_instances(make_table([make_row("A"), make_row("B")]), "searchshare")
        assert default_groups(with_topics) == list(FEATURE_GROUPS)
        assert default_groups(without) == ["network", "content-edit"]

    def test_sparse_topic_ids_one_column_each(self):
        # the one-hot spans the ids present, not 0 .. the largest id
        rows = [make_row(f"R{i}", topic_id=tid) for i, tid in enumerate([0, 100000, 0, 100000])]
        inst = build_instances(make_table(rows), "searchshare")
        assert inst.feature_names[11:] == ("topic_0", "topic_100000")
        assert inst.x.shape == (4, 13)
        assert inst.x[:, 11:].tolist() == [[1.0, 0.0], [0.0, 1.0]] * 2

    @given(
        st.lists(
            st.tuples(
                st.none() | st.sampled_from([0, 3, 7, 2**53]),
                st.sampled_from(ROLES),
                st.integers(0, 2**53),
                st.floats(0, 1e6),
            ),
            max_size=30,
        ),
        st.sampled_from(list(TASKS)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_fill(self, cells, task, rng):
        rows = [
            make_row(f"R{i:02d}", topic_id=tid, quadrant=role, kcore=count, size=size)
            for i, (tid, role, count, size) in enumerate(cells)
        ]
        rng.shuffle(rows)
        inst = build_instances(make_table(rows), task)
        ordered = sorted(rows, key=lambda r: r["article"])
        names, x, y = ref_build_instances(ordered, task)
        assert (len(inst), inst.feature_names) == (len(y), names)
        assert inst.x.dtype == np.float64 and inst.x.shape == x.shape
        assert np.array_equal(inst.x, x) and np.array_equal(inst.y, y)

    def roles_at_the_mean(self, ss, res, task):
        """Labels of rows whose roles metrics assigns from these values."""
        ss, res = np.array(ss), np.array(res)
        quadrants = assign_quadrants(ss, res, corpus_thresholds(ss, res))
        rows = [make_row(f"R{i}", quadrant=ROLES[q]) for i, q in enumerate(quadrants)]
        return build_instances(make_table(rows), task).y.tolist()

    def test_searchshare_at_the_mean_is_not_search(self):
        # the mean of 0.25, 0.5 and 0.75 is 0.5 exactly
        assert self.roles_at_the_mean([0.25, 0.5, 0.75], [0.5] * 3, "searchshare") == [0, 0, 1]

    def test_resistance_at_the_mean_is_relay(self):
        assert self.roles_at_the_mean([0.5] * 3, [0.25, 0.5, 0.75], "resistance") == [1, 1, 0]

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30), st.sampled_from(list(TASKS)))
    @settings(max_examples=100, deadline=None)
    def test_positives_are_the_task_roles_at_the_corpus_means(self, values, task):
        # metrics' rule: search strictly above the mean searchshare, relay at or below the mean resistance
        ss, res = (np.array(column) for column in zip(*values))
        thresholds = corpus_thresholds(ss, res)
        quadrants = assign_quadrants(ss, res, thresholds)
        rows = [make_row(f"R{i:02d}", quadrant=ROLES[q]) for i, q in enumerate(quadrants)]
        inst = build_instances(make_table(rows), task)
        if task == "searchshare":
            want = ss > thresholds.mean_searchshare
        else:
            want = res <= thresholds.mean_resistance
        assert inst.y.tolist() == want.astype(int).tolist()
        assert inst.y.tolist() == [int(ROLES[q] in TASKS[task]) for q in quadrants]


def if_chain_select_group(instances: InstanceSet, group: str) -> InstanceSet:
    """Reference column subset: one branch per feature group."""
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


class TestSelectGroup:
    def make(self):
        rows = [make_row(f"R{i}", topic_id=i % 3) for i in range(6)]
        inst = build_instances(make_table(rows), "searchshare")
        return inst

    def test_groups(self):
        inst = self.make()
        assert select_group(inst, "network").feature_names == NETWORK_FEATURES
        assert select_group(inst, "content-edit").feature_names == CONTENT_EDIT_FEATURES
        assert select_group(inst, "topic").feature_names == ("topic_0", "topic_1", "topic_2")
        assert select_group(inst, "all").feature_names == inst.feature_names

    def test_topic_group_without_topics(self):
        rows = [make_row("A"), make_row("B")]
        inst = build_instances(make_table(rows), "searchshare")
        with pytest.raises(UsageError):
            select_group(inst, "topic")

    @given(st.lists(st.none() | st.sampled_from([0, 1, 5, 2**53]), min_size=1, max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_if_chain(self, topic_ids, data):
        rows = [make_row(f"R{i:02d}", topic_id=tid, kcore=i, age=float(data.draw(st.integers(0, 9))))
                for i, tid in enumerate(topic_ids)]
        inst = build_instances(make_table(rows), "searchshare")
        for group in FEATURE_GROUPS:
            if group == "topic" and all(tid is None for tid in topic_ids):
                with pytest.raises(UsageError, match="no 'topic' features"):
                    select_group(inst, group)
                with pytest.raises(UsageError, match="no 'topic' features"):
                    if_chain_select_group(inst, group)
                continue
            got, want = select_group(inst, group), if_chain_select_group(inst, group)
            assert got.feature_names == want.feature_names
            assert got.x.dtype == want.x.dtype and np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)


class TestBalance:
    def labels(self, n_pos, n_neg):
        return np.asarray([1] * n_pos + [0] * n_neg, dtype=np.int8)

    def test_downsamples_majority(self):
        y = self.labels(100, 40)
        kept = y[balance(y, seed=0)]
        assert int((kept == 1).sum()) == 40
        assert int((kept == 0).sum()) == 40

    def test_already_balanced_unchanged(self):
        assert np.array_equal(balance(self.labels(30, 30), seed=5), np.arange(60))

    def test_same_seed_same_sample(self):
        y = self.labels(80, 20)
        a = balance(y, seed=9)
        assert np.array_equal(a, balance(y, seed=9))
        assert np.all(np.diff(a) > 0)  # ascending, each row once


class TestRocAuc:
    def test_perfect(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pair_count_auc_exact(scores, labels)

    @given(
        st.lists(st.integers(0, 1000), min_size=4, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariant(self, grid, rnd):
        # scores on a coarse grid so the float transforms below cannot
        # collapse distinct values into ties
        scores = [g / 1000.0 for g in grid]
        labels = [i % 2 for i in range(len(scores))]
        base = roc_auc(scores, labels)
        warped = [3.0 * s + 1.0 for s in scores]
        assert roc_auc(warped, labels) == pytest.approx(base, abs=1e-12)
        expped = list(np.exp(scores))
        assert roc_auc(expped, labels) == pytest.approx(base, abs=1e-12)


class TestTrainGbdt:
    def test_separable_training_auc(self):
        x, y = separable_data(500, seed=1)
        config = GBDTConfig(n_trees=30, max_depth=3, min_leaf=5, learning_rate=0.1, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))
        auc = roc_auc(model.decision_scores(x), y)
        assert auc >= 0.99
        assert not model.prior_fallback

    def test_constant_features_prior(self):
        x = np.ones((40, 3))
        y = np.asarray([1] * 10 + [0] * 30, dtype=np.int8)
        config = GBDTConfig(n_trees=5, min_leaf=2, max_depth=4, learning_rate=0.1, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))
        assert model.prior_fallback
        expected = np.log(10 / 30)
        assert model.decision_scores(x) == pytest.approx(np.full(40, expected))

    def test_stump_matches_enumeration_oracle(self):
        x = np.asarray([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        y = np.asarray([0, 0, 1, 1], dtype=np.int8)
        rate = 0.5
        config = GBDTConfig(n_trees=1, max_depth=1, min_leaf=1, learning_rate=rate, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))

        # oracle: every (feature, midpoint) stump with Newton leaf values,
        # scored by resulting mean logistic loss
        initial = 0.0  # log(2/2)
        p0 = 0.5
        g = y - p0
        h = np.full(4, p0 * (1 - p0))
        best = None
        for j in range(x.shape[1]):
            vals = np.unique(x[:, j])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = (lo + hi) / 2.0
                left = x[:, j] <= thr
                leaf_l = g[left].sum() / (h[left].sum() + 1e-12)
                leaf_r = g[~left].sum() / (h[~left].sum() + 1e-12)
                scores = initial + rate * np.where(left, leaf_l, leaf_r)
                loss = log_loss(scores, y)
                key = (loss, j, thr)
                if best is None or key < best[0]:
                    best = (key, j, thr, leaf_l, leaf_r)

        _, bj, bthr, bleaf_l, bleaf_r = best
        (tree,) = model.trees
        assert tree.feature[0] == bj
        assert tree.threshold[0] == bthr
        got_left = tree.value[tree.left[0]]
        got_right = tree.value[tree.right[0]]
        assert got_left == pytest.approx(bleaf_l, abs=1e-12)
        assert got_right == pytest.approx(bleaf_r, abs=1e-12)

    def test_loss_monotone_per_stage(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 4))
        y = (x[:, 0] + 0.8 * rng.normal(size=300) > 0).astype(np.int8)
        config = GBDTConfig(n_trees=40, max_depth=3, min_leaf=5, learning_rate=0.1, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))
        losses = stage_losses(model, x, y)
        for a, b in zip(losses, losses[1:]):
            assert b <= a

    def test_deterministic(self):
        x, y = separable_data(200, seed=4)
        cfg = GBDTConfig(n_trees=10, max_depth=3, min_leaf=5, learning_rate=0.1, seed=0)
        m1 = train_gbdt(x, y, cfg, feature_names(x))
        m2 = train_gbdt(x, y, cfg, feature_names(x))
        assert np.array_equal(m1.decision_scores(x), m2.decision_scores(x))
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.value, t2.value)

    def test_depth_bound_respected(self):
        x, y = separable_data(300, seed=5)
        config = GBDTConfig(n_trees=5, max_depth=2, min_leaf=5, learning_rate=0.1, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))
        for tree in model.trees:
            # depth-2 tree has at most 7 nodes
            assert len(tree.feature) <= 7

    def test_min_class_count(self):
        x = np.random.default_rng(0).normal(size=(5, 2))
        config = GBDTConfig(n_trees=1, max_depth=4, learning_rate=0.1, min_leaf=20, seed=0)
        with pytest.raises(DataError):
            train_gbdt(x, np.asarray([1, 0, 0, 0, 0]), config, feature_names(x))


class ReferenceTreeBuilder:
    """Per-feature split search that argsorts every column at every node;
    the oracle for the sorted-once search in train_gbdt."""

    def __init__(self, x, g, h, max_depth, min_leaf):
        self.x, self.g, self.h = x, g, h
        self.max_depth, self.min_leaf = max_depth, min_leaf
        self.nodes: list[list] = []  # [feature, threshold, left, right, value]

    def build(self) -> Tree:
        self._grow(np.arange(len(self.x)), 0)
        cols = list(zip(*self.nodes))
        return Tree(
            np.asarray(cols[0], dtype=np.int64),
            np.asarray(cols[1], dtype=float),
            np.asarray(cols[2], dtype=np.int64),
            np.asarray(cols[3], dtype=np.int64),
            np.asarray(cols[4], dtype=float),
        )

    def _grow(self, idx, depth) -> int:
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, 0.0])
        split = None
        if depth < self.max_depth and len(idx) >= 2 * self.min_leaf:
            split = self._best_split(idx)
        if split is None:
            self.nodes[node][4] = float(self.g[idx].sum() / (self.h[idx].sum() + 1e-12))
            return node
        j, thr = split
        go_left = self.x[idx, j] <= thr
        self.nodes[node][:2] = [j, thr]
        self.nodes[node][2] = self._grow(idx[go_left], depth + 1)
        self.nodes[node][3] = self._grow(idx[~go_left], depth + 1)
        return node

    def _best_split(self, idx):
        g, h = self.g[idx], self.h[idx]
        g_total, h_total = g.sum(), h.sum()
        parent = g_total * g_total / (h_total + 1e-12)
        best_gain, best = 1e-12, None
        n = len(idx)
        for j in range(self.x.shape[1]):
            xs = self.x[idx, j]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            sizes = np.arange(1, n)
            valid = (
                (xs_sorted[:-1] < xs_sorted[1:])
                & (sizes >= self.min_leaf)
                & (n - sizes >= self.min_leaf)
            )
            if not valid.any():
                continue
            gl = np.cumsum(g[order])[:-1]
            hl = np.cumsum(h[order])[:-1]
            gr, hr = g_total - gl, h_total - hl
            gain = gl * gl / (hl + 1e-12) + gr * gr / (hr + 1e-12) - parent
            gain = np.where(valid, gain, -np.inf)
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                best = (j, float((xs_sorted[pos] + xs_sorted[pos + 1]) / 2.0))
        return best


def reference_trees(x, y, config: GBDTConfig, zeroed: list | None = None) -> list[Tree]:
    """train_gbdt's stagewise loop around the reference builder, halving a
    stage that raises the loss at most 60 times, then zeroing it; the
    index of each zeroed stage is appended to `zeroed`."""
    scores = np.full(len(y), np.log((y == 1).sum() / (y == 0).sum()))
    loss = log_loss(scores, y)
    trees = []
    for _ in range(config.n_trees):
        p = _sigmoid(scores)
        tree = ReferenceTreeBuilder(x, y - p, p * (1.0 - p), config.max_depth, config.min_leaf).build()
        step = tree.leaf_values(x) * config.learning_rate
        new_loss = log_loss(scores + step, y)
        halvings = 0
        while new_loss > loss and halvings < 60:
            tree = replace(tree, value=tree.value * 0.5)
            step *= 0.5
            new_loss = log_loss(scores + step, y)
            halvings += 1
        if new_loss > loss:
            tree = replace(tree, value=tree.value * 0.0)
            step *= 0.0
            new_loss = loss
            if zeroed is not None:
                zeroed.append(len(trees))
        trees.append(tree)
        scores = scores + step
        loss = new_loss
    return trees


# 1, the next two doubles above it (whose midpoint rounds up to the larger)
# and the infinities (midpoints inf and nan) make thresholds that do not
# fall strictly between the two values they split
_AWKWARD_VALUES = (-np.inf, 1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), np.inf)


@st.composite
def split_problems(draw):
    """(x, y, config): tied rounded columns, constant columns, a one-hot
    block and awkward values, with min_leaf at 1, n/2 or between."""
    n = draw(st.integers(4, 40))
    blocks = []
    for _ in range(draw(st.integers(0, 2))):
        blocks.append(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n).map(
            lambda v: np.round(v, 0)[:, None] / 2)))
    if draw(st.booleans()):
        blocks.append(np.full((n, 1), draw(st.floats(-3, 3))))
    k = draw(st.integers(0, 3))
    if k:
        cats = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        blocks.append(np.eye(k)[cats])
    if draw(st.booleans()):
        blocks.append(np.asarray(draw(st.lists(st.sampled_from(_AWKWARD_VALUES), min_size=n, max_size=n)))[:, None])
    if not blocks:
        blocks.append(np.zeros((n, 1)))
    x = np.column_stack(blocks)
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    y[:2], y[2:4] = 0, 1
    min_leaf = draw(st.sampled_from((1, n // 2, draw(st.integers(1, n // 2)))))
    config = GBDTConfig(n_trees=3, max_depth=draw(st.integers(1, 4)), learning_rate=0.5, min_leaf=min_leaf, seed=0)
    return x, y, config


class TestSortedOnceSplitSearch:
    @given(split_problems())
    @settings(max_examples=150, deadline=None)
    def test_trees_match_per_feature_argsort(self, problem):
        x, y, config = problem
        with np.errstate(invalid="ignore"):  # the midpoint of -inf and inf
            model = train_gbdt(x, y, config, feature_names(x))
            expected = reference_trees(x, y, config)
        if model.prior_fallback:
            assert np.all(x == x[0])
            return
        assert len(model.trees) == len(expected)
        for got, want in zip(model.trees, expected):
            for field in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field

    def test_stage_scale_matches_halving_loop(self):
        # large rates make stages that raise the loss even at 2**-60, which
        # the reference then zeroes; at least one drawn case must do so
        zeroed = []
        # rates near 2**60 put the first scale that lowers the loss near the cap
        rates = st.sampled_from((0.1, 1.0, 1e6, 1e15, 1e20)) | st.floats(55, 66).map(lambda e: 2.0**e)

        @given(split_problems(), rates, st.integers(1, 6))
        @settings(max_examples=150, deadline=None)
        def check(problem, rate, n_trees):
            x, y, config = problem
            config = replace(config, learning_rate=rate, n_trees=n_trees)
            with np.errstate(invalid="ignore"):  # the midpoint of -inf and inf
                model = train_gbdt(x, y, config, feature_names(x))
                if model.prior_fallback:
                    assert np.all(x == x[0]) and not model.trees
                    return
                expected = reference_trees(x, y, config, zeroed)
            assert len(model.trees) == len(expected)
            for got, want in zip(model.trees, expected):
                for field in TREE_ARRAYS:
                    assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
                assert np.array_equal(np.signbit(got.value), np.signbit(want.value))

        check()
        assert zeroed

    # one split whose leaves each hold a row of the other class: at a rate
    # of 2**61 the stage first stops raising the loss at scale 2**-60, and
    # at 1.5 * 2**61 it still raises it there, so the stage is zeroed
    @pytest.mark.parametrize("rate, zeroed", [(2.0**61, []), (1.5 * 2.0**61, [0])])
    def test_stage_scale_at_the_cap(self, rate, zeroed):
        x, y = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]]), np.array([0, 0, 1, 1, 1, 0], dtype=np.int8)
        config = GBDTConfig(n_trees=1, max_depth=1, learning_rate=rate, min_leaf=1, seed=0)
        stages = []
        (got,) = train_gbdt(x, y, config, feature_names(x)).trees
        (want,) = reference_trees(x, y, config, stages)
        assert stages == zeroed and np.array_equal(got.value, want.value)
        assert got.value.any() == (not zeroed)

    @given(split_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_values_are_leaf_values(self, problem, seed):
        x, y, config = problem
        p = np.random.default_rng(seed).uniform(0.05, 0.95, size=len(y))
        g, h = y - p, p * (1.0 - p)
        x_by_feature = np.ascontiguousarray(x.T)
        order = np.argsort(x_by_feature, axis=1, kind="stable")
        with np.errstate(invalid="ignore"):
            tree, row_value = _grow_tree(x_by_feature, order, g, h, config.max_depth, config.min_leaf)
            want = ReferenceTreeBuilder(x, g, h, config.max_depth, config.min_leaf).build()
        assert np.array_equal(tree.feature, want.feature)
        assert np.array_equal(tree.threshold, want.threshold, equal_nan=True)
        assert np.array_equal(tree.value, want.value)
        assert np.array_equal(row_value, tree.leaf_values(x))


def dealt_folds(y, n_folds, seed) -> list[np.ndarray]:
    """Reference deal, one row at a time: each class's permutation, in
    class order, goes round-robin over the folds, which are then sorted."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        for i, v in enumerate(rng.permutation(np.nonzero(y == cls)[0])):
            folds[i % n_folds].append(int(v))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


class TestStratifiedFolds:
    @given(st.integers(2, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_deal(self, n_folds, data):
        pos, neg = data.draw(st.integers(n_folds, 60)), data.draw(st.integers(n_folds, 60))
        y = np.array(data.draw(st.permutations([1] * pos + [0] * neg)), dtype=np.int8)
        seed = data.draw(st.integers(0, 2**32) | st.lists(st.integers(0, 2**32), min_size=2, max_size=2))
        got, want = stratified_folds(y, n_folds, seed), dealt_folds(y, n_folds, seed)
        assert len(got) == n_folds
        for fold, expected in zip(got, want):
            assert fold.dtype == np.int64
            assert np.array_equal(fold, expected)

    def test_partition_and_balance(self):
        rng = np.random.default_rng(8)
        y = (rng.random(137) < 0.3).astype(np.int8)
        folds = stratified_folds(y, n_folds=10, seed=1)
        assert len(folds) == 10
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(137))
        pos_counts = [int(y[f].sum()) for f in folds]
        neg_counts = [len(f) - int(y[f].sum()) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_seed_changes_assignment(self):
        y = np.asarray([0, 1] * 50, dtype=np.int8)
        f1 = stratified_folds(y, 10, seed=1)
        f2 = stratified_folds(y, 10, seed=2)
        assert any(not np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_too_few_per_class(self):
        y = np.asarray([1] * 5 + [0] * 100, dtype=np.int8)
        with pytest.raises(DataError):
            stratified_folds(y, 10, seed=0)


def instance_set_from_arrays(x, y) -> InstanceSet:
    return InstanceSet(
        feature_names(x),
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=np.int8),
    )


def report_mean(path, aucs) -> float:
    """The AUC of the mean row that write_eval_report writes for `aucs`."""
    write_eval_report(path, "searchshare", {"all": aucs})
    task, group, fold, auc = path.read_text().splitlines()[-1].split(",")
    assert (task, group, fold) == ("searchshare", "all", "mean")
    return float(auc)


class TestCrossValidate:
    def test_separable_high_auc(self, tmp_path):
        x, y = separable_data(600, seed=6)
        inst = instance_set_from_arrays(x, y)
        config = GBDTConfig(n_trees=20, max_depth=3, min_leaf=5, seed=0, learning_rate=0.1)
        aucs = cross_validate(inst, "all", config, 10, 1)
        assert len(aucs) == 10
        assert report_mean(tmp_path / "eval.csv", aucs) >= 0.95

    def test_shuffled_labels_near_half(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(400, 3))
        means = []
        for rep in range(10):
            y = rng.permutation(np.asarray([0, 1] * 200, dtype=np.int8))
            inst = instance_set_from_arrays(x, y)
            aucs = cross_validate(
                inst, "all", GBDTConfig(n_trees=8, max_depth=2, min_leaf=20, seed=rep, learning_rate=0.1), 10, 1
            )
            means.append(report_mean(tmp_path / f"eval{rep}.csv", aucs))
        assert 0.45 <= float(np.mean(means)) <= 0.55

    def test_thread_count_invariant(self):
        x, y = separable_data(300, seed=7)
        inst = instance_set_from_arrays(x, y)
        cfg = GBDTConfig(n_trees=8, max_depth=2, min_leaf=5, seed=3, learning_rate=0.1)
        seq = cross_validate(inst, "all", cfg, 10, 1)
        par = cross_validate(inst, "all", cfg, 10, 4)
        assert seq == par

    def test_final_model_is_balanced_beside_the_folds(self):
        # every instance of the group, balanced by [seed, folds]: no fold's seed [seed, f]
        x, y = separable_data(300, seed=8)
        y[:40] = 1  # more positives than negatives, so balancing draws
        inst = instance_set_from_arrays(x, y)
        cfg = GBDTConfig(n_trees=4, max_depth=2, min_leaf=5, seed=3, learning_rate=0.1)
        rows = balance(inst.y, seed=[3, 5])
        expected = train_gbdt(inst.x[rows], inst.y[rows], cfg, inst.feature_names)
        got = final_model(inst, "all", cfg, 5)
        assert got.feature_names == expected.feature_names and len(got.trees) == 4
        assert np.array_equal(got.decision_scores(x), expected.decision_scores(x))
        other = balance(inst.y, seed=[3, 4])
        unlike = train_gbdt(inst.x[other], inst.y[other], cfg, inst.feature_names)
        assert not np.array_equal(got.decision_scores(x), unlike.decision_scores(x))

    def test_deterministic_report(self):
        x, y = separable_data(250, seed=9)
        inst = instance_set_from_arrays(x, y)
        cfg = GBDTConfig(n_trees=6, max_depth=2, min_leaf=5, seed=4, learning_rate=0.1)
        r1 = cross_validate(inst, "all", cfg, 10, 1)
        r2 = cross_validate(inst, "all", cfg, 10, 1)
        assert r1 == r2


class TestSerialization:
    def test_roundtrip_predictions(self, tmp_path):
        x, y = separable_data(200, seed=10)
        config = GBDTConfig(n_trees=12, max_depth=3, min_leaf=5, learning_rate=0.1, seed=0)
        model = train_gbdt(x, y, config, feature_names(x))
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(path, model)
        back = load_model(path)
        assert back.feature_names == model.feature_names
        assert np.array_equal(back.decision_scores(x), model.decision_scores(x))
        save_model(again, back)
        assert again.read_bytes() == path.read_bytes()
        assert back.trees
        for tree in back.trees:
            assert {name: getattr(tree, name).dtype for name in TREE_ARRAYS} == TREE_ARRAYS

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_report_csv(self, tmp_path):
        aucs = cross_validate(
            instance_set_from_arrays(*separable_data(200, seed=2)),
            "all",
            GBDTConfig(n_trees=4, max_depth=2, min_leaf=5, seed=1, learning_rate=0.1),
            10,
            1,
        )
        path = tmp_path / "eval.csv"
        write_eval_report(path, "searchshare", {"all": aucs})
        lines = path.read_text().splitlines()
        assert lines[0] == "task,feature_group,fold,auc"
        assert len(lines) == 12
        assert lines[-1].startswith("searchshare,all,mean,")
