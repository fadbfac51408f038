import collections
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
import vrf_sentinel.gbt as gbt
from vrf_sentinel.errors import ModelError, VrfError


def separable_toy(seed=0):
    """40 points, 2 features, linearly separable by feature 0."""
    rng = np.random.default_rng(seed)
    x_neg = np.column_stack([rng.uniform(-2.0, -0.5, 20), rng.normal(size=20)])
    x_pos = np.column_stack([rng.uniform(0.5, 2.0, 20), rng.normal(size=20)])
    x = np.vstack([x_neg, x_pos])
    y = ["a"] * 20 + ["b"] * 20
    return x, y


def test_separable_toy_perfect_training_accuracy():
    x, y = separable_toy()
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=50, max_depth=3, learning_rate=0.3))
    assert gbt.predict(model, x) == y


def test_training_loss_non_increasing():
    x, y = separable_toy(seed=3)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=30))
    for prev, curr in zip(model.train_loss, model.train_loss[1:]):
        assert curr <= prev + 1e-12


def test_stump_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(1, 4))
        x = np.round(rng.normal(size=(n, p)), 2)  # duplicates force ties
        y = rng.choice(["a", "b"], size=n).tolist()
        if len(set(y)) < 2:
            y[0] = "a" if y[1] == "b" else "b"
        model = gbt.train(x, y, gbt.GbtConfig(n_estimators=1, max_depth=1, learning_rate=1.0))
        stump = model.trees[0][0]

        probs = np.full((n, 2), 0.5)
        y_hot = np.array([1.0 if label == model.classes[0] else 0.0 for label in y])
        g = (probs[:, 0] - y_hot).tolist()
        h = (probs[:, 0] * (1 - probs[:, 0])).tolist()
        want = oracles.bf_best_stump(x.tolist(), g, h)
        if want is None:
            assert stump.is_leaf
        else:
            assert not stump.is_leaf
            assert stump.feature == want[1]
            assert stump.threshold == pytest.approx(want[2], abs=1e-12)


# few distinct values, so repeated values and constant columns are common
_SPLIT_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0])


@st.composite
def split_problems(draw):
    n, p = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    x = draw(st.lists(st.lists(_SPLIT_VALUES, min_size=p, max_size=p), min_size=n, max_size=n))
    g = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    h = draw(st.lists(st.floats(0.0, 0.25), min_size=n, max_size=n))
    return np.array(x), np.array(g), np.array(h)


@given(split_problems())
@example((np.array([[0.5, 1.0]]), np.array([0.3]), np.array([0.2])))
@example((np.array([[0.5, 1.0], [0.5, 2.0]]), np.array([0.3, -0.3]), np.array([0.2, 0.2])))
def test_best_split_matches_per_feature_loop(problem):
    x, g, h = problem
    assert gbt.best_split(x, g, h) == oracles.loop_best_split(x, g, h)


def test_row_permutation_gives_identical_model(tmp_path):
    x, y = separable_toy(seed=5)
    rng = np.random.default_rng(11)
    perm = rng.permutation(len(y))
    m1 = gbt.train(x, y, gbt.GbtConfig(n_estimators=10))
    m2 = gbt.train(x[perm], [y[i] for i in perm], gbt.GbtConfig(n_estimators=10))
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    gbt.save_model(m1, str(p1))
    gbt.save_model(m2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_single_class_rejected():
    x = np.zeros((5, 2))
    with pytest.raises(ModelError, match="2 distinct classes"):
        gbt.train(x, ["a"] * 5)


@pytest.mark.parametrize("depth", [0, -1])
def test_max_depth_below_1_rejected(depth):
    # _fit_tree stops only at depth 0, so a negative depth would grow unbounded trees
    with pytest.raises(VrfError, match="max_depth must be >= 1"):
        gbt.GbtConfig(max_depth=depth)


def test_zero_tree_model_uniform():
    model = gbt.GbtModel(config=gbt.GbtConfig(), classes=("a", "b", "c"), n_features=4)
    probs = gbt.predict_proba(model, np.zeros(4))
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)


def test_probabilities_sum_to_one():
    x, y = separable_toy(seed=9)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=20))
    rng = np.random.default_rng(13)
    probs = gbt.predict_proba(model, rng.normal(size=(50, 2)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs >= 0).all()


def test_learning_rate_to_zero_approaches_uniform():
    x, y = separable_toy(seed=15)
    gaps = []
    for lr in (0.3, 0.03, 0.003):
        model = gbt.train(x, y, gbt.GbtConfig(n_estimators=1, learning_rate=lr))
        probs = gbt.predict_proba(model, x)
        gaps.append(float(np.abs(probs - 0.5).max()))
    assert gaps[0] > gaps[1] > gaps[2]


def test_dimension_mismatch_error_names_sizes():
    x, y = separable_toy()
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=2))
    with pytest.raises(ModelError, match="3.*2|2.*3"):
        gbt.predict_proba(model, np.zeros(3))


# --- evaluation ---------------------------------------------------------------------


def test_evaluate_perfect_predictions():
    x, y = separable_toy(seed=21)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=40))
    report = gbt.evaluate(model, x, y)
    assert report.accuracy == 1.0
    assert report.f1_weighted == 1.0
    assert np.trace(report.confusion) == len(y)


def test_evaluate_single_sided_predictions():
    # model that always answers "a" on a balanced 2-class holdout
    model = gbt.GbtModel(config=gbt.GbtConfig(), classes=("a", "b"), n_features=1)
    model.trees.append([gbt.TreeNode(weight=5.0), gbt.TreeNode(weight=0.0)])
    x = np.zeros((10, 1))
    y = ["a"] * 5 + ["b"] * 5
    report = gbt.evaluate(model, x, y)
    assert report.accuracy == 0.5
    assert report.confusion[1, 0] == 5


def test_confusion_row_sums_match_truth_counts():
    x, y = separable_toy(seed=23)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=5))
    report = gbt.evaluate(model, x, y)
    truth_counts = collections.Counter(y)
    for k, name in enumerate(report.classes):
        assert report.confusion[k, :].sum() == truth_counts[name]


# --- holdout split ------------------------------------------------------------------


def test_split_sizes_match_table_arithmetic():
    labels = (
        ["a"] * 99 + ["b"] * 37 + ["c"] * 27 + ["d"] * 21
    )
    train_idx, hold_idx = gbt.split_holdout(labels, fraction=0.2, seed=0)
    assert len(hold_idx) == 37  # round(0.2 * 184)
    assert len(train_idx) == 147
    assert not set(train_idx) & set(hold_idx)


def test_split_small_case():
    labels = ["a"] * 5 + ["b"] * 5
    _, hold_idx = gbt.split_holdout(labels, fraction=0.2, seed=1)
    assert len(hold_idx) == 2


def test_split_deterministic():
    labels = ["a"] * 30 + ["b"] * 20
    a = gbt.split_holdout(labels, fraction=0.25, seed=7)
    b = gbt.split_holdout(labels, fraction=0.25, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_stratification_proportions():
    labels = ["a"] * 80 + ["b"] * 20
    _, hold_idx = gbt.split_holdout(labels, fraction=0.2, seed=3)
    picked = collections.Counter("a" if i < 80 else "b" for i in hold_idx)
    assert picked["a"] == 16 and picked["b"] == 4


def test_split_singleton_class_falls_back():
    labels = ["a"] * 9 + ["b"]
    train_idx, hold_idx = gbt.split_holdout(labels, fraction=0.2, seed=5)
    assert len(hold_idx) == 2
    assert len(train_idx) == 8


# --- persistence ---------------------------------------------------------------------


def test_save_load_round_trip_bit_exact(tmp_path):
    x, y = separable_toy(seed=29)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=25))
    path = tmp_path / "model.json"
    gbt.save_model(model, str(path))
    loaded = gbt.load_model(str(path))
    rng = np.random.default_rng(31)
    probe = rng.normal(size=(100, 2))
    np.testing.assert_array_equal(
        gbt.predict_proba(loaded, probe), gbt.predict_proba(model, probe)
    )


def test_truncated_file_is_load_error(tmp_path):
    x, y = separable_toy()
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=2))
    path = tmp_path / "model.json"
    gbt.save_model(model, str(path))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(ModelError, match="cannot load"):
        gbt.load_model(str(path))


def test_manifest_version_mismatch_is_explicit(tmp_path):
    path, payload = saved_payload(tmp_path)
    payload["feature_manifest_version"] = "gfv999"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="gfv999"):
        gbt.load_model(str(path))


def saved_payload(tmp_path):
    """A trained two-class model's file and its JSON payload."""
    x, y = separable_toy()
    path = tmp_path / "model.json"
    gbt.save_model(gbt.train(x, y, gbt.GbtConfig(n_estimators=2)), str(path))
    return path, json.loads(path.read_text())


def test_model_file_with_the_old_holdout_and_seed_keys_loads(tmp_path):
    path, payload = saved_payload(tmp_path)
    assert sorted(payload["config"]) == ["learning_rate", "max_depth", "n_estimators"]
    old = tmp_path / "old_model.json"
    payload["config"].update(holdout_fraction=0.2, seed=0)
    old.write_text(json.dumps(payload))
    x, _ = separable_toy(seed=41)
    want = gbt.predict_proba(gbt.load_model(str(path)), x)
    assert np.array_equal(gbt.predict_proba(gbt.load_model(str(old)), x), want)


def test_model_with_fewer_than_two_classes_is_load_error(tmp_path):
    path, payload = saved_payload(tmp_path)
    payload["classes"] = []
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="at least 2 classes"):
        gbt.load_model(str(path))


def test_model_round_without_one_tree_per_class_is_load_error(tmp_path):
    path, payload = saved_payload(tmp_path)
    payload["trees"][-1] = payload["trees"][-1][:1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="one tree per class"):
        gbt.load_model(str(path))


@pytest.mark.parametrize("feature", [999, 2, -1])
def test_model_split_on_unknown_feature_is_load_error(tmp_path, feature):
    path, payload = saved_payload(tmp_path)
    root = payload["trees"][0][0]
    assert "f" in root  # separable data: the first tree splits
    root["f"] = feature
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=f"split feature {feature} outside"):
        gbt.load_model(str(path))


def test_model_with_a_tree_too_deep_to_build_is_load_error(tmp_path, monkeypatch):
    path, payload = saved_payload(tmp_path)
    tree = {"w": 0.0}
    for _ in range(100_000):  # deeper than the recursion limit; json.dump could not write it
        tree = {"f": 0, "t": 0.0, "l": tree, "r": {"w": 0.0}}
    payload["trees"][0][0] = tree
    monkeypatch.setattr(gbt.json, "load", lambda fh: payload)
    with pytest.raises(ModelError, match="malformed model"):
        gbt.load_model(str(path))


def test_tree_depth_respects_limit():
    def depth(node):
        return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

    x, y = separable_toy(seed=33)
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=10, max_depth=3))
    for round_trees in model.trees:
        for tree in round_trees:
            assert depth(tree) <= 3
