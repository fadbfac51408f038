"""Multiclass gradient-boosted decision trees for event-label prediction.

Boosting with the softmax cross-entropy objective: every round fits one
shallow regression tree per class to that class's gradient/hessian pair,
using exact greedy split search (no histograms, no regularization terms,
no subsampling), with second-order leaf weights scaled by the learning
rate. Datasets here are a few hundred groups, so the exact search is both
fast and oracle-checkable.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, VrfError
from .groupfeatures import FEATURE_MANIFEST_VERSION

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
_H_EPS = 1e-12  # hessian sums below this carry no usable curvature


@dataclass(frozen=True)
class GbtConfig:
    n_estimators: int = 50
    max_depth: int = 3
    learning_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise VrfError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise VrfError("max_depth must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise VrfError("learning_rate must be in (0, 1]")


@dataclass
class TreeNode:
    """Binary split node or leaf; leaves carry the already-scaled weight."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        if self.is_leaf:
            return np.full(x.shape[0], self.weight)
        mask = x[:, self.feature] < self.threshold
        out = np.empty(x.shape[0])
        if mask.any():
            out[mask] = self.left.predict_many(x[mask])
        if (~mask).any():
            out[~mask] = self.right.predict_many(x[~mask])
        return out


@dataclass
class GbtModel:
    config: GbtConfig
    classes: tuple[str, ...]
    n_features: int
    trees: list[list[TreeNode]] = field(default_factory=list)  # [round][class]
    train_loss: list[float] = field(default_factory=list)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _leaf_weight(g_sum: float, h_sum: float, learning_rate: float) -> float:
    if h_sum <= _H_EPS:
        return 0.0
    return -learning_rate * g_sum / h_sum


def best_split(
    x: np.ndarray, g: np.ndarray, h: np.ndarray
) -> tuple[int, float, float] | None:
    """Exact greedy search over all (feature, midpoint threshold) pairs.

    Returns (feature, threshold, gain) for the highest-gain split with
    positive gain, breaking ties toward the lower feature index and then
    the lower threshold; None when no split improves the loss.
    """
    n, p = x.shape
    if n < 2 or p == 0:
        return None
    g_total, h_total = float(g.sum()), float(h.sum())
    parent = g_total * g_total / h_total if h_total > _H_EPS else 0.0
    # every column at once; cumsum along axis 0 adds in the same order as
    # a per-column 1-D cumsum, so each gain is bit-identical to it
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.cumsum(h[order], axis=0)[:-1]
    gr = g_total - gl
    hr = h_total - hl
    left_term = np.where(hl > _H_EPS, gl * gl / np.maximum(hl, _H_EPS), 0.0)
    right_term = np.where(hr > _H_EPS, gr * gr / np.maximum(hr, _H_EPS), 0.0)
    gains = 0.5 * (left_term + right_term - parent)
    gains[xs[1:] == xs[:-1]] = -math.inf
    # argmax takes the first maximum: the lowest feature, then the lowest threshold
    tops = gains.max(axis=0)
    j = int(np.argmax(tops))
    top = float(tops[j])
    if top <= 0.0:
        return None
    pos = int(np.argmax(gains[:, j]))
    return j, float((xs[pos, j] + xs[pos + 1, j]) / 2.0), top


def _fit_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    learning_rate: float,
) -> TreeNode:
    if max_depth == 0 or x.shape[0] < 2:
        return TreeNode(weight=_leaf_weight(float(g.sum()), float(h.sum()), learning_rate))
    split = best_split(x, g, h)
    if split is None:
        return TreeNode(weight=_leaf_weight(float(g.sum()), float(h.sum()), learning_rate))
    feature, threshold, _ = split
    mask = x[:, feature] < threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_fit_tree(x[mask], g[mask], h[mask], max_depth - 1, learning_rate),
        right=_fit_tree(x[~mask], g[~mask], h[~mask], max_depth - 1, learning_rate),
    )


def train(features: np.ndarray, labels: list[str], config: GbtConfig = GbtConfig()) -> GbtModel:
    """Fit the boosted ensemble on standardized features.

    Raises on single-class input. The training loss (mean cross-entropy)
    is recorded per round; with exact split search the procedure is fully
    deterministic, including under training-row permutations.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ModelError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[0] != len(labels):
        raise ModelError(f"{x.shape[0]} rows vs {len(labels)} labels")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ModelError("training needs at least 2 distinct classes")
    class_index = {c: k for k, c in enumerate(classes)}
    # canonicalize row order so float summation order, and therefore the
    # model bytes, cannot depend on how the caller shuffled the rows
    label_rank = np.array([class_index[label] for label in labels])
    order = np.lexsort((label_rank,) + tuple(x[:, j] for j in reversed(range(x.shape[1]))))
    x = x[order]
    labels = [labels[i] for i in order]
    y = np.zeros((x.shape[0], len(classes)))
    for i, label in enumerate(labels):
        y[i, class_index[label]] = 1.0

    model = GbtModel(config=config, classes=classes, n_features=x.shape[1])
    scores = np.zeros_like(y)
    for _ in range(config.n_estimators):
        probs = _softmax(scores)
        round_trees = []
        for k in range(len(classes)):
            g = probs[:, k] - y[:, k]
            h = probs[:, k] * (1.0 - probs[:, k])
            tree = _fit_tree(x, g, h, config.max_depth, config.learning_rate)
            round_trees.append(tree)
            scores[:, k] += tree.predict_many(x)
        model.trees.append(round_trees)
        model.train_loss.append(_cross_entropy(scores, y))
    return model


def _cross_entropy(scores: np.ndarray, y: np.ndarray) -> float:
    probs = _softmax(scores)
    picked = np.clip((probs * y).sum(axis=1), 1e-300, None)
    return float(-np.mean(np.log(picked)))


def raw_scores(model: GbtModel, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != model.n_features:
        raise ModelError(
            f"feature vector has {x.shape[1]} entries, model expects {model.n_features}"
        )
    scores = np.zeros((x.shape[0], len(model.classes)))
    with np.errstate(over="ignore"):  # refused below
        for round_trees in model.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += tree.predict_many(x)
    if not np.isfinite(scores).all():
        raise ModelError("class scores overflow: the leaf weights sum beyond the float range")
    return scores


def predict_proba(model: GbtModel, features: np.ndarray) -> np.ndarray:
    """Probability vector(s) over the model's classes; rows sum to 1."""
    squeeze = np.asarray(features).ndim == 1
    probs = _softmax(raw_scores(model, features))
    return probs[0] if squeeze else probs


def predict(model: GbtModel, features: np.ndarray) -> list[str]:
    probs = np.atleast_2d(predict_proba(model, features))
    return [model.classes[int(k)] for k in probs.argmax(axis=1)]


# --- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    classes: tuple[str, ...]
    accuracy: float
    f1_weighted: float
    f1_macro: float
    confusion: np.ndarray  # rows = truth, columns = predicted
    holdout_size: int


def evaluate(model: GbtModel, features: np.ndarray, labels: list[str]) -> EvalReport:
    if len(labels) == 0:
        raise ModelError("holdout set is empty")
    predicted = predict(model, features)
    classes = model.classes
    index = {c: k for k, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for truth, pred in zip(labels, predicted):
        if truth not in index:
            raise ModelError(f"holdout label {truth!r} unknown to the model")
        confusion[index[truth], index[pred]] += 1

    total = confusion.sum()
    accuracy = float(np.trace(confusion)) / total
    f1s, supports = [], []
    for k in range(len(classes)):
        tp = confusion[k, k]
        support = confusion[k, :].sum()
        predicted_k = confusion[:, k].sum()
        precision = tp / predicted_k if predicted_k else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
        supports.append(support)
    supports_arr = np.array(supports, dtype=float)
    present = supports_arr > 0
    f1_weighted = float(np.dot(f1s, supports_arr) / supports_arr.sum())
    f1_macro = float(np.mean(np.array(f1s)[present]))
    return EvalReport(
        classes=classes,
        accuracy=accuracy,
        f1_weighted=f1_weighted,
        f1_macro=f1_macro,
        confusion=confusion,
        holdout_size=int(total),
    )


def split_holdout(
    labels: list[str],
    fraction: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train indices, holdout indices) split over rows.

    Stratified by label when every class has at least 2 members, falling
    back to an unstratified split otherwise. Holdout size is
    round(fraction * n), apportioned over classes by largest remainder.
    """
    n = len(labels)
    if not 0 < fraction < 1:
        raise VrfError("fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    target = int(math.floor(n * fraction + 0.5))
    target = max(1, min(target, n - 1))

    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    if min(len(v) for v in by_class.values()) < 2:
        logger.warning("a class has a single member; falling back to unstratified split")
        perm = rng.permutation(n)
        return np.sort(perm[target:]), np.sort(perm[:target])

    class_names = sorted(by_class)
    quotas = [len(by_class[c]) * fraction for c in class_names]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order:
        if sum(counts) >= target:
            break
        if counts[i] < len(by_class[class_names[i]]) - 1:
            counts[i] += 1
    # cover any remaining shortfall from classes with spare members
    while sum(counts) < target:
        for i in range(len(counts)):
            if counts[i] < len(by_class[class_names[i]]) - 1:
                counts[i] += 1
                break
        else:
            break

    holdout: list[int] = []
    for name, count in zip(class_names, counts):
        members = np.array(by_class[name])
        picked = rng.permutation(len(members))[:count]
        holdout.extend(int(members[p]) for p in picked)
    holdout_arr = np.sort(np.array(holdout, dtype=int))
    train_mask = np.ones(n, dtype=bool)
    train_mask[holdout_arr] = False
    return np.flatnonzero(train_mask), holdout_arr


# --- persistence ----------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"w": node.weight}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _node_to_dict(node.left),
        "r": _node_to_dict(node.right),
    }


def _node_from_dict(raw: dict) -> TreeNode:
    if "w" in raw:
        return TreeNode(weight=float(raw["w"]))
    return TreeNode(
        feature=int(raw["f"]),
        threshold=float(raw["t"]),
        left=_node_from_dict(raw["l"]),
        right=_node_from_dict(raw["r"]),
    )


def save_model(model: GbtModel, path: str) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_manifest_version": FEATURE_MANIFEST_VERSION,
        "config": {
            "n_estimators": model.config.n_estimators,
            "max_depth": model.config.max_depth,
            "learning_rate": model.config.learning_rate,
        },
        "classes": list(model.classes),
        "n_features": model.n_features,
        "train_loss": model.train_loss,
        "trees": [[_node_to_dict(t) for t in round_trees] for round_trees in model.trees],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path: str) -> GbtModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelError(f"cannot load model from {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelError(f"{path}: a model file holds one JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelError(
            f"{path}: model format {payload.get('format_version')!r} != "
            f"supported {MODEL_FORMAT_VERSION}"
        )
    if payload.get("feature_manifest_version") != FEATURE_MANIFEST_VERSION:
        raise ModelError(
            f"{path}: feature manifest {payload.get('feature_manifest_version')!r} "
            f"incompatible with expected {FEATURE_MANIFEST_VERSION!r}"
        )
    try:
        cfg = payload["config"]
        model = GbtModel(
            config=GbtConfig(
                n_estimators=cfg["n_estimators"],
                max_depth=cfg["max_depth"],
                learning_rate=cfg["learning_rate"],
            ),
            classes=tuple(payload["classes"]),
            n_features=int(payload["n_features"]),
            trees=[[_node_from_dict(t) for t in rt] for rt in payload["trees"]],
            train_loss=[float(v) for v in payload["train_loss"]],
        )
    # recursion: a deep tree; overflow: an infinite n_features or split feature
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ModelError(f"{path}: malformed model ({exc!r})") from None
    if not isinstance(payload["classes"], list) or not all(
        isinstance(name, str) for name in model.classes
    ):
        raise ModelError(f"{path}: classes must be a list of names")
    if len(model.classes) < 2:
        raise ModelError(f"{path}: a model needs at least 2 classes, has {len(model.classes)}")
    if any(len(round_trees) != len(model.classes) for round_trees in model.trees):
        raise ModelError(f"{path}: every round needs one tree per class ({len(model.classes)})")
    nodes = [tree for round_trees in model.trees for tree in round_trees]
    while nodes:
        node = nodes.pop()
        if not (math.isfinite(node.weight) and math.isfinite(node.threshold)):
            raise ModelError(f"{path}: leaf weights and split thresholds must be finite")
        if not node.is_leaf:
            if not 0 <= node.feature < model.n_features:
                raise ModelError(
                    f"{path}: split feature {node.feature} outside [0, {model.n_features})"
                )
            nodes += (node.left, node.right)
    return model
