"""Single-pass classifier training and cosine-similarity inference.

Class encoders are plain integer sums of sample hypervectors, one sweep
over the training data. Inference encodes the query the same way and takes
the argmax of cosine similarity against the encoders; ties break toward
the lowest class index, and a zero-norm vector has similarity 0 to
everything by convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Quantizer, calibrate_quantizer
from .errors import DataError, ShapeError
from .hypervector import (
    FlipBudget,
    LevelTable,
    build_level_table,
    encode_quantized,
    uniform_flip_budget,
)


@dataclass(frozen=True)
class TrainedModel:
    """The serializable artifact: quantizer + level table + class encoders."""

    quantizer: Quantizer
    table: LevelTable
    encoders: np.ndarray  # (K, D) int64
    labels: list  # class names, index k-1 -> class k
    feature_names: list
    metadata: dict

    def __post_init__(self):
        e = np.asarray(self.encoders, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != self.table.dim:
            raise ShapeError(f"encoders must be (K, {self.table.dim}), got {e.shape}")
        if e.shape[0] < 2:
            raise DataError("need at least 2 classes")
        e.flags.writeable = False
        object.__setattr__(self, "encoders", e)

    @property
    def n_classes(self) -> int:
        return self.encoders.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TrainedModel)
            and self.quantizer.levels == other.quantizer.levels
            and np.array_equal(self.quantizer.mins, other.quantizer.mins)
            and np.array_equal(self.quantizer.maxs, other.quantizer.maxs)
            and self.table == other.table
            and np.array_equal(self.encoders, other.encoders)
            and self.labels == other.labels
            and self.metadata.get("seed") == other.metadata.get("seed")
        )

    __hash__ = None


@dataclass(frozen=True)
class Prediction:
    label: int  # class index in 1..K
    similarities: np.ndarray  # (K,)


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if np.any(labels < 1) or np.any(labels > n_classes):
        bad = labels[(labels < 1) | (labels > n_classes)]
        raise DataError(f"labels {np.unique(bad).tolist()} outside 1..{n_classes}")


def train_encoders(samples: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Sum sample hypervectors per class: encoders[k-1] = sum of X_s with y_s == k."""
    samples = np.asarray(samples, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise DataError("training set must be a non-empty (S, D) matrix")
    if labels.shape != (samples.shape[0],):
        raise ShapeError("label count does not match sample count")
    _check_labels(labels, n_classes)
    encoders = np.zeros((n_classes, samples.shape[1]), dtype=np.int64)
    np.add.at(encoders, labels - 1, samples)
    empty = np.setdiff1d(np.arange(1, n_classes + 1), labels)
    if empty.size:
        warnings.warn(f"classes {empty.tolist()} have no training samples; zero encoders")
    return encoders


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _similarities_to_encoders(queries: np.ndarray, encoders: np.ndarray) -> np.ndarray:
    """(S, D) int queries x (K, D) int encoders -> (S, K) cosine similarities."""
    q = queries.astype(np.float64)
    e = encoders.astype(np.float64)
    qn = np.linalg.norm(q, axis=1)
    en = np.linalg.norm(e, axis=1)
    qn[qn == 0.0] = np.inf  # zero-norm convention: similarity 0
    en[en == 0.0] = np.inf
    return (q / qn[:, None]) @ (e / en[:, None]).T


def predict_batch(features: np.ndarray, model: TrainedModel) -> np.ndarray:
    """Labels (1..K) for an (S, N) feature matrix."""
    levels = model.quantizer.quantize_matrix(np.asarray(features, dtype=np.float64))
    queries = encode_quantized(levels, model.table)
    sims = _similarities_to_encoders(queries, model.encoders)
    return np.argmax(sims, axis=1) + 1


def classify(query, model: TrainedModel) -> Prediction:
    """Encode one query and return the most similar class."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (model.table.features,):
        raise ShapeError(
            f"expected {model.table.features} features, got shape {query.shape}"
        )
    levels = model.quantizer.quantize_matrix(query[None, :])
    q = encode_quantized(levels, model.table)
    sims = _similarities_to_encoders(q, model.encoders)[0]
    return Prediction(label=int(np.argmax(sims)) + 1, similarities=sims)


def train_model(
    train: Dataset,
    quantizer: Quantizer,
    budget: FlipBudget,
    seed,
    table: LevelTable | None = None,
) -> TrainedModel:
    """Full single-pass training: budget -> level table -> encoders."""
    if table is None:
        table = build_level_table(seed, budget)
    levels = quantizer.quantize_matrix(train.features)
    samples = encode_quantized(levels, table)
    encoders = train_encoders(samples, train.labels, train.n_classes)
    counts = np.bincount(train.labels, minlength=train.n_classes + 1)[1:]
    return TrainedModel(
        quantizer=quantizer,
        table=table,
        encoders=encoders,
        labels=list(train.label_names),
        feature_names=list(train.feature_names or []),
        metadata={"seed": int(seed), "class_counts": counts.tolist()},
    )


def fit_baseline(train: Dataset, dim: int, levels: int, seed) -> TrainedModel:
    """Train with the uniform flip budget (the conventional pipeline)."""
    quantizer = calibrate_quantizer(train, levels)
    budget = uniform_flip_budget(dim, levels, features=train.n_features)
    return train_model(train, quantizer, budget, seed)


def appendix_experiment(dim: int, trials: int, mode: str, seed=0) -> float:
    """Fraction of trials in which the boundary query of the 1-D two-class
    task is classified correctly.

    Ten evenly spaced values on [0, 10], ten quantization levels, classes
    split at 5; the first nine points train, the point at value 10 is the
    query (true class 2). "chained" uses the uniform flip schedule so
    neighboring levels stay similar; "orthogonal" draws every level
    hypervector independently, which makes the query nearly orthogonal to
    both encoders and the decision close to a coin flip.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode not in ("chained", "orthogonal"):
        raise ValueError(f"mode must be 'chained' or 'orthogonal', got {mode!r}")
    n_levels = 10
    correct = 0
    for t in range(trials):
        if mode == "chained":
            rng_seed = np.random.default_rng([int(seed), t]).integers(0, 2**32)
            budget = uniform_flip_budget(dim, n_levels, features=1)
            table = build_level_table(int(rng_seed), budget)
            level_signs = table.signs[0].astype(np.int64)  # (M, D)
        else:
            rng = np.random.default_rng([int(seed), t])
            level_signs = (rng.integers(0, 2, size=(n_levels, dim)) * 2 - 1).astype(np.int64)
        # Training samples occupy levels 1..9; levels 1-5 are class 1,
        # levels 6-9 class 2. The query sits at level 10.
        e1 = level_signs[0:5].sum(axis=0)
        e2 = level_signs[5:9].sum(axis=0)
        q = level_signs[9]
        if cosine_similarity(q, e2) > cosine_similarity(q, e1):
            correct += 1
    return correct / trials
