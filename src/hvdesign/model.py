"""Single-pass classifier training and cosine-similarity inference.

Class encoders are plain integer sums of sample hypervectors, one sweep
over the training data. Inference takes the argmax of cosine similarity
between a query's hypervector and the encoders; ties break toward the
lowest class index, and a zero-norm vector has similarity 0 to everything
by convention.

Training, inference and candidate scoring never build a sample
hypervector. They work in level space: a sample is the sum of the level
hypervectors its features fall in, x_s = sum_n L[n, l_sn], so

- the encoders are E = H @ L, where H counts the training samples of each
  class at each (feature, level);
- a dot product is x_s . e_k = sum_n P[n, l_sn, k], where P = L @ E^T
  projects every level hypervector on every encoder;
- the label is the argmax of (x_s . e_k) / |e_k|: |x_s| is the same for
  every class of a row, so it cannot move the argmax.

E, P, the squared norms and the dot products are exact integers (float64
products are used only under a checked bound that keeps every partial sum
below 2**53), and scores that come within float rounding of each other are
compared exactly in integers. A label therefore depends neither on the
batch it is scored in nor on the BLAS and its summation order.

Every reported cosine (avgSim, `classify`'s similarities and the appendix
experiment's decision) comes from `pairwise_similarities`, an exact int64
Gram matrix of integer-valued vectors, so it too is the same in any
summation order; `log` and `exp` in avgSim are the only platform math
functions left.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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

# Scores closer than this (relative) to a row's best are compared exactly;
# float rounding of an exact dot over a rounded norm is below 1e-15.
_NEAR_TIE = 1e-9


def _level_histogram(levels: np.ndarray, labels: np.ndarray, n_classes: int,
                     n_levels: int) -> np.ndarray:
    """(K, N*M) int64 counts: [k-1, n*M + l-1] = samples of class k whose
    feature n is at level l."""
    n_features = levels.shape[1]
    index = ((labels[:, None] - 1) * n_features + np.arange(n_features)) * n_levels + levels - 1
    counts = np.bincount(index.ravel(), minlength=n_classes * n_features * n_levels)
    return counts.reshape(n_classes, n_features * n_levels)


def _class_encoders(signs: np.ndarray, histogram: np.ndarray) -> np.ndarray:
    """(P, K, D) int64 encoders E = H @ L from the (P, N, M, D) level signs
    of P candidates.

    |E| is at most the N*S_k level hypervectors a class sums, so under the
    checked bound each float64 product is exact."""
    n_candidates, n_features, n_levels, dim = signs.shape
    if histogram.sum(axis=1).max(initial=0) >= 2**53:
        raise DataError("training set too large for exact encoder sums")
    per_feature = histogram.reshape(-1, n_features, n_levels).astype(np.float64)
    encoders = np.zeros((n_candidates, histogram.shape[0], dim))
    for n in range(n_features):
        encoders += per_feature[:, n] @ signs[:, n]
    return encoders.astype(np.int64)


def _projection(signs: np.ndarray, encoders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, N, M, K) int64 P[p, n, m-1, k-1] = L[n, m] . e_k of each of the P
    candidates, and their (P, K) squared encoder norms.

    A sum of N entries of P is bounded by N*D*max|E|; keeping that below
    2**53 makes every float64 product, every dot product and its float64
    value exact."""
    n_candidates, n_features, n_levels, dim = signs.shape
    top = int(np.abs(encoders).max(initial=0))
    if n_features * dim * top >= 2**53 or dim * top * top >= 2**63:
        raise DataError(f"encoder entries up to {top} are too large for exact scoring")
    columns = encoders.transpose(0, 2, 1).astype(np.float64)
    projection = np.empty((n_candidates, n_features, n_levels, encoders.shape[1]))
    for n in range(n_features):
        np.matmul(signs[:, n], columns, out=projection[:, n])
    return projection.astype(np.int64), np.einsum("pkd,pkd->pk", encoders, encoders)


def _exact_score(dot: int, sq_norm: int) -> Fraction:
    """sign(dot) * dot**2 / |e|**2: increases with dot / |e|; 0 for a zero encoder."""
    return Fraction(dot * abs(dot), sq_norm) if sq_norm else Fraction(0)


def _nearest(projection: np.ndarray, sq_norms: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(P, S) labels (1..K) that each of the P candidates gives the (S, N)
    rows of levels (values 1..M): the argmax of x_s . e_k / |e_k|, ties to
    the lowest k."""
    n_candidates, n_features, n_levels, n_classes = projection.shape
    picks = levels.T - 1 + n_levels * np.arange(n_features)[:, None]  # (N, S)
    gathered = np.take(projection.reshape(n_candidates, -1, n_classes), picks, axis=1)
    dots = gathered.sum(axis=1).transpose(0, 2, 1).copy()  # (P, K, S)
    norms = np.where(sq_norms > 0, np.sqrt(sq_norms), np.inf)  # zero encoder: score 0
    scores = dots / norms[:, :, None]
    best = scores.max(axis=1)
    near = scores >= (best - _NEAR_TIE * np.abs(best))[:, None]
    labels = near.argmax(axis=1)
    if np.count_nonzero(near) > labels.size:  # a row has several near-best classes
        for p, s in zip(*np.nonzero(near.sum(axis=1) > 1)):  # settle them exactly
            labels[p, s] = max(
                np.flatnonzero(near[p, :, s]),
                key=lambda k: (_exact_score(int(dots[p, k, s]), int(sq_norms[p, k])), -k),
            )
    return labels + 1


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

    @cached_property
    def _scoring(self) -> tuple[np.ndarray, np.ndarray]:
        """The level projection and squared encoder norms `_nearest` takes,
        for this model as a population of one."""
        return _projection(self.table.signs[None], self.encoders[None])

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


def _integer_valued(values, message: str) -> np.ndarray:
    """`values` as an int64 array, or as a float64 one whose every value is
    a finite whole number; any other value raises DataError(message), where
    a cast would truncate it."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    values = values.astype(np.float64, copy=False)
    if not np.all(np.isfinite(values) & (values == np.round(values))):
        raise DataError(message)
    return values


def pairwise_similarities(vectors) -> np.ndarray:
    """(..., K, K) cosine similarities between the rows of a (..., K, D)
    stack of integer-valued vectors, such as class encoders; a zero row has
    similarity 0 to every row.

    The Gram matrix G is exact in int64 under the checked bound
    D*max|v|**2 < 2**63, and each cosine is G_kl / (sqrt(G_kk)*sqrt(G_ll)),
    correctly rounded operations in a fixed order, so it depends neither on
    the summation order nor on the BLAS. A non-integer dtype is scanned
    first: a value that is not finite or not a whole number raises, where a
    cast would truncate it."""
    vectors = _integer_valued(vectors, "cosines need finite, integer-valued vectors")
    top = int(np.abs(vectors).max(initial=0))
    if vectors.shape[-1] * top * top >= 2**63:
        raise DataError(f"vector entries up to {top} are too large for exact cosines")
    vectors = vectors.astype(np.int64, copy=False)
    gram = np.einsum("...kd,...ld->...kl", vectors, vectors)
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    norms[norms == 0.0] = np.inf  # zero-norm convention: similarity 0
    return gram / (norms[..., :, None] * norms[..., None, :])


def predict_batch(features: np.ndarray, model: TrainedModel) -> np.ndarray:
    """Labels (1..K) for an (S, N) feature matrix."""
    levels = model.quantizer.quantize_matrix(np.asarray(features, dtype=np.float64))
    return _nearest(*model._scoring, levels)[0]


def classify(query, model: TrainedModel) -> Prediction:
    """The most similar class of one query, with its cosine similarity to
    every encoder; the label is the one `predict_batch` gives."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (model.table.features,):
        raise ShapeError(
            f"expected {model.table.features} features, got shape {query.shape}"
        )
    levels = model.quantizer.quantize_matrix(query[None, :])
    encoded = encode_quantized(levels, model.table)
    sims = pairwise_similarities(np.concatenate([encoded, model.encoders]))
    return Prediction(label=int(_nearest(*model._scoring, levels)[0, 0]), similarities=sims[0, 1:])


def train_model(
    train: Dataset,
    quantizer: Quantizer,
    budget: FlipBudget,
    seed,
) -> TrainedModel:
    """Full single-pass training: budget -> level table -> encoders."""
    table = build_level_table(seed, budget)
    _check_labels(train.labels, train.n_classes)
    counts = np.bincount(train.labels, minlength=train.n_classes + 1)[1:]
    if not np.all(counts):
        empty = (np.flatnonzero(counts == 0) + 1).tolist()
        warnings.warn(f"classes {empty} have no training samples; zero encoders")
    levels = quantizer.quantize_matrix(train.features)
    encoders = _class_encoders(
        table.signs[None], _level_histogram(levels, train.labels, train.n_classes, table.levels)
    )[0]
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
        sims = pairwise_similarities(np.stack([q, e1, e2]))[0]
        if sims[2] > sims[1]:
            correct += 1
    return correct / trials
