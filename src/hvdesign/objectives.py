"""Optimization objectives and candidate evaluation.

Two objectives drive the flip-budget search: maximize the macro-averaged
recall on the training split (wAcc) and minimize the geometric mean of
pairwise class-encoder cosine similarities (avgSim). Robustness is
1 - avgSim. Feasibility is the per-feature row-sum constraint on the
budget; infeasible candidates still get scores (computed on the repaired
budget) but carry feasible=False.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Quantizer
from .errors import DataError, ShapeError
from .hypervector import FlipBudget, _level_signs, _prefix_flips, _schedule, repair_budget
from .model import (
    _check_labels,
    _class_encoders,
    _level_histogram,
    _nearest,
    _projection,
    _similarities_to_encoders,
)

SIMILARITY_CLAMP = 1e-12


@dataclass(frozen=True)
class ObjectiveScores:
    wacc: float
    avg_sim: float
    feasible: bool

    @property
    def robustness(self) -> float:
        return 1.0 - self.avg_sim


def confusion_matrix(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """K x K counts, entry [true-1][predicted-1]."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ShapeError("true and predicted label arrays differ in length")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (t - 1, p - 1), 1)
    return out


def weighted_accuracy(confusion: np.ndarray) -> float:
    """Macro-averaged recall. Classes with no true samples are dropped from
    the mean with a warning."""
    confusion = np.asarray(confusion, dtype=np.int64)
    totals = confusion.sum(axis=1)
    present = totals > 0
    if not np.all(present):
        missing = (np.flatnonzero(~present) + 1).tolist()
        warnings.warn(f"classes {missing} have no true samples; excluded from wAcc")
    if not np.any(present):
        raise DataError("confusion matrix has no samples at all")
    recalls = np.diag(confusion)[present] / totals[present]
    return float(recalls.mean())


def total_accuracy(confusion: np.ndarray) -> float:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    if total == 0:
        raise DataError("confusion matrix has no samples at all")
    return float(np.trace(confusion) / total)


def pairwise_similarities(encoders: np.ndarray) -> np.ndarray:
    """Raw K x K cosine-similarity matrix between class encoders."""
    encoders = np.asarray(encoders, dtype=np.int64)
    return _similarities_to_encoders(encoders, encoders)


def avg_similarity(encoders: np.ndarray) -> float:
    """Geometric-mean similarity over all ordered encoder pairs k != k',
    with exponent 1/K and each factor clamped below at 1e-12."""
    encoders = np.asarray(encoders, dtype=np.int64)
    k = encoders.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 class encoders, got {k}")
    sims = pairwise_similarities(encoders)
    off_diag = sims[~np.eye(k, dtype=bool)]
    clamped = np.maximum(off_diag, SIMILARITY_CLAMP)
    return float(np.exp(np.log(clamped).sum() / k))


def feasibility(budget: FlipBudget) -> bool:
    """Row sums within D/2, inclusive."""
    return budget.feasible


class CandidateEvaluator:
    """Evaluates flip budgets against a fixed calibrated training split.

    Work that does not depend on the budget is done once: the training rows
    are quantized into a (K, N*M) class x level histogram, their distinct
    rows are kept with a (K, U) class-count matrix, and the flip schedule is
    drawn once per dimension. Each evaluation builds the level signs from
    the budget's prefix sums and scores in level space with the model's
    kernel: encoders from the histogram, labels of the U distinct rows from
    the level projection, and the confusion matrix as an integer product
    with the counts. Pure: identical budgets give identical scores.
    """

    def __init__(self, train: Dataset, quantizer: Quantizer, base_seed):
        if quantizer.features != train.n_features:
            raise ShapeError("quantizer and dataset disagree on feature count")
        if train.n_classes < 2:
            raise DataError("need at least 2 classes")
        _check_labels(train.labels, train.n_classes)
        self.train = train
        self.quantizer = quantizer
        self.base_seed = int(base_seed)
        self.n_classes = train.n_classes
        levels = quantizer.quantize_matrix(train.features)
        self.histogram = _level_histogram(levels, train.labels, self.n_classes, quantizer.levels)
        # (U, N) distinct quantized rows; counts[k-1, u] = samples of class k at row u.
        self.rows, row_of = np.unique(levels, axis=0, return_inverse=True)
        self.counts = np.zeros((self.n_classes, len(self.rows)), dtype=np.int64)
        np.add.at(self.counts, (train.labels - 1, row_of.reshape(-1)), 1)
        self._schedules = {}  # dim -> (bases, ranks)

    def evaluate(self, budget: FlipBudget) -> ObjectiveScores:
        if budget.features != self.train.n_features or budget.levels != self.quantizer.levels:
            raise ShapeError(
                f"budget shape ({budget.features}, {budget.levels - 1}) does not match "
                f"dataset N={self.train.n_features}, M={self.quantizer.levels}"
            )
        if budget.dim not in self._schedules:
            self._schedules[budget.dim] = _schedule(self.base_seed, budget.features, budget.dim)
        prefix = _prefix_flips(repair_budget(budget))
        signs = _level_signs(*self._schedules[budget.dim], prefix)
        encoders = _class_encoders(signs, self.histogram)
        predicted = _nearest(*_projection(signs, encoders), self.rows)
        confusion = self.counts @ np.eye(self.n_classes, dtype=np.int64)[predicted - 1]
        return ObjectiveScores(
            wacc=weighted_accuracy(confusion),
            avg_sim=avg_similarity(encoders),
            feasible=budget.feasible,
        )
