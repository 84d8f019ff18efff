"""Optimization objectives and candidate evaluation.

Two objectives drive the flip-budget search: maximize the macro-averaged
recall on the training split (wAcc) and minimize the geometric mean of
pairwise class-encoder cosine similarities (avgSim). Robustness is
1 - avgSim. Feasibility is the per-feature row-sum constraint on the
budget, `FlipBudget.feasible`; infeasible candidates still get scores
(computed on the repaired budget) but carry feasible=False.

`CandidateEvaluator` scores a population as arrays: a (P, N, M-1) stack of
budget matrices in, (P, 3) float64 rows of (feasible, wAcc, avgSim) out.
The stack is repaired in one array operation and the model's level-space
kernel runs over a leading candidate axis, in blocks of candidates sized
from the problem's shapes so the temporaries stay small. The GA keeps its
population in that form; `evaluate` scores one FlipBudget as a population
of one. Scores do not depend on the population a budget is scored in: wAcc
and avgSim keep the bytes of `weighted_accuracy` and `avg_similarity` on
that budget's own confusion matrix and encoders.

avgSim depends on no summation order: its cosines come from the exact
integer Gram matrix of `model._cosines`, and each set's logs are summed with
`math.fsum`. `log` and `exp` are the only platform math functions left.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Quantizer
from .errors import DataError, ShapeError
from .hypervector import FlipBudget, _level_signs, _prefix_flips, _repair, _schedule
from .model import (
    _check_labels,
    _class_encoders,
    _cosines,
    _level_histogram,
    _nearest,
    _projection,
)

SIMILARITY_CLAMP = 1e-12

# Candidates per scoring block: this many elements of level signs and
# gathered level scores (their sizes per candidate are N*M*D and N*U*K).
# A block spreads the numpy calls of one kernel pass over many candidates
# while its temporaries stay in cache; a whole 200-candidate grid generation
# at once (D=64, M=20, U=400) took 14 MB more memory and ran slower.
_BLOCK_ELEMENTS = 2**17


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


def _macro_recalls(hits: np.ndarray, totals: np.ndarray) -> list:
    """wAcc of each row of (P, K) correct counts against the (K,) class totals."""
    present = totals > 0
    if not present.all():
        missing = (np.flatnonzero(~present) + 1).tolist()
        warnings.warn(f"classes {missing} have no true samples; excluded from wAcc")
    if not present.any():
        raise DataError("confusion matrix has no samples at all")
    recalls = hits[:, present] / totals[present]
    # One row at a time: a sum over axis 1 of the stack may add in another
    # order. A row's sum over its length is the bytes of its mean.
    return [float(row.sum() / row.size) for row in recalls]


def weighted_accuracy(confusion: np.ndarray) -> float:
    """Macro-averaged recall. Classes with no true samples are dropped from
    the mean with a warning."""
    confusion = np.asarray(confusion, dtype=np.int64)
    return _macro_recalls(np.diag(confusion)[None], confusion.sum(axis=1))[0]


def total_accuracy(confusion: np.ndarray) -> float:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    if total == 0:
        raise DataError("confusion matrix has no samples at all")
    return float(np.trace(confusion) / total)


def pairwise_similarities(encoders: np.ndarray) -> np.ndarray:
    """Raw K x K cosine-similarity matrix between class encoders."""
    return _cosines(encoders)


def _avg_similarities(encoders: np.ndarray) -> list:
    """avgSim of each of a (P, K, D) stack of encoder sets."""
    k = encoders.shape[1]
    logs = np.log(np.maximum(_cosines(encoders)[:, ~np.eye(k, dtype=bool)], SIMILARITY_CLAMP))
    # fsum rounds each row's exact sum once, whatever the order of its terms.
    return [math.exp(math.fsum(row) / k) for row in logs.tolist()]


def avg_similarity(encoders: np.ndarray) -> float:
    """Geometric-mean similarity over all ordered encoder pairs k != k',
    with exponent 1/K and each factor clamped below at 1e-12."""
    encoders = np.asarray(encoders, dtype=np.int64)
    k = encoders.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 class encoders, got {k}")
    return _avg_similarities(encoders[None])[0]


def _as_scores(rows: np.ndarray) -> list:
    """One ObjectiveScores per (feasible, wAcc, avgSim) row."""
    return [ObjectiveScores(wacc=w, avg_sim=a, feasible=bool(f)) for f, w, a in rows.tolist()]


class CandidateEvaluator:
    """Evaluates flip budgets against a fixed calibrated training split.

    Work that does not depend on the budget is done once: the training rows
    are quantized into a (K, N*M) class x level histogram, their distinct
    rows are kept with a (K, U) class-count matrix, and the flip schedule is
    drawn once per dimension. A population of budgets is repaired and
    turned into prefix sums in one array operation; then, one block of
    candidates at a time, the level signs are built and scored in level
    space with the model's kernel: encoders from the histogram, labels of
    the U distinct rows from the level projection, and the confusion
    diagonal as an integer product with the counts. Pure: identical budgets
    give identical scores, alone or in any population.
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
        self.class_sizes = self.counts.sum(axis=1)
        self._schedules = {}  # dim -> (bases, ranks)

    def evaluate(self, budget: FlipBudget) -> ObjectiveScores:
        """The scores of one budget: a population of one."""
        n_features, n_levels = self.train.n_features, self.quantizer.levels
        if budget.features != n_features or budget.levels != n_levels:
            raise ShapeError(
                f"budget shape ({budget.features}, {budget.levels - 1}) does not match "
                f"dataset N={n_features}, M={n_levels}"
            )
        return _as_scores(self._scores(budget.budgets[None], budget.dim))[0]

    def _scores(self, genes: np.ndarray, dim: int) -> np.ndarray:
        """(P, 3) float64 rows (feasible, wAcc, avgSim) of a non-empty
        (P, N, M-1) stack of budgets of dimension `dim`."""
        n_features, n_levels = genes.shape[1], genes.shape[2] + 1
        if dim not in self._schedules:
            self._schedules[dim] = _schedule(self.base_seed, n_features, dim)
        feasible = genes.sum(axis=2).max(axis=1) <= dim // 2
        prefix = _prefix_flips(_repair(genes, dim))
        classes = np.arange(1, self.n_classes + 1)[:, None]  # (K, 1) labels
        block = max(1, _BLOCK_ELEMENTS // (n_features * (n_levels * dim + self.counts.size)))
        hits, avg_sims = [], []
        for start in range(0, len(genes), block):
            signs = _level_signs(*self._schedules[dim], prefix[start : start + block])
            encoders = _class_encoders(signs, self.histogram)
            predicted = _nearest(*_projection(signs, encoders), self.rows)  # (B, U)
            # hits[p, k-1] = training samples of class k that candidate p labels k
            hits.append(((predicted[:, None, :] == classes) * self.counts).sum(axis=2))
            avg_sims += _avg_similarities(encoders)
        waccs = _macro_recalls(np.concatenate(hits), self.class_sizes)
        return np.column_stack([feasible, waccs, avg_sims])
