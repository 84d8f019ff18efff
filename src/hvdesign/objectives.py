"""Optimization objectives and candidate evaluation.

Two objectives drive the flip-budget search: maximize the macro-averaged
recall on the training split (wAcc) and minimize the geometric mean of
pairwise class-encoder cosine similarities (avgSim). Robustness is
1 - avgSim. Feasibility is the per-feature row-sum constraint on the
budget, `FlipBudget.feasible`; `evaluate` scores an infeasible budget on
its repaired form and carries feasible=False from the budget.

`CandidateEvaluator` scores a population as arrays: a (P, N, M-1) stack of
budget matrices in, (P, 2) float64 rows of (wAcc, avgSim) out. The stack is
repaired in one array operation and the model's level-space kernel runs
over a leading candidate axis, in blocks of candidates sized from the
problem's shapes (see `_BLOCK_ELEMENTS`). A block's confusion diagonal
comes straight from the kernel's winner mask, with no labels in between.
The GA keeps its population in that form, and only ever holds repaired,
so feasible, budgets; `evaluate` scores one FlipBudget as a population of
one. Scores do not depend on the population a budget is scored in: wAcc
and avgSim keep the bytes of `weighted_accuracy` and `avg_similarity` on
that budget's own confusion matrix and encoders.

avgSim depends on no summation order: its cosines come from the exact
integer Gram matrix of `pairwise_similarities`, and each set's logs are
summed with `math.fsum`. `log` and `exp` are the only platform math
functions left.
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
    _integer_valued,
    _level_histogram,
    _projection,
    _winners,
    pairwise_similarities,
)

SIMILARITY_CLAMP = 1e-12

# Candidates per scoring block: this many elements of level signs and
# gathered level scores (their sizes per candidate are N*M*D and N*U*K).
# A block's largest temporaries are float64: the N*U*K level scores that
# `_winners` gathers, the U*K scores it sums them into, and one feature's
# M*D level signs cast for the encoder and projection products. A block
# spreads the numpy calls of one kernel pass over many candidates, but its
# working set must stay small enough that glibc reuses the heap pages one
# block frees for the next; otherwise every block maps and faults in fresh
# pages. At the grid shape (D=64, M=20, U=400: 22 candidates a block) a
# generation of 200 takes about 250 minor faults and 10 ms in a plain
# process; keeping one more int64 copy of the dots alive in `_winners` took
# 2,600 faults and 15-16 ms. Swept from 2**16 to 2**18, 2**17 was fastest in
# the benchmark and in a plain process, and faulted least (420-600 faults
# at 1.5-2 times the size).
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
    """K x K counts, entry [true-1][predicted-1]; a label that is not a
    whole number in 1..K raises DataError."""
    message = "labels need finite, integer-valued entries"
    t = _integer_valued(true_labels, message)
    p = _integer_valued(predicted_labels, message)
    if t.shape != p.shape:
        raise ShapeError("true and predicted label arrays differ in length")
    _check_labels(t, n_classes)
    _check_labels(p, n_classes)
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (t.astype(np.int64) - 1, p.astype(np.int64) - 1), 1)
    return out


def _macro_recalls(hits: np.ndarray, totals: np.ndarray) -> list:
    """wAcc of each row of (P, K) correct counts against the (K,) class totals."""
    present = totals > 0
    if not present.all():
        missing = (np.flatnonzero(~present) + 1).tolist()
        warnings.warn(f"classes {missing} have no true samples; excluded from wAcc")
    if not present.any():
        raise DataError("confusion matrix has no samples at all")
    # compress keeps the stack C-contiguous (hits[:, present] would not), and
    # numpy adds each row of a C-contiguous stack over axis 1 in the order of
    # that row's own sum, so each wAcc has the bytes of its row's mean.
    recalls = hits.compress(present, axis=1) / totals[present]
    return (recalls.sum(axis=1) / recalls.shape[1]).tolist()


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


def _avg_similarities(encoders: np.ndarray) -> list:
    """avgSim of each of a (P, K, D) stack of encoder sets."""
    k = encoders.shape[1]
    sims = pairwise_similarities(encoders)[:, ~np.eye(k, dtype=bool)]
    logs = np.log(np.maximum(sims, SIMILARITY_CLAMP))
    # fsum rounds each row's exact sum once, whatever the order of its terms.
    return [math.exp(math.fsum(row) / k) for row in logs.tolist()]


def avg_similarity(encoders: np.ndarray) -> float:
    """Geometric-mean similarity over all ordered encoder pairs k != k',
    with exponent 1/K and each factor clamped below at 1e-12."""
    encoders = np.asarray(encoders)
    k = encoders.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 class encoders, got {k}")
    return _avg_similarities(encoders[None])[0]


class CandidateEvaluator:
    """Evaluates flip budgets against a fixed calibrated training split.

    Work that does not depend on the budget is done once: the training rows
    are quantized into a (K, N*M) class x level histogram, their distinct
    rows are kept with a (K, U) class-count matrix, and the flip schedule is
    drawn once per dimension. A population of budgets is repaired and
    turned into prefix sums in one array operation; then, one block of
    candidates at a time, the level signs are built and scored in level
    space with the model's kernel: encoders from the histogram, the winner
    mask of the U distinct rows from the level projection, and the
    confusion diagonal as the mask's integer product with the class counts.
    Pure: identical budgets give identical scores, alone or in any
    population.
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
        wacc, avg_sim = self._scores(budget.budgets[None], budget.dim)[0].tolist()
        return ObjectiveScores(wacc, avg_sim, feasible=budget.feasible)

    def _scores(self, genes: np.ndarray, dim: int) -> np.ndarray:
        """(P, 2) float64 rows (wAcc, avgSim) of a non-empty (P, N, M-1)
        stack of budgets of dimension `dim`, each scored on its repaired form."""
        n_features, n_levels = genes.shape[1], genes.shape[2] + 1
        if dim not in self._schedules:
            self._schedules[dim] = _schedule(self.base_seed, n_features, dim)
        prefix = _prefix_flips(_repair(genes, dim))
        block = max(1, _BLOCK_ELEMENTS // (n_features * (n_levels * dim + self.counts.size)))
        hits, avg_sims = [], []
        for start in range(0, len(genes), block):
            signs = _level_signs(*self._schedules[dim], prefix[start : start + block])
            encoders = _class_encoders(signs, self.histogram)
            won = _winners(*_projection(signs, encoders), self.rows)  # (B, K, U)
            # hits[p, k-1] = training samples of class k that candidate p gives class k
            hits.append(np.einsum("pku,ku->pk", won, self.counts))
            avg_sims += _avg_similarities(encoders)
        waccs = _macro_recalls(np.concatenate(hits), self.class_sizes)
        return np.column_stack([waccs, avg_sims])
