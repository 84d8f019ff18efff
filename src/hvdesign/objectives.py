"""Optimization objectives and candidate evaluation.

Two objectives drive the flip-budget search: maximize the macro-averaged
recall on the training split (wAcc) and minimize the geometric mean of
pairwise class-encoder cosine similarities (avgSim). Robustness is
1 - avgSim. Feasibility is the per-feature row-sum constraint on the
budget, which every `FlipBudget` meets by construction (`FlipBudget.feasible`
is always True). Scoring applies FlipBudget's rules through the checks they
share, and refuses a row over D/2 with the ConstraintError `FlipBudget`
raises, so every score is of a valid, feasible budget.

`CandidateEvaluator.score` scores a population as arrays: a (P, N, M-1)
stack of budget matrices in, (P, 2) float64 rows of (wAcc, avgSim) out. The
model's level-space kernel runs over a leading candidate axis, in blocks of
candidates sized from the problem's shapes (see `_BLOCK_ELEMENTS`). A
block's confusion diagonal comes straight from the kernel's winner mask,
with no labels in between, and the squared encoder norms the winners are
judged by are the diagonal of the block's exact encoder Gram matrices. A
block keeps only its hits and those (B, K, K) Grams; avgSim is finished
once per population, after the last block: cosines, logs, sums and `exp`
over all the Grams at once.
The GA keeps its population in that form, and repairs every budget
before it scores it; `evaluate` scores one FlipBudget as a population of
one. Scores do not depend on the population a budget is scored in: wAcc
and avgSim keep the bytes of `weighted_accuracy` and `avg_similarity` on
that budget's own confusion matrix and encoders.

avgSim depends on no summation order and on no block size: its cosines
are elementwise functions of the exact integer Gram matrix (`model._gram`,
`model._cosines`, as in `pairwise_similarities`), and each set's logs are
summed with `math.fsum`. `log` and `exp` are the only platform math
functions left.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import Dataset, Quantizer, _check_labels
from .errors import DataError, ShapeError
from .hypervector import (
    FlipBudget,
    _budget_array,
    _check_feasible,
    _check_seed,
    _flip_levels,
    _integer_valued,
    _schedule,
)
from .model import (
    _check_budget_shape,
    _class_encoders,
    _cosines,
    _encoder_weights,
    _gram,
    _level_histogram,
    _projection,
    _row_incidence,
    _winners,
)

SIMILARITY_CLAMP = 1e-12

# Candidates per scoring block: this many elements of the kernel's largest
# per-candidate temporaries, N*D*K and K*U (N features, D dimensions, K
# classes, U distinct training rows). The first is the int64 weights
# `_class_encoders` gathers at every flip level; the second the float64
# level-score sums `_winners` takes from one product with the row
# incidence matrix, and the comparisons it makes on them. No (N, M, D)
# array is built. A block spreads the numpy calls of one kernel pass over
# many candidates, but its working set must stay small enough that glibc
# reuses the heap pages one block frees for the next; otherwise every block
# maps and faults in fresh pages. Swept from 2**14 to 2**19 in a plain
# process: at the grid shape (D=64, M=20, K=4, U=400) 2**16 gives 31
# candidates a block and 220-260 minor faults per generation of 200, as the
# sign kernel this one replaced took; 2**17 took 420-520 and was no faster
# in the benchmark. At the wide shape (N=57, D=64, K=2) it gives 8 a block,
# and scoring faults nothing; 16 a block was a few percent faster.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class ObjectiveScores:
    wacc: float
    avg_sim: float
    # True by construction, as scoring refuses infeasible budgets; bench/ reads it.
    feasible: ClassVar[bool] = True

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


def _avg_similarities(grams: np.ndarray) -> list:
    """avgSim of each of a (P, K, K) stack of encoder Gram matrices."""
    k = grams.shape[1]
    sims = _cosines(grams)[:, ~np.eye(k, dtype=bool)]
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
    return _avg_similarities(_gram(encoders[None]))[0]


class CandidateEvaluator:
    """Evaluates flip budgets against a fixed calibrated training split.

    Work that does not depend on the budget is done once: the training rows
    are quantized into the (K, N*M) encoder weights of their class x level
    histogram, and their distinct rows are kept with a (K, U) class-count
    matrix and an (N*M, U) incidence matrix; the flip schedule is the one
    `_schedule` keeps. The distinct rows come from one 1-D `np.unique` over a
    byte key per row (its levels in big-endian `np.min_scalar_type(M)`, so
    keys sort bytewise as rows sort by value), in the order and with the
    inverse of `np.unique(axis=0)`; the class counts are one `bincount` of
    (class, row) pairs. Then, one block of candidates at a time, the flip
    level of every index is gathered from the budgets and scored in level
    space with the model's kernel: encoders from the weights, the winner
    mask of the U distinct rows from the level projection and the incidence
    matrix, and the confusion diagonal as the mask's integer product with
    the class counts. Pure: identical budgets give identical scores, alone
    or in any population.
    """

    def __init__(self, train: Dataset, quantizer: Quantizer, base_seed):
        if train.n_classes < 2:
            raise DataError("need at least 2 classes")
        self.train = train
        self.quantizer = quantizer
        self.base_seed = _check_seed(base_seed)
        self.n_classes = train.n_classes
        levels = quantizer.quantize_matrix(train.features)
        histogram = _level_histogram(levels, train.labels, self.n_classes, quantizer.levels)
        self.weights = _encoder_weights(histogram, quantizer.levels)
        # (U, N) distinct quantized rows, found through one void key per row.
        key = np.dtype(np.min_scalar_type(quantizer.levels)).newbyteorder(">")
        keys = levels.astype(key).view(np.dtype((np.void, key.itemsize * levels.shape[1])))
        distinct, row_of = np.unique(keys.ravel(), return_inverse=True)
        self.rows = distinct.view(key).reshape(len(distinct), -1).astype(np.int64)
        # counts[k-1, u] = samples of class k at row u.
        n_rows = len(self.rows)
        pairs = (train.labels - 1) * n_rows + row_of
        self.counts = np.bincount(pairs, minlength=self.n_classes * n_rows).reshape(-1, n_rows)
        self.class_sizes = self.counts.sum(axis=1)
        self.incidence = _row_incidence(self.rows, quantizer.levels)  # (N*M, U)

    def evaluate(self, budget: FlipBudget) -> ObjectiveScores:
        """The scores of one budget: a population of one."""
        return ObjectiveScores(*self.score(budget.budgets[None], budget.dim)[0].tolist())

    def score(self, genes: np.ndarray, dim: int) -> np.ndarray:
        """(P, 2) float64 rows (wAcc, avgSim) of a (P, N, M-1) stack of
        budgets of dimension `dim`. A bad `dim` or entry raises what
        `FlipBudget` raises, DimensionError or DataError; budgets of another
        (N, M-1) than the training split's ShapeError, and a budget with a
        row over D/2 ConstraintError."""
        n_features, n_levels = self.train.n_features, self.quantizer.levels
        genes = _budget_array(genes, dim)
        _check_budget_shape(genes.shape[1:], self.quantizer)
        _check_feasible(genes, dim)
        if not len(genes):
            return np.empty((0, 2))
        bases, slots = _schedule(self.base_seed, n_features, dim)
        block = max(1, _BLOCK_ELEMENTS // (n_features * dim * self.n_classes + self.counts.size))
        hits, grams = [], []
        for start in range(0, len(genes), block):
            flips = _flip_levels(slots, genes[start : start + block])
            encoders = _class_encoders(bases, flips, self.weights)
            projection = _projection(bases, flips, encoders, n_levels)
            gram = _gram(encoders)  # (B, K, K)
            won = _winners(projection, gram, self.rows, self.incidence)  # (B, K, U)
            # hits[p, k-1] = training samples of class k that candidate p gives class k
            hits.append(np.einsum("pku,ku->pk", won, self.counts))
            grams.append(gram)
        waccs = _macro_recalls(np.concatenate(hits), self.class_sizes)
        return np.column_stack([waccs, _avg_similarities(np.concatenate(grams))])
