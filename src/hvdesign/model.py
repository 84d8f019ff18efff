"""Single-pass classifier training and cosine-similarity inference.

Class encoders are plain integer sums of sample hypervectors, one sweep
over the training data. Inference takes the argmax of cosine similarity
between a query's hypervector and the encoders; ties break toward the
lowest class index, and a zero-norm vector has similarity 0 to everything
by convention.

Training, inference and candidate scoring never build a sample
hypervector, nor the (N, M, D) signs of the level hypervectors. They work
in level space: a sample is the sum of the level hypervectors its features
fall in, x_s = sum_n L[n, l_sn]. Level m of feature n is its base vector
with the first b_1 + ... + b_{m-1} indices of its flip permutation
negated, so index d keeps its base sign up to its flip level t(n, d) and
has the opposite sign above it. A `LevelTable` holds just those (N, D)
base signs and flip levels, and `hypervector._flip_levels` gathers the
flip levels of a block of candidates the same way, through the slots of
the flip permutations. One kernel, shared by training, prediction and
candidate scoring, works from them alone, in O(N*D*K) per candidate:

- the encoders are E = H @ L, where H counts the training samples of each
  class at each (feature, level): E_k[d] = sum_n base[n, d] *
  (2*C_k[n, t(n, d)] - S_k), with C_k the cumulative counts of class k and
  S_k its size (`_encoder_weights`, `_class_encoders`);
- a dot product is x_s . e_k = sum_n P[n, l_sn, k], where P = L @ E^T
  projects every level hypervector on every encoder: P[n, j, k] is the
  sum of base[n, d] * E_k[d] over the indices with t(n, d) >= j, less the
  sum over the rest (`_projection`);
- the winner of a row is the argmax of (x_s . e_k) / |e_k|: |x_s| is the
  same for every class of a row, so it cannot move the argmax. The
  squared norms |e_k|**2 are the diagonal of the encoders' exact Gram
  matrix (`_gram`), the same matrix avgSim takes its cosines from, so
  candidate scoring computes them once.

`_winners` settles the winners of a whole population at once as a
(P, K, S) bool mask with one True per candidate and row: candidate
scoring sums each row's level scores in one product with the rows'
incidence matrix and counts its hits against the class counts straight
from the mask, and `predict_batch` reads labels off it, gathering the
level scores of its rows instead. `classify` sums its one row's level
scores into integer dots and settles its label exactly with
`_best_class`, the rule `_winners` settles near ties with.

E, P, the squared norms and the dot products are exact integers. P is held
once, as the (P, K, N, M) float64 array of whole numbers its readers sum
in place; float64 products and sums are used only under a checked bound
that keeps every partial sum below 2**53. Scores that come within float
rounding of each other are compared exactly in integers. A winner
therefore depends neither on the batch it is scored in nor on the BLAS
and its summation order.

Every reported cosine (avgSim, `classify`'s similarities and the appendix
experiment's decision) comes from an exact int64 Gram matrix of
integer-valued vectors (`_gram`) through one elementwise routine
(`_cosines`), so it too is the same in any summation order and in any
batch: `pairwise_similarities` is the two in a row, and candidate scoring
keeps each block's Grams and takes the cosines of a whole population at
once. `classify` stacks no vectors: it assembles the (K+1, K+1) Gram of
its query x and the encoders from exact pieces it already has, x . x from
the encoded query, each x . e_k from the model's projection (the dots its
label is settled on) and the encoders' Gram from the model's scoring
cache, which the CLI's avgSim reads too. `log` and `exp` in avgSim are the
only platform math functions left.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .data import Dataset, Quantizer, _strings, calibrate_quantizer
from .errors import DataError, ShapeError
from .hypervector import (
    FlipBudget,
    LevelTable,
    _Value,
    _check_count,
    _check_dim,
    _check_seed,
    _frozen,
    _integer_valued,
    build_level_table,
    encode_quantized,
    level_vector,
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


def _encoder_weights(histogram: np.ndarray, n_levels: int) -> np.ndarray:
    """(K, N*M) int64 W[k-1, n*M + x-1] = 2*C_k[n, x] - S_k of a (K, N*M)
    class x level histogram of M levels, where C_k[n, x] counts class-k
    samples of feature n at levels <= x and S_k is the class size: what an
    index of feature n with flip level x adds to e_k, times its base sign,
    because the C_k[n, x] samples at levels up to x add its base sign and
    the rest subtract it.

    |E| is at most the N*S_k level hypervectors a class sums; that is
    checked to stay below 2**53."""
    if histogram.sum(axis=1).max(initial=0) >= 2**53:
        raise DataError("training set too large for exact encoder sums")
    cumulative = histogram.reshape(len(histogram), -1, n_levels).cumsum(axis=2)
    return (2 * cumulative - cumulative[:, :, -1:]).reshape(len(histogram), -1)


def _class_encoders(bases: np.ndarray, flips: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(P, K, D) int64 encoders E = H @ L of P candidates, from the (N, D)
    base signs and the (P, N, D) flip levels of their level tables and the
    `_encoder_weights` of the training histogram H.

    Level m of feature n is base[n, d] where m <= t(n, d) and -base[n, d]
    above, so E_k[d] = sum_n base[n, d] * W_k[n, t(n, d)]: one gather of
    the weights at every flip level."""
    n_features = flips.shape[1]
    picks = flips - 1 + (weights.shape[1] // n_features) * np.arange(n_features)[:, None]
    return np.einsum("kpnd,nd->pkd", np.take(weights, picks, axis=1), bases)


def _projection(bases: np.ndarray, flips: np.ndarray, encoders: np.ndarray,
                n_levels: int) -> np.ndarray:
    """(P, K, N, M) float64 P[p, k-1, n, m-1] = L[n, m] . e_k of each of
    the P candidates, from the (N, D) base signs, the (P, N, D) flip levels
    and the (P, K, D) encoders: every entry an exact integer, and the one
    layout every reader sums in place.

    With a_k[n, d] = base[n, d] * E_k[d], level j adds a_k at the indices
    whose flip level is at least j and subtracts it at the rest:
    P[n, j, k] = sum_x A[n, x, k] * (1 if x >= j else -1), where A[n, x, k]
    sums a_k over the indices of flip level x (a float64 `bincount` per
    class). A sum of N entries of P is bounded by N*D*max|E|, and keeping
    that below 2**53 makes every partial sum of A, of the level product, of
    a dot product and its float64 value exact."""
    n_candidates, n_features, dim = flips.shape
    n_classes = encoders.shape[1]
    top = int(np.abs(encoders).max(initial=0))
    if n_features * dim * top >= 2**53:
        raise DataError(f"encoder entries up to {top} are too large for exact scoring")
    columns = encoders.astype(np.float64)[:, :, None, :]  # exact: |E| < 2**53
    sums = np.empty((n_candidates, n_classes, n_features, n_levels))
    rows = np.arange(n_candidates * n_features).reshape(n_candidates, n_features, 1)
    bins = (flips - 1 + n_levels * rows).ravel()  # one bin per (candidate, feature, level)
    spread = np.empty(flips.shape)  # (P, N, D) a_k, one class at a time
    for k in range(n_classes):
        np.multiply(columns[:, k], bases, out=spread)
        level_sums = np.bincount(bins, weights=spread.ravel(), minlength=sums[:, k].size)
        sums[:, k] = level_sums.reshape(n_candidates, n_features, n_levels)
    signs = np.where(np.arange(n_levels)[:, None] >= np.arange(n_levels), 1.0, -1.0)
    return (sums.reshape(-1, n_levels) @ signs).reshape(sums.shape)


def _best_class(dots: list, sq_norms: list, classes) -> int:
    """The k among `classes` (0-based, ascending) with the largest
    dot_k / |e_k|, of integer dots and squared norms: compared exactly as
    sign(dot_k) * dot_k**2 / |e_k|**2, ties to the lowest k, and a zero
    encoder scores 0."""
    def score(k):
        return Fraction(dots[k] * abs(dots[k]), sq_norms[k]) if sq_norms[k] else Fraction(0)

    return max(classes, key=score)


def _row_incidence(levels: np.ndarray, n_levels: int) -> np.ndarray:
    """(N*M, S) float64 0/1 matrix of (S, N) rows of levels (values 1..M):
    [n*M + l-1, s] is 1 where row s has feature n at level l."""
    n_samples, n_features = levels.shape
    incidence = np.zeros((n_features * n_levels, n_samples))
    incidence[levels - 1 + n_levels * np.arange(n_features), np.arange(n_samples)[:, None]] = 1.0
    return incidence


def _winners(projection: np.ndarray, gram: np.ndarray, levels: np.ndarray,
             incidence: np.ndarray | None = None) -> np.ndarray:
    """(P, K, S) bool mask of the class each of the P candidates gives each
    of the (S, N) rows of levels (values 1..M): one True per (p, s), at the
    argmax of x_s . e_k / |e_k|, ties to the lowest k. The squared norms
    |e_k|**2 are the diagonal of the encoders' (P, K, K) `_gram` matrices.

    The level scores of a row are summed off the (P, K, N, M) `_projection`
    in place, exact under its bound: gathered, or, given the rows'
    `_row_incidence`, in one matrix product whose every partial sum is a
    sum of some of a row's N level scores, so exact in any order. Integer
    dots are recomputed only for rows where several classes come within
    float rounding of the best, and those rows are settled exactly."""
    n_candidates, n_classes, n_features, n_levels = projection.shape
    rows = projection.reshape(n_candidates, n_classes, -1)  # (P, K, N*M)
    if incidence is None:
        picks = levels.T - 1 + n_levels * np.arange(n_features)[:, None]  # (N, S)
        scores = np.take(rows, picks, axis=2).sum(axis=2)
    else:
        scores = (rows.reshape(n_candidates * n_classes, -1) @ incidence).reshape(
            n_candidates, n_classes, -1
        )
    sq_norms = np.diagonal(gram, axis1=1, axis2=2)
    norms = np.sqrt(sq_norms)
    norms[sq_norms == 0] = np.inf  # zero encoder: score 0
    scores /= norms[:, :, None]
    best = scores.max(axis=1)
    cut = np.abs(best)  # best - _NEAR_TIE * |best|, with one temporary
    cut *= -_NEAR_TIE
    cut += best
    won = scores >= cut[:, None]
    if np.count_nonzero(won) > best.size:  # a row has several near-best classes
        features = np.arange(n_features)
        for p, s in zip(*np.nonzero(won.sum(axis=1) > 1)):  # settle them exactly
            dots = projection[p][:, features, levels[s] - 1].sum(axis=1).astype(np.int64).tolist()
            k = _best_class(dots, sq_norms[p].tolist(), np.flatnonzero(won[p, :, s]).tolist())
            won[p, :, s] = False
            won[p, k, s] = True
    return won


def _check_budget_shape(shape: tuple, quantizer: Quantizer) -> None:
    """Raise ShapeError unless an (N, M-1) budget `shape` fits the N
    features and M levels of the dataset `quantizer` was calibrated on."""
    if tuple(shape) != (quantizer.features, quantizer.levels - 1):
        raise ShapeError(f"budget shape {tuple(shape)} does not match "
                         f"dataset N={quantizer.features}, M={quantizer.levels}")


@dataclass(frozen=True, eq=False)
class TrainedModel(_Value):
    """The serializable artifact: quantizer + level table + class encoders,
    valid by construction. It owns the rules that tie its parts together:
    the quantizer and the table agree on N and M, K >= 2 encoders have the
    table's D, the labels are K distinct strings, the feature names N
    strings or none, and the class counts K non-negative ints."""

    quantizer: Quantizer
    table: LevelTable
    encoders: np.ndarray  # (K, D) int64
    labels: list  # class names, index k-1 -> class k
    feature_names: list
    class_counts: tuple  # training samples of class k at index k-1

    def __post_init__(self):
        _check_budget_shape(self.table.budgets.budgets.shape, self.quantizer)
        e = _frozen(self.encoders, np.int64)
        if e.ndim != 2 or e.shape[1] != self.table.dim:
            raise ShapeError(f"encoders must be (K, {self.table.dim}), got {e.shape}")
        n_classes = e.shape[0]
        if n_classes < 2:
            raise DataError("need at least 2 classes")
        if not (_strings(self.labels) and len(set(self.labels)) == len(self.labels) == n_classes):
            raise DataError(f"label list does not name {n_classes} classes")
        n_features = self.table.features
        if not (_strings(self.feature_names) and len(self.feature_names) in (0, n_features)):
            raise DataError(f"feature name list does not name {n_features} features")
        counts = np.asarray(self.class_counts)
        if counts.shape != (n_classes,) or counts.dtype.kind not in "iu" or np.any(counts < 0):
            raise DataError(f"need {n_classes} non-negative integer class counts")
        object.__setattr__(self, "encoders", e)
        object.__setattr__(self, "class_counts", tuple(counts.tolist()))

    @property
    def n_classes(self) -> int:
        return self.encoders.shape[0]

    @cached_property
    def _scoring(self) -> tuple[np.ndarray, np.ndarray]:
        """The (1, K, N, M) float64 level projection and (1, K, K) int64
        encoder Gram matrix `_winners` takes, for this model as a population
        of one; `classify` and the CLI's avgSim read them too."""
        table = self.table
        encoders = self.encoders[None]
        projection = _projection(table.bases, table.flips[None], encoders, table.levels)
        return projection, _gram(encoders)


@dataclass(frozen=True, eq=False)
class Prediction(_Value):
    label: int  # class index in 1..K
    similarities: np.ndarray  # (K,) float64

    def __post_init__(self):
        object.__setattr__(self, "similarities", _frozen(self.similarities, np.float64))


def _gram(vectors) -> np.ndarray:
    """(..., K, K) int64 Gram matrix of the rows of a (..., K, D) stack of
    integer-valued vectors, exact under the checked bound
    D*max|v|**2 < 2**63. A non-integer dtype is scanned first: a value that
    is not finite or not a whole number raises, where a cast would
    truncate it."""
    vectors = _integer_valued(vectors, "cosines need finite, integer-valued vectors")
    top = int(np.abs(vectors).max(initial=0))
    if vectors.shape[-1] * top * top >= 2**63:
        raise DataError(f"vector entries up to {top} are too large for exact cosines")
    vectors = vectors.astype(np.int64, copy=False)
    return np.einsum("...kd,...ld->...kl", vectors, vectors)


def _cosines(gram: np.ndarray) -> np.ndarray:
    """(..., K, K) cosines G_kl / (sqrt(G_kk)*sqrt(G_ll)) of a stack of
    Gram matrices, correctly rounded operations in a fixed order; a zero
    row has similarity 0 to every row."""
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    norms[norms == 0.0] = np.inf  # zero-norm convention: similarity 0
    return gram / (norms[..., :, None] * norms[..., None, :])


def pairwise_similarities(vectors) -> np.ndarray:
    """(..., K, K) cosine similarities between the rows of a (..., K, D)
    stack of integer-valued vectors, such as class encoders; a zero row has
    similarity 0 to every row.

    The cosines come from the exact int64 Gram matrix (`_gram`), so they
    depend neither on the summation order nor on the BLAS; fractions, NaN
    and infinity raise DataError."""
    return _cosines(_gram(vectors))


def predict_batch(features: np.ndarray, model: TrainedModel) -> np.ndarray:
    """Labels (1..K) for an (S, N) feature matrix."""
    levels = model.quantizer.quantize_matrix(np.asarray(features, dtype=np.float64))
    won = _winners(*model._scoring, levels)[0]  # (K, S), one True a row
    # Each row's one True picks its k from 1..K in a product, not a strided argmax.
    return np.arange(1, len(won) + 1) @ won


def classify(query, model: TrainedModel) -> Prediction:
    """The most similar class of one query, with its cosine similarity to
    every encoder; the label is the one `predict_batch` gives."""
    levels = model.quantizer.quantize_matrix(np.asarray(query, dtype=np.float64)[None])[0]
    projection, gram = model._scoring
    # The exact Gram of the stack (x, e_1..e_K): x . x from the encoded
    # query, each x . e_k the sum of the query's N level scores in the
    # float64 projection (an exact integer under its bound), and the
    # encoders' own Gram as scoring keeps it.
    dots = projection[0][:, np.arange(len(levels)), levels - 1].sum(axis=1).astype(np.int64)
    full = np.empty((len(dots) + 1,) * 2, dtype=np.int64)
    full[0, 0] = _gram(encode_quantized(levels[None], model.table))[0, 0]
    full[0, 1:] = full[1:, 0] = dots
    full[1:, 1:] = gram[0]
    sims = _cosines(full)[0, 1:]
    label = _best_class(dots.tolist(), np.diagonal(gram[0]).tolist(), range(len(dots))) + 1
    return Prediction(label=label, similarities=sims)


def train_model(
    train: Dataset,
    quantizer: Quantizer,
    budget: FlipBudget,
    seed,
) -> TrainedModel:
    """Full single-pass training: budget -> level table -> encoders."""
    _check_budget_shape(budget.budgets.shape, quantizer)
    table = build_level_table(seed, budget)
    counts = np.bincount(train.labels, minlength=train.n_classes + 1)[1:]
    if not np.all(counts):
        empty = (np.flatnonzero(counts == 0) + 1).tolist()
        warnings.warn(f"classes {empty} have no training samples; zero encoders")
    levels = quantizer.quantize_matrix(train.features)
    weights = _encoder_weights(
        _level_histogram(levels, train.labels, train.n_classes, table.levels), table.levels
    )
    encoders = _class_encoders(table.bases, table.flips[None], weights)
    encoders.flags.writeable = False  # fresh: the model keeps its row, uncopied
    return TrainedModel(
        quantizer=quantizer,
        table=table,
        encoders=encoders[0],
        labels=list(train.label_names),
        feature_names=list(train.feature_names or []),
        class_counts=counts,
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
    _check_dim(dim)
    _check_count("trials", trials, 1)
    seed = _check_seed(seed)
    if mode not in ("chained", "orthogonal"):
        raise ValueError(f"mode must be 'chained' or 'orthogonal', got {mode!r}")
    n_levels = 10
    correct = 0
    for t in range(trials):
        if mode == "chained":
            rng_seed = np.random.default_rng([seed, t]).integers(0, 2**32)
            budget = uniform_flip_budget(dim, n_levels, features=1)
            table = build_level_table(int(rng_seed), budget)
            level_signs = np.stack(
                [level_vector(table, 0, m) for m in range(1, n_levels + 1)]
            ).astype(np.int64)
        else:
            rng = np.random.default_rng([seed, t])
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
