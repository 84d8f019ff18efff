"""Bipolar hypervectors, flip budgets, and level-hypervector tables.

Hypervectors are D-dimensional sign vectors (entries in {-1, +1}), held as
int8; a dot product is taken after a cast to int64 (an int8 product
overflows from D = 128).

Level hypervectors for one feature are derived from a single random base
vector plus a flip schedule: one fixed random permutation of the indices,
with each level negating a prefix of that permutation. A bit flipped for
level m therefore stays flipped for every level above m, which gives exact
Hamming control between any two levels of the same feature. So each index
has a flip level: the last level at which it keeps its base sign. A level
table is just that: the (N, D) base signs and flip levels, from which the
model's kernel scores it and `level_vector` and `encode_quantized` read
signs, without the (N, M, D) signs of every level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConstraintError, DimensionError, ShapeError


@dataclass(frozen=True)
class FlipBudget:
    """Per-feature, per-transition bit-flip counts: the optimization variable.

    `budgets` has shape (N, M-1): one row per feature, one column per
    consecutive-level transition. A row is feasible when its sum does not
    exceed dim/2.
    """

    budgets: np.ndarray
    dim: int

    def __post_init__(self):
        b = np.asarray(self.budgets, dtype=np.int64)
        if b.ndim != 2 or b.shape[1] < 1:
            raise ShapeError(f"budget matrix must be (N, M-1), got shape {b.shape}")
        if self.dim < 2 or self.dim % 2 != 0:
            raise DimensionError(f"dimension must be even and >= 2, got {self.dim}")
        if np.any(b < 0):
            raise ValueError("flip budgets must be non-negative")
        b.flags.writeable = False
        object.__setattr__(self, "budgets", b)

    @property
    def features(self) -> int:
        return self.budgets.shape[0]

    @property
    def levels(self) -> int:
        return self.budgets.shape[1] + 1

    @property
    def row_sums(self) -> np.ndarray:
        return self.budgets.sum(axis=1)

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.row_sums <= self.dim // 2))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FlipBudget)
            and self.dim == other.dim
            and np.array_equal(self.budgets, other.budgets)
        )

    __hash__ = None


def uniform_flip_budget(dim: int, levels: int, features: int = 1) -> FlipBudget:
    """The baseline budget: floor(D / (2(M-1))) flips at every transition.

    Leftover bits from the floor simply stay unflipped, so the result is
    feasible by construction. Below D = 2(M-1) the floor is zero: every
    level is the same vector, which warns.
    """
    if levels < 2:
        raise ConfigError(f"need at least 2 quantization levels, got {levels}")
    per_transition = dim // (2 * (levels - 1))
    budget = FlipBudget(budgets=np.full((features, levels - 1), per_transition), dim=dim)
    if per_transition == 0:
        warnings.warn(
            f"D={dim} is below 2(M-1)={2 * (levels - 1)}: the uniform budget flips no "
            f"bits, so all {levels} levels are the same hypervector",
            stacklevel=2,
        )
    return budget


def _repair(budgets: np.ndarray, dim: int) -> np.ndarray:
    """Rows of (..., N, M-1) budgets whose sum exceeds D/2, each entry
    scaled by (D/2) / sum and floored; the other rows unchanged."""
    half = dim // 2
    sums = budgets.sum(axis=-1, keepdims=True)
    bad = sums > half
    if not bad.any():
        return budgets
    scale = np.where(bad, half, 1) / np.where(bad, sums, 1)
    return np.where(bad, np.floor(budgets * scale).astype(np.int64), budgets)


def repair_budget(budget: FlipBudget) -> FlipBudget:
    """Scale down violating rows so every row sum fits in D/2. Idempotent."""
    if budget.feasible:
        return budget
    return FlipBudget(budgets=_repair(budget.budgets, budget.dim), dim=budget.dim)


def _schedule(base_seed, features: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The flip schedule of every feature: (N, D) int8 base signs and (N, D)
    flip permutations of range(D). Level m negates the first
    b_1 + ... + b_{m-1} indices of its feature's permutation.

    Feature n draws from `default_rng([base_seed, n])`, never from the
    budget, so every candidate budget shares its schedule: first the base
    bits, as `integers(0, 2, size=D)` would give them, then
    `permutation(D)`. The base bits are read off D/2 raw words instead: the
    top bit of each 32-bit half, low half first. That is exactly what
    `integers` returns, because numpy draws a bound of 2 from 32-bit halves
    by Lemire's method, whose value is x >> 31 and whose rejection threshold
    (2**32 - 2) % 2 is 0, so no half is ever redrawn; and since D is even,
    no half is left over for the permutation to consume."""
    bases = np.empty((features, dim), dtype=np.int8)
    perms = np.empty((features, dim), dtype=np.int64)
    words = np.empty((features, dim // 2), dtype="<u8")
    base_seed = int(base_seed)
    for n in range(features):
        rng = np.random.default_rng([base_seed, n])
        words[n] = rng.bit_generator.random_raw(dim // 2)
        perms[n] = rng.permutation(dim)
    np.right_shift(words.view("<u4"), 31, out=bases, casting="unsafe")
    bases += bases
    bases -= 1
    return bases, perms


def _flip_levels(perms: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """(..., N, D) flip level of every index, in the smallest unsigned dtype
    that holds M: the last level (1..M) at which it keeps its base sign, for
    (N, D) flip permutations and (..., N, M-1) feasible budgets (one budget,
    or a leading axis of candidates).

    In permutation order a feature's flip levels are runs: level 1 over the
    first b_1 positions, level m over the next b_m, and level M over the
    D - (b_1 + ... + b_{M-1}) positions past the row sum. One `np.repeat`
    of levels 1..M by those run lengths lays out every row in permutation
    order, and one scatter through the flat index n*D + perms[n] puts each
    row's levels at its feature's indices."""
    n_features, dim = perms.shape
    n_levels = budgets.shape[-1] + 1
    dtype = np.min_scalar_type(n_levels)
    rows = budgets.reshape(-1, n_levels - 1)  # M-1 >= 1, so even N = 0 reshapes
    runs = np.concatenate((rows, dim - rows.sum(1, keepdims=True)), axis=1)
    # Levels 1..M once per row, repeated in the flip-level dtype: the same
    # layout from int64 levels took 1.35 against 0.45 ms at N=57, D=2048,
    # casting every value on its way through the index.
    levels = np.arange(1, n_levels + 1, dtype=dtype)[None].repeat(len(rows), 0)
    flips = np.empty(budgets.shape[:-1] + (dim,), dtype=dtype)
    index = (perms + np.arange(0, n_features * dim, dim)[:, None]).ravel()
    flat = flips.reshape(math.prod(budgets.shape[:-2]), n_features * dim)
    flat[:, index] = levels.repeat(runs.ravel()).reshape(flat.shape)
    return flips


@dataclass(frozen=True)
class LevelTable:
    """All N x M level hypervectors of a flip budget, held as what fixes
    them: level m of feature n is its base sign at the indices whose flip
    level is at least m, and the opposite sign at the rest."""

    bases: np.ndarray  # (N, D) int8 base signs: level 1 of every feature
    flips: np.ndarray  # (N, D) flip levels 1..M, dtype np.min_scalar_type(M)
    budgets: FlipBudget

    def __post_init__(self):
        self.bases.flags.writeable = False
        self.flips.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.budgets.dim

    @property
    def features(self) -> int:
        return self.budgets.features

    @property
    def levels(self) -> int:
        return self.budgets.levels

    def __eq__(self, other) -> bool:
        # The flip levels fix the budget: b_m indices have flip level m.
        return (
            isinstance(other, LevelTable)
            and self.levels == other.levels
            and np.array_equal(self.bases, other.bases)
            and np.array_equal(self.flips, other.flips)
        )

    __hash__ = None


def _check_feasible(budgets: np.ndarray, dim: int) -> None:
    """Raise ConstraintError when a row of (..., N, M-1) budgets sums past
    D/2, naming the row sums of the first budget that holds one."""
    sums = budgets.sum(axis=-1).reshape(math.prod(budgets.shape[:-2]), budgets.shape[-2])
    over = (sums > dim // 2).any(axis=1)
    if over.any():
        raise ConstraintError(
            f"budget row sums {sums[over.argmax()].tolist()} exceed D/2 = {dim // 2}"
        )


def build_level_table(base_seed, budget: FlipBudget) -> LevelTable:
    """The level table a flip budget gives from the schedule of `base_seed`;
    a budget with a row over D/2 raises ConstraintError."""
    _check_feasible(budget.budgets, budget.dim)
    bases, perms = _schedule(base_seed, budget.features, budget.dim)
    return LevelTable(bases=bases, flips=_flip_levels(perms, budget.budgets), budgets=budget)


def _signs(bases: np.ndarray, flips: np.ndarray, levels) -> np.ndarray:
    """int8 signs at `levels` (1..M) of base signs and flip levels, all
    broadcast together: the base sign up to the flip level, the opposite
    sign above it."""
    signs = (flips < levels).view(np.int8)  # 1 above the flip level
    signs *= -2  # 0b11111110: x ^ -2 == -x for x in {-1, +1}
    signs ^= bases
    return signs


def level_vector(table: LevelTable, feature: int, level: int) -> np.ndarray:
    """One level hypervector as a read-only (D,) int8 sign row; `feature` is
    0-based, `level` is 1..M."""
    if not 0 <= feature < table.features:
        raise IndexError(f"feature index {feature} out of range [0, {table.features})")
    if not 1 <= level <= table.levels:
        raise IndexError(f"level {level} out of range [1, {table.levels}]")
    row = _signs(table.bases[feature], table.flips[feature], level)
    row.flags.writeable = False
    return row


def encode_quantized(levels: np.ndarray, table: LevelTable) -> np.ndarray:
    """Bundle pre-quantized samples: the (S, D) int64 sums of the level
    hypervectors each (S, N) row of levels (values 1..M) picks."""
    if levels.min(initial=1) < 1 or levels.max(initial=1) > table.levels:
        raise IndexError(f"levels out of range [1, {table.levels}]")
    # Compared in the flip levels' own dtype, which holds 1..M: against int64
    # levels numpy would cast every flip level first, several times slower.
    picked = _signs(table.bases, table.flips, levels.astype(table.flips.dtype)[:, :, None])
    # A sum of at most 127 signs fits in int8, and an int8 sum over features
    # is several times as fast as one that casts every sign to int32.
    out = np.zeros((len(levels), table.dim), dtype=np.int64)
    for first in range(0, table.features, 127):
        out += picked[:, first : first + 127].sum(axis=1, dtype=np.int8)
    return out
