"""Bipolar hypervectors, flip budgets, and level-hypervector tables.

Hypervectors are D-dimensional sign vectors (entries in {-1, +1}). The
canonical storage is bit-packed (one bit per entry, bit set == +1); all
arithmetic is defined on the unpacked int8 sign values, so a dot product
is taken after a cast to int64 (an int8 product overflows from D = 128).

Level hypervectors for one feature are derived from a single random base
vector plus a flip schedule: one fixed random permutation of the indices,
with each level negating a prefix of that permutation. A bit flipped for
level m therefore stays flipped for every level above m, which gives exact
Hamming control between any two levels of the same feature. So each index
has a flip level: the last level at which it keeps its base sign. A table
exposes its (N, D) base signs and flip levels, from which the model's
kernel scores it without the (N, M, D) signs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ConstraintError, DimensionError, ShapeError


def unpack_signs(packed: np.ndarray, dim: int) -> np.ndarray:
    """Unpack uint8 bits back to int8 signs (+1/-1) along the last axis."""
    signs = np.unpackbits(packed, axis=-1, count=dim).view(np.int8)
    signs += signs  # in place: an int8 shift costs several times as much
    signs -= 1
    return signs


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
        if np.any(b < 0):
            raise ValueError("flip budgets must be non-negative")
        if self.dim < 2 or self.dim % 2 != 0:
            raise DimensionError(f"dimension must be even and >= 2, got {self.dim}")
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
    if dim < 2 or dim % 2 != 0:
        raise DimensionError(f"dimension must be even and >= 2, got {dim}")
    per_transition = dim // (2 * (levels - 1))
    if per_transition == 0:
        warnings.warn(
            f"D={dim} is below 2(M-1)={2 * (levels - 1)}: the uniform budget flips no "
            f"bits, so all {levels} levels are the same hypervector",
            stacklevel=2,
        )
    budgets = np.full((features, levels - 1), per_transition, dtype=np.int64)
    return FlipBudget(budgets=budgets, dim=dim)


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


def _feature_rng(base_seed, feature: int) -> np.random.Generator:
    # Base vector and permutation depend only on (base_seed, feature),
    # never on the budget, so every candidate budget shares them.
    return np.random.default_rng([int(base_seed), int(feature)])


def _draws(base_seed, features: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of every feature from `_feature_rng`, in draw order:
    (N, D) uint8 base bits (1 is +1) and (N, D) flip permutations of range(D)."""
    bits = np.empty((features, dim), dtype=np.uint8)
    perms = np.empty((features, dim), dtype=np.int64)
    for n in range(features):
        rng = _feature_rng(base_seed, n)
        bits[n] = rng.integers(0, 2, size=dim)
        perms[n] = rng.permutation(dim)
    return bits, perms


def _schedule(base_seed, features: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The flip schedule of every feature: (N, D) int8 base signs and the
    (N, D) rank of each index in that feature's flip permutation. Level m
    negates the indices whose rank is below its prefix sum."""
    bits, perms = _draws(base_seed, features, dim)
    bases = bits.view(np.int8)
    bases += bases
    bases -= 1
    ranks = np.empty_like(perms)
    ranks[np.arange(features)[:, None], perms] = np.arange(dim)
    return bases, ranks


def _prefix_flips(budgets: np.ndarray) -> np.ndarray:
    """(..., N, M) flips applied up to each level of (..., N, M-1) budgets;
    the first column is zero."""
    prefix = np.zeros(budgets.shape[:-1] + (budgets.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(budgets, axis=-1, out=prefix[..., 1:])
    return prefix


def _flip_levels(ranks: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """(..., N, D) int64 flip level of every index: the last level (1..M) at
    which it keeps its base sign, for (N, D) ranks and the (..., N, M)
    prefix sums of feasible budgets (one budget, or a leading axis of
    candidates).

    Level m keeps index d when its prefix sum is at most rank(d), and the
    prefix sums only grow, so the flip level is the number of prefix sums at
    or below rank(d): per row, a count of the prefix sums (all below D) at
    each value, accumulated and read at the ranks."""
    dim = ranks.shape[1]
    offsets = dim * np.arange(prefix[..., 0].size).reshape(prefix.shape[:-1] + (1,))
    at_or_below = np.bincount((prefix + offsets).ravel(), minlength=offsets.size * dim)
    np.cumsum(at_or_below.reshape(-1, dim), axis=1, out=at_or_below.reshape(-1, dim))
    return np.take(at_or_below, ranks + offsets)


@dataclass(frozen=True)
class LevelTable:
    """All N x M level hypervectors, bit-packed, and the flip budget they
    were built from."""

    packed: np.ndarray  # (N, M, ceil(D/8)) uint8
    dim: int
    budgets: FlipBudget

    def __post_init__(self):
        self.packed.flags.writeable = False

    @property
    def features(self) -> int:
        return self.packed.shape[0]

    @property
    def levels(self) -> int:
        return self.packed.shape[1]

    @cached_property
    def signs(self) -> np.ndarray:
        """(N, M, D) int8 sign values of every level hypervector."""
        out = unpack_signs(self.packed, self.dim)
        out.flags.writeable = False
        return out

    @cached_property
    def bases(self) -> np.ndarray:
        """(N, D) int8 base signs: level 1 of every feature."""
        out = unpack_signs(self.packed[:, 0], self.dim)
        out.flags.writeable = False
        return out

    @cached_property
    def flips(self) -> np.ndarray:
        """(N, D) flip level of every index, in the smallest unsigned dtype
        that holds M: M less the number of levels where it differs from its
        base sign. With nested flip sets, as in every table
        `build_level_table` builds, that is the last level (1..M) at which
        it keeps its base sign."""
        differ = self.packed ^ self.packed[:, :1]
        out = np.full((self.features, self.dim), self.levels, dtype=np.min_scalar_type(self.levels))
        for level in range(1, self.levels):  # one level at a time: no (N, M, D) temporary
            out -= np.unpackbits(differ[:, level], axis=-1, count=self.dim)
        out.flags.writeable = False
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelTable)
            and self.dim == other.dim
            and np.array_equal(self.packed, other.packed)
        )

    __hash__ = None


def build_level_table(base_seed, budget: FlipBudget) -> LevelTable:
    """Materialize every level hypervector implied by a flip budget."""
    if not budget.feasible:
        raise ConstraintError(
            f"budget row sums {budget.row_sums.tolist()} exceed D/2 = {budget.dim // 2}"
        )
    bases, ranks = _schedule(base_seed, budget.features, budget.dim)
    flips = _flip_levels(ranks, _prefix_flips(budget.budgets))
    # Bit set == +1: a positive base, except at the levels above the flip level.
    above = np.arange(1, budget.levels + 1)[:, None] > flips[:, None]
    return LevelTable(
        packed=np.packbits((bases[:, None] > 0) != above, axis=-1),
        dim=budget.dim,
        budgets=budget,
    )


def level_table_matches(base_seed, table: LevelTable) -> bool:
    """Whether `table` holds exactly the levels that
    `build_level_table(base_seed, table.budgets)` packs, checked without
    building that table.

    Let F_m be the bits where level m differs from level 1. The levels are
    that table exactly when level 1 is the drawn base, the flip sets are
    nested (F_m within F_m+1), and every index has the flip level its
    position in the flip permutation implies. Nesting makes the levels an
    index differs at a run of top levels, so its flip level fixes its column.
    """
    budget, packed = table.budgets, table.packed
    n_feat, n_lvl, dim = budget.features, budget.levels, budget.dim
    if not budget.feasible or packed.shape != (n_feat, n_lvl, -(-dim // 8)):
        return False
    bits, perms = _draws(base_seed, n_feat, dim)
    if not np.array_equal(packed[:, 0], np.packbits(bits, axis=-1)):
        return False
    differ = packed ^ packed[:, :1]
    if np.any(differ[:, :-1] & ~differ[:, 1:]):
        return False
    if dim % 8 and np.any(differ[..., -1] & (0xFF >> dim % 8)):  # padding bits
        return False
    # Position j of a permutation keeps its base sign up to the number of
    # prefix sums at or below j: level 1 over the first transition's budget,
    # one more level over each later one, all M past the row sum.
    runs = np.column_stack([budget.budgets, dim - budget.row_sums])
    implied = np.repeat(1 + np.arange(n_feat * n_lvl) % n_lvl, runs.ravel())
    by_position = np.take(table.flips, perms + dim * np.arange(n_feat)[:, None])  # flat gather
    return np.array_equal(by_position, implied.reshape(n_feat, dim))


def level_vector(table: LevelTable, feature: int, level: int) -> np.ndarray:
    """One level hypervector as a read-only (D,) int8 sign row; `feature` is
    0-based, `level` is 1..M."""
    if not 0 <= feature < table.features:
        raise IndexError(f"feature index {feature} out of range [0, {table.features})")
    if not 1 <= level <= table.levels:
        raise IndexError(f"level {level} out of range [1, {table.levels}]")
    return table.signs[feature, level - 1]


def encode_quantized(levels: np.ndarray, table: LevelTable) -> np.ndarray:
    """Bundle pre-quantized samples: the (S, D) int64 sums of the level
    hypervectors each (S, N) row of levels (values 1..M) picks."""
    picked = table.signs[np.arange(table.features)[None, :], levels - 1]  # (S, N, D)
    # |sum| <= N, and N < 2**31 for any table that fits in memory; an int32
    # accumulator is about twice as fast as int64 for one row.
    return picked.sum(axis=1, dtype=np.int32).astype(np.int64)
