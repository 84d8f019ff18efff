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
signs, without the (N, M, D) signs of every level. In permutation order a
budget's flip levels are runs of equal levels, so the schedule keeps each
permutation as its inverse, the slot of every index in that order, and the
flip levels of any budget are one gather through the slots.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ConstraintError, DataError, DimensionError, ShapeError


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


def _whole_number(value) -> bool:
    """Whether a setting is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_levels(levels) -> None:
    """ConfigError unless a quantization level count M is an integer >= 2."""
    if not _whole_number(levels):
        raise ConfigError(f"levels must be an integer, got {levels!r}")
    if levels < 2:
        raise ConfigError(f"need at least 2 quantization levels, got {levels}")


def _frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`: a read-only array of that
    dtype as it is, anything else as a read-only copy, so no caller's array
    is frozen or left writable under a value type."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


class _Value:
    """Base of the frozen dataclasses that hold arrays: equal to a value of
    the same type whose every field is equal, arrays by `np.array_equal`
    and anything else by `==`; unhashable, as its arrays are."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    __hash__ = None


def _budget_array(values, dim) -> np.ndarray:
    """(..., N, M-1) budgets as int64, by the one rule for flip budgets:
    DimensionError unless `dim` is an even integer >= 2, DataError unless
    every entry is a whole number in 0..2**63-1. An array cast here is
    fresh, so it is made read-only, for `_frozen` to keep uncopied."""
    if not _whole_number(dim) or dim < 2 or dim % 2 != 0:
        raise DimensionError(f"dimension must be even and >= 2, got {dim}")
    given = np.asarray(values)
    budgets = _integer_valued(given, "flip budgets must be whole numbers")
    if budgets.min(initial=0) < 0:
        raise DataError("flip budgets must be non-negative")
    if int(budgets.max(initial=0)) >= 2**63:  # a whole float64 past int64
        raise DataError("flip budgets must be below 2**63")
    budgets = budgets.astype(np.int64, copy=False)
    if budgets is not given:
        budgets.flags.writeable = False
    return budgets


@dataclass(frozen=True, eq=False)
class FlipBudget(_Value):
    """Per-feature, per-transition bit-flip counts: the optimization variable.

    `budgets` has shape (N, M-1): one row per feature, one column per
    consecutive-level transition, held as int64 and checked by `_budget_array`.
    A row is feasible when its sum does not exceed dim/2.
    """

    budgets: np.ndarray
    dim: int

    def __post_init__(self):
        b = _budget_array(self.budgets, self.dim)
        if b.ndim != 2 or b.shape[1] < 1:
            raise ShapeError(f"budget matrix must be (N, M-1), got shape {b.shape}")
        object.__setattr__(self, "budgets", _frozen(b, np.int64))

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


def uniform_flip_budget(dim: int, levels: int, features: int = 1) -> FlipBudget:
    """The baseline budget: floor(D / (2(M-1))) flips at every transition.

    Leftover bits from the floor simply stay unflipped, so the result is
    feasible by construction. Below D = 2(M-1) the floor is zero: every
    level is the same vector, which warns.
    """
    _check_levels(levels)
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
    """(..., N, M-1) budgets with each row whose sum exceeds D/2 scaled by
    (D/2) / sum and floored: an int64 copy with only those rows rewritten,
    or `budgets` itself when no row exceeds D/2."""
    half = dim // 2
    sums = budgets.sum(axis=-1)
    bad = sums > half
    if not bad.any():
        return budgets
    repaired = budgets.astype(np.int64)
    repaired[bad] = np.floor(budgets[bad] * (half / sums[bad])[:, None])
    return repaired


def repair_budget(budget: FlipBudget) -> FlipBudget:
    """Scale down violating rows so every row sum fits in D/2. Idempotent."""
    if budget.feasible:
        return budget
    return FlipBudget(budgets=_repair(budget.budgets, budget.dim), dim=budget.dim)


@functools.lru_cache(maxsize=1)
def _schedule(base_seed, features: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The flip schedule of every feature: (N, D) int8 base signs and (N, D)
    int64 slots, both read-only. Level m negates the first
    b_1 + ... + b_{m-1} indices of its feature's flip permutation, and
    slots[n, d] = n*D + the position of index d in feature n's permutation:
    each row is its permutation's inverse, offset into a flat (N*D,) layout.

    Feature n draws from `default_rng([base_seed, n])`, never from the
    budget, so every candidate budget shares its schedule: first the base
    bits, as `integers(0, 2, size=D)` would give them, then
    `permutation(D)`. The base bits are read off D/2 raw words instead: the
    top bit of each 32-bit half, low half first. That is exactly what
    `integers` returns, because numpy draws a bound of 2 from 32-bit halves
    by Lemire's method, whose value is x >> 31 and whose rejection threshold
    (2**32 - 2) % 2 is 0, so no half is ever redrawn; and since D is even,
    no half is left over for the permutation to consume. Each feature's
    base signs and slots are written as they are drawn, so the draw holds
    no (N, D) words or permutations besides the result.

    The last schedule drawn, N*D*9 bytes (1 MB at N=57, D=2048), is kept:
    a call with the same (int(base_seed), N, D) returns the same arrays,
    and a new key replaces it. At N=57, D=2048 a draw takes about 2.7 ms
    and a warm `load_model` 0.9 ms (2 vCPU, numpy 2.4.6)."""
    bases = np.empty((features, dim), dtype=np.int8)
    slots = np.empty((features, dim), dtype=np.int64)
    for n in range(features):
        rng = np.random.default_rng([base_seed, n])
        words = rng.bit_generator.random_raw(dim // 2).view("<u4")
        np.right_shift(words, 31, out=bases[n], casting="unsafe")
        slots[n][rng.permutation(dim)] = np.arange(n * dim, (n + 1) * dim)
    bases += bases
    bases -= 1
    bases.flags.writeable = slots.flags.writeable = False
    return bases, slots


def _flip_levels(slots: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """(..., N, D) flip level of every index, in the smallest unsigned dtype
    that holds M: the last level (1..M) at which it keeps its base sign, for
    the (N, D) slots of a schedule and (..., N, M-1) feasible budgets (one
    budget, or a leading axis of candidates).

    In permutation order a feature's flip levels are runs: level 1 over the
    first b_1 positions, level m over the next b_m, and level M over the
    D - (b_1 + ... + b_{M-1}) positions past the row sum. One `np.repeat`
    of levels 1..M by those run lengths lays out every candidate's features
    in permutation order, one flat (N*D,) row per candidate, and one gather
    through the slots reads each index's level off its position there."""
    dim = slots.shape[1]
    n_levels = budgets.shape[-1] + 1
    dtype = np.min_scalar_type(n_levels)
    rows = budgets.reshape(-1, n_levels - 1)  # M-1 >= 1, so even N = 0 reshapes
    runs = np.concatenate((rows, dim - rows.sum(1, keepdims=True)), axis=1)
    # Levels 1..M once per row, repeated in the flip-level dtype, so neither
    # the layout nor the gather casts a value.
    levels = np.arange(1, n_levels + 1, dtype=dtype)[None].repeat(len(rows), 0)
    # The flip levels are allocated first, so the layout and the copy `take`
    # makes of the read-only slots (0.93 MB at N=57, D=2048) are freed from
    # the top of the heap: allocated after them, the flip levels kept about
    # 0.5 MB more of a wide load resident. Fancy indexing copies no index,
    # but took 0.31 against 0.16 ms there for one candidate. `mode="clip"`
    # skips the bounds check, which every slot passes, and with it the
    # buffered copy into `out` that mode="raise" makes.
    flips = np.empty(budgets.shape[:-1] + (dim,), dtype=dtype)
    layout = levels.repeat(runs.ravel()).reshape(math.prod(budgets.shape[:-2]), slots.size)
    np.take(layout, slots, axis=-1, out=flips.reshape(len(layout), *slots.shape), mode="clip")
    return flips


@dataclass(frozen=True, eq=False)
class LevelTable(_Value):
    """All N x M level hypervectors of a flip budget, held as what fixes
    them: level m of feature n is its base sign at the indices whose flip
    level is at least m, and the opposite sign at the rest. It owns the seed
    its schedule was drawn from, so a model's seed cannot contradict it."""

    bases: np.ndarray  # (N, D) int8 base signs: level 1 of every feature
    flips: np.ndarray  # (N, D) flip levels 1..M, dtype np.min_scalar_type(M)
    budgets: FlipBudget
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "bases", _frozen(self.bases, np.int8))
        object.__setattr__(self, "flips", _frozen(self.flips, np.min_scalar_type(self.levels)))

    @property
    def dim(self) -> int:
        return self.budgets.dim

    @property
    def features(self) -> int:
        return self.budgets.features

    @property
    def levels(self) -> int:
        return self.budgets.levels


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
    bases, slots = _schedule(int(base_seed), budget.features, budget.dim)
    flips = _flip_levels(slots, budget.budgets)
    flips.flags.writeable = False  # fresh: the table keeps it, uncopied
    return LevelTable(bases=bases, flips=flips, budgets=budget, seed=int(base_seed))


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


def encode_quantized(levels, table: LevelTable) -> np.ndarray:
    """Bundle pre-quantized samples: the (S, D) int64 sums of the level
    hypervectors each (S, N) row of levels (whole numbers 1..M) picks. A
    level that is not a whole number raises DataError, another shape
    ShapeError, and a level outside 1..M IndexError."""
    levels = _integer_valued(levels, "levels must be whole numbers")
    if levels.ndim != 2 or levels.shape[1] != table.features:
        raise ShapeError(f"levels must be (S, {table.features}), got shape {levels.shape}")
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
