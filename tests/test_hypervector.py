import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvdesign
from hvdesign import (
    ConfigError,
    ConstraintError,
    DataError,
    DimensionError,
    FlipBudget,
    LevelTable,
    Quantizer,
    ShapeError,
    build_level_table,
    encode_quantized,
    level_vector,
    uniform_flip_budget,
)
from hvdesign.hypervector import _flip_levels, _repair, _schedule

from conftest import traced_peak


def dot(a, b):
    """Exact dot product of two int8 sign rows (an int8 product overflows)."""
    return int(a.astype(np.int64) @ b)


def hamming(a, b):
    return int(np.count_nonzero(a != b))


class TestUniformFlipBudget:
    def test_paper_worked_value(self):
        budget = uniform_flip_budget(1000, 10)
        assert np.all(budget.budgets == 55)

    def test_floor_rounding(self):
        budget = uniform_flip_budget(8192, 20)
        assert np.all(budget.budgets == 215)
        assert budget.row_sums[0] == 4085 <= 4096

    def test_two_levels(self):
        budget = uniform_flip_budget(64, 2)
        assert budget.budgets.shape == (1, 1)
        assert budget.budgets[0, 0] == 32

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            uniform_flip_budget(64, 1)

    def test_dimension_below_two_gaps_per_level_warns(self):
        with pytest.warns(UserWarning, match=r"D=8 is below 2\(M-1\)=38"):
            budget = uniform_flip_budget(8, 20)
        assert not budget.budgets.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(uniform_flip_budget(38, 20).budgets == 1)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            uniform_flip_budget(63, 4)

    @pytest.mark.parametrize("levels", [20.0, True])
    def test_levels_that_are_not_integers_rejected(self, levels):
        with pytest.raises(ConfigError, match="levels must be an integer"):
            uniform_flip_budget(64, levels)

    @pytest.mark.parametrize("features", [2.0, True, -1])
    def test_feature_counts_that_are_not_counts_rejected(self, features):
        with pytest.raises(ConfigError, match="^features must be"):
            uniform_flip_budget(64, 20, features=features)

    def test_wide_budget_is_held_once(self):
        # The fresh fill is handed to FlipBudget read-only, so it is kept,
        # not copied: 1.06x its int64 bytes measured (the feasibility
        # check's row sums), where a copy made it 2.0x.
        uniform_flip_budget(2048, 20, features=10_000)  # warm
        peak = traced_peak(lambda: uniform_flip_budget(2048, 20, features=10_000))
        assert peak <= 1.25 * 10_000 * 19 * 8

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_rejected_before_any_warning(self, dim):
        # FlipBudget checks the dimension, before the -1 fill of D=-2 could
        # reach its sign check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                uniform_flip_budget(dim, 20)


class TestFlipBudget:
    @pytest.mark.parametrize(
        "budgets, dim, error, match",
        [
            ([4, 4], 16, ShapeError, r"\(N, M-1\), got shape \(2,\)"),
            ([[4, -1]], 16, DataError, "non-negative"),
            ([[4, -1]], 15, DimensionError, "even and >= 2, got 15"),
            ([[0.5, 1.7, 2.9]], 16, DataError, "^flip budgets must be whole numbers$"),
            ([[1.0, np.nan, 2.0]], 16, DataError, "^flip budgets must be whole numbers$"),
            ([[1e30, 1.0]], 16, DataError, r"^flip budgets must be below 2\*\*63$"),
            ([[4, 4]], 64.0, DimensionError, r"^dimension must be even and >= 2, got 64\.0$"),
        ],
        ids=["one-d", "negative", "odd-dim-before-sign", "fraction", "nan", "past-int64",
             "float-dim"],
    )
    def test_invalid_rejected(self, budgets, dim, error, match):
        with pytest.raises(error, match=match):
            FlipBudget(budgets=np.array(budgets), dim=dim)

    def test_feasible_by_construction(self):
        # A row over D/2 makes no budget, so there is none to repair: the
        # package has no `repair_budget`, and `feasible` is a constant.
        with pytest.raises(ConstraintError, match=r"^budget row sums \[8, 9\] exceed D/2 = 8$"):
            FlipBudget(budgets=np.array([[4, 4], [5, 4]]), dim=16)
        assert FlipBudget.feasible is True
        assert not hasattr(hvdesign, "repair_budget")

    def test_whole_floats_become_int64(self):
        budget = FlipBudget(budgets=np.array([[2.0, 0.0, 5.0]]), dim=16)
        assert budget.budgets.dtype == np.int64 and budget.budgets.tolist() == [[2, 0, 5]]

    def test_read_only_int32_budgets_are_cast_once(self):
        # The (57, 19) block every wide load_model reads: one int64 cast,
        # kept as it is, and no second copy of it.
        block = np.arange(57 * 19, dtype=np.int32).reshape(57, 19) % 3
        block.flags.writeable = False
        FlipBudget(budgets=block, dim=2048)  # warm
        peak = traced_peak(lambda: FlipBudget(budgets=block, dim=2048))
        assert peak <= 1.25 * block.size * 8


class TestBuildLevelTable:
    def test_prefix_hamming_exact(self):
        budget = FlipBudget(budgets=np.array([[3, 0, 7, 2], [1, 1, 1, 1]]), dim=32)
        table = build_level_table(5, budget)
        for n in range(2):
            prefix = 0
            for m in range(1, 6):
                assert hamming(level_vector(table, n, 1), level_vector(table, n, m)) == prefix
                if m < 5:
                    prefix += budget.budgets[n, m - 1]

    @pytest.mark.parametrize("dim", [16, 64, 1024])
    def test_full_budget_exactly_orthogonal(self, dim):
        rng = np.random.default_rng(dim)
        for trial in range(20):
            row = rng.multinomial(dim // 2, np.ones(4) / 4)
            budget = FlipBudget(budgets=row[None, :], dim=dim)
            table = build_level_table(trial, budget)
            assert dot(level_vector(table, 0, 1), level_vector(table, 0, 5)) == 0

    def test_zero_budget_collapses_levels(self):
        budget = FlipBudget(budgets=np.zeros((1, 4), dtype=int), dim=16)
        table = build_level_table(0, budget)
        for m in range(2, 6):
            assert np.array_equal(level_vector(table, 0, m), level_vector(table, 0, 1))

    def test_zero_features_build(self):
        table = build_level_table(9, FlipBudget(budgets=np.zeros((0, 2), dtype=int), dim=16))
        assert table.bases.shape == table.flips.shape == (0, 16)

    def test_infeasible_rejected(self):
        # A budget is feasible by construction, so no table is ever built
        # from a row over D/2.
        with pytest.raises(ConstraintError, match=r"^budget row sums \[18\] exceed D/2 = 8$"):
            FlipBudget(budgets=np.array([[9, 9]]), dim=16)

    def test_uniform_budget_even_spacing(self):
        table = build_level_table(9, uniform_flip_budget(128, 9, features=3))
        for n in range(3):
            gaps = {
                hamming(level_vector(table, n, m), level_vector(table, n, m + 1))
                for m in range(1, 9)
            }
            assert gaps == {128 // 16}

    def test_shared_permutation_across_budgets(self):
        # The flip order depends only on the seed, never on budget values:
        # the bits flipped by a small prefix are a subset of those flipped
        # by any larger prefix under the same seed.
        small = build_level_table(4, FlipBudget(budgets=np.array([[3, 3]]), dim=32))
        large = build_level_table(4, FlipBudget(budgets=np.array([[10, 4]]), dim=32))
        base = level_vector(small, 0, 1)
        assert np.array_equal(base, level_vector(large, 0, 1))
        flipped_small = set(np.flatnonzero(base != level_vector(small, 0, 3)))
        flipped_large = set(np.flatnonzero(base != level_vector(large, 0, 3)))
        assert flipped_small <= flipped_large


    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 8, 64, 2048]),
        st.integers(1, 6),
        st.integers(2, 20),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_level_flip_loop(self, sign_oracle, seed, dim, n_feat, levels, data):
        # Sorted cut points in 0..D/2: a feasible row, any prefix shape.
        rows = [
            np.diff([0, *sorted(data.draw(st.lists(
                st.integers(0, dim // 2), min_size=levels - 1, max_size=levels - 1
            )))]).tolist()
            for _ in range(n_feat)
        ]
        budget = FlipBudget(budgets=np.array(rows), dim=dim)
        # Reference: per feature, a base vector and a permutation from
        # default_rng([seed, feature]); level m negates the permutation's
        # first (b_1 + ... + b_{m-1}) indices of the base vector.
        expected = np.empty((n_feat, levels, dim), dtype=np.int8)
        for n in range(n_feat):
            rng = np.random.default_rng([seed, n])
            base = (rng.integers(0, 2, size=dim).astype(np.int8) << 1) - 1
            perm = rng.permutation(dim)
            expected[n] = base
            flipped = 0
            for m in range(1, levels):
                flipped += rows[n][m - 1]
                expected[n, m, perm[:flipped]] *= -1
        table = build_level_table(seed, budget)
        signs = np.array([[level_vector(table, n, m) for m in range(1, levels + 1)]
                          for n in range(n_feat)])
        assert np.array_equal(signs, expected)
        assert np.array_equal(sign_oracle(seed, budget.budgets, dim), expected)
        # An index keeps its base sign from level 1 up to its flip level.
        assert np.array_equal(table.bases, expected[:, 0])
        assert table.flips.dtype == np.min_scalar_type(levels)
        assert table.flips.tolist() == (expected == expected[:, :1]).sum(axis=1).tolist()
        # No re-flips: level m is (b_1 + ... + b_{m-1}) bits away from level 1.
        distances = np.count_nonzero(signs != signs[:, :1], axis=2)
        assert distances.tolist() == [[0, *np.cumsum(r).tolist()] for r in rows]


def draw_permutations(seed, n_features: int, dim: int) -> np.ndarray:
    """(N, D) flip permutations of `seed`, from the draws alone: feature n
    draws its base bits, then `permutation(D)`, from default_rng([seed, n])."""
    perms = np.empty((n_features, dim), dtype=np.int64)
    for n in range(n_features):
        rng = np.random.default_rng([seed, n])
        rng.integers(0, 2, size=dim)
        perms[n] = rng.permutation(dim)
    return perms


def bincount_flip_levels(perms, budgets):
    """The reference layout of `_flip_levels`: position j of a row in
    permutation order has the number of prefix sums 0, b_1, b_1 + b_2, ...
    at or below j, from a `bincount` of the prefix sums and its running
    sum, scattered to the permutation's indices."""
    n_features, dim = perms.shape
    n_levels = budgets.shape[-1] + 1
    rows = budgets.reshape(-1, n_levels - 1)
    prefix = np.zeros((len(rows), n_levels), dtype=np.int64)
    np.cumsum(rows, axis=1, out=prefix[:, 1:])
    prefix += dim * np.arange(len(rows))[:, None]
    in_order = np.bincount(prefix.ravel(), minlength=len(rows) * dim).reshape(len(rows), dim)
    np.cumsum(in_order, axis=1, out=in_order)
    flips = np.empty(budgets.shape[:-1] + (dim,), dtype=np.min_scalar_type(n_levels))
    flips[..., np.arange(n_features)[:, None], perms] = in_order.reshape(flips.shape)
    return flips


class TestSeedRule:
    """One rule for a level table's seed: an integer in [0, 2**64), the
    range a model file stores."""

    @pytest.mark.parametrize("seed", [1.5, "3", True, None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            build_level_table(seed, uniform_flip_budget(16, 3))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ConfigError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            build_level_table(seed, uniform_flip_budget(16, 3))

    def test_numpy_seed_is_held_as_an_int(self):
        budget = uniform_flip_budget(16, 3)
        table = build_level_table(np.uint64(2**64 - 1), budget)
        assert type(table.seed) is int and table.seed == 2**64 - 1
        assert table == build_level_table(2**64 - 1, budget)

    def test_hand_built_table_checks_its_seed(self):
        table = build_level_table(0, uniform_flip_budget(16, 3))
        with pytest.raises(ConfigError, match=r"^seed must be in \[0, 2\*\*64\), got -3$"):
            LevelTable(bases=table.bases, flips=table.flips, budgets=table.budgets, seed=-3)


class TestLevelTableRules:
    """A level table refuses arrays that cannot be its budget's."""

    BUDGET = FlipBudget(budgets=np.zeros((2, 1), dtype=int), dim=8)  # N=2, M=2, D=8

    def table(self, bases, flips):
        return LevelTable(bases=bases, flips=flips, budgets=self.BUDGET, seed=0)

    @pytest.mark.parametrize("bases_shape, flips_shape, name", [
        ((3, 5), (2, 8), "bases"), ((2, 8), (2, 7), "flips"), ((16,), (2, 8), "bases"),
    ])
    def test_other_shape_rejected(self, bases_shape, flips_shape, name):
        with pytest.raises(ShapeError, match=rf"^{name} must be \(2, 8\), got shape"):
            self.table(np.ones(bases_shape, np.int8), np.ones(flips_shape, np.uint8))

    @pytest.mark.parametrize("base", [7, 0, -2, 0.5])
    def test_base_other_than_a_sign_rejected(self, base):
        # Checked as given: a float base is refused, not cast to int8.
        bases = np.ones((2, 8), dtype=np.asarray(base).dtype)
        bases[1, 3] = base
        with pytest.raises(DataError, match=r"^base signs must be -1 or \+1$"):
            self.table(bases, np.ones((2, 8), np.uint8))

    @pytest.mark.parametrize("flip", [0, 3, 9, 1.0])
    def test_flip_level_outside_levels_rejected(self, flip):
        flips = np.ones((2, 8), dtype=np.asarray(flip).dtype)
        flips[0, 0] = flip
        with pytest.raises(DataError, match=r"^flip levels must be integers in 1..2$"):
            self.table(np.ones((2, 8), np.int8), flips)

    def test_valid_table_constructs(self):
        bases = np.array([[1, -1] * 4, [-1] * 8], dtype=np.int8)
        flips = np.array([[1, 2] * 4, [2] * 8], dtype=np.uint8)
        table = self.table(bases, flips)
        assert table.bases.tolist() == bases.tolist() and table.flips.tolist() == flips.tolist()


class TestSchedule:
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("dim", [2, 64, 2048, 8192])
    def test_matches_integers_then_permutation(self, seed, dim):
        bases, slots = _schedule(seed, 3, dim)
        assert bases.dtype == np.int8 and slots.dtype == np.int64
        for n in range(3):
            rng = np.random.default_rng([seed, n])
            assert bases[n].tolist() == (2 * rng.integers(0, 2, size=dim) - 1).tolist()
            # The flat inverse: the index at position j of the permutation
            # has slot n*D + j.
            assert slots[n][rng.permutation(dim)].tolist() == list(range(n * dim, (n + 1) * dim))

    def test_repeated_call_returns_the_same_arrays(self):
        first = _schedule(3, 4, 64)
        again = _schedule(3, 4, 64)
        assert again[0] is first[0] and again[1] is first[1]

    def test_arrays_are_read_only(self):
        bases, slots = _schedule(3, 4, 64)
        for array in (bases, slots):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        # A table built on the memo shares its base signs and cannot write them.
        table = build_level_table(3, uniform_flip_budget(64, 5, features=4))
        assert table.bases is bases
        with pytest.raises(ValueError, match="read-only"):
            table.bases[0, 0] = 1

    @given(st.integers(0, 2**64 - 1), st.integers(0, 8), st.integers(1, 600).map(lambda h: 2 * h))
    @settings(max_examples=40, deadline=None)
    def test_cold_draw_equals_warm_one(self, seed, n_features, dim):
        _schedule.cache_clear()
        cold = _schedule(seed, n_features, dim)
        warm = _schedule(seed, n_features, dim)
        assert _schedule.cache_info().hits == 1
        _schedule.cache_clear()
        again = _schedule(seed, n_features, dim)
        assert again[0] is not cold[0]
        for a, b in zip(again, warm):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_numpy_integer_seeds_share_one_entry(self):
        budget = uniform_flip_budget(64, 5, features=2)
        _schedule.cache_clear()
        tables = [build_level_table(seed, budget) for seed in (5, np.int64(5), np.uint64(5))]
        assert _schedule.cache_info().misses == 1 and _schedule.cache_info().hits == 2
        assert all(t.bases is tables[0].bases and t.seed == 5 for t in tables)
        assert _schedule(np.uint64(5), 2, 64)[0] is tables[0].bases
        assert _schedule.cache_info().hits == 3

    def test_new_key_evicts_the_old_one(self):
        _schedule.cache_clear()
        old = _schedule(1, 2, 64)
        for key in [(2, 2, 64), (1, 3, 64), (1, 2, 66)]:
            _schedule(*key)
            assert _schedule.cache_info().currsize == 1
            redrawn = _schedule(1, 2, 64)
            assert redrawn[0] is not old[0] and np.array_equal(redrawn[0], old[0])
            assert np.array_equal(redrawn[1], old[1])
            old = redrawn
        assert _schedule.cache_info().misses == 7 and _schedule.cache_info().hits == 0

    @pytest.mark.parametrize("candidates", [None, 1, 31])
    @pytest.mark.parametrize("n_features", [0, 1, 57])
    @pytest.mark.parametrize("levels", [2, 20, 300])
    @pytest.mark.parametrize("dim", [2, 64, 2048])
    def test_flip_levels_match_bincount_form(self, candidates, n_features, levels, dim):
        # Sorted cut points in 0..D/2 give feasible rows of any prefix
        # shape; a block of 31 also holds a zero budget and a budget whose
        # every row is D/2 flips at one transition.
        rng = np.random.default_rng([n_features, levels, dim])
        cuts = np.sort(rng.integers(0, dim // 2 + 1, size=(31, n_features, levels - 1)), axis=-1)
        budgets = np.diff(cuts, axis=-1, prepend=0)
        budgets[:2] = 0
        budgets[1, :, rng.integers(levels - 1)] = dim // 2
        budgets = {None: budgets[2], 1: budgets[2:3], 31: budgets}[candidates]
        got = _flip_levels(_schedule(7, n_features, dim)[1], budgets)
        want = bincount_flip_levels(draw_permutations(7, n_features, dim), budgets)
        assert got.shape == want.shape == budgets.shape[:-1] + (dim,)
        assert got.dtype == want.dtype == np.min_scalar_type(levels)
        assert np.array_equal(got, want)


class TestMemoryPeak:
    """Peak traced bytes at the wide serving shape (N=57, D=2048, M=20), as
    multiples of N*D. numpy reports its data buffers to `tracemalloc`, so
    these are exact counts of the temporaries, not of the heap's history."""

    N_D = 57 * 2048

    def test_warm_build(self):
        # The flip levels, their layout in permutation order and the copy
        # `np.take` makes of the read-only int64 slots: 10.10 N*D measured.
        budget = uniform_flip_budget(2048, 20, features=57)
        build_level_table(0, budget)
        assert traced_peak(lambda: build_level_table(0, budget)) <= 10.11 * self.N_D

    def test_cold_schedule_draw(self):
        # The memo's base signs and slots (9 N*D) and one feature's draw at
        # a time: 9.37 N*D measured.
        _schedule.cache_clear()
        assert traced_peak(lambda: _schedule(0, 57, 2048)) <= 9.5 * self.N_D


class TestLevelVector:
    @pytest.fixture
    def table(self):
        return build_level_table(1, FlipBudget(budgets=np.array([[2, 5, 1]]), dim=24))

    def test_first_level_is_base(self, table):
        rng = np.random.default_rng([1, 0])  # the table's seed, feature 0
        base = (rng.integers(0, 2, size=24).astype(np.int8) << 1) - 1
        first = level_vector(table, 0, 1)
        assert first.dtype == np.int8 and first.shape == (24,)
        assert not first.flags.writeable
        assert np.array_equal(first, base)

    def test_consecutive_distances(self, table):
        for m, expected in zip(range(1, 4), [2, 5, 1]):
            assert hamming(level_vector(table, 0, m), level_vector(table, 0, m + 1)) == expected

    def test_nested_flip_sets(self, table):
        base = level_vector(table, 0, 1)
        previous = set()
        for m in range(2, 5):
            flipped = set(np.flatnonzero(base != level_vector(table, 0, m)))
            assert previous <= flipped
            previous = flipped

    def test_out_of_range(self, table):
        with pytest.raises(IndexError):
            level_vector(table, 1, 1)
        with pytest.raises(IndexError):
            level_vector(table, 0, 0)
        with pytest.raises(IndexError):
            level_vector(table, 0, 5)


class TestEncodeSample:
    def test_paper_toy_example(self):
        # f1 in [0,1], f2 in [-10,0], M=10: x = (0.17, -1.2) lands in
        # levels 2 and 9 (interval enumeration; see Quantizer docs).
        quantizer = Quantizer(mins=np.array([0.0, -10.0]), maxs=np.array([1.0, 0.0]), levels=10)
        table = build_level_table(2, uniform_flip_budget(1000, 10, features=2))
        encoded = encode_quantized(quantizer.quantize_matrix(np.array([[0.17, -1.2]])), table)[0]
        expected = level_vector(table, 0, 2).astype(int) + level_vector(table, 1, 9)
        assert np.array_equal(encoded, expected)

    def test_single_feature_is_level_vector(self):
        quantizer = Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=4)
        table = build_level_table(3, uniform_flip_budget(32, 4))
        encoded = encode_quantized(quantizer.quantize_matrix(np.array([[0.6]])), table)[0]
        assert np.array_equal(encoded, level_vector(table, 0, 3))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sum_of_many_equal_signs_is_exact(self, sign):
        # 300 features with the same sign at every index: the sums reach
        # +-300, past the int8 range the bundling sums partial chunks in.
        n, dim = 300, 8
        table = LevelTable(
            bases=np.full((n, dim), sign, dtype=np.int8),
            flips=np.full((n, dim), 2, dtype=np.uint8),
            budgets=FlipBudget(budgets=np.zeros((n, 1), dtype=int), dim=dim),
            seed=0,
        )
        levels = np.ones((2, n), dtype=np.int64)
        levels[1] = 2
        assert encode_quantized(levels, table).tolist() == [[sign * n] * dim] * 2

    @pytest.mark.parametrize("level", [0, 5, 256])
    def test_level_out_of_range_rejected(self, level):
        # 256 would wrap to 0 in the table's uint8 flip levels.
        table = build_level_table(3, uniform_flip_budget(32, 4, features=2))
        with pytest.raises(IndexError, match=r"levels out of range \[1, 4\]"):
            encode_quantized(np.array([[1, level]]), table)

    def test_fractional_level_rejected(self):
        # A cast would truncate 1.5 to level 1.
        table = build_level_table(3, uniform_flip_budget(32, 4, features=2))
        with pytest.raises(DataError, match="levels must be whole numbers"):
            encode_quantized(np.array([[1, 1.5]]), table)
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="levels must be whole numbers"):
                encode_quantized(np.array([[1, bad]]), table)

    def test_array_likes_encode_as_the_array(self):
        table = build_level_table(3, uniform_flip_budget(32, 4, features=2))
        want = encode_quantized(np.array([[1, 4], [2, 3]]), table)
        assert np.array_equal(encode_quantized([[1, 4], [2, 3]], table), want)
        assert np.array_equal(encode_quantized(np.array([[1.0, 4.0], [2.0, 3.0]]), table), want)
        assert np.array_equal(encode_quantized(np.array([[1, 4], [2, 3]], np.uint8), table), want)

    @pytest.mark.parametrize("levels", [[[1, 2, 3]], [[1]], [1, 2], [[[1, 2]]]],
                             ids=["wider", "narrower", "1-d", "3-d"])
    def test_other_shapes_rejected(self, levels):
        table = build_level_table(3, uniform_flip_budget(32, 4, features=2))
        shape = re.escape(str(np.shape(levels)))
        with pytest.raises(ShapeError, match=rf"levels must be \(S, 2\), got shape {shape}"):
            encode_quantized(np.array(levels), table)

    @given(st.integers(0, 1000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_bundling_parity_and_bound(self, seed, n_features):
        rng = np.random.default_rng(seed)
        quantizer = Quantizer(
            mins=np.zeros(n_features), maxs=np.ones(n_features), levels=5
        )
        table = build_level_table(seed, uniform_flip_budget(16, 5, features=n_features))
        x = rng.uniform(0, 1, size=n_features)
        encoded = encode_quantized(quantizer.quantize_matrix(x[None, :]), table)[0]
        assert np.all(np.abs(encoded) <= n_features)
        assert np.all((encoded - n_features) % 2 == 0)


class TestRepairBudget:
    """`_repair`, the floor-rescale the GA applies to its raw genes."""

    def test_identity_on_feasible(self):
        genes = np.array([[2, 3]])
        assert _repair(genes, 16) is genes

    def test_floor_rescale(self):
        repaired = _repair(np.array([[6, 6]]), 16)
        assert repaired.tolist() == [[4, 4]]
        FlipBudget(budgets=repaired, dim=16)  # feasible: a budget accepts it

    @given(st.lists(st.integers(0, 40), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_idempotent_and_feasible(self, row):
        once = _repair(np.array([row]), 16)
        FlipBudget(budgets=once, dim=16)
        assert _repair(once, 16) is once

    @staticmethod
    def scaled_everywhere(budgets, dim):
        """The earlier repair, the oracle: every row scaled by its own
        factor, 1 where its sum fits in D/2, and one `np.where`."""
        half = dim // 2
        sums = budgets.sum(axis=-1, keepdims=True)
        bad = sums > half
        scale = np.where(bad, half, 1) / np.where(bad, sums, 1)
        return np.where(bad, np.floor(budgets * scale).astype(np.int64), budgets)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rewrites_only_the_rows_over_half(self, data):
        shape = data.draw(st.lists(st.integers(0, 6), max_size=2))
        shape += [data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))]
        dim = data.draw(st.integers(1, 200)) * 2
        top = data.draw(st.sampled_from([dim // 2, dim, 2**40]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        genes = np.random.default_rng(seed).integers(0, top + 1, size=shape)
        before = genes.copy()
        repaired = _repair(genes, dim)
        want = self.scaled_everywhere(genes, dim)
        assert repaired.dtype == np.int64 and repaired.tobytes() == want.tobytes()
        assert np.array_equal(genes, before)  # the input is never written
        if np.all(genes.sum(axis=-1) <= dim // 2):
            assert repaired is genes
