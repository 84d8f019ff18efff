import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdesign import (
    ConstraintError,
    DimensionError,
    FlipBudget,
    LevelTable,
    Quantizer,
    ShapeError,
    build_level_table,
    encode_quantized,
    level_vector,
    repair_budget,
    uniform_flip_budget,
)
from hvdesign.hypervector import _flip_levels, _schedule


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
            ([[4, -1]], 16, ValueError, "non-negative"),
            ([[4, -1]], 15, DimensionError, "even and >= 2, got 15"),
        ],
        ids=["one-d", "negative", "odd-dim-before-sign"],
    )
    def test_invalid_rejected(self, budgets, dim, error, match):
        with pytest.raises(error, match=match):
            FlipBudget(budgets=np.array(budgets), dim=dim)


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
        budget = FlipBudget(budgets=np.array([[9, 9]]), dim=16)
        with pytest.raises(ConstraintError, match=r"^budget row sums \[18\] exceed D/2 = 8$"):
            build_level_table(0, budget)

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


class TestSchedule:
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("dim", [2, 64, 2048, 8192])
    def test_matches_integers_then_permutation(self, seed, dim):
        bases, perms = _schedule(seed, 3, dim)
        assert bases.dtype == np.int8 and perms.dtype == np.int64
        for n in range(3):
            rng = np.random.default_rng([seed, n])
            assert bases[n].tolist() == (2 * rng.integers(0, 2, size=dim) - 1).tolist()
            assert perms[n].tolist() == rng.permutation(dim).tolist()

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
        _, perms = _schedule(7, n_features, dim)
        got = _flip_levels(perms, budgets)
        want = bincount_flip_levels(perms, budgets)
        assert got.shape == want.shape == budgets.shape[:-1] + (dim,)
        assert got.dtype == want.dtype == np.min_scalar_type(levels)
        assert np.array_equal(got, want)


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
    def test_identity_on_feasible(self):
        budget = FlipBudget(budgets=np.array([[2, 3]]), dim=16)
        assert repair_budget(budget) is budget

    def test_floor_rescale(self):
        budget = FlipBudget(budgets=np.array([[6, 6]]), dim=16)
        repaired = repair_budget(budget)
        assert repaired.budgets.tolist() == [[4, 4]]
        assert repaired.feasible

    @given(st.lists(st.integers(0, 40), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_idempotent_and_feasible(self, row):
        budget = FlipBudget(budgets=np.array([row]), dim=16)
        once = repair_budget(budget)
        assert once.feasible
        assert repair_budget(once) == once
