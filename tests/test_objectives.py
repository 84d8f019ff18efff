import decimal
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdesign import objectives
from hvdesign import (
    CandidateEvaluator,
    ConstraintError,
    DataError,
    Dataset,
    DimensionError,
    FlipBudget,
    ObjectiveScores,
    Quantizer,
    ShapeError,
    TrainedModel,
    avg_similarity,
    build_level_table,
    calibrate_quantizer,
    classify,
    confusion_matrix,
    encode_quantized,
    fit_baseline,
    generate_linear,
    pairwise_similarities,
    predict_batch,
    repair_budget,
    total_accuracy,
    uniform_flip_budget,
    weighted_accuracy,
)
from hvdesign.hypervector import _repair, _schedule

CLAMP = 1e-12


def reference_wacc(confusion):
    """Independent per-class-recall oracle."""
    recalls = []
    for k in range(confusion.shape[0]):
        total = confusion[k].sum()
        if total:
            recalls.append(confusion[k, k] / total)
    return sum(recalls) / len(recalls)


def reference_cosine(a, b):
    """Float cosine by normalized dot product; 0 when either vector is zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))


def reference_avg_sim(encoders):
    """Direct evaluation of the ordered-pair product form with clamp."""
    k = len(encoders)
    product = 1.0
    for i, j in itertools.product(range(k), range(k)):
        if i != j:
            product *= max(reference_cosine(encoders[i], encoders[j]), CLAMP)
    return product ** (1.0 / k)


def reference_confusion(train, quantizer, seed, budget):
    """The model of the public single-pass pipeline (level table, encoding
    of every training row, encoders) and its training confusion matrix."""
    table = build_level_table(seed, budget)
    samples = encode_quantized(quantizer.quantize_matrix(train.features), table)
    encoders = np.array([samples[train.labels == k].sum(axis=0)
                         for k in range(1, train.n_classes + 1)])
    model = TrainedModel(
        quantizer=quantizer,
        table=table,
        encoders=encoders,
        labels=list(train.label_names),
        feature_names=[],
        class_counts=np.bincount(train.labels, minlength=train.n_classes + 1)[1:],
    )
    predicted = predict_batch(train.features, model)
    return model, confusion_matrix(train.labels, predicted, train.n_classes)


def reference_scores(train, quantizer, seed, budget):
    """The candidate scores composed from the public single-pass pipeline."""
    model, confusion = reference_confusion(train, quantizer, seed, budget)
    return ObjectiveScores(
        wacc=weighted_accuracy(confusion), avg_sim=avg_similarity(model.encoders)
    )


@st.composite
def scoring_problems(draw):
    """A small training split whose features are already level numbers
    (so rows repeat), K classes of which some may be empty, and a budget
    whose rows may sum to zero, to D/2 or beyond."""
    dim = draw(st.sampled_from([2, 4, 16, 64]))
    n_feat = draw(st.integers(1, 3))
    levels = draw(st.integers(2, 5))
    n_classes = draw(st.integers(2, 4))
    n_samples = draw(st.integers(1, 30))
    rows = draw(st.lists(
        st.lists(st.integers(1, levels), min_size=n_feat, max_size=n_feat),
        min_size=n_samples, max_size=n_samples,
    ))
    labels = draw(st.lists(st.integers(1, n_classes), min_size=n_samples, max_size=n_samples))
    budget = draw(st.lists(
        st.lists(st.integers(0, dim), min_size=levels - 1, max_size=levels - 1),
        min_size=n_feat, max_size=n_feat,
    ))
    train = Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels),
        label_names=[f"c{k}" for k in range(1, n_classes + 1)],
    )
    # Level m covers [m, m + 1): feature value m quantizes to level m.
    quantizer = Quantizer(
        mins=np.ones(n_feat), maxs=np.full(n_feat, levels + 1.0), levels=levels
    )
    return train, quantizer, FlipBudget(budgets=np.array(budget), dim=dim)


class TestConfusionMatrix:
    @pytest.mark.parametrize(
        "true, predicted",
        [([0, 1, 2], [1, 1, 2]), ([1, 1, 2], [-1, 1, 2]), ([1, 3, 2], [1, 1, 2])],
    )
    def test_labels_outside_classes_rejected(self, true, predicted):
        with pytest.raises(DataError, match=r"outside 1\.\.2"):
            confusion_matrix(true, predicted, 2)

    @pytest.mark.parametrize(
        "true, predicted",
        [([1.5, 2.9], [1, 2]), ([1, 2], [1.0, 2.5]), ([1, np.nan], [1, 2]), ([1, 2], [np.inf, 1])],
    )
    def test_non_integer_labels_rejected(self, true, predicted):
        # A cast to int64 would truncate 1.5 and 2.9 to the valid labels 1 and 2.
        with pytest.raises(DataError, match="finite, integer-valued"):
            confusion_matrix(true, predicted, 2)

    def test_whole_float_labels_counted(self):
        assert confusion_matrix([1.0, 2.0, 2.0], [2, 2, 1], 2).tolist() == [[0, 1], [1, 1]]

    def test_lengths_must_match(self):
        with pytest.raises(ShapeError, match="differ in length"):
            confusion_matrix([1, 2], [1], 2)

    def test_empty_matrix_has_no_accuracy(self):
        empty = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(DataError, match="no samples at all"):
            total_accuracy(empty)
        with pytest.warns(UserWarning, match=r"\[1, 2\]"):
            with pytest.raises(DataError, match="no samples at all"):
                weighted_accuracy(empty)


class TestWeightedAccuracy:
    def test_perfect_diagonal(self):
        assert weighted_accuracy(np.diag([5, 3, 9])) == 1.0

    def test_two_class_arithmetic(self):
        confusion = np.array([[4, 0], [2, 2]])
        assert weighted_accuracy(confusion) == pytest.approx(0.75)

    def test_everything_predicted_class_one(self):
        confusion = np.array([[10, 0], [10, 0]])
        assert weighted_accuracy(confusion) == pytest.approx(0.5)

    def test_empty_class_excluded_with_warning(self):
        confusion = np.array([[4, 0], [0, 0]])
        with pytest.warns(UserWarning, match=r"\[2\]"):
            assert weighted_accuracy(confusion) == 1.0

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(4)
        confusion = rng.integers(1, 20, size=(4, 4))
        perm = rng.permutation(4)
        permuted = confusion[np.ix_(perm, perm)]
        assert weighted_accuracy(permuted) == pytest.approx(weighted_accuracy(confusion))

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = rng.integers(2, 6)
            confusion = rng.integers(0, 30, size=(k, k))
            confusion[np.arange(k), np.arange(k)] += 1  # every class present
            assert weighted_accuracy(confusion) == pytest.approx(
                reference_wacc(confusion), abs=1e-12
            )

    @given(st.integers(1, 300), st.integers(1, 500), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_population_wacc_is_each_rows_own_mean(self, n_classes, n_candidates, seed):
        # The wAcc of each row of a (P, K) stack of hit counts has the bytes
        # of that row's recalls summed alone; classes with no samples are left out.
        rng = np.random.default_rng(seed)
        totals = rng.integers(1, 50, size=n_classes)
        totals[rng.random(n_classes) < 0.2] = 0
        totals[rng.integers(n_classes)] += 1  # some class has samples
        hits = rng.integers(0, totals + 1, size=(n_candidates, n_classes))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty classes warn
            got = objectives._macro_recalls(hits, totals)
        present = totals > 0
        expected = [float(row.sum() / row.size) for row in hits[:, present] / totals[present]]
        assert list(map(repr, got)) == list(map(repr, expected))


class TestAvgSimilarity:
    def test_identical_encoders(self):
        encoders = np.array([[1, -1, 1, 1], [1, -1, 1, 1]])
        assert avg_similarity(encoders) == pytest.approx(1.0)

    def test_pairwise_half(self):
        # cosine([1,1,0,0], [1,0,1,0]) = 1/2; (0.5 * 0.5)^(1/2) = 0.5.
        encoders = np.array([[1, 1, 0, 0], [1, 0, 1, 0]])
        assert pairwise_similarities(encoders)[0, 1] == pytest.approx(0.5)
        assert avg_similarity(encoders) == pytest.approx(0.5)

    def test_orthogonal_clamped(self):
        encoders = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        # exp(log(...)) introduces one ulp of slack around the clamp floor
        assert 0 < avg_similarity(encoders) <= 1e-12 * (1 + 1e-9)

    def test_single_encoder_rejected(self):
        with pytest.raises(ValueError):
            avg_similarity(np.array([[1, 2, 3]]))

    def test_scaling_invariant(self):
        rng = np.random.default_rng(2)
        encoders = rng.integers(-4, 5, size=(3, 16))
        scaled = encoders.copy()
        scaled[1] *= 9
        assert avg_similarity(scaled) == pytest.approx(avg_similarity(encoders))

    def test_matches_oracle_on_random_encoders(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            k = rng.integers(2, 5)
            encoders = rng.integers(-6, 7, size=(k, 24))
            assert avg_similarity(encoders) == pytest.approx(
                reference_avg_sim(encoders), rel=1e-12, abs=1e-12
            )


def decimal_cosine(a, b):
    """a . b / sqrt(|a|**2 |b|**2) of two integer vectors in the current
    decimal context; 0 when either is zero."""
    dot, aa, bb = (
        decimal.Decimal(sum(int(x) * int(y) for x, y in zip(u, v)))
        for u, v in ((a, b), (a, a), (b, b))
    )
    if aa == 0 or bb == 0:
        return decimal.Decimal(0)
    return dot / (aa * bb).sqrt()


def assert_exact_cosine(got, a, b):
    """Within 4 ulp of the 40-digit cosine, and of its sign."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = decimal_cosine(a, b)
        assert (got > 0, got < 0) == (want > 0, want < 0)
        assert abs(decimal.Decimal(got) - want) <= 4 * decimal.Decimal(math.ulp(float(want)))


@st.composite
def integer_vectors(draw):
    """2-5 integer vectors of one length D in 1..40, with entries up to the
    largest the exact Gram matrix allows (D * max|v|**2 < 2**63), small
    entries and zeros."""
    k, dim = draw(st.integers(2, 5)), draw(st.integers(1, 40))
    top = draw(st.sampled_from([2**10, math.isqrt((2**63 - 1) // dim)]))
    entries = st.integers(-top, top) | st.sampled_from([0, 1, -1])
    return draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=k, max_size=k))


class TestExactCosines:
    def test_invariant_under_permutations(self):
        # A permutation of the D axis changes only the order of the dot
        # products' sums; one of the classes, only the order of avgSim's logs.
        rng = np.random.default_rng(5)
        for _ in range(200):
            k, dim = rng.integers(2, 8), rng.choice([64, 256, 2048, 8192])
            encoders = rng.integers(-300, 301, size=(k, dim))
            permuted = encoders[:, rng.permutation(dim)]
            assert repr(avg_similarity(permuted)) == repr(avg_similarity(encoders))
            assert pairwise_similarities(permuted).tobytes() == \
                pairwise_similarities(encoders).tobytes()
            reordered = encoders[rng.permutation(k)]
            assert repr(avg_similarity(reordered)) == repr(avg_similarity(encoders))

    def test_evaluator_invariant_under_permuting_dimensions(self, motivational, monkeypatch):
        # Permuting the D axis of the kernel's inputs (the base signs and
        # the slots of the flip permutations) permutes every level
        # hypervector's D axis and the encoders' D axis, and leaves every
        # dot product, so every label, as it was.
        quantizer = calibrate_quantizer(motivational, 20)
        evaluator = CandidateEvaluator(motivational, quantizer, 5)
        genes = _repair(np.random.default_rng(3).integers(0, 4, size=(50, 2, 19)), 64)
        order = np.random.default_rng(4).permutation(64)
        want = evaluator.score(genes, 64)
        bases, slots = _schedule(5, 2, 64)
        # New index i is old index order[i], so it has that index's slot.
        permuted = (bases[:, order], slots[:, order])
        asked = []

        def schedule(*key):
            asked.append(key)
            return permuted

        monkeypatch.setattr("hvdesign.objectives._schedule", schedule)
        got = evaluator.score(genes, 64)
        assert asked == [(5, 2, 64)]
        assert got.tobytes() == want.tobytes()

    @given(integer_vectors(), st.booleans())
    @settings(max_examples=300, deadline=None)
    @example([[0, 0], [3, -4]], False)  # a zero row scores 0
    @example([[3, -1, 2], [-3, 1, -2]], False)  # cosines of 1 to itself, -1 antipodal
    @example([[2**31 - 1, -(2**31 - 1)], [2**31 - 1, 2**31 - 2]], False)  # at the bound
    def test_cosines_match_decimal_oracle(self, rows, with_zero_row):
        encoders = np.array(rows + [[0] * len(rows[0])] * with_zero_row, dtype=np.int64)
        sims = pairwise_similarities(encoders)
        assert np.all(np.abs(sims) <= 1.0 + 1e-12)
        for i, j in itertools.product(range(len(encoders)), repeat=2):
            assert_exact_cosine(float(sims[i, j]), encoders[i], encoders[j])

    def test_classify_reports_exact_cosines(self, toy_dataset):
        model = fit_baseline(toy_dataset, 128, 5, seed=7)
        for x in toy_dataset.features[:10]:
            query = encode_quantized(model.quantizer.quantize_matrix(x[None, :]), model.table)[0]
            sims = classify(x, model).similarities
            assert sims.shape == (model.n_classes,)
            for got, encoder in zip(sims, model.encoders):
                assert_exact_cosine(float(got), query, encoder)

    @pytest.mark.parametrize("dim, top", [(2, 2**31), (8192, 2**25)])
    def test_entries_at_bound_rejected(self, dim, top):
        # D * max|v|**2 must stay below 2**63 for the int64 Gram matrix; each
        # top is the first value at the bound.
        encoders = np.zeros((2, dim), dtype=np.int64)
        encoders[0, 0], encoders[1, 1] = top, -1
        for score in (pairwise_similarities, avg_similarity):
            with pytest.raises(DataError, match="too large for exact cosines"):
                score(encoders)
        encoders[0, 0] = top - 1
        assert pairwise_similarities(encoders)[0, 1] == 0.0

    def test_only_integer_values_accepted(self):
        # A cast to int64 would truncate these: the fractions to all-zero rows.
        for rows in ([[0.5, 0.5], [0.4, -0.9]], [[1.0, np.nan], [1.0, 2.0]],
                     [[np.inf, 0.0], [1.0, 2.0]]):
            for score in (pairwise_similarities, avg_similarity):
                with pytest.raises(DataError, match="finite, integer-valued"):
                    score(np.array(rows))
        floats = np.array([[1.0, 2.0], [3.0, -1.0]])
        ints = floats.astype(np.int64)
        assert pairwise_similarities(floats).tobytes() == pairwise_similarities(ints).tobytes()
        assert repr(avg_similarity(floats)) == repr(avg_similarity(ints))


class TestFeasibility:
    def test_below_limit(self):
        assert FlipBudget(budgets=np.array([[3, 3]]), dim=16).feasible

    def test_exactly_at_limit(self):
        assert FlipBudget(budgets=np.array([[4, 4]]), dim=16).feasible

    def test_one_over(self):
        assert not FlipBudget(budgets=np.array([[4, 5]]), dim=16).feasible


@st.composite
def wide_scoring_problems(draw):
    """A scoring problem like `scoring_problems`, but with 4 to 60 features,
    its rows, labels and budget drawn by numpy from a drawn seed."""
    dim = draw(st.sampled_from([2, 4, 16, 64]))
    n_feat, levels = draw(st.integers(4, 60)), draw(st.integers(2, 5))
    n_classes, n_samples = draw(st.integers(2, 4)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = Dataset(
        features=rng.integers(1, levels + 1, size=(n_samples, n_feat)).astype(np.float64),
        labels=rng.integers(1, n_classes + 1, size=n_samples),
        label_names=[f"c{k}" for k in range(1, n_classes + 1)],
    )
    quantizer = Quantizer(
        mins=np.ones(n_feat), maxs=np.full(n_feat, levels + 1.0), levels=levels
    )
    budget = rng.integers(0, dim + 1, size=(n_feat, levels - 1))
    return train, quantizer, FlipBudget(budgets=budget, dim=dim)


@st.composite
def scoring_populations(draw):
    """A scoring problem of 1 to 60 features and 1-40 budgets drawn from a
    small pool (so budgets repeat) that always holds a zero budget, a row at
    D/2 and the problem's own budget, whose rows may exceed D/2; plus an
    element budget for the scoring blocks, so blocks run from one candidate
    to the whole population."""
    train, quantizer, budget = draw(st.one_of(scoring_problems(), wide_scoring_problems()))
    (n_feat, gaps), dim = budget.budgets.shape, budget.dim
    at_half = np.zeros((n_feat, gaps), dtype=np.int64)
    at_half[0, 0] = dim // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = rng.integers(0, dim + 1, size=(draw(st.integers(0, 6)), n_feat, gaps))
    pool = [np.zeros((n_feat, gaps), dtype=np.int64), at_half, budget.budgets, *matrices]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    population = [FlipBudget(budgets=np.array(pool[i]), dim=dim) for i in picks]
    block_elements = draw(st.one_of(st.integers(1, 2**12), st.integers(2**12, 2**24)))
    return train, quantizer, population, block_elements


def assert_refused_like_pipeline(evaluator, budget):
    """`evaluate` refuses a budget with a row over D/2 with the error
    `build_level_table` raises on it."""
    with pytest.raises(ConstraintError) as refused:
        evaluator.evaluate(budget)
    with pytest.raises(ConstraintError) as built:
        build_level_table(evaluator.base_seed, budget)
    assert str(refused.value) == str(built.value)


def assert_population_matches_pipeline(train, quantizer, seed, population):
    """`score`, the (P, 2) array routine the GA calls, refuses a population
    that holds an infeasible budget, as `evaluate` refuses that budget
    alone. Repaired, as the GA holds it, the population is scored: each
    budget gets the bytes of the public pipeline, as `evaluate` gives them
    on that budget alone."""
    evaluator = CandidateEvaluator(train, quantizer, seed)
    dim = population[0].dim
    if not all(b.feasible for b in population):
        with pytest.raises(ConstraintError):
            evaluator.score(np.array([b.budgets for b in population]), dim)
    for budget in population:
        if not budget.feasible:
            assert_refused_like_pipeline(evaluator, budget)
    population = [repair_budget(b) for b in population]
    rows = evaluator.score(np.array([b.budgets for b in population]), dim)
    assert rows.shape == (len(population), 2)
    for budget, row in zip(population, rows.tolist()):
        expected = reference_scores(train, quantizer, seed, budget)
        assert evaluator.evaluate(budget) == expected
        assert list(map(repr, row)) == [repr(expected.wacc), repr(expected.avg_sim)]


class TestEvaluateCandidate:
    def test_uniform_budget_matches_baseline_pipeline(self, toy_dataset):
        quantizer = calibrate_quantizer(toy_dataset, 5)
        scores = CandidateEvaluator(toy_dataset, quantizer, 7).evaluate(
            uniform_flip_budget(64, 5, features=2)
        )
        model = fit_baseline(toy_dataset, 64, 5, seed=7)
        predicted = predict_batch(toy_dataset.features, model)
        confusion = confusion_matrix(toy_dataset.labels, predicted, 3)
        assert scores.wacc == pytest.approx(weighted_accuracy(confusion))
        assert scores.avg_sim == pytest.approx(avg_similarity(model.encoders))

    def test_infeasible_refused(self, toy_dataset):
        # A budget with a row over D/2 is refused, not scored on its repaired
        # form: alone, and in a population, where the message names the row
        # sums of the first infeasible budget.
        quantizer = calibrate_quantizer(toy_dataset, 5)
        evaluator = CandidateEvaluator(toy_dataset, quantizer, 7)
        budget = FlipBudget(budgets=np.array([[8, 8, 8, 8], [9, 9, 9, 9]]), dim=64)
        assert_refused_like_pipeline(evaluator, budget)
        uniform = uniform_flip_budget(64, 5, features=2).budgets
        genes = np.stack([uniform, budget.budgets, budget.budgets[::-1]])
        message = r"^budget row sums \[32, 36\] exceed D/2 = 32$"
        with pytest.raises(ConstraintError, match=message):
            evaluator.score(genes, 64)
        assert evaluator.score(_repair(genes, 64), 64).shape == (3, 2)

    @pytest.mark.parametrize(
        "genes, match",
        [
            (np.array([[[1, 1, 1, 1], [2, -1, 0, 0]]]), "^flip budgets must be non-negative$"),
            (np.full((1, 2, 4), 0.5), "^flip budgets must be whole numbers$"),
            (np.full((1, 2, 4), 1e30), r"^flip budgets must be below 2\*\*63$"),
        ],
        ids=["negative", "fraction", "past-int64"],
    )
    def test_bad_entries_refused_like_budget(self, toy_dataset, genes, match):
        # FlipBudget's messages, where numpy's repeat would raise its own.
        evaluator = CandidateEvaluator(toy_dataset, calibrate_quantizer(toy_dataset, 5), 7)
        with pytest.raises(DataError, match=match):
            evaluator.score(genes, 64)

    @pytest.mark.parametrize(
        "budgets, dim, error",
        [
            ([[4, -1]], 16, DataError),
            ([[4, -1]], 15, DimensionError),
            ([[0.5, 1.7, 2.9]], 16, DataError),
            ([[1.0, np.nan, 2.0]], 16, DataError),
            ([[1e30, 1.0]], 16, DataError),
            ([[4, 4]], 64.0, DimensionError),
            ([[0, 0, 0, 0], [0, 0, 0, 0]], 7, DimensionError),
            ([[0, 0, 0, 0], [0, 0, 0, 0]], 1, DimensionError),
            ([[0, 0, 0, 0], [0, 0, 0, 0]], 0, DimensionError),
            ([[0, 0, 0, 0], [0, 0, 0, 0]], -2, DimensionError),
        ],
        ids=["negative", "odd-dim-before-sign", "fraction", "nan", "past-int64", "float-dim",
             "dim-7", "dim-1", "dim-0", "dim-minus-2"],
    )
    def test_refuses_what_flip_budget_refuses(self, toy_dataset, budgets, dim, error):
        # The same error, type and message, whether or not the budget's
        # shape fits the dataset's (N, M-1) = (2, 4).
        evaluator = CandidateEvaluator(toy_dataset, calibrate_quantizer(toy_dataset, 5), 7)
        with pytest.raises(error) as alone:
            FlipBudget(budgets=np.array(budgets), dim=dim)
        with pytest.raises(error) as scored:
            evaluator.score(np.array(budgets)[None], dim)
        assert type(scored.value) is type(alone.value)
        assert str(scored.value) == str(alone.value)

    def test_nested_lists_score_as_the_array(self, toy_dataset):
        evaluator = CandidateEvaluator(toy_dataset, calibrate_quantizer(toy_dataset, 5), 7)
        genes = np.stack([uniform_flip_budget(64, 5, features=2).budgets, [[1, 2, 3, 4]] * 2])
        want = evaluator.score(genes, 64)
        assert evaluator.score(genes.tolist(), 64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_whole_genes_score_as_int64(self, toy_dataset, dtype):
        evaluator = CandidateEvaluator(toy_dataset, calibrate_quantizer(toy_dataset, 5), 7)
        genes = uniform_flip_budget(64, 5, features=2).budgets[None]
        want = evaluator.score(genes, 64)
        assert evaluator.score(genes.astype(dtype), 64).tobytes() == want.tobytes()

    def test_empty_population_scores_nothing(self, toy_dataset):
        evaluator = CandidateEvaluator(toy_dataset, calibrate_quantizer(toy_dataset, 5), 7)
        scores = evaluator.score(np.zeros((0, 2, 4), dtype=np.int64), 64)
        assert scores.shape == (0, 2) and scores.dtype == np.float64

    def test_pure_bit_identical(self, micro_dataset, micro_quantizer):
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, 42)
        budget = FlipBudget(budgets=np.array([[3, 5]]), dim=16)
        a, b = evaluator.evaluate(budget), evaluator.evaluate(budget)
        assert a == b

    def test_shape_mismatch_rejected(self, micro_dataset, micro_quantizer):
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, 0)
        with pytest.raises(ShapeError):
            evaluator.evaluate(FlipBudget(budgets=np.array([[3, 5], [1, 1]]), dim=16))
        for shape in [(3, 2, 2), (3, 1, 3), (0, 1, 1), (1, 2)]:
            genes = np.zeros(shape, dtype=np.int64)
            with pytest.raises(ShapeError, match="does not match dataset N=1, M=3"):
                evaluator.score(genes, 16)

    def test_quantizer_of_another_width_rejected(self, micro_dataset, toy_dataset):
        with pytest.raises(ShapeError, match=r"expected 2 features, got shape \(12, 1\)"):
            CandidateEvaluator(micro_dataset, calibrate_quantizer(toy_dataset, 3), 0)

    def test_robustness_complements_avg_sim(self, micro_dataset, micro_quantizer):
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, 0)
        scores = evaluator.evaluate(FlipBudget(budgets=np.array([[2, 2]]), dim=16))
        assert scores.robustness + scores.avg_sim == 1.0

    def test_micro_problem_best_wacc_matches_enumeration(
        self, micro_dataset, micro_quantizer
    ):
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, 123)
        best = max(
            evaluator.evaluate(FlipBudget(budgets=np.array([[b1, b2]]), dim=16)).wacc
            for b1 in range(9)
            for b2 in range(9)
            if b1 + b2 <= 8
        )
        # Frozen from the exhaustive enumeration over all feasible pairs.
        assert best == pytest.approx(0.7857142857142857)

    @given(scoring_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    @example(  # D=2, zero budget, duplicate rows, class 3 without samples
        (
            Dataset(
                features=np.array([[1.0], [2.0], [2.0], [1.0]]),
                labels=np.array([1, 2, 2, 1]),
                label_names=["a", "b", "c"],
            ),
            Quantizer(mins=np.ones(1), maxs=np.full(1, 3.0), levels=2),
            FlipBudget(budgets=np.array([[0]]), dim=2),
        ),
        0,
    )
    @example(  # rows at D/2 and above it
        (
            Dataset(
                features=np.array([[1.0, 3.0], [3.0, 1.0], [2.0, 2.0], [3.0, 1.0]]),
                labels=np.array([1, 2, 2, 1]),
                label_names=["a", "b"],
            ),
            Quantizer(mins=np.ones(2), maxs=np.full(2, 4.0), levels=3),
            FlipBudget(budgets=np.array([[4, 4], [9, 2]]), dim=16),
        ),
        7,
    )
    def test_matches_public_pipeline(self, problem, seed):
        train, quantizer, budget = problem
        evaluator = CandidateEvaluator(train, quantizer, seed)
        if not budget.feasible:
            assert_refused_like_pipeline(evaluator, budget)
            budget = repair_budget(budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty classes warn
            expected = reference_scores(train, quantizer, seed, budget)
            assert evaluator.evaluate(budget) == expected

    @given(scoring_populations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_population_matches_public_pipeline(self, problem, seed):
        train, quantizer, population, block_elements = problem
        with warnings.catch_warnings(), \
                mock.patch.object(objectives, "_BLOCK_ELEMENTS", block_elements):
            warnings.simplefilter("ignore")  # empty classes warn
            assert_population_matches_pipeline(train, quantizer, seed, population)

    @given(scoring_populations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_hits_are_the_pipelines_confusion_diagonals(self, problem, seed):
        train, quantizer, population, block_elements = problem
        evaluator = CandidateEvaluator(train, quantizer, seed)
        population = [repair_budget(b) for b in population]
        genes = np.array([b.budgets for b in population])
        with warnings.catch_warnings(), \
                mock.patch.object(objectives, "_BLOCK_ELEMENTS", block_elements), \
                mock.patch.object(objectives, "_macro_recalls",
                                  wraps=objectives._macro_recalls) as macro_recalls:
            warnings.simplefilter("ignore")  # empty classes warn
            evaluator.score(genes, population[0].dim)
            expected = [np.diag(reference_confusion(train, quantizer, seed, b)[1]).tolist()
                        for b in population]
        hits, class_sizes = macro_recalls.call_args.args
        assert hits.tolist() == expected
        assert class_sizes.tolist() == np.bincount(train.labels - 1, minlength=train.n_classes).tolist()

    def test_population_across_blocks_matches_public_pipeline(self, motivational):
        # The acceptance grid: at D=64, M=20 a scoring block holds 31
        # candidates, so these 50 distinct budgets, some of them infeasible
        # until repaired, span two blocks.
        quantizer = calibrate_quantizer(motivational, 20)
        rng = np.random.default_rng(3)
        population = [
            FlipBudget(budgets=rng.integers(0, 4, size=(2, 19)), dim=64) for _ in range(50)
        ]
        assert_population_matches_pipeline(motivational, quantizer, 5, population)
        # The wide problem (N=57, K=2), in blocks of one candidate and in one
        # block: avgSim, finished once over the Grams of every block, keeps
        # each candidate's own bytes.
        wide = generate_linear(400, 57)
        quantizer = calibrate_quantizer(wide, 20)
        population = [
            FlipBudget(budgets=rng.integers(0, 4, size=(57, 19)), dim=64) for _ in range(12)
        ]
        for block_elements in (1, 2**24):
            with mock.patch.object(objectives, "_BLOCK_ELEMENTS", block_elements):
                assert_population_matches_pipeline(wide, quantizer, 5, population)

    @pytest.mark.parametrize("n_features", [1, 2, 57])
    @pytest.mark.parametrize("levels", [2, 20, 255, 256, 300])
    def test_distinct_rows_and_counts_match_unique_rows(self, n_features, levels):
        # 300 samples drawn from 40 level rows, so rows repeat; from 256
        # levels on the row keys take two bytes per level.
        rng = np.random.default_rng([n_features, levels])
        prototypes = rng.integers(0, levels, size=(40, n_features))
        train = Dataset(
            features=prototypes[rng.integers(0, 40, size=300)].astype(np.float64),
            labels=rng.integers(1, 4, size=300),
            label_names=["a", "b", "c"],
        )
        span = np.full(n_features, float(levels))
        quantizer = Quantizer(mins=np.zeros(n_features), maxs=span, levels=levels)
        evaluator = CandidateEvaluator(train, quantizer, 0)
        levels_of = quantizer.quantize_matrix(train.features)
        rows, row_of = np.unique(levels_of, axis=0, return_inverse=True)
        counts = np.zeros((3, len(rows)), dtype=np.int64)
        np.add.at(counts, (train.labels - 1, row_of.reshape(-1)), 1)
        assert evaluator.rows.dtype == rows.dtype and np.array_equal(evaluator.rows, rows)
        assert evaluator.counts.dtype == counts.dtype and np.array_equal(evaluator.counts, counts)

    @pytest.mark.parametrize("label", [0, 3])
    def test_labels_outside_classes_rejected(self, label):
        with pytest.raises(DataError, match=rf"\[{label}\] outside 1..2"):
            Dataset(
                features=np.array([[0.0], [1.0]]),
                labels=np.array([1, label]),
                label_names=["a", "b"],
            )

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_score_ranges(self, micro_dataset, micro_quantizer, b1, b2):
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, 1)
        budget = FlipBudget(budgets=np.array([[b1, b2]]), dim=16)
        if b1 + b2 > 8:
            assert_refused_like_pipeline(evaluator, budget)
            budget = repair_budget(budget)
        scores = evaluator.evaluate(budget)
        assert 0.0 <= scores.wacc <= 1.0
        assert 0.0 < scores.avg_sim <= 1.0
