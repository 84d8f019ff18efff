import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdesign import (
    DataError,
    Dataset,
    FlipBudget,
    Quantizer,
    ShapeError,
    TrainedModel,
    appendix_experiment,
    build_level_table,
    classify,
    encode_quantized,
    fit_baseline,
    pairwise_similarities,
    predict_batch,
    repair_budget,
    train_model,
    uniform_flip_budget,
)


def score_beats(dot_a, sq_norm_a, dot_b, sq_norm_b):
    """dot_a / |e_a| > dot_b / |e_b| in exact integers; a zero encoder scores 0."""
    sign_a = (dot_a > 0) - (dot_a < 0) if sq_norm_a else 0
    sign_b = (dot_b > 0) - (dot_b < 0) if sq_norm_b else 0
    if sign_a != sign_b or sign_a == 0:
        return sign_a > sign_b
    lhs, rhs = dot_a * dot_a * sq_norm_b, dot_b * dot_b * sq_norm_a
    return lhs > rhs if sign_a > 0 else lhs < rhs


def class_sums(samples, labels, n_classes):
    """Oracle encoders: row k-1 sums the samples of class k."""
    return np.array([samples[labels == k].sum(axis=0) for k in range(1, n_classes + 1)])


def reference_labels(queries, encoders):
    """Argmax of x . e_k / |e_k| per encoded query, ties to the lowest k."""
    encoders = [[int(v) for v in e] for e in encoders]
    sq_norms = [sum(v * v for v in e) for e in encoders]
    labels = []
    for x in queries:
        dots = [sum(int(a) * b for a, b in zip(x, e)) for e in encoders]
        best = 0
        for k in range(1, len(encoders)):
            if score_beats(dots[k], sq_norms[k], dots[best], sq_norms[best]):
                best = k
        labels.append(best + 1)
    return labels


@st.composite
def training_problems(draw):
    """A small training split whose features are level numbers (so rows
    repeat), K classes of which some may be empty, a repaired budget whose
    rows may be all zero, and query rows."""
    dim = draw(st.sampled_from([2, 4, 16, 64]))
    n_feat = draw(st.integers(1, 3))
    levels = draw(st.integers(2, 5))
    n_classes = draw(st.integers(2, 4))
    level_rows = st.lists(st.integers(1, levels), min_size=n_feat, max_size=n_feat)
    rows = draw(st.lists(level_rows, min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(1, n_classes), min_size=len(rows), max_size=len(rows)))
    queries = draw(st.lists(level_rows, min_size=1, max_size=10))
    budget = draw(st.lists(
        st.lists(st.integers(0, dim // 2), min_size=levels - 1, max_size=levels - 1),
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
    budget = repair_budget(FlipBudget(budgets=np.array(budget), dim=dim))
    return train, quantizer, budget, np.array(queries, dtype=np.float64)


class TestCosineSimilarity:
    """Two-row cases of pairwise_similarities; entry [0, 1] is cos(a, b)."""

    def test_identity(self):
        v = np.array([3, -1, 2])
        assert pairwise_similarities(np.stack([v, v]))[0, 1] == pytest.approx(1.0)

    def test_antipodal(self):
        v = np.array([3, -1, 2])
        assert pairwise_similarities(np.stack([v, -v]))[0, 1] == pytest.approx(-1.0)

    def test_zero_norm_convention(self):
        sims = pairwise_similarities(np.array([[1, 2], [0, 0]]))
        assert sims[0, 1] == 0.0 and sims[1, 0] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        sims = pairwise_similarities(rng.integers(-5, 6, size=(2, 32)))
        assert np.all((-1.0 - 1e-12 <= sims) & (sims <= 1.0 + 1e-12))


class TestClassify:
    @pytest.fixture
    def model(self, toy_dataset):
        return fit_baseline(toy_dataset, 128, 5, seed=7)

    def test_encoder_replay_hits_its_class(self, toy_dataset, model):
        # A query that encodes exactly to one training sample of a
        # single-sample class would match; here check similarity argmax
        # agrees between classify and predict_batch on every sample.
        batch = predict_batch(toy_dataset.features, model)
        singles = [classify(x, model).label for x in toy_dataset.features]
        assert batch.tolist() == singles

    def test_tie_breaks_to_lowest_index(self, model):
        prediction = classify(np.array([0.5, 0.5]), model)
        sims = prediction.similarities
        assert prediction.label == int(np.argmax(sims)) + 1
        # Duplicate encoders force an exact tie; lowest class index wins.
        tied = TrainedModel(
            quantizer=model.quantizer,
            table=model.table,
            encoders=np.vstack([model.encoders[0], model.encoders[0]]),
            labels=["a", "b"],
            feature_names=model.feature_names,
            metadata=model.metadata,
        )
        assert classify(np.array([0.5, 0.5]), tied).label == 1

    def test_wrong_feature_count_rejected(self, model):
        with pytest.raises(ShapeError):
            classify(np.array([0.5]), model)

    def test_scaling_encoder_preserves_argmax(self, toy_dataset, model):
        scaled = TrainedModel(
            quantizer=model.quantizer,
            table=model.table,
            encoders=model.encoders * 7,
            labels=model.labels,
            feature_names=model.feature_names,
            metadata=model.metadata,
        )
        assert np.array_equal(
            predict_batch(toy_dataset.features, model),
            predict_batch(toy_dataset.features, scaled),
        )

    def test_similarities_in_range(self, toy_dataset, model):
        for x in toy_dataset.features[:10]:
            sims = classify(x, model).similarities
            assert np.all(sims >= -1 - 1e-12) and np.all(sims <= 1 + 1e-12)


class TestSinglePassTraining:
    def test_retraining_is_identical(self, toy_dataset):
        a = fit_baseline(toy_dataset, 64, 5, seed=3)
        b = fit_baseline(toy_dataset, 64, 5, seed=3)
        assert np.array_equal(a.encoders, b.encoders)
        assert a == b

    def test_batch_partition_independent(self, toy_dataset):
        model = fit_baseline(toy_dataset, 64, 5, seed=3)
        whole = predict_batch(toy_dataset.features, model)
        halves = np.concatenate(
            [
                predict_batch(toy_dataset.features[:15], model),
                predict_batch(toy_dataset.features[15:], model),
            ]
        )
        assert np.array_equal(whole, halves)

    @pytest.fixture
    def one_feature(self):
        """train_model's arguments but the dataset: one feature, M=3, D=16."""
        quantizer = Quantizer(mins=np.zeros(1), maxs=np.ones(1), levels=3)
        return quantizer, uniform_flip_budget(16, 3), 0

    def test_empty_class_warns_zero_encoder(self, one_feature):
        train = Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([1, 1]),
                        label_names=["a", "b"])
        with pytest.warns(UserWarning, match=r"classes \[2\] have no training samples"):
            model = train_model(train, *one_feature)
        assert model.encoders[0].any()
        assert not model.encoders[1].any()

    def test_out_of_range_label_rejected(self, one_feature):
        train = Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([1, 3]),
                        label_names=["a", "b"])
        with pytest.raises(DataError, match=r"labels \[3\] outside 1..2"):
            train_model(train, *one_feature)


class TestLevelSpaceKernel:
    @given(training_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    @example(  # D=2, zero budget: every level is the base vector, all scores tie
        (
            Dataset(
                features=np.array([[1.0], [2.0], [2.0], [1.0]]),
                labels=np.array([1, 2, 2, 1]),
                label_names=["a", "b", "c"],
            ),
            Quantizer(mins=np.ones(1), maxs=np.full(1, 3.0), levels=2),
            FlipBudget(budgets=np.array([[0]]), dim=2),
            np.array([[1.0], [2.0]]),
        ),
        0,
    )
    def test_matches_exact_reference(self, problem, seed):
        train, quantizer, budget, queries = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty classes warn
            model = train_model(train, quantizer, budget, seed)
            table = model.table
            encoders = class_sums(
                encode_quantized(quantizer.quantize_matrix(train.features), table),
                train.labels, train.n_classes,
            )
        assert table == build_level_table(seed, budget)
        assert np.array_equal(model.encoders, encoders)

        features = np.vstack([train.features, queries])
        expected = reference_labels(
            encode_quantized(quantizer.quantize_matrix(features), table), encoders
        )
        assert predict_batch(features, model).tolist() == expected
        assert [classify(x, model).label for x in features] == expected
        for x, label in zip(queries, expected[train.n_samples:]):
            duplicates = predict_batch(np.repeat(x[None, :], 7, axis=0), model)
            assert predict_batch(x[None, :], model).tolist() == [label]
            assert duplicates.tolist() == [label] * 7

    @pytest.mark.parametrize(
        "multiples, offsets, label",
        [
            # b and 3b have equal cosine; in floats 2/sqrt(2) < 6/sqrt(18).
            ([1, 3], [0, 0], 1),
            # Both zero encoders score 0, above -b; the lower one wins.
            ([-1, 0, 0], [0, 0, 0], 2),
            # Cosines 1e-11 apart, both negative: the smaller magnitude wins.
            ([-1, -10**5], [0, -1], 2),
            ([1, 10**5], [0, 1], 1),
        ],
        ids=["proportional", "zero-encoders", "near-negative", "near-positive"],
    )
    def test_exact_and_near_ties(self, multiples, offsets, label):
        # D=2, one feature, zero budget: every query encodes to the base b.
        table = build_level_table(5, FlipBudget(budgets=np.array([[0]]), dim=2))
        base = table.signs[0, 0].astype(np.int64)
        model = TrainedModel(
            quantizer=Quantizer(mins=np.zeros(1), maxs=np.ones(1), levels=2),
            table=table,
            encoders=np.array([m * base + [o * base[0], 0] for m, o in zip(multiples, offsets)]),
            labels=[f"c{k}" for k in range(len(multiples))],
            feature_names=["f1"],
            metadata={"seed": 5},
        )
        assert predict_batch(np.array([[0.2], [0.9]]), model).tolist() == [label, label]
        assert classify(np.array([0.2]), model).label == label

    def test_exactness_bound_checked(self, toy_dataset):
        model = fit_baseline(toy_dataset, 64, 5, seed=7)
        huge = TrainedModel(
            quantizer=model.quantizer,
            table=model.table,
            encoders=model.encoders * 2**46,
            labels=model.labels,
            feature_names=model.feature_names,
            metadata=model.metadata,
        )
        with pytest.raises(DataError, match="exact scoring"):
            predict_batch(toy_dataset.features, huge)


class TestAppendixExperiment:
    def test_chained_boundary_query_is_class_2(self):
        # Deterministic single-trial check of the worked scenario at D=1024.
        assert appendix_experiment(1024, 1, "chained", seed=0) == 1.0

    def test_chained_mostly_correct(self):
        assert appendix_experiment(1024, 100, "chained", seed=1) >= 0.95

    def test_orthogonal_near_random(self):
        assert 0.35 <= appendix_experiment(1024, 100, "orthogonal", seed=1) <= 0.65

    def test_deterministic(self):
        runs = {appendix_experiment(256, 20, "chained", seed=5) for _ in range(3)}
        assert len(runs) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            appendix_experiment(256, 0, "chained")
        with pytest.raises(ValueError):
            appendix_experiment(256, 5, "diagonal")
