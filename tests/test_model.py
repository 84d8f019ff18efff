import dataclasses
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdesign import (
    ConfigError,
    DataError,
    Dataset,
    DimensionError,
    FlipBudget,
    LevelTable,
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
    train_model,
    uniform_flip_budget,
)
from hvdesign.hypervector import _flip_levels, _schedule
from hvdesign.model import (
    _class_encoders,
    _encoder_weights,
    _gram,
    _projection,
    _row_incidence,
    _winners,
)

from conftest import repaired


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
    budget = repaired(budget, dim)
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
            class_counts=model.class_counts[:2],
        )
        assert classify(np.array([0.5, 0.5]), tied).label == 1

    def test_wrong_feature_count_rejected(self, model):
        with pytest.raises(ShapeError):
            classify(np.array([0.5]), model)

    @pytest.mark.parametrize(
        "shape, error, match",
        [((3, 129), ShapeError, r"encoders must be \(K, 128\), got \(3, 129\)"),
         ((1, 128), DataError, "at least 2 classes")],
        ids=["wide-encoders", "one-class"],
    )
    def test_invalid_encoders_rejected(self, model, shape, error, match):
        with pytest.raises(error, match=match):
            TrainedModel(quantizer=model.quantizer, table=model.table,
                         encoders=np.zeros(shape, dtype=np.int64), labels=model.labels,
                         feature_names=model.feature_names, class_counts=model.class_counts)

    def test_scaling_encoder_preserves_argmax(self, toy_dataset, model):
        scaled = TrainedModel(
            quantizer=model.quantizer,
            table=model.table,
            encoders=model.encoders * 7,
            labels=model.labels,
            feature_names=model.feature_names,
            class_counts=model.class_counts,
        )
        assert np.array_equal(
            predict_batch(toy_dataset.features, model),
            predict_batch(toy_dataset.features, scaled),
        )

    def test_similarities_in_range(self, toy_dataset, model):
        for x in toy_dataset.features[:10]:
            sims = classify(x, model).similarities
            assert np.all(sims >= -1 - 1e-12) and np.all(sims <= 1 + 1e-12)


def stacked_similarities(query, model):
    """The reference for `classify`'s cosines: one Gram matrix of the
    query's hypervector stacked on the encoders."""
    levels = model.quantizer.quantize_matrix(np.asarray(query, dtype=np.float64)[None, :])
    stack = np.concatenate([encode_quantized(levels, model.table), model.encoders])
    return pairwise_similarities(stack)[0, 1:]


def with_encoders(model, encoders):
    return TrainedModel(quantizer=model.quantizer, table=model.table, encoders=encoders,
                        labels=[f"c{k}" for k in range(len(encoders))],
                        feature_names=model.feature_names, class_counts=[0] * len(encoders))


@pytest.fixture(scope="module")
def wide_model():
    """The served benchmark shape: N=57, M=20, D=2048, K=2."""
    rng = np.random.default_rng([0, 57])
    x = rng.uniform(0.0, 1.0, size=(400, 57))
    labels = 1 + (x[:, :28].sum(axis=1) > x[:, 28:56].sum(axis=1))
    model = fit_baseline(Dataset(features=x, labels=labels, label_names=["neg", "pos"]),
                         2048, 20, seed=0)
    # Queries reach 10% past the calibrated range, so some clamp.
    return model, rng.uniform(-0.1, 1.1, size=(25, 57))


@pytest.fixture(scope="module")
def grid_model(motivational):
    model = fit_baseline(motivational, 64, 20, seed=0)
    return model, motivational.features[::80]


class TestClassifyGram:
    """`classify` builds the (K+1, K+1) Gram of the query and the encoders
    from the projection and the encoders' Gram: the same cosine bytes as one
    Gram of the stacked vectors, and `predict_batch`'s label."""

    @staticmethod
    def check(model, queries):
        for query in queries:
            prediction = classify(query, model)
            want = stacked_similarities(query, model)
            assert prediction.similarities.dtype == want.dtype
            assert prediction.similarities.tobytes() == want.tobytes()
            assert prediction.label == predict_batch(query[None, :], model)[0]

    def test_wide_model(self, wide_model):
        self.check(*wide_model)

    def test_grid_model(self, grid_model):
        self.check(*grid_model)

    def test_zero_encoder(self, grid_model):
        model, queries = grid_model
        encoders = model.encoders.copy()
        encoders[1] = 0
        zeroed = with_encoders(model, encoders)
        self.check(zeroed, queries)
        assert all(classify(q, zeroed).similarities[1] == 0.0 for q in queries)

    def test_zero_query_reads_zero(self):
        # Feature 2's base is feature 1's negated and no level flips a bit,
        # so every query encodes to the zero vector.
        budget = FlipBudget(budgets=np.zeros((2, 3), dtype=np.int64), dim=8)
        table = build_level_table(3, budget)
        bases = np.stack([table.bases[0], -table.bases[0]])
        table = LevelTable(bases=bases, flips=table.flips, budgets=budget, seed=3)
        model = TrainedModel(
            quantizer=Quantizer(mins=np.zeros(2), maxs=np.ones(2), levels=4),
            table=table,
            encoders=np.array([[1, -2, 3, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 0],
                               [-1, -1, -1, -1, 2, 2, 2, 2]]),
            labels=["a", "b", "c"],
            feature_names=["f1", "f2"],
            class_counts=[1, 0, 1],
        )
        queries = np.array([[0.1, 0.9], [0.6, 0.3], [2.0, -1.0]])
        assert not encode_quantized(model.quantizer.quantize_matrix(queries), table).any()
        self.check(model, queries)
        for query in queries:
            assert classify(query, model).similarities.tolist() == [0.0, 0.0, 0.0]

    @given(training_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_stacked_gram(self, problem, seed):
        train, quantizer, budget, queries = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty classes warn
            model = train_model(train, quantizer, budget, seed)
        self.check(model, np.vstack([train.features, queries]))

    def test_scoring_bound_checked(self, grid_model):
        model, queries = grid_model
        with pytest.raises(DataError, match="exact scoring"):
            classify(queries[0], with_encoders(model, model.encoders * 2**46))

    def test_cosine_bound_checked(self):
        # D=2, N=1: the projection's N*D*|E| = 2**41 fits under 2**53, but
        # the Gram's D*|E|**2 = 2**81 does not fit under 2**63.
        table = build_level_table(5, FlipBudget(budgets=np.array([[0]]), dim=2))
        model = TrainedModel(
            quantizer=Quantizer(mins=np.zeros(1), maxs=np.ones(1), levels=2),
            table=table,
            encoders=np.array([[2**40, 1], [1, 2**40]]),
            labels=["a", "b"],
            feature_names=["f1"],
            class_counts=[1, 1],
        )
        with pytest.raises(DataError, match="too large for exact cosines"):
            classify(np.array([0.5]), model)


class TestSinglePassTraining:
    def test_retraining_is_identical(self, toy_dataset):
        a = fit_baseline(toy_dataset, 64, 5, seed=3)
        b = fit_baseline(toy_dataset, 64, 5, seed=3)
        assert np.array_equal(a.encoders, b.encoders)
        assert a == b

    def test_encoders_are_kept_uncopied(self, toy_dataset):
        # The kernel's fresh (1, K, D) output is marked read-only, so the
        # model holds a view of its row 0, not a copy.
        model = fit_baseline(toy_dataset, 64, 5, seed=3)
        assert not model.encoders.flags.writeable
        assert model.encoders.base is not None
        assert model.encoders.shape == (3, 64) and model.encoders.dtype == np.int64

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

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError, match=r"labels \[3\] outside 1..2"):
            Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([1, 3]),
                    label_names=["a", "b"])


class TestModelRules:
    """A model is valid by construction: each rule of a model is refused,
    with one line, where the model (or its dataset) is built, so no model
    `save_model` writes is refused by `load_model`."""

    @pytest.fixture
    def model(self, toy_dataset):
        return fit_baseline(toy_dataset, 64, 5, seed=21)

    @staticmethod
    def refused(error, match, build):
        with pytest.raises(error, match=match) as caught:
            build()
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"labels": ["x", "x", "z"]}, "label list does not name 3 classes"),
            ({"labels": [1, 2, 3]}, "label list does not name 3 classes"),
            ({"labels": ["x", "y"]}, "label list does not name 3 classes"),
            ({"feature_names": ["only"]}, "feature name list does not name 2 features"),
            ({"feature_names": [1, 2]}, "feature name list does not name 2 features"),
            ({"class_counts": [10, 10]}, "need 3 non-negative integer class counts"),
            ({"class_counts": []}, "need 3 non-negative integer class counts"),
            ({"class_counts": [1, -1, 1]}, "need 3 non-negative integer class counts"),
            ({"class_counts": [1.0, 1.0, 1.0]}, "need 3 non-negative integer class counts"),
        ],
        ids=["repeated-label", "labels-not-strings", "two-labels", "one-feature-name",
             "feature-names-not-strings", "two-counts", "no-counts", "negative-count",
             "float-counts"],
    )
    def test_bad_part_refused_at_construction(self, model, change, match):
        self.refused(DataError, match, lambda: dataclasses.replace(model, **change))

    def test_quantizer_and_table_must_agree(self, model):
        other = Quantizer(mins=np.zeros(2), maxs=np.ones(2), levels=4)
        self.refused(ShapeError, r"budget shape \(2, 4\) does not match dataset N=2, M=4",
                     lambda: dataclasses.replace(model, quantizer=other))

    @pytest.mark.parametrize("label_names", [["a", "a"], [1, 2], ("a", "b")],
                             ids=["repeated-label", "labels-not-strings", "labels-not-a-list"])
    def test_training_refuses_bad_label_names(self, label_names):
        # A search on labels ['a', 'a', 'b', 'c'] used to run to its end, and
        # only the training that followed refused them. The split itself
        # refuses them when it is built, so no search or training can start.
        self.refused(DataError, "^label names must be distinct strings$", lambda: Dataset(
            features=np.array([[0.0, 1.0], [1.0, 0.0]]), labels=np.array([1, 2]),
            label_names=label_names,
        ))

    def test_dataset_refuses_feature_names_of_another_count(self):
        self.refused(ShapeError, "1 feature names for 2 features", lambda: Dataset(
            features=np.zeros((2, 2)), labels=np.array([1, 2]), label_names=["a", "b"],
            feature_names=["only"],
        ))

    @pytest.mark.parametrize("n_features, levels", [(1, 5), (3, 5), (2, 4)],
                             ids=["one-feature", "three-features", "four-levels"])
    def test_training_refuses_budget_of_another_shape(self, toy_dataset, n_features, levels):
        # The toy quantizer has N=2, M=5; refused before the table is built.
        quantizer = Quantizer(mins=np.zeros(2), maxs=np.ones(2), levels=5)
        budget = uniform_flip_budget(64, levels, features=n_features)
        with mock.patch("hvdesign.model.build_level_table") as build:
            self.refused(
                ShapeError,
                rf"budget shape \({n_features}, {levels - 1}\) does not match dataset N=2, M=5",
                lambda: train_model(toy_dataset, quantizer, budget, 0),
            )
        build.assert_not_called()


def level_signs(bases, flips, n_levels):
    """(P, N, M, D) int8 signs of the levels that (N, D) base signs and
    (P, N, D) flip levels give: level m of feature n is base[n, d] up to
    level flips[p, n, d] and -base[n, d] above it."""
    above = np.arange(1, n_levels + 1)[:, None] > flips[:, :, None]
    return np.where(above, -bases[:, None], bases[:, None]).astype(np.int8)


def sign_path_encoders(signs, histogram):
    """(P, K, D) int64 encoders E = H @ L, one float64 product a feature,
    from (P, N, M, D) level signs: the kernel the flip-level form replaced."""
    n_candidates, n_features, n_levels, dim = signs.shape
    per_feature = histogram.reshape(-1, n_features, n_levels).astype(np.float64)
    encoders = np.zeros((n_candidates, histogram.shape[0], dim))
    for n in range(n_features):
        encoders += per_feature[:, n] @ signs[:, n]
    return encoders.astype(np.int64)


def sign_path_projection(signs, encoders):
    """(P, K, N, M) int64 projection L[n, m] . e_k, one float64 product a
    feature, from (P, N, M, D) level signs."""
    n_candidates, n_features, n_levels, dim = signs.shape
    columns = encoders.transpose(0, 2, 1).astype(np.float64)
    projection = np.empty((n_candidates, n_features, n_levels, encoders.shape[1]))
    for n in range(n_features):
        np.matmul(signs[:, n], columns, out=projection[:, n])
    return projection.astype(np.int64).transpose(0, 3, 1, 2)


@st.composite
def kernel_problems(draw):
    """A seed, D, the (P, N, M-1) budgets of P candidates and a (K, N*M)
    class x level histogram. Each budget row is zero, sums to D/2 or is
    free below D/2; counts reach up to 10**6."""
    dim = draw(st.sampled_from([2, 10, 64, 2048]))
    n_candidates, n_features = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n_levels, n_classes = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["zero", "half", "free"]),
                          min_size=n_candidates * n_features,
                          max_size=n_candidates * n_features))
    cuts = np.sort(rng.integers(0, dim // 2 + 1, size=(len(kinds), n_levels - 1)), axis=1)
    for row, kind in zip(cuts, kinds):
        if kind == "zero":
            row[:] = 0
        elif kind == "half":
            row[-1] = dim // 2
    budgets = np.diff(cuts, prepend=0).reshape(n_candidates, n_features, n_levels - 1)
    top = draw(st.sampled_from([1, 50, 10**6]))
    histogram = rng.integers(0, top + 1, size=(n_classes, n_features * n_levels))
    return draw(st.integers(0, 2**32 - 1)), dim, budgets, histogram


@st.composite
def winner_problems(draw):
    """(N, D) base signs, (P, N, D) flip levels (any of 1..M), (P, K, D)
    encoders, (S, N) level rows and M.

    Each class's encoder is free, zero, a multiple of an earlier class's
    free draw (an exact tie), a 10**5 multiple of one with one entry moved
    by one (a near tie), or a multiple of a level hypervector."""
    n_candidates = draw(st.integers(1, 6))
    n_classes = draw(st.sampled_from([2, 4, 7]))
    n_features, n_levels = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    dim = draw(st.sampled_from([2, 4, 16]))
    kinds = draw(st.lists(st.sampled_from(["free", "zero", "multiple", "near", "level"]),
                          min_size=n_classes, max_size=n_classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_features, dim))
    flips = rng.integers(1, n_levels + 1, size=(n_candidates, n_features, dim))
    signs = level_signs(bases, flips, n_levels)
    free = rng.integers(-3, 4, size=(n_candidates, n_classes, dim))
    encoders = free.copy()
    for k, kind in enumerate(kinds):
        if kind == "zero":
            encoders[:, k] = 0
        elif kind == "multiple" and k:
            encoders[:, k] = free[:, rng.integers(k)] * rng.integers(1, 4)
        elif kind == "near" and k:
            encoders[:, k] = free[:, rng.integers(k)] * 10**5
            encoders[:, k, rng.integers(dim)] += rng.choice([-1, 1])
        elif kind == "level":
            level = signs[:, rng.integers(n_features), rng.integers(n_levels)]
            encoders[:, k] = level * rng.integers(-2, 3)
    levels = rng.integers(1, n_levels + 1, size=(draw(st.integers(1, 20)), n_features))
    return bases, flips, encoders, levels, n_levels


def reference_winners(signs, encoders, levels):
    """(P, S) labels: per candidate and row, the k of the largest exact
    sign(x . e_k) * (x . e_k)**2 / |e_k|**2 (0 for a zero encoder), lowest k first."""
    labels = []
    for p in range(len(signs)):
        encoder_rows = encoders[p].tolist()
        sq_norms = [sum(v * v for v in e) for e in encoder_rows]
        row_labels = []
        for row in levels.tolist():
            x = signs[p, np.arange(len(row)), np.array(row) - 1].sum(axis=0).tolist()
            dots = [sum(a * b for a, b in zip(x, e)) for e in encoder_rows]
            scores = [Fraction(d * abs(d), q) if q else Fraction(0) for d, q in zip(dots, sq_norms)]
            row_labels.append(1 + max(range(len(scores)), key=lambda k: (scores[k], -k)))
        labels.append(row_labels)
    return labels


class TestLevelSpaceKernel:
    @given(kernel_problems())
    @settings(max_examples=200, deadline=None)
    def test_flip_level_kernel_matches_sign_path(self, sign_oracle, problem):
        # The same bytes as the per-feature sign products it replaced, for
        # one candidate and many, zero budgets and rows at D/2.
        seed, dim, budgets, histogram = problem
        n_levels = budgets.shape[2] + 1
        signs = sign_oracle(seed, budgets, dim)  # (P, N, M, D)
        bases, slots = _schedule(seed, budgets.shape[1], dim)
        flips = _flip_levels(slots, budgets)
        assert flips.dtype == np.min_scalar_type(n_levels)
        assert np.array_equal(level_signs(bases, flips, n_levels), signs)
        encoders = _class_encoders(bases, flips, _encoder_weights(histogram, n_levels))
        want = sign_path_encoders(signs, histogram)
        assert encoders.dtype == want.dtype and encoders.tobytes() == want.tobytes()
        got = _projection(bases, flips, encoders, n_levels)
        want = sign_path_projection(signs, encoders)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got, np.round(got))  # every value a whole number
        assert got.astype(np.int64).tobytes() == want.tobytes()

    def test_projection_exact_at_its_bound(self):
        # N=1, D=4 and max|E| = 2**51 - 1: N*D*max|E| = 2**53 - 4, the
        # largest the bound lets through, and an encoder along the base
        # vector projects level 1 onto 2**53 - 4, past 2**52, where float64
        # no longer holds every integer.
        dim, n_levels, top = 4, 3, 2**51 - 1
        bases, slots = _schedule(3, 1, dim)
        flips = _flip_levels(slots, np.array([[[1, 1]], [[2, 0]]]))
        encoders = np.random.default_rng(0).integers(-top, top + 1, size=(2, 3, dim))
        encoders[:, 0] = top * bases[0].astype(np.int64)
        got = _projection(bases, flips, encoders, n_levels)
        assert got.shape == (2, 3, 1, n_levels) and got.dtype == np.float64
        assert np.abs(got).max() == 2**53 - 4
        signs = level_signs(bases, flips, n_levels).tolist()  # (P, N, M, D)
        want = [
            [[[sum(s * e for s, e in zip(level, encoder)) for level in feature]
              for feature in signs[p]] for encoder in encoders[p].tolist()]
            for p in range(len(encoders))
        ]
        assert [[[[int(v) for v in row] for row in k] for k in p] for p in got.tolist()] == want
        encoders[1, 2, 3] = top + 1  # N*D*max|E| = 2**53
        with pytest.raises(DataError, match="exact scoring"):
            _projection(bases, flips, encoders, n_levels)

    @given(winner_problems())
    @settings(max_examples=300, deadline=None)
    def test_winners_match_exact_reference(self, problem):
        bases, flips, encoders, levels, n_levels = problem
        projection = _projection(bases, flips, encoders, n_levels)
        gram = _gram(encoders)
        won = _winners(projection, gram, levels)
        assert won.shape == (len(flips), encoders.shape[1], len(levels))
        assert won.dtype == bool and np.all(won.sum(axis=1) == 1)
        signs = level_signs(bases, flips, n_levels)
        assert (won.argmax(axis=1) + 1).tolist() == reference_winners(signs, encoders, levels)
        summed = _winners(projection, gram, levels, _row_incidence(levels, n_levels))
        assert np.array_equal(summed, won)

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
        base = table.bases[0].astype(np.int64)
        model = TrainedModel(
            quantizer=Quantizer(mins=np.zeros(1), maxs=np.ones(1), levels=2),
            table=table,
            encoders=np.array([m * base + [o * base[0], 0] for m, o in zip(multiples, offsets)]),
            labels=[f"c{k}" for k in range(len(multiples))],
            feature_names=["f1"],
            class_counts=[1] * len(multiples),
        )
        assert predict_batch(np.array([[0.2], [0.9]]), model).tolist() == [label, label]
        assert classify(np.array([0.2]), model).label == label

    def test_encoder_sum_bound_checked(self):
        # A class of S samples sums N*S level hypervectors; the bound is on S*N.
        _encoder_weights(np.array([[2**52, 2**52 - 1]]), 2)
        with pytest.raises(DataError, match="too large for exact encoder sums"):
            _encoder_weights(np.array([[1, 0], [2**52, 2**52]]), 2)

    def test_exactness_bound_checked(self, toy_dataset):
        model = fit_baseline(toy_dataset, 64, 5, seed=7)
        huge = TrainedModel(
            quantizer=model.quantizer,
            table=model.table,
            encoders=model.encoders * 2**46,
            labels=model.labels,
            feature_names=model.feature_names,
            class_counts=model.class_counts,
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

    @pytest.mark.parametrize("trials, seed, match", [
        (True, 0, "^trials must be an integer, got True$"),
        (2.0, 0, "^trials must be an integer, got 2.0$"),
        (2, 1.5, "^seed must be an integer, got 1.5$"),
        (2, -1, r"^seed must be in \[0, 2\*\*64\), got -1$"),
    ])
    def test_counts_and_seeds_must_be_integers(self, trials, seed, match):
        for mode in ("chained", "orthogonal"):
            with pytest.raises(ConfigError, match=match):
                appendix_experiment(64, trials, mode, seed=seed)

    @pytest.mark.parametrize("dim", [63, 0, 1, -2, 64.0])
    @pytest.mark.parametrize("mode", ["chained", "orthogonal"])
    def test_dimension_must_be_even_and_at_least_two(self, dim, mode):
        with pytest.raises(DimensionError, match="^dimension must be even and >= 2, got "):
            appendix_experiment(dim, 2, mode)
