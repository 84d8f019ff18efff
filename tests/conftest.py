import json
import struct
import tracemalloc

import numpy as np
import pytest

from hvdesign import Dataset, FlipBudget, calibrate_quantizer, generate_motivational
from hvdesign.hypervector import _repair


def dominates(a, b) -> bool:
    """Pareto dominance of one (wacc, avg_sim) pair over another on
    (max wAcc, min avgSim): the plain pairwise predicate, the independent
    oracle the package's sort-based ranking is checked against."""
    if a.wacc < b.wacc or a.avg_sim > b.avg_sim:
        return False
    return a.wacc > b.wacc or a.avg_sim < b.avg_sim


def repaired(raw, dim: int) -> FlipBudget:
    """The FlipBudget of raw (N, M-1) flip counts, with each row whose sum
    exceeds D/2 scaled down as the GA repairs its genes (`_repair`)."""
    return FlipBudget(budgets=_repair(np.asarray(raw, dtype=np.int64), dim), dim=dim)


def traced_peak(call) -> int:
    """Peak bytes `tracemalloc` traces above the starting level while
    `call()` runs, what it returns included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def oracle_signs(seed, budgets, dim: int) -> np.ndarray:
    """(..., N, M, D) int8 signs of every level that (..., N, M-1) flip
    budgets give under `seed`, from the draws alone: feature n draws its
    base bits, then its flip permutation, from default_rng([seed, n]), and
    level m negates the indices whose rank in that permutation is below
    b_1 + ... + b_{m-1}."""
    budgets = np.asarray(budgets, dtype=np.int64)
    n_features = budgets.shape[-2]
    bases = np.empty((n_features, dim), dtype=np.int64)
    ranks = np.empty((n_features, dim), dtype=np.int64)
    for n in range(n_features):
        rng = np.random.default_rng([seed, n])
        bases[n] = 2 * rng.integers(0, 2, size=dim) - 1
        ranks[n] = np.argsort(rng.permutation(dim))
    prefix = np.concatenate([np.zeros_like(budgets[..., :1]), budgets.cumsum(axis=-1)], axis=-1)
    flipped = ranks[:, None] < prefix[..., None]
    return np.where(flipped, -bases[:, None], bases[:, None]).astype(np.int8)


@pytest.fixture(scope="session")
def sign_oracle():
    """`oracle_signs`, for tests to take as a fixture."""
    return oracle_signs


@pytest.fixture(scope="session")
def motivational():
    return generate_motivational(40, seed=0)


@pytest.fixture(scope="session")
def micro_dataset():
    """12 points on one feature, two classes, quantized at M=3.

    The labels were picked so that the exhaustive Pareto front over all
    9 x 9 flip-budget pairs at D=16 has two members with well-separated
    objective values (no clamp-floor ties)."""
    values = np.linspace(0.0, 1.0, 12)
    labels = np.array([1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2])
    return Dataset(
        features=values[:, None],
        labels=labels,
        label_names=["a", "b"],
        feature_names=["f1"],
    )


@pytest.fixture(scope="session")
def micro_quantizer(micro_dataset):
    return calibrate_quantizer(micro_dataset, 3)


@pytest.fixture
def toy_dataset():
    """Two features, three classes, small enough for exact checks."""
    rng = np.random.default_rng(11)
    features = rng.uniform(0.0, 1.0, size=(30, 2))
    labels = 1 + (features[:, 0] * 3).astype(int).clip(0, 2)
    return Dataset(
        features=features,
        labels=labels,
        label_names=["x", "y", "z"],
        feature_names=["f1", "f2"],
    )


@pytest.fixture(scope="session")
def hand_built_model():
    """Builds the bytes of a model file field by field: D=16, M=3, N features
    named "f1", "f2", ... (one by default) and K classes named "a", "b", ...
    Every part is consistent with the others, so only the class and feature
    counts decide whether it loads."""

    def build(n_classes: int, n_features: int = 1) -> bytes:
        dim, levels, seed = 16, 3, 9
        budget = FlipBudget(budgets=np.full((n_features, 2), 4), dim=dim)
        labels = json.dumps([chr(ord("a") + k) for k in range(n_classes)]).encode()
        names = json.dumps([f"f{i + 1}" for i in range(n_features)]).encode()
        return b"".join([
            b"HDCM",
            struct.pack("<IIIIIQ", 1, dim, n_features, levels, n_classes, seed),
            np.repeat([0.0, 1.0], n_features).astype("<f8").tobytes(),  # minima, then maxima
            budget.budgets.astype("<i4").tobytes(),
            np.packbits(oracle_signs(seed, budget.budgets, dim) > 0).tobytes(),
            np.ones((n_classes, dim), dtype="<i4").tobytes(),
            np.full(n_classes, 3, dtype="<u4").tobytes(),
            struct.pack("<I", len(labels)), labels,
            struct.pack("<I", len(names)), names,
        ])

    return build
