import json
import struct

import numpy as np
import pytest

from hvdesign import Dataset, FlipBudget, build_level_table, calibrate_quantizer, generate_motivational


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
    """Builds the bytes of a model file field by field: D=16, N=1, M=3 and
    K classes named "a", "b", ... Every part is consistent with the others,
    so only the class count decides whether it loads."""

    def build(n_classes: int) -> bytes:
        dim, levels, seed = 16, 3, 9
        budget = FlipBudget(budgets=np.array([[4, 4]]), dim=dim)
        table = build_level_table(seed, budget)
        labels = json.dumps([chr(ord("a") + k) for k in range(n_classes)]).encode()
        return b"".join([
            b"HDCM",
            struct.pack("<IIIIIQ", 1, dim, 1, levels, n_classes, seed),
            np.array([0.0, 1.0], dtype="<f8").tobytes(),  # min, then max
            budget.budgets.astype("<i4").tobytes(),
            np.packbits(table.signs.reshape(-1) > 0).tobytes(),
            np.ones((n_classes, dim), dtype="<i4").tobytes(),
            np.full(n_classes, 3, dtype="<u4").tobytes(),
            struct.pack("<I", len(labels)), labels,
            struct.pack("<I", 6), b'["f1"]',
        ])

    return build
