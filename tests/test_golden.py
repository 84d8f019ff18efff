"""Golden outputs, read here and never written: bench/golden.json (the
benchmark's 3-generation grid front and D=8192 baseline accuracy),
tests/golden_grid150.json (the full 150-generation grid search at seed 0),
tests/golden_search.json (the micro problem's front and hypervolume
trajectory, and the trajectory of the seed-0 150-generation grid search)
and tests/golden_wide.json (a short search on the 57-feature wide problem,
its front and hypervolume trajectory).

A change that alters the search or the scores shows up here as a different
front, trajectory or baseline accuracy. avgSim and hypervolumes may move
within the bench file's relative tolerance; budgets and wAcc must match
exactly.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hvdesign import (
    Dataset,
    GAConfig,
    calibrate_quantizer,
    fit_baseline,
    generate_linear,
    generate_motivational,
    predict_batch,
    run_optimization,
)
from hvdesign.cli import main
from hvdesign.data import save_dataset_csv

ROOT = Path(__file__).parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())
GRID150 = json.loads((ROOT / "tests" / "golden_grid150.json").read_text())
SEARCH = json.loads((ROOT / "tests" / "golden_search.json").read_text())
WIDE = json.loads((ROOT / "tests" / "golden_wide.json").read_text())


def close(got, want):
    return math.isclose(got, float(want), rel_tol=GOLDEN["avg_sim_rel_tol"], abs_tol=0.0)


def assert_hypervolumes(front, spec):
    got = front.generation_hypervolumes
    assert len(got) == spec["generations"] + 1 == len(spec["hypervolumes"])
    assert all(close(g, w) for g, w in zip(got, spec["hypervolumes"]))


def grid_search(spec, seed):
    data = generate_motivational(40, seed=seed)
    quantizer = calibrate_quantizer(data, spec["levels"])
    config = GAConfig(
        population_size=spec["population"],
        generations=spec["generations"],
        seed=seed,
        dim=spec["dim"],
        levels=spec["levels"],
    )
    return run_optimization(data, quantizer, config)


def assert_front(front, spec):
    got = {json.dumps(b.budgets.tolist()): s for b, s in front.members}
    want = {json.dumps(m["budget"]): m for m in spec["front"]}
    assert list(got) == list(want)  # the same members in the same order
    assert all(b.feasible for b, _ in front.members)
    for key, member in want.items():
        assert got[key].wacc == float(member["wacc"])
        assert close(got[key].avg_sim, member["avg_sim"])


@pytest.fixture(scope="module")
def grid150_front():
    return grid_search(GRID150, GRID150["seed"])


def test_ga_grid_front():
    spec = GOLDEN["ga_grid"]
    assert_front(grid_search(spec, GOLDEN["seed"]), spec)


def test_grid_front_150_generations(grid150_front):
    assert_front(grid150_front, GRID150)


def test_micro_search():
    spec = SEARCH["micro"]
    values = np.linspace(0.0, 1.0, 12)
    micro = Dataset(
        features=values[:, None],
        labels=np.array([1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2]),
        label_names=["a", "b"],
        feature_names=["f1"],
    )
    config = GAConfig(
        population_size=spec["population"],
        generations=spec["generations"],
        seed=spec["seed"],
        dim=spec["dim"],
        levels=spec["levels"],
        mutation_rate=spec["mutation_rate"],
    )
    front = run_optimization(micro, calibrate_quantizer(micro, spec["levels"]), config)
    assert_front(front, spec)
    assert_hypervolumes(front, spec)


def test_grid_hypervolumes_150_generations(grid150_front):
    spec = SEARCH["grid150"]
    assert {k: spec[k] for k in ("seed", "population", "generations", "dim", "levels")} == {
        k: GRID150[k] for k in ("seed", "population", "generations", "dim", "levels")
    }
    assert_hypervolumes(grid150_front, spec)


def test_wide_search():
    # Every scoring kernel runs here at N=57, the shape where a block of
    # candidates is smallest and every per-feature loop is longest.
    spec = WIDE
    data = generate_linear(spec["samples"], spec["n_features"], seed=spec["seed"])
    config = GAConfig(
        population_size=spec["population"],
        generations=spec["generations"],
        seed=spec["seed"],
        dim=spec["dim"],
        levels=spec["levels"],
    )
    front = run_optimization(data, calibrate_quantizer(data, spec["levels"]), config)
    assert_front(front, spec)
    assert_hypervolumes(front, spec)


def test_linear_problem_is_the_bench_and_ci_draws():
    # serve_wide and CI's wide page-fault step draw 400 training rows from
    # default_rng([seed, 57]) and label them by the rule written out here;
    # serve_wide then draws its 20 x 100 query pool from the same generator,
    # and its golden digest holds the predictions of the uniform model
    # trained on those rows.
    spec = GOLDEN["serve_wide"]
    seed, n_features = GOLDEN["seed"], spec["n_features"]
    train = generate_linear(400, n_features, seed=seed)
    rng = np.random.default_rng([seed, n_features])
    x = rng.uniform(0.0, 1.0, size=(400, n_features))
    labels = 1 + (x[:, :28].sum(axis=1) > x[:, 28:56].sum(axis=1))
    assert np.array_equal(train.features, x)
    assert np.array_equal(train.labels, labels)
    pool = rng.uniform(-0.1, 1.1, size=(20, 100, n_features))
    model = fit_baseline(train, spec["dim"], spec["levels"], seed)
    predictions = np.concatenate([predict_batch(batch, model) for batch in pool])
    digest = hashlib.sha256(predictions.astype("<i8").tobytes()).hexdigest()
    assert digest == spec["predictions_sha256"]
    # A longer draw starts with the same rows, so its later rows are a test set.
    assert np.array_equal(generate_linear(2400, n_features, seed=seed).features[:400], x)


def test_baseline_d8192_train_wacc(tmp_path, capsys):
    spec = GOLDEN["baseline_d8192"]
    csv_path = str(tmp_path / "grid.csv")
    metrics = tmp_path / "train.json"
    save_dataset_csv(generate_motivational(40, seed=GOLDEN["seed"]), csv_path)
    code = main([
        "train", "--data", csv_path, "--dim", str(spec["dim"]),
        "--levels", str(spec["levels"]), "--seed", str(GOLDEN["seed"]),
        "--metrics-out", str(metrics),
    ])
    assert code == 0
    assert json.loads(metrics.read_text())["train"]["wAcc"] == float(spec["train_wacc"])

