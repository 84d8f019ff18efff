"""Golden outputs, read here and never written: bench/golden.json (the
benchmark's 3-generation grid front and D=8192 baseline accuracy) and
tests/golden_grid150.json (the full 150-generation grid search at seed 0).

A change that alters the search or the scores shows up here as a different
front or a different baseline accuracy. avgSim may move within the bench
file's relative tolerance; budgets and wAcc must match exactly.
"""

import json
import math
from pathlib import Path

from hvdesign import GAConfig, calibrate_quantizer, generate_motivational, run_optimization
from hvdesign.cli import main
from hvdesign.data import save_dataset_csv

ROOT = Path(__file__).parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())
GRID150 = json.loads((ROOT / "tests" / "golden_grid150.json").read_text())


def assert_grid_front(spec, seed):
    data = generate_motivational(40, seed=seed)
    quantizer = calibrate_quantizer(data, spec["levels"])
    config = GAConfig(
        population_size=spec["population"],
        generations=spec["generations"],
        seed=seed,
        dim=spec["dim"],
        levels=spec["levels"],
    )
    front = run_optimization(data, quantizer, config)
    got = {json.dumps(b.budgets.tolist()): s for b, s in front.members}
    want = {json.dumps(m["budget"]): m for m in spec["front"]}
    assert got.keys() == want.keys()
    for key, member in want.items():
        assert got[key].feasible
        assert got[key].wacc == float(member["wacc"])
        assert math.isclose(
            got[key].avg_sim, float(member["avg_sim"]),
            rel_tol=GOLDEN["avg_sim_rel_tol"], abs_tol=0.0,
        )


def test_ga_grid_front():
    assert_grid_front(GOLDEN["ga_grid"], GOLDEN["seed"])


def test_grid_front_150_generations():
    assert_grid_front(GRID150, GRID150["seed"])


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

