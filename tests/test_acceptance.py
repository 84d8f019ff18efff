"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The first criterion runs
the full-size optimizer three times and takes a few minutes; everything
else is fast.
"""

import itertools
import os

import numpy as np
import pytest

from hvdesign import (
    CandidateEvaluator,
    FlipBudget,
    GAConfig,
    build_level_table,
    calibrate_quantizer,
    confusion_matrix,
    fit_baseline,
    level_vector,
    predict_batch,
    run_optimization,
    uniform_flip_budget,
    weighted_accuracy,
    avg_similarity,
    appendix_experiment,
    generate_motivational,
    save_model,
)
from hvdesign.cli import main as cli_main
from hvdesign.data import Dataset

from conftest import dominates


def report(number: int, description: str, passed: bool):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


collected_fronts = []


@pytest.fixture(scope="module")
def motivational_fronts():
    data = generate_motivational(40, seed=0)
    quantizer = calibrate_quantizer(data, 20)
    fronts = []
    for seed in (0, 1, 2):
        config = GAConfig(
            population_size=200, generations=150, seed=seed, dim=64, levels=20
        )
        front = run_optimization(data, quantizer, config)
        fronts.append(front)
        collected_fronts.append(front)
    return data, fronts


@pytest.fixture(scope="module")
def micro_problem():
    values = np.linspace(0.0, 1.0, 12)
    labels = np.array([1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2])
    dataset = Dataset(
        features=values[:, None],
        labels=labels,
        label_names=["a", "b"],
        feature_names=["f1"],
    )
    return dataset, calibrate_quantizer(dataset, 3)


class TestCriterion1MotivationalExample:
    def test_baseline_high_dim_misclassifies(self):
        data = generate_motivational(40, seed=0)
        model = fit_baseline(data, 8192, 20, seed=0)
        predicted = predict_batch(data.features, model)
        wacc = weighted_accuracy(confusion_matrix(data.labels, predicted, 4))
        report(1, f"baseline D=8192 training wAcc {wacc:.4f} < 1.0", wacc < 1.0)

    def test_optimized_low_dim_reaches_full_accuracy(self, motivational_fronts):
        _, fronts = motivational_fronts
        best = [max(s.wacc for _, s in front.members) for front in fronts]
        report(
            1,
            f"optimized D=64 best wAcc across 3 seeds {['%.4f' % b for b in best]} >= 0.995",
            all(b >= 0.995 for b in best),
        )


class TestCriterion2UniformBudgetFormula:
    def test_worked_value(self):
        budget = uniform_flip_budget(1000, 10)
        report(2, "uniform_flip_budget(1000, 10) == 55 everywhere",
               bool(np.all(budget.budgets == 55)))


class TestCriterion3FullBudgetOrthogonality:
    @pytest.mark.parametrize("dim", [16, 64, 1024])
    def test_exact_orthogonality(self, dim):
        rng = np.random.default_rng(dim)
        dots = []
        for trial in range(100):
            row = rng.multinomial(dim // 2, np.ones(5) / 5)
            budget = FlipBudget(budgets=row[None, :], dim=dim)
            table = build_level_table(trial, budget)
            first, last = level_vector(table, 0, 1), level_vector(table, 0, 6)
            dots.append(int(first.astype(np.int64) @ last))
        report(3, f"D={dim}: dot(L1, LM) == 0 for 100 full-budget rows",
               all(d == 0 for d in dots))


class TestCriterion4AppendixLevelDependency:
    def test_chained_mode(self):
        fraction = appendix_experiment(1024, 500, "chained", seed=0)
        report(4, f"chained mode fraction correct {fraction:.3f} >= 0.95", fraction >= 0.95)

    def test_orthogonal_mode(self):
        fraction = appendix_experiment(1024, 500, "orthogonal", seed=0)
        report(4, f"orthogonal mode fraction correct {fraction:.3f} in [0.35, 0.65]",
               0.35 <= fraction <= 0.65)


class TestCriterion5ParetoOracle:
    def test_front_equals_exhaustive_enumeration(self, micro_problem):
        dataset, quantizer = micro_problem
        evaluator = CandidateEvaluator(dataset, quantizer, 123)
        # The 45 feasible budgets: (b1, b2) in 0..8 with b1 + b2 <= D/2 = 8.
        scored = {
            (b1, b2): evaluator.evaluate(FlipBudget(budgets=np.array([[b1, b2]]), dim=16))
            for b1 in range(9)
            for b2 in range(9)
            if b1 + b2 <= 8
        }
        oracle = {
            key
            for key, s in scored.items()
            if not any(dominates(o, s) for k2, o in scored.items() if k2 != key)
        }
        config = GAConfig(
            population_size=40, generations=50, seed=123, dim=16, levels=3,
            mutation_rate=0.3,
        )
        front = run_optimization(dataset, quantizer, config)
        collected_fronts.append(front)
        got = {tuple(int(v) for v in b.budgets.ravel()) for b, _ in front.members}
        report(5, f"GA front {sorted(got)} == exhaustive front {sorted(oracle)}",
               got == oracle)


class TestCriterion6FrontInvariants:
    def test_all_collected_fronts(self, motivational_fronts, micro_problem):
        checked = 0
        ok = True
        for front in collected_fronts:
            for budget, _ in front.members:
                ok &= bool(np.all(budget.row_sums <= budget.dim // 2))
            for (_, si), (_, sj) in itertools.permutations(front.members, 2):
                ok &= not dominates(si, sj)
            checked += 1
        report(6, f"non-domination and row-sum feasibility on {checked} fronts", ok and checked >= 1)


class TestCriterion7Determinism:
    def test_byte_identical_pareto_csv(self, tmp_path):
        data_path = tmp_path / "micro.csv"
        values = np.linspace(0.0, 1.0, 12)
        labels = ["a", "a", "b", "b", "a", "a", "a", "a", "a", "b", "b", "b"]
        data_path.write_text(
            "f1,label\n" + "\n".join(f"{v},{l}" for v, l in zip(values, labels)) + "\n"
        )
        outputs = []
        for name in ("run1.csv", "run2.csv"):
            out = str(tmp_path / name)
            code = cli_main(
                [
                    "optimize", "--data", str(data_path), "--dim", "16", "--levels", "3",
                    "--pop", "40", "--gens", "25", "--seed", "11", "--out", out,
                ]
            )
            assert code == 0
            outputs.append(open(out, "rb").read())
        report(7, "same-seed optimize runs give byte-identical Pareto CSVs",
               outputs[0] == outputs[1])


class TestCriterion8ModelSizeScaling:
    def test_linear_in_dimension(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(
            features=rng.uniform(0, 1, size=(40, 57)),
            labels=1 + (rng.uniform(size=40) > 0.5).astype(int),
            label_names=["neg", "pos"],
            feature_names=[f"f{i}" for i in range(57)],
        )
        sizes = {}
        for dim in (32, 2048):
            path = str(tmp_path / f"model-{dim}.hdcm")
            save_model(fit_baseline(data, dim, 20, seed=0), path)
            sizes[dim] = os.path.getsize(path)
        ratio = sizes[2048] / sizes[32]
        report(8, f"N=57 M=20 K=2 size ratio D=2048 / D=32 = {ratio:.1f} >= 25", ratio >= 25)


class TestCriterion9ObjectiveOracles:
    def test_weighted_accuracy_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            k = rng.integers(2, 7)
            confusion = rng.integers(0, 50, size=(k, k))
            confusion[np.arange(k), np.arange(k)] += 1
            recalls = [confusion[i, i] / confusion[i].sum() for i in range(k)]
            worst = max(worst, abs(weighted_accuracy(confusion) - np.mean(recalls)))
        report(9, f"wAcc vs per-class-recall oracle, max abs err {worst:.2e} <= 1e-12",
               worst <= 1e-12)

    def test_avg_similarity_oracle(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(300):
            k = rng.integers(2, 6)
            encoders = rng.integers(-9, 10, size=(k, 32))
            product = 1.0
            for i, j in itertools.product(range(k), range(k)):
                if i != j:
                    a, b = encoders[i], encoders[j]
                    cosine = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                    product *= max(cosine, 1e-12)
            expected = product ** (1.0 / k)
            worst = max(worst, abs(avg_similarity(encoders) - expected))
        report(9, f"avgSim vs direct product-form oracle, max abs err {worst:.2e} <= 1e-12",
               worst <= 1e-12)
