"""Accuracy-vs-robustness Pareto fronts on an enumerable toy problem.

With one feature, three levels and D=16 there are only 81 flip budgets
(b1, b2) with entries in 0..8, and the 45 of them with b1 + b2 <= D/2 = 8
are the feasible ones, so the true Pareto front can be brute-forced and
compared with what the evolutionary search returns. The two objectives are
weighted accuracy (maximize) and average inter-encoder similarity
(minimize; its complement is reported as robustness).
"""

import os
import tempfile

import numpy as np

from hvdesign import (
    CandidateEvaluator,
    Dataset,
    FlipBudget,
    GAConfig,
    calibrate_quantizer,
    rank_population,
    run_optimization,
)

values = np.linspace(0.0, 1.0, 12)
labels = np.array([1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2])
data = Dataset(
    features=values[:, None],
    labels=labels,
    label_names=["a", "b"],
    feature_names=["f1"],
)
quantizer = calibrate_quantizer(data, levels=3)

evaluator = CandidateEvaluator(data, quantizer, base_seed=123)
candidates = [(b1, b2) for b1 in range(9) for b2 in range(9)]
# Scoring refuses the 36 pairs over D/2, which no search may return.
scored = {
    (b1, b2): evaluator.evaluate(FlipBudget(budgets=np.array([[b1, b2]]), dim=16))
    for b1, b2 in candidates
    if b1 + b2 <= 8
}
# The brute-force front: the rank-0 rows of one ranking of all 45.
ranks, _ = rank_population([[s.wacc, s.avg_sim] for s in scored.values()])
oracle = sorted(key for key, rank in zip(scored, ranks) if rank == 0)
print(f"brute-force Pareto-optimal budgets over the {len(scored)} feasible candidates:")
for key in oracle:
    s = scored[key]
    print(f"  budget {key}: wAcc={s.wacc:.4f}  avgSim={s.avg_sim:.4f}  "
          f"robustness={s.robustness:.4f}")

config = GAConfig(
    population_size=40, generations=50, seed=123, dim=16, levels=3, mutation_rate=0.3
)
front = run_optimization(data, quantizer, config)
found = sorted(tuple(int(v) for v in b.budgets.ravel()) for b, _ in front.members)
print(f"\nevolutionary search returned: {found}")
print(f"matches the oracle: {found == oracle}")

hv = front.generation_hypervolumes
print(f"\nhypervolume trace ({len(hv)} checkpoints, never decreases):")
print("  " + " ".join(f"{v:.3f}" for v in hv[:: max(1, len(hv) // 10)]))

with tempfile.TemporaryDirectory() as tmp:
    front.write_csv(os.path.join(tmp, "toy_front.csv"))
    print("\nfront CSV written to a temporary directory")
