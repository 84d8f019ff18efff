import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdesign import (
    CandidateEvaluator,
    FlipBudget,
    GAConfig,
    ObjectiveScores,
    dominates,
    evolve_generation,
    hypervolume,
    initialize_population,
    rank_population,
    repair_budget,
    run_optimization,
    uniform_flip_budget,
)

MICRO_CONFIG = dict(population_size=40, generations=50, dim=16, levels=3, mutation_rate=0.3)


def exhaustive_front(dataset, quantizer, base_seed):
    """Brute-force Pareto oracle over all 81 micro-problem budgets."""
    evaluator = CandidateEvaluator(dataset, quantizer, base_seed)
    scored = {
        (b1, b2): evaluator.evaluate(FlipBudget(budgets=np.array([[b1, b2]]), dim=16))
        for b1 in range(9)
        for b2 in range(9)
    }
    return {
        key
        for key, s in scored.items()
        if not any(dominates(other, s) for k2, other in scored.items() if k2 != key)
    }


def reference_ranks(scored):
    """Fast non-dominated sort (Deb et al. 2002) over pairwise `dominates`."""
    n = len(scored)
    dominated_by = [[q for q in range(n) if dominates(scored[p], scored[q])] for p in range(n)]
    count = [sum(dominates(scored[q], scored[p]) for q in range(n)) for p in range(n)]
    ranks = [-1] * n
    current = [p for p in range(n) if count[p] == 0]
    rank = 0
    while current:
        following = []
        for p in current:
            ranks[p] = rank
            for q in dominated_by[p]:
                count[q] -= 1
                if count[q] == 0:
                    following.append(q)
        current = following
        rank += 1
    return ranks


def union_area(points, ref=(0.0, 1.0)):
    """Area of the union of the boxes [ref[0], wAcc] x [avgSim, ref[1]]."""
    cuts = sorted({sim for _, sim in points} | {ref[1]})
    area = 0.0
    for low, high in zip(cuts, cuts[1:]):
        reach = max((wacc for wacc, sim in points if sim <= low), default=ref[0])
        area += max(0.0, reach - ref[0]) * max(0.0, high - low)
    return area


# Objective values on a 1/8 grid: many ties, and every sum and product in
# the hypervolume is exact in float64, so areas compare with ==.
grid = st.integers(0, 8).map(lambda k: k / 8)
scores = st.builds(ObjectiveScores, wacc=grid, avg_sim=grid, feasible=st.booleans())
# Members drawn from a small pool repeat the same ObjectiveScores object.
populations = st.lists(scores, min_size=1, max_size=10).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)
)


def front_budgets(front):
    return {tuple(int(v) for v in budget.budgets.ravel()) for budget, _ in front.members}


class TestInitializePopulation:
    def test_size_and_feasibility(self):
        config = GAConfig(population_size=30, generations=1, seed=1, dim=32, levels=5)
        population = initialize_population(config, n_features=3)
        assert len(population) == 30
        assert all(budget.feasible for budget in population)

    def test_baseline_anchor_present_once(self):
        config = GAConfig(population_size=30, generations=1, seed=1, dim=32, levels=5)
        population = initialize_population(config, n_features=3)
        anchor = uniform_flip_budget(32, 5, features=3)
        assert sum(budget == anchor for budget in population) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=5)
        with pytest.raises(ValueError):
            GAConfig(generations=0)
        with pytest.raises(ValueError):
            GAConfig(mutation_rate=1.5)


class TestRepair:
    def test_examples(self):
        feasible = FlipBudget(budgets=np.array([[2, 2]]), dim=16)
        assert repair_budget(feasible) == feasible
        violating = FlipBudget(budgets=np.array([[6, 6]]), dim=16)
        assert repair_budget(violating).budgets.tolist() == [[4, 4]]
        assert repair_budget(repair_budget(violating)) == repair_budget(violating)


class TestRankPopulation:
    def test_strict_dominance(self):
        scored = [
            ObjectiveScores(wacc=0.9, avg_sim=0.1, feasible=True),
            ObjectiveScores(wacc=0.8, avg_sim=0.2, feasible=True),
        ]
        ranks, _ = rank_population(scored)
        assert ranks.tolist() == [0, 1]

    def test_identical_objectives_share_rank(self):
        scored = [ObjectiveScores(wacc=0.5, avg_sim=0.5, feasible=True)] * 3
        ranks, _ = rank_population(scored)
        assert ranks.tolist() == [0, 0, 0]

    def test_feasible_dominates_infeasible(self):
        scored = [
            ObjectiveScores(wacc=1.0, avg_sim=0.0, feasible=False),
            ObjectiveScores(wacc=0.1, avg_sim=0.9, feasible=True),
        ]
        ranks, _ = rank_population(scored)
        assert ranks.tolist() == [1, 0]

    def test_boundary_points_infinite_crowding(self):
        scored = [
            ObjectiveScores(wacc=0.9, avg_sim=0.9, feasible=True),
            ObjectiveScores(wacc=0.5, avg_sim=0.5, feasible=True),
            ObjectiveScores(wacc=0.1, avg_sim=0.1, feasible=True),
        ]
        ranks, crowding = rank_population(scored)
        assert ranks.tolist() == [0, 0, 0]
        assert crowding[0] == crowding[2] == np.inf
        assert np.isfinite(crowding[1])

    @given(populations)
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_dominates_oracle(self, scored):
        ranks, crowding = rank_population(scored)
        assert ranks.tolist() == reference_ranks(scored)
        objectives = np.array([[s.wacc, s.avg_sim] for s in scored]).reshape(-1, 2)
        for r in set(ranks.tolist()):
            front = ranks == r
            infinite = np.isinf(crowding[front])
            for vals in objectives[front].T:
                assert infinite[vals == vals.min()].any()
                assert infinite[vals == vals.max()].any()
        kept = [
            (s.wacc, s.avg_sim)
            for i, s in enumerate(scored)
            if not any(dominates(t, s) for j, t in enumerate(scored) if j != i)
        ]
        assert hypervolume([(None, s) for s in scored]) == union_area(kept)


def scored_population(config, evaluator):
    return [
        (budget, evaluator.evaluate(budget))
        for budget in initialize_population(config, evaluator.train.n_features)
    ]


class TestEvolveGeneration:
    def test_population_size_and_feasibility_preserved(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=3, **MICRO_CONFIG)
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, config.seed)
        population = scored_population(config, evaluator)
        survivors = evolve_generation(population, evaluator, config, 0)
        assert len(survivors) == config.population_size
        assert all(budget.feasible for budget, _ in survivors)

    def test_elitism_keeps_nondominated_parents(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=3, **MICRO_CONFIG)
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, config.seed)
        population = scored_population(config, evaluator)
        ranks, _ = rank_population([scores for _, scores in population])
        elite = {id(pair) for pair, r in zip(population, ranks) if r == 0}
        survivors = evolve_generation(population, evaluator, config, 0)
        assert elite <= {id(pair) for pair in survivors}


class TestRunOptimization:
    def test_micro_front_equals_bruteforce(self, micro_dataset, micro_quantizer):
        oracle = exhaustive_front(micro_dataset, micro_quantizer, 123)
        config = GAConfig(seed=123, **MICRO_CONFIG)
        front = run_optimization(micro_dataset, micro_quantizer, config)
        assert front_budgets(front) == oracle

    def test_deterministic_member_for_member(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=9, **MICRO_CONFIG)
        a = run_optimization(micro_dataset, micro_quantizer, config)
        b = run_optimization(micro_dataset, micro_quantizer, config)
        assert len(a.members) == len(b.members)
        for (ba, sa), (bb, sb) in zip(a.members, b.members):
            assert ba == bb and sa == sb

    def test_front_invariants(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=2, **MICRO_CONFIG)
        front = run_optimization(micro_dataset, micro_quantizer, config)
        half = config.dim // 2
        for budget, scores in front.members:
            assert scores.feasible
            assert np.all(budget.row_sums <= half)
        for i, (_, si) in enumerate(front.members):
            for j, (_, sj) in enumerate(front.members):
                if i != j:
                    assert not dominates(si, sj)

    def test_hypervolume_monotone(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=2, **MICRO_CONFIG)
        front = run_optimization(micro_dataset, micro_quantizer, config)
        volumes = front.generation_hypervolumes
        assert len(volumes) == config.generations + 1
        assert all(a <= b + 1e-15 for a, b in zip(volumes, volumes[1:]))

    def test_csv_round_trip_and_format(self, micro_dataset, micro_quantizer, tmp_path):
        config = GAConfig(seed=2, **MICRO_CONFIG)
        front = run_optimization(micro_dataset, micro_quantizer, config)
        path = tmp_path / "front.csv"
        front.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "memberIndex,wAcc,avgSim,robustness,rowSums,budget"
        assert len(lines) == len(front.members) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == front.members[0][1].wacc


class TestHypervolume:
    def test_single_point(self):
        members = [(None, ObjectiveScores(wacc=0.8, avg_sim=0.3, feasible=True))]
        assert hypervolume(members) == pytest.approx(0.8 * 0.7)

    def test_dominated_point_ignored(self):
        members = [
            (None, ObjectiveScores(wacc=0.8, avg_sim=0.3, feasible=True)),
            (None, ObjectiveScores(wacc=0.5, avg_sim=0.5, feasible=True)),
        ]
        assert hypervolume(members) == pytest.approx(0.8 * 0.7)

    def test_two_point_front(self):
        members = [
            (None, ObjectiveScores(wacc=0.9, avg_sim=0.5, feasible=True)),
            (None, ObjectiveScores(wacc=0.4, avg_sim=0.1, feasible=True)),
        ]
        assert hypervolume(members) == pytest.approx(0.9 * 0.5 + 0.4 * 0.4)
