"""NSGA-II-style search over flip-budget matrices.

The two objectives are (maximize wAcc, minimize avgSim), with
feasibility-first dominance: a feasible individual always dominates an
infeasible one. Dominance is decided in one place, an array kernel shared
by ranking, front extraction and the hypervolume; `dominates` is its
reference predicate on a single pair. A population is a list of
(FlipBudget, ObjectiveScores) pairs, the same shape as a front's members.

Variation is per-gene uniform crossover plus uniform-reset mutation on the
integer genes. The children of a generation are stacked into one
(P, N, M-1) array and repaired in one array operation, the same
floor-rescale `repair_budget` applies, which keeps every row sum within
D/2, so only feasible individuals are ever evaluated as candidates for the
front. The children are then scored together with
`CandidateEvaluator.evaluate_population`, as is the initial population.

Randomness comes from explicitly indexed substreams of the master seed
(one for initialization, one per generation for variation), so results are
a pure function of (dataset, config).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Quantizer, atomic_open
from .errors import ConfigError, ShapeError
from .hypervector import FlipBudget, _repair, repair_budget, uniform_flip_budget
from .objectives import CandidateEvaluator, ObjectiveScores


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 200
    generations: int = 150
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    tournament_size: int = 2
    seed: int = 0
    dim: int = 64
    levels: int = 20

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ConfigError("population size must be even and >= 4")
        if self.generations < 1:
            raise ConfigError("need at least 1 generation")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ConfigError("crossover and mutation rates must be in [0, 1]")
        if self.tournament_size < 2:
            raise ConfigError("tournament size must be >= 2")


@dataclass(frozen=True)
class ParetoFront:
    """Feasible, mutually non-dominated (budget, scores) records."""

    members: list  # of (FlipBudget, ObjectiveScores)
    provenance: dict
    generation_hypervolumes: list

    def write_csv(self, path) -> None:
        """Columns: member index, objectives, per-feature row sums and the
        flattened budget matrix (both semicolon-joined, row-major)."""
        with atomic_open(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["memberIndex", "wAcc", "avgSim", "robustness", "rowSums", "budget"]
            )
            for i, (budget, scores) in enumerate(self.members):
                writer.writerow(
                    [
                        i,
                        repr(scores.wacc),
                        repr(scores.avg_sim),
                        repr(scores.robustness),
                        ";".join(str(int(v)) for v in budget.row_sums),
                        ";".join(str(int(v)) for v in budget.budgets.ravel()),
                    ]
                )


def dominates(a: ObjectiveScores, b: ObjectiveScores) -> bool:
    """Feasibility-first Pareto dominance on (max wAcc, min avgSim)."""
    if a.feasible != b.feasible:
        return a.feasible
    if a.wacc < b.wacc or a.avg_sim > b.avg_sim:
        return False
    return a.wacc > b.wacc or a.avg_sim < b.avg_sim


def _dominance(scored: list) -> np.ndarray:
    """(P, P) boolean matrix whose [p, q] entry is dominates(scored[p], scored[q])."""
    f, w, s = np.array(
        [[x.feasible, x.wacc, x.avg_sim] for x in scored], dtype=np.float64
    ).reshape(-1, 3).T
    fp, wp, sp = f[:, None], w[:, None], s[:, None]
    # Negated comparisons, as in `dominates`, so a NaN compares the same way.
    pareto = ~(wp < w) & ~(sp > s) & ((wp > w) | (sp < s))
    return np.where(fp == f, pareto, fp > f)


def rank_population(scored: list) -> tuple[np.ndarray, np.ndarray]:
    """Non-dominated sorting plus per-front crowding distance.

    Returns (ranks, crowding); rank 0 is the non-dominated front, boundary
    points of each front get infinite crowding.
    """
    n = len(scored)
    dominance = _dominance(scored)
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while True:
        front = remaining & ~dominance[remaining].any(axis=0)
        if not front.any():
            break
        ranks[front] = rank
        remaining &= ~front
        rank += 1

    crowding = np.zeros(n, dtype=np.float64)
    objectives = np.array([[s.wacc, s.avg_sim] for s in scored], dtype=np.float64)
    for r in range(rank):
        front = np.flatnonzero(ranks == r)
        if front.size <= 2:
            crowding[front] = np.inf
            continue
        for col in range(2):
            vals = objectives[front, col]
            order = np.argsort(vals, kind="stable")
            crowding[front[order[0]]] = np.inf
            crowding[front[order[-1]]] = np.inf
            span = vals[order[-1]] - vals[order[0]]
            if span == 0:
                continue
            inner = front[order[1:-1]]
            gaps = (vals[order[2:]] - vals[order[:-2]]) / span
            crowding[inner] += gaps
    return ranks, crowding


def initialize_population(config: GAConfig, n_features: int) -> list:
    """P random feasible budgets; index 0 is the uniform-budget anchor."""
    rng = np.random.default_rng([config.seed, 0])
    half = config.dim // 2
    population = [uniform_flip_budget(config.dim, config.levels, features=n_features)]
    for _ in range(1, config.population_size):
        raw = rng.integers(0, half + 1, size=(n_features, config.levels - 1))
        population.append(repair_budget(FlipBudget(budgets=raw, dim=config.dim)))
    return population


def _selection_order(ranks: np.ndarray, crowding: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc), stable."""
    return np.lexsort((np.arange(len(ranks)), -crowding, ranks))


def _tournament(rng, ranks, crowding, size) -> int:
    picks = rng.integers(0, len(ranks), size=size)
    best = picks[0]
    for idx in picks[1:]:
        if ranks[idx] < ranks[best] or (
            ranks[idx] == ranks[best] and crowding[idx] > crowding[best]
        ):
            best = idx
    return int(best)


def evolve_generation(
    population: list,
    evaluator: CandidateEvaluator,
    config: GAConfig,
    generation: int,
) -> list:
    """One (mu + lambda) NSGA-II step on (budget, scores) pairs; returns
    the surviving pairs."""
    ranks, crowding = rank_population([scores for _, scores in population])
    rng = np.random.default_rng([config.seed, 1, generation])
    half = config.dim // 2
    shape = population[0][0].budgets.shape

    genes = np.empty((config.population_size, *shape), dtype=np.int64)
    for k in range(0, config.population_size, 2):
        i = _tournament(rng, ranks, crowding, config.tournament_size)
        j = _tournament(rng, ranks, crowding, config.tournament_size)
        p1, p2 = population[i][0].budgets, population[j][0].budgets
        swap = rng.random(shape) < config.crossover_rate
        genes[k] = np.where(swap, p2, p1)
        genes[k + 1] = np.where(swap, p1, p2)
        for child in genes[k : k + 2]:
            mutate = rng.random(shape) < config.mutation_rate
            fresh = rng.integers(0, half + 1, size=shape)
            child[mutate] = fresh[mutate]
    budgets = [FlipBudget(budgets=b, dim=config.dim) for b in _repair(genes, config.dim)]
    children = list(zip(budgets, evaluator.evaluate_population(budgets)))

    combined = population + children
    ranks, crowding = rank_population([scores for _, scores in combined])
    order = _selection_order(ranks, crowding)
    return [combined[i] for i in order[: config.population_size]]


def hypervolume(members: list, ref=(0.0, 1.0)) -> float:
    """Area dominated by the (wAcc, avgSim) points relative to the
    reference corner (wAcc=ref[0], avgSim=ref[1])."""
    scored = [s for _, s in members]
    kept = ~_dominance(scored).any(axis=0)
    coords = sorted(
        ((s.wacc, s.avg_sim) for s, keep in zip(scored, kept) if keep),
        key=lambda p: -p[1],
    )
    area = 0.0
    prev_sim = ref[1]
    for wacc, sim in coords:
        area += max(0.0, wacc - ref[0]) * max(0.0, prev_sim - sim)
        prev_sim = min(prev_sim, sim)
    return area


def _front_of(population: list) -> list:
    """Feasible members that no member dominates."""
    kept = ~_dominance([s for _, s in population]).any(axis=0)
    return [m for m, keep in zip(population, kept) if keep and m[1].feasible]


def run_optimization(
    train: Dataset, quantizer: Quantizer, config: GAConfig
) -> ParetoFront:
    """Run the full search and return the deduplicated feasible front."""
    if quantizer.levels != config.levels:
        raise ShapeError("config levels do not match the calibrated quantizer")
    evaluator = CandidateEvaluator(train, quantizer, config.seed)
    budgets = initialize_population(config, train.n_features)
    population = list(zip(budgets, evaluator.evaluate_population(budgets)))
    hypervolumes = [hypervolume(_front_of(population))]
    for gen in range(config.generations):
        population = evolve_generation(population, evaluator, config, gen)
        hypervolumes.append(hypervolume(_front_of(population)))

    front = _front_of(population)
    seen = set()
    unique = []
    for budget, scores in front:
        key = (budget.dim, budget.budgets.tobytes())
        if key not in seen:
            seen.add(key)
            unique.append((budget, scores))
    unique.sort(key=lambda m: (-m[1].wacc, m[1].avg_sim, m[0].budgets.tobytes()))

    provenance = {
        "population_size": config.population_size,
        "generations": config.generations,
        "crossover_rate": config.crossover_rate,
        "mutation_rate": config.mutation_rate,
        "tournament_size": config.tournament_size,
        "seed": config.seed,
        "dim": config.dim,
        "levels": config.levels,
        "n_samples": train.n_samples,
        "n_features": train.n_features,
        "n_classes": train.n_classes,
    }
    return ParetoFront(
        members=unique,
        provenance=provenance,
        generation_hypervolumes=hypervolumes,
    )
