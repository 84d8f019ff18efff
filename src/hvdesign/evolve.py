"""NSGA-II-style search over flip-budget matrices.

The two objectives are (maximize wAcc, minimize avgSim), with
feasibility-first dominance: a feasible individual always dominates an
infeasible one. Dominance is decided in one place, an array kernel shared
by ranking, front extraction and the hypervolume; `dominates` is its
reference predicate on a single pair of ObjectiveScores.

Inside the search a population is two arrays: (P, N, M-1) int64 genes, one
flip-budget matrix per member, and (P, 3) float64 scores whose columns are
(feasible, wAcc, avgSim), the rows `CandidateEvaluator` scores. FlipBudget
and ObjectiveScores objects are built only for the returned front.

Variation is binary tournament selection, per-gene uniform crossover and
uniform-reset mutation on the integer genes. The random draws are made one
pair of children at a time and recorded; winners and children are then
formed with array operations on the records. The children are repaired in
one array operation, the same floor-rescale `repair_budget` applies, which
keeps every row sum within D/2, so only feasible individuals are ever
evaluated as candidates for the front, and all of them are scored in one
call, as is the initial population.

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
from .hypervector import FlipBudget, _repair, uniform_flip_budget
from .objectives import CandidateEvaluator, ObjectiveScores, _as_scores


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


def _dominance(scores: np.ndarray) -> np.ndarray:
    """(P, P) boolean matrix whose [p, q] entry is `dominates` of rows p and
    q of a (P, 3) score array."""
    f, w, s = scores.T
    fp, wp, sp = f[:, None], w[:, None], s[:, None]
    # Negated comparisons, as in `dominates`, so a NaN compares the same way.
    pareto = ~(wp < w) & ~(sp > s) & ((wp > w) | (sp < s))
    return np.where(fp == f, pareto, fp > f)


def rank_population(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-dominated sorting plus per-front crowding distance of a (P, 3)
    score array.

    Returns (ranks, crowding); rank 0 is the non-dominated front, boundary
    points of each front get infinite crowding.
    """
    n = len(scores)
    dominance = _dominance(scores)
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
    for r in range(rank):
        front = np.flatnonzero(ranks == r)
        if front.size <= 2:
            crowding[front] = np.inf
            continue
        for col in (1, 2):  # wAcc, avgSim
            vals = scores[front, col]
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


def initialize_population(config: GAConfig, n_features: int) -> np.ndarray:
    """(P, N, M-1) genes of P random feasible budgets; index 0 is the
    uniform-budget anchor."""
    rng = np.random.default_rng([config.seed, 0])
    half = config.dim // 2
    shape = (n_features, config.levels - 1)
    genes = np.empty((config.population_size, *shape), dtype=np.int64)
    genes[0] = uniform_flip_budget(config.dim, config.levels, features=n_features).budgets
    # One draw per member: a single batched draw would give another stream.
    for p in range(1, config.population_size):
        genes[p] = rng.integers(0, half + 1, size=shape)
    return _repair(genes, config.dim)


def _selection_order(ranks: np.ndarray, crowding: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc), stable."""
    return np.lexsort((np.arange(len(ranks)), -crowding, ranks))


def evolve_generation(
    genes: np.ndarray,
    scores: np.ndarray,
    evaluator: CandidateEvaluator,
    config: GAConfig,
    generation: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One (mu + lambda) NSGA-II step on (P, N, M-1) genes and their (P, 3)
    scores; returns the surviving genes and scores."""
    ranks, crowding = rank_population(scores)
    rng = np.random.default_rng([config.seed, 1, generation])
    half = config.dim // 2
    size, shape = len(genes), genes.shape[1:]

    # Draw one pair of children at a time: two tournaments, the swap mask,
    # then the mutation mask and fresh genes of each child.
    picks, swap, mutate, fresh = [], [], [], []
    for _ in range(size // 2):
        picks += [rng.integers(0, size, size=config.tournament_size) for _ in range(2)]
        swap.append(rng.random(shape) < config.crossover_rate)
        for _ in range(2):
            mutate.append(rng.random(shape) < config.mutation_rate)
            fresh.append(rng.integers(0, half + 1, size=shape))

    # A later pick wins a tournament only when strictly better: lower rank,
    # or the same rank and larger crowding.
    picks = np.array(picks)
    winners = picks[:, 0]
    for idx in picks[:, 1:].T:
        better = (ranks[idx] < ranks[winners]) | (
            (ranks[idx] == ranks[winners]) & (crowding[idx] > crowding[winners])
        )
        winners = np.where(better, idx, winners)
    first, second = genes[winners[0::2]], genes[winners[1::2]]
    swap = np.array(swap)
    pairs = np.stack([np.where(swap, second, first), np.where(swap, first, second)], axis=1)
    children = _repair(np.where(mutate, fresh, pairs.reshape(genes.shape)), config.dim)

    genes = np.concatenate([genes, children])
    scores = np.concatenate([scores, evaluator._scores(children, config.dim)])
    survivors = _selection_order(*rank_population(scores))[:size]
    return genes[survivors], scores[survivors]


def hypervolume(scores: np.ndarray, ref=(0.0, 1.0)) -> float:
    """Area dominated by the (wAcc, avgSim) points of a (P, 3) score array
    relative to the reference corner (wAcc=ref[0], avgSim=ref[1])."""
    kept = scores[~_dominance(scores).any(axis=0)]
    coords = sorted(kept[:, 1:].tolist(), key=lambda p: -p[1])
    area = 0.0
    prev_sim = ref[1]
    for wacc, sim in coords:
        area += max(0.0, wacc - ref[0]) * max(0.0, prev_sim - sim)
        prev_sim = min(prev_sim, sim)
    return area


def _front_of(scores: np.ndarray) -> np.ndarray:
    """Mask of the feasible members that no member dominates."""
    return (scores[:, 0] == 1) & ~_dominance(scores).any(axis=0)


def run_optimization(
    train: Dataset, quantizer: Quantizer, config: GAConfig
) -> ParetoFront:
    """Run the full search and return the deduplicated feasible front."""
    if quantizer.levels != config.levels:
        raise ShapeError("config levels do not match the calibrated quantizer")
    evaluator = CandidateEvaluator(train, quantizer, config.seed)
    genes = initialize_population(config, train.n_features)
    scores = evaluator._scores(genes, config.dim)
    hypervolumes = [hypervolume(scores[_front_of(scores)])]
    for gen in range(config.generations):
        genes, scores = evolve_generation(genes, scores, evaluator, config, gen)
        hypervolumes.append(hypervolume(scores[_front_of(scores)]))

    front = _front_of(scores)
    genes, scores = genes[front], scores[front]
    _, first = np.unique(genes.reshape(len(genes), -1), axis=0, return_index=True)
    order = sorted(
        first.tolist(),
        key=lambda i: (-scores[i, 1], scores[i, 2], genes[i].tobytes()),
    )
    budgets = [FlipBudget(budgets=genes[i], dim=config.dim) for i in order]

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
        members=list(zip(budgets, _as_scores(scores[order]))),
        provenance=provenance,
        generation_hypervolumes=hypervolumes,
    )
