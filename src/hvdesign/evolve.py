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
uniform-reset mutation on the integer genes. A generation's draws are the
stream of a loop over pairs of children (`_loop_draws`): two tournaments'
picks, the swap mask, then each child's mutation mask and fresh genes. They
are taken from one block of raw PCG64 words, with numpy's own formulas, at
positions that depend only on the shapes (`_block_draws`). If a bounded draw
in the block is one numpy would reject and redraw, the generation runs the
loop itself, which also stays as the reference. Winners and children are
then formed with array operations on the draws. The children are repaired in
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
import functools
import math
from dataclasses import asdict, dataclass

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
    # The same stream as one call per member: each bounded int64 draw takes
    # a 32-bit half-word, and PCG64 carries a leftover half across calls.
    genes[1:] = rng.integers(0, half + 1, size=(config.population_size - 1, *shape))
    return _repair(genes, config.dim)


def _generation_rng(config: GAConfig, generation: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, 1, generation])


def _loop_draws(rng: np.random.Generator, config: GAConfig, size: int, shape: tuple):
    """(picks, swap, mutate, fresh) of one generation, drawn one pair of
    children at a time: two tournaments' picks, the swap mask, then the
    mutation mask and fresh genes of each child. Picks are (P, 2); the
    others are (P/2, *shape) for swap and (P, *shape) for the rest."""
    half = config.dim // 2
    picks, swap, mutate, fresh = [], [], [], []
    for _ in range(size // 2):
        picks += [rng.integers(0, size, size=2) for _ in range(2)]
        swap.append(rng.random(shape) < config.crossover_rate)
        for _ in range(2):
            mutate.append(rng.random(shape) < config.mutation_rate)
            fresh.append(rng.integers(0, half + 1, size=shape))
    return np.array(picks), np.array(swap), np.array(mutate), np.array(fresh)


@functools.lru_cache(maxsize=16)
def _draw_layout(size: int, n_genes: int):
    """Where `_loop_draws` takes each value from the generator's raw 64-bit
    words: (words, picks, swap, mutate, fresh).

    A double takes a whole word. A bounded int64 draw below 2**32 takes a
    32-bit half: a half carried over from an earlier call first, else the
    low half of a new word, whose high half is then carried; doubles leave
    the carried half alone. Picks and fresh genes index the halves (2w is
    the low half of word w, 2w + 1 its high half), swap and mutation masks
    index the words.
    """
    word, carried = 0, None

    def doubles(n):
        nonlocal word
        word += n
        return np.arange(word - n, word)

    def bounded(n):
        nonlocal word, carried
        head = [] if carried is None else [carried]
        n -= len(head)
        out = np.concatenate([head, 2 * word + np.arange(n)]).astype(np.int64)
        word += (n + 1) // 2
        carried = 2 * word - 1 if n % 2 else None
        return out

    picks = np.concatenate([bounded(2), bounded(2)])
    swap = doubles(n_genes)
    mutate, fresh = [], []
    for _ in range(2):
        mutate.append(doubles(n_genes))
        fresh.append(bounded(n_genes))
    # A pair takes 4 + 2K halves, an even count, so it carries no half into
    # the next pair, and pair p's layout is the first one's shifted by p * word.
    shift = word * np.arange(size // 2)[:, None]
    return (
        word * (size // 2),
        (2 * shift + picks).reshape(size, 2),
        shift + swap,
        (shift[:, None] + np.stack(mutate)).reshape(size, n_genes),
        (2 * shift[:, None] + np.stack(fresh)).reshape(size, n_genes),
    )


def _block_draws(rng: np.random.Generator, config: GAConfig, size: int, shape: tuple):
    """`_loop_draws` from one block of raw words, or None when one of its
    bounded draws is rejected by numpy's Lemire method and redrawn.

    Doubles are (word >> 11) * 2**-53. A bounded draw below r is
    (x * r) >> 32 of a 32-bit half x, rejected when the low 32 bits of
    x * r are below (2**32 - r) % r. These are numpy's formulas for PCG64.
    """
    n_words, picks, swap, mutate, fresh = _draw_layout(size, math.prod(shape))
    raw = rng.bit_generator.random_raw(n_words)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()

    def bounded(index, r):
        product = halves[index] * np.uint64(r)  # below 2**64: both factors are at most 2**32
        return (product >> 32).astype(np.int64), (product & 0xFFFFFFFF) < (2**32 - r) % r

    picks, rejected_picks = bounded(picks, size)
    fresh, rejected_fresh = bounded(fresh, config.dim // 2 + 1)
    if rejected_picks.any() or rejected_fresh.any():
        return None
    swap = (raw[swap] >> 11) * 2.0**-53 < config.crossover_rate
    mutate = (raw[mutate] >> 11) * 2.0**-53 < config.mutation_rate
    return (
        picks,
        swap.reshape(-1, *shape),
        mutate.reshape(-1, *shape),
        fresh.reshape(-1, *shape),
    )


def _variation_draws(config: GAConfig, size: int, shape: tuple, generation: int):
    """The draws of one generation: from a raw block, or from the loop
    itself when the block holds a rejected bounded draw."""
    drawn = _block_draws(_generation_rng(config, generation), config, size, shape)
    if drawn is None:
        drawn = _loop_draws(_generation_rng(config, generation), config, size, shape)
    return drawn


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
    size = len(genes)
    picks, swap, mutate, fresh = _variation_draws(config, size, genes.shape[1:], generation)

    # The second pick wins a tournament only when strictly better: lower
    # rank, or the same rank and larger crowding.
    held, challenger = picks.T
    better = (ranks[challenger] < ranks[held]) | (
        (ranks[challenger] == ranks[held]) & (crowding[challenger] > crowding[held])
    )
    winners = np.where(better, challenger, held)
    first, second = genes[winners[0::2]], genes[winners[1::2]]
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
        **asdict(config),
        "n_samples": train.n_samples,
        "n_features": train.n_features,
        "n_classes": train.n_classes,
    }
    return ParetoFront(
        members=list(zip(budgets, _as_scores(scores[order]))),
        provenance=provenance,
        generation_hypervolumes=hypervolumes,
    )
