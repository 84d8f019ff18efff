"""NSGA-II-style search over flip-budget matrices.

The two objectives are (maximize wAcc, minimize avgSim). Dominance is
decided in one place, `_ranks`, a sort-based non-dominated sort under
Pareto dominance on (max wAcc, min avgSim): a point dominates another when
it is no worse in both objectives and better in one. Ranking, front
extraction and the hypervolume (both the rows of rank 0) share it.

A search ranks its initial population once, then one population per
generation: the 2P parents and children merged for survival. The P
survivors carry their merged ranks into the next generation, where they
drive the tournaments (with `_crowding` on those ranks), mark the front
whose hypervolume is recorded, and in the end give the returned front.
Carried ranks are exact. Survival keeps whole fronts below the cut and
part of the cut front, so every point that dominates a survivor is itself
a survivor; a point's rank is the length of the longest chain of points
that dominate it, so no survivor's rank changes when the rest are dropped.

Inside the search a population is two arrays: (P, N, M-1) int64 genes, one
flip-budget matrix per member, and (P, 2) float64 scores whose columns are
(wAcc, avgSim), the rows `CandidateEvaluator.score` returns. FlipBudget and
ObjectiveScores objects are built only for the returned front.

Variation is binary tournament selection, per-gene uniform crossover and
uniform-reset mutation on the integer genes. A generation's draws are the
stream of a loop over pairs of children (`_loop_draws`): two tournaments'
picks, the swap mask, then each child's mutation mask and fresh genes. With
K genes a child, every pair takes the same 2 + 4K raw PCG64 words, so
`_variation_draws` reads the generation as a (P/2, 2 + 4K) word matrix and
each kind of draw as fixed column slices of it, computed with numpy's own
formulas. If a bounded draw in it is one numpy would reject and redraw, the
generation runs the loop itself, which also stays as the reference.
Winners and children are then formed with array operations on the draws.
The children are repaired in one array operation, the same floor-rescale
`repair_budget` applies, which keeps every row sum within D/2: scoring
refuses an infeasible budget, so the GA repairs every budget before it
scores it, and ranking is plain Pareto dominance. All of a generation's
children are scored in one call, as is the initial population.

Randomness comes from explicitly indexed substreams of the master seed
(one for initialization, one per generation for variation), so results are
a pure function of (dataset, config).
"""

from __future__ import annotations

import bisect
import csv
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, Quantizer, atomic_open
from .errors import ConfigError, ShapeError
from .hypervector import FlipBudget, _check_levels, _repair, _whole_number, uniform_flip_budget
from .objectives import CandidateEvaluator, ObjectiveScores


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
        for name in ("population_size", "generations", "seed", "dim"):
            if not _whole_number(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {rate!r}")
        if not 0 <= self.seed < 2**64:  # the seed a model file stores
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ConfigError("population size must be even and >= 4")
        if self.generations < 1:
            raise ConfigError("need at least 1 generation")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ConfigError("crossover and mutation rates must be in [0, 1]")
        # Below D = 2 a fresh gene has one value, which numpy draws without
        # taking random words, so `_variation_draws` would part from
        # `_loop_draws`; an odd D makes no FlipBudget.
        if self.dim < 2 or self.dim % 2 != 0:
            raise ConfigError(f"dimension must be even and >= 2, got {self.dim}")
        _check_levels(self.levels)


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


def _score_rows(scores) -> np.ndarray:
    """An array-like of (wAcc, avgSim) rows as a (P, 2) float64 array; any
    other shape raises ShapeError."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != 2:
        raise ShapeError(f"scores must be (P, 2) (wAcc, avgSim) rows, got shape {scores.shape}")
    return scores


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Non-dominated rank of each row of a (P, 2) (wAcc, avgSim) score
    array under Pareto dominance on (max wAcc, min avgSim), the package's
    one dominance rule; rank 0 is the non-dominated front."""
    if np.isnan(scores).any():
        raise ValueError("cannot rank scores that hold NaN")
    wacc, sim = scores.T
    order = np.lexsort((sim, -wacc))
    ranks = []
    mins, prev = [], None
    for point in zip(wacc[order].tolist(), sim[order].tolist()):
        if point != prev:
            # Every earlier point has at least this wAcc, so front k
            # dominates this one iff its smallest avgSim so far is at most
            # this avgSim; the fronts' smallest avgSims ascend.
            k = bisect.bisect_right(mins, point[1])
            mins[k:k + 1] = [point[1]]
            prev = point
        ranks.append(k)
    out = np.empty(len(scores), dtype=np.int64)
    out[order] = ranks
    return out


def rank_population(scores) -> tuple[np.ndarray, np.ndarray]:
    """Non-dominated sorting plus per-front crowding distance of a (P, 2)
    array-like of (wAcc, avgSim) rows; any other shape raises ShapeError.

    Returns (ranks, crowding); rank 0 is the non-dominated front. The rows
    are sorted once on (wAcc desc, avgSim asc), and each point joins the
    first front whose smallest avgSim so far is above its own, found by
    binary search (Jensen 2003): O(P log P) for P rows, not the O(P^2)
    dominance matrix of Deb et al. (2002). Exact duplicates share a rank.
    Crowding is `_crowding` on those ranks. A NaN anywhere in the array
    raises ValueError: a sort cannot order it.
    """
    scores = _score_rows(scores)
    ranks = _ranks(scores)
    return ranks, _crowding(scores, ranks)


def _crowding(scores: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of a (P, 2) score array within its
    front, given the rows' non-dominated ranks.

    Crowding is the per-front sum of the normalized wAcc gap, then the
    avgSim gap, between each point's neighbours in that objective. The
    boundary points of each front, and every member of a front of at most
    2, get infinite crowding; an objective that spans 0 on a front adds no
    gaps there.
    """
    crowding = np.zeros(len(scores), dtype=np.float64)
    if not len(scores):
        return crowding
    for col in (0, 1):  # wAcc, avgSim
        # Fronts in rank order, each sorted by the objective, ties by index.
        order = np.lexsort((scores[:, col], ranks))
        vals, fronts = scores[order, col], ranks[order]
        step = fronts[1:] != fronts[:-1]
        first, last = np.r_[True, step], np.r_[step, True]
        crowding[order[first | last]] = np.inf
        starts, ends = np.flatnonzero(first), np.flatnonzero(last)
        span = np.repeat(vals[ends] - vals[starts], ends - starts + 1)
        inner = np.flatnonzero(~(first | last) & (span != 0))
        crowding[order[inner]] += (vals[inner + 1] - vals[inner - 1]) / span[inner]
    return crowding


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


def _variation_draws(config: GAConfig, size: int, shape: tuple, generation: int):
    """`_loop_draws` of one generation from one block of raw PCG64 words, or
    from `_loop_draws` itself when numpy would reject a bounded draw in it.

    A double takes a whole word, (word >> 11) * 2**-53. A bounded draw below
    r takes a 32-bit half x, low half of a word first, and is (x * r) >> 32,
    rejected when the low 32 bits of x * r are below (2**32 - r) % r; an odd
    count leaves its last word's high half to the next bounded call, past
    any doubles. So with K genes a child, row p of the (P/2, 2 + 4K) word
    matrix is pair p: picks 2 | swap K | mutate K | fresh ceil(K/2) |
    mutate K | fresh floor(K/2), where the second child's fresh genes start
    with the half the first child left over when K is odd.
    """
    k = math.prod(shape)
    rng = _generation_rng(config, generation)
    words = rng.bit_generator.random_raw(size // 2 * (2 + 4 * k)).reshape(size // 2, -1)
    halves = words.astype("<u8", copy=False).view("<u4")
    a = 2 + 2 * k
    b = a + (k + 1) // 2

    def bounded(x, r):
        # In uint64 under either scalar promotion rule: both factors are at
        # most 2**32, so the product is below 2**64.
        product = np.multiply(x, r, dtype=np.uint64)
        if (product.astype(np.uint32) < (2**32 - r) % r).any():
            return None
        product >>= 32
        return product.view(np.int64)

    def below(x, rate):
        return (x >> 11) * 2.0**-53 < rate

    picks = bounded(halves[:, :4], size)
    fresh = np.concatenate([halves[:, 2 * a:2 * b], halves[:, 2 * (b + k):]], axis=1)
    fresh = bounded(fresh, config.dim // 2 + 1)
    if picks is None or fresh is None:
        return _loop_draws(_generation_rng(config, generation), config, size, shape)
    mutate = np.concatenate([words[:, 2 + k:a], words[:, b:b + k]], axis=1)
    return (
        picks.reshape(size, 2),
        below(words[:, 2:2 + k], config.crossover_rate).reshape(-1, *shape),
        below(mutate, config.mutation_rate).reshape(-1, *shape),
        fresh.reshape(-1, *shape),
    )


def _selection_order(ranks: np.ndarray, crowding: np.ndarray) -> np.ndarray:
    """Indices sorted best-first by (rank asc, crowding desc), stable."""
    return np.lexsort((np.arange(len(ranks)), -crowding, ranks))


def evolve_generation(
    genes: np.ndarray,
    scores: np.ndarray,
    ranks: np.ndarray,
    evaluator: CandidateEvaluator,
    config: GAConfig,
    generation: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (mu + lambda) NSGA-II step on (P, N, M-1) genes, their (P, 2)
    scores and the scores' non-dominated ranks; returns the surviving
    genes, scores and ranks. The merged population of parents and children
    is the only one ranked: the survivors keep their merged ranks."""
    crowding = _crowding(scores, ranks)
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
    scores = np.concatenate([scores, evaluator.score(children, config.dim)])
    merged_ranks, merged_crowding = rank_population(scores)
    survivors = _selection_order(merged_ranks, merged_crowding)[:size]
    return genes[survivors], scores[survivors], merged_ranks[survivors]


def hypervolume(scores) -> float:
    """Area dominated by the points of a (P, 2) array-like of (wAcc, avgSim)
    rows relative to the worst corner of the objective space, wAcc 0 and
    avgSim 1; a point outside that box adds nothing. Any other shape raises
    ShapeError."""
    scores = _score_rows(scores)
    kept = scores[_ranks(scores) == 0]
    coords = sorted(kept.tolist(), key=lambda p: -p[1])
    area = 0.0
    prev_sim = 1.0
    for wacc, sim in coords:
        area += max(0.0, wacc) * max(0.0, prev_sim - sim)
        prev_sim = min(prev_sim, sim)
    return area


def run_optimization(
    train: Dataset, quantizer: Quantizer, config: GAConfig
) -> ParetoFront:
    """Run the full search and return the deduplicated feasible front."""
    evaluator = CandidateEvaluator(train, quantizer, config.seed)
    genes = initialize_population(config, train.n_features)
    scores = evaluator.score(genes, config.dim)
    ranks = _ranks(scores)
    hypervolumes = [hypervolume(scores[ranks == 0])]
    for gen in range(config.generations):
        genes, scores, ranks = evolve_generation(genes, scores, ranks, evaluator, config, gen)
        hypervolumes.append(hypervolume(scores[ranks == 0]))

    front = ranks == 0
    genes, scores = genes[front], scores[front]
    _, first = np.unique(genes.reshape(len(genes), -1), axis=0, return_index=True)
    order = sorted(
        first.tolist(),
        key=lambda i: (-scores[i, 0], scores[i, 1], genes[i].tobytes()),
    )
    members = [
        (FlipBudget(budgets=genes[i], dim=config.dim), ObjectiveScores(wacc, sim))
        for i, (wacc, sim) in zip(order, scores[order].tolist())
    ]

    provenance = {
        **asdict(config),
        "n_samples": train.n_samples,
        "n_features": train.n_features,
        "n_classes": train.n_classes,
    }
    return ParetoFront(
        members=members,
        provenance=provenance,
        generation_hypervolumes=hypervolumes,
    )
