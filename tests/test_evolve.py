import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvdesign import (
    CandidateEvaluator,
    ConfigError,
    FlipBudget,
    GAConfig,
    ObjectiveScores,
    ShapeError,
    calibrate_quantizer,
    evolve_generation,
    generate_linear,
    hypervolume,
    initialize_population,
    rank_population,
    run_optimization,
    uniform_flip_budget,
)
from hvdesign import evolve, objectives
from hvdesign.evolve import (
    _generation_rng,
    _loop_draws,
    _ranks,
    _selection_order,
    _variation_draws,
)
from hvdesign.hypervector import _repair

from conftest import dominates, repaired

MICRO_CONFIG = dict(population_size=40, generations=50, dim=16, levels=3, mutation_rate=0.3)


def exhaustive_front(dataset, quantizer, base_seed):
    """Brute-force Pareto oracle over the 45 feasible micro-problem budgets:
    the (b1, b2) pairs in 0..8 with b1 + b2 <= D/2 = 8."""
    evaluator = CandidateEvaluator(dataset, quantizer, base_seed)
    scored = {
        (b1, b2): evaluator.evaluate(FlipBudget(budgets=np.array([[b1, b2]]), dim=16))
        for b1 in range(9)
        for b2 in range(9)
        if b1 + b2 <= 8
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


def reference_crowding(scores, ranks):
    """Crowding distance front by front: each front's members in index
    order, the normalized wAcc gaps between neighbours, then the avgSim
    gaps; boundary points and fronts of at most 2 are infinite."""
    crowding = np.zeros(len(scores), dtype=np.float64)
    for r in np.unique(ranks):
        front = np.flatnonzero(ranks == r)
        if front.size <= 2:
            crowding[front] = np.inf
            continue
        for col in (0, 1):  # wAcc, avgSim
            vals = scores[front, col]
            order = np.argsort(vals, kind="stable")
            crowding[front[order[0]]] = np.inf
            crowding[front[order[-1]]] = np.inf
            span = vals[order[-1]] - vals[order[0]]
            if span == 0:
                continue
            crowding[front[order[1:-1]]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return crowding


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
scores = st.builds(ObjectiveScores, wacc=grid, avg_sim=grid)
# Members drawn from a small pool repeat the same ObjectiveScores object.
populations = st.lists(scores, min_size=1, max_size=10).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)
)


def as_array(scored):
    """The (P, 2) (wAcc, avgSim) score array of a list of ObjectiveScores."""
    return np.array([[s.wacc, s.avg_sim] for s in scored], dtype=np.float64).reshape(-1, 2)


def as_scored(scores):
    """One ObjectiveScores per row of a (P, 2) score array."""
    return [ObjectiveScores(wacc, sim) for wacc, sim in scores.tolist()]


def front_budgets(front):
    return {tuple(int(v) for v in budget.budgets.ravel()) for budget, _ in front.members}


class TestInitializePopulation:
    def test_size_and_feasibility(self):
        config = GAConfig(population_size=30, generations=1, seed=1, dim=32, levels=5)
        genes = initialize_population(config, n_features=3)
        assert genes.shape == (30, 3, 4) and genes.dtype == np.int64
        assert np.all(genes >= 0)
        assert np.all(genes.sum(axis=2) <= 16)

    def test_baseline_anchor_present_once(self):
        config = GAConfig(population_size=30, generations=1, seed=1, dim=32, levels=5)
        genes = initialize_population(config, n_features=3)
        anchor = uniform_flip_budget(32, 5, features=3)
        assert (genes == anchor.budgets).all(axis=(1, 2)).sum() == 1
        assert np.array_equal(genes[0], anchor.budgets)

    @pytest.mark.parametrize("n_features, levels", [(2, 20), (3, 4), (57, 20)])
    def test_equals_one_draw_per_member(self, n_features, levels):
        # One batched call takes the same 32-bit halves as a call per
        # member, also when N*(M-1) is odd and a half is carried over.
        config = GAConfig(population_size=30, generations=1, seed=4, dim=64, levels=levels)
        rng = np.random.default_rng([config.seed, 0])
        members = [rng.integers(0, 33, size=(n_features, levels - 1)) for _ in range(29)]
        want = repaired(np.concatenate(members), 64).budgets
        genes = initialize_population(config, n_features)
        assert np.array_equal(genes[1:].reshape(-1, levels - 1), want)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=5)
        with pytest.raises(ValueError):
            GAConfig(generations=0)
        with pytest.raises(ValueError):
            GAConfig(mutation_rate=1.5)
        for fields in ({"dim": 0}, {"dim": 1}, {"dim": 63}, {"levels": 1}):
            with pytest.raises(ConfigError):
                GAConfig(**fields)
        # Settings that are not whole numbers, or rates that are not real
        # numbers, are refused at construction, not at the search's first
        # use of them.
        for fields in (
            {"dim": 64.0}, {"population_size": 20.0}, {"generations": 2.5},
            {"levels": 20.0}, {"seed": 1.5}, {"seed": True}, {"dim": True},
            {"crossover_rate": "0.5"}, {"mutation_rate": True},
        ):
            with pytest.raises(ConfigError, match="must be an integer|must be a real number"):
                GAConfig(**fields)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
                GAConfig(seed=seed)

    def test_whole_numpy_settings_accepted(self):
        config = GAConfig(population_size=np.int64(4), generations=np.uint8(1),
                          seed=2**64 - 1, dim=np.int32(16), levels=np.int64(3),
                          crossover_rate=np.float32(0.5), mutation_rate=1)
        assert config.seed == 2**64 - 1 and config.dim == 16


class TestRepair:
    def test_examples(self):
        feasible = np.array([[2, 2]])
        assert _repair(feasible, 16) is feasible
        once = _repair(np.array([[6, 6]]), 16)
        assert once.tolist() == [[4, 4]]
        assert _repair(once, 16) is once
        assert repaired([[6, 6]], 16) == FlipBudget(budgets=once, dim=16)


class TestRankPopulation:
    def test_strict_dominance(self):
        scored = [
            ObjectiveScores(wacc=0.9, avg_sim=0.1),
            ObjectiveScores(wacc=0.8, avg_sim=0.2),
        ]
        ranks, _ = rank_population(as_array(scored))
        assert ranks.tolist() == [0, 1]

    def test_identical_objectives_share_rank(self):
        scored = [ObjectiveScores(wacc=0.5, avg_sim=0.5)] * 3
        ranks, _ = rank_population(as_array(scored))
        assert ranks.tolist() == [0, 0, 0]

    def test_boundary_points_infinite_crowding(self):
        scored = [
            ObjectiveScores(wacc=0.9, avg_sim=0.9),
            ObjectiveScores(wacc=0.5, avg_sim=0.5),
            ObjectiveScores(wacc=0.1, avg_sim=0.1),
        ]
        ranks, crowding = rank_population(as_array(scored))
        assert ranks.tolist() == [0, 0, 0]
        assert crowding[0] == crowding[2] == np.inf
        assert np.isfinite(crowding[1])

    def test_nested_lists_rank_as_the_array(self):
        rows = [[0.9, 0.9], [0.5, 0.5], [0.5, 0.5], [0.1, 0.1], [0.4, 0.6]]
        ranks, crowding = rank_population(rows)
        want_ranks, want_crowding = rank_population(np.array(rows))
        assert np.array_equal(ranks, want_ranks) and np.array_equal(crowding, want_crowding)
        assert ranks.tolist() == [0, 0, 0, 0, 1]
        assert hypervolume(rows) == hypervolume(np.array(rows))
        assert hypervolume([[1, 0]]) == 1.0  # whole numbers rank as floats

    @pytest.mark.parametrize(
        "scores", [np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2)), [], [[0.5]]],
        ids=["3-columns", "1-d", "3-d", "empty-list", "1-column"],
    )
    def test_other_shapes_refused(self, scores):
        shape = np.shape(scores)
        with pytest.raises(ShapeError, match=rf"\(P, 2\).*got shape {re.escape(str(shape))}"):
            rank_population(scores)
        with pytest.raises(ShapeError, match=r"\(P, 2\)"):
            hypervolume(scores)

    def test_no_rows_rank_as_nothing(self):
        ranks, crowding = rank_population(np.empty((0, 2)))
        assert ranks.shape == crowding.shape == (0,)
        assert hypervolume(np.empty((0, 2))) == 0.0

    @given(populations)
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_dominates_oracle(self, scored):
        scores = as_array(scored)
        ranks, crowding = rank_population(scores)
        assert np.array_equal(ranks, reference_ranks(scored))
        assert np.array_equal(crowding, reference_crowding(scores, ranks))
        for r in set(ranks.tolist()):
            front = ranks == r
            infinite = np.isinf(crowding[front])
            for vals in scores[front].T:
                assert infinite[vals == vals.min()].any()
                assert infinite[vals == vals.max()].any()
        kept = [
            i
            for i, s in enumerate(scored)
            if not any(dominates(t, s) for j, t in enumerate(scored) if j != i)
        ]
        points = [(scored[i].wacc, scored[i].avg_sim) for i in kept]
        assert hypervolume(scores) == union_area(points)
        assert np.flatnonzero(_ranks(scores) == 0).tolist() == kept

    def test_grid_generation_matches_reference(self, motivational, monkeypatch):
        # The 400 rows ranked in the seed-0 grid search's first generation,
        # its only ranking: float scores, many of them near-ties.
        config = GAConfig(seed=0)
        evaluator = CandidateEvaluator(
            motivational, calibrate_quantizer(motivational, config.levels), config.seed
        )
        genes = initialize_population(config, motivational.n_features)
        ranked = []

        def recorded(scores):
            ranked.append(scores)
            return rank_population(scores)

        monkeypatch.setattr(evolve, "rank_population", recorded)
        scores = evaluator.score(genes, config.dim)
        evolve_generation(genes, scores, _ranks(scores), evaluator, config, 0)
        assert len(ranked) == 1
        scores = ranked[0]
        assert scores.shape == (400, 2)
        ranks, crowding = rank_population(scores)
        assert np.array_equal(ranks, reference_ranks(as_scored(scores)))
        assert np.array_equal(crowding, reference_crowding(scores, ranks))
        assert ranks.max() > 1 and np.isfinite(crowding).sum() > 100

    @given(st.integers(2, 40).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(st.tuples(grid, grid),
                                                       min_size=2 * size, max_size=2 * size))))
    @settings(max_examples=300, deadline=None)
    def test_survivors_keep_their_merged_ranks(self, drawn):
        # Survival keeps whole fronts and part of the cut front, so ranking
        # the P survivors alone gives them the ranks they had among all 2P.
        size, points = drawn
        merged = np.array(points, dtype=np.float64)
        kept = _selection_order(*rank_population(merged))[:size]
        assert np.array_equal(_ranks(merged)[kept], _ranks(merged[kept]))

    def test_nan_rejected(self):
        scores = np.array([[np.nan, 0.5], [0.5, 0.5], [0.4, 0.6]])
        for rank in (rank_population, hypervolume, _ranks):
            with pytest.raises(ValueError, match="NaN"):
                rank(scores)


def scored_population(config, evaluator):
    """Initial genes and their scores, through the public evaluator."""
    genes = initialize_population(config, evaluator.train.n_features)
    scored = [evaluator.evaluate(FlipBudget(budgets=g, dim=config.dim)) for g in genes]
    return genes, as_array(scored)


def member_keys(genes, scores):
    return {(g.tobytes(), s.tobytes()) for g, s in zip(genes, scores)}


def reference_generation(genes, scores, evaluator, config, generation):
    """One GA step as a loop over pairs of children and their draws: in each
    binary tournament the second pick wins only when it has a lower rank, or
    the same rank and larger crowding."""
    ranks, crowding = rank_population(scores)
    rng = np.random.default_rng([config.seed, 1, generation])
    size, shape = len(genes), genes.shape[1:]

    def tournament():
        held, challenger = rng.integers(0, size, size=2)
        if ranks[challenger] < ranks[held] or (
            ranks[challenger] == ranks[held] and crowding[challenger] > crowding[held]
        ):
            return challenger
        return held

    children = []
    for _ in range(size // 2):
        i, j = tournament(), tournament()
        swap = rng.random(shape) < config.crossover_rate
        for child in (np.where(swap, genes[j], genes[i]), np.where(swap, genes[i], genes[j])):
            mutate = rng.random(shape) < config.mutation_rate
            fresh = rng.integers(0, config.dim // 2 + 1, size=shape)
            children.append(repaired(np.where(mutate, fresh, child), config.dim))
    genes = np.concatenate([genes, [child.budgets for child in children]])
    scores = np.concatenate([scores, as_array(evaluator.evaluate(c) for c in children)])
    ranks, crowding = rank_population(scores)
    survivors = np.lexsort((np.arange(len(scores)), -crowding, ranks))[:size]
    return genes[survivors], scores[survivors]


class TestEvolveGeneration:
    def test_population_size_and_feasibility_preserved(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=3, **MICRO_CONFIG)
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, config.seed)
        genes, scores = scored_population(config, evaluator)
        survivors, survivor_scores, ranks = evolve_generation(
            genes, scores, _ranks(scores), evaluator, config, 0
        )
        assert survivors.shape == genes.shape and survivor_scores.shape == scores.shape
        assert ranks.shape == (len(genes),) and ranks.dtype == np.int64
        assert np.all(survivors.sum(axis=2) <= config.dim // 2)
        for g, want in zip(survivors, as_scored(survivor_scores)):
            assert evaluator.evaluate(FlipBudget(budgets=g, dim=config.dim)) == want

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_matches_pairwise_reference(self, micro_dataset, micro_quantizer, seed):
        config = GAConfig(seed=seed, **MICRO_CONFIG)
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, config.seed)
        genes, scores = scored_population(config, evaluator)
        ranks = _ranks(scores)
        for gen in range(5):
            want = reference_generation(genes, scores, evaluator, config, gen)
            genes, scores, ranks = evolve_generation(genes, scores, ranks, evaluator, config, gen)
            assert np.array_equal(genes, want[0]) and scores.tobytes() == want[1].tobytes()
            # The carried ranks are the ones the survivors have among themselves.
            assert np.array_equal(ranks, _ranks(scores))

    def test_elitism_keeps_nondominated_parents(self, micro_dataset, micro_quantizer):
        config = GAConfig(seed=3, **MICRO_CONFIG)
        evaluator = CandidateEvaluator(micro_dataset, micro_quantizer, config.seed)
        genes, scores = scored_population(config, evaluator)
        ranks = _ranks(scores)
        elite = member_keys(genes[ranks == 0], scores[ranks == 0])
        survivors, survivor_scores, _ = evolve_generation(genes, scores, ranks, evaluator, config, 0)
        assert elite <= member_keys(survivors, survivor_scores)


def assert_same_draws(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def position(rng):
    """A PCG64 generator's state and whether it carries a 32-bit half."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"]


def loop_state(config, size, shape, generation):
    """The reference loop's draws and its generator position afterwards."""
    rng = _generation_rng(config, generation)
    return _loop_draws(rng, config, size, shape), position(rng)


def advanced_state(config, generation, words):
    rng = _generation_rng(config, generation)
    rng.bit_generator.advance(words)
    return position(rng)


def pair_words(size, shape):
    """Raw words a generation takes: 2 for a pair's picks, then K each for
    its swap mask and two mutation masks, and K for its two children's
    fresh genes (two 32-bit halves a word), with K genes a child."""
    return size // 2 * (2 + 4 * shape[0] * shape[1])


class TestVariationDraws:
    # (P, (N, M-1), D, seeds): the grid, odd N*(M-1) (57*19, 3*3 and 1*1,
    # where the first child's fresh genes leave a half-word that starts the
    # second child's), even K=10, and P=4 to 8; 260 (seed, generation)
    # pairs in all.
    SHAPES = [
        (200, (2, 19), 64, range(12)),
        (200, (57, 19), 64, range(4)),
        (20, (3, 3), 32, range(12)),
        (6, (3, 3), 16, range(12)),
        (6, (57, 19), 64, range(4)),
        (4, (1, 1), 2, range(4)),
        (8, (5, 2), 8, range(4)),
    ]

    @staticmethod
    def counted_loop(monkeypatch):
        calls = []

        def recorded(*args):
            calls.append(args)
            return _loop_draws(*args)

        monkeypatch.setattr(evolve, "_loop_draws", recorded)
        return calls

    @pytest.mark.parametrize("size, shape, dim, seeds", SHAPES)
    def test_equals_pairwise_loop(self, monkeypatch, size, shape, dim, seeds):
        calls = self.counted_loop(monkeypatch)
        for seed in seeds:
            config = GAConfig(population_size=size, seed=seed, dim=dim, levels=shape[1] + 1)
            for generation in range(5):
                want, state = loop_state(config, size, shape, generation)
                assert_same_draws(_variation_draws(config, size, shape, generation), want)
                # Nothing was rejected, so the fallback never ran ...
                assert calls == []
                # ... and the loop takes exactly the block's words and carries no half.
                assert state == advanced_state(config, generation, pair_words(size, shape))

    def test_rejected_draw_falls_back_to_the_loop(self, monkeypatch):
        # At D=2048 a bounded draw of seed 10's first generation is below
        # Lemire's threshold, so numpy redraws it and the loop takes more
        # halves than the block holds.
        size, shape = 200, (57, 19)
        config = GAConfig(population_size=size, seed=10, dim=2048, levels=20)
        want, state = loop_state(config, size, shape, 0)
        assert state != advanced_state(config, 0, pair_words(size, shape))

        calls = self.counted_loop(monkeypatch)
        assert_same_draws(_variation_draws(config, size, shape, 0), want)
        assert len(calls) == 1


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
        for budget, _ in front.members:
            assert np.all(budget.row_sums <= half)
        for i, (_, si) in enumerate(front.members):
            for j, (_, sj) in enumerate(front.members):
                if i != j:
                    assert not dominates(si, sj)

    def test_scores_only_feasible_budgets(self, motivational, monkeypatch):
        # Scoring refuses a row over D/2, so the GA repairs every budget
        # before it scores it: each row of every budget the grid search
        # scores sums to at most D/2.
        config = GAConfig(generations=3, seed=0)
        scored = []
        score = CandidateEvaluator.score

        def recorded(evaluator, genes, dim):
            scored.append(genes.copy())
            return score(evaluator, genes, dim)

        monkeypatch.setattr(CandidateEvaluator, "score", recorded)
        run_optimization(motivational, calibrate_quantizer(motivational, config.levels), config)
        genes = np.concatenate(scored)
        assert len(genes) == config.population_size * (config.generations + 1)
        assert genes.sum(axis=2).max() <= config.dim // 2

    def test_levels_other_than_the_quantizers_rejected(self, micro_dataset, micro_quantizer):
        # The evaluator refuses the initial population's (N, M-1) budgets.
        config = GAConfig(**{**MICRO_CONFIG, "levels": 4})
        with pytest.raises(ShapeError, match="does not match dataset N=1, M=3"):
            run_optimization(micro_dataset, micro_quantizer, config)

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
        scores = np.array([[0.8, 0.3]])
        assert hypervolume(scores) == pytest.approx(0.8 * 0.7)

    def test_dominated_point_ignored(self):
        scores = np.array([[0.8, 0.3], [0.5, 0.5]])
        assert hypervolume(scores) == pytest.approx(0.8 * 0.7)

    def test_two_point_front(self):
        scores = np.array([[0.9, 0.5], [0.4, 0.1]])
        assert hypervolume(scores) == pytest.approx(0.9 * 0.5 + 0.4 * 0.4)


class TestGenerationMemory:
    """Peak bytes `tracemalloc` traces in one warm generation (pop 200,
    D=64, M=20) above the generation's starting level. numpy reports its
    data buffers to `tracemalloc`, so these count the generation's
    temporaries exactly, whatever state the heap is in, where page faults
    do not. The bound, one formula for both shapes, is linear in the
    population's P*N*(M-1) int64 genes and in a scoring block's
    `_BLOCK_ELEMENTS` float64 temporaries. Measured 1,284,920 B on the grid
    (bound 1,307,162, 1.7% above) and 12,493,876 B on the wide problem
    (bound 12,743,642, 2.0% above), nearly all of it there in the
    variation draws."""

    GENES, BLOCK = 6.84, 1.7

    @pytest.mark.parametrize("problem", ["grid", "wide"])
    def test_peak_per_generation(self, motivational, problem):
        data = motivational if problem == "grid" else generate_linear(400, 57)
        config = GAConfig(population_size=200, generations=5, seed=0, dim=64, levels=20)
        evaluator = CandidateEvaluator(data, calibrate_quantizer(data, config.levels), config.seed)
        genes = initialize_population(config, data.n_features)
        scores = evaluator.score(genes, config.dim)
        ranks = _ranks(scores)
        peaks = []
        for generation in range(config.generations):
            traced = generation >= 2  # after 2 warm-up generations
            if traced:
                tracemalloc.start()
                start = tracemalloc.get_traced_memory()[0]
            genes, scores, ranks = evolve_generation(
                genes, scores, ranks, evaluator, config, generation
            )
            if traced:
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                tracemalloc.stop()
        gene_bytes = config.population_size * data.n_features * (config.levels - 1) * 8
        bound = self.GENES * gene_bytes + self.BLOCK * objectives._BLOCK_ELEMENTS * 8
        assert max(peaks) <= bound
