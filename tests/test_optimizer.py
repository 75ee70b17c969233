"""Genetic-algorithm search: determinism, elitism and known optima."""

import math

import numpy as np
import pytest

from keyrates import optimizer
from keyrates.asymptotic import sps_asymptotic_rate, sps_rate_fixed_mean
from keyrates.optimizer import (
    ELITE_COUNT,
    MUTATION_SIGMA_FRACTION,
    TOURNAMENT_SIZE,
    GASettings,
    OptimizationResult,
    SearchSpace,
    _bounded_uint32s,
    _breed,
    optimize,
)


def quadratic_objective(params):
    # Smooth single-peak surface with optimum at (0.3, -0.7).
    x, y = params["x"], params["y"]
    return -((x - 0.3) ** 2) - ((y + 0.7) ** 2)


SPACE_2D = SearchSpace({"x": (-1.0, 1.0), "y": (-1.0, 1.0)})


class TestMechanics:
    def test_fixed_seed_is_bit_identical(self):
        settings = GASettings(seed=42, max_generations=40)
        first = optimize(quadratic_objective, SPACE_2D, settings)
        second = optimize(quadratic_objective, SPACE_2D, settings)
        assert first.best_params == second.best_params
        assert first.best_rate == second.best_rate
        assert first.history == second.history

    def test_different_seeds_explore_differently(self):
        a = optimize(quadratic_objective, SPACE_2D, GASettings(seed=1, max_generations=5))
        b = optimize(quadratic_objective, SPACE_2D, GASettings(seed=2, max_generations=5))
        assert a.history != b.history

    def test_history_is_non_decreasing(self):
        result = optimize(quadratic_objective, SPACE_2D, GASettings(seed=7, max_generations=60))
        assert all(b >= a for a, b in zip(result.history, result.history[1:]))

    def test_result_beats_midpoint(self):
        midpoint = SPACE_2D.decode(SPACE_2D.midpoint())
        result = optimize(quadratic_objective, SPACE_2D, GASettings(seed=3, max_generations=30))
        assert result.best_rate >= quadratic_objective(midpoint)

    def test_candidates_respect_bounds(self):
        seen = []

        def recording_objective(params):
            seen.append(params)
            return quadratic_objective(params)

        optimize(recording_objective, SPACE_2D, GASettings(seed=5, max_generations=20))
        for params in seen:
            assert -1.0 <= params["x"] <= 1.0
            assert -1.0 <= params["y"] <= 1.0

    def test_simplex_renormalised_at_evaluation(self):
        space = SearchSpace(
            {"a": (0.01, 1.0), "b": (0.01, 1.0), "c": (0.01, 1.0)},
            simplex_groups=(("a", "b", "c"),),
        )
        seen = []

        def objective(params):
            seen.append(params)
            return params["a"]

        result = optimize(objective, space, GASettings(seed=11, max_generations=10))
        for params in seen:
            assert params["a"] + params["b"] + params["c"] == pytest.approx(1.0, abs=1e-12)
        assert result.best_params["a"] <= 1.0

    def test_population_scorer_gives_the_point_result(self):
        # quadratic_objective is plain arithmetic, so it scores the
        # decoded columns of a whole population as well as one point.
        settings = GASettings(seed=42, max_generations=40)
        point = optimize(quadratic_objective, SPACE_2D, settings)
        batched = optimize(
            quadratic_objective, SPACE_2D, settings, score_population=quadratic_objective
        )
        assert batched.best_params == point.best_params
        assert batched.best_rate == point.best_rate
        assert batched.history == point.history

    def test_population_floor(self):
        with pytest.raises(ValueError):
            GASettings(population_size=3)


class TestKnownOptima:
    def test_recovers_attenuated_branch_optimum(self):
        # High loss, fixed source (mean 1, g2 = 0.1), free pre-attenuation:
        # the best thinned mean is eta / (g2 (eta^2 + 1)) and the best rate
        # equals the attenuated branch of the asymptotic formula.
        eta = 0.01
        g2 = 0.1

        def objective(params):
            return sps_rate_fixed_mean(eta, params["t"] * 1.0, g2)

        space = SearchSpace({"t": (1e-6, 1.0)})
        result = optimize(objective, space, GASettings(seed=202))
        branch2 = sps_asymptotic_rate(eta, 1.0, g2)
        assert result.best_rate == pytest.approx(branch2, rel=0.01)
        t_star = eta / (g2 * (eta**2 + 1.0))
        assert result.best_params["t"] == pytest.approx(t_star, rel=0.01)

    def test_wcp_optimum_at_unit_mean(self):
        eta = 0.3

        def objective(params):
            mu = params["mu"]
            return eta * mu * math.exp(-mu)

        space = SearchSpace({"mu": (1e-3, 1.0)})
        result = optimize(objective, space, GASettings(seed=99))
        assert abs(result.best_params["mu"] - 1.0) <= 1e-3
        assert result.best_rate == pytest.approx(eta / math.e, rel=1e-3)


def test_result_fields():
    result = optimize(quadratic_objective, SPACE_2D, GASettings(seed=1, max_generations=10))
    assert isinstance(result, OptimizationResult)
    assert set(result.best_params) == {"x", "y"}
    assert len(result.history) >= 2


def test_decode_of_a_gene_array_matches_each_row():
    # Simplex members may go negative here, so some rows have no
    # positive sum and must come back unchanged.
    space = SearchSpace(
        {"q": (0.5, 0.99), "a": (-0.2, 1.0), "b": (-0.2, 1.0), "c": (-0.2, 1.0)},
        simplex_groups=(("a", "b", "c"),),
    )
    lows, highs = space.bounds_arrays()
    genes = lows + np.random.default_rng(3).random((400, 4)) * (highs - lows)
    columns = space.decode(genes)
    rows = [space.decode(row) for row in genes]
    assert any(r["a"] + r["b"] + r["c"] <= 0.0 for r in rows)
    assert all(type(value) is float for row in rows for value in row.values())
    for (_, a, b, c), row in zip(genes.tolist(), rows):
        total = (a + b) + c
        if total > 0.0:
            assert (row["a"], row["b"], row["c"]) == (a / total, b / total, c / total)
    for name in space.names:
        assert columns[name].tolist() == [row[name] for row in rows]


@pytest.mark.parametrize("n", [4, 5, 50, 10_000, 2**31 + 1])
def test_one_tournament_call_draws_what_two_calls_draw(n):
    # _bounded_uint32s emulates one integers(0, n, 6) call per child, while
    # _children_one_at_a_time draws each tournament in its own call of 3.
    # With PCG64 a bounded 32-bit draw takes half of a 64-bit word and
    # keeps the other half for the next call, so the merged call must give
    # the same indices and leave the stream where two calls leave it; a
    # random() call between children must agree too. At 2**31 + 1 about
    # half the 32-bit draws are rejected.
    for seed in range(20):
        merged, split = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            both = merged.integers(0, n, 2 * TOURNAMENT_SIZE).tolist()
            first = split.integers(0, n, TOURNAMENT_SIZE).tolist()
            assert both == first + split.integers(0, n, TOURNAMENT_SIZE).tolist()
            assert merged.random() == split.random()
        assert merged.bit_generator.state == split.bit_generator.state


@pytest.mark.parametrize("n", [4, 5, 50, 10_000, 3 * 2**30, 2**31 + 1])
@pytest.mark.parametrize("pending_half", [0, 1])
def test_bounded_uint32s_draws_what_integers_draws(n, pending_half):
    # _bounded_uint32s reads both tournaments of a child from raw PCG64
    # words. It must give the indices of one integers(0, n, 6) call and
    # leave bit_generator.state, has_uint32 and uinteger included, where
    # integers leaves it; a random() call between children must agree
    # too. At 3 * 2**30 and 2**31 + 1 about 25 % and 50 % of the 32-bit
    # draws are rejected and redrawn.
    count = 2 * TOURNAMENT_SIZE
    words_read = 0
    for seed in range(20):
        emulated, merged = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending_half:
            emulated.integers(0, 7), merged.integers(0, 7)
        bits = emulated.bit_generator
        state = bits.state
        assert state["has_uint32"] == pending_half
        has_half, half = state["has_uint32"], state["uinteger"]
        for child in range(50):
            # Odd children prefetch the fewest words six draws can take;
            # even ones fetch every word through raw().
            words = bits.random_raw(3).tolist() if child % 2 else []
            draws, k, has_half, half = _bounded_uint32s(
                n, count, words, has_half, half, bits.random_raw
            )
            words_read += k
            assert k == len(words)
            assert draws == merged.integers(0, n, count).tolist()
            assert emulated.random() == merged.random()
        state = bits.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bits.state = state
        assert state == merged.bit_generator.state
    # Without redraws, 20 * 50 children read 3 words each.
    assert (words_read > 3000) == (n > 2**30)


def _children_one_at_a_time(rng, population, n_children, sigma, lows, highs):
    """Reference for ``_breed``: each child drawn and built on its own."""
    pop_size, n_genes = population.shape
    children = np.empty((n_children, n_genes))
    for i in range(n_children):
        parent_a = population[rng.integers(0, pop_size, TOURNAMENT_SIZE).min()]
        parent_b = population[rng.integers(0, pop_size, TOURNAMENT_SIZE).min()]
        child = parent_a.copy()
        if rng.random() < optimizer.CROSSOVER_PROB:
            mask = rng.random(n_genes) < 0.5
            child[mask] = parent_b[mask]
        mutate = rng.random(n_genes) < optimizer.MUTATION_PROB
        if mutate.any():
            noise = rng.standard_normal(n_genes) * sigma
            child = np.where(mutate, child + noise, child)
        children[i] = np.minimum(np.maximum(child, lows), highs)
    return children


@pytest.mark.parametrize("crossover_prob", [None, 0.0, 1.0])
@pytest.mark.parametrize("mutation_prob", [None, 0.0, 1.0])
def test_breed_matches_children_built_one_at_a_time(monkeypatch, crossover_prob, mutation_prob):
    # _breed reads CROSSOVER_PROB and MUTATION_PROB when it is called.
    if crossover_prob is not None:
        monkeypatch.setattr(optimizer, "CROSSOVER_PROB", crossover_prob)
    if mutation_prob is not None:
        monkeypatch.setattr(optimizer, "MUTATION_PROB", mutation_prob)
    for n_genes in (2, 6):
        lows = np.linspace(-1.0, 0.5, n_genes)
        highs = lows + np.linspace(0.5, 3.0, n_genes)
        span = highs - lows
        sigma = MUTATION_SIGMA_FRACTION * span
        for pop_size in (4, 5, 50):
            for seed in range(20):
                genes = np.random.default_rng(1000 + seed).random((pop_size, n_genes))
                population = lows + genes * span
                batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
                if seed % 2:
                    # Start with half a word pending (has_uint32 = 1).
                    batched.integers(0, 7), looped.integers(0, 7)
                # Consecutive generations on one generator carry a pending
                # half-word from one generation into the next.
                for _ in range(5):
                    args = (population, pop_size - ELITE_COUNT, sigma, lows, highs)
                    children = _breed(batched, *args)
                    expected = _children_one_at_a_time(looped, *args)
                    assert children.tolist() == expected.tolist()
                    assert batched.bit_generator.state == looped.bit_generator.state
                    population = np.vstack([population[:ELITE_COUNT], children])


def test_breed_matches_the_loop_when_redraws_outrun_the_prefetch():
    # With 2**31 + 1 candidates about half the 32-bit tournament draws are
    # redrawn, so a child's tournaments often read past the 4 + n_genes
    # words _breed prefetches. A broadcast population has that many rows
    # without storing them; equal rows leave the stream, and the state
    # after each generation, to tell the draws apart.
    for n_genes in (1, 2):
        lows, highs = np.zeros(n_genes), np.ones(n_genes)
        population = np.broadcast_to(np.linspace(0.2, 0.8, n_genes), (2**31 + 1, n_genes))
        sigma = MUTATION_SIGMA_FRACTION * (highs - lows)
        args = (population, 48, sigma, lows, highs)
        for seed in range(5):
            batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                children = _breed(batched, *args)
                assert children.tolist() == _children_one_at_a_time(looped, *args).tolist()
                assert batched.bit_generator.state == looped.bit_generator.state
