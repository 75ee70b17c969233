"""Genetic-algorithm search: determinism, elitism and known optima."""

import math

import numpy as np
import pytest

from keyrates.asymptotic import sps_asymptotic_rate, sps_rate_fixed_mean
from keyrates.optimizer import GASettings, OptimizationResult, SearchSpace, optimize


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
