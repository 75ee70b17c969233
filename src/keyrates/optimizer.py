"""Genetic-algorithm maximisation of key rates over protocol parameters.

A plain generational GA: tournament selection, uniform crossover,
per-gene Gaussian mutation, elitism, and an optional deterministic
coordinate refinement of the final best candidate. The objective must
be total (return 0 for infeasible points instead of raising); runs are
bit-for-bit reproducible for a fixed seed. An optional array scorer
rates a whole population in one call.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .finite_key.comparison import _golden_max


@dataclass(frozen=True)
class SearchSpace:
    """Named parameters with inclusive [min, max] ranges.

    Parameters listed in a simplex group are renormalised to sum to one
    at evaluation time, so crossover and mutation stay closed over the
    feasible set while the objective always sees a valid simplex.
    """

    parameters: Mapping[str, tuple[float, float]]
    simplex_groups: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        for name, (lo, hi) in self.parameters.items():
            if not lo < hi:
                raise ValueError(f"empty range for {name!r}: [{lo}, {hi}]")
        for group in self.simplex_groups:
            for name in group:
                if name not in self.parameters:
                    raise ValueError(f"simplex member {name!r} not a parameter")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.parameters)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lows = np.array([lo for lo, _ in self.parameters.values()])
        highs = np.array([hi for _, hi in self.parameters.values()])
        return lows, highs

    def midpoint(self) -> np.ndarray:
        lows, highs = self.bounds_arrays()
        return 0.5 * (lows + highs)

    def decode(self, genes: np.ndarray) -> dict:
        """Parameters of one gene vector, as floats, or of a 2-D gene
        array with one candidate per row, as one column per parameter.

        Each simplex group is divided by its sum ``(a + b) + c`` where
        that sum is positive, so both shapes give the same values.
        """
        genes = np.asarray(genes, dtype=float)
        single = genes.ndim == 1
        params = dict(zip(self.names, genes.tolist() if single else genes.T))
        for group in self.simplex_groups:
            total = sum(params[name] for name in group)
            # Dividing by one leaves a group without a positive sum as it is.
            if single:
                divisor = total if total > 0.0 else 1.0
            else:
                divisor = np.where(total > 0.0, total, 1.0)
            for name in group:
                params[name] = params[name] / divisor
        return params


@dataclass(frozen=True)
class GASettings:
    """Hyperparameters of the genetic search.

    Defaults are conventional; the search itself is not sensitive to
    them for the smooth rate surfaces optimised here. ``polish`` runs a
    deterministic golden-section pass per coordinate on the final best
    candidate, which sharpens the optimum well below the mutation scale.
    """

    population_size: int = 50
    max_generations: int = 200
    stagnation_limit: int = 30
    tournament_size: int = 3
    crossover_prob: float = 0.7
    mutation_prob: float = 0.1
    mutation_sigma_fraction: float = 0.1
    elite_count: int = 2
    seed: int = 0
    polish: bool = True

    def __post_init__(self) -> None:
        if self.population_size < self.elite_count + 2:
            raise ValueError("population_size must be >= elite_count + 2")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    best_params: dict[str, float]
    best_rate: float
    history: tuple[float, ...] = field(repr=False)


def optimize(
    objective: Callable[[dict[str, float]], float],
    space: SearchSpace,
    settings: GASettings,
    *,
    score_population: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None,
) -> OptimizationResult:
    """Maximise ``objective`` over ``space`` with a seeded GA.

    The midpoint of the space is seeded into the initial population, so
    the result is never worse than the midpoint configuration. The
    fitness history is non-decreasing by elitism.

    ``score_population``, if given, takes the decoded columns of a whole
    population (``space.decode`` of a 2-D gene array) and returns
    ``objective`` of every row; it then scores the initial population
    and each generation's children in one call. The coordinate polish
    scores one point at a time and keeps ``objective``.
    """
    rng = np.random.default_rng(settings.seed)
    lows, highs = space.bounds_arrays()
    span = highs - lows
    n_genes = len(lows)
    pop_size = settings.population_size

    population = lows + rng.random((pop_size, n_genes)) * span
    population[0] = space.midpoint()

    def evaluate(pop: np.ndarray) -> np.ndarray:
        if score_population is not None:
            return np.asarray(score_population(space.decode(pop)), dtype=float)
        return np.array([objective(space.decode(row)) for row in pop])

    fitness = evaluate(population)
    n_children = pop_size - settings.elite_count
    sigma = settings.mutation_sigma_fraction * span
    history: list[float] = []
    stagnant = 0
    best_so_far = -np.inf

    for _ in range(settings.max_generations):
        order = np.argsort(-fitness, kind="stable")
        population = population[order]
        fitness = fitness[order]

        generation_best = float(fitness[0])
        history.append(max(best_so_far, generation_best))
        if generation_best > best_so_far + 1e-300:
            best_so_far = generation_best
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= settings.stagnation_limit:
                break

        elites = population[: settings.elite_count].copy()
        children = np.empty((n_children, n_genes))
        for i in range(n_children):
            # Population is sorted by fitness, so the tournament winner
            # is the lowest drawn index.
            parent_a = population[rng.integers(0, pop_size, settings.tournament_size).min()]
            parent_b = population[rng.integers(0, pop_size, settings.tournament_size).min()]
            child = parent_a.copy()
            if rng.random() < settings.crossover_prob:
                mask = rng.random(n_genes) < 0.5
                child[mask] = parent_b[mask]
            mutate = rng.random(n_genes) < settings.mutation_prob
            if mutate.any():
                # The same draws as rng.normal(0.0, sigma).
                noise = rng.standard_normal(n_genes) * sigma
                child = np.where(mutate, child + noise, child)
            children[i] = np.minimum(np.maximum(child, lows), highs)

        population = np.vstack([elites, children])
        fitness = np.concatenate([fitness[: settings.elite_count], evaluate(children)])

    order = np.argsort(-fitness, kind="stable")
    best_genes = population[order[0]].copy()
    best_rate = float(fitness[order[0]])

    if settings.polish:
        best_genes, best_rate = _coordinate_polish(
            objective, space, best_genes, best_rate, lows, highs
        )
    history.append(best_rate)

    return OptimizationResult(
        best_params=space.decode(best_genes),
        best_rate=best_rate,
        history=tuple(history),
    )


def _coordinate_polish(
    objective,
    space: SearchSpace,
    genes: np.ndarray,
    best: float,
    lows: np.ndarray,
    highs: np.ndarray,
    passes: int = 2,
    iterations: int = 40,
) -> tuple[np.ndarray, float]:
    """Golden-section refinement of each gene in turn; deterministic."""

    def value(i: int, x: float) -> float:
        trial = genes.copy()
        trial[i] = x
        return objective(space.decode(trial))

    for _ in range(passes):
        for i in range(len(genes)):
            candidate, improved = _golden_max(
                lambda x: value(i, x), float(lows[i]), float(highs[i]), iterations
            )
            if improved > best:
                genes[i] = candidate
                best = improved
    return genes, best
