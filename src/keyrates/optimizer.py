"""Genetic-algorithm maximisation of key rates over protocol parameters.

A plain generational GA: tournament selection, uniform crossover,
per-gene Gaussian mutation, elitism, and a deterministic coordinate
refinement of the final best candidate. The objective must
be total (return 0 for infeasible points instead of raising); runs are
bit-for-bit reproducible for a fixed seed. An optional array scorer
rates a whole population in one call.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .finite_key.comparison import _golden_max

# Hyperparameters of the genetic search. They are conventional; the
# search is not sensitive to them on the smooth rate surfaces optimised
# here.
STAGNATION_LIMIT = 30
TOURNAMENT_SIZE = 3
CROSSOVER_PROB = 0.7
MUTATION_PROB = 0.1
MUTATION_SIGMA_FRACTION = 0.1
ELITE_COUNT = 2

# A raw 64-bit PCG64 word w decodes to the uniform (w >> 11) / _WORD_SCALE.
_WORD_SCALE = 2.0**53
_LOW_32 = 0xFFFFFFFF


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
    """Size, length and seed of one genetic search."""

    population_size: int = 50
    max_generations: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < ELITE_COUNT + 2:
            raise ValueError(f"population_size must be >= {ELITE_COUNT + 2}")


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
    n_children = pop_size - ELITE_COUNT
    sigma = MUTATION_SIGMA_FRACTION * span
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
            if stagnant >= STAGNATION_LIMIT:
                break

        children = _breed(rng, population, n_children, sigma, lows, highs)
        population = np.vstack([population[:ELITE_COUNT], children])
        fitness = np.concatenate([fitness[:ELITE_COUNT], evaluate(children)])

    order = np.argsort(-fitness, kind="stable")
    best_genes = population[order[0]].copy()
    best_rate = float(fitness[order[0]])

    best_genes, best_rate = _coordinate_polish(objective, space, best_genes, best_rate, lows, highs)
    history.append(best_rate)

    return OptimizationResult(
        best_params=space.decode(best_genes),
        best_rate=best_rate,
        history=tuple(history),
    )


def _breed(rng: np.random.Generator, population, n_children: int, sigma, lows, highs):
    """One generation's children of a population sorted best first.

    Each child draws, in this order: the indices of both tournaments as
    ``rng.integers(0, pop_size, 2 * TOURNAMENT_SIZE)`` draws them, the
    crossover test, the crossover mask if the child crosses over, the
    mutation uniforms and, only if a gene mutates, the normals of
    ``rng.standard_normal``. All but the normals are read from the
    bit generator's raw 64-bit words, decoded as ``Generator`` decodes
    them, so the stream and the final ``bit_generator.state`` are those of
    the ``Generator`` calls. One ``random_raw(4 + n_genes)`` call covers a
    child that does not cross over: no child takes fewer words before its
    normals. The arithmetic on the draws then runs once for the whole
    generation.
    """
    pop_size, n_genes = population.shape
    bits = rng.bit_generator
    raw, normal = bits.random_raw, rng.standard_normal
    state = bits.state
    has_half, half = state["has_uint32"], state["uinteger"]
    # A word w's uniform is below p exactly when w >> 11 is below p * 2**53.
    crossover_limit, mutation_limit = CROSSOVER_PROB * _WORD_SCALE, MUTATION_PROB * _WORD_SCALE
    # The rows of a child that does not cross (the largest word decodes to
    # a uniform above 0.5) or mutate.
    no_crossover, no_noise = [(1 << 64) - 1] * n_genes, np.zeros(n_genes)
    winners, crossover_words, mutation_words, noise = [], [], [], []
    for _ in range(n_children):
        words = raw(4 + n_genes).tolist()
        picks, k, has_half, half = _bounded_uint32s(
            pop_size, 2 * TOURNAMENT_SIZE, words, has_half, half, raw
        )
        # The tournament winner is the lowest drawn index.
        winners += (min(picks[:TOURNAMENT_SIZE]), min(picks[TOURNAMENT_SIZE:]))
        if k == len(words):  # redraws took every prefetched word
            words.append(raw())
        crossed = words[k] >> 11 < crossover_limit
        end = k + 1 + n_genes * (1 + crossed)
        if len(words) < end:  # a crossover or redraws need more words
            words += raw(end - len(words)).tolist()
        crossover_words += words[k + 1 : k + 1 + n_genes] if crossed else no_crossover
        u = words[end - n_genes : end]
        mutation_words += u
        noise.append(normal(n_genes) if min(u) >> 11 < mutation_limit else no_noise)
    state = bits.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bits.state = state

    crossover_u, mutation_u = (
        (np.array([crossover_words, mutation_words], dtype=np.uint64) >> 11) / _WORD_SCALE
    ).reshape(2, n_children, n_genes)
    parents = population[winners]
    child = np.where(crossover_u < 0.5, parents[1::2], parents[::2])
    child = np.where(mutation_u < MUTATION_PROB, child + np.array(noise) * sigma, child)
    return np.minimum(np.maximum(child, lows), highs)


def _bounded_uint32s(n: int, count: int, words: list[int], has_half: int, half: int, raw):
    """``count`` draws of ``rng.integers(0, n, count)``, for 2 <= n <= 2**32,
    read from the PCG64 words ``words``.

    NumPy's PCG64 draws 32 bits from half a 64-bit word. With a half
    pending (``has_uint32``) it returns it (``uinteger``) and clears the
    flag; otherwise it returns the low half of a new word and keeps the
    high half pending. Each 32-bit draw x then goes through Lemire's
    bounded method (ACM TOMACS 29(1), 2019): m = x * n is redrawn while
    m mod 2**32 < 2**32 mod n, and the index is m >> 32. Words past the
    end of ``words`` are fetched with ``raw()`` and appended to it.

    Returns the draws, the number of words read, and the new
    ``has_uint32`` and ``uinteger``.
    """
    threshold = (1 << 32) % n
    draws: list[int] = []
    k = 0
    while len(draws) < count:
        if has_half:
            x, has_half = half, 0
        else:
            if k == len(words):
                words.append(raw())
            x, half, has_half = words[k] & _LOW_32, words[k] >> 32, 1
            k += 1
        m = x * n
        if m & _LOW_32 >= threshold:
            draws.append(m >> 32)
    return draws, k, has_half, half


def _coordinate_polish(
    objective,
    space: SearchSpace,
    genes: np.ndarray,
    best: float,
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Two passes of golden-section refinement of each gene in turn;
    deterministic, and sharper than the mutation scale."""

    def value(i: int, x: float) -> float:
        trial = genes.copy()
        trial[i] = x
        return objective(space.decode(trial))

    for _ in range(2):
        for i in range(len(genes)):
            candidate = _golden_max(lambda x: value(i, x), float(lows[i]), float(highs[i]), 40)
            improved = value(i, candidate)
            if improved > best:
                genes[i] = candidate
                best = improved
    return genes, best
