"""Fixed pure-Python workload that measures how fast the host runs now.

    python3 perfbench/calibrate.py    # prints the seconds it took

The speed of a shared 2-core host drifts by tens of percent over minutes
to hours, so the same keyrates call can take 1.7 s in one run and 3.0 s in
the next. The runner starts this script in a fresh interpreter once per
round and divides the round's time, and the set-up time, by it. The workload has the shape of keyrates'
scalar pipeline (frozen dataclasses that validate themselves, binomial
thinning, detector yields, concentration bounds, golden-section search)
but imports nothing from keyrates, so no change to the program moves it.
Changing this file changes every normalised figure: it is part of the
benchmark's definition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Split:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(self.a)


@dataclass(frozen=True)
class Dist:
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(math.fsum(self.probs) - 1.0) > 1e-9 or min(self.probs) < 0.0:
            raise ValueError("not a distribution")


@dataclass(frozen=True)
class Setting:
    q: float
    t: float


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_loop(n: int = 60_000) -> float:
    total = 0.0
    split = Split(0.5, 0.5)
    for i in range(n):
        x = ((i * 7919) % 9973 + 1) / 9975.0
        split = replace(split, a=x, b=1.0 - x)
        probs = tuple(split.a**k * split.b for k in range(4))
        total += entropy(split.a) + math.sqrt(2.0 * x * math.log(1.0 / x) + x * x) + math.fsum(probs)
    return total


def thin(dist: Dist, t: float) -> Dist:
    if t == 1.0:
        return dist
    out = [0.0] * len(dist.probs)
    for n, p in enumerate(dist.probs):
        for k in range(n + 1):
            out[k] += p * math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
    return Dist(tuple(out))


def gain(dist: Dist, eta: float, p_dc: float = 1.5e-7, p_mis: float = 0.025) -> tuple[float, float]:
    log_miss = math.log1p(-eta)
    q = qe = 0.0
    for n, p in enumerate(dist.probs):
        survive = -math.expm1(n * log_miss) if n else 0.0
        q += p * (p_dc + (1.0 - p_dc) * survive)
        qe += p * (0.5 * p_dc * (1.0 - survive) + p_mis * survive)
    return q, qe / q


def upper(x: float, eps: float) -> float:
    beta = math.log(1.0 / eps)
    return x + beta + math.sqrt(2.0 * beta * x + beta * beta) if x > 0.0 else 0.0


def key_rate(n_mean: float, g2: float, setting: Setting, eta: float, block: float = 1e8, eps: float = 2e-11) -> float:
    p2 = g2 * n_mean * n_mean / 2.0
    dist = thin(Dist((1.0 - n_mean + p2, n_mean - 2.0 * p2, p2)), setting.t)
    q, qber = gain(dist, eta)
    n_s = block / (setting.q * 0.9 * q)
    floor = block - upper(n_s * setting.q * dist.probs[2], eps)
    if floor <= 0.0:
        return 0.0
    n_x = n_s * (1.0 - setting.q) * 0.1 * q
    n_x_floor = max(n_x - upper(n_s * (1.0 - setting.q) * dist.probs[2], eps), 1.0)
    phase = min(0.5, upper(qber * n_x, eps) / n_x_floor)
    return max(0.0, floor * (1.0 - entropy(phase)) - 1.16 * block * entropy(qber)) / n_s


def golden_max(f, lo: float, hi: float, iterations: int = 30) -> float:
    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def tuned_rates(losses: int = 80) -> float:
    best = 0.0
    base = Setting(0.9, 1.0)
    for loss in range(losses):
        eta = 10.0 ** (-(loss % 30) / 10.0) * 0.43
        for q in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
            setting = replace(base, q=q)
            best = max(best, golden_max(lambda t: key_rate(0.292, 0.00698, replace(setting, t=t), eta), 1e-4, 1.0))
    return best


def main() -> None:
    start = time.perf_counter()
    entropy_loop()
    tuned_rates()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
