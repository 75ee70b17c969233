"""Stochastic tally sampling against the analytic expectation pipeline.

Experiments are simulated at the aggregate-binomial level: the number
of sifted pulses per basis is fixed by the configuration, detections
are drawn binomially from the expected gain and errors binomially from
the expected error rate. That preserves every statistic entering the
key-length formula while running in constant time per trial.

Randomness comes from NumPy's PCG64 generator. Repetition ``i`` draws
from exactly the stream of child ``i`` of ``SeedSequence(seed).spawn(reps)``,
so results are reproducible across platforms, order-independent under
aggregation and stable when the run is extended. The children's PCG64
seeds are computed for all repetitions in one pass of ``uint32`` array
arithmetic (``seeding``) instead of one ``SeedSequence`` per repetition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDetectorModel
from .finite_key.core import (
    ProtocolConfig,
    SecurityParams,
    TallySet,
    _sps_key_lengths,
    _sps_point,
    sps_expected_rate,
)
from .photon_source import SourceSpec


MAX_REPETITIONS = 2**32


class TooManyPulses(ValueError):
    """Raised when a basis has more sifted pulses than NumPy's binomial
    sampler takes (a C ``long``), e.g. at a near-zero gain."""


@dataclass(frozen=True)
class TrialSpec:
    """Complete experiment configuration plus seeding and repetitions."""

    source: SourceSpec
    channel: ChannelDetectorModel
    proto: ProtocolConfig
    sec: SecurityParams
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self) -> None:
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Below 2**32 every spawn key is one uint32 word (seeding.child_seeds).
        if not 1 <= self.repetitions < MAX_REPETITIONS:
            raise ValueError(
                f"repetitions must be >= 1 and < {MAX_REPETITIONS}, got {self.repetitions}"
            )


@dataclass(frozen=True)
class RateSummary:
    """Distribution summary of per-trial key rates."""

    mean: float
    stddev: float
    q05: float
    median: float
    q95: float
    repetitions: int
    failures: int


def _sift_counts(spec: TrialSpec) -> tuple[tuple[int, int, float, float, float], SourceSpec]:
    """Sifted pulse counts per basis, the per-pulse gain statistics and
    the source after pre-attenuation."""
    mean, g2, q, qber, n_s, _ = _sps_point(spec.source, spec.channel, spec.proto)
    sift_z = n_s * spec.proto.q_z_tx * spec.proto.q_z_rx
    sift_x = n_s * (1.0 - spec.proto.q_z_tx) * (1.0 - spec.proto.q_z_rx)
    if not max(sift_z, sift_x) < 2.0**63:
        raise TooManyPulses(
            f"{max(sift_z, sift_x):.4g} sifted pulses in one basis; binomial sampling "
            f"takes at most 2**63 - 1"
        )
    counts = (int(round(sift_z)), int(round(sift_x)), n_s, q, qber)
    return counts, SourceSpec(spec.source.kind, mean, g2)


def _draw_tallies(
    counts: tuple[int, int, float, float, float], rng: np.random.Generator
) -> tuple[int, int, int, int]:
    """Binomial detections and errors per basis for ``_sift_counts`` counts,
    in ``TallySet`` order: Z and X detections, then Z and X errors."""
    sift_z, sift_x, _, q, qber = counts
    n_z = int(rng.binomial(sift_z, q))
    m_z = int(rng.binomial(n_z, qber)) if n_z > 0 else 0
    n_x = int(rng.binomial(sift_x, q))
    m_x = int(rng.binomial(n_x, qber)) if n_x > 0 else 0
    return n_z, n_x, m_z, m_x


def simulate_trial(spec: TrialSpec, rng: np.random.Generator | None = None) -> TallySet:
    """One stochastic realisation of the experiment's tallies."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    counts = _sift_counts(spec)[0]
    return TallySet(counts[2], *_draw_tallies(counts, rng))


def _trial_arrays(spec: TrialSpec) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Pulses sent per trial, then every trial's tallies, key length and rate.

    Trial ``i`` draws its tallies from child ``i`` of the trial seed's
    ``SeedSequence`` (``seeding.spawned_generators``). All trials are
    then distilled in one array call of ``_sps_key_lengths``, the
    distiller behind ``sps_key_length``. ``draws`` holds one row per
    trial in ``TallySet`` order; key length and rate are NaN where
    distillation is infeasible.
    """
    from .seeding import spawned_generators  # imports numpy.random

    counts, launched = _sift_counts(spec)
    n_s = counts[2]
    draws = np.empty((spec.repetitions, 4), dtype=np.int64)
    for row, rng in zip(draws, spawned_generators(spec.seed, spec.repetitions)):
        row[:] = _draw_tallies(counts, rng)

    n_z, n_x, m_z, m_x = draws.T
    mean = launched.mean_photon_number
    p2 = launched.g2 * (mean * mean) / 2.0
    with np.errstate(all="ignore"):
        report, insufficient = _sps_key_lengths(
            n_s, n_z, n_x, m_z, m_x, p2, spec.proto.q_z_tx, spec.sec
        )
    key_length = np.where(insufficient, math.nan, report.key_length)
    return n_s, draws, key_length, key_length / n_s


def iter_trials(spec: TrialSpec):
    """Per-repetition tallies with their distilled key length and rate.

    The rows of ``_trial_arrays``; trials where distillation is
    infeasible yield NaNs instead of aborting the run.
    """
    n_s, draws, key_length, rate = _trial_arrays(spec)
    # Row by row, so no Python copy of every trial is held.
    for draw, key, r in zip(draws, key_length, rate):
        yield TallySet(n_s, *draw.tolist()), float(key), float(r)


def simulate_rate_distribution(spec: TrialSpec) -> RateSummary:
    """Key-rate distribution over independent repetitions.

    Infeasible repetitions are counted as failures. The mean rate is
    consistent with the analytic pipeline within sampling error.
    """
    rate = _trial_arrays(spec)[3]
    failed = np.isnan(rate)
    failures = int(failed.sum())
    arr = rate[~failed]
    if not len(arr):
        return RateSummary(0.0, 0.0, 0.0, 0.0, 0.0, spec.repetitions, failures)
    return RateSummary(
        mean=float(arr.mean()),
        stddev=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        q05=float(np.quantile(arr, 0.05)),
        median=float(np.quantile(arr, 0.5)),
        q95=float(np.quantile(arr, 0.95)),
        repetitions=spec.repetitions,
        failures=failures,
    )


def analytic_reference(spec: TrialSpec):
    """Analytic expectation report matching the simulated configuration."""
    return sps_expected_rate(spec.source, spec.channel, spec.proto, spec.sec)

