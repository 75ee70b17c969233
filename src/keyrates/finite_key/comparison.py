"""Head-to-head comparison of SPS and decoy-WCP finite-key rates.

Both technologies are tuned before being compared, mirroring how the
transmitter settings are chosen in practice: the SPS side optimises its
basis ratio and pre-attenuation, the WCP side its basis ratio,
intensities and intensity probabilities. The optimisers here are
deterministic nested scans with golden-section refinement, so sweeps,
crossover searches and boundary solves are reproducible bit for bit;
the stochastic genetic optimiser lives in :mod:`keyrates.optimizer`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..asymptotic import BoundaryCurve, EmptyCurve
from ..channel import ChannelDetectorModel
from ..photon_source import NonPhysicalSource, SourceKind, SourceSpec
from .core import (
    InsufficientBlock,
    ProtocolConfig,
    SecurityParams,
    _MATH,
    _ops,
    _sps_lanes,
    sps_expected_rate,
)
from .wcp import (
    DecoyInfeasible,
    WcpIntensities,
    _wcp_lanes,
    wcp_asymptotic_practical_rate,
    wcp_finite_key_rate,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Transmitter basis-ratio candidates shared by both technologies.
Q_TX_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

# Receiver basis split assumed for the finite-block coherent-light
# comparator: a conventional passive 50:50 basis choice. The 9:1 split
# of the single-photon receiver is specific to that hardware, so it is
# not imposed on the comparator; in the infinite-block comparison the
# receiver drops out of the statistics and the two technologies share
# the configured split.
WCP_RECEIVER_Z_RATIO = 0.5

WCP_MU_SIGNAL_GRID = (0.3, 0.45, 0.6, 0.8, 1.0)
WCP_MU_DECOY_GRID = (0.05, 0.1, 0.15, 0.2, 0.3)
WCP_P_SIGNAL_GRID = (0.6, 0.75, 0.9)
WCP_P_DECOY_SHARE_GRID = (0.3, 0.5, 0.8)

CROSSOVER_SCAN_MAX_DB = 30.0
CROSSOVER_SCAN_STEP_DB = 1.0
BOUNDARY_BISECTION_ITERATIONS = 40


class NoCrossover(RuntimeError):
    """Raised when the SPS rate never exceeds the WCP rate on the scan."""


@dataclass(frozen=True)
class CompareReport:
    """Tuned rates at the configured loss, plus the crossover scan.

    ``scan`` holds the ``(loss_db, r_sps, r_wcp)`` rows of the crossover
    scan, from 0 dB in steps of ``CROSSOVER_SCAN_STEP_DB``.
    """

    loss_db: float
    r_sps: float
    r_wcp: float
    advantage_db: float
    crossover_loss_db: float
    scan: tuple[tuple[float, float, float], ...]


def advantage_db(r_sps: float, r_wcp: float) -> float:
    """Rate ratio in decibels; infinite when one side produces no key."""
    if r_sps > 0.0 and r_wcp > 0.0:
        return 10.0 * math.log10(r_sps / r_wcp)
    if r_sps == r_wcp:
        return 0.0
    return math.inf if r_sps > r_wcp else -math.inf


def _golden_max(f, lo, hi, iterations: int = 30):
    """Deterministic golden-section maximiser for a unimodal objective.

    ``f`` maps a float to its value, or an array of points to their
    values in independent lanes searched in lockstep; the bounds ``lo``
    and ``hi`` are then shared or per lane. Each lane takes the same
    branches and returns the same point and value as a float search of
    that lane alone.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    where = np.where if isinstance(fc, np.ndarray) else _MATH.where
    for _ in range(iterations):
        left = fc >= fd
        a = where(left, a, c)
        b = where(left, d, b)
        x = where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fx = f(x)
        c, d = where(left, x, d), where(left, c, x)
        fc, fd = where(left, fx, fd), where(left, fc, fx)
    best = 0.5 * (a + b)
    return best, f(best)


def _sps_rate_or_zero(n_mean, g2, channel, proto, sec, asymptotic) -> float:
    """Scalar SPS rate, 0 where the pipeline rejects the point."""
    try:
        source = SourceSpec(SourceKind.SPS, n_mean, g2)
        return sps_expected_rate(source, channel, proto, sec, asymptotic=asymptotic).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource):
        return 0.0


def _tune_sps(
    n_mean,
    g2,
    loss_db,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``optimized_sps_rate`` for broadcast (<n>, g2, loss) lanes at once.

    Every lane searches every ``Q_TX_GRID`` candidate in lockstep: a
    golden-section search of the pre-attenuation on [1e-4, 1] scored by
    ``_sps_lanes``, then the unattenuated point when it scores at least
    as well, then the first best candidate. Returns the rates, basis
    ratios and pre-attenuations of the lanes; each rate is re-scored by
    the scalar ``sps_expected_rate`` at the returned parameters.
    """
    n_mean, g2, loss_db = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (n_mean, g2, loss_db))
    )
    q_grid = np.array(Q_TX_GRID)
    rate_at = _sps_lanes(
        n_mean[..., None], g2[..., None], q_grid, loss_db[..., None],
        channel, proto, sec, asymptotic,
    )
    t, rate = _golden_max(rate_at, 1e-4, 1.0)
    unattenuated = rate_at(1.0)
    keep_one = unattenuated >= rate
    t = np.where(keep_one, 1.0, t)
    rate = np.where(keep_one, unattenuated, rate)

    best = np.argmax(rate, axis=-1)  # the first maximum, as a strict-> scan
    q_best = q_grid[best]
    t_best = np.take_along_axis(t, best[..., None], -1)[..., 0]
    rates = np.array(
        [
            _sps_rate_or_zero(
                n, g, replace(channel, channel_loss_db=loss),
                replace(proto, q_z_tx=q, pre_attenuation=tb), sec, asymptotic,
            )
            for n, g, loss, q, tb in zip(
                *(a.ravel().tolist() for a in (n_mean, g2, loss_db, q_best, t_best))
            )
        ]
    ).reshape(n_mean.shape)
    return rates, q_best, t_best


def _sps_parameters(source: SourceSpec) -> tuple[float, float]:
    """Mean photon number and g2 of a source the SPS tuner accepts."""
    if source.kind is not SourceKind.SPS:
        raise ValueError("the SPS tuner needs an SPS source")
    return source.mean_photon_number, source.g2


def optimized_sps_rate(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
) -> tuple[float, ProtocolConfig]:
    """Best SPS rate over basis ratio and pre-attenuation.

    Returns the rate and the protocol configuration that achieves it.
    Infeasible corners (multi-photon cap swallowing the block) score
    zero rather than raising. One lane of ``_tune_sps``.
    """
    n_mean, g2 = _sps_parameters(source)
    rate, q_tx, t = _tune_sps(n_mean, g2, channel.channel_loss_db, channel, proto, sec, asymptotic)
    return float(rate), replace(proto, q_z_tx=float(q_tx), pre_attenuation=float(t))


def _wcp_rate_or_zero(
    mu_s, mu_d, p_s, p_d, q_tx, channel, proto, sec, concentration
) -> float:
    """Scalar WCP rate at a tuner point, 0 where the pipeline rejects it.

    Takes its point in the order of the ``_wcp_lanes`` scorer.
    """
    cfg = replace(proto, q_z_tx=q_tx)
    try:
        ints = WcpIntensities(mu_s, mu_d, p_s, p_d)
        return wcp_finite_key_rate(ints, channel, cfg, sec, concentration).rate_per_pulse
    except ValueError:  # DecoyInfeasible included
        return 0.0


@functools.cache
def _wcp_seed_grid() -> tuple[list[tuple[float, ...]], tuple[np.ndarray, ...]]:
    """The (q_tx, mu_s, mu_d, p_s, share) seed grid of the WCP tuner, as rows and as columns.

    Every point has ``0 < mu_d < mu_s``, ``0 < p_s < 1`` and ``0 <
    share < 1``, as ``_refine_wcp`` needs. Built on first use, which
    keeps it out of the import of commands that tune no WCP side.
    """
    rows = [
        (q_tx, mu_s, mu_d, p_s, share)
        for q_tx in Q_TX_GRID
        for mu_s in WCP_MU_SIGNAL_GRID
        for mu_d in WCP_MU_DECOY_GRID
        if mu_d < mu_s
        for p_s in WCP_P_SIGNAL_GRID
        for share in WCP_P_DECOY_SHARE_GRID
    ]
    return rows, tuple(np.array(column) for column in zip(*rows))


def _wcp_seed(loss_db: float, channel, proto, sec, concentration) -> tuple:
    """The first best point of the seed grid at one loss, in one kernel call."""
    rows, (q_tx, mu_s, mu_d, p_s, share) = _wcp_seed_grid()
    lanes = _wcp_lanes(loss_db, channel, proto, sec, concentration)
    return rows[int(np.argmax(lanes(mu_s, mu_d, p_s, (1.0 - p_s) * share, q_tx)))]


def _refine_wcp(score, q_tx, mu_s, mu_d, p_s, share):
    """The WCP tuner's coordinate-wise golden refinement from a seed point.

    ``score(mu_s, mu_d, p_s, p_d, q_tx)`` is ``_wcp_rate_or_zero`` on
    floats or a ``_wcp_lanes`` scorer on lanes. Every probe lies strictly
    inside its bounds, so it keeps ``0 < mu_d < mu_s``, ``0 < p_s < 1``
    and ``0 < share < 1``. Returns the rate of the last search and the
    refined ``(mu_s, mu_d, p_s, p_d)``.
    """
    minimum = _ops(mu_d).minimum  # min, or np.minimum on lanes

    def rate_at(mu_s, mu_d, p_s, share):
        return score(mu_s, mu_d, p_s, (1.0 - p_s) * share, q_tx)

    for _ in range(2):
        mu_s, _ = _golden_max(lambda v: rate_at(v, minimum(mu_d, 0.9 * v), p_s, share), 0.05, 1.0, 20)
        mu_d, _ = _golden_max(lambda v: rate_at(mu_s, v, p_s, share), 1e-3, 0.95 * mu_s, 20)
        p_s, _ = _golden_max(lambda v: rate_at(mu_s, mu_d, v, share), 0.05, 0.98, 20)
        share, rate = _golden_max(lambda v: rate_at(mu_s, mu_d, p_s, v), 0.02, 0.98, 20)
    return rate, mu_s, mu_d, p_s, (1.0 - p_s) * share


def _tune_wcp(
    loss_db,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str = "hoeffding",
) -> list[tuple[float, WcpIntensities, float]]:
    """Finite-mode ``optimized_wcp_rate`` for a sequence of losses at once.

    Each loss scores the seed grid in its own ``_wcp_lanes`` call, which
    keeps one grid in memory at a time. The refinement then runs for
    every loss in lockstep, and each lane's winner is scored again by
    the float path. Returns one ``(rate, intensities, q_z_tx)`` per
    loss, each exactly as ``optimized_wcp_rate`` returns it for that
    loss alone.
    """
    proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)
    losses = np.asarray(loss_db, dtype=float)
    seeds = [_wcp_seed(loss, channel, proto, sec, concentration) for loss in losses.tolist()]
    lanes = _wcp_lanes(losses, channel, proto, sec, concentration)
    q_tx, *seed = (np.array(column, dtype=float) for column in zip(*seeds))
    _, *point = _refine_wcp(lanes, q_tx, *seed)
    tuned = []
    for loss, q, *lane in zip(losses.tolist(), q_tx.tolist(), *(a.tolist() for a in point)):
        ch = replace(channel, channel_loss_db=loss)
        rate = _wcp_rate_or_zero(*lane, q, ch, proto, sec, concentration)
        tuned.append((max(rate, 0.0), WcpIntensities(*lane), q))
    return tuned


def optimized_wcp_rate(
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
    concentration: str = "hoeffding",
) -> tuple[float, WcpIntensities, ProtocolConfig]:
    """Best decoy-WCP rate over basis ratio, intensities and probabilities.

    Coarse grid scan followed by coordinate-wise golden refinement.
    In asymptotic mode the decoy estimation is exact, so only the
    signal intensity is searched, at the largest ``Q_TX_GRID`` basis
    ratio. In finite mode the
    comparator runs on the conventional 50:50 receiver split
    (``WCP_RECEIVER_Z_RATIO``) rather than the single-photon
    receiver's 9:1 optics.

    In finite mode the whole grid is scored in one array call
    (``_wcp_lanes``) and its first best point seeds the refinement,
    which evaluates ``wcp_finite_key_rate`` one point at a time on
    floats; ``_tune_wcp`` runs the same refinement for many losses at
    once.
    """
    if asymptotic:
        # The rate is q_z_tx q_z_rx times a function of mu alone, so the
        # largest basis ratio wins at every mu.
        cfg = replace(proto, q_z_tx=max(Q_TX_GRID))
        mu, rate = _golden_max(
            lambda m: wcp_asymptotic_practical_rate(m, channel, cfg, sec), 1e-3, 1.0
        )
        intensities = WcpIntensities(mu_signal=mu, mu_decoy=mu / 2.0, p_signal=1.0, p_decoy=0.0)
        return rate, intensities, cfg

    proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)

    def score(*point) -> float:
        return _wcp_rate_or_zero(*point, channel, proto, sec, concentration)

    q_tx, *seed = _wcp_seed(channel.channel_loss_db, channel, proto, sec, concentration)
    rate, *point = _refine_wcp(score, q_tx, *seed)
    return max(rate, 0.0), WcpIntensities(*point), replace(proto, q_z_tx=q_tx)


def compare(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str = "hoeffding",
) -> CompareReport:
    """Optimised SPS-versus-WCP advantage and break-even channel loss.

    The advantage is evaluated at the configured channel loss; the
    crossover is located by scanning losses up to
    ``CROSSOVER_SCAN_MAX_DB`` and bisecting the sign change of the rate
    margin ``r_sps - r_wcp``. Where the margin falls from > 0 to <= 0
    between scan steps more than once, the last such bracket is
    bisected. Raises ``NoCrossover`` when the SPS never leads on the
    scan, or leads at its end.
    """
    steps = int(CROSSOVER_SCAN_MAX_DB / CROSSOVER_SCAN_STEP_DB)
    losses = [i * CROSSOVER_SCAN_STEP_DB for i in range(steps + 1)]
    # The configured loss and the whole scan are one sweep.
    (_, r_sps, r_wcp, advantage), *rows = sweep_rates(
        source, channel, proto, sec, [channel.channel_loss_db, *losses], concentration
    )
    scan = tuple((loss, s, w) for loss, s, w, _ in rows)
    margins = [s - w for _, s, w in scan]
    if max(margins) <= 0.0:
        raise NoCrossover(
            f"SPS never exceeds WCP for losses in [0, {CROSSOVER_SCAN_MAX_DB}] dB"
        )
    bracket = None
    for i in range(len(losses) - 1):
        if margins[i] > 0.0 >= margins[i + 1]:
            bracket = (losses[i], losses[i + 1])
    if bracket is None:
        raise NoCrossover("SPS advantage persists across the whole scanned range")
    lo, hi = bracket
    # One loss per step, tuned on floats: a one-lane array tuner call
    # costs several float calls.
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        ch = replace(channel, channel_loss_db=mid)
        s, _ = optimized_sps_rate(source, ch, proto, sec)
        if s - optimized_wcp_rate(ch, proto, sec, concentration=concentration)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)

    return CompareReport(
        loss_db=channel.channel_loss_db,
        r_sps=r_sps,
        r_wcp=r_wcp,
        advantage_db=advantage,
        crossover_loss_db=crossover,
        scan=scan,
    )


def sweep_rates(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    losses: list[float],
    concentration: str = "hoeffding",
) -> list[tuple[float, float, float, float]]:
    """Optimised (loss, r_sps, r_wcp, advantage) rows for a loss sweep.

    Each side of every loss is tuned in one call, ``_tune_sps`` and
    ``_tune_wcp``.
    """
    n_mean, g2 = _sps_parameters(source)
    sps_rates = _tune_sps(n_mean, g2, losses, channel, proto, sec)[0].tolist()
    wcp_rates = [rate for rate, _, _ in _tune_wcp(losses, channel, proto, sec, concentration)]
    return [
        (loss, r_sps, r_wcp, advantage_db(r_sps, r_wcp))
        for loss, r_sps, r_wcp in zip(losses, sps_rates, wcp_rates)
    ]


def finite_boundary(
    loss_db: float,
    grid: list[float],
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
    concentration: str = "hoeffding",
) -> BoundaryCurve:
    """Break-even locus of the finite-key pipelines in the (<n>, g2) plane.

    For each grid mean photon number the largest g2 at which the tuned
    SPS still matches the tuned WCP comparator is found by bisection;
    the exact minimum viable mean (at g2 = 0) is prepended as the first
    curve point. ``asymptotic=True`` evaluates both pipelines in their
    infinite-block limit.
    """
    ch = replace(channel, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(
        ch, proto, sec, asymptotic=asymptotic, concentration=concentration
    )

    def sps_rates(n_mean, g2) -> np.ndarray:
        return _tune_sps(n_mean, g2, loss_db, channel, proto, sec, asymptotic)[0]

    n_grid = np.array(sorted(grid), dtype=float)
    n_grid = n_grid[sps_rates(n_grid, 0.0) >= r_wcp]
    if n_grid.size == 0:
        raise EmptyCurve(f"no grid point admits an SPS advantage at {loss_db} dB")
    # One lockstep bisection: a lane per grid point bisects g2 on
    # [0, 1/<n>], and a last lane bisects <n> at g2 = 0 between the
    # smallest advantaged grid point and 1e-4. ``lo`` is the side where
    # the SPS still matches the WCP rate; lanes that match at ``hi``
    # already are not bisected.
    g2_max = 1.0 / n_grid
    n_lane = np.append(n_grid, 1e-4)
    g2_lane = np.append(g2_max, 0.0)
    lo = np.append(np.zeros(n_grid.size), n_grid[0])
    hi = np.append(g2_max, 1e-4)
    edge = hi.copy()
    bisected = sps_rates(n_lane, g2_lane) < r_wcp
    endpoint = (np.arange(n_lane.size) == n_grid.size)[bisected]
    n_lane, lo, hi = n_lane[bisected], lo[bisected], hi[bisected]
    for _ in range(BOUNDARY_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        holds = sps_rates(np.where(endpoint, mid, n_lane), np.where(endpoint, 0.0, mid)) >= r_wcp
        lo, hi = np.where(holds, mid, lo), np.where(holds, hi, mid)
    edge[bisected] = lo
    points = list(zip(n_grid.tolist(), edge[:-1].tolist()))
    if bisected[-1]:
        points.insert(0, (float(edge[-1]), 0.0))
    return BoundaryCurve(loss_db=loss_db, points=tuple(points))
