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
from ..photon_source import SourceKind, SourceSpec
from .core import ProtocolConfig, SecurityParams, _MATH, _ops, _protocol_valid, _sps_lanes
from .wcp import (
    DecoyInfeasible,
    WcpIntensities,
    _wcp_lanes,
    _wcp_valid,
    wcp_finite_key_rate,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Most lane values per objective call of a golden search; such a call is mostly overhead.
_GOLDEN_BUDGET = 512

# Transmitter basis-ratio candidates shared by both technologies.
Q_TX_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

# Receiver basis split assumed for the coherent-light comparator: a
# conventional passive 50:50 basis choice. The 9:1 split of the
# single-photon receiver is specific to that hardware, so it is not
# imposed on the comparator.
WCP_RECEIVER_Z_RATIO = 0.5

WCP_MU_SIGNAL_GRID = (0.3, 0.45, 0.6, 0.8, 1.0)
WCP_MU_DECOY_GRID = (0.05, 0.1, 0.15, 0.2, 0.3)
WCP_P_SIGNAL_GRID = (0.6, 0.75, 0.9)
WCP_P_DECOY_SHARE_GRID = (0.3, 0.5, 0.8)

CROSSOVER_SCAN_MAX_DB = 30.0
CROSSOVER_SCAN_STEP_DB = 1.0
BOUNDARY_BISECTION_ITERATIONS = 40

# ITP crossover search: it ends at a bracket no wider than 2 * _ITP_EPS,
# the width 14 bisection steps leave of a scan step, in <= 14 + _ITP_N0 probes.
_ITP_EPS = 2.0**-15
_ITP_N0 = 1
_ITP_KAPPA1 = 0.2
_ITP_KAPPA2 = 2.0


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


def _golden_step(where, left, a, b, c, d):
    """One golden step: the new bracket ``(a, b)``, its probe, and the new ``(c, d)``."""
    a, b = where(left, a, c), where(left, d, b)
    g = GOLDEN * (b - a)
    x = where(left, b - g, a + g)
    return a, b, x, where(left, x, d), where(left, c, x)


def _golden_heap(steps, left, a, b, c, d):
    """The ``(a, b, x, c, d)`` that each of the next ``steps`` golden steps leaves, in heap order.

    Returns shape ``(5, 2**steps - 1, *left.shape)``; row 2 holds the
    probes. Node 0 is the step that ``left`` takes; node i's children
    are 2i + 1, the step where its score leaves ``fc < fd``, and 2i + 2.
    A child is built from its parent's state with ``_golden_step``'s
    float operations.
    """
    heap = np.empty((5, 2**steps - 1, *left.shape))
    heap[:, 0] = _golden_step(np.where, left, a, b, c, d)
    for level in range(steps - 1):
        first, last = 2**level - 1, 2 ** (level + 1) - 1  # the level's nodes
        a, b, _, c, d = heap[:, first:last]
        low, high = c + GOLDEN * (b - c), d - GOLDEN * (d - a)
        heap[:, 2 * first + 1 : 2 * last : 2] = c, b, low, d, low
        heap[:, 2 * first + 2 : 2 * last + 1 : 2] = a, d, high, high, c
    return heap


def _golden_max(f, lo, hi, iterations: int = 30):
    """Deterministic golden-section maximiser for a unimodal objective.

    ``f`` maps a float to its value, or an array of points to their
    values in independent lanes searched in lockstep; the bounds ``lo``
    and ``hi`` are then shared or per lane. Each lane takes the same
    branches, scores the same points and returns the same point as a
    float search of that lane alone. Returns the point only; a caller
    that needs its value scores it once.

    On floats, and on no lanes or more lane values than a third of
    ``_GOLDEN_BUDGET``, each step is one call of ``f``: ``iterations + 2``
    calls. Otherwise one call scores the ``_golden_heap`` of the most
    steps, two or more, whose probes fit the budget; ``f`` must score
    each stacked row as it scores that row alone. Each lane then walks
    its path through the scored heap by index, and takes its bracket
    from the heap at the path's end.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    where = np.where if isinstance(fc, np.ndarray) else _MATH.where
    size = fc.size if where is np.where else 0
    depth = (_GOLDEN_BUDGET // size + 1).bit_length() - 1 if size else 0
    if depth < 2:
        for _ in range(iterations):
            left = fc >= fd
            a, b, x, c, d = _golden_step(where, left, a, b, c, d)
            fx = f(x)
            fc, fd = where(left, fx, fd), where(left, fc, fx)
        return 0.5 * (a + b)
    # Each lane value's flat index, to read its node's score and state.
    lane, left = np.arange(size).reshape(fc.shape), fc >= fd
    for done in range(0, iterations, depth):
        steps = min(depth, iterations - done)
        heap = _golden_heap(steps, left, a, b, c, d)
        scores, node = f(heap[2]).reshape(-1, size), np.zeros_like(lane)
        for level in range(steps):  # each lane's path through the heap
            if level:
                node = 2 * node + 1 + left
            fx = scores[node, lane]
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            left = fc >= fd
        a, b, _, c, d = heap.reshape(5, -1, size)[:, node, lane]
    return 0.5 * (a + b)


def _itp_bracket(margin, lo, hi, m_lo, m_hi) -> tuple[float, float]:
    """Narrow the bracket of a falling ``margin`` by the ITP method.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) moves the regula
    falsi point toward the midpoint, then into the window that keeps the
    bisection's worst case. ``m_lo = margin(lo) > 0 >= m_hi =
    margin(hi)``; every probe lies strictly inside the bracket, and one
    with margin > 0 moves ``lo``. With ``_ITP_N0 = 0`` it bisects.
    """
    n_max = math.ceil(math.log2((hi - lo) / (2.0 * _ITP_EPS))) + _ITP_N0
    j = 0
    while hi - lo > 2.0 * _ITP_EPS:
        mid = 0.5 * (lo + hi)
        falsi = lo + (hi - lo) * m_lo / (m_lo - m_hi)
        sigma = math.copysign(1.0, mid - falsi)
        delta = _ITP_KAPPA1 * (hi - lo) ** _ITP_KAPPA2
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        radius = _ITP_EPS * 2.0 ** (n_max - j) - 0.5 * (hi - lo)
        x = x if abs(x - mid) <= radius else mid - sigma * radius
        m = margin(x)
        lo, m_lo, hi, m_hi = (x, m, hi, m_hi) if m > 0.0 else (lo, m_lo, x, m)
        j += 1
    return lo, hi


def _sps_argmax(n_mean, g2, loss_db, channel, proto, sec) -> tuple[np.ndarray, ...]:
    """The tuned ``(q_z_tx, pre_attenuation, rate)`` of broadcast (<n>, g2, loss) lanes.

    Every lane searches every ``Q_TX_GRID`` candidate in lockstep: a
    golden-section search of the pre-attenuation on [1e-4, 1] scored by
    ``_sps_lanes``, then the unattenuated point when it scores at least
    as well, then the first best candidate, whose lane score is ``rate``.
    The golden point and the unattenuated one are two rows of one call,
    so a call of this function makes 33 ``_sps_lanes`` calls where it
    tunes over 170 (lane, candidate) pairs, and fewer below: 8 for one
    lane, whose search scores 6 golden steps per call (``_golden_max``).

    ``rate`` is the rate every SPS tuner reports and decides by. It is
    ``sps_expected_rate`` at the lane's point, 0 where that raises: bit
    for bit where NumPy's ``exp`` and ``log`` round as libm's do, and
    within a few ulps where its AVX-512 loops round otherwise.
    """
    n_mean, g2, loss_db = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (n_mean, g2, loss_db))
    )
    q_grid = np.array(Q_TX_GRID)
    rate_at = _sps_lanes(
        n_mean[..., None], g2[..., None], q_grid, loss_db[..., None], channel, proto, sec
    )
    t = _golden_max(rate_at, 1e-4, 1.0)
    rate, unattenuated = rate_at(np.stack([t, np.ones_like(t)]))
    keep_one = unattenuated >= rate
    t, rate = np.where(keep_one, 1.0, t), np.where(keep_one, unattenuated, rate)
    # The first maximum, as a strict-> scan.
    best = np.argmax(rate, axis=-1)[..., None]
    t, rate = (np.take_along_axis(a, best, -1)[..., 0] for a in (t, rate))
    return q_grid[best[..., 0]], t, rate


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
) -> tuple[float, ProtocolConfig]:
    """Best SPS rate over basis ratio and pre-attenuation.

    Returns the rate and the protocol configuration that achieves it.
    Infeasible corners (multi-photon cap swallowing the block) score
    zero rather than raising. One lane of ``_sps_argmax``, whose lane
    rate it returns.
    """
    n_mean, g2 = _sps_parameters(source)
    q_tx, t, rate = _sps_argmax(n_mean, g2, channel.channel_loss_db, channel, proto, sec)
    return float(rate), replace(proto, q_z_tx=float(q_tx), pre_attenuation=float(t))


def _wcp_rate_or_zero(
    mu_s, mu_d, p_s, p_d, q_tx, channel, proto, sec, concentration
) -> float:
    """Scalar WCP rate at a tuner point, 0 where the pipeline rejects it.

    Takes its point in the order of the ``_wcp_lanes`` scorer. ``proto``
    is used as it is where its ``q_z_tx`` is ``q_tx``.
    """
    rest = (proto.q_z_rx, proto.block_size, proto.pre_attenuation)
    if not (_wcp_valid(mu_s, mu_d, p_s, p_d) and _protocol_valid(q_tx, *rest)):
        return 0.0
    cfg = proto if proto.q_z_tx == q_tx else replace(proto, q_z_tx=q_tx)
    try:
        ints = WcpIntensities(mu_s, mu_d, p_s, p_d)
        return wcp_finite_key_rate(ints, channel, cfg, sec, concentration).rate_per_pulse
    except DecoyInfeasible:
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
    and ``0 < share < 1``. Returns the refined ``(mu_s, mu_d, p_s, p_d)``,
    unscored.
    """
    minimum = _ops(mu_d).minimum  # min, or np.minimum on lanes

    def rate_at(mu_s, mu_d, p_s, share):
        return score(mu_s, mu_d, p_s, (1.0 - p_s) * share, q_tx)

    for _ in range(2):
        mu_s = _golden_max(lambda v: rate_at(v, minimum(mu_d, 0.9 * v), p_s, share), 0.05, 1.0, 20)
        mu_d = _golden_max(lambda v: rate_at(mu_s, v, p_s, share), 1e-3, 0.95 * mu_s, 20)
        p_s = _golden_max(lambda v: rate_at(mu_s, mu_d, v, share), 0.05, 0.98, 20)
        share = _golden_max(lambda v: rate_at(mu_s, mu_d, p_s, v), 0.02, 0.98, 20)
    return mu_s, mu_d, p_s, (1.0 - p_s) * share


def _tune_wcp(
    loss_db,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str = "hoeffding",
) -> list[tuple[float, WcpIntensities, float]]:
    """``optimized_wcp_rate`` for a sequence of losses at once.

    Each loss scores the seed grid in its own ``_wcp_lanes`` call, which
    keeps one grid in memory at a time. The refinement then runs for
    every loss in lockstep, and each lane's winner is scored again by
    the float path. Its 8 golden searches make 22 lane calls each for
    over 170 losses, and 7 for 32 (``_golden_max``). Returns one
    ``(rate, intensities, q_z_tx)`` per loss, each as
    ``optimized_wcp_rate`` returns it for that loss alone: bit for bit
    where NumPy's ``exp`` and ``log`` round as libm's do. Where its
    AVX-512 loops round otherwise, a lane score can differ from the
    float score by enough to send a golden search the other way, and
    then the tuned point and its rate differ too.
    """
    proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)
    losses = np.asarray(loss_db, dtype=float)
    seeds = [_wcp_seed(loss, channel, proto, sec, concentration) for loss in losses.tolist()]
    lanes = _wcp_lanes(losses, channel, proto, sec, concentration)
    q_tx, *seed = (np.array(column, dtype=float) for column in zip(*seeds))
    point = _refine_wcp(lanes, q_tx, *seed)
    tuned = []
    for loss, q, *lane in zip(losses.tolist(), q_tx.tolist(), *(a.tolist() for a in point)):
        ch = replace(channel, channel_loss_db=loss)
        rate = _wcp_rate_or_zero(*lane, q, ch, proto, sec, concentration)
        tuned.append((rate, WcpIntensities(*lane), q))
    return tuned


def optimized_wcp_rate(
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str = "hoeffding",
) -> tuple[float, WcpIntensities, ProtocolConfig]:
    """Best finite-key decoy-WCP rate over basis ratio, intensities and probabilities.

    Coarse grid scan followed by coordinate-wise golden refinement. The
    comparator runs on the conventional 50:50 receiver split
    (``WCP_RECEIVER_Z_RATIO``) rather than the single-photon receiver's
    9:1 optics.

    The whole grid is scored in one array call (``_wcp_lanes``) and its
    first best point seeds the refinement, which evaluates
    ``wcp_finite_key_rate`` one point at a time on floats;
    ``_tune_wcp`` runs the same refinement for many losses at once.
    """
    proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)
    q_tx, *seed = _wcp_seed(channel.channel_loss_db, channel, proto, sec, concentration)
    cfg = replace(proto, q_z_tx=q_tx)

    def score(*point) -> float:
        return _wcp_rate_or_zero(*point, channel, cfg, sec, concentration)

    point = _refine_wcp(score, q_tx, *seed)
    return score(*point, q_tx), WcpIntensities(*point), cfg


def compare(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
) -> CompareReport:
    """Optimised SPS-versus-WCP advantage and break-even channel loss.

    The advantage is evaluated at the configured channel loss; the
    crossover is located by scanning losses up to
    ``CROSSOVER_SCAN_MAX_DB`` and narrowing the sign change of the rate
    margin ``r_sps - r_wcp`` to 2**-14 dB with ``_itp_bracket``, whose
    end margins come from the scan; the crossover is the midpoint.
    Where the margin falls from > 0 to <= 0 between scan steps more
    than once, the last such bracket is searched. Raises
    ``NoCrossover`` when the SPS never leads on the scan, or leads at
    its end.
    """
    steps = int(CROSSOVER_SCAN_MAX_DB / CROSSOVER_SCAN_STEP_DB)
    losses = [i * CROSSOVER_SCAN_STEP_DB for i in range(steps + 1)]
    # The configured loss and the whole scan are one sweep.
    (_, r_sps, r_wcp, advantage), *rows = sweep_rates(
        source, channel, proto, sec, [channel.channel_loss_db, *losses]
    )
    scan = tuple((loss, s, w) for loss, s, w, _ in rows)
    margins = [s - w for _, s, w in scan]
    if max(margins) <= 0.0:
        raise NoCrossover(
            f"SPS never exceeds WCP for losses in [0, {CROSSOVER_SCAN_MAX_DB}] dB"
        )
    falls = [i for i in range(len(losses) - 1) if margins[i] > 0.0 >= margins[i + 1]]
    if not falls:
        raise NoCrossover("SPS advantage persists across the whole scanned range")
    i = falls[-1]

    # One loss per probe, tuned on floats: a one-lane array tuner call
    # costs several float calls.
    def margin(loss: float) -> float:
        ch = replace(channel, channel_loss_db=loss)
        s, _ = optimized_sps_rate(source, ch, proto, sec)
        return s - optimized_wcp_rate(ch, proto, sec)[0]

    lo, hi = _itp_bracket(margin, losses[i], losses[i + 1], margins[i], margins[i + 1])
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
) -> list[tuple[float, float, float, float]]:
    """Optimised (loss, r_sps, r_wcp, advantage) rows for a loss sweep.

    Each side of every loss is tuned in one call, ``_sps_argmax`` and
    ``_tune_wcp``. The SPS rates are the arg-max's lane rates; only the
    WCP winners are scored again on floats.
    """
    n_mean, g2 = _sps_parameters(source)
    sps_rates = _sps_argmax(n_mean, g2, losses, channel, proto, sec)[2].tolist()
    wcp_rates = [rate for rate, _, _ in _tune_wcp(losses, channel, proto, sec)]
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
) -> BoundaryCurve:
    """Break-even locus of the finite-key pipelines in the (<n>, g2) plane.

    For each grid mean photon number the largest g2 at which the tuned
    SPS still matches the tuned WCP comparator is found by bisection;
    the exact minimum viable mean (at g2 = 0) is prepended as the first
    curve point. All bisections run as lanes of one ``_sps_argmax`` call
    per three levels, which tunes each lane's seven probes and decides on
    their lane rates; no call is made once no lane is bisected. Both
    pipelines run at the configured block size; the ideal closed-form
    boundary is ``keyrates.asymptotic.advantage_boundary``.
    """
    ch = replace(channel, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(ch, proto, sec)

    # One screening call tunes the rows (<n>, 0), (<n>, 1/<n>) and (1e-4, 0).
    n_all = np.array(sorted(grid), dtype=float)
    size = n_all.size
    with np.errstate(all="ignore"):  # 1/<n> of a grid point dropped below must not warn
        g2_all = 1.0 / n_all
    _, _, rate = _sps_argmax(
        np.concatenate([n_all, n_all, [1e-4]]),
        np.concatenate([np.zeros(size), g2_all, [0.0]]),
        loss_db, channel, proto, sec,
    )
    advantaged = rate[:size] >= r_wcp
    n_grid = n_all[advantaged]
    if n_grid.size == 0:
        raise EmptyCurve(f"no grid point admits an SPS advantage at {loss_db} dB")
    # One lockstep bisection: a lane per grid point bisects g2 on
    # [0, 1/<n>], and a last lane bisects <n> at g2 = 0 between the
    # smallest advantaged grid point and 1e-4. ``lo`` is the side where
    # the SPS still matches the WCP rate; lanes that match at ``hi``
    # already are not bisected.
    g2_max = 1.0 / n_grid
    n_lane = np.append(n_grid, 1e-4)
    lo = np.append(np.zeros(n_grid.size), n_grid[0])
    hi = np.append(g2_max, 1e-4)
    edge = hi.copy()
    lane_rows = np.append(np.flatnonzero(advantaged) + size, 2 * size)
    bisected = rate[lane_rows] < r_wcp
    endpoint = (np.arange(n_lane.size) == n_grid.size)[bisected]
    n_lane, lo, hi = n_lane[bisected], lo[bisected], hi[bisected]
    lane = np.arange(n_lane.size)
    # Each call tunes the probes of up to three levels in heap order: the
    # probe after probe i is 2i + 1 where i fails and 2i + 2 where it
    # holds, and each is the float the one-step loop would score there.
    for step in range(0, BOUNDARY_BISECTION_ITERATIONS, 3):
        if lane.size == 0:
            break
        levels = min(3, BOUNDARY_BISECTION_ITERATIONS - step)
        ends, probes = [(lo, hi)], []
        for i in range(2**levels - 1):
            a, b = ends[i]
            mid = 0.5 * (a + b)
            ends += [(a, mid), (mid, b)]
            probes.append(mid)
        probe = np.stack(probes)
        n_probe, g2_probe = np.where(endpoint, probe, n_lane), np.where(endpoint, 0.0, probe)
        holds = _sps_argmax(n_probe, g2_probe, loss_db, channel, proto, sec)[2] >= r_wcp
        node = np.zeros(lane.size, dtype=int)
        for _ in range(levels):
            kept, mid = holds[node, lane], probe[node, lane]
            lo, hi = np.where(kept, mid, lo), np.where(kept, hi, mid)
            node = 2 * node + 1 + kept
    edge[bisected] = lo
    points = list(zip(n_grid.tolist(), edge[:-1].tolist()))
    if bisected[-1]:
        points.insert(0, (float(edge[-1]), 0.0))
    return BoundaryCurve(loss_db=loss_db, points=tuple(points))
