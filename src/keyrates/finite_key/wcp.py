"""Finite-key comparator: efficient BB84 with vacuum-plus-weak decoys.

Three intensities (signal, weak decoy, vacuum) bound the vacuum and
single-photon contributions of a Poissonian transmitter. The secure
length is the key length of :mod:`keyrates.finite_key.core` with the
secret term of the standard two-decoy analysis,

    s_z0 + s_z1 * (1 - H(phi_1)),

with the single-photon Z yield bounded from signal and decoy gains plus
the vacuum yield, the single-photon phase error bounded by the decoy
error gain in the X basis, and a random-sampling correction for
carrying the X-basis estimate over to the Z key.

Concentration is configurable. The default, ``hoeffding``, follows the
standard analysis and widens each per-intensity count by an additive
deviation scaled by the basis total; ``chernoff`` uses the tighter
multiplicative inversions of :mod:`keyrates.finite_key.core` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..channel import ChannelDetectorModel, dark_count_prob, link_transmittance
from .core import (
    KeyReport,
    ProtocolConfig,
    SecurityParams,
    _chernoff,
    _float_or_numpy,
    _key_report,
    _ops,
    _protocol_valid,
    binary_entropy,
)

# Concentration draws charged against eps_pe: four count bounds per
# basis, the two decoy error-count bounds, and the sampling correction.
WCP_CONCENTRATION_USES = 11

CONCENTRATIONS = ("hoeffding", "chernoff")


class DecoyInfeasible(ValueError):
    """Raised when the decoy bounds produce a negative single-photon yield."""


@dataclass(frozen=True)
class WcpIntensities:
    """Signal and decoy intensities with their emission probabilities.

    The third state is vacuum, sent with the leftover probability.
    """

    mu_signal: float
    mu_decoy: float
    p_signal: float
    p_decoy: float

    def __post_init__(self) -> None:
        fields = (self.mu_signal, self.mu_decoy, self.p_signal, self.p_decoy)
        if not _wcp_valid(*fields):
            fault = _WCP_FAULTS[_wcp_rules(*fields).index(False)]
            raise ValueError(fault.format(*fields, self.p_vacuum))

    @property
    def p_vacuum(self) -> float:
        return _p_vacuum(self.p_signal, self.p_decoy)


def _p_vacuum(p_s, p_d):
    return 1.0 - p_s - p_d


def _wcp_rules(mu_s, mu_d, p_s, p_d) -> tuple:
    """Ordered intensities, and a sub-simplex whose ``_p_vacuum`` is below 0 at (0.8, 0.2)."""
    return (0.0 < mu_d) & (mu_d < mu_s), (p_s >= 0.0) & (p_d >= 0.0) & (_p_vacuum(p_s, p_d) >= 0.0)


def _wcp_valid(mu_s, mu_d, p_s, p_d):
    """Whether ``WcpIntensities`` accepts the fields; ``&`` as in ``_sps_valid``."""
    ordered, simplex = _wcp_rules(mu_s, mu_d, p_s, p_d)
    return ordered & simplex


_WCP_FAULTS = (
    "need mu_signal > mu_decoy > 0, got ({0}, {1})",
    "intensity probabilities must be a sub-simplex, got p_signal = {2!r}, "
    "p_decoy = {3!r}, p_vacuum = {4!r}",
)


def _poisson_gains(mu, eta, p_dc, p_mis, exp=math.exp):
    """Gain and error gain of Poissonian light of mean ``mu``."""
    miss = exp(-eta * mu)
    return 1.0 - (1.0 - p_dc) * miss, 0.5 * p_dc * miss + p_mis * (1.0 - miss)


def _yield_floor(lo_decoy, up_signal, lo_vacuum, up_vacuum, tau0, weight, ratio, gap):
    """Vacuum and single-photon count floors from per-intensity bounds.

    The bounds are rescaled to emission rates. ``weight``, ``ratio`` and
    ``gap`` are ``tau1 mu_s``, ``mu_d^2 / mu_s^2`` and ``mu_s mu_d -
    mu_d^2``, shared by both bases. Pure arithmetic, so floats and NumPy
    arrays give bit-identical results.
    """
    s0 = tau0 * lo_vacuum
    s1 = weight * (lo_decoy - up_vacuum - ratio * (up_signal - s0 / tau0)) / gap
    return s0, s1


def _wcp_expectation(mus, probs, q_z_tx, eta, p_dc, p_mis, proto: ProtocolConfig):
    """Pulses sent, photon-number weights and expected tallies.

    ``mus`` and ``probs`` are the signal, decoy and vacuum intensities
    and their emission probabilities. Returns ``n_s``, sized so that the
    Z detections of all intensities make up ``proto.block_size``, the
    probabilities ``tau0`` and ``tau1`` of an emitted pulse carrying
    zero or one photon, and per intensity the Z and X detections and the
    Z and X errors. Plain loops, as comprehensions cost more than the
    arithmetic on floats; the sums run in the order of ``sum``.
    """
    exp = _ops(*mus, *probs, q_z_tx, eta, p_dc, p_mis, proto.q_z_rx, proto.block_size).exp
    q_sift_z = q_z_tx * proto.q_z_rx
    q_sift_x = (1.0 - q_z_tx) * (1.0 - proto.q_z_rx)
    gains = []
    q_avg = tau0 = tau1 = 0
    for mu, p in zip(mus, probs):
        gains.append(_poisson_gains(mu, eta, p_dc, p_mis, exp))
        q_avg = q_avg + p * gains[-1][0]
        decay = exp(-mu)
        tau0 = tau0 + p * decay
        tau1 = tau1 + p * decay * mu
    n_s = proto.block_size / (q_sift_z * q_avg)
    n_zk, n_xk, m_zk, m_xk = [], [], [], []
    sent_z, sent_x = n_s * q_sift_z, n_s * q_sift_x
    for p, (gain, error_gain) in zip(probs, gains):
        z, x = sent_z * p, sent_x * p
        n_zk.append(z * gain)
        n_xk.append(x * gain)
        m_zk.append(z * error_gain)
        m_xk.append(x * error_gain)
    return n_s, tau0, tau1, n_zk, n_xk, m_zk, m_xk


def _wcp_key_lengths(
    n_s, n_zk, n_xk, m_zk, m_xk, mus, probs, tau0, tau1, n_z, sec: SecurityParams, concentration
):
    """The decoy key length of ``_wcp_expectation``'s tallies, floats or arrays.

    ``n_z`` is the Z block. Returns the ``KeyReport`` and the masks of
    the points without detections, with a negative single-photon Z
    bound, or with a sampling-correction logarithm below one, where the
    report is meaningless. Array callers silence NumPy's warnings.
    """
    ops = _ops(n_s, tau0, tau1, n_z, *n_zk, *n_xk, *m_zk, *m_xk, *mus, *probs)
    mu_s, mu_d = mus[0], mus[1]
    eps_1 = sec.eps_pe / WCP_CONCENTRATION_USES
    beta = math.log(1.0 / eps_1)
    # Rescaling to emission rates; an intensity never sent counts 0.
    scales = []
    for mu, p in zip(mus, probs):
        scales.append((p > 0.0, ops.exp(mu) / p))
    hoeffding = concentration == "hoeffding"
    weight, ratio, gap = tau1 * mu_s, mu_d * mu_d / (mu_s * mu_s), mu_s * mu_d - mu_d * mu_d

    def bound(counts, i, direction, delta):
        """Pessimistic count of intensity ``i``, rescaled to its emission rate.

        Hoeffding deviations ``delta`` are scaled by the number of
        detections in the basis, the trials over which each
        per-intensity tally (a count or an error count) is accumulated.
        """
        n = counts[i]
        if not hoeffding:
            n = _chernoff(n, beta, direction, ops)
        elif direction == "lower":
            n = ops.maximum(0.0, n - delta)
        else:
            n = n + delta
        sent, scale = scales[i]
        return ops.where(sent, scale * n, 0.0)

    def floor(counts, delta):
        """``_yield_floor`` of one basis, from the four bounds it reads."""
        return _yield_floor(
            bound(counts, 1, "lower", delta), bound(counts, 0, "upper", delta),
            bound(counts, 2, "lower", delta), bound(counts, 2, "upper", delta),
            tau0, weight, ratio, gap,
        )

    n_z_total = sum(n_zk)
    delta_z = ops.sqrt(0.5 * n_z_total * beta) if hoeffding else None
    delta_x = ops.sqrt(0.5 * sum(n_xk) * beta) if hoeffding else None
    no_gain = ops.where(n_z_total > 0.0, False, True)
    s_z0, s_z1 = floor(n_zk, delta_z)
    _, s_x1 = floor(n_xk, delta_x)
    infeasible = (probs[0] > 0) & (probs[1] > 0) & (s_z1 < 0)
    s_z1 = ops.maximum(0.0, s_z1)
    s_x1 = ops.maximum(0.0, s_x1)
    v_x1 = tau1 * bound(m_xk, 1, "upper", delta_x) / mu_d

    # The single-photon phase error, plus the deviation of carrying an
    # error rate observed on s_x1 over to s_z1; 0.5 without both floors.
    sampled = (s_x1 > 0.0) & (s_z1 > 0.0)
    phi = ops.minimum(0.5, v_x1 / s_x1)
    corrected = sampled & (phi > 0.0) & (phi < 1.0)
    spread = (s_x1 + s_z1) / (s_x1 * s_z1)
    variance = phi * (1.0 - phi)
    log_arg = spread / variance * (21.0 / eps_1) ** 2
    correction = ops.sqrt(spread * variance / math.log(2.0) * ops.log2(log_arg))
    phase_error = ops.where(
        sampled, ops.minimum(0.5, phi + ops.where(corrected, correction, 0.0)), 0.5
    )

    secret = s_z0 + s_z1 * (1.0 - ops.entropy(phase_error))
    mp_cap, secure = n_z - s_z0 - s_z1, s_z0 + s_z1
    report = _key_report(secret, n_s, n_z, sum(m_zk) / n_z, mp_cap, secure, phase_error, sec, ops)
    return report, no_gain, infeasible, corrected & (log_arg < 1.0)


def _wcp_distil(mu_s, mu_d, p_s, p_d, q_z_tx, eta, channel, proto, sec, concentration):
    """``_wcp_key_lengths`` of the ``_wcp_expectation`` of one or more points.

    ``eta`` is the link transmittance; the detector terms come from ``channel``.
    """
    mus = (mu_s, mu_d, 0.0)
    probs = (p_s, p_d, _p_vacuum(p_s, p_d))
    n_s, tau0, tau1, *tallies = _wcp_expectation(
        mus, probs, q_z_tx, eta, dark_count_prob(channel), channel.misalignment_prob, proto
    )
    return _wcp_key_lengths(
        n_s, *tallies, mus, probs, tau0, tau1, proto.block_size, sec, concentration
    )


def wcp_finite_key_rate(
    intensities: WcpIntensities,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str = "hoeffding",
) -> KeyReport:
    """Finite-key rate of the three-intensity decoy comparator.

    Expected tallies are generated from the channel model so that the
    Z-basis detections across all intensities match the configured
    block size. Raises ``DecoyInfeasible`` where the bounds give no key.
    """
    if concentration not in CONCENTRATIONS:
        raise ValueError(f"concentration must be one of {CONCENTRATIONS}")
    i = intensities
    parameters = (i.mu_signal, i.mu_decoy, i.p_signal, i.p_decoy, proto.q_z_tx)
    report, no_gain, infeasible, short_log = _float_or_numpy(
        _wcp_distil, (*parameters, link_transmittance(channel), channel, proto, sec, concentration)
    )
    if no_gain:
        raise DecoyInfeasible("zero gain: no detections expected")
    if infeasible:
        raise DecoyInfeasible("single-photon Z yield bound is negative")
    if short_log:
        raise DecoyInfeasible("sampling correction undefined: its log argument is below 1")
    return report


def _wcp_lanes(
    loss_db,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str,
):
    """``wcp_finite_key_rate(...).rate_per_pulse`` over broadcast lanes.

    Returns ``rates(mu_s, mu_d, p_s, p_d, q_z_tx)``. Element i of its
    result scores ``WcpIntensities(mu_s[i], mu_d[i], p_s[i], p_d[i])``
    on ``replace(channel, channel_loss_db=loss_db[i])`` under
    ``replace(proto, q_z_tx=q_z_tx[i])`` with the same distiller, and is
    exactly 0 outside ``_wcp_valid`` and ``_protocol_valid`` and where
    it raises ``DecoyInfeasible``. The transmittance of each distinct
    loss comes from the scalar formula, once, so a search that scores
    many points per lane builds the lanes once.
    """
    if concentration not in CONCENTRATIONS:
        raise ValueError(f"concentration must be one of {CONCENTRATIONS}")
    loss_db = np.asarray(loss_db, dtype=float)
    losses, index = np.unique(loss_db.ravel(), return_inverse=True)
    eta = np.array(
        [link_transmittance(replace(channel, channel_loss_db=loss)) for loss in losses.tolist()]
    )[index].reshape(loss_db.shape)

    def rates(mu_s, mu_d, p_s, p_d, q_z_tx) -> np.ndarray:
        mu_s, mu_d, p_s, p_d, q_z_tx = np.broadcast_arrays(
            *(np.asarray(a, dtype=float) for a in (mu_s, mu_d, p_s, p_d, q_z_tx))
        )
        with np.errstate(all="ignore"):
            report, no_gain, infeasible, short_log = _wcp_distil(
                mu_s, mu_d, p_s, p_d, q_z_tx, eta, channel, proto, sec, concentration
            )
        valid = _wcp_valid(mu_s, mu_d, p_s, p_d) & ~(no_gain | infeasible | short_log)
        valid &= _protocol_valid(q_z_tx, proto.q_z_rx, proto.block_size, proto.pre_attenuation)
        return np.where(valid, report.rate_per_pulse, 0.0)

    return rates


def wcp_asymptotic_practical_rate(
    mu: float,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
) -> float:
    """Infinite-block decoy rate with system imperfections retained.

    In the asymptotic limit the decoy estimation becomes exact, so the
    vacuum and single-photon yields and the single-photon error rate
    take their true values; misalignment, dark counts, sifting and
    error-correction overheads remain. The tuned ``optimized_wcp_rate``
    stays below it on the same receiver as the block grows.
    """
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    eta = link_transmittance(channel)
    p_dc = dark_count_prob(channel)
    p_mis = channel.misalignment_prob
    y0 = p_dc
    y1 = 1.0 - (1.0 - p_dc) * (1.0 - eta)
    e1 = (0.5 * p_dc * (1.0 - eta) + p_mis * eta) / y1 if y1 > 0 else 0.5
    gain, error_gain = _poisson_gains(mu, eta, p_dc, p_mis)
    qber = error_gain / gain if gain > 0 else 0.5
    q_sift_z = proto.q_z_tx * proto.q_z_rx
    rate = q_sift_z * (
        math.exp(-mu) * y0
        + mu * math.exp(-mu) * y1 * (1.0 - binary_entropy(min(0.5, e1)))
        - sec.f_ec * gain * binary_entropy(min(0.5, qber))
    )
    return max(0.0, rate)
