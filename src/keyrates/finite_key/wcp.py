"""Finite-key comparator: efficient BB84 with vacuum-plus-weak decoys.

Three intensities (signal, weak decoy, vacuum) bound the vacuum and
single-photon contributions of a Poissonian transmitter. The secure
length mirrors the standard two-decoy analysis,

    L = s_z0 + s_z1 * (1 - H(phi_1)) - lambda_EC
        - 2 log2(1 / (2 eps_PA)) - log2(2 / eps_cor),

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
from dataclasses import dataclass

import numpy as np

from ..channel import ChannelDetectorModel, dark_count_prob, link_transmittance
from .core import (
    KeyReport,
    ProtocolConfig,
    SecurityParams,
    _binary_entropy_array,
    binary_entropy,
    chernoff_bound,
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
        if not 0.0 < self.mu_decoy < self.mu_signal:
            raise ValueError(
                f"need mu_signal > mu_decoy > 0, got "
                f"({self.mu_signal}, {self.mu_decoy})"
            )
        if min(self.p_signal, self.p_decoy) < 0 or self.p_signal + self.p_decoy > 1.0:
            raise ValueError("intensity probabilities must be a sub-simplex")

    @property
    def p_vacuum(self) -> float:
        return 1.0 - self.p_signal - self.p_decoy


def _poisson_gain(mu: float, eta: float, p_dc: float) -> float:
    return 1.0 - (1.0 - p_dc) * math.exp(-eta * mu)


def _poisson_error_gain(mu: float, eta: float, p_dc: float, p_mis: float) -> float:
    miss = math.exp(-eta * mu)
    return 0.5 * p_dc * miss + p_mis * (1.0 - miss)


def _tau(n: int, mus: list[float], probs: list[float]) -> float:
    """Probability that an emitted pulse carries exactly n photons."""
    return sum(
        p * math.exp(-mu) * mu**n / math.factorial(n) for mu, p in zip(mus, probs)
    )


def _sampling_correction(eps: float, rate: float, n_x: float, n_z: float) -> float:
    """Deviation when an error rate observed on n_x carries over to n_z."""
    if n_x <= 0.0 or n_z <= 0.0:
        return 0.5
    if rate <= 0.0 or rate >= 1.0:
        return 0.0
    spread = (n_x + n_z) / (n_x * n_z)
    variance = rate * (1.0 - rate)
    log_arg = spread / variance * (21.0 / eps) ** 2
    return math.sqrt(spread * variance / math.log(2.0) * math.log2(log_arg))


def _yield_floor(lo, up, tau0, tau1, mu_s, mu_d):
    """Vacuum and single-photon count floors from per-intensity bounds.

    ``lo`` and ``up`` hold the signal, decoy and vacuum bounds rescaled
    to emission rates. Pure arithmetic, so floats and NumPy arrays give
    bit-identical results.
    """
    s0 = tau0 * lo[2]
    s1 = (
        tau1
        * mu_s
        * (lo[1] - up[2] - (mu_d * mu_d / (mu_s * mu_s)) * (up[0] - s0 / tau0))
        / (mu_s * mu_d - mu_d * mu_d)
    )
    return s0, s1


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
    block size. ``_wcp_rates`` is the elementwise twin of this function
    for parameter grids; a change to the analysis goes into both.
    """
    if concentration not in CONCENTRATIONS:
        raise ValueError(f"concentration must be one of {CONCENTRATIONS}")

    eta = link_transmittance(channel)
    p_dc = dark_count_prob(channel)
    p_mis = channel.misalignment_prob
    mus = [intensities.mu_signal, intensities.mu_decoy, 0.0]
    probs = [intensities.p_signal, intensities.p_decoy, intensities.p_vacuum]

    gains = [_poisson_gain(mu, eta, p_dc) for mu in mus]
    error_gains = [_poisson_error_gain(mu, eta, p_dc, p_mis) for mu in mus]
    q_avg = sum(p * q for p, q in zip(probs, gains))
    if q_avg <= 0.0:
        raise DecoyInfeasible("zero gain: no detections expected")

    q_sift_z = proto.q_z_tx * proto.q_z_rx
    q_sift_x = (1.0 - proto.q_z_tx) * (1.0 - proto.q_z_rx)
    n_s = proto.block_size / (q_sift_z * q_avg)
    n_zk = [n_s * q_sift_z * p * q for p, q in zip(probs, gains)]
    n_xk = [n_s * q_sift_x * p * q for p, q in zip(probs, gains)]
    m_zk = [n_s * q_sift_z * p * eq for p, eq in zip(probs, error_gains)]
    m_xk = [n_s * q_sift_x * p * eq for p, eq in zip(probs, error_gains)]

    eps_1 = sec.eps_pe / WCP_CONCENTRATION_USES

    def bounds(counts: list[float], basis_total: float) -> tuple[list[float], list[float]]:
        """Pessimistic per-intensity counts rescaled to emission rates.

        Hoeffding deviations are scaled by the number of detections in
        the basis, the trials over which each per-intensity tally (a
        count or an error count) is accumulated.
        """
        lower, upper = [], []
        for mu, p, n in zip(mus, probs, counts):
            if p <= 0.0:
                lower.append(0.0)
                upper.append(0.0)
                continue
            scale = math.exp(mu) / p
            if concentration == "hoeffding":
                delta = math.sqrt(0.5 * basis_total * math.log(1.0 / eps_1))
                lower.append(scale * max(0.0, n - delta))
                upper.append(scale * (n + delta))
            else:
                lower.append(scale * chernoff_bound(n, eps_1, "lower"))
                upper.append(scale * chernoff_bound(n, eps_1, "upper"))
        return lower, upper

    tau0 = _tau(0, mus, probs)
    tau1 = _tau(1, mus, probs)
    mu_s, mu_d = mus[0], mus[1]

    s_z0, s_z1 = _yield_floor(*bounds(n_zk, sum(n_zk)), tau0, tau1, mu_s, mu_d)
    _, s_x1 = _yield_floor(*bounds(n_xk, sum(n_xk)), tau0, tau1, mu_s, mu_d)
    if intensities.p_signal > 0 and intensities.p_decoy > 0 and s_z1 < 0:
        raise DecoyInfeasible(
            f"single-photon Z yield bound is negative ({s_z1:.4g})"
        )
    s_z1 = max(0.0, s_z1)
    s_x1 = max(0.0, s_x1)

    _, m_up = bounds(m_xk, sum(n_xk))
    v_x1 = tau1 * m_up[1] / mu_d

    if s_x1 <= 0.0 or s_z1 <= 0.0:
        phase_error = 0.5
    else:
        phi = min(0.5, v_x1 / s_x1)
        phase_error = min(
            0.5, phi + _sampling_correction(eps_1, phi, s_x1, s_z1)
        )

    n_z = proto.block_size
    qber_z = sum(m_zk) / n_z
    lambda_ec = sec.f_ec * n_z * binary_entropy(qber_z)
    key_length = max(
        0.0,
        s_z0
        + s_z1 * (1.0 - binary_entropy(phase_error))
        - lambda_ec
        - 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
        - math.log2(2.0 / sec.eps_cor),
    )
    return KeyReport(
        key_length=key_length,
        rate_per_pulse=key_length / n_s,
        n_pulses_sent=n_s,
        multi_photon_cap=n_z - s_z0 - s_z1,
        secure_detections=s_z0 + s_z1,
        phase_error_bound=phase_error,
        lambda_ec=lambda_ec,
        qber=qber_z,
    )


def _wcp_rates(
    mu_s,
    mu_d,
    p_s,
    p_d,
    q_z_tx,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    concentration: str,
) -> np.ndarray:
    """``wcp_finite_key_rate(...).rate_per_pulse`` over broadcast parameter arrays.

    Element i scores ``WcpIntensities(mu_s[i], mu_d[i], p_s[i], p_d[i])``
    under ``replace(proto, q_z_tx=q_z_tx[i])``, with the expressions of
    the scalar path evaluated in the same order. Wherever the scalar
    path raises for a point (invalid intensities or basis ratio, zero
    gain, a negative single-photon Z bound, or a sampling-correction
    logarithm below one) the rate is exactly 0. One call costs several
    scalar evaluations, so per-point callers keep the scalar function.
    """
    if concentration not in CONCENTRATIONS:
        raise ValueError(f"concentration must be one of {CONCENTRATIONS}")
    mu_s, mu_d, p_s, p_d, q_z_tx = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mu_s, mu_d, p_s, p_d, q_z_tx))
    )
    eta = link_transmittance(channel)
    p_dc = dark_count_prob(channel)
    p_mis = channel.misalignment_prob
    eps_1 = sec.eps_pe / WCP_CONCENTRATION_USES
    beta = math.log(1.0 / eps_1)

    # Points the scalar path rejects may produce inf or nan below; the
    # mask at the end sets them to 0.
    with np.errstate(all="ignore"):
        mus = (mu_s, mu_d, 0.0)
        probs = (p_s, p_d, 1.0 - p_s - p_d)
        misses = [np.exp(-eta * mu) for mu in mus]
        gains = [1.0 - (1.0 - p_dc) * miss for miss in misses]
        error_gains = [0.5 * p_dc * miss + p_mis * (1.0 - miss) for miss in misses]
        q_avg = sum(p * q for p, q in zip(probs, gains))

        q_sift_z = q_z_tx * proto.q_z_rx
        q_sift_x = (1.0 - q_z_tx) * (1.0 - proto.q_z_rx)
        n_s = proto.block_size / (q_sift_z * q_avg)
        n_zk = [n_s * q_sift_z * p * q for p, q in zip(probs, gains)]
        n_xk = [n_s * q_sift_x * p * q for p, q in zip(probs, gains)]
        m_zk = [n_s * q_sift_z * p * eq for p, eq in zip(probs, error_gains)]
        m_xk = [n_s * q_sift_x * p * eq for p, eq in zip(probs, error_gains)]

        def bounds(counts, basis_total):
            lower, upper = [], []
            for mu, p, n in zip(mus, probs, counts):
                scale = np.exp(mu) / p
                if concentration == "hoeffding":
                    delta = np.sqrt(0.5 * basis_total * beta)
                    lo, up = n - delta, n + delta
                else:
                    lo = n - np.sqrt(2.0 * beta * n)
                    up = n + beta + np.sqrt(2.0 * beta * n + beta * beta)
                lower.append(np.where(p > 0.0, scale * np.maximum(0.0, lo), 0.0))
                upper.append(np.where(p > 0.0, scale * up, 0.0))
            return lower, upper

        decays = [np.exp(-mu) for mu in mus]
        tau0 = sum(p * decay for p, decay in zip(probs, decays))
        tau1 = sum(p * decay * mu for p, decay, mu in zip(probs, decays, mus))

        s_z0, s_z1 = _yield_floor(*bounds(n_zk, sum(n_zk)), tau0, tau1, mu_s, mu_d)
        _, s_x1 = _yield_floor(*bounds(n_xk, sum(n_xk)), tau0, tau1, mu_s, mu_d)
        infeasible = (p_s > 0) & (p_d > 0) & (s_z1 < 0)
        s_z1 = np.maximum(0.0, s_z1)
        s_x1 = np.maximum(0.0, s_x1)

        _, m_up = bounds(m_xk, sum(n_xk))
        v_x1 = tau1 * m_up[1] / mu_d

        # _sampling_correction, reached only where both floors are positive.
        sampled = (s_x1 > 0.0) & (s_z1 > 0.0)
        phi = np.minimum(0.5, v_x1 / s_x1)
        corrected = sampled & (phi > 0.0) & (phi < 1.0)
        spread = (s_x1 + s_z1) / (s_x1 * s_z1)
        variance = phi * (1.0 - phi)
        log_arg = spread / variance * (21.0 / eps_1) ** 2
        correction = np.where(
            corrected,
            np.sqrt(spread * variance / math.log(2.0) * np.log2(log_arg)),
            0.0,
        )
        phase_error = np.where(sampled, np.minimum(0.5, phi + correction), 0.5)

        n_z = proto.block_size
        qber_z = sum(m_zk) / n_z
        lambda_ec = sec.f_ec * n_z * _binary_entropy_array(qber_z)
        key_length = np.maximum(
            0.0,
            s_z0
            + s_z1 * (1.0 - _binary_entropy_array(phase_error))
            - lambda_ec
            - 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
            - math.log2(2.0 / sec.eps_cor),
        )
        rate = key_length / n_s

    valid = (
        (0.0 < mu_d) & (mu_d < mu_s)
        & (p_s >= 0.0) & (p_d >= 0.0) & (p_s + p_d <= 1.0)
        & (0.0 < q_z_tx) & (q_z_tx < 1.0)
        & (q_avg > 0.0)
        & ~infeasible
        & ~(corrected & (log_arg < 1.0))
    )
    return np.where(valid, rate, 0.0)


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
    error-correction overheads remain. Used for break-even boundaries
    in the asymptotic regime.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    eta = link_transmittance(channel)
    p_dc = dark_count_prob(channel)
    p_mis = channel.misalignment_prob
    y0 = p_dc
    y1 = 1.0 - (1.0 - p_dc) * (1.0 - eta)
    e1 = (0.5 * p_dc * (1.0 - eta) + p_mis * eta) / y1 if y1 > 0 else 0.5
    gain = _poisson_gain(mu, eta, p_dc)
    qber = _poisson_error_gain(mu, eta, p_dc, p_mis) / gain if gain > 0 else 0.5
    q_sift_z = proto.q_z_tx * proto.q_z_rx
    rate = q_sift_z * (
        math.exp(-mu) * y0
        + mu * math.exp(-mu) * y1 * (1.0 - binary_entropy(min(0.5, e1)))
        - sec.f_ec * gain * binary_entropy(min(0.5, qber))
    )
    return max(0.0, rate)
