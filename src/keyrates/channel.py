"""Channel and threshold-detector model.

Maps a photon-number distribution plus link parameters onto expected
gains and error rates. The detector is the standard threshold model:
a pulse carrying n photons through link transmittance ``eta`` clicks
with probability ``Y_n = 1 - (1 - p_dc)(1 - eta)^n``, dark counts err
half the time, and photon detections err with the misalignment
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .photon_source import PhotonNumberDistribution, _python_numbers


class RateTooHigh(ValueError):
    """Raised when dark counts per gate reach or exceed one."""


@dataclass(frozen=True)
class ChannelDetectorModel:
    """Loss and detector parameters of one quantum link.

    Attributes:
        channel_loss_db: propagation loss in dB, >= 0.
        fiber_optics_efficiency: receiver fiber/optics throughput in [0, 1].
        detection_efficiency: detector efficiency in [0, 1].
        dark_count_rate_cps: total dark counts per second across detectors.
        gate_width_s: temporal filtering gate width in seconds.
        misalignment_prob: probability a detected photon lands in the
            wrong detector, in [0, 0.5].
    """

    channel_loss_db: float
    fiber_optics_efficiency: float
    detection_efficiency: float
    dark_count_rate_cps: float
    gate_width_s: float
    misalignment_prob: float

    def __post_init__(self) -> None:
        _python_numbers(self)
        if not self.channel_loss_db >= 0:
            raise ValueError(f"channel_loss_db must be >= 0, got {self.channel_loss_db}")
        for name in ("fiber_optics_efficiency", "detection_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.dark_count_rate_cps >= 0:
            raise ValueError(f"dark_count_rate_cps must be >= 0, got {self.dark_count_rate_cps}")
        if not self.gate_width_s > 0:
            raise ValueError(f"gate_width_s must be > 0, got {self.gate_width_s}")
        if not 0.0 <= self.misalignment_prob <= 0.5:
            raise ValueError(
                f"misalignment_prob must be in [0, 0.5], got {self.misalignment_prob}"
            )


@dataclass(frozen=True)
class DetectionStats:
    """Expected per-pulse detection statistics for one distribution.

    ``q`` is the gain (click probability), ``qe`` the error-weighted
    gain and ``qber = qe / q``. ``yields[n]`` is the click probability
    conditioned on n photons leaving the source.
    """

    yields: tuple[float, ...]
    q: float
    qe: float
    qber: float


def link_transmittance(model: ChannelDetectorModel) -> float:
    """End-to-end transmittance: channel loss times receiver efficiencies."""
    return (
        10.0 ** (-model.channel_loss_db / 10.0)
        * model.fiber_optics_efficiency
        * model.detection_efficiency
    )


def dark_count_prob(model: ChannelDetectorModel) -> float:
    """Dark-count probability per gate, ``rate * gate width``."""
    p_dc = model.dark_count_rate_cps * model.gate_width_s
    if p_dc >= 1.0:
        raise RateTooHigh(
            f"dark counts per gate = {p_dc:.6g} >= 1 "
            f"({model.dark_count_rate_cps} cps over {model.gate_width_s} s)"
        )
    return p_dc


def photon_yields(
    eta: float, model: ChannelDetectorModel, n_max: int
) -> tuple[list[float], list[float]]:
    """Click and error-click probabilities of n = 0 .. n_max photons.

    ``Y_n = p_dc + (1 - p_dc)(1 - (1 - eta)^n)``; the error-weighted
    yield is ``(1/2) p_dc (1 - eta)^n + p_mis (1 - (1 - eta)^n)``, i.e.
    dark-count-only clicks err half the time and photon clicks err with
    the misalignment probability.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    p_dc = dark_count_prob(model)
    p_mis = model.misalignment_prob
    log_miss = math.log1p(-eta) if eta < 1.0 else -math.inf
    yields = []
    error_yields = []
    for n in range(n_max + 1):
        # survive = 1 - (1 - eta)^n via expm1, stable for small eta * n.
        survive = -math.expm1(n * log_miss) if n > 0 else 0.0
        yields.append(p_dc + (1.0 - p_dc) * survive)
        error_yields.append(0.5 * p_dc * (1.0 - survive) + p_mis * survive)
    return yields, error_yields


def detection_stats(
    dist: PhotonNumberDistribution, eta: float, model: ChannelDetectorModel
) -> DetectionStats:
    """Gain, error gain and QBER of a distribution at transmittance eta.

    The per-photon-number yields come from ``photon_yields``.
    """
    yields, error_yields = photon_yields(eta, model, dist.n_max)
    q = 0.0
    qe = 0.0
    for p_n, y_n, e_n in zip(dist.probs, yields, error_yields):
        q += p_n * y_n
        qe += p_n * e_n
    qber = qe / q if q > 0.0 else 0.5
    return DetectionStats(yields=tuple(yields), q=q, qe=qe, qber=qber)
