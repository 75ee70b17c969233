"""Asymptotic secret-key-rate limits and the coherent-state advantage boundary.

In the infinite-key limit an ideal decoy-armed WCP system is capped at
``eta / e`` bits per pulse. An SPS with mean photon number ``<n>`` and
second-order correlation ``g2`` reaches

    R = -(1/2) g2 <n>^2 (eta^2 + 1) + <n> eta            eta > eta_th
    R = eta^2 / (2 g2 (eta^2 + 1))                       eta <= eta_th

where the second branch is the first one maximised over the effective
mean photon number (pre-attenuation), attained at
``<n>* = eta / (g2 (eta^2 + 1))``, and ``eta_th`` is the transmittance
at which ``<n>* = <n>``. The advantage boundary is the locus in the
(<n>, g2) plane where the two technologies break even at a given loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .photon_source import _sps_fault, _sps_moment_rules

# Above e/2 the pre-attenuated branch is below eta/e for every eta <= 1,
# so the break-even g2 always lies inside [0, G2_SEARCH_CAP]; it reaches
# the cap only where eta underflows to 0.
G2_SEARCH_CAP = math.e / 2.0


class EmptyCurve(RuntimeError):
    """Raised when no grid point admits an SPS advantage."""


@dataclass(frozen=True)
class BoundaryCurve:
    """Break-even locus: ordered (mean photon number, g2) pairs at one loss."""

    loss_db: float
    points: tuple[tuple[float, float], ...]

    @property
    def min_mean_photon_number(self) -> float:
        return self.points[0][0]

    @property
    def max_g2(self) -> float:
        return max(g2 for _, g2 in self.points)


def wcp_asymptotic_rate(eta: float) -> float:
    """Ideal WCP ceiling ``eta / e``, the maximum of ``eta mu exp(-mu)``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return eta / math.e


def eta_threshold(n_mean: float, g2: float) -> float:
    """Transmittance below which pre-attenuation beats the bare source.

    With ``x = g2 <n>``, this is the smaller root of
    ``x eta^2 - eta + x = 0``, written as ``2x / (1 + sqrt(1 - 4x^2))``
    so that no digits cancel as x shrinks. For ``x > 1/2`` the
    discriminant is negative, the pre-attenuated branch applies
    everywhere, and the threshold saturates at 1.
    """
    if not all(_sps_moment_rules(n_mean, g2)[:2]):
        raise _sps_fault(n_mean, g2)
    x = g2 * n_mean
    if x > 0.5:
        return 1.0
    return 2.0 * x / (1.0 + math.sqrt(1.0 - 4.0 * x * x))


def sps_rate_fixed_mean(eta: float, n_mean: float, g2: float) -> float:
    """SPS rate at the stated mean photon number, no pre-attenuation.

    May be negative when the two-photon penalty dominates.
    """
    return -0.5 * g2 * n_mean * n_mean * (eta * eta + 1.0) + n_mean * eta


def sps_asymptotic_rate(eta: float, n_mean: float, g2: float) -> float:
    """Asymptotic SPS rate, pre-attenuating whenever that is optimal."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if eta == 0.0:
        return 0.0
    if eta > eta_threshold(n_mean, g2):
        return sps_rate_fixed_mean(eta, n_mean, g2)
    return eta * eta / (2.0 * g2 * (eta * eta + 1.0))


def boundary_g2(loss_db: float, n_mean: float) -> float | None:
    """Largest g2 at which the SPS still matches the WCP ceiling.

    Returns None when even a perfect source (g2 = 0) falls short. The
    SPS rate is strictly decreasing in g2, so the root is unique, and it
    has a closed form: up to ``<n> = 2/e`` the root lies on the
    fixed-mean branch, ``2 (<n> eta - eta/e) / (<n>^2 (eta^2 + 1))``;
    above it, on the pre-attenuated branch, ``e eta / (2 (eta^2 + 1))``
    whatever ``<n>``.
    """
    eta = 10.0 ** (-loss_db / 10.0)
    target = wcp_asymptotic_rate(eta)
    if sps_asymptotic_rate(eta, n_mean, 0.0) < target:
        return None
    if sps_asymptotic_rate(eta, n_mean, G2_SEARCH_CAP) >= target:
        return G2_SEARCH_CAP
    if n_mean <= 2.0 / math.e:
        return 2.0 * (n_mean * eta - target) / (n_mean * n_mean * (eta * eta + 1.0))
    return math.e * eta / (2.0 * (eta * eta + 1.0))


def boundary_min_mean(loss_db: float) -> float:
    """Smallest mean photon number admitting any advantage at this loss.

    At g2 = 0 the SPS rate ``<n> eta`` and the WCP ceiling ``eta / e``
    are both linear in eta, so this is 1/e at every loss.
    """
    return 1.0 / math.e


def advantage_boundary(loss_db: float, grid: list[float]) -> BoundaryCurve:
    """Advantage boundary over a grid of mean photon numbers.

    Grid points that admit no advantage are omitted and the exact
    minimum viable mean photon number (where the boundary meets g2 = 0)
    is prepended, so the curve carries both endpoints regardless of the
    grid. A root beyond the SPS rule ``g2 <n> <= 1`` is capped at 1/<n>,
    as in ``finite_boundary``. Raises ``EmptyCurve`` when no point qualifies.
    """
    if not loss_db >= 0:
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    points = []
    for n_mean in sorted(grid):
        g2 = boundary_g2(loss_db, n_mean)
        if g2 is not None:
            points.append((n_mean, min(g2, 1.0 / n_mean)))
    if not points:
        raise EmptyCurve(f"no grid point admits an SPS advantage at {loss_db} dB")
    n_min = boundary_min_mean(loss_db)
    if n_min < points[0][0]:
        points.insert(0, (n_min, 0.0))
    return BoundaryCurve(loss_db=loss_db, points=tuple(points))
