"""Photon-number statistics of single-photon and weak-coherent sources.

The common currency of the toolkit is a truncated photon-number
distribution ``{p_0, ..., p_nmax}``. Single-photon sources (SPS) are
described by a mean photon number and a second-order correlation
``g2 = g^(2)(0)``, which fix ``{p0, p1, p2}`` through the first two
factorial moments. Weak coherent pulses (WCP) are Poissonian with the
tail above the cutoff absorbed into the last bin. Attenuation acts by
binomial thinning and leaves ``g2`` invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

NORMALIZATION_TOL = 1e-12
DEFAULT_WCP_CUTOFF = 20


class NonPhysicalSource(ValueError):
    """Raised when source parameters imply probabilities outside [0, 1]."""


class UndefinedG2(ValueError):
    """Raised when g2 is requested for a distribution with zero mean."""


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Probabilities of emitting n photons per pulse, n = 0 .. n_max.

    Immutable and safe to share between threads. Entries must be in
    [0, 1] and sum to one within ``NORMALIZATION_TOL``.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 3:
            raise NonPhysicalSource(
                f"distribution needs n_max >= 2, got n_max={len(self.probs) - 1}"
            )
        for n, p in enumerate(self.probs):
            if not (-NORMALIZATION_TOL <= p <= 1.0 + NORMALIZATION_TOL):
                raise NonPhysicalSource(f"p[{n}]={p!r} outside [0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NonPhysicalSource(f"probabilities sum to {total!r}, expected 1")

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1


class SourceKind(Enum):
    SPS = "sps"
    WCP = "wcp"


@dataclass(frozen=True)
class SourceSpec:
    """Source described by its kind, mean photon number and g2.

    For WCP sources the mean photon number is the Poisson intensity mu
    and ``g2`` is ignored (coherent light has g2 = 1 by construction).
    """

    kind: SourceKind
    mean_photon_number: float
    g2: float = 0.0

    def __post_init__(self) -> None:
        rules = _sps_moment_rules(self.mean_photon_number, self.g2)
        # ``distribution()`` adds the p0 rule. Coherent light ignores g2 beyond its sign.
        if not all(rules if self.kind is SourceKind.SPS else rules[:2]):
            raise _sps_fault(self.mean_photon_number, self.g2)

    def distribution(self, n_max: int = DEFAULT_WCP_CUTOFF) -> PhotonNumberDistribution:
        if self.kind is SourceKind.SPS:
            return sps_distribution(self.mean_photon_number, self.g2)
        return wcp_distribution(self.mean_photon_number, n_max)


def _sps_probs(n_mean, g2):
    """Unclamped ``(p0, p1, p2)`` with ``p1 + 2 p2 = <n>`` and ``2 p2 = g2 <n>^2``."""
    p2 = g2 * n_mean * n_mean / 2.0
    p1 = n_mean - 2.0 * p2
    return 1.0 - p1 - p2, p1, p2


def _sps_moment_rules(n_mean, g2) -> tuple:
    """``SourceSpec``'s rules for an SPS: ``<n> > 0``, ``g2 >= 0`` and ``g2 <n> <= 1``."""
    return n_mean > 0.0, g2 >= 0.0, g2 * n_mean <= 1.0


def _sps_rules(n_mean, g2) -> tuple:
    """The moment rules, then p0's, with which p1 and p2 stay in [0, 1] too."""
    return (*_sps_moment_rules(n_mean, g2), _sps_probs(n_mean, g2)[0] >= -NORMALIZATION_TOL)


def _sps_valid(n_mean, g2):
    """``_sps_rules`` joined by ``&``, never ``not`` or ``~`` (``~True == -2``): bool or mask."""
    positive, signed, bounded, normalised = _sps_rules(n_mean, g2)
    return positive & signed & bounded & normalised


_SPS_FAULTS = (
    "mean photon number must be > 0, got {0}", "g2 must be >= 0, got {1}",
    "g2*<n> = {2:.6g} > 1 implies p1 < 0",
    "(<n>={0}, g2={1}) gives probabilities outside [0, 1]: ({3:.6g}, {4:.6g}, {5:.6g})",
)


def _sps_fault(n_mean, g2) -> NonPhysicalSource:
    fault = _SPS_FAULTS[_sps_rules(n_mean, g2).index(False)]
    return NonPhysicalSource(fault.format(n_mean, g2, g2 * n_mean, *_sps_probs(n_mean, g2)))


def sps_distribution(n_mean: float, g2: float) -> PhotonNumberDistribution:
    """Two-photon-truncated ``_sps_probs``; a pair breaking ``_sps_rules`` raises, not clamps."""
    if not _sps_valid(n_mean, g2):
        raise _sps_fault(n_mean, g2)
    return PhotonNumberDistribution(_sps_probs(n_mean, g2))


def wcp_distribution(mu: float, n_max: int = DEFAULT_WCP_CUTOFF) -> PhotonNumberDistribution:
    """Poisson distribution with the tail absorbed into the last bin."""
    if not mu >= 0:
        raise NonPhysicalSource(f"mu must be >= 0, got {mu}")
    if n_max < 2:
        raise NonPhysicalSource(f"n_max must be >= 2, got {n_max}")
    probs = [0.0] * (n_max + 1)
    term = math.exp(-mu)
    for k in range(n_max):
        probs[k] = term
        term *= mu / (k + 1)
    probs[n_max] = max(0.0, 1.0 - math.fsum(probs[:n_max]))
    return PhotonNumberDistribution(tuple(probs))


def attenuate(dist: PhotonNumberDistribution, t: float) -> PhotonNumberDistribution:
    """Binomial thinning of a distribution by transmittance t.

    Each of n photons survives independently with probability t:
    ``out[k] = sum_n p_n C(n, k) t^k (1-t)^(n-k)``. The mean scales by
    t while g2 is unchanged. A tail bin produced by ``wcp_distribution``
    is thinned as if it held exactly ``n_max`` photons.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {t}")
    if t == 1.0:
        return dist
    n_max = dist.n_max
    out = [0.0] * (n_max + 1)
    for n, p_n in enumerate(dist.probs):
        if p_n == 0.0:
            continue
        for k in range(n + 1):
            out[k] += p_n * math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
    return PhotonNumberDistribution(tuple(out))


def moments(dist: PhotonNumberDistribution) -> tuple[float, float]:
    """Mean photon number and g2 of a distribution.

    ``g2 = sum_n n (n-1) p_n / mean^2``; raises ``UndefinedG2`` for a
    vacuum distribution.
    """
    mean = math.fsum(n * p for n, p in enumerate(dist.probs))
    if mean <= 0.0:
        raise UndefinedG2("g2 is undefined for a zero-mean distribution")
    second = math.fsum(n * (n - 1) * p for n, p in enumerate(dist.probs))
    return mean, second / (mean * mean)
