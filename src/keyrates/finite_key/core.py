"""Finite-key distillation for the three-state SPS protocol.

The secure key length of a block of Z-basis detections is

    L = N_z_floor * (1 - H(phi)) - lambda_EC
        - 2 log2(1 / (2 eps_PA)) - log2(2 / eps_cor)

clamped at zero. ``N_z_floor`` subtracts a high-confidence cap on the
number of multi-photon pulses from the observed Z detections, ``phi``
is the X-basis error rate inflated by worst-case assignment of
multi-photon detections and by statistical sampling deviations, and
``lambda_EC = f_EC * N_z * H(E_z)`` models error-correction leakage.

Statistical deviations use multiplicative-Chernoff-style inversions:
with ``beta = ln(1 / eps)``, an observed or expected count ``x`` is
bounded by ``x + beta + sqrt(2 beta x + beta^2)`` from above and by
``x - sqrt(2 beta x)`` from below. Multi-photon pulses are treated
pessimistically: every one of them is assumed to reach the receiver
and to leak fully, in both bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass, replace
from types import SimpleNamespace

import numpy as np

from ..channel import ChannelDetectorModel, link_transmittance, photon_yields
from ..photon_source import NORMALIZATION_TOL, SourceKind, SourceSpec, UndefinedG2

# Chernoff draws charged against eps_pe by the SPS pipeline: the Z and X
# multi-photon caps, the X error-count bound, and the basis-transfer
# deviation of the phase error.
SPS_CHERNOFF_USES = 4


class DomainError(ValueError):
    """Raised when a probability argument leaves its domain."""


class InsufficientBlock(ValueError):
    """Raised when the multi-photon cap exceeds the Z-basis detections."""


# The smallest failure probability accepted. Far smaller ones overflow
# the key-length constants: the WCP sampling term (21 / eps)^2 is beyond
# the largest float once eps_pe is below about 1e-152.
EPS_MIN = 1e-100


@dataclass(frozen=True)
class SecurityParams:
    """Failure-probability budget and error-correction efficiency.

    ``eps_pe`` is the total parameter-estimation budget, split equally
    across the concentration-bound draws of whichever pipeline consumes
    it. ``eps_pa``, ``eps_ec`` and ``eps_cor`` enter the key-length
    formula directly. ``f_ec >= 1`` scales the Shannon limit of the
    error-correction leakage.
    """

    eps_pe: float
    eps_pa: float
    eps_ec: float
    eps_cor: float
    f_ec: float

    def __post_init__(self) -> None:
        for name in ("eps_pe", "eps_pa", "eps_ec", "eps_cor"):
            value = getattr(self, name)
            if not EPS_MIN <= value < 1.0:
                raise ValueError(f"{name} must be in [{EPS_MIN:g}, 1), got {value}")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec}")

    def total_failure_probability(self) -> float:
        """Secrecy budget consumed by estimation plus PA and EC."""
        return self.eps_pe + self.eps_pa + self.eps_ec


@dataclass(frozen=True)
class ProtocolConfig:
    """Basis probabilities, block target and transmitter pre-attenuation.

    ``block_size`` counts Z-basis detections accumulated by the
    receiver; the number of pulses sent is inferred from the expected
    gain in analytic mode. ``q_z_rx`` defaults to the 9:1 passive basis
    choice of the receiver optics.
    """

    q_z_tx: float
    q_z_rx: float = 0.9
    block_size: float = 1e8
    pre_attenuation: float = 1.0

    def __post_init__(self) -> None:
        for name in ("q_z_tx", "q_z_rx"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not 0.0 < self.pre_attenuation <= 1.0:
            raise ValueError(
                f"pre_attenuation must be in (0, 1], got {self.pre_attenuation}"
            )


@dataclass(frozen=True)
class TallySet:
    """Counts of pulses sent, detections and errors per basis."""

    n_pulses_sent: float
    z_detections: float
    x_detections: float
    z_errors: float
    x_errors: float

    def __post_init__(self) -> None:
        if self.n_pulses_sent < 0:
            raise ValueError("n_pulses_sent must be >= 0")
        if not 0 <= self.z_errors <= self.z_detections:
            raise ValueError("need 0 <= z_errors <= z_detections")
        if not 0 <= self.x_errors <= self.x_detections:
            raise ValueError("need 0 <= x_errors <= x_detections")
        if self.z_detections + self.x_detections > self.n_pulses_sent:
            raise ValueError("detections exceed pulses sent")


@dataclass(frozen=True)
class KeyReport:
    """Key length, normalised rate and every intermediate bound."""

    key_length: float
    rate_per_pulse: float
    n_pulses_sent: float
    multi_photon_cap: float
    secure_detections: float
    phase_error_bound: float
    lambda_ec: float
    qber: float


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _binary_entropy_array(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` elementwise, for arguments already in [0, 1]."""
    inside = (p > 0.0) & (p < 1.0)
    return np.where(inside, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)


# The operations of the distillers beyond arithmetic: libm on Python
# floats and ints, NumPy on arrays (see ``_ops``). On floats ``where``
# gets both branches evaluated, as ``np.where`` does, and ``maximum`` and
# ``minimum`` are the two-argument ``max`` and ``min``, faster as lambdas.
_PYTHON_NUMBERS = frozenset((float, int))
_MATH = SimpleNamespace(
    exp=math.exp, sqrt=math.sqrt, log2=math.log2, entropy=binary_entropy,
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    where=lambda condition, a, b: a if condition else b,
)
_NUMPY = SimpleNamespace(
    exp=np.exp, sqrt=np.sqrt, log2=np.log2, entropy=_binary_entropy_array,
    maximum=np.maximum, minimum=np.minimum, where=np.where,
)


class _NumpyScalars(Exception):
    """Raised by ``_ops`` for NumPy scalars without an array among its values."""


def _ops(*values) -> SimpleNamespace:
    """``_MATH`` if every value is a Python float or int, else ``_NUMPY``.

    NumPy scalars without any array raise ``_NumpyScalars``: NumPy would
    warn where floats raise, and round otherwise than libm, so
    ``_float_or_numpy`` reruns such a float call on Python numbers.
    """
    types = {*map(type, values)}
    if types <= _PYTHON_NUMBERS:
        return _MATH
    if np.ndarray not in types and any(issubclass(t, np.generic) for t in types):
        raise _NumpyScalars
    return _NUMPY


def _as_python(value):
    """``value`` with its NumPy scalars, also those inside a tuple, a list
    or the fields of a parameter dataclass, replaced by Python numbers."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return type(value)(map(_as_python, value))
    if is_dataclass(value):
        numpy_fields = {k: v.item() for k, v in vars(value).items() if isinstance(v, np.generic)}
        return replace(value, **numpy_fields) if numpy_fields else value
    return value


def _float_or_numpy(kernel, args: tuple, coerced: bool = False):
    """``kernel(*args)`` on Python numbers, rerun on NumPy where they fail.

    A call whose numbers include NumPy scalars (``_NumpyScalars``) is
    made again, once, on the Python numbers they hold, so it returns
    what the same call on floats returns, silently. Floats raise where
    NumPy gives inf or nan, on branches that the kernel's ``where`` or
    masks then discard (a division by zero, the root or logarithm of a
    negative); the rerun on 0-d arrays carries them through and returns
    NumPy scalars and 0-d arrays.
    """
    try:
        return kernel(*args)
    except _NumpyScalars:
        if coerced:
            raise
        return _float_or_numpy(kernel, tuple(map(_as_python, args)), coerced=True)
    except (ArithmeticError, ValueError):
        with np.errstate(all="ignore"):
            return kernel(*(np.asarray(a, float) if type(a) in (float, int) else a for a in args))


def _chernoff(x, beta, direction: str, ops=_MATH):
    """Multiplicative-Chernoff inversion of a count x, ``beta = ln(1 / eps)``."""
    if direction == "upper":
        return x + beta + ops.sqrt(2.0 * beta * x + beta * beta)
    return ops.maximum(0.0, x - ops.sqrt(2.0 * beta * x))


def chernoff_bound(x: float, eps: float, direction: str) -> float:
    """High-confidence bound on a count with observed or expected value x.

    With ``beta = ln(1 / eps)`` the upper bound is
    ``x + beta + sqrt(2 beta x + beta^2)`` and the lower bound is
    ``max(0, x - sqrt(2 beta x))``; both collapse to x as eps -> 1.
    """
    if x < 0:
        raise ValueError(f"count must be >= 0, got {x}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    return _chernoff(x, math.log(1.0 / eps), direction)


def sps_key_length(
    tallies: TallySet,
    source: SourceSpec,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
) -> KeyReport:
    """Secure key length of one SPS block.

    ``source`` describes the light actually launched, i.e. after any
    transmitter pre-attenuation. Raises ``InsufficientBlock`` when the
    multi-photon cap swallows the whole Z-basis block. With
    ``asymptotic=True`` the statistical deviations and the privacy
    amplification and correctness terms vanish, which is the
    infinite-block limit of the same formula.
    """
    if source.kind is not SourceKind.SPS:
        raise ValueError("sps_key_length needs an SPS source")
    t = tallies
    p2 = source.g2 * source.mean_photon_number**2 / 2.0
    report, insufficient = _float_or_numpy(
        _sps_key_lengths,
        (t.n_pulses_sent, t.z_detections, t.x_detections, t.z_errors, t.x_errors,
         p2, proto.q_z_tx, sec, asymptotic),
    )
    if insufficient:
        raise InsufficientBlock(
            f"multi-photon cap {report.multi_photon_cap:.4g} >= Z detections "
            f"{t.z_detections:.4g}"
        )
    if not t.n_pulses_sent > 0:
        return replace(report, rate_per_pulse=0.0)  # no pulses: no key, not 0 / 0
    return report


def _sps_key_lengths(
    n_s, n_z, n_x, z_errors, x_errors, p2, q_z_tx, sec: SecurityParams, asymptotic: bool = False
) -> tuple[KeyReport, object]:
    """The SPS key-length formula on floats or broadcast arrays.

    The launched source enters as its two-photon probability ``p2``
    (``g2 <n>^2 / 2``). Returns the ``KeyReport`` of every block and
    the mask of blocks whose multi-photon cap swallows the Z block
    (``InsufficientBlock``); the report is meaningless there, and so is
    the rate of a block without pulses. Array callers silence NumPy's
    floating-point warnings.
    """
    # The rule of ``_ops``, spelled out for floats: the call would cost a
    # twentieth of a float-path key length.
    numbers = (n_s, n_z, n_x, z_errors, x_errors, p2, q_z_tx)
    ops = _MATH if {*map(type, numbers)} <= _PYTHON_NUMBERS else _ops(*numbers)
    if asymptotic:
        # The infinite-block limit, eps = 1: every bound is the count itself.
        beta = pa_cost = correctness_cost = 0.0
    else:
        beta = math.log(1.0 / (sec.eps_pe / SPS_CHERNOFF_USES))
        pa_cost = 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
        correctness_cost = math.log2(2.0 / sec.eps_cor)

    def upper(x):
        # An exactly-zero count or expectation stays zero, so degenerate
        # configurations reduce to the ideal formula.
        return ops.where(x <= 0.0, 0.0, _chernoff(x, beta, "upper", ops))

    mp_cap_z = upper(n_s * q_z_tx * p2)
    n_z_floor = n_z - mp_cap_z
    insufficient = (n_z_floor <= 0.0) & (mp_cap_z > 0.0)
    n_z_floor = ops.maximum(n_z_floor, 0.0)
    qber_z = ops.where(n_z > 0, z_errors / n_z, 0.0)
    lambda_ec = sec.f_ec * n_z * ops.entropy(qber_z)
    # Phase error: keep every observed X error, remove only the assumed
    # multi-photon share of the X sample, then charge the statistical
    # transfer onto the Z block. Without an X sample to estimate from, or
    # a Z block to transfer onto, it is 0.5: no key. Without deviations
    # the transfer is phi_x itself; (n phi) / n need not round back to
    # phi, so it is skipped.
    n_x_floor = n_x - upper(n_s * (1.0 - q_z_tx) * p2)
    phi_x = ops.minimum(0.5, upper(x_errors) / n_x_floor)
    phase_error = ops.where(
        (n_x_floor <= 0.0) | (n_z_floor <= 0.0),
        0.5,
        phi_x if asymptotic else ops.minimum(0.5, upper(n_z_floor * phi_x) / n_z_floor),
    )
    key_length = ops.maximum(
        0.0,
        n_z_floor * (1.0 - ops.entropy(phase_error))
        - lambda_ec
        - pa_cost
        - correctness_cost,
    )
    rate = key_length / n_s
    # Positional: keywords cost a tenth of a float call.
    report = KeyReport(key_length, rate, n_s, mp_cap_z, n_z_floor, phase_error, lambda_ec, qber_z)
    return report, insufficient


def _sps_expectation(probs, t, yields, error_yields, q_z_tx, proto: ProtocolConfig):
    """Launched mean and g2, gain, QBER, pulses sent and X detections.

    Thins the source's ``{p0, p1, p2}`` by the pre-attenuation ``t``
    (each photon survives with probability t), takes the moments of the
    launched light and its gain and QBER from the per-photon-number
    click and error-click probabilities, and sizes the block so that the
    Z sample, kept with probability ``q_z_tx * q_z_rx``, holds
    ``proto.block_size`` detections. Pure arithmetic, so floats and
    NumPy arrays give bit-identical results.
    """
    # For its check alone: NumPy scalars raise ``_NumpyScalars``.
    _ops(*probs, t, *yields, *error_yields, q_z_tx, proto.block_size, proto.q_z_rx)
    p0, p1, p2 = probs
    y0, y1, y2 = yields
    e0, e1, e2 = error_yields
    miss = 1.0 - t
    a0 = p0 + p1 * miss + p2 * (miss * miss)
    a1 = p1 * t + p2 * 2.0 * t * miss
    a2 = p2 * (t * t)
    mean = a1 + 2.0 * a2
    g2 = 2.0 * a2 / (mean * mean)
    q = a0 * y0 + a1 * y1 + a2 * y2
    qber = (a0 * e0 + a1 * e1 + a2 * e2) / q
    n_s = proto.block_size / (q_z_tx * proto.q_z_rx * q)
    n_x = n_s * (1.0 - q_z_tx) * (1.0 - proto.q_z_rx) * q
    return mean, g2, q, qber, n_s, n_x


def _sps_point(source: SourceSpec, channel: ChannelDetectorModel, proto: ProtocolConfig):
    """``_sps_expectation`` of one SPS configuration, rejecting degenerate ones.

    Raises ``UndefinedG2`` when the launched mean, squared, is zero and
    ``InsufficientBlock`` when no detections are expected.
    """
    if source.kind is not SourceKind.SPS:
        raise ValueError("the SPS expectation needs an SPS source")
    probs = source.distribution().probs
    yields, error_yields = photon_yields(link_transmittance(channel), channel, 2)
    expectation = _float_or_numpy(
        _sps_expectation, (probs, proto.pre_attenuation, yields, error_yields, proto.q_z_tx, proto)
    )
    mean, _, q, *_ = expectation
    if not mean * mean > 0.0:
        raise UndefinedG2(f"g2 is undefined for a launched mean of {mean:.3g}")
    if not q > 0.0:
        raise InsufficientBlock("zero gain: no detections expected")
    return expectation


def expected_tallies(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
) -> tuple[TallySet, SourceSpec]:
    """Expected tallies for a block, plus the source after pre-attenuation.

    Sifting keeps the Z sample with probability ``q_z_tx * q_z_rx`` and
    the X sample with ``(1 - q_z_tx)(1 - q_z_rx)``; the pulse count is
    chosen so the Z sample hits the configured block size. Only SPS
    sources are accepted.
    """
    mean, g2, _, qber, n_s, n_x = _sps_point(source, channel, proto)
    n_z = proto.block_size
    tallies = TallySet(
        n_pulses_sent=n_s,
        z_detections=n_z,
        x_detections=n_x,
        z_errors=qber * n_z,
        x_errors=qber * n_x,
    )
    return tallies, SourceSpec(source.kind, mean, g2)


def sps_expected_rate(
    source: SourceSpec,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
) -> KeyReport:
    """Deterministic finite-key rate of the analytic expectation pipeline.

    With ``asymptotic=True`` the statistical deviations vanish and the
    per-pulse rate converges to its infinite-block limit while keeping
    misalignment, dark counts and error-correction overheads.
    """
    tallies, launched = expected_tallies(source, channel, proto)
    return sps_key_length(tallies, launched, proto, sec, asymptotic)


def _sps_lanes(
    n_mean,
    g2,
    q_z_tx,
    loss_db,
    channel: ChannelDetectorModel,
    proto: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
):
    """``sps_expected_rate(...).rate_per_pulse`` over broadcast lanes.

    Returns ``rates(pre_attenuation)``. Element i of
    ``rates(pre_attenuation)`` scores ``SourceSpec(SPS, n_mean[i], g2[i])``
    on ``replace(channel, channel_loss_db=loss_db[i])`` under
    ``replace(proto, q_z_tx=q_z_tx[i], pre_attenuation=pre_attenuation[i])``
    through the same ``_sps_expectation`` and ``_sps_key_lengths``, and is
    exactly 0 wherever the scalar path raises ``InsufficientBlock`` or
    ``NonPhysicalSource`` (``g2 <n> > 1``, ``p0 < 0``). Every term that
    does not depend on the pre-attenuation (source, detector yields,
    basis split) is derived once, so a search that scores many
    pre-attenuations per lane builds the lanes once.
    """
    n_mean, g2, q_z_tx, loss_db = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (n_mean, g2, q_z_tx, loss_db))
    )
    with np.errstate(all="ignore"):
        # sps_distribution, with the SourceSpec and distribution checks.
        p2 = g2 * n_mean * n_mean / 2.0
        p1_raw = n_mean - 2.0 * p2
        p0 = 1.0 - p1_raw - p2
        p1 = np.maximum(p1_raw, 0.0)
        # With g2 <n> <= 1, p2 <= 1 and p0 <= 1 always, and p1 > 1 forces
        # p0 < 0, so the lower bound is the only range check that can fail.
        lowest = np.minimum(np.minimum(p0, p1_raw), p2)
        lane_ok = (
            (n_mean > 0.0) & (g2 >= 0.0) & ~(g2 * n_mean > 1.0)
            & ~(lowest < -NORMALIZATION_TOL)
            & (0.0 < q_z_tx) & (q_z_tx < 1.0)
        )

    # Detector yields per distinct loss, from the scalar formulas.
    losses, index = np.unique(loss_db.ravel(), return_inverse=True)
    per_loss = []
    for loss in losses.tolist():
        eta = link_transmittance(replace(channel, channel_loss_db=loss))
        yields, error_yields = photon_yields(eta, channel, 2)
        per_loss.append(yields + error_yields)
    y0, y1, y2, e0, e1, e2 = (
        column[index].reshape(loss_db.shape)
        for column in np.array(per_loss).reshape(-1, 6).T
    )

    block = proto.block_size

    def rates(pre_attenuation) -> np.ndarray:
        t = np.asarray(pre_attenuation, dtype=float)
        # Points the scalar path rejects may produce inf or nan below; the
        # mask at the end sets them to 0.
        with np.errstate(all="ignore"):
            mean, g2_launched, q, qber, n_s, n_x = _sps_expectation(
                (p0, p1, p2), t, (y0, y1, y2), (e0, e1, e2), q_z_tx, proto
            )
            # The key length of the expected tallies and the launched source.
            report, insufficient = _sps_key_lengths(
                n_s,
                block,
                n_x,
                qber * block,
                qber * n_x,
                g2_launched * (mean * mean) / 2.0,
                q_z_tx,
                sec,
                asymptotic,
            )
        valid = (
            lane_ok
            & (0.0 < t) & (t <= 1.0)
            & (mean > 0.0) & ~(g2_launched * mean > 1.0)
            & (q > 0.0)
            & ~insufficient
        )
        return np.where(valid, report.rate_per_pulse, 0.0)

    return rates
