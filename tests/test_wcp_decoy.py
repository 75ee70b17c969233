"""Decoy-state WCP comparator: bounds, modes and sanity limits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrates.asymptotic import wcp_asymptotic_rate
from keyrates.channel import ChannelDetectorModel, link_transmittance
from keyrates.channel import dark_count_prob
from keyrates.finite_key.comparison import optimized_wcp_rate
from keyrates.finite_key.core import (
    KeyReport,
    ProtocolConfig,
    SecurityParams,
    _chernoff,
    _float_or_numpy,
    _ops,
)
from keyrates.finite_key.wcp import (
    CONCENTRATIONS,
    WCP_CONCENTRATION_USES,
    DecoyInfeasible,
    WcpIntensities,
    _poisson_gains,
    _wcp_distil,
    _wcp_expectation,
    _wcp_key_lengths,
    _wcp_lanes,
    wcp_asymptotic_practical_rate,
    wcp_finite_key_rate,
)

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-15, 1.16)
PROTO = ProtocolConfig(q_z_tx=0.9, q_z_rx=0.5, block_size=1e8)
INTENSITIES = WcpIntensities(mu_signal=0.5, mu_decoy=0.15, p_signal=0.7, p_decoy=0.2)


def _field_lanes():
    """The WCP kernel at the field channel's loss."""
    loss = FIELD_CHANNEL.channel_loss_db
    return _wcp_lanes(loss, FIELD_CHANNEL, PROTO, FIELD_SEC, "hoeffding")


class TestIntensities:
    def test_vacuum_probability(self):
        assert INTENSITIES.p_vacuum == pytest.approx(0.1, abs=1e-15)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            WcpIntensities(mu_signal=0.1, mu_decoy=0.2, p_signal=0.5, p_decoy=0.3)

    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            WcpIntensities(mu_signal=0.5, mu_decoy=0.1, p_signal=0.8, p_decoy=0.3)

    # Each sum rounds to 1.0, but the vacuum probability as computed is
    # -6.9e-18 or -5.6e-17.
    @pytest.mark.parametrize("p_signal, p_decoy", [(0.9999999999999999, 1.18e-16), (0.8, 0.2)])
    def test_vacuum_probability_below_zero_is_rejected(self, p_signal, p_decoy):
        assert p_signal + p_decoy == 1.0 and 1.0 - p_signal - p_decoy < 0.0
        with pytest.raises(ValueError, match="sub-simplex"):
            WcpIntensities(mu_signal=0.5, mu_decoy=0.15, p_signal=p_signal, p_decoy=p_decoy)
        lanes = _field_lanes()
        assert lanes(0.5, 0.15, p_signal, p_decoy, PROTO.q_z_tx) == 0.0

    def test_vacuum_probability_of_exactly_zero_is_kept(self):
        intensities = WcpIntensities(mu_signal=0.5, mu_decoy=0.15, p_signal=0.8, p_decoy=1.0 - 0.8)
        assert intensities.p_vacuum == 0.0
        rate = wcp_finite_key_rate(intensities, FIELD_CHANNEL, PROTO, FIELD_SEC).rate_per_pulse
        lanes = _field_lanes()
        assert lanes(0.5, 0.15, 0.8, 1.0 - 0.8, PROTO.q_z_tx) == pytest.approx(rate, rel=1e-12)
        assert rate > 0.0


class TestAsymptoticMode:
    def test_unit_transmittance_ceiling(self):
        channel = ChannelDetectorModel(0.0, 1.0, 1.0, 43.0, 3.42e-9, 0.0254)
        rate = wcp_asymptotic_rate(link_transmittance(channel))
        assert rate == pytest.approx(1.0 / math.e, abs=1e-12)

    def test_ceiling_scales_with_link(self):
        eta = link_transmittance(FIELD_CHANNEL)
        assert wcp_asymptotic_rate(eta) == pytest.approx(eta / math.e, rel=1e-12)


class TestFiniteMode:
    def test_vacuum_only_emission_yields_nothing(self):
        vacuum_only = WcpIntensities(mu_signal=0.5, mu_decoy=0.15, p_signal=0.0, p_decoy=0.0)
        report = wcp_finite_key_rate(vacuum_only, FIELD_CHANNEL, PROTO, FIELD_SEC)
        assert report.rate_per_pulse == 0.0

    def test_tiny_block_is_infeasible(self):
        proto = replace(PROTO, block_size=1e3)
        with pytest.raises(DecoyInfeasible):
            wcp_finite_key_rate(INTENSITIES, FIELD_CHANNEL, proto, FIELD_SEC)

    def test_below_ideal_ceiling(self):
        eta = link_transmittance(FIELD_CHANNEL)
        report = wcp_finite_key_rate(INTENSITIES, FIELD_CHANNEL, PROTO, FIELD_SEC)
        assert 0.0 < report.rate_per_pulse < eta / math.e

    def test_chernoff_concentration_is_tighter(self):
        hoeffding = wcp_finite_key_rate(
            INTENSITIES, FIELD_CHANNEL, PROTO, FIELD_SEC, concentration="hoeffding"
        )
        chernoff = wcp_finite_key_rate(
            INTENSITIES, FIELD_CHANNEL, PROTO, FIELD_SEC, concentration="chernoff"
        )
        assert chernoff.rate_per_pulse > hoeffding.rate_per_pulse > 0.0

    def test_unknown_concentration_rejected(self):
        with pytest.raises(ValueError):
            wcp_finite_key_rate(INTENSITIES, FIELD_CHANNEL, PROTO, FIELD_SEC, concentration="exact")

    def test_rate_decreases_with_loss(self):
        rates = []
        for loss_db in (2.0, 8.0, 14.6, 20.0):
            channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
            rates.append(
                wcp_finite_key_rate(INTENSITIES, channel, PROTO, FIELD_SEC).rate_per_pulse
            )
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_block_growth_improves_rate(self):
        rates = []
        for block in (1e7, 1e8, 1e10):
            proto = replace(PROTO, block_size=block)
            rates.append(
                wcp_finite_key_rate(INTENSITIES, FIELD_CHANNEL, proto, FIELD_SEC).rate_per_pulse
            )
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestAsymptoticPractical:
    def test_below_ideal_ceiling_but_positive(self):
        eta = link_transmittance(FIELD_CHANNEL)
        rate = wcp_asymptotic_practical_rate(0.5, FIELD_CHANNEL, PROTO, FIELD_SEC)
        assert 0.0 < rate < eta / math.e

    def test_finite_rate_approaches_it(self):
        # With a huge block the finite pipeline should get within a
        # factor of order one of the perfect-estimation limit.
        proto = replace(PROTO, block_size=1e14)
        finite = wcp_finite_key_rate(INTENSITIES, FIELD_CHANNEL, proto, FIELD_SEC)
        best_asym = max(
            wcp_asymptotic_practical_rate(mu, FIELD_CHANNEL, PROTO, FIELD_SEC)
            for mu in (0.3, 0.5, 0.7, 0.9)
        )
        assert finite.rate_per_pulse < best_asym
        assert finite.rate_per_pulse > 0.5 * best_asym


def _scalar_rate(mu_s, mu_d, p_s, p_d, q_z_tx, channel, proto, sec, concentration):
    """Per-point rate, 0 wherever the scalar path raises."""
    try:
        intensities = WcpIntensities(mu_s, mu_d, p_s, p_d)
        cfg = replace(proto, q_z_tx=q_z_tx)
        return wcp_finite_key_rate(intensities, channel, cfg, sec, concentration).rate_per_pulse
    except ValueError:  # invalid intensities, DecoyInfeasible, math domain error
        return 0.0


_probability = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))
_point = st.tuples(
    st.floats(min_value=0.01, max_value=1.2),  # mu_signal
    st.floats(min_value=0.01, max_value=1.2),  # mu_decoy, either side of mu_signal
    _probability,  # p_signal
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.1)),  # decoy share of the rest
    st.floats(min_value=0.05, max_value=0.99),  # q_z_tx
)


@settings(max_examples=150, deadline=None)
@given(
    concentration=st.sampled_from(CONCENTRATIONS),
    loss_db=st.floats(min_value=0.0, max_value=35.0),
    dark_count_rate=st.sampled_from([0.0, 43.0, 4.3e4]),
    log_block=st.floats(min_value=3.0, max_value=12.0),
    log_eps_pe=st.floats(min_value=-12.0, max_value=-0.3),
    points=st.lists(_point, min_size=1, max_size=8),
)
def test_kernel_matches_scalar_path(
    concentration, loss_db, dark_count_rate, log_block, log_eps_pe, points
):
    # The kernel and the scalar path evaluate the same expressions, but
    # NumPy's exp and log may differ from libm's in the last bit, and
    # near-zero rates lose digits to cancellation; the coherent-light
    # ceiling eta / e sets the scale of the tolerance.
    channel = replace(
        FIELD_CHANNEL, channel_loss_db=loss_db, dark_count_rate_cps=dark_count_rate
    )
    proto = replace(PROTO, block_size=10.0**log_block)
    sec = replace(FIELD_SEC, eps_pe=10.0**log_eps_pe)
    columns = [
        (mu_s, mu_d, p_s, (1.0 - p_s) * share, q)
        for mu_s, mu_d, p_s, share, q in points
    ]
    kernel = _wcp_lanes(loss_db, channel, proto, sec, concentration)(*zip(*columns))
    tolerance = 1e-10 * link_transmittance(channel) / math.e
    for point, got in zip(columns, kernel):
        expected = _scalar_rate(*point, channel, proto, sec, concentration)
        assert (got == 0.0) == (expected == 0.0), point
        assert abs(got - expected) <= tolerance, point


@pytest.mark.parametrize("concentration", CONCENTRATIONS)
def test_key_lengths_take_array_tallies_beside_scalar_parameters(concentration):
    # Sampled tallies arrive as arrays while the intensities, the pulse
    # count and the photon-number weights stay scalars.
    mus = (INTENSITIES.mu_signal, INTENSITIES.mu_decoy, 0.0)
    probs = (INTENSITIES.p_signal, INTENSITIES.p_decoy, INTENSITIES.p_vacuum)
    n_s, tau0, tau1, *tallies = _wcp_expectation(
        mus, probs, PROTO.q_z_tx, link_transmittance(FIELD_CHANNEL),
        dark_count_prob(FIELD_CHANNEL), FIELD_CHANNEL.misalignment_prob, PROTO,
    )
    fixed = (mus, probs, tau0, tau1, PROTO.block_size, FIELD_SEC, concentration)
    point, *point_masks = _wcp_key_lengths(n_s, *tallies, *fixed)
    arrays = [[np.full(3, count) for count in counts] for counts in tallies]
    batch, *batch_masks = _wcp_key_lengths(n_s, *arrays, *fixed)
    assert point.rate_per_pulse > 0.0 and not any(point_masks)
    assert batch.key_length.tolist() == pytest.approx([point.key_length] * 3, rel=1e-12)
    assert not any(mask.any() for mask in batch_masks)


def _as_numpy_scalars(params):
    """``params`` with every field passed in as a NumPy float64."""
    return replace(params, **{name: np.float64(v) for name, v in vars(params).items()})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "loss_db, intensities",
    [
        (14.6, INTENSITIES),
        # A decoy at 2 % of the signal: the float path fails on a
        # discarded branch and reruns on NumPy scalars.
        (0.0, WcpIntensities(0.5, 0.01, 0.9, 0.07)),
    ],
)
def test_numpy_scalar_inputs_give_the_float_result_silently(loss_db, intensities):
    channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
    expected = wcp_finite_key_rate(intensities, channel, PROTO, FIELD_SEC)
    got = wcp_finite_key_rate(*map(_as_numpy_scalars, (intensities, channel, PROTO, FIELD_SEC)))
    assert got.key_length == expected.key_length
    assert got.rate_per_pulse == expected.rate_per_pulse


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [0, 3, 39])
def test_tuned_rate_over_numpy_dark_counts_matches_floats(index):
    dark_count_rate = np.linspace(0.0, 5e4, 40)[index]
    channel = replace(FIELD_CHANNEL, channel_loss_db=30.0)
    got = optimized_wcp_rate(replace(channel, dark_count_rate_cps=dark_count_rate), PROTO, FIELD_SEC)
    expected = optimized_wcp_rate(
        replace(channel, dark_count_rate_cps=float(dark_count_rate)), PROTO, FIELD_SEC
    )
    assert got[0] == expected[0]


def _all_bounds_expectation(mus, probs, q_z_tx, eta, p_dc, p_mis, proto):
    """Reference ``_wcp_expectation`` writing each tally's product out in full."""
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
    for p, (gain, error_gain) in zip(probs, gains):
        n_zk.append(n_s * q_sift_z * p * gain)
        n_xk.append(n_s * q_sift_x * p * gain)
        m_zk.append(n_s * q_sift_z * p * error_gain)
        m_xk.append(n_s * q_sift_x * p * error_gain)
    return n_s, tau0, tau1, n_zk, n_xk, m_zk, m_xk


def _all_bounds_yield_floor(lo, up, tau0, tau1, mu_s, mu_d):
    s0 = tau0 * lo[2]
    s1 = (
        tau1
        * mu_s
        * (lo[1] - up[2] - (mu_d * mu_d / (mu_s * mu_s)) * (up[0] - s0 / tau0))
        / (mu_s * mu_d - mu_d * mu_d)
    )
    return s0, s1


def _all_bounds_key_lengths(
    n_s, n_zk, n_xk, m_zk, m_xk, mus, probs, tau0, tau1, n_z, sec, concentration
):
    """Reference ``_wcp_key_lengths`` building all 18 rescaled bounds: the
    lower and upper bound of each intensity's Z counts, X counts and X
    error counts, of which the key length reads 9."""
    ops = _ops(n_s, tau0, tau1, n_z, *n_zk, *n_xk, *m_zk, *m_xk, *mus, *probs)
    mu_s, mu_d = mus[0], mus[1]
    eps_1 = sec.eps_pe / WCP_CONCENTRATION_USES
    beta = math.log(1.0 / eps_1)
    scales = [(p > 0.0, ops.exp(mu) / p) for mu, p in zip(mus, probs)]

    def bounds(counts, basis_total):
        hoeffding = concentration == "hoeffding"
        delta = ops.sqrt(0.5 * basis_total * beta) if hoeffding else None
        lower, upper = [], []
        for (sent, scale), n in zip(scales, counts):
            if hoeffding:
                lo, up = ops.maximum(0.0, n - delta), n + delta
            else:
                lo, up = _chernoff(n, beta, "lower", ops), _chernoff(n, beta, "upper", ops)
            lower.append(ops.where(sent, scale * lo, 0.0))
            upper.append(ops.where(sent, scale * up, 0.0))
        return lower, upper

    n_z_total = sum(n_zk)
    no_gain = ops.where(n_z_total > 0.0, False, True)
    s_z0, s_z1 = _all_bounds_yield_floor(*bounds(n_zk, n_z_total), tau0, tau1, mu_s, mu_d)
    _, s_x1 = _all_bounds_yield_floor(*bounds(n_xk, sum(n_xk)), tau0, tau1, mu_s, mu_d)
    infeasible = (probs[0] > 0) & (probs[1] > 0) & (s_z1 < 0)
    s_z1 = ops.maximum(0.0, s_z1)
    s_x1 = ops.maximum(0.0, s_x1)
    _, m_up = bounds(m_xk, sum(n_xk))
    v_x1 = tau1 * m_up[1] / mu_d

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

    qber_z = sum(m_zk) / n_z
    lambda_ec = sec.f_ec * n_z * ops.entropy(qber_z)
    key_length = ops.maximum(
        0.0,
        s_z0
        + s_z1 * (1.0 - ops.entropy(phase_error))
        - lambda_ec
        - 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
        - math.log2(2.0 / sec.eps_cor),
    )
    report = KeyReport(
        key_length, key_length / n_s, n_s, n_z - s_z0 - s_z1, s_z0 + s_z1,
        phase_error, lambda_ec, qber_z,
    )
    return report, no_gain, infeasible, corrected & (log_arg < 1.0)


def _all_bounds_distil(mu_s, mu_d, p_s, p_d, q_z_tx, eta, channel, proto, sec, concentration):
    """``_wcp_distil`` on the reference expectation and key length."""
    mus = (mu_s, mu_d, 0.0)
    probs = (p_s, p_d, 1.0 - p_s - p_d)
    n_s, tau0, tau1, *tallies = _all_bounds_expectation(
        mus, probs, q_z_tx, eta, dark_count_prob(channel), channel.misalignment_prob, proto
    )
    return _all_bounds_key_lengths(
        n_s, *tallies, mus, probs, tau0, tau1, proto.block_size, sec, concentration
    )


def _same_bits(a, b):
    """``a == b`` down to the bit: NaN matches NaN, and the sign of 0 counts."""
    a_bits, b_bits = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return type(a) is type(b) and a_bits.shape == b_bits.shape and a_bits.tobytes() == b_bits.tobytes()


def _assert_same_distillation(got, expected):
    (report, *masks), (reference, *reference_masks) = got, expected
    for name in KeyReport.__dataclass_fields__:
        assert _same_bits(getattr(report, name), getattr(reference, name)), name
    for mask, reference_mask in zip(masks, reference_masks, strict=True):
        assert _same_bits(mask, reference_mask)


# A point of the distiller: mu_signal and mu_decoy either way round, a
# signal probability that may be 0, the decoy share of the rest, 0 (no
# decoy) or exactly 1 (p_vacuum is then exactly 0), and q_z_tx.
_distil_point = st.tuples(
    st.floats(min_value=0.01, max_value=1.2),
    st.floats(min_value=0.01, max_value=1.2),
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.999)),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=1e-3, max_value=0.999)),
    st.floats(min_value=0.05, max_value=0.99),
)


@settings(max_examples=200, deadline=None)
@given(
    concentration=st.sampled_from(CONCENTRATIONS),
    loss_db=st.floats(min_value=0.0, max_value=45.0),
    dark_count_rate=st.sampled_from([0.0, 43.0, 4.3e4]),
    log_block=st.floats(min_value=4.0, max_value=13.0),
    points=st.lists(_distil_point, min_size=1, max_size=6),
)
@example("hoeffding", 14.6, 43.0, 8.0, [(0.5, 0.15, 0.7, 0.0, 0.9), (0.5, 0.15, 0.7, 1.0, 0.9)])
@example("chernoff", 14.6, 43.0, 8.0, [(0.5, 0.15, 0.7, 0.0, 0.9), (0.5, 0.15, 0.7, 1.0, 0.9)])
def test_distiller_reads_the_same_bits_as_the_all_bounds_reference(
    concentration, loss_db, dark_count_rate, log_block, points
):
    # On floats each point runs through ``_float_or_numpy``, so a point
    # never sent at some intensity reruns on NumPy in both distillers.
    channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db, dark_count_rate_cps=dark_count_rate)
    proto = replace(PROTO, block_size=10.0**log_block)
    eta = link_transmittance(channel)
    fixed = (channel, proto, FIELD_SEC, concentration)
    rows = [(mu_s, mu_d, p_s, (1.0 - p_s) * share, q) for mu_s, mu_d, p_s, share, q in points]
    for row in rows:
        args = (*row, eta, *fixed)
        _assert_same_distillation(
            _float_or_numpy(_wcp_distil, args), _float_or_numpy(_all_bounds_distil, args)
        )
    columns = [np.array(column) for column in zip(*rows)]
    etas = np.full(len(rows), eta)
    with np.errstate(all="ignore"):
        _assert_same_distillation(
            _wcp_distil(*columns, etas, *fixed), _all_bounds_distil(*columns, etas, *fixed)
        )
