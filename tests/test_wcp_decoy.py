"""Decoy-state WCP comparator: bounds, modes and sanity limits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrates.asymptotic import wcp_asymptotic_rate
from keyrates.channel import ChannelDetectorModel, link_transmittance
from keyrates.finite_key import (
    DecoyInfeasible,
    ProtocolConfig,
    SecurityParams,
    WcpIntensities,
    wcp_asymptotic_practical_rate,
    wcp_finite_key_rate,
)
from keyrates.channel import dark_count_prob
from keyrates.finite_key.comparison import optimized_wcp_rate
from keyrates.finite_key.wcp import (
    CONCENTRATIONS,
    _wcp_expectation,
    _wcp_key_lengths,
    _wcp_lanes,
)

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-10 / 24, 1e-15, 1.16)
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
