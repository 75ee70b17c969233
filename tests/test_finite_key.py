"""Finite-key distillation: entropy, concentration bounds, key lengths."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrates.channel import ChannelDetectorModel, link_transmittance
from keyrates.finite_key.comparison import Q_TX_GRID
from keyrates.finite_key.core import (
    SPS_CHERNOFF_USES,
    DomainError,
    InsufficientBlock,
    ProtocolConfig,
    SecurityParams,
    TallySet,
    _sps_key_lengths,
    _sps_lanes,
    binary_entropy,
    chernoff_bound,
    expected_tallies,
    sps_expected_rate,
    sps_key_length,
)
from keyrates.finite_key.wcp import WCP_CONCENTRATION_USES
from keyrates.photon_source import NonPhysicalSource, SourceKind, SourceSpec, UndefinedG2

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(
    eps_pe=11e-10 / 12,
    eps_pa=1e-10 / 24,
    eps_ec=1e-10 / 24,
    eps_cor=1e-15,
    f_ec=1.16,
)
FIELD_PROTO = ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e8)
FIELD_SOURCE = SourceSpec(SourceKind.SPS, 0.292, 0.00698)


def _as_numpy_scalars(params):
    """``params`` with every field passed in as a NumPy float64."""
    return replace(params, **{name: np.float64(v) for name, v in vars(params).items()})


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_edges_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_misalignment_value(self):
        assert binary_entropy(0.0254) == pytest.approx(0.17077, abs=5e-6)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            binary_entropy(p)


class TestChernoffBound:
    def test_eps_one_collapses(self):
        assert chernoff_bound(123.0, 1.0, "upper") == 123.0
        assert chernoff_bound(123.0, 1.0, "lower") == 123.0

    def test_zero_count_upper_is_two_beta(self):
        eps = 1e-6
        beta = math.log(1.0 / eps)
        assert chernoff_bound(0.0, eps, "upper") == pytest.approx(2.0 * beta, rel=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            chernoff_bound(1.0, 0.5, "sideways")

    @given(
        st.floats(min_value=0.0, max_value=1e12),
        st.floats(min_value=1e-15, max_value=1.0),
    )
    def test_ordering(self, x, eps):
        lower = chernoff_bound(x, eps, "lower")
        upper = chernoff_bound(x, eps, "upper")
        assert 0.0 <= lower <= x <= upper


class TestSpsKeyLength:
    def test_perfect_source_reduces_to_constants(self):
        # p2 = 0 and zero observed errors leave only the privacy
        # amplification and correctness terms.
        sec = FIELD_SEC
        tallies = TallySet(
            n_pulses_sent=1e6,
            z_detections=4e5,
            x_detections=5e3,
            z_errors=0.0,
            x_errors=0.0,
        )
        source = SourceSpec(SourceKind.SPS, 0.9, 0.0)
        report = sps_key_length(tallies, source, FIELD_PROTO, sec)
        expected = (
            tallies.z_detections
            - 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
            - math.log2(2.0 / sec.eps_cor)
        )
        assert report.key_length == expected
        assert report.multi_photon_cap == 0.0
        assert report.phase_error_bound == 0.0
        assert report.lambda_ec == 0.0

    def test_empty_block_clamps_to_zero(self):
        tallies = TallySet(1e6, 0.0, 0.0, 0.0, 0.0)
        report = sps_key_length(tallies, SourceSpec(SourceKind.SPS, 0.9, 0.0), FIELD_PROTO, FIELD_SEC)
        assert report.key_length == 0.0
        assert report.rate_per_pulse == 0.0

    @pytest.mark.parametrize("asymptotic", [False, True])
    def test_empty_z_block_beside_x_detections_has_no_key(self, asymptotic):
        # Zero Z detections and no multi-photon cap: there is no Z block
        # to carry the X-basis phase error onto, so no key and no raise.
        tallies = TallySet(1e6, 0.0, 5.0, 0.0, 1.0)
        source = SourceSpec(SourceKind.SPS, 0.9, 0.0)
        report = sps_key_length(tallies, source, FIELD_PROTO, FIELD_SEC, asymptotic)
        assert report.key_length == 0.0
        assert report.phase_error_bound == 0.5
        with np.errstate(all="ignore"):
            batch, insufficient = _sps_key_lengths(
                1e6, *np.array([[0.0], [5.0], [0.0], [1.0]]), 0.0,
                FIELD_PROTO.q_z_tx, FIELD_SEC, asymptotic,
            )
        assert batch.key_length.tolist() == [0.0]
        assert insufficient.tolist() == [False]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("numpy_sec_only", [False, True])
    @pytest.mark.parametrize(
        "tallies, g2",
        [
            (TallySet(1e6, 1e4, 1e2, 1e2, 1e0), 0.01),
            # No X block beyond a zero cap: the float path divides by
            # zero on a discarded branch and reruns on NumPy.
            (TallySet(1e6, 1e4, 0.0, 1e2, 0.0), 0.0),
            # No pulses: the rate divides by zero.
            (TallySet(0.0, 0.0, 0.0, 0.0, 0.0), 0.0),
        ],
    )
    def test_numpy_scalar_inputs_give_the_float_result_silently(self, tallies, g2, numpy_sec_only):
        source = SourceSpec(SourceKind.SPS, 0.9, g2)
        expected = sps_key_length(tallies, source, FIELD_PROTO, FIELD_SEC)
        if not numpy_sec_only:
            tallies = TallySet(
                np.float64(tallies.n_pulses_sent), *map(np.int64, astuple(tallies)[1:])
            )
            source = SourceSpec(SourceKind.SPS, np.float64(0.9), np.float64(g2))
        proto = FIELD_PROTO if numpy_sec_only else _as_numpy_scalars(FIELD_PROTO)
        got = sps_key_length(tallies, source, proto, _as_numpy_scalars(FIELD_SEC))
        assert got.key_length == expected.key_length
        assert got.rate_per_pulse == expected.rate_per_pulse

    def test_multi_photon_cap_exhausts_block(self):
        tallies = TallySet(1e12, 1e4, 1e2, 1e2, 1e0)
        source = SourceSpec(SourceKind.SPS, 0.5, 0.5)
        with pytest.raises(InsufficientBlock):
            sps_key_length(tallies, source, FIELD_PROTO, FIELD_SEC)

    def test_wcp_source_rejected(self):
        tallies = TallySet(1e6, 1e4, 1e2, 1e2, 1e0)
        with pytest.raises(ValueError):
            sps_key_length(tallies, SourceSpec(SourceKind.WCP, 0.5), FIELD_PROTO, FIELD_SEC)


class TestSpsExpectedRate:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("detection_efficiency", [0.712, 0.0])
    def test_numpy_scalar_expectation_gives_the_float_result_silently(self, detection_efficiency):
        # Without detections the float expectation divides by zero.
        channel = replace(
            FIELD_CHANNEL, detection_efficiency=detection_efficiency, dark_count_rate_cps=0.0
        )

        def outcome(*params):
            try:
                return sps_expected_rate(*params).rate_per_pulse
            except InsufficientBlock as exc:
                return str(exc)

        expected = outcome(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC)
        numpy_source = SourceSpec(SourceKind.SPS, *map(np.float64, (0.292, 0.00698)))
        numpy_params = map(_as_numpy_scalars, (channel, FIELD_PROTO, FIELD_SEC))
        assert outcome(numpy_source, *numpy_params) == expected

    def test_array_distiller_gives_the_scalar_multi_photon_cap(self):
        # Both paths take the launched p2 as g2 * (<n> * <n>) / 2. At this
        # <n>, libm's <n>**2 differs from <n> * <n> in the last bit.
        source = SourceSpec(SourceKind.SPS, 0.0397, 0.138)
        expected = sps_expected_rate(source, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        tallies, launched = expected_tallies(source, FIELD_CHANNEL, FIELD_PROTO)
        mean = np.array([launched.mean_photon_number])
        with np.errstate(all="ignore"):
            report, _ = _sps_key_lengths(
                *(np.array([count]) for count in astuple(tallies)),
                launched.g2 * (mean * mean) / 2.0,
                FIELD_PROTO.q_z_tx,
                FIELD_SEC,
            )
        assert report.multi_photon_cap[0] == expected.multi_photon_cap

    def test_field_configuration(self):
        report = sps_expected_rate(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert report.rate_per_pulse == pytest.approx(1.08e-3, rel=0.25)

    def test_laboratory_series_decreasing_and_in_band(self):
        targets = {0.17: 5.65e-2, 5.11: 1.69e-2, 10.15: 4.34e-3, 15.16: 1.08e-3}
        rates = []
        for loss_db, target in targets.items():
            channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
            rate = sps_expected_rate(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC).rate_per_pulse
            assert rate == pytest.approx(target, rel=0.5)
            rates.append(rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rate_decreases_with_g2(self):
        # Beyond the feasible corner the multi-photon cap floors the
        # rate at zero; treat that as zero in the ladder.
        rates = []
        for g2 in (0.0, 0.003, 0.01, 0.03, 0.1):
            source = SourceSpec(SourceKind.SPS, 0.292, g2)
            try:
                rate = sps_expected_rate(
                    source, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC
                ).rate_per_pulse
            except InsufficientBlock:
                rate = 0.0
            rates.append(rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > rates[-1]

    def test_rate_decreases_with_misalignment(self):
        rates = []
        for p_mis in (0.005, 0.0254, 0.04):
            channel = replace(FIELD_CHANNEL, misalignment_prob=p_mis)
            rates.append(
                sps_expected_rate(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC).rate_per_pulse
            )
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.0

    def test_rate_decreases_with_loss(self):
        rates = []
        for loss_db in (1.0, 5.0, 10.0, 15.0, 18.0):
            channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
            rates.append(
                sps_expected_rate(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC).rate_per_pulse
            )
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_block_size_convergence_from_below(self):
        asymptotic = sps_expected_rate(
            FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, asymptotic=True
        ).rate_per_pulse
        rates = []
        for block in (1e6, 1e7, 1e8, 1e10, 1e12, 1e14):
            proto = replace(FIELD_PROTO, block_size=block)
            rates.append(
                sps_expected_rate(FIELD_SOURCE, FIELD_CHANNEL, proto, FIELD_SEC).rate_per_pulse
            )
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(rate < asymptotic for rate in rates)
        assert rates[-1] == pytest.approx(asymptotic, rel=1e-2)

    def test_pre_attenuation_thins_the_source(self):
        proto = replace(FIELD_PROTO, pre_attenuation=0.5)
        tallies, launched = expected_tallies(FIELD_SOURCE, FIELD_CHANNEL, proto)
        assert launched.mean_photon_number == pytest.approx(0.146, abs=1e-12)
        assert launched.g2 == pytest.approx(0.00698, rel=1e-9)
        assert tallies.z_detections == FIELD_PROTO.block_size

    @pytest.mark.parametrize(
        "source, channel, proto, error",
        [
            # The launched mean, or its square, underflows to zero.
            (
                SourceSpec(SourceKind.SPS, 1e-300, 0.0),
                FIELD_CHANNEL,
                replace(FIELD_PROTO, pre_attenuation=1e-30),
                UndefinedG2,
            ),
            (SourceSpec(SourceKind.SPS, 1e-300, 0.0), FIELD_CHANNEL, FIELD_PROTO, UndefinedG2),
            # A blind detector without dark counts never clicks.
            (
                FIELD_SOURCE,
                replace(FIELD_CHANNEL, detection_efficiency=0.0, dark_count_rate_cps=0.0),
                FIELD_PROTO,
                InsufficientBlock,
            ),
            (SourceSpec(SourceKind.WCP, 0.5), FIELD_CHANNEL, FIELD_PROTO, ValueError),
        ],
    )
    def test_degenerate_expectation_raises_named_error(self, source, channel, proto, error):
        with pytest.raises(ValueError) as excinfo:
            expected_tallies(source, channel, proto)
        assert excinfo.type is error


class TestEpsilonBudget:
    def test_sps_split_consumes_exactly_eps_pe(self):
        per_use = FIELD_SEC.eps_pe / SPS_CHERNOFF_USES
        assert per_use * SPS_CHERNOFF_USES == pytest.approx(FIELD_SEC.eps_pe, rel=1e-15)

    def test_wcp_split_consumes_exactly_eps_pe(self):
        per_use = FIELD_SEC.eps_pe / WCP_CONCENTRATION_USES
        assert per_use * WCP_CONCENTRATION_USES == pytest.approx(
            FIELD_SEC.eps_pe, rel=1e-15
        )
        # Table partition: eleven draws at (1e-10)/12 each.
        assert per_use == pytest.approx(1e-10 / 12.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e6, max_value=1e9), st.floats(min_value=0.0, max_value=0.05))
def test_rate_and_length_are_clamped(block, g2):
    source = SourceSpec(SourceKind.SPS, 0.292, g2)
    proto = replace(FIELD_PROTO, block_size=block)
    try:
        report = sps_expected_rate(source, FIELD_CHANNEL, proto, FIELD_SEC)
    except InsufficientBlock:
        return
    assert report.key_length >= 0.0
    assert 0.0 <= report.rate_per_pulse <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    n_mean=st.floats(min_value=0.02, max_value=1.0),
    g2_share=st.floats(min_value=0.0, max_value=1.0),
    q_z_tx=st.sampled_from(Q_TX_GRID),
    pre_attenuation=st.floats(min_value=1e-3, max_value=1.0),
    loss_db=st.floats(min_value=0.0, max_value=40.0),
    dark_count_rate=st.sampled_from([0.0, 43.0, 4.3e4]),
)
def test_finite_rate_rises_with_block_below_asymptotic(
    n_mean, g2_share, q_z_tx, pre_attenuation, loss_db, dark_count_rate
):
    source = SourceSpec(SourceKind.SPS, n_mean, g2_share * min(0.3, 1.0 / n_mean))
    channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db, dark_count_rate_cps=dark_count_rate)

    def rate(block_size, asymptotic):
        proto = replace(
            FIELD_PROTO, q_z_tx=q_z_tx, pre_attenuation=pre_attenuation, block_size=block_size
        )
        try:
            return sps_expected_rate(
                source, channel, proto, FIELD_SEC, asymptotic=asymptotic
            ).rate_per_pulse
        except InsufficientBlock:
            return 0.0

    blocks = (1e6, 1e8, 1e10, 1e12)
    finite = [rate(block, False) for block in blocks]
    assert all(a <= b for a, b in zip(finite, finite[1:]))
    assert all(f <= rate(block, True) for f, block in zip(finite, blocks))


def _scalar_sps_rate(n_mean, g2, q_z_tx, pre_attenuation, channel):
    try:
        source = SourceSpec(SourceKind.SPS, n_mean, g2)
        proto = replace(FIELD_PROTO, q_z_tx=q_z_tx, pre_attenuation=pre_attenuation)
        return sps_expected_rate(source, channel, proto, FIELD_SEC).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource, UndefinedG2):
        return 0.0


_sps_point = st.tuples(
    st.floats(min_value=1e-6, max_value=1.5),  # <n>
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),  # g2 * <n>
    st.sampled_from(Q_TX_GRID),
    st.one_of(st.just(1.0), st.floats(min_value=1e-4, max_value=1.0)),  # pre-attenuation
    st.floats(min_value=0.0, max_value=60.0),  # channel loss in dB
)


@settings(max_examples=150, deadline=None)
@given(
    dark_count_rate=st.sampled_from([0.0, 43.0, 4.3e4]),
    points=st.lists(_sps_point, min_size=1, max_size=8),
)
# Random draws rarely reach p0 < 0 with a positive attenuated rate
# (<n> = 1.2, g2 = 0.2 at t = 0.1), which the scalar path rejects.
@example(
    dark_count_rate=43.0,
    points=[(1.2, 0.24, 0.9, 0.1, 0.0), (1.2, 0.24, 0.9, 1.0, 0.0), (0.3, 0.1, 0.9, 0.5, 10.0)],
)
@example(dark_count_rate=0.0, points=[(1.2, 0.24, 0.9, 0.1, 0.0)])
# <n> = 1e-200 squares to 0: both paths score the undefined launched g2 as 0.
@example(dark_count_rate=43.0, points=[(1e-200, 3e-201, 0.9, 1.0, 0.0)])
def test_sps_kernel_matches_scalar_path(dark_count_rate, points):
    # Same expressions in the same order; NumPy's log2 may differ from
    # libm's in the last bit, and near-zero rates lose digits to
    # cancellation, so the tolerance is scaled by the coherent-light
    # ceiling eta / e.
    channel = replace(FIELD_CHANNEL, dark_count_rate_cps=dark_count_rate)
    columns = [(n, share / n, q, t, loss) for n, share, q, t, loss in points]
    n_col, g2_col, q_col, t_col, loss_col = zip(*columns)
    lanes = _sps_lanes(n_col, g2_col, q_col, loss_col, channel, FIELD_PROTO, FIELD_SEC)
    kernel = lanes(t_col)
    for (n, g2, q, t, loss), got in zip(columns, kernel):
        link = replace(channel, channel_loss_db=loss)
        expected = _scalar_sps_rate(n, g2, q, t, link)
        assert (got == 0.0) == (expected == 0.0), (n, g2, q, t, loss)
        assert abs(got - expected) <= 1e-10 * link_transmittance(link) / math.e
