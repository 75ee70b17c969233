"""Tuned SPS-versus-WCP comparison, sweeps and break-even boundaries."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrates.asymptotic import EmptyCurve
from keyrates.channel import ChannelDetectorModel
from keyrates.finite_key import (
    InsufficientBlock,
    NoCrossover,
    ProtocolConfig,
    SecurityParams,
    WcpIntensities,
    compare,
    finite_boundary,
    optimized_sps_rate,
    optimized_wcp_rate,
    sps_expected_rate,
    sweep_rates,
    wcp_finite_key_rate,
)
from keyrates.finite_key.comparison import (
    CROSSOVER_SCAN_MAX_DB,
    Q_TX_GRID,
    WCP_MU_DECOY_GRID,
    WCP_MU_SIGNAL_GRID,
    WCP_P_DECOY_SHARE_GRID,
    WCP_P_SIGNAL_GRID,
    WCP_RECEIVER_Z_RATIO,
    _golden_max,
    _tune_sps,
    _tune_wcp,
    advantage_db,
)
from keyrates.finite_key import comparison
from keyrates.photon_source import NonPhysicalSource, SourceKind, SourceSpec

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-10 / 24, 1e-15, 1.16)
FIELD_PROTO = ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e8)
FIELD_SOURCE = SourceSpec(SourceKind.SPS, 0.292, 0.00698)


class TestAdvantageDb:
    def test_identical_rates_give_zero(self):
        assert advantage_db(1.23e-3, 1.23e-3) == 0.0

    def test_signed_infinities(self):
        assert advantage_db(1e-3, 0.0) == float("inf")
        assert advantage_db(0.0, 1e-3) == float("-inf")
        assert advantage_db(0.0, 0.0) == 0.0


class TestOptimizedRates:
    def test_sps_beats_configured_point(self):
        configured = sps_expected_rate(
            FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC
        ).rate_per_pulse
        best, best_proto = optimized_sps_rate(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert best >= configured
        assert 0.5 <= best_proto.q_z_tx <= 0.99
        assert 0.0 < best_proto.pre_attenuation <= 1.0

    def test_optimum_is_achievable(self):
        best, best_proto = optimized_sps_rate(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        replayed = sps_expected_rate(FIELD_SOURCE, FIELD_CHANNEL, best_proto, FIELD_SEC)
        assert replayed.rate_per_pulse == pytest.approx(best, rel=1e-12)

    def test_wcp_optimum_reproducible(self):
        rate1, ints1, proto1 = optimized_wcp_rate(FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        rate2, ints2, proto2 = optimized_wcp_rate(FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert rate1 == rate2
        assert ints1 == ints2
        assert proto1 == proto2

    def test_wcp_comparator_uses_balanced_receiver(self):
        _, _, proto = optimized_wcp_rate(FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert proto.q_z_rx == 0.5

    @pytest.mark.parametrize("concentration", ["hoeffding", "chernoff"])
    # At 50 dB every grid point scores 0 and the first one must win.
    @pytest.mark.parametrize("loss_db", [0.0, 14.6, 30.0, 50.0])
    def test_wcp_grid_kernel_picks_the_scalar_scan_point(self, loss_db, concentration):
        channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
        tuned = optimized_wcp_rate(channel, FIELD_PROTO, FIELD_SEC, concentration=concentration)
        reference = _scalar_wcp_tuner(channel, FIELD_PROTO, FIELD_SEC, concentration)
        assert tuned == reference


    @pytest.mark.parametrize("asymptotic", [False, True])
    # At 50 dB every candidate scores 0 and the first one must win.
    @pytest.mark.parametrize("loss_db", [0.0, 14.6, 30.0, 50.0])
    def test_sps_lane_tuner_picks_the_scalar_scan_point(self, loss_db, asymptotic):
        channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
        rate, proto = optimized_sps_rate(
            FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC, asymptotic=asymptotic
        )
        reference = _scalar_sps_tuner(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC, asymptotic)
        assert (rate, proto.q_z_tx, proto.pre_attenuation) == reference

    def test_sweep_tunes_each_loss_like_a_single_lane(self):
        losses = [0.0, 14.6, 30.0, 50.0]
        rows = sweep_rates(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, losses)
        single = [
            optimized_sps_rate(
                FIELD_SOURCE, replace(FIELD_CHANNEL, channel_loss_db=loss), FIELD_PROTO, FIELD_SEC
            )[0]
            for loss in losses
        ]
        assert [row[1] for row in rows] == single

    @pytest.mark.parametrize("concentration", ["hoeffding", "chernoff"])
    def test_wcp_lane_tuner_matches_single_loss_tuner(self, concentration):
        # At 50 dB every grid point scores 0 and the first one must win.
        losses = [0.0, 14.6, 30.0, 50.0]
        with _scored_wcp_points() as points:
            tuned = _tune_wcp(losses, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, concentration)
            assert tuned == _single_loss_wcp(FIELD_CHANNEL, FIELD_PROTO, losses, concentration)
        assert tuned[-1][0] == 0.0 and tuned[0][0] > 0.0
        _assert_valid_wcp_points(points["float"])
        _assert_valid_wcp_points(points["lanes"])

    def test_sps_tuner_rejects_wcp_source(self):
        with pytest.raises(ValueError):
            optimized_sps_rate(
                SourceSpec(SourceKind.WCP, 0.5), FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC
            )


@contextmanager
def _scored_wcp_points():
    """Record every ``(mu_s, mu_d, p_s, p_d)`` the WCP tuners score, as
    ``{"float": [...], "lanes": [...]}``: the points of the float scorer
    and the arguments of each lane scorer call."""
    points = {"float": [], "lanes": []}
    float_score, lane_scorer = comparison._wcp_rate_or_zero, comparison._wcp_lanes

    def recorded_float_score(mu_s, mu_d, p_s, p_d, *rest):
        points["float"].append((mu_s, mu_d, p_s, p_d))
        return float_score(mu_s, mu_d, p_s, p_d, *rest)

    def recorded_lane_scorer(*args):
        lanes = lane_scorer(*args)

        def rates(mu_s, mu_d, p_s, p_d, q_z_tx):
            points["lanes"].append((mu_s, mu_d, p_s, p_d))
            return lanes(mu_s, mu_d, p_s, p_d, q_z_tx)

        return rates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comparison, "_wcp_rate_or_zero", recorded_float_score)
        patch.setattr(comparison, "_wcp_lanes", recorded_lane_scorer)
        yield points


def _assert_valid_wcp_points(points):
    """Every point, float or lanes, has 0 < mu_d < mu_s, 0 < p_s < 1 and 0 < p_d < 1 - p_s."""
    assert points
    for mu_s, mu_d, p_s, p_d in points:
        assert np.all((0.0 < mu_d) & (mu_d < mu_s) & (0.0 < p_s) & (p_s < 1.0))
        assert np.all((0.0 < p_d) & (p_d < 1.0 - p_s))


def _single_loss_wcp(channel, proto, losses, concentration):
    """``(rate, intensities, q_z_tx)`` of one float ``optimized_wcp_rate`` call per loss."""
    tuned = []
    for loss in losses:
        ch = replace(channel, channel_loss_db=loss)
        rate, intensities, cfg = optimized_wcp_rate(ch, proto, FIELD_SEC, False, concentration)
        tuned.append((rate, intensities, cfg.q_z_tx))
    return tuned


@settings(max_examples=12, deadline=None)
@given(
    concentration=st.sampled_from(["hoeffding", "chernoff"]),
    dark_count_rate=st.floats(min_value=0.0, max_value=4.3e4),
    misalignment=st.floats(min_value=0.0, max_value=0.05),
    log_block=st.floats(min_value=4.0, max_value=12.0),
    losses=st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=4),
)
def test_wcp_lane_tuner_matches_single_loss_tuner_on_any_link(
    concentration, dark_count_rate, misalignment, log_block, losses
):
    channel = replace(
        FIELD_CHANNEL, dark_count_rate_cps=dark_count_rate, misalignment_prob=misalignment
    )
    proto = replace(FIELD_PROTO, block_size=10.0**log_block)
    with _scored_wcp_points() as points:
        tuned = _tune_wcp(losses, channel, proto, FIELD_SEC, concentration)
        assert tuned == _single_loss_wcp(channel, proto, losses, concentration)
    _assert_valid_wcp_points(points["float"])
    _assert_valid_wcp_points(points["lanes"])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_wcp_refinement_bounds_keep_every_probe_valid(sign):
    # A score monotone in every coordinate drives each search to one end
    # of its bounds: from every seed point as a lane, and from one on floats.
    rows, columns = comparison._wcp_seed_grid()
    for start in (columns, rows[0]):
        points = []

        def score(mu_s, mu_d, p_s, p_d, q_tx):
            points.append((mu_s, mu_d, p_s, p_d))
            return sign * (mu_s + mu_d + p_s + p_d)

        comparison._refine_wcp(score, *start)
        _assert_valid_wcp_points(points)


def test_golden_lanes_with_per_lane_bounds_match_single_searches():
    # Peaks inside, at and outside the bounds, and a plateau whose ties
    # take the ``fc >= fd`` branch.
    peaks = np.array([0.3, 0.05, 2.0, -1.0, 0.5])
    lo = np.array([0.0, 0.05, 0.1, 0.0, 0.2])
    hi = np.array([1.0, 0.5, 0.95, 0.4, 0.9])
    caps = np.array([np.inf, np.inf, np.inf, np.inf, -0.01])

    def lanes(x):
        return np.minimum(-((x - peaks) ** 2), caps)

    best, value = _golden_max(lanes, lo, hi, 20)
    for i in range(peaks.size):
        alone = _golden_max(
            lambda x: min(-((x - peaks[i]) ** 2), caps[i]), float(lo[i]), float(hi[i]), 20
        )
        assert (best[i], value[i]) == alone


def _scalar_sps_rate(source, channel, proto, sec, asymptotic):
    try:
        return sps_expected_rate(source, channel, proto, sec, asymptotic=asymptotic).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource):
        return 0.0


def _scalar_sps_tuner(source, channel, proto, sec, asymptotic=False):
    """Reference SPS tuner: one golden-section search per basis ratio, in turn."""

    def rate_at(q_tx, t):
        cfg = replace(proto, q_z_tx=q_tx, pre_attenuation=t)
        return _scalar_sps_rate(source, channel, cfg, sec, asymptotic)

    best = (-1.0, None, None)
    for q_tx in Q_TX_GRID:
        t, rate = _golden_max(lambda t: rate_at(q_tx, t), 1e-4, 1.0)
        if rate_at(q_tx, 1.0) >= rate:
            t, rate = 1.0, rate_at(q_tx, 1.0)
        if rate > best[0]:
            best = (rate, q_tx, t)
    return best


def _scalar_finite_boundary(loss_db, grid, channel, proto, sec, asymptotic):
    """Reference break-even locus: every bisection runs alone, on the scalar tuner."""
    ch = replace(channel, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(ch, proto, sec, asymptotic=asymptotic)

    def sps_rate(n_mean, g2):
        try:
            source = SourceSpec(SourceKind.SPS, n_mean, g2)
        except NonPhysicalSource:
            return 0.0
        return _scalar_sps_tuner(source, ch, proto, sec, asymptotic)[0]

    points = []
    for n_mean in sorted(grid):
        if sps_rate(n_mean, 0.0) < r_wcp:
            continue
        lo, hi = 0.0, 1.0 / n_mean
        if sps_rate(n_mean, hi) >= r_wcp:
            points.append((n_mean, hi))
            continue
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if sps_rate(n_mean, mid) >= r_wcp:
                lo = mid
            else:
                hi = mid
        points.append((n_mean, lo))
    hi_n, lo_n = points[0][0], 1e-4
    if sps_rate(lo_n, 0.0) < r_wcp:
        for _ in range(40):
            mid = 0.5 * (lo_n + hi_n)
            if sps_rate(mid, 0.0) >= r_wcp:
                hi_n = mid
            else:
                lo_n = mid
        points.insert(0, (hi_n, 0.0))
    return tuple(points)


def _scalar_wcp_tuner(channel, proto, sec, concentration):
    """Reference finite-mode WCP tuner scoring its grid one point at a time."""
    proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)

    def rate_at(q_tx, mu_s, mu_d, p_s, share):
        if not 0.0 < mu_d < mu_s or not 0.0 < p_s < 1.0 or not 0.0 < share < 1.0:
            return 0.0
        cfg = replace(proto, q_z_tx=q_tx)
        try:
            ints = WcpIntensities(mu_s, mu_d, p_s, (1.0 - p_s) * share)
            return wcp_finite_key_rate(ints, channel, cfg, sec, concentration).rate_per_pulse
        except ValueError:  # DecoyInfeasible included
            return 0.0

    best_rate, best = -1.0, None
    for q_tx in Q_TX_GRID:
        for mu_s in WCP_MU_SIGNAL_GRID:
            for mu_d in WCP_MU_DECOY_GRID:
                if mu_d >= mu_s:
                    continue
                for p_s in WCP_P_SIGNAL_GRID:
                    for share in WCP_P_DECOY_SHARE_GRID:
                        rate = rate_at(q_tx, mu_s, mu_d, p_s, share)
                        if rate > best_rate:
                            best_rate, best = rate, (q_tx, mu_s, mu_d, p_s, share)
    q_tx, mu_s, mu_d, p_s, share = best
    for _ in range(2):
        mu_s, _ = _golden_max(lambda v: rate_at(q_tx, v, min(mu_d, 0.9 * v), p_s, share), 0.05, 1.0, 20)
        mu_d, _ = _golden_max(lambda v: rate_at(q_tx, mu_s, v, p_s, share), 1e-3, 0.95 * mu_s, 20)
        p_s, _ = _golden_max(lambda v: rate_at(q_tx, mu_s, mu_d, v, share), 0.05, 0.98, 20)
        share, best_rate = _golden_max(lambda v: rate_at(q_tx, mu_s, mu_d, p_s, v), 0.02, 0.98, 20)
    intensities = WcpIntensities(mu_s, mu_d, p_s, (1.0 - p_s) * share)
    return max(best_rate, 0.0), intensities, replace(proto, q_z_tx=q_tx)


class TestCompare:
    def test_field_numbers(self):
        report = compare(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert report.advantage_db == pytest.approx(2.53, abs=1.0)
        assert report.crossover_loss_db == pytest.approx(19.0, abs=2.0)
        assert report.r_sps > report.r_wcp > 0.0
        # The scan rows are the tuned rates a sweep reports at the same losses.
        losses = [float(i) for i in range(int(CROSSOVER_SCAN_MAX_DB) + 1)]
        assert [row[0] for row in report.scan] == losses
        swept = sweep_rates(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, [0.0, 17.0])
        assert [report.scan[0], report.scan[17]] == [row[:3] for row in swept]

    def test_last_down_crossing_is_bisected(self, monkeypatch):
        # A synthetic margin r_sps - r_wcp that falls through 0 at 5.3 dB
        # and again at 20.7 dB, rising in between.
        def sps(loss):
            return 1.0 - (loss - 5.3) * (loss - 11.6) * (loss - 20.7) * 1e-3

        probes = []

        def optimized_sps(source, channel, proto, sec):
            probes.append(channel.channel_loss_db)
            return sps(channel.channel_loss_db), proto

        def tune_sps(n_mean, g2, losses, *rest):
            return (np.array([sps(loss) for loss in losses]),)

        monkeypatch.setattr(comparison, "_tune_sps", tune_sps)
        monkeypatch.setattr(
            comparison, "_tune_wcp", lambda losses, *rest: [(1.0, None, 0.9) for _ in losses]
        )
        monkeypatch.setattr(comparison, "optimized_sps_rate", optimized_sps)
        monkeypatch.setattr(comparison, "optimized_wcp_rate", lambda *a, **k: (1.0, None, None))
        report = compare(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        margins = [s - w for _, s, w in report.scan]
        falls = [i for i in range(len(margins) - 1) if margins[i] > 0.0 >= margins[i + 1]]
        assert falls == [5, 20]
        assert len(probes) == 14 and all(20.0 < loss < 21.0 for loss in probes)
        assert report.crossover_loss_db == pytest.approx(20.7, abs=2.0**-14)

    def test_no_crossover_for_weak_source(self):
        source = SourceSpec(SourceKind.SPS, 0.05, 0.5)
        with pytest.raises(NoCrossover):
            compare(source, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)


class TestSweep:
    def test_rows_and_monotonicity(self):
        losses = [0.0, 5.0, 10.0, 15.0]
        rows = sweep_rates(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, losses)
        assert [row[0] for row in rows] == losses
        sps_rates = [row[1] for row in rows]
        wcp_rates = [row[2] for row in rows]
        assert all(a > b for a, b in zip(sps_rates, sps_rates[1:]))
        assert all(a > b for a, b in zip(wcp_rates, wcp_rates[1:]))


class TestFiniteBoundary:
    def test_zero_loss_endpoints(self):
        grid = [0.08, 0.1, 0.14, 0.2, 0.3, 0.5, 0.8]
        curve = finite_boundary(0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.min_mean_photon_number == pytest.approx(0.078, rel=0.15)
        assert curve.max_g2 == pytest.approx(0.41, rel=0.15)
        g2s = [g2 for _, g2 in curve.points]
        assert all(b >= a - 1e-9 for a, b in zip(g2s, g2s[1:]))

    def test_asymptotic_mode_endpoints(self):
        grid = [0.28, 0.35, 0.45, 0.6, 0.8]
        curve = finite_boundary(
            0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, asymptotic=True
        )
        assert curve.min_mean_photon_number == pytest.approx(0.268, rel=0.15)
        assert curve.max_g2 == pytest.approx(0.11, rel=0.15)

    # Each grid has one point below the threshold, which the curve skips.
    @pytest.mark.parametrize(
        "asymptotic, grid", [(False, [0.07, 0.1, 0.3]), (True, [0.2, 0.35, 0.8])]
    )
    def test_lockstep_bisection_matches_scalar_reference(self, asymptotic, grid):
        curve = finite_boundary(
            0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, asymptotic=asymptotic
        )
        reference = _scalar_finite_boundary(
            0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, asymptotic
        )
        assert curve.points == reference
        # Two bisected grid points plus the bisected g2 = 0 endpoint.
        assert len(curve.points) == len(grid) and curve.points[0][1] == 0.0

    def test_no_bisection_where_neither_side_makes_key(self):
        # At 80 dB both rates are 0, so every grid point matches at its
        # largest g2 and <n> = 1e-4 matches too: no g2 = 0 point is added.
        grid = [0.1, 0.5]
        curve = finite_boundary(80.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        reference = _scalar_finite_boundary(
            80.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC, False
        )
        assert curve.points == reference == ((0.1, 1.0 / 0.1), (0.5, 1.0 / 0.5))

    def test_empty_when_grid_below_threshold(self):
        channel = replace(FIELD_CHANNEL, channel_loss_db=25.0)
        with pytest.raises(EmptyCurve):
            finite_boundary(25.0, [0.01, 0.02], channel, FIELD_PROTO, FIELD_SEC)


def _tuned_sps(channel=FIELD_CHANNEL, g2=FIELD_SOURCE.g2, loss=FIELD_CHANNEL.channel_loss_db):
    """Tuned SPS rates of the field source, one per broadcast lane."""
    n_mean = FIELD_SOURCE.mean_photon_number
    return _tune_sps(n_mean, g2, loss, channel, FIELD_PROTO, FIELD_SEC)[0].tolist()


def _non_increasing(rates):
    return all(later <= earlier for earlier, later in zip(rates, rates[1:]))


# Tuned-rate physics: whatever the tuner picks, a worse link or source
# never yields more key. Loss and g2 run as lanes of one tuner call;
# dark counts and misalignment are channel settings, one call each.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=2, max_size=16))
def test_tuned_sps_rate_does_not_rise_with_loss(losses):
    assert _non_increasing(_tuned_sps(loss=sorted(losses)))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0 / FIELD_SOURCE.mean_photon_number),
        min_size=2,
        max_size=16,
    )
)
def test_tuned_sps_rate_does_not_rise_with_g2(g2s):
    assert _non_increasing(_tuned_sps(g2=sorted(g2s)))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2, max_size=4))
def test_tuned_sps_rate_does_not_rise_with_dark_counts(rates_cps):
    assert _non_increasing(
        [_tuned_sps(replace(FIELD_CHANNEL, dark_count_rate_cps=r)) for r in sorted(rates_cps)]
    )


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.15), min_size=2, max_size=4))
def test_tuned_sps_rate_does_not_rise_with_misalignment(probs):
    assert _non_increasing(
        [_tuned_sps(replace(FIELD_CHANNEL, misalignment_prob=p)) for p in sorted(probs)]
    )


def _tuned_wcp(losses, channel=FIELD_CHANNEL, concentration="hoeffding"):
    """Tuned WCP rates on ``channel``, one lane per loss."""
    tuned = _tune_wcp(losses, channel, FIELD_PROTO, FIELD_SEC, concentration)
    return [rate for rate, _, _ in tuned]


_CONCENTRATION = st.sampled_from(["hoeffding", "chernoff"])


# The same physics for the tuned WCP comparator. Loss runs as lanes of one
# tuner call; each dark-count rate or misalignment is one call, with a
# lane per loss, and every lane must not rise with it.
@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=2, max_size=16), _CONCENTRATION
)
def test_tuned_wcp_rate_does_not_rise_with_loss(losses, concentration):
    assert _non_increasing(_tuned_wcp(sorted(losses), concentration=concentration))


@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5e4), min_size=2, max_size=4), _CONCENTRATION)
def test_tuned_wcp_rate_does_not_rise_with_dark_counts(rates_cps, concentration):
    tuned = [
        _tuned_wcp((0.0, 14.6, 30.0), replace(FIELD_CHANNEL, dark_count_rate_cps=r), concentration)
        for r in sorted(rates_cps)
    ]
    assert all(_non_increasing(lane) for lane in zip(*tuned))


@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.1), min_size=2, max_size=4), _CONCENTRATION)
def test_tuned_wcp_rate_does_not_rise_with_misalignment(probs, concentration):
    tuned = [
        _tuned_wcp((0.0, 14.6, 30.0), replace(FIELD_CHANNEL, misalignment_prob=p), concentration)
        for p in sorted(probs)
    ]
    assert all(_non_increasing(lane) for lane in zip(*tuned))
