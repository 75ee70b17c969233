"""Tuned SPS-versus-WCP comparison, sweeps and break-even boundaries."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrates.asymptotic import EmptyCurve
from keyrates.channel import ChannelDetectorModel
from keyrates.cli import bundled_field_config, load_config, run
from keyrates.finite_key.comparison import (
    CROSSOVER_SCAN_MAX_DB,
    Q_TX_GRID,
    WCP_MU_DECOY_GRID,
    WCP_MU_SIGNAL_GRID,
    WCP_P_DECOY_SHARE_GRID,
    WCP_P_SIGNAL_GRID,
    WCP_RECEIVER_Z_RATIO,
    NoCrossover,
    _golden_max,
    _sps_argmax,
    _tune_wcp,
    advantage_db,
    compare,
    finite_boundary,
    optimized_sps_rate,
    optimized_wcp_rate,
    sweep_rates,
)
from keyrates.finite_key import comparison, wcp
from keyrates.finite_key.core import (
    InsufficientBlock,
    ProtocolConfig,
    SecurityParams,
    sps_expected_rate,
)
from keyrates.finite_key.wcp import (
    WcpIntensities,
    _wcp_lanes,
    wcp_asymptotic_practical_rate,
    wcp_finite_key_rate,
)
from keyrates.photon_source import (
    NonPhysicalSource, SourceKind, SourceSpec, UndefinedG2, _sps_valid,
)

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-15, 1.16)
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


    # At 50 dB every candidate scores 0 and the first one must win.
    @pytest.mark.parametrize("loss_db", [0.0, 14.6, 30.0, 50.0])
    def test_sps_lane_tuner_picks_the_scalar_scan_point(self, loss_db):
        channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
        rate, proto = optimized_sps_rate(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC)
        reference = _scalar_sps_tuner(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC)
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

    def test_sps_tuner_scores_an_underflowing_source_zero(self):
        # <n> = 1e-200 squares to 0, so the launched g2 is undefined: no key.
        source = SourceSpec(SourceKind.SPS, 1e-200, 0.3)
        rate, _ = optimized_sps_rate(source, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert rate == 0.0


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


def _counted_sps_work(monkeypatch):
    """Count the SPS tuner's work from here on: ``_sps_argmax`` calls
    ("tuner") and ``_sps_lanes`` scorer calls ("kernel"). Returns the
    live counts."""
    counts = dict.fromkeys(("tuner", "kernel"), 0)

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    lanes = comparison._sps_lanes
    monkeypatch.setattr(comparison, "_sps_argmax", counted("tuner", comparison._sps_argmax))
    monkeypatch.setattr(comparison, "_sps_lanes", lambda *args: counted("kernel", lanes(*args)))
    return counts


def _assert_valid_wcp_points(points):
    """Every point, float or lanes, has 0 < mu_d < mu_s, 0 < p_s < 1 and 0 < p_d < 1 - p_s."""
    assert points
    for mu_s, mu_d, p_s, p_d in points:
        assert np.all((0.0 < mu_d) & (mu_d < mu_s) & (0.0 < p_s) & (p_s < 1.0))
        assert np.all((0.0 < p_d) & (p_d < 1.0 - p_s))


@pytest.mark.parametrize("q_z_tx", [0.0, 0.9, 1.0, 1.5])
def test_float_and_lane_wcp_scorers_agree_on_any_basis_ratio(q_z_tx):
    # Both give 0 where ProtocolConfig rejects q_z_tx, and the same rate inside.
    proto = replace(FIELD_PROTO, q_z_rx=WCP_RECEIVER_Z_RATIO)
    point = (0.5, 0.15, 0.7, 0.2, q_z_tx)
    lanes = _wcp_lanes(FIELD_CHANNEL.channel_loss_db, FIELD_CHANNEL, proto, FIELD_SEC, "hoeffding")
    rate = comparison._wcp_rate_or_zero(*point, FIELD_CHANNEL, proto, FIELD_SEC, "hoeffding")
    assert rate == lanes(*point)
    assert (rate > 0.0) == (0.0 < q_z_tx < 1.0)


class TestWcpEvaluationCounts:
    """The WCP tuners' evaluation counts, pinned: they do not depend on the
    machine. A refinement makes 2 passes of 4 golden searches of 20
    iterations. On floats that is 176 scores. On 32 lanes one scorer call
    holds 4 steps' 15 probes per lane, so a search makes 2 + 5 calls and
    the refinement 56. The tuned point is scored once more on floats."""

    def _counts(self, points):
        return len(points["lanes"]), len(points["float"])

    def test_tune_wcp_over_the_compare_scan(self):
        # One seed-grid call per loss, then the lockstep refinement.
        losses = [FIELD_CHANNEL.channel_loss_db, *map(float, range(31))]
        with _scored_wcp_points() as points:
            _tune_wcp(losses, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert self._counts(points) == (88, 32)

    def test_optimized_wcp_rate(self):
        with _scored_wcp_points() as points:
            optimized_wcp_rate(FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert self._counts(points) == (1, 177)

    def test_cli_compare(self, capsys):
        # The 32-loss sweep, then one optimized_wcp_rate per crossover probe.
        with _scored_wcp_points() as points:
            assert run(["compare", bundled_field_config()]) == 0
        assert self._counts(points) == (93, 917)


def test_cli_compare_wcp_evaluations_skip_the_public_plumbing(monkeypatch, capsys):
    # During one `compare`, the float scorer builds no WcpIntensities, each
    # WCP distillation makes one ``_ops`` check, and the lane scorer
    # broadcasts none of its inputs: its coordinates keep their shapes.
    inside, counts, checks = [], {"builds": 0, "broadcasts": 0}, []

    def scoped(name, fn):
        def wrapper(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    def counted(key, scope, fn):
        def wrapper(*args, **kwargs):
            counts[key] += scope in inside
            return fn(*args, **kwargs)

        return wrapper

    def checked_distil(*args):
        checks.append(0)
        return distil(*args)

    def counted_ops(*values):
        checks[-1] += 1
        return ops(*values)

    float_score, lane_scorer = comparison._wcp_rate_or_zero, comparison._wcp_lanes
    distil, ops = wcp._wcp_distil, wcp._ops
    monkeypatch.setattr(comparison, "_wcp_rate_or_zero", scoped("float", float_score))
    monkeypatch.setattr(comparison, "_wcp_lanes", lambda *args: scoped("lanes", lane_scorer(*args)))
    monkeypatch.setattr(
        WcpIntensities, "__post_init__", counted("builds", "float", WcpIntensities.__post_init__)
    )
    monkeypatch.setattr(np, "broadcast_arrays", counted("broadcasts", "lanes", np.broadcast_arrays))
    for module in (comparison, wcp):
        monkeypatch.setattr(module, "_wcp_distil", checked_distil)
    monkeypatch.setattr(wcp, "_ops", counted_ops)
    assert run(["compare", bundled_field_config()]) == 0
    assert counts == {"builds": 0, "broadcasts": 0}
    # 93 lane calls and up to 917 float scores, some of them rerun on NumPy.
    assert len(checks) > 93 and set(checks) == {1}


def test_wcp_seed_grid_columns_follow_the_nested_loops():
    rows = [
        (q_tx, mu_s, mu_d, p_s, share, (1.0 - p_s) * share)
        for q_tx in Q_TX_GRID
        for mu_s in WCP_MU_SIGNAL_GRID
        for mu_d in WCP_MU_DECOY_GRID
        if mu_d < mu_s
        for p_s in WCP_P_SIGNAL_GRID
        for share in WCP_P_DECOY_SHARE_GRID
    ]
    grid = comparison._wcp_seed_grid()
    assert grid.shape == (6, 1512) == (6, len(rows))
    assert [tuple(column) for column in grid.T.tolist()] == rows


def _single_loss_wcp(channel, proto, losses, concentration):
    """``(rate, intensities, q_z_tx)`` of one float ``optimized_wcp_rate`` call per loss."""
    tuned = []
    for loss in losses:
        ch = replace(channel, channel_loss_db=loss)
        rate, intensities, cfg = optimized_wcp_rate(
            ch, proto, FIELD_SEC, concentration=concentration
        )
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
    grid = comparison._wcp_seed_grid()[:5]
    for start in (grid, grid[:, 0].tolist()):
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

    best = _golden_max(lanes, lo, hi, 20)
    values = lanes(best)
    for i in range(peaks.size):

        def alone(x):
            return min(-((x - peaks[i]) ** 2), caps[i])

        point = _golden_max(alone, float(lo[i]), float(hi[i]), 20)
        assert (best[i], values[i]) == (point, alone(point))


@pytest.mark.parametrize("iterations", [None, 0, 1, 20])
@pytest.mark.parametrize("lanes", [False, True])
def test_golden_max_scores_two_starting_points_and_one_per_iteration(lanes, iterations):
    # The returned point itself is not scored: a caller that needs its value
    # scores it. On floats each iteration is one call. Three lanes fit the
    # probes of 7 steps (127 per lane) in one call of the 512-value budget,
    # so 30 iterations take 7 + 7 + 7 + 7 + 2 steps and 20 take 7 + 7 + 6.
    calls = []

    def f(x):
        calls.append(x)
        return -((x - 0.3) ** 2)

    lo, hi = (np.zeros(3), np.ones(3)) if lanes else (0.0, 1.0)
    args = () if iterations is None else (iterations,)
    best = _golden_max(f, lo, hi, *args)
    expected = {None: 7, 0: 2, 1: 3, 20: 5} if lanes else {None: 32, 0: 2, 1: 3, 20: 22}
    assert len(calls) == expected[iterations]
    assert isinstance(best, np.ndarray) == lanes


class _CountedNumpy:
    """NumPy as a module sees it through ``np``, counting each function called."""

    def __init__(self):
        self.calls, self._wrappers = {}, {}

    def __getattr__(self, name):
        value = getattr(np, name)
        if isinstance(value, type) or not callable(value):
            return value
        if name not in self._wrappers:  # one wrapper per name keeps ``is`` checks true

            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return value(*args, **kwargs)

            self._wrappers[name] = counted
        return self._wrappers[name]


def test_speculative_golden_search_numpy_call_counts(monkeypatch):
    # A work pin that no host changes: the NumPy functions that one
    # search of 32 lanes over 20 iterations calls outside f, in 5 calls
    # of f that score 4 steps each; array operators are not counted. A
    # version that built each heap level with np.repeat and re-ran the
    # golden step along each lane's path made 345 such calls (240 where,
    # 60 repeat, 15 resize, 20 take_along_axis, 5 concatenate, 5 zeros).
    counted = _CountedNumpy()
    monkeypatch.setattr(comparison, "np", counted)
    peak = np.linspace(0.0, 1.0, 32)
    kernel_calls = []

    def f(x):
        kernel_calls.append(x.shape)
        return -((x - peak) ** 2)

    _golden_max(f, np.zeros(32), np.ones(32), 20)
    assert kernel_calls == [(32,), (32,)] + [(15, 32)] * 5
    assert counted.calls == {"arange": 1, "empty": 5, "where": 65, "zeros_like": 5}


def _on_path(calls, lane, probes):
    """Lane ``lane``'s probes in a golden search's ``calls`` of ``f``.

    A call of one row gives one probe. A stacked call gives the heap
    path that follows ``probes``, the float search's sequence: from the
    root, the child whose probe is the next one expected (the left child
    where neither is).
    """
    path = []
    for x in calls:
        column = x[..., lane]
        if column.ndim == 0:
            path.append(column)
            continue
        node = 0
        while node < column.size:
            path.append(column[node])
            expected = probes[len(path)] if len(path) < len(probes) else None
            node = 2 * node + 1 + (2 * node + 2 < column.size and column[2 * node + 2] == expected)
    return [float(x) for x in path]


# A lane: lower bound, bracket width (0 is a point), peak, and a cap whose
# plateau makes ``fc == fd`` ties that take the ``fc >= fd`` branch.
_GOLDEN_LANE = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=3.0),
    st.one_of(st.just(np.inf), st.floats(min_value=-1.0, max_value=0.0)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_GOLDEN_LANE, max_size=64), st.integers(min_value=0, max_value=30))
# 100 lanes fit only 2 speculated steps per call; odd lanes have a plateau.
@example([(-1.0, 2.0, 0.03 * i - 1.5, -0.25 * (i % 2)) for i in range(100)], 30)
def test_golden_lanes_take_each_float_search_path(lanes, iterations):
    # Lanes at any count, however many steps one call of f speculates,
    # score the float search's probes in its order and return its point.
    lo, width, peak, cap = np.array(lanes, dtype=float).reshape(-1, 4).T
    hi = lo + width
    calls = []

    def f(x):
        calls.append(x)
        return np.minimum(-((x - peak) * (x - peak)), cap)

    best = _golden_max(f, lo, hi, iterations)
    assert best.shape == lo.shape
    for i in range(lo.size):
        probes = []

        def alone(x):
            probes.append(x)
            return min(-((x - peak[i]) * (x - peak[i])), cap[i])

        assert best[i] == _golden_max(alone, float(lo[i]), float(hi[i]), iterations)
        assert _on_path(calls, i, probes) == probes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_GOLDEN_LANE, min_size=7, max_size=7), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=30),
)
def test_golden_lanes_of_2d_shape_and_shared_bounds_take_each_float_search_path(
    rows, columns, lo, width, iterations
):
    # As _sps_argmax searches: lanes of shape (rows, columns), scalar
    # bounds. Only each lane's peak and cap are its own.
    _, _, peak, cap = np.array(rows, dtype=float)[:, :columns].transpose(2, 0, 1)
    hi = lo + width
    calls = []

    def f(x):
        x = np.broadcast_to(x, np.broadcast_shapes(np.shape(x), peak.shape))
        calls.append(x.reshape(*x.shape[:-2], -1))
        return np.minimum(-((x - peak) * (x - peak)), cap)

    best = _golden_max(f, lo, hi, iterations)
    assert np.shape(best) == (peak.shape if iterations else ())
    for i, index in enumerate(np.ndindex(peak.shape)):
        probes = []

        def alone(x):
            probes.append(x)
            return min(-((x - peak[index]) * (x - peak[index])), cap[index])

        point = _golden_max(alone, lo, hi, iterations)
        assert float(np.broadcast_to(best, peak.shape)[index]).hex() == point.hex()
        assert _on_path(calls, i, probes) == probes


# A finite-boundary lane: <n> down to the g2 = 0 endpoint's 1e-4 and up
# past 1, g2 as a share of 1/<n> (above 1 is not physical), and the loss.
_BOUNDARY_LANE = st.tuples(
    st.floats(min_value=1e-4, max_value=1.2),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=40.0),
)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 7]), st.integers(min_value=1, max_value=4), st.data())
def test_stacked_sps_lanes_match_each_row_alone(rows, width, data):
    # finite_boundary tunes the seven probes of three bisection levels per
    # lane as rows of one call, and its screening call stacks three rows.
    lanes = data.draw(st.lists(_BOUNDARY_LANE, min_size=rows * width, max_size=rows * width))
    n_mean, share, loss = np.array(lanes).T.reshape(3, rows, -1)
    g2 = share / n_mean
    stacked = _sps_argmax(n_mean, g2, loss, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
    for row in range(rows):
        alone = _sps_argmax(n_mean[row], g2[row], loss[row], FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert [a[row].tolist() for a in stacked] == [a.tolist() for a in alone]
    assert np.all(stacked[2][np.logical_not(_sps_valid(n_mean, g2))] == 0.0)


def _dataclass_sps_rate(n_mean, g2, channel, proto, sec):
    """``sps_expected_rate`` at one point, 0 where the float pipeline raises."""
    try:
        source = SourceSpec(SourceKind.SPS, n_mean, g2)
        return sps_expected_rate(source, channel, proto, sec).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource, UndefinedG2):
        return 0.0


@settings(max_examples=200, deadline=None)
@given(_BOUNDARY_LANE)
# Zeros: a rejected source, a swallowed block at 40 dB, and g2 = 1/<n>,
# where the launched g2 <n> rounds above 1.
@example((1.2, 1.5, 0.0))
@example((0.3, 0.5, 40.0))
@example((0.5837843979428032, 1.0, 0.0))
def test_tuned_sps_rate_is_the_float_rate_at_its_point(lane):
    # The lane rate the tuner reports is sps_expected_rate at the point it
    # returns: within 1e-15, and exactly 0 wherever that call raises.
    n_mean, share, loss = lane
    g2 = share / n_mean
    channel = replace(FIELD_CHANNEL, channel_loss_db=loss)
    if _sps_valid(n_mean, g2):
        source = SourceSpec(SourceKind.SPS, n_mean, g2)
        rate, proto = optimized_sps_rate(source, channel, FIELD_PROTO, FIELD_SEC)
    else:
        # No SourceSpec holds this lane; finite_boundary tunes it as a lane.
        point = _sps_argmax(n_mean, g2, loss, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        q_tx, t, rate = (float(a) for a in point)
        proto = replace(FIELD_PROTO, q_z_tx=q_tx, pre_attenuation=t)
    expected = _dataclass_sps_rate(n_mean, g2, channel, proto, FIELD_SEC)
    assert abs(rate - expected) <= 1e-15 * expected


def test_field_scan_sps_rates_are_the_float_rates():
    # Bit for bit at compare's 32 losses on field.cfg, so the printed
    # scan is the float pipeline's.
    config = load_config(bundled_field_config())
    source, proto, sec = config.source, config.proto, config.sec
    losses = [config.channel.channel_loss_db, *map(float, range(31))]
    rows = sweep_rates(source, config.channel, proto, sec, losses)
    for loss, r_sps, _, _ in rows:
        channel = replace(config.channel, channel_loss_db=loss)
        rate, tuned = optimized_sps_rate(source, channel, proto, sec)
        assert r_sps == rate == sps_expected_rate(source, channel, tuned, sec).rate_per_pulse


def _scalar_sps_rate(source, channel, proto, sec):
    try:
        return sps_expected_rate(source, channel, proto, sec).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource):
        return 0.0


def _scalar_sps_tuner(source, channel, proto, sec):
    """Reference SPS tuner: one golden-section search per basis ratio, in turn."""

    def rate_at(q_tx, t):
        cfg = replace(proto, q_z_tx=q_tx, pre_attenuation=t)
        return _scalar_sps_rate(source, channel, cfg, sec)

    best = (-1.0, None, None)
    for q_tx in Q_TX_GRID:
        t = _golden_max(lambda t: rate_at(q_tx, t), 1e-4, 1.0)
        rate = rate_at(q_tx, t)
        if rate_at(q_tx, 1.0) >= rate:
            t, rate = 1.0, rate_at(q_tx, 1.0)
        if rate > best[0]:
            best = (rate, q_tx, t)
    return best


def _scalar_finite_boundary(loss_db, grid, channel, proto, sec):
    """Reference break-even locus: every bisection runs alone, on the scalar tuner."""
    ch = replace(channel, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(ch, proto, sec)

    def sps_rate(n_mean, g2):
        try:
            source = SourceSpec(SourceKind.SPS, n_mean, g2)
        except NonPhysicalSource:
            return 0.0
        return _scalar_sps_tuner(source, ch, proto, sec)[0]

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


def _one_step_per_call_boundary(loss_db, grid):
    """Reference locus: ``finite_boundary``'s lockstep bisection taking one
    step per lane-tuner call, ``BOUNDARY_BISECTION_ITERATIONS`` calls in all."""
    ch = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(ch, FIELD_PROTO, FIELD_SEC)

    def sps_rates(n_mean, g2):
        return _sps_argmax(n_mean, g2, loss_db, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)[2]

    n_grid = np.array(sorted(grid), dtype=float)
    n_grid = n_grid[sps_rates(n_grid, 0.0) >= r_wcp]
    g2_max = 1.0 / n_grid
    n_lane = np.append(n_grid, 1e-4)
    g2_lane = np.append(g2_max, 0.0)
    lo = np.append(np.zeros(n_grid.size), n_grid[0])
    hi = np.append(g2_max, 1e-4)
    edge = hi.copy()
    bisected = sps_rates(n_lane, g2_lane) < r_wcp
    endpoint = (np.arange(n_lane.size) == n_grid.size)[bisected]
    n_lane, lo, hi = n_lane[bisected], lo[bisected], hi[bisected]
    for _ in range(comparison.BOUNDARY_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        holds = sps_rates(np.where(endpoint, mid, n_lane), np.where(endpoint, 0.0, mid)) >= r_wcp
        lo, hi = np.where(holds, mid, lo), np.where(holds, hi, mid)
    edge[bisected] = lo
    points = list(zip(n_grid.tolist(), edge[:-1].tolist()))
    if bisected[-1]:
        points.insert(0, (float(edge[-1]), 0.0))
    return tuple(points)


def _geometric_grid(points):
    """The ``boundary`` subcommand's default <n> grid, with ``points`` points."""
    return [0.05 * (1.2 / 0.05) ** (i / (points - 1)) for i in range(points)]


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
        mu_s = _golden_max(lambda v: rate_at(q_tx, v, min(mu_d, 0.9 * v), p_s, share), 0.05, 1.0, 20)
        mu_d = _golden_max(lambda v: rate_at(q_tx, mu_s, v, p_s, share), 1e-3, 0.95 * mu_s, 20)
        p_s = _golden_max(lambda v: rate_at(q_tx, mu_s, mu_d, v, share), 0.05, 0.98, 20)
        share = _golden_max(lambda v: rate_at(q_tx, mu_s, mu_d, p_s, v), 0.02, 0.98, 20)
    best_rate = rate_at(q_tx, mu_s, mu_d, p_s, share)
    intensities = WcpIntensities(mu_s, mu_d, p_s, (1.0 - p_s) * share)
    return max(best_rate, 0.0), intensities, replace(proto, q_z_tx=q_tx)


def _cubic_sps(loss):
    return 1.0 - (loss - 5.3) * (loss - 11.6) * (loss - 20.7) * 1e-3


def _step_sps(loss):
    # Lopsided: the regula falsi point sits next to 21 dB, far from the jump.
    return 2.0 if loss < 20.3 else 1.0 - 1e-6


def _kink_sps(loss):
    # Steep down to 20.05 dB, then shallow to the root at 20.9 dB.
    return 1.0 + max(20.05 - loss, 1e-3 * (20.9 - loss))


_SYNTHETIC_SPS = [_cubic_sps, _step_sps, _kink_sps]
_SYNTHETIC_IDS = ["cubic", "step", "kink"]


def _compare_on_synthetic_margin(monkeypatch, sps):
    """``compare`` with both tuners replaced: r_sps = sps(loss), r_wcp = 1.

    Each synthetic margin falls through 0 last between 20 and 21 dB.
    Returns the report and the losses the crossover search probed.
    """
    probes = []

    def optimized_sps(source, channel, proto, sec):
        probes.append(channel.channel_loss_db)
        return sps(channel.channel_loss_db), proto

    def sps_argmax(n_mean, g2, losses, *rest):
        return None, None, np.array([sps(loss) for loss in losses])

    monkeypatch.setattr(comparison, "_sps_argmax", sps_argmax)
    monkeypatch.setattr(
        comparison, "_tune_wcp", lambda losses, *rest: [(1.0, None, 0.9) for _ in losses]
    )
    monkeypatch.setattr(comparison, "optimized_sps_rate", optimized_sps)
    monkeypatch.setattr(comparison, "optimized_wcp_rate", lambda *a, **k: (1.0, None, None))
    return compare(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC), probes


def _brackets(sps, probes):
    """The [20, 21] dB bracket before each probe, then the final one."""
    brackets = [(20.0, 21.0)]
    for loss in probes:
        lo, hi = brackets[-1]
        brackets.append((loss, hi) if sps(loss) - 1.0 > 0.0 else (lo, loss))
    return brackets


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
        report, probes = _compare_on_synthetic_margin(monkeypatch, _cubic_sps)
        margins = [s - w for _, s, w in report.scan]
        falls = [i for i in range(len(margins) - 1) if margins[i] > 0.0 >= margins[i + 1]]
        assert falls == [5, 20]
        assert len(probes) <= 15 and all(20.0 < loss < 21.0 for loss in probes)
        assert report.crossover_loss_db == pytest.approx(20.7, abs=2.0**-14)

    @pytest.mark.parametrize("sps", [_step_sps, _kink_sps], ids=["step", "kink"])
    def test_non_smooth_margin_takes_at_most_15_probes(self, monkeypatch, sps):
        _, probes = _compare_on_synthetic_margin(monkeypatch, sps)
        assert len(probes) <= 15  # n_1/2 + n0 = 14 + 1

    @pytest.mark.parametrize("sps", _SYNTHETIC_SPS, ids=_SYNTHETIC_IDS)
    def test_every_probe_lies_inside_the_current_bracket(self, monkeypatch, sps):
        _, probes = _compare_on_synthetic_margin(monkeypatch, sps)
        assert all(lo < loss < hi for loss, (lo, hi) in zip(probes, _brackets(sps, probes)))

    @pytest.mark.parametrize("sps", _SYNTHETIC_SPS, ids=_SYNTHETIC_IDS)
    def test_final_bracket_holds_the_sign_change(self, monkeypatch, sps):
        report, probes = _compare_on_synthetic_margin(monkeypatch, sps)
        lo, hi = _brackets(sps, probes)[-1]
        assert hi - lo <= 2.0**-14
        assert sps(lo) - 1.0 > 0.0 >= sps(hi) - 1.0
        assert report.crossover_loss_db == 0.5 * (lo + hi)

    def test_n0_zero_reduces_to_the_bisection(self, monkeypatch):
        monkeypatch.setattr(comparison, "_ITP_N0", 0)
        report, probes = _compare_on_synthetic_margin(monkeypatch, _cubic_sps)
        lo, hi, midpoints = 20.0, 21.0, []
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            midpoints.append(mid)
            if _cubic_sps(mid) - 1.0 > 0.0:
                lo = mid
            else:
                hi = mid
        assert probes == midpoints
        assert report.crossover_loss_db == 0.5 * (lo + hi)

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

    def test_cli_sweep_work_counts(self, monkeypatch, capsys):
        # The SPS side tunes all 31 losses in one arg-max call, whose 217
        # values fit 2 golden steps per kernel call: 2 + 15 + 1 calls. The
        # WCP side scores its seed grid once per loss, then refines every
        # loss in one lockstep of 56 lane calls, 4 golden steps per call.
        # Each WCP winner is scored once on floats; the SPS side reports
        # the arg-max's lane rates.
        counts = _counted_sps_work(monkeypatch)
        losses = ["--loss-min", "0", "--loss-max", "30", "--steps", "31"]
        with _scored_wcp_points() as points:
            assert run(["sweep", bundled_field_config(), *losses]) == 0
        assert counts == {"tuner": 1, "kernel": 18}
        assert (len(points["lanes"]), len(points["float"])) == (87, 31)

    def test_cli_sweep_of_300_losses_speculates_no_probes(self, monkeypatch, capsys):
        # 300 lanes are more than a third of the golden budget, so every
        # golden step of either side is one kernel call: 2 + 30 per SPS
        # search, and on the WCP side 300 seed-grid calls + 8 * 22 = 476.
        counts = _counted_sps_work(monkeypatch)
        losses = ["--loss-min", "0", "--loss-max", "40", "--steps", "300"]
        with _scored_wcp_points() as points:
            assert run(["sweep", bundled_field_config(), *losses]) == 0
        assert counts == {"tuner": 1, "kernel": 33}
        assert (len(points["lanes"]), len(points["float"])) == (476, 300)


class TestFiniteBoundary:
    def test_zero_loss_endpoints(self):
        grid = [0.08, 0.1, 0.14, 0.2, 0.3, 0.5, 0.8]
        curve = finite_boundary(0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.min_mean_photon_number == pytest.approx(0.078, rel=0.15)
        assert curve.max_g2 == pytest.approx(0.41, rel=0.15)

    def test_lockstep_bisection_matches_scalar_reference(self):
        # The grid has one point below the threshold, which the curve skips.
        grid = [0.07, 0.1, 0.3]
        curve = finite_boundary(0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        reference = _scalar_finite_boundary(0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.points == reference
        # Two bisected grid points plus the bisected g2 = 0 endpoint.
        assert len(curve.points) == len(grid) and curve.points[0][1] == 0.0

    # Every loss meets both grids.
    @pytest.mark.parametrize(
        "loss_db, points",
        [(0.0, 25), (0.0, 60), (5.0, 60), (5.0, 25), (14.6, 25), (14.6, 60), (80.0, 25)],
    )
    def test_two_steps_per_call_match_the_one_step_loop(self, loss_db, points):
        grid = _geometric_grid(points)
        curve = finite_boundary(loss_db, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.points == _one_step_per_call_boundary(loss_db, grid)

    @pytest.mark.parametrize("iterations", [1, 2, 7, 8])  # every remainder mod 3
    def test_odd_iteration_count_matches_the_one_step_loop(self, monkeypatch, iterations):
        monkeypatch.setattr(comparison, "BOUNDARY_BISECTION_ITERATIONS", iterations)
        grid = _geometric_grid(25)
        curve = finite_boundary(5.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.points == _one_step_per_call_boundary(5.0, grid)

    def test_cli_boundary_work_counts(self, monkeypatch, capsys):
        # One screening call, then one per three of the 40 bisection levels
        # (the last takes one). Each makes 33 kernel calls but the last:
        # its 133 values fit 2 golden steps in the budget, so it makes
        # 2 + 15 + 1 = 18, and 14 * 33 + 18 = 480 in all.
        # Every decision reads the arg-max's lane rate, so nothing is
        # re-scored on floats.
        counts = _counted_sps_work(monkeypatch)
        assert run(["boundary", bundled_field_config(), "--mode", "finite", "--loss", "0"]) == 0
        assert counts == {"tuner": 15, "kernel": 480}

    def test_cli_boundary_stops_once_no_lane_is_bisected(self, monkeypatch, capsys):
        # At 80 dB every lane matches at its top: the screening call is the only one.
        counts = _counted_sps_work(monkeypatch)
        assert run(["boundary", bundled_field_config(), "--mode", "finite", "--loss", "80"]) == 0
        assert counts == {"tuner": 1, "kernel": 33}

    def test_no_bisection_where_neither_side_makes_key(self):
        # At 80 dB both rates are 0, so every grid point matches at its
        # largest g2 and <n> = 1e-4 matches too: no g2 = 0 point is added.
        grid = [0.1, 0.5]
        curve = finite_boundary(80.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        reference = _scalar_finite_boundary(80.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
        assert curve.points == reference == ((0.1, 1.0 / 0.1), (0.5, 1.0 / 0.5))

    def test_empty_when_grid_below_threshold(self):
        channel = replace(FIELD_CHANNEL, channel_loss_db=25.0)
        with pytest.raises(EmptyCurve):
            finite_boundary(25.0, [0.01, 0.02], channel, FIELD_PROTO, FIELD_SEC)


def _tuned_sps(channel=FIELD_CHANNEL, g2=FIELD_SOURCE.g2, loss=FIELD_CHANNEL.channel_loss_db):
    """Tuned SPS rates of the field source, one per broadcast lane."""
    n_mean = FIELD_SOURCE.mean_photon_number
    return _sps_argmax(n_mean, g2, loss, channel, FIELD_PROTO, FIELD_SEC)[2].tolist()


def _non_increasing(rates):
    # A 1-ulp step of the input can round into a rise of a few ulps at
    # the same tuned point: 3 ulps (3.4e-16 relative) for the SPS at
    # g2 <n> = 1, 7 ulps (1.2e-15) for the WCP at losses [0, 2.7e-16].
    # A rise of up to 1e-12 of the rate is taken for that rounding.
    return all(later - earlier <= 1e-12 * earlier for earlier, later in zip(rates, rates[1:]))


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
@example([3.4246575342465753, 3.4246575342465757])  # 1 ulp below and at 1/<n>
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
@example([0.0, 2.702212228820446e-16], "hoeffding")  # eta moves by 1 ulp
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


# The WCP twin of test_block_size_convergence_from_below: the tuned finite
# comparator approaches, from below, its exact-decoy limit on the same 50:50
# receiver. That limit's rate is q_z_tx q_z_rx times a function of mu alone,
# so it takes the largest basis ratio and one golden search over mu.
@pytest.mark.parametrize("concentration", ["hoeffding", "chernoff"])
@pytest.mark.parametrize("loss_db", [0.0, 14.6, 30.0])
def test_tuned_wcp_rate_rises_with_block_to_the_exact_decoy_limit(loss_db, concentration):
    channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
    rates = [
        optimized_wcp_rate(
            channel, replace(FIELD_PROTO, block_size=10.0**k), FIELD_SEC, concentration
        )[0]
        for k in range(6, 17)
    ]
    limit_proto = replace(FIELD_PROTO, q_z_tx=max(Q_TX_GRID), q_z_rx=WCP_RECEIVER_Z_RATIO)

    def limit_at(mu):
        return wcp_asymptotic_practical_rate(mu, channel, limit_proto, FIELD_SEC)

    limit = limit_at(_golden_max(limit_at, 1e-3, 1.0))
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= limit


# Pre-attenuation maps (<n>, g2) to (t<n>, g2), so at a fixed g2 a brighter
# source does at least as well: the finite-boundary g2 does not fall as <n>
# grows. The bisection places each g2 only within its last bracket, so the
# property is checked where it is decided: every point still matches the
# WCP rate at each dimmer point's g2. The slack is the tuner's resolution,
# not rounding: the 30-step pre-attenuation search leaves the tuned rate up
# to 4e-12 below its optimum as <n> moves (3e-15 with 45 steps).
@settings(max_examples=5, deadline=None)
@given(
    st.sampled_from([0.0, 5.0, 14.6]),
    st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=2, max_size=8),
)
@example(0.0, _geometric_grid(25))
@example(5.0, _geometric_grid(25))
@example(14.6, _geometric_grid(25))
def test_finite_boundary_g2_does_not_fall_as_mean_grows(loss_db, grid):
    curve = finite_boundary(loss_db, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
    n_mean, g2 = np.array(curve.points).T
    dim, bright = np.triu_indices(n_mean.size, 1)
    ch = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
    r_wcp, _, _ = optimized_wcp_rate(ch, FIELD_PROTO, FIELD_SEC)
    rates = _sps_argmax(n_mean[bright], g2[dim], loss_db, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)[2]
    assert np.all(rates >= r_wcp * (1.0 - 1e-11))
