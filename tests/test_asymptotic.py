"""Asymptotic rate formulas and the coherent-state advantage boundary."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrates.asymptotic import (
    EmptyCurve,
    advantage_boundary,
    boundary_g2,
    boundary_min_mean,
    eta_threshold,
    sps_asymptotic_rate,
    sps_rate_fixed_mean,
    wcp_asymptotic_rate,
)


def ternary_max(f, lo, hi, iterations=200):
    """Independent maximiser used as the optimisation oracle."""
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return f(0.5 * (lo + hi))


class TestWcpAsymptoticRate:
    def test_unit_transmittance_is_one_over_e(self):
        assert wcp_asymptotic_rate(1.0) == pytest.approx(1.0 / math.e, abs=1e-15)

    def test_zero(self):
        assert wcp_asymptotic_rate(0.0) == 0.0

    def test_linear_in_eta(self):
        assert wcp_asymptotic_rate(0.5) == pytest.approx(0.183940, abs=5e-7)
        for i in range(1, 51):
            eta = i / 50.0
            assert wcp_asymptotic_rate(eta) == pytest.approx(
                eta * wcp_asymptotic_rate(1.0), rel=1e-12
            )


class TestEtaThreshold:
    def test_vanishing_discriminant(self):
        assert eta_threshold(1.0, 0.5) == 1.0
        assert eta_threshold(2.0, 0.25) == 1.0

    def test_saturation_beyond_half(self):
        assert eta_threshold(1.0, 0.8) == 1.0

    def test_closed_form_values(self):
        assert eta_threshold(1.0, 0.1) == pytest.approx(0.10102051443364402, abs=1e-12)
        assert eta_threshold(0.292, 0.00698) == pytest.approx(
            0.0020381684667710297, abs=1e-12
        )

    def test_small_x_series(self):
        # eta_th = x + x^3 + O(x^5) for small x = g2 <n>.
        x = 0.00698 * 0.292
        assert eta_threshold(0.292, 0.00698) == pytest.approx(x + x**3, rel=1e-6)

    def test_zero_g2(self):
        assert eta_threshold(1.0, 0.0) == 0.0

    def test_small_x_keeps_its_digits(self):
        # (1 - sqrt(1 - 4x^2)) / (2x) cancels as x shrinks and reaches 0
        # by x = 1e-10; 2x / (1 + sqrt(1 - 4x^2)) is the same root.
        for k in range(1, 16):
            x = 10.0**-k
            with localcontext() as ctx:
                ctx.prec = 60
                x_d = Decimal(x)
                exact = 2 * x_d / (1 + (1 - 4 * x_d * x_d).sqrt())
            assert eta_threshold(1.0, x) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_small_x_takes_the_attenuated_branch(self):
        # eta = 1e-10 lies below eta_th(1, 2e-10) ~ 2e-10, so the source
        # is pre-attenuated; a threshold cancelled to 0 would pick the
        # fixed-mean branch, whose rate is 0 here.
        assert sps_asymptotic_rate(1e-10, 1.0, 2e-10) == pytest.approx(2.5e-11, rel=1e-12)


class TestSpsAsymptoticRate:
    def test_ideal_source_is_linear(self):
        assert sps_asymptotic_rate(0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_field_point_branch_one(self):
        # Frozen from the closed form at the quoted transmittance.
        assert sps_asymptotic_rate(0.0148127, 0.292, 0.00698) == pytest.approx(
            0.004027671748058285, abs=1e-15
        )

    def test_branch_two_region(self):
        # eta_th(1, 0.1) = 0.101 > 0.05 puts this in the attenuated branch.
        assert sps_asymptotic_rate(0.05, 1.0, 0.1) == pytest.approx(
            0.012468827930174566, abs=1e-15
        )
        assert sps_rate_fixed_mean(0.05, 1.0, 0.1) == pytest.approx(-1.25e-4, abs=1e-12)

    def test_zero_transmittance(self):
        assert sps_asymptotic_rate(0.0, 0.5, 0.1) == 0.0


class TestFundamentalBounds:
    # At zero loss the advantage needs <n> >= 1/e and g2 <= e/4.

    def test_zero_loss_break_even_at_min_mean(self):
        assert sps_asymptotic_rate(1.0, 1.0 / math.e, 0.0) == pytest.approx(
            wcp_asymptotic_rate(1.0), rel=1e-12
        )

    def test_branch_two_break_even_at_max_g2(self):
        # At eta = 1 the attenuated branch is 1/(4 g2); equating to 1/e
        # gives g2 = e/4.
        assert sps_asymptotic_rate(1.0, 2.0, math.e / 4.0) == pytest.approx(
            wcp_asymptotic_rate(1.0), rel=1e-12
        )


def continuity_grid():
    means = [0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.42, 0.5, 0.7, 0.85, 1.0, 1.3, 1.7]
    g2s = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    return [
        (n, g) for n in means for g in g2s if 0.0 < n * g <= 0.5
    ]


class TestBranchStructure:
    def test_piecewise_continuity_at_threshold(self):
        pairs = continuity_grid()
        assert len(pairs) >= 100
        for n_mean, g2 in pairs:
            eta_th = eta_threshold(n_mean, g2)
            branch1 = sps_rate_fixed_mean(eta_th, n_mean, g2)
            branch2 = eta_th**2 / (2.0 * g2 * (eta_th**2 + 1.0))
            assert abs(branch1 - branch2) <= 1e-9

    def test_attenuation_optimum_identity(self):
        # The attenuated branch equals the fixed-mean rate maximised over
        # the effective mean, attained at eta / (g2 (eta^2 + 1)).
        for eta in (0.01, 0.05, 0.2):
            for g2 in (0.05, 0.1, 0.3):
                best = ternary_max(
                    lambda n: sps_rate_fixed_mean(eta, n, g2), 1e-9, 10.0
                )
                branch2 = eta**2 / (2.0 * g2 * (eta**2 + 1.0))
                assert best == pytest.approx(branch2, abs=1e-8)
                n_star = eta / (g2 * (eta**2 + 1.0))
                assert sps_rate_fixed_mean(eta, n_star, g2) == pytest.approx(
                    branch2, rel=1e-12
                )

    def test_branch_two_dominates_below_threshold(self):
        for n_mean, g2 in continuity_grid():
            eta_th = eta_threshold(n_mean, g2)
            for frac in (0.25, 0.5, 0.9, 1.0):
                eta = frac * eta_th
                if eta == 0.0:
                    continue
                branch2 = eta**2 / (2.0 * g2 * (eta**2 + 1.0))
                assert branch2 >= sps_rate_fixed_mean(eta, n_mean, g2) - 1e-12


class TestAdvantageBoundary:
    def test_zero_loss_endpoints(self):
        curve = advantage_boundary(0.0, [0.4, 0.5, 0.7, 1.0, 1.5, 2.0])
        assert curve.min_mean_photon_number == pytest.approx(1.0 / math.e, abs=1e-6)
        assert curve.max_g2 == pytest.approx(math.e / 4.0, abs=1e-6)

    def test_zero_loss_mean_one_is_on_the_plateau(self):
        # g2 <n> > 1/2 at the root, so the attenuated branch fixes the
        # boundary: 1/(4 g2) = 1/e, i.e. g2 = e/4, independent of <n>.
        g2 = boundary_g2(0.0, 1.0)
        assert g2 == pytest.approx(math.e / 4.0, abs=1e-9)

    def test_rate_match_on_every_point(self):
        for loss_db in (0.0, 10.0, 30.0):
            curve = advantage_boundary(loss_db, [0.4, 0.6, 1.0, 1.5])
            eta = 10.0 ** (-loss_db / 10.0)
            target = wcp_asymptotic_rate(eta)
            for n_mean, g2 in curve.points:
                rate = sps_asymptotic_rate(eta, n_mean, g2)
                assert abs(rate - target) <= 1e-9 * max(target, 1e-300)

    def test_monotone_frontier(self):
        curve = advantage_boundary(5.0, [0.38, 0.45, 0.55, 0.7, 0.9, 1.2, 1.6])
        g2s = [g2 for _, g2 in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(g2s, g2s[1:]))

    def test_min_mean_is_loss_independent(self):
        for loss_db in (0.0, 7.0, 20.0):
            assert boundary_min_mean(loss_db) == pytest.approx(
                1.0 / math.e, abs=1e-6
            )

    def test_empty_curve(self):
        with pytest.raises(EmptyCurve):
            advantage_boundary(0.0, [0.05, 0.1, 0.2])

    @pytest.mark.parametrize("loss_db", [80.0, 100.0, 200.0])
    def test_high_loss_points_are_the_break_even_root(self, loss_db):
        # The CLI's default 25-point grid.
        grid = [0.05 * (1.2 / 0.05) ** (i / 24) for i in range(25)]
        curve = advantage_boundary(loss_db, grid)
        eta = 10.0 ** (-loss_db / 10.0)
        assert curve.points[0] == (boundary_min_mean(loss_db), 0.0)
        assert len(curve.points) == 1 + sum(n > 1.0 / math.e for n in grid)
        for n_mean, g2 in curve.points[1:]:
            root = float(decimal_break_even_g2(eta, n_mean))
            assert g2 == pytest.approx(root, rel=1e-12, abs=0.0), n_mean


def decimal_break_even_g2(eta: float, n_mean: float) -> Decimal:
    """The g2 at which the SPS rate meets eta / e, to 60 digits.

    Up to <n> = 2/e the root lies on the fixed-mean branch, above it on
    the pre-attenuated one.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(1).exp()
        eta, n_mean = Decimal(eta), Decimal(n_mean)
        if n_mean <= 2 / e:
            return 2 * (n_mean * eta - eta / e) / (n_mean * n_mean * (eta * eta + 1))
        return e * eta / (2 * (eta * eta + 1))


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_rate_dominates_fixed_mean(eta, n_mean, g2):
    # Pre-attenuation can only help.
    assert sps_asymptotic_rate(eta, n_mean, g2) >= sps_rate_fixed_mean(
        eta, n_mean, g2
    ) - 1e-12
