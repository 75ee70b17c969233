"""Photon-number distribution construction, attenuation and moments."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrates.photon_source import (
    NonPhysicalSource,
    PhotonNumberDistribution,
    SourceKind,
    SourceSpec,
    UndefinedG2,
    attenuate,
    moments,
    sps_distribution,
    wcp_distribution,
)

NORM_TOL = 1e-12


def vacuum(n_max: int = 2) -> PhotonNumberDistribution:
    return PhotonNumberDistribution((1.0,) + (0.0,) * n_max)


class TestSpsDistribution:
    def test_field_point_closed_form(self):
        # Two-moment system: p2 = g2 <n>^2 / 2, p1 = <n> - 2 p2.
        dist = sps_distribution(0.292, 0.00698)
        assert dist.probs[0] == pytest.approx(0.70829757136, abs=1e-12)
        assert dist.probs[1] == pytest.approx(0.29140485728, abs=1e-12)
        assert dist.probs[2] == pytest.approx(2.9757136e-4, abs=1e-12)

    def test_perfect_single_photon_source(self):
        dist = sps_distribution(1.0, 0.0)
        assert dist.probs == (0.0, 1.0, 0.0)

    def test_boundary_pair_keeps_moments(self):
        # g2 <n> = 1 zeroes out p1 but stays physical.
        dist = sps_distribution(0.5, 2.0)
        assert dist.probs == pytest.approx((0.75, 0.0, 0.25), abs=1e-15)
        mean, g2 = moments(dist)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert g2 == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n_mean,g2", [(0.5, 2.1), (1.2, 1.0), (2.5, 0.0), (0.5, 2.0 * (1 + 1e-13))]
    )
    def test_non_physical_pairs_raise(self, n_mean, g2):
        with pytest.raises(NonPhysicalSource):
            sps_distribution(n_mean, g2)

    def test_zero_mean_rejected(self):
        with pytest.raises(NonPhysicalSource):
            sps_distribution(0.0, 0.1)


class TestWcpDistribution:
    def test_single_photon_probability_at_mu_one(self):
        dist = wcp_distribution(1.0, 10)
        assert dist.probs[1] == pytest.approx(1.0 / math.e, abs=1e-12)

    def test_vacuum(self):
        dist = wcp_distribution(0.0, 10)
        assert dist.probs[0] == 1.0
        assert sum(dist.probs[1:]) == 0.0

    def test_poisson_terms(self):
        dist = wcp_distribution(0.5, 10)
        for k, expected in enumerate(
            0.5**n * math.exp(-0.5) / math.factorial(n) for n in range(3)
        ):
            assert dist.probs[k] == pytest.approx(expected, abs=1e-12)

    def test_tail_absorbed(self):
        dist = wcp_distribution(0.8, 3)
        body = sum(0.8**n * math.exp(-0.8) / math.factorial(n) for n in range(3))
        assert dist.probs[3] == pytest.approx(1.0 - body, abs=1e-12)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=NORM_TOL)

    def test_cutoff_below_two_rejected(self):
        with pytest.raises(NonPhysicalSource):
            wcp_distribution(0.5, 1)


class TestAttenuate:
    def test_identity(self):
        dist = sps_distribution(0.292, 0.00698)
        assert attenuate(dist, 1.0) is dist

    def test_full_blocking(self):
        dist = sps_distribution(0.292, 0.00698)
        out = attenuate(dist, 0.0)
        assert out.probs[0] == pytest.approx(1.0, abs=NORM_TOL)
        assert sum(out.probs[1:]) == pytest.approx(0.0, abs=NORM_TOL)

    def test_moments_scale_and_g2_invariant(self):
        dist = sps_distribution(0.292, 0.00698)
        mean, g2 = moments(attenuate(dist, 0.5))
        assert mean == pytest.approx(0.146, abs=1e-12)
        assert g2 == pytest.approx(0.00698, abs=1e-9)

    def test_matches_exhaustive_enumeration(self):
        # Oracle: enumerate every per-photon survival pattern explicitly.
        dist = wcp_distribution(0.7, 5)
        t = 0.37
        expected = [0.0] * (dist.n_max + 1)
        for n, p_n in enumerate(dist.probs):
            for pattern in itertools.product((0, 1), repeat=n):
                k = sum(pattern)
                expected[k] += p_n * t**k * (1.0 - t) ** (n - k)
        out = attenuate(dist, t)
        for k in range(dist.n_max + 1):
            assert out.probs[k] == pytest.approx(expected[k], abs=1e-12)

    def test_out_of_range_transmittance(self):
        with pytest.raises(ValueError):
            attenuate(vacuum(), 1.5)


class TestMoments:
    def test_round_trip_field_point(self):
        mean, g2 = moments(sps_distribution(0.292, 0.00698))
        assert mean == pytest.approx(0.292, abs=1e-12)
        assert g2 == pytest.approx(0.00698, abs=1e-12)

    def test_poissonian_g2_is_one(self):
        _, g2 = moments(wcp_distribution(0.5, 40))
        assert g2 == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_has_no_g2(self):
        with pytest.raises(UndefinedG2):
            moments(vacuum())


class TestSourceSpec:
    def test_sps_distribution_dispatch(self):
        spec = SourceSpec(SourceKind.SPS, 0.292, 0.00698)
        assert spec.distribution().n_max == 2

    def test_wcp_distribution_dispatch(self):
        spec = SourceSpec(SourceKind.WCP, 0.5)
        dist = spec.distribution(n_max=15)
        assert dist.n_max == 15

    def test_invalid_pair_rejected(self):
        with pytest.raises(NonPhysicalSource):
            SourceSpec(SourceKind.SPS, 0.8, 1.5)


# Property suites.

# Mean <= 1 with g2*mean <= 1 keeps all three probabilities in [0, 1].
valid_pairs = st.tuples(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
).filter(lambda pair: pair[0] * pair[1] <= 1.0)


@given(valid_pairs)
def test_normalization_and_round_trip(pair):
    n_mean, g2 = pair
    dist = sps_distribution(n_mean, g2)
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=NORM_TOL)
    mean_out, g2_out = moments(dist)
    assert mean_out == pytest.approx(n_mean, abs=NORM_TOL, rel=1e-12)
    if g2 > 0:
        assert g2_out == pytest.approx(g2, rel=1e-9)


@given(st.floats(min_value=0.0, max_value=1.5), st.integers(min_value=2, max_value=25))
def test_wcp_normalization(mu, n_max):
    dist = wcp_distribution(mu, n_max)
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=NORM_TOL)


@settings(max_examples=150)
@given(valid_pairs, st.floats(min_value=1e-3, max_value=1.0))
def test_g2_loss_invariance(pair, t):
    n_mean, g2 = pair
    thinned = attenuate(sps_distribution(n_mean, g2), t)
    mean_out, g2_out = moments(thinned)
    assert mean_out == pytest.approx(t * n_mean, rel=1e-12, abs=1e-15)
    if g2 > 0:
        assert g2_out == pytest.approx(g2, rel=1e-9)


@settings(max_examples=150)
@given(
    st.floats(min_value=0.0, max_value=1.4),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_attenuation_composition(mu, t1, t2):
    dist = wcp_distribution(mu, 8)
    once = attenuate(dist, t1 * t2)
    twice = attenuate(attenuate(dist, t1), t2)
    for a, b in zip(once.probs, twice.probs):
        assert a == pytest.approx(b, abs=1e-12)
