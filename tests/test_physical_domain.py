"""Each physical-domain predicate against the constructors that enforce it.

``_sps_valid``, ``_wcp_valid`` and ``_protocol_valid`` are the masks of
the lane kernels. On floats each returns a bool, on arrays a mask, and
either is false exactly where the scalar path raises: ``SourceSpec``
plus ``distribution()``, ``WcpIntensities`` and ``ProtocolConfig``.
Every drawn point is scored in one array beside a point inside the
domain and one outside it, so a predicate written with ``and``, ``not``
or ``~`` fails here. The strategies straddle every edge by a few ulps.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrates.finite_key.core import ProtocolConfig, _protocol_valid
from keyrates.finite_key.wcp import WcpIntensities, _wcp_valid
from keyrates.photon_source import NonPhysicalSource, SourceKind, SourceSpec, _sps_valid

ULPS = st.integers(-3, 3)
WIDE = st.one_of(
    st.floats(-0.5, 3.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 1e300, math.inf, math.nan]),
)


def nudge(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def raises(build, error) -> bool:
    try:
        build()
    except error:
        return True
    return False


def assert_mask_matches(predicate, point, inside, outside, scalar_raises):
    """``predicate`` on floats and in a three-lane array agrees with the scalar path."""
    accepted = predicate(*point)
    assert type(accepted) is bool
    assert accepted is not scalar_raises
    with np.errstate(all="ignore"):
        mask = predicate(*(np.array(column) for column in zip(point, inside, outside)))
    assert mask.tolist() == [accepted, True, False]


@st.composite
def sps_pairs(draw):
    """(<n>, g2) anywhere, on g2 <n> = 1, or on p0 = 0, then a few ulps off."""
    n_mean = draw(WIDE)
    edge = draw(st.sampled_from(["free", "bounded", "vacuum"]))
    if edge == "free" or not 1e-3 < n_mean < 1e3:
        g2 = draw(WIDE)
    elif edge == "bounded":
        g2 = 1.0 / n_mean
    else:
        g2 = 2.0 * (n_mean - 1.0) / (n_mean * n_mean)
    return nudge(n_mean, draw(ULPS)), nudge(g2, draw(ULPS))


@settings(max_examples=400, deadline=None)
@given(point=sps_pairs())
@example(point=(0.5, 2.0))  # g2 <n> = 1
@example(point=(0.5, 2.0 * (1 + 1e-13)))
@example(point=(2.0, 0.5))  # p0 = 0 at g2 <n> = 1
@example(point=(1.0, 0.0))  # p0 = 0
@example(point=(1.0 + 1e-12, 0.0))  # p0 just below -NORMALIZATION_TOL
@example(point=(0.0, 0.1))
@example(point=(0.5, -0.0))
@example(point=(math.nan, 0.1))
def test_sps_mask_is_false_exactly_where_the_source_raises(point):
    def build():
        SourceSpec(SourceKind.SPS, *point).distribution()

    assert_mask_matches(
        _sps_valid, point, (0.292, 0.00698), (2.5, 0.0), raises(build, NonPhysicalSource)
    )


@st.composite
def wcp_points(draw):
    """(mu_s, mu_d, p_s, p_d) anywhere, or on mu_d = mu_s, mu_d = 0 or a
    computed vacuum of 0, then a few ulps off."""
    mu_s = draw(WIDE)
    mu_d = draw(st.sampled_from([mu_s, 0.0, draw(WIDE)]))
    p_s = draw(st.one_of(WIDE, st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])))
    p_d = draw(st.sampled_from([1.0 - p_s, round(1.0 - p_s, 1), 0.0, draw(WIDE)]))
    return tuple(nudge(x, draw(ULPS)) for x in (mu_s, mu_d, p_s, p_d))


@settings(max_examples=400, deadline=None)
@given(point=wcp_points())
@example(point=(0.5, 0.5, 0.7, 0.2))  # mu_d = mu_s
@example(point=(0.5, 0.0, 0.7, 0.2))  # mu_d = 0
@example(point=(0.5, 0.15, 0.8, 0.2))  # the vacuum computes to -5.6e-17
@example(point=(0.5, 0.15, 0.5, 0.5))  # the vacuum computes to 0
@example(point=(0.5, 0.15, -0.0, 1.0))
def test_wcp_mask_is_false_exactly_where_the_intensities_raise(point):
    assert_mask_matches(
        _wcp_valid,
        point,
        (0.5, 0.15, 0.7, 0.2),
        (0.5, 0.6, 0.7, 0.2),
        raises(lambda: WcpIntensities(*point), ValueError),
    )


RATIO = st.one_of(
    WIDE, st.sampled_from([0.0, 1.0]).flatmap(lambda edge: ULPS.map(lambda u: nudge(edge, u)))
)


@settings(max_examples=400, deadline=None)
@given(
    q_z_tx=RATIO,
    q_z_rx=st.one_of(st.just(0.9), RATIO),
    block_size=st.one_of(st.just(1e8), ULPS.map(lambda u: nudge(1.0, u)), WIDE),
    pre_attenuation=RATIO,
)
@example(q_z_tx=0.0, q_z_rx=0.9, block_size=1e8, pre_attenuation=1.0)
@example(q_z_tx=1.0, q_z_rx=0.9, block_size=1e8, pre_attenuation=1.0)
@example(q_z_tx=0.9, q_z_rx=0.9, block_size=1e8, pre_attenuation=0.0)
@example(q_z_tx=0.9, q_z_rx=0.9, block_size=1e8, pre_attenuation=1.0)
@example(q_z_tx=0.9, q_z_rx=0.9, block_size=1.0, pre_attenuation=0.5)
def test_protocol_mask_is_false_exactly_where_the_config_raises(
    q_z_tx, q_z_rx, block_size, pre_attenuation
):
    point = (q_z_tx, q_z_rx, block_size, pre_attenuation)
    assert_mask_matches(
        _protocol_valid,
        point,
        (0.9, 0.9, 1e8, 1.0),
        (0.9, 0.9, 1e8, 0.0),
        raises(lambda: ProtocolConfig(*point), ValueError),
    )
