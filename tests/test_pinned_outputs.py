"""CLI outputs on the bundled field.cfg, pinned against committed expected text.

The expected files in ``tests/data`` hold the outputs of the code
before each protocol's scalar and array key lengths became one
implementation, ``simulate``'s output before its child streams were
seeded in one array pass, the ``optimize`` and finite ``boundary``
outputs before the float and lane golden-section searches became one,
the asymptotic ``boundary`` outputs before its bisection became the
closed-form root, and two short ``optimize`` runs before each GA
generation's children were built in one array pass. Every number must
agree within 1e-12 relative rather than exactly, because NumPy's ``exp``
and ``log2`` may round differently on another CPU; the text between
numbers must match exactly.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from keyrates.cli import bundled_field_config, run

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
WCP_INTENSITIES = "mu_signal = 0.5\nmu_decoy = 0.15\np_signal = 0.7\np_decoy = 0.2\n"


def assert_agrees(got: str, expected: str) -> None:
    assert NUMBER.split(got) == NUMBER.split(expected)
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(expected)):
        assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0), (a, b)


def wcp_config(tmp_path) -> str:
    text = Path(bundled_field_config()).read_text()
    path = tmp_path / "wcp.cfg"
    path.write_text(text.replace("source_kind = sps", "source_kind = wcp") + WCP_INTENSITIES)
    return str(path)


def run_python(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """``python args`` in a child that imports keyrates from ``SRC``."""
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["rate", "{field}"], "field_rate.txt"),
        (["rate", "{wcp}"], "field_rate_wcp.txt"),
        (["compare", "{field}"], "field_compare.txt"),
        (
            ["sweep", "{field}", "--loss-min", "0", "--loss-max", "30", "--steps", "31"],
            "field_sweep_0_30_31.csv",
        ),
        (["optimize", "{field}", "--target", "sps", "--seed", "7"], "field_optimize_sps_7.txt"),
        (["optimize", "{field}", "--target", "wcp", "--seed", "7"], "field_optimize_wcp_7.txt"),
        (
            ["boundary", "{field}", "--mode", "finite", "--loss", "0"],
            "field_boundary_finite_0.csv",
        ),
        (
            ["boundary", "{field}", "--mode", "asymptotic", "--loss", "0"],
            "field_boundary_asymptotic_0.csv",
        ),
        (
            ["boundary", "{field}", "--mode", "asymptotic", "--loss", "14.6"],
            "field_boundary_asymptotic_14.6.csv",
        ),
        (
            ["optimize", "{field}", "--target", "sps", "--seed", "3"]
            + ["--population", "5", "--generations", "40"],
            "field_optimize_sps_3_p5_g40.txt",
        ),
        (
            ["optimize", "{field}", "--target", "wcp", "--seed", "0", "--generations", "30"],
            "field_optimize_wcp_0_g30.txt",
        ),
        (
            ["boundary", "{field}", "--mode", "finite", "--loss", "14.6"],
            "field_boundary_finite_14.6.csv",
        ),
    ],
)
def test_output_matches_pinned_text(tmp_path, capsys, argv, expected):
    paths = {"field": bundled_field_config(), "wcp": wcp_config(tmp_path)}
    assert run([arg.format(**paths) for arg in argv]) == 0
    assert_agrees(capsys.readouterr().out, (DATA / expected).read_text())


def test_module_entry_point_prints_the_pinned_rate_and_exit_codes(tmp_path):
    # `python -m keyrates.cli` goes through main() and sys.exit; the tests
    # above call `run` in this process.
    result = run_python("-m", "keyrates.cli", "rate", bundled_field_config())
    assert result.returncode == 0, result.stderr
    assert_agrees(result.stdout, (DATA / "field_rate.txt").read_text())
    missing = tmp_path / "missing.cfg"
    result = run_python("-m", "keyrates.cli", "rate", str(missing))
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot read {missing}: ")


def test_agreement_check_catches_a_changed_digit():
    pinned = (DATA / "field_compare.txt").read_text()
    assert_agrees(pinned, pinned)
    with pytest.raises(AssertionError):
        assert_agrees(pinned.replace("3.3363515167086182", "3.3363515167186182"), pinned)


def test_simulate_matches_pinned_text(capsys):
    argv = ["simulate", bundled_field_config(), "--reps", "300", "--seed", "42"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert_agrees(out, (DATA / "field_simulate_300_42.csv").read_text())
    assert_agrees(err, "# mean_rate = 1.167599022e-03\n# failures = 0\n")


# NumPy dispatches exp, expm1, log and log2 to AVX-512 loops where the CPU
# has them, and those round differently from the AVX2 and baseline loops.
# A child with that dispatch switched off must print the same texts, and
# its lane scorers must equal the float scorers bit for bit. It fails
# first if the variable left any of the switched-off targets on.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
NO_AVX512_CHECK = (
    "import os, sys\n"
    "import numpy as np\n"
    "features = (getattr(np, '_core', None) or np.core)._multiarray_umath.__cpu_features__\n"
    "left_on = [f for f in os.environ['NPY_DISABLE_CPU_FEATURES'].split() if features.get(f)]\n"
    "assert not left_on, left_on\n"
)
NO_AVX512_CHILD = NO_AVX512_CHECK + "from keyrates.cli import run\nsys.exit(run(sys.argv[1:]))\n"

# Prints the number of points where each lane scorer differs from its
# float scorer: SPS, then WCP under Hoeffding and under Chernoff.
LANES_AGAINST_FLOATS = """
from dataclasses import replace
from keyrates.cli import bundled_field_config, load_config
from keyrates.finite_key.comparison import WCP_RECEIVER_Z_RATIO, _wcp_rate_or_zero
from keyrates.finite_key.core import InsufficientBlock, _sps_lanes, sps_expected_rate
from keyrates.finite_key.wcp import _wcp_lanes
from keyrates.photon_source import NonPhysicalSource, SourceKind, SourceSpec, UndefinedG2

config = load_config(bundled_field_config())
channel, proto, sec = config.channel, config.proto, config.sec
wcp_proto = replace(proto, q_z_rx=WCP_RECEIVER_Z_RATIO)
rng, n = np.random.default_rng(0), 2000
loss, n_mean, g2 = rng.uniform(0, 40, n), rng.uniform(0.05, 1, n), rng.uniform(0, 0.5, n)
q, t = rng.uniform(0.5, 0.99, n), 10.0 ** rng.uniform(-4, 0, n)
mu_s = rng.uniform(0.1, 1, n)
mu_d, p_s = mu_s * rng.uniform(0.05, 0.9, n), rng.uniform(0.5, 0.95, n)
p_d = (1 - p_s) * rng.uniform(0.1, 0.9, n)
points = list(zip(*(a.tolist() for a in (loss, n_mean, g2, q, t, mu_s, mu_d, p_s, p_d))))

def mismatches(lanes, floats):
    return sum(a != b for a, b in zip(lanes.tolist(), floats))

def sps_rate(loss, n_mean, g2, q, t):
    try:
        return sps_expected_rate(
            SourceSpec(SourceKind.SPS, n_mean, g2), replace(channel, channel_loss_db=loss),
            replace(proto, q_z_tx=q, pre_attenuation=t), sec,
        ).rate_per_pulse
    except (InsufficientBlock, NonPhysicalSource, UndefinedG2):
        return 0.0

counts = [mismatches(
    _sps_lanes(n_mean, g2, q, loss, channel, proto, sec)(t),
    [sps_rate(*point[:5]) for point in points],
)]
for concentration in ("hoeffding", "chernoff"):
    counts.append(mismatches(
        _wcp_lanes(loss, channel, wcp_proto, sec, concentration)(mu_s, mu_d, p_s, p_d, q),
        [_wcp_rate_or_zero(ms, md, ps, pd, qq, replace(channel, channel_loss_db=l),
                           wcp_proto, sec, concentration)
         for l, _, _, qq, _, ms, md, ps, pd in points],
    ))
print(*counts)
"""


def run_without_avx512(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a child whose NumPy has AVX-512 dispatch off."""
    return run_python("-c", code, *args, NPY_DISABLE_CPU_FEATURES=NO_AVX512)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["boundary", "{field}", "--mode", "finite", "--loss", "0"], "field_boundary_finite_0.csv"),
        (["compare", "{field}"], "field_compare.txt"),
        (
            ["sweep", "{field}", "--loss-min", "0", "--loss-max", "30", "--steps", "31"],
            "field_sweep_0_30_31.csv",
        ),
    ],
)
def test_output_matches_pinned_text_without_avx512_dispatch(argv, expected):
    args = [arg.format(field=bundled_field_config()) for arg in argv]
    result = run_without_avx512(NO_AVX512_CHILD, *args)
    assert result.returncode == 0, result.stderr
    assert_agrees(result.stdout, (DATA / expected).read_text())


def test_lanes_equal_float_scores_without_avx512_dispatch():
    # 2,000 fixed random points, 0-40 dB. With AVX-512 on, NumPy's exp and
    # log round differently from math's, and some points differ.
    result = run_without_avx512(NO_AVX512_CHECK + LANES_AGAINST_FLOATS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0", "0"]


# A link where the WCP lane tuner and the float tuner part on an AVX-512
# host (rate 3.5222212631526335e-05 at mu_signal 0.46932... against
# 3.522213695571413e-05 at 0.46928...): a lane score rounds differently
# from its float score and a golden search takes the other branch.
# Printed as "True" where both tuners return the same tuple.
WCP_TUNERS_AT_ONE_LINK = """
from dataclasses import replace
from keyrates.channel import ChannelDetectorModel
from keyrates.finite_key.comparison import _tune_wcp, optimized_wcp_rate
from keyrates.finite_key.core import ProtocolConfig, SecurityParams

channel = ChannelDetectorModel(14.6, 0.6, 0.712, 0.0, 3.42e-9, 0.015401581602959095)
proto = ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=10.0**6.910985652491675)
sec = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-15, 1.16)
loss = 27.106334219274718
(lane,) = _tune_wcp([loss], channel, proto, sec, "hoeffding")
rate, intensities, cfg = optimized_wcp_rate(
    replace(channel, channel_loss_db=loss), proto, sec, "hoeffding"
)
print(lane == (rate, intensities, cfg.q_z_tx))
"""


def test_wcp_lane_tuner_equals_float_tuner_without_avx512_dispatch():
    result = run_without_avx512(NO_AVX512_CHECK + WCP_TUNERS_AT_ONE_LINK)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"]
