"""CLI outputs on the bundled field.cfg, pinned against committed expected text.

The expected files in ``tests/data`` hold the outputs of the code
before each protocol's scalar and array key lengths became one
implementation, ``simulate``'s output before its child streams were
seeded in one array pass, the ``optimize`` and finite ``boundary``
outputs before the float and lane golden-section searches became one,
and the asymptotic ``boundary`` outputs before its bisection became the
closed-form root. Every number must agree within 1e-12
relative rather than exactly, because NumPy's ``exp`` and ``log2`` may
round differently on another CPU; the text between numbers must match
exactly.
"""

import math
import re
from pathlib import Path

import pytest

from keyrates.cli import bundled_field_config, run

DATA = Path(__file__).parent / "data"
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
    ],
)
def test_output_matches_pinned_text(tmp_path, capsys, argv, expected):
    paths = {"field": bundled_field_config(), "wcp": wcp_config(tmp_path)}
    assert run([arg.format(**paths) for arg in argv]) == 0
    assert_agrees(capsys.readouterr().out, (DATA / expected).read_text())


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
