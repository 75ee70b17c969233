"""CLI: config ingestion, subcommands, CSV schemas and exit codes."""

import math
import re
from pathlib import Path

import pytest

from keyrates.cli import (
    MAX_POINTS,
    MAX_POPULATION,
    MAX_REPS,
    REQUIRED_KEYS,
    ExperimentConfig,
    ParseError,
    ValidationError,
    _SIMULATE_BLOCK,
    build_parser,
    bundled_field_config,
    load_config,
    run,
)
from keyrates.finite_key.wcp import WcpIntensities
from keyrates.montecarlo import TrialSpec, iter_trials

FIELD_CFG_TEXT = """
clock_rate_hz = 76.13e6
source_kind = sps
mean_photon_number = 0.292
g2 = 0.00698
eta_qd = 0.71
eta_t = 0.410
channel_loss_db = 14.6
fiber_optics_efficiency = 0.6
detection_efficiency = 0.712
dark_count_rate_cps = 43
gate_width_s = 3.42e-9
misalignment_prob = 0.0254
q_z_tx = 0.9
q_z_rx = 0.9
block_size = 1e8
pre_attenuation = 1.0
eps_pe = 9.1666666667e-11
eps_pa = 4.1666666667e-12
eps_ec = 4.1666666667e-12
eps_cor = 1e-15
f_ec = 1.16
"""


@pytest.fixture
def field_cfg(tmp_path):
    path = tmp_path / "field.cfg"
    path.write_text(FIELD_CFG_TEXT)
    return str(path)


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_bundled_field_config(self):
        config = load_config(bundled_field_config())
        assert isinstance(config, ExperimentConfig)
        assert config.clock_rate_hz == pytest.approx(76.13e6)
        notes = config.consistency_report()
        assert len(notes) == 1
        assert "consistent" in notes[0]
        assert "0.2911" in notes[0]

    def test_empty_file_lists_required_keys(self, tmp_path):
        path = write_cfg(tmp_path, "")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        # The keys are the field names of the objects load_config builds,
        # so renaming a field would rename its key; this pins all of them.
        assert str(excinfo.value) == (
            "missing required keys: block_size, channel_loss_db, clock_rate_hz, "
            "dark_count_rate_cps, detection_efficiency, eps_cor, eps_pa, eps_pe, "
            "f_ec, fiber_optics_efficiency, g2, gate_width_s, mean_photon_number, "
            "misalignment_prob, pre_attenuation, q_z_rx, q_z_tx, source_kind"
        )

    def test_incomplete_decoy_group_lists_the_missing_keys(self, tmp_path):
        path = write_cfg(tmp_path, FIELD_CFG_TEXT + "mu_signal = 0.5\n")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == (
            "incomplete decoy description, missing: mu_decoy, p_signal, p_decoy"
        )

    def test_all_six_optional_keys_load(self, tmp_path):
        decoys = "mu_signal = 0.5\nmu_decoy = 0.15\np_signal = 0.7\np_decoy = 0.2\n"
        config = load_config(write_cfg(tmp_path, FIELD_CFG_TEXT + decoys))
        assert (config.eta_qd, config.eta_t) == (0.71, 0.410)
        assert config.wcp == WcpIntensities(0.5, 0.15, 0.7, 0.2)

    def test_non_physical_source_named(self, tmp_path):
        text = FIELD_CFG_TEXT.replace("g2 = 0.00698", "g2 = 4.0")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert "NonPhysicalSource" in str(excinfo.value)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_cfg(tmp_path, FIELD_CFG_TEXT + "wavelength_nm = 884.5\n")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert "wavelength_nm" in str(excinfo.value)
        assert "line" in str(excinfo.value)

    def test_malformed_line_is_parse_error(self, tmp_path):
        path = write_cfg(tmp_path, "clock_rate_hz 76e6\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_non_numeric_value_is_parse_error(self, tmp_path):
        path = write_cfg(tmp_path, FIELD_CFG_TEXT.replace("= 0.292", "= fast"))
        with pytest.raises(ParseError):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, FIELD_CFG_TEXT + "g2 = 0.001\n")
        with pytest.raises(ParseError):
            load_config(path)

    @pytest.mark.parametrize(
        "entry", ["g2 = nan", "f_ec = inf", "block_size = -inf", "eps_ec = nan"]
    )
    def test_non_finite_value_rejected_with_line(self, tmp_path, capsys, entry):
        key = entry.split(" = ")[0]
        lines = [
            entry if line.startswith(f"{key} = ") else line
            for line in FIELD_CFG_TEXT.splitlines()
        ]
        path = write_cfg(tmp_path, "\n".join(lines))
        assert run(["rate", path]) == 3
        err = capsys.readouterr().err
        assert f"line {lines.index(entry) + 1}: key {key!r} must be finite" in err

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_config("/nonexistent/path.cfg")


class TestRateCommand:
    def test_reports_field_rate_and_exact_clock_product(self, field_cfg, capsys):
        assert run(["rate", field_cfg]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            values[key] = float(value)
        assert values["rate_per_pulse"] == pytest.approx(1.08e-3, rel=0.25)
        assert values["rate_per_second"] == values["rate_per_pulse"] * 76.13e6
        assert values["rate_per_second"] == pytest.approx(82e3, rel=0.25)
        assert "# consistency:" in out

    @pytest.mark.parametrize("key", [key for key in REQUIRED_KEYS if key != "source_kind"])
    def test_every_required_key_reaches_the_rate(self, tmp_path, capsys, key):
        # A required key that no formula reads would leave the output as it is.
        field = Path(bundled_field_config()).read_text()
        assert run(["rate", bundled_field_config()]) == 0
        unmodified = capsys.readouterr().out
        text, count = re.subn(
            rf"^({key} = )(.*)$", lambda m: f"{m[1]}{float(m[2]) * 0.9!r}", field, flags=re.M
        )
        assert count == 1
        assert run(["rate", write_cfg(tmp_path, text)]) == 0
        assert capsys.readouterr().out != unmodified

    @pytest.mark.parametrize("command", ["rate", "compare"])
    def test_eps_ec_is_accepted_and_ignored(self, tmp_path, capsys, command):
        texts = (
            FIELD_CFG_TEXT,
            FIELD_CFG_TEXT.replace("eps_ec = 4.1666666667e-12", "eps_ec = 0.5"),
            FIELD_CFG_TEXT.replace("eps_ec = 4.1666666667e-12\n", ""),
        )
        assert "eps_ec" not in texts[2]
        outputs = []
        for index, text in enumerate(texts):
            assert run([command, write_cfg(tmp_path, text, f"case{index}.cfg")]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1:] == outputs[:1] * 2

    def test_validation_failure_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, FIELD_CFG_TEXT.replace("g2 = 0.00698", "g2 = 4.0"))
        assert run(["rate", path]) == 3

    def test_wcp_source_rate(self, tmp_path, capsys):
        text = FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
        text += "mu_signal = 0.5\nmu_decoy = 0.15\np_signal = 0.7\np_decoy = 0.2\n"
        path = write_cfg(tmp_path, text)
        assert run(["rate", path]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            values[key] = value
        assert float(values["rate_per_pulse"]) > 0.0

    def test_keyless_block_is_empty_result(self, tmp_path, capsys):
        # At 60 dB the multi-photon cap exceeds the whole Z block.
        text = FIELD_CFG_TEXT.replace("channel_loss_db = 14.6", "channel_loss_db = 60")
        assert run(["rate", write_cfg(tmp_path, text)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("empty result: multi-photon cap")

    @pytest.mark.parametrize(
        "loss, block, message",
        [
            # A short block leaves the single-photon Z bound negative.
            ("10", "1e3", "single-photon Z yield bound is negative"),
            # A huge block drives the sampling-correction log argument below 1.
            ("0", "1e30", "sampling correction"),
        ],
    )
    def test_infeasible_decoy_bounds_are_empty_results(
        self, tmp_path, capsys, loss, block, message
    ):
        text = (
            FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
            .replace("channel_loss_db = 14.6", f"channel_loss_db = {loss}")
            .replace("block_size = 1e8", f"block_size = {block}")
            + "mu_signal = 0.6\nmu_decoy = 0.15\np_signal = 0.75\np_decoy = 0.125\n"
        )
        assert run(["rate", write_cfg(tmp_path, text)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("empty result:")
        assert message in err[0]

    # 1 - 0.8 - 0.2 is -5.6e-17 in binary, so the vacuum probability is
    # read as 0. The rates are those with p_decoy = 1 - p_signal.
    @pytest.mark.parametrize(
        "p_signal, p_decoy, rate", [("0.8", "0.2", 0.0006157277760955888), ("0.9", "0.1", 0.0)]
    )
    def test_decimal_probabilities_summing_to_one_are_accepted(
        self, tmp_path, capsys, p_signal, p_decoy, rate
    ):
        text = FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
        text += f"mu_signal = 0.5\nmu_decoy = 0.15\np_signal = {p_signal}\np_decoy = {p_decoy}\n"
        assert run(["rate", write_cfg(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert f"rate_per_pulse = {format(rate, '.17g')}\n" in out

    def test_probabilities_beyond_the_tolerance_are_rejected(self, tmp_path):
        text = FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
        text += "mu_signal = 0.5\nmu_decoy = 0.15\np_signal = 0.8\np_decoy = 0.2000001\n"
        assert run(["rate", write_cfg(tmp_path, text)]) == 3

    def test_wcp_source_without_intensities_fails(self, tmp_path):
        text = FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
        path = write_cfg(tmp_path, text)
        assert run(["rate", path]) == 3

    def test_usage_error_exit_code(self):
        assert run(["rate"]) == 2
        assert run(["unknown-subcommand"]) == 2


WCP_CFG_TEXT = (
    FIELD_CFG_TEXT.replace("source_kind = sps", "source_kind = wcp")
    + "mu_signal = 0.5\nmu_decoy = 0.15\np_signal = 0.7\np_decoy = 0.2\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--loss-min", "0", "--loss-max", "6", "--steps", "3"],
        ["simulate", "--reps", "2", "--seed", "1"],
        ["compare"],
        ["optimize", "--target", "sps", "--population", "6", "--generations", "2"],
    ],
)
def test_sps_only_commands_reject_wcp_config(tmp_path, capsys, argv):
    path = write_cfg(tmp_path, WCP_CFG_TEXT)
    assert run([argv[0], path, *argv[1:]]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "source_kind = sps" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "{cfg}", "--population", "2"],
        ["optimize", "{cfg}", "--seed", "-1"],
        ["optimize", "{cfg}", "--generations", "-3"],
        ["simulate", "{cfg}", "--reps", "0", "--seed", "1"],
        ["simulate", "{cfg}", "--reps", "-5", "--seed", "1"],
        ["simulate", "{cfg}", "--reps", "2", "--seed", "-1"],
        ["sweep", "{cfg}", "--loss-min", "0", "--loss-max", "nan", "--steps", "3"],
        ["sweep", "{cfg}", "--loss-min", "-1", "--loss-max", "6", "--steps", "3"],
        ["sweep", "{cfg}", "--loss-min", "0", "--loss-max", "6", "--steps", "1"],
        ["boundary", "{cfg}", "--loss", "-1", "--mode", "finite"],
        ["boundary", "{cfg}", "--loss", "-1", "--mode", "asymptotic"],
        ["boundary", "{cfg}", "--loss", "inf", "--mode", "asymptotic"],
        ["sweep", "{cfg}", "--loss-min", "0", "--loss-max", "6", "--steps", "3",
         "-o", "{missing}"],
        ["simulate", "{cfg}", "--reps", "2", "--seed", "1", "-o", "{missing}"],
        ["simulate", "{cfg}", "--reps", "1000000000000", "--seed", "1"],
        ["optimize", "{cfg}", "--target", "sps", "--population", "1000000000000"],
    ],
)
def test_bad_arguments_are_usage_errors(field_cfg, tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    argv = [arg.format(cfg=field_cfg, missing=missing) for arg in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "argv, name, cap",
    [
        (["simulate", "cfg", "--seed", "1", "--reps"], "reps", MAX_REPS),
        (["optimize", "cfg", "--population"], "population", MAX_POPULATION),
        (["sweep", "cfg", "--loss-min", "0", "--loss-max", "6", "--steps"], "steps", MAX_POINTS),
        (
            ["boundary", "cfg", "--loss", "0", "--mode", "asymptotic", "--grid-points"],
            "grid_points",
            MAX_POINTS,
        ),
    ],
)
def test_sizing_arguments_are_capped_by_the_parser(capsys, argv, name, cap):
    # Parsing only: nothing is sized or allocated.
    assert getattr(build_parser().parse_args([*argv, str(cap)]), name) == cap
    for value in (cap + 1, 10**12):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, str(value)])
        assert exc.value.code == 2
        assert "must be an integer in [" in capsys.readouterr().err


def test_failure_probability_below_the_floor_is_config_error(tmp_path, capsys):
    # (21 / eps)^2 of the WCP sampling term would overflow a float.
    text = WCP_CFG_TEXT.replace("eps_pe = 9.1666666667e-11", "eps_pe = 1e-300")
    assert run(["rate", write_cfg(tmp_path, text)]) == 3
    assert "eps_pe must be in [1e-100, 1)" in capsys.readouterr().err


def test_dark_count_in_every_gate_is_config_error(tmp_path, capsys):
    text = FIELD_CFG_TEXT.replace("gate_width_s = 3.42e-9", "gate_width_s = 1")
    assert run(["rate", write_cfg(tmp_path, text)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: RateTooHigh:")


def test_more_pulses_than_binomial_sampling_takes_is_config_error(tmp_path, capsys):
    # A near-zero gain needs about 1e27 pulses per basis for the block.
    text = FIELD_CFG_TEXT.replace("fiber_optics_efficiency = 0.6", "fiber_optics_efficiency = 6e-10")
    text = text.replace("dark_count_rate_cps = 43", "dark_count_rate_cps = 4.3e-8")
    argv = ["simulate", write_cfg(tmp_path, text), "--reps", "1", "--seed", "0"]
    assert run(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: TooManyPulses:")


# Each subcommand that uses the configured SPS, with options that keep it short.
_SPS_COMMANDS = [
    ["rate"],
    ["sweep", "--loss-min", "0", "--loss-max", "1", "--steps", "2"],
    ["compare"],
    ["optimize", "--target", "sps", "--generations", "1"],
    ["simulate", "--reps", "1", "--seed", "0"],
]


@pytest.mark.parametrize("command", _SPS_COMMANDS, ids=lambda command: command[0])
def test_unphysical_launch_is_config_error(tmp_path, capsys, command):
    # The mean squared underflows, so the launched g2 is undefined.
    text = FIELD_CFG_TEXT.replace("mean_photon_number = 0.292", "mean_photon_number = 1e-300")
    name, *options = command
    assert run([name, write_cfg(tmp_path, text), *options]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: UndefinedG2:")


@pytest.mark.parametrize("command", _SPS_COMMANDS, ids=lambda command: command[0])
def test_source_with_negative_p0_is_config_error(tmp_path, capsys, command):
    # p0 = 1 - <n> + g2 <n>^2 / 2 < 0: no SPS has these moments, so the
    # tuning commands reject it as `rate` does instead of tuning it to 0.
    text = FIELD_CFG_TEXT.replace("mean_photon_number = 0.292", "mean_photon_number = 2.92")
    name, *options = command
    assert run([name, write_cfg(tmp_path, text), *options]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "error: NonPhysicalSource: (<n>=2.92, g2=0.00698) gives probabilities outside"
        " [0, 1]: (-1.89024, 2.86049, 0.0297571)"
    ]


@pytest.mark.parametrize(
    "argv", [["rate"], ["simulate", "--reps", "300", "--seed", "42"]], ids=["rate", "simulate"]
)
def test_cli_sps_point_work_counts(monkeypatch, capsys, argv):
    # One expectation and one array key-length call, whatever the trial count.
    from keyrates import montecarlo
    from keyrates.finite_key import core

    counts = {"expectation": 0, "key_lengths": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    key_lengths = counted("key_lengths", core._sps_key_lengths)
    monkeypatch.setattr(core, "_sps_expectation", counted("expectation", core._sps_expectation))
    monkeypatch.setattr(core, "_sps_key_lengths", key_lengths)
    monkeypatch.setattr(montecarlo, "_sps_key_lengths", key_lengths)
    assert run([argv[0], bundled_field_config(), *argv[1:]]) == 0
    capsys.readouterr()
    assert counts == {"expectation": 1, "key_lengths": 1}


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, field_cfg, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", field_cfg, "--loss-min", "0", "--loss-max", "6", "--steps", "3"]
        assert run(args + ["-o", str(out_a)]) == 0
        assert run(args + ["-o", str(out_b)]) == 0
        text = out_a.read_text()
        assert text == out_b.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "loss_db,r_sps,r_wcp,advantage_db"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert len(first) == 4
        # at least nine significant digits in every numeric cell
        for cell in first:
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 9


class TestBoundaryCommand:
    def test_asymptotic_mode_endpoints(self, field_cfg, capsys):
        code = run(
            [
                "boundary",
                field_cfg,
                "--loss",
                "0",
                "--mode",
                "asymptotic",
                "--grid-min",
                "0.4",
                "--grid-max",
                "1.2",
                "--grid-points",
                "6",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mean_photon_number,g2"
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert points[0][0] == pytest.approx(1.0 / math.e, abs=1e-5)
        assert max(g2 for _, g2 in points) == pytest.approx(math.e / 4.0, abs=1e-5)

    def test_finite_mode_csv(self, field_cfg, tmp_path):
        out = tmp_path / "finite.csv"
        code = run(
            [
                "boundary",
                field_cfg,
                "--loss",
                "0",
                "--mode",
                "finite",
                "--grid-min",
                "0.1",
                "--grid-max",
                "0.4",
                "--grid-points",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mean_photon_number,g2"
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert points[0][1] == 0.0  # bisected minimum-mean endpoint
        assert points[0][0] == pytest.approx(0.086, rel=0.2)

    def test_finite_mode_scores_an_underflowing_grid_point_zero(self, field_cfg, capsys):
        # <n> = 1e-300 squares to 0, so that grid point has no g2 and no
        # advantage; the curve is solved from the other points.
        grid_args = ["--grid-min", "1e-300", "--grid-max", "0.9", "--grid-points", "5"]
        argv = ["boundary", field_cfg, "--loss", "0", "--mode", "finite", *grid_args]
        assert run(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mean_photon_number,g2"
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(points) == 2
        assert points[0][1] == 0.0  # bisected minimum-mean endpoint
        assert points[1][0] == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "grid_args",
        [
            ["--grid-points", "1"],
            ["--grid-points", "x"],
            ["--grid-min", "0"],
            ["--grid-min", "-0.1"],
            ["--grid-min", "nan"],
            ["--grid-min", "x"],
            ["--grid-max", "inf"],
            ["--grid-min", "0.4", "--grid-max", "0.4"],
            ["--grid-min", "0.4", "--grid-max", "0.2"],
        ],
    )
    def test_degenerate_grid_is_usage_error(self, field_cfg, capsys, grid_args):
        argv = ["boundary", field_cfg, "--loss", "0", "--mode", "finite", *grid_args]
        assert run(argv) == 2
        assert "must be" in capsys.readouterr().err

    def test_empty_curve_exit_code(self, field_cfg):
        code = run(
            [
                "boundary",
                field_cfg,
                "--loss",
                "0",
                "--mode",
                "asymptotic",
                "--grid-min",
                "0.05",
                "--grid-max",
                "0.2",
                "--grid-points",
                "4",
            ]
        )
        assert code == 4


class TestSimulateCommand:
    def test_csv_schema_and_seed_determinism(self, field_cfg, tmp_path):
        cfg = write_cfg(tmp_path, FIELD_CFG_TEXT.replace("block_size = 1e8", "block_size = 1e6"))
        out_a = tmp_path / "sim_a.csv"
        out_b = tmp_path / "sim_b.csv"
        args = ["simulate", cfg, "--reps", "5", "--seed", "11"]
        assert run(args + ["-o", str(out_a)]) == 0
        assert run(args + ["-o", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        lines = out_a.read_text().strip().splitlines()
        assert lines[0] == "seed,n_z,m_z,n_x,m_x,key_length,rate"
        assert len(lines) == 6


    def test_stdout_and_output_file_carry_the_same_bytes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FIELD_CFG_TEXT.replace("block_size = 1e8", "block_size = 1e6"))
        out = tmp_path / "sim.csv"
        args = ["simulate", cfg, "--reps", "50", "--seed", "3"]
        assert run(args) == 0
        stdout = capsys.readouterr().out
        assert run(args + ["-o", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert stdout.count("\n") == 51 and stdout.endswith("\n")

    def test_infeasible_trials_print_zeros_and_count_as_failures(self, tmp_path, capsys):
        # Near the multi-photon threshold about half the trials raise
        # InsufficientBlock; their rows read 0 and they are not averaged.
        text = FIELD_CFG_TEXT.replace("g2 = 0.00698", "g2 = 0.085").replace(
            "block_size = 1e8", "block_size = 1e4"
        )
        path = write_cfg(tmp_path, text)
        assert run(["simulate", path, "--reps", "300", "--seed", "3"]) == 0
        out, err = capsys.readouterr()
        config = load_config(path)
        spec = TrialSpec(config.source, config.channel, config.proto, config.sec, 3, 300)
        trials = list(iter_trials(spec))
        failed = [math.isnan(rate) for _, _, rate in trials]
        assert 0 < sum(failed) < len(trials)
        rates = [rate for _, _, rate in trials if not math.isnan(rate)]
        assert err.splitlines() == [
            f"# mean_rate = {sum(rates) / len(rates):.9e}",
            f"# failures = {sum(failed)}",
        ]
        rows = out.splitlines()[1:]
        for index, (row, (tallies, key_length, rate), fail) in enumerate(zip(rows, trials, failed)):
            if fail:
                key_length = rate = 0.0
            t = tallies
            assert row == (
                f"{3 + index},{t.z_detections},{t.z_errors},{t.x_detections},{t.x_errors},"
                f"{key_length:.9e},{rate:.9e}"
            )

    def test_rows_run_on_across_blocks_of_formatting(self, field_cfg, capsys):
        # More trials than one block of CSV formatting holds.
        reps = _SIMULATE_BLOCK + 3
        assert run(["simulate", field_cfg, "--reps", str(reps), "--seed", "8"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(8, 8 + reps))
        config = load_config(field_cfg)
        spec = TrialSpec(config.source, config.channel, config.proto, config.sec, 8, reps)
        last = list(iter_trials(spec))[-1][0]
        assert rows[-1][1:5] == [
            str(last.z_detections), str(last.z_errors), str(last.x_detections), str(last.x_errors)
        ]

    def test_empty_z_block_without_multi_photon_pulses(self, tmp_path, capsys):
        # With g2 = 0 and a one-detection block some trials draw no Z
        # detection but some X detections; they distil no key.
        text = FIELD_CFG_TEXT.replace("g2 = 0.00698", "g2 = 0").replace(
            "block_size = 1e8", "block_size = 1"
        )
        out = tmp_path / "sim.csv"
        argv = ["simulate", write_cfg(tmp_path, text), "--reps", "3000", "--seed", "1"]
        assert run(argv + ["-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert any(row[1] == "0" and row[3] != "0" for row in rows)
        assert "# failures = 0" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_sps_target_improves_on_config(self, field_cfg, capsys):
        code = run(
            ["optimize", field_cfg, "--target", "sps", "--seed", "3",
             "--population", "24", "--generations", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["best_rate_per_pulse"]) >= 1.08e-3 * 0.75
        assert 0.5 <= float(values["q_z_tx"]) <= 0.99

    def test_wcp_target_matches_scan_optimizer(self, field_cfg, capsys):
        code = run(
            ["optimize", field_cfg, "--target", "wcp", "--seed", "1",
             "--population", "20", "--generations", "25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        total = (
            float(values["p_signal"]) + float(values["p_decoy"]) + float(values["p_vacuum"])
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        # Two independent optimisers, one stochastic and one a scan,
        # should agree on the achievable rate to within a few percent.
        from keyrates.finite_key.comparison import optimized_wcp_rate

        config = load_config(field_cfg)
        scan_rate, _, _ = optimized_wcp_rate(config.channel, config.proto, config.sec)
        assert float(values["best_rate_per_pulse"]) == pytest.approx(scan_rate, rel=0.05)


    @pytest.mark.parametrize("target", ["sps", "wcp"])
    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_population_scorer_gives_the_point_result(
        self, monkeypatch, capsys, target, seed
    ):
        import keyrates.cli as cli
        from keyrates import optimizer

        scorers = []

        def batched(objective, space, settings, *, score_population):
            scorers.append(score_population)
            return optimizer.optimize(
                objective, space, settings, score_population=score_population
            )

        def point_only(objective, space, settings, *, score_population):
            return optimizer.optimize(objective, space, settings)

        argv = ["optimize", bundled_field_config(), "--target", target,
                "--seed", seed, "--generations", "20"]
        outputs = []
        for optimize in (batched, point_only):
            monkeypatch.setattr(cli, "optimize", optimize)
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert scorers and scorers[0] is not None
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "target, work",
        [
            ("sps", {"scorer": 64, "rows": 3074, "polish": 172, "float": 172}),
            ("wcp", {"scorer": 201, "rows": 9650, "polish": 516, "float": 516}),
        ],
    )
    def test_cli_optimize_work_counts(self, monkeypatch, capsys, target, work):
        # The GA scores its populations through the lane scorer ("scorer"
        # calls, "rows" in all); the polish scores single points through
        # the float scorer ("float" calls), and nothing else does.
        import keyrates.cli as cli
        from keyrates import optimizer

        counts = dict.fromkeys(work, 0)
        name = {"sps": "sps_expected_rate", "wcp": "_wcp_rate_or_zero"}[target]
        pipeline = getattr(cli, name)

        def counted_pipeline(*args, **kwargs):
            counts["float"] += 1
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted_pipeline)

        def counted(objective, space, settings, *, score_population):
            def point(params):
                counts["polish"] += 1
                return objective(params)

            def population(columns):
                counts["scorer"] += 1
                counts["rows"] += len(columns["q_z_tx"])
                return score_population(columns)

            return optimizer.optimize(point, space, settings, score_population=population)

        monkeypatch.setattr(cli, "optimize", counted)
        argv = ["optimize", bundled_field_config(), "--target", target, "--seed", "7"]
        assert run(argv) == 0
        capsys.readouterr()
        assert counts == work

    @pytest.mark.parametrize(
        "target, calls",
        [
            ("sps", {"random": 1, "integers": 0, "random_raw": 5150, "standard_normal": 552}),
            ("wcp", {"random": 1, "integers": 0, "random_raw": 16329, "standard_normal": 4415}),
        ],
    )
    def test_cli_optimize_random_calls(self, monkeypatch, capsys, target, calls):
        # The GA draws its initial population with one random() call. Each
        # child then reads its draws from one random_raw call, a second
        # one only if it crosses over, and one standard_normal call only
        # if a gene mutates; no child calls integers. SPS breeds 63
        # generations of 48 children, WCP 200.
        import numpy as np

        counts = dict.fromkeys(calls, 0)

        def counting(name, method):
            def counted(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)

            return counted

        class CountingPCG64(np.random.PCG64):
            random_raw = counting("random_raw", np.random.PCG64.random_raw)

        class CountingGenerator(np.random.Generator):
            random = counting("random", np.random.Generator.random)
            integers = counting("integers", np.random.Generator.integers)
            standard_normal = counting("standard_normal", np.random.Generator.standard_normal)

        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountingGenerator(CountingPCG64(seed))
        )
        argv = ["optimize", bundled_field_config(), "--target", target, "--seed", "7"]
        assert run(argv) == 0
        capsys.readouterr()
        assert counts == calls


class TestCompareCommand:
    def test_reports_advantage_and_crossover(self, field_cfg, capsys):
        assert run(["compare", field_cfg]) == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["advantage_db"]) == pytest.approx(2.53, abs=1.0)
        assert float(values["crossover_loss_db"]) == pytest.approx(19.0, abs=2.0)
        assert float(values["max_advantage_db_near_zero"]) == pytest.approx(5.40, abs=1.0)
