"""Fuzzing the CLI contract: any config text and arguments end in a
documented exit code, never in a traceback.

The fast subcommands are fuzzed (``rate``, ``boundary --mode
asymptotic`` and ``simulate`` with at most 20 repetitions), and so are
the tuning subcommands on small sizes (``sweep`` with at most 3 steps,
``compare``, ``optimize`` with at most 6 individuals and 2 generations,
``boundary --mode finite`` with at most 3 grid points). Configs start
from the bundled field.cfg, or its WCP variant, with values scaled,
replaced or dropped and stray lines added. Each property takes a few
seconds.
"""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from keyrates.cli import bundled_field_config, run

FIELD_LINES = [
    line
    for line in Path(bundled_field_config()).read_text().splitlines()
    if re.match(r"\w+ = ", line)
]
WCP_LINES = ["mu_signal = 0.5", "mu_decoy = 0.15", "p_signal = 0.7", "p_decoy = 0.2"]
ORIGINAL = dict(line.split(" = ") for line in FIELD_LINES + WCP_LINES)
EXIT_CODES = {0, 2, 3, 4}

# Numbers at and beyond the edges of every documented range.
NUMBER_TEXT = st.one_of(
    st.sampled_from(
        ["0", "-0", "1", "-1", "0.5", "2", "1e-300", "1e300", "1e8", "nan", "inf", "-inf"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
)
LOSS_TEXT = st.floats(0.0, 60.0).map(repr)
VALUE_TEXT = st.one_of(NUMBER_TEXT, st.sampled_from(["", "sps", "wcp", "abc", "1 2", "0x10"]))


@st.composite
def config_text(draw) -> str:
    """field.cfg, or its WCP variant, with up to three values scaled,
    replaced or dropped and up to two stray lines."""
    wcp = draw(st.booleans())
    entries = [line.split(" = ") for line in FIELD_LINES + (WCP_LINES if wcp else [])]
    if wcp:
        entries = [[key, "wcp" if key == "source_kind" else value] for key, value in entries]
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(entries) - 1))
        action = draw(st.sampled_from(["scale", "scale", "replace", "drop"]))
        if action == "scale" and entries[index][0] != "source_kind":
            scale = draw(st.sampled_from([1e-9, 1e-3, 0.1, 0.5, 2.0, 10.0, 1e3, 1e9]))
            entries[index][1] = repr(float(ORIGINAL[entries[index][0]]) * scale)
        elif action == "drop":
            del entries[index]
        else:
            entries[index][1] = draw(VALUE_TEXT)
    lines = [f"{key} = {value}" for key, value in entries]
    stray = st.sampled_from(
        ["unknown_key = 1", "g2 = 0.1", "no equals sign", "= 3", "g2 ="] + ["# comment", "  "] * 3
    )
    for extra in draw(st.lists(stray, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


@st.composite
def arguments(draw) -> list[str]:
    command = draw(st.sampled_from(["rate", "boundary", "simulate"]))
    if command == "rate":
        return ["rate"]
    if command == "boundary":
        argv = ["--mode", "asymptotic", "--loss", draw(st.one_of(LOSS_TEXT, NUMBER_TEXT))]
        if draw(st.booleans()):
            grid = st.one_of(st.floats(1e-3, 2.0).map(repr), NUMBER_TEXT)
            argv += ["--grid-min", draw(grid), "--grid-max", draw(grid)]
        if draw(st.booleans()):
            argv += ["--grid-points", str(draw(st.integers(-2, 30)))]
        return ["boundary", *argv]
    reps = draw(st.sampled_from([*range(1, 21)] * 2 + [-1, 0, "x"]))
    seed = draw(st.integers(-1, 2**200))
    return ["simulate", "--reps", str(reps), "--seed", str(seed)]


def assert_documented_exit(tmp_path, capsys, text: str, argv: list[str]) -> None:
    """Run ``argv`` on a config holding ``text``: a documented exit code, no traceback."""
    path = tmp_path / "fuzz.cfg"
    path.write_text(text)
    code = run([argv[0], str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_text(), argv=arguments())
def test_any_config_and_arguments_end_in_a_documented_exit_code(tmp_path, capsys, text, argv):
    assert_documented_exit(tmp_path, capsys, text, argv)


@st.composite
def tuning_arguments(draw) -> list[str]:
    """Small tuning runs. Sizes are mostly in range, so that most valid
    configs reach the tuners, and sometimes one below its minimum."""
    command = draw(st.sampled_from(["sweep", "compare", "optimize", "boundary"]))
    if command == "compare":
        return ["compare"]
    loss = st.one_of(LOSS_TEXT, LOSS_TEXT, NUMBER_TEXT)
    if command == "sweep":
        steps = draw(st.sampled_from([2, 3] * 3 + [-1, 1]))
        return ["sweep", "--loss-min", draw(loss), "--loss-max", draw(loss), "--steps", str(steps)]
    if command == "optimize":
        target = draw(st.sampled_from(["sps", "wcp"]))
        seed = draw(st.integers(-1, 2**70))
        population = draw(st.sampled_from([4, 5, 6] * 3 + [0, 3]))
        generations = draw(st.sampled_from([0, 1, 2] * 3 + [-1]))
        return [
            "optimize", "--target", target, "--seed", str(seed),
            "--population", str(population), "--generations", str(generations),
        ]
    points = draw(st.sampled_from([2, 3] * 3 + [-1, 1]))
    return ["boundary", "--mode", "finite", "--loss", draw(loss), "--grid-points", str(points)]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_text(), argv=tuning_arguments())
def test_tuning_subcommands_end_in_a_documented_exit_code(tmp_path, capsys, text, argv):
    assert_documented_exit(tmp_path, capsys, text, argv)
