"""Command-line interface: config ingestion, rates, sweeps, boundaries,
optimisation, simulation and comparison, with CSV emission.

Configs are flat ``key = value`` files, one entry per line, ``#``
comments allowed. Unknown keys and non-finite values are rejected.
Exit codes: 0 success, 2 usage error (including an unwritable
``--output``), 3 malformed or invalid configuration (including one
whose launched light is unphysical), 4 empty result (no boundary
point, no rate crossover, a block that the multi-photon cap or a
zero gain leaves keyless, or decoy bounds that give no key).
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .asymptotic import EmptyCurve, advantage_boundary
from .channel import ChannelDetectorModel, RateTooHigh
from .finite_key.comparison import (
    WCP_RECEIVER_Z_RATIO,
    NoCrossover,
    _sps_rate_or_zero,
    _wcp_rate_or_zero,
    advantage_db,
    compare,
    finite_boundary,
    sweep_rates,
)
from .finite_key.core import (
    InsufficientBlock,
    ProtocolConfig,
    SecurityParams,
    _link_yields,
    _sps_lanes,
    sps_expected_rate,
)
from .finite_key.wcp import (
    DecoyInfeasible,
    WcpIntensities,
    _p_vacuum,
    _wcp_lanes,
    wcp_finite_key_rate,
)
from .montecarlo import TooManyPulses, TrialSpec, _trial_arrays
from .optimizer import ELITE_COUNT, GASettings, SearchSpace, optimize
from .photon_source import NORMALIZATION_TOL, NonPhysicalSource, SourceKind, SourceSpec, UndefinedG2


class ParseError(ValueError):
    """Raised for files that do not parse as flat key = value text."""


class ValidationError(ValueError):
    """Raised when a parsed config violates a documented invariant."""


class UnwritableOutput(ValueError):
    """Raised when the ``--output`` file cannot be written (a usage error)."""


# key -> required
_FLOAT_KEYS = {
    "clock_rate_hz": True,
    "mean_photon_number": True,
    "g2": True,
    "channel_loss_db": True,
    "fiber_optics_efficiency": True,
    "detection_efficiency": True,
    "dark_count_rate_cps": True,
    "gate_width_s": True,
    "misalignment_prob": True,
    "q_z_tx": True,
    "q_z_rx": True,
    "block_size": True,
    "pre_attenuation": True,
    "eps_pe": True,
    "eps_pa": True,
    "eps_ec": True,
    "eps_cor": True,
    "f_ec": True,
    "eta_qd": False,
    "eta_t": False,
    "mu_signal": False,
    "mu_decoy": False,
    "p_signal": False,
    "p_decoy": False,
}
_STRING_KEYS = {"source_kind": True}
REQUIRED_KEYS = sorted(
    [k for k, req in _FLOAT_KEYS.items() if req] + [k for k, req in _STRING_KEYS.items() if req]
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated aggregate of one experiment description."""

    clock_rate_hz: float
    source: SourceSpec
    channel: ChannelDetectorModel
    proto: ProtocolConfig
    sec: SecurityParams
    wcp: WcpIntensities | None = None
    eta_qd: float | None = None
    eta_t: float | None = None

    def consistency_report(self) -> list[str]:
        """Advisory notes, currently the transmitter budget check."""
        notes = []
        if self.eta_qd is not None and self.eta_t is not None:
            budget = self.eta_qd * self.eta_t
            mean = self.source.mean_photon_number
            deviation = abs(budget - mean) / mean
            verdict = "consistent" if deviation <= 0.01 else "INCONSISTENT"
            notes.append(
                f"transmitter budget eta_qd*eta_t = {budget:.6g} vs "
                f"mean_photon_number = {mean:.6g} ({deviation:.2%} apart, {verdict})"
            )
        return notes


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


def load_config(path: str) -> ExperimentConfig:
    """Load and fully validate a flat key = value config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    entries = _parse_lines(text)

    known = set(_FLOAT_KEYS) | set(_STRING_KEYS)
    for key, (_, lineno) in entries.items():
        if key not in known:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
    missing = [key for key in REQUIRED_KEYS if key not in entries]
    if missing:
        raise ValidationError(f"missing required keys: {', '.join(missing)}")

    values: dict[str, float | str] = {}
    for key, (raw, lineno) in entries.items():
        if key in _STRING_KEYS:
            values[key] = raw.lower()
            continue
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: key {key!r} is not a number: {raw!r}") from exc
        if not math.isfinite(values[key]):
            raise ValidationError(f"line {lineno}: key {key!r} must be finite, got {raw!r}")

    kind_raw = values["source_kind"]
    try:
        kind = SourceKind(kind_raw)
    except ValueError:
        raise ValidationError(f"source_kind must be 'sps' or 'wcp', got {kind_raw!r}")

    try:
        source = SourceSpec(kind, values["mean_photon_number"], values["g2"])
        channel = ChannelDetectorModel(
            channel_loss_db=values["channel_loss_db"],
            fiber_optics_efficiency=values["fiber_optics_efficiency"],
            detection_efficiency=values["detection_efficiency"],
            dark_count_rate_cps=values["dark_count_rate_cps"],
            gate_width_s=values["gate_width_s"],
            misalignment_prob=values["misalignment_prob"],
        )
        proto = ProtocolConfig(
            q_z_tx=values["q_z_tx"],
            q_z_rx=values["q_z_rx"],
            block_size=values["block_size"],
            pre_attenuation=values["pre_attenuation"],
        )
        sec = SecurityParams(
            eps_pe=values["eps_pe"],
            eps_pa=values["eps_pa"],
            eps_ec=values["eps_ec"],
            eps_cor=values["eps_cor"],
            f_ec=values["f_ec"],
        )
        wcp = None
        wcp_keys = ("mu_signal", "mu_decoy", "p_signal", "p_decoy")
        if any(key in values for key in wcp_keys):
            missing_wcp = [key for key in wcp_keys if key not in values]
            if missing_wcp:
                raise ValidationError(
                    f"incomplete decoy description, missing: {', '.join(missing_wcp)}"
                )
            p_signal, p_decoy = values["p_signal"], values["p_decoy"]
            # Decimal probabilities that sum to one, such as 0.8 and 0.2,
            # can leave 1 - p_signal - p_decoy just below 0 in binary;
            # within NORMALIZATION_TOL the vacuum probability is taken as 0.
            if -NORMALIZATION_TOL <= _p_vacuum(p_signal, p_decoy) < 0.0:
                p_decoy = 1.0 - p_signal
            wcp = WcpIntensities(
                mu_signal=values["mu_signal"],
                mu_decoy=values["mu_decoy"],
                p_signal=p_signal,
                p_decoy=p_decoy,
            )
    except NonPhysicalSource as exc:
        raise ValidationError(f"NonPhysicalSource: {exc}") from exc
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    if values["clock_rate_hz"] <= 0:
        raise ValidationError(f"clock_rate_hz must be > 0, got {values['clock_rate_hz']}")

    return ExperimentConfig(
        clock_rate_hz=values["clock_rate_hz"],
        source=source,
        channel=channel,
        proto=proto,
        sec=sec,
        wcp=wcp,
        eta_qd=values.get("eta_qd"),
        eta_t=values.get("eta_t"),
    )


def bundled_field_config() -> str:
    """Path of the packaged reference configuration."""
    return str(importlib.resources.files("keyrates.data") / "field.cfg")


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write one line per entry, without joining them into one string."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.writelines(f"{line}\n" for line in lines)
        except OSError as exc:
            raise UnwritableOutput(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


def _fmt(value: float) -> str:
    return format(value, ".9e")


def _require_sps(config: ExperimentConfig, command: str) -> None:
    if config.source.kind is not SourceKind.SPS:
        raise ValidationError(f"{command} needs source_kind = sps, got {config.source.kind.value}")
    # Reject what `rate` rejects rather than tune it to 0: a source without
    # a g2, or one whose probabilities leave [0, 1] (NonPhysicalSource).
    mean = config.source.mean_photon_number
    if not mean * mean > 0.0:
        raise UndefinedG2(f"g2 is undefined for a mean photon number of {mean:.3g}")
    config.source.distribution()


def _cmd_rate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    for note in config.consistency_report():
        print(f"# consistency: {note}")
    if config.source.kind is SourceKind.SPS:
        report = sps_expected_rate(config.source, config.channel, config.proto, config.sec)
    else:
        if config.wcp is None:
            raise ValidationError(
                "source_kind = wcp needs mu_signal, mu_decoy, p_signal, p_decoy"
            )
        report = wcp_finite_key_rate(config.wcp, config.channel, config.proto, config.sec)
    rate_pp = report.rate_per_pulse
    print(f"key_length = {format(report.key_length, '.17g')}")
    print(f"rate_per_pulse = {format(rate_pp, '.17g')}")
    print(f"rate_per_second = {format(rate_pp * config.clock_rate_hz, '.17g')}")
    print(f"n_pulses_sent = {format(report.n_pulses_sent, '.17g')}")
    print(f"multi_photon_cap = {format(report.multi_photon_cap, '.17g')}")
    print(f"secure_detections = {format(report.secure_detections, '.17g')}")
    print(f"phase_error_bound = {format(report.phase_error_bound, '.17g')}")
    print(f"lambda_ec = {format(report.lambda_ec, '.17g')}")
    print(f"qber = {format(report.qber, '.17g')}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _require_sps(config, "sweep")
    losses = [
        args.loss_min + i * (args.loss_max - args.loss_min) / (args.steps - 1)
        for i in range(args.steps)
    ]
    rows = sweep_rates(config.source, config.channel, config.proto, config.sec, losses)
    lines = ["loss_db,r_sps,r_wcp,advantage_db"]
    for loss, r_sps, r_wcp, adv in rows:
        lines.append(f"{_fmt(loss)},{_fmt(r_sps)},{_fmt(r_wcp)},{_fmt(adv)}")
    _emit(lines, args.output)
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = [
        args.grid_min * (args.grid_max / args.grid_min) ** (i / (args.grid_points - 1))
        for i in range(args.grid_points)
    ]
    if args.mode == "asymptotic":
        curve = advantage_boundary(args.loss, grid)
    else:
        curve = finite_boundary(
            args.loss, grid, config.channel, config.proto, config.sec
        )
    lines = ["mean_photon_number,g2"]
    for n_mean, g2 in curve.points:
        lines.append(f"{_fmt(n_mean)},{_fmt(g2)}")
    _emit(lines, args.output)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    settings = GASettings(
        population_size=args.population,
        max_generations=args.generations,
        seed=args.seed,
    )
    if args.target == "sps":
        _require_sps(config, "optimize --target sps")
        space = SearchSpace({"q_z_tx": (0.5, 0.99), "pre_attenuation": (1e-6, 1.0)})
        n_mean, g2 = config.source.mean_photon_number, config.source.g2
        link = _link_yields(config.channel, config.channel.channel_loss_db)

        def objective(params: dict[str, float]) -> float:
            return _sps_rate_or_zero(
                n_mean, g2, params["q_z_tx"], params["pre_attenuation"],
                link, config.proto, config.sec,
            )

        def score_population(columns: dict[str, np.ndarray]) -> np.ndarray:
            lanes = _sps_lanes(
                n_mean, g2, columns["q_z_tx"], config.channel.channel_loss_db,
                config.channel, config.proto, config.sec,
            )
            return lanes(columns["pre_attenuation"])

    else:
        space = SearchSpace(
            {
                "q_z_tx": (0.5, 0.99),
                "mu_signal": (0.05, 1.0),
                "mu_decoy_fraction": (0.01, 0.95),
                "p_signal": (0.05, 1.0),
                "p_decoy": (0.05, 1.0),
                "p_vacuum": (0.01, 1.0),
            },
            simplex_groups=(("p_signal", "p_decoy", "p_vacuum"),),
        )

        wcp_proto = replace(config.proto, q_z_rx=WCP_RECEIVER_Z_RATIO)
        lanes = _wcp_lanes(
            config.channel.channel_loss_db, config.channel, wcp_proto, config.sec, "hoeffding"
        )

        def point(params) -> tuple:
            """``(mu_s, mu_d, p_s, p_d, q_z_tx)`` of a row or of columns."""
            mu_s = params["mu_signal"]
            return (
                mu_s, mu_s * params["mu_decoy_fraction"],
                params["p_signal"], params["p_decoy"], params["q_z_tx"],
            )

        def objective(params: dict[str, float]) -> float:
            return _wcp_rate_or_zero(
                *point(params), config.channel, wcp_proto, config.sec, "hoeffding"
            )

        def score_population(columns: dict[str, np.ndarray]) -> np.ndarray:
            return lanes(*point(columns))

    # Both scorers give exactly 0 wherever the float pipeline raises.
    result = optimize(objective, space, settings, score_population=score_population)
    print(f"best_rate_per_pulse = {format(result.best_rate, '.17g')}")
    print(f"best_rate_per_second = {format(result.best_rate * config.clock_rate_hz, '.17g')}")
    for name, value in result.best_params.items():
        print(f"{name} = {format(value, '.17g')}")
    print(f"generations = {len(result.history)}")
    return 0


# Trials per block of `simulate` CSV lines.
_SIMULATE_BLOCK = 4096


def _simulate_lines(seed: int, draws: np.ndarray, key_length: np.ndarray, rate: np.ndarray):
    """``simulate``'s CSV lines, formatted from column lists one block of
    trials at a time, so no Python copy of every trial is held."""
    yield "seed,n_z,m_z,n_x,m_x,key_length,rate"
    for start in range(0, len(draws), _SIMULATE_BLOCK):
        block = slice(start, start + _SIMULATE_BLOCK)
        n_z, n_x, m_z, m_x = draws[block].T.tolist()
        columns = zip(
            range(seed + start, seed + start + len(n_z)),
            n_z,
            m_z,
            n_x,
            m_x,
            key_length[block].tolist(),
            rate[block].tolist(),
        )
        for trial_seed, nz, mz, nx, mx, key, r in columns:
            yield f"{trial_seed},{nz},{mz},{nx},{mx},{key:.9e},{r:.9e}"


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _require_sps(config, "simulate")
    spec = TrialSpec(
        source=config.source,
        channel=config.channel,
        proto=config.proto,
        sec=config.sec,
        seed=args.seed,
        repetitions=args.reps,
    )
    _, draws, key_length, rate = _trial_arrays(spec)
    failed = np.isnan(rate)
    _emit(
        _simulate_lines(
            args.seed, draws, np.where(failed, 0.0, key_length), np.where(failed, 0.0, rate)
        ),
        args.output,
    )
    rates = rate[~failed].tolist()
    mean = sum(rates) / len(rates) if rates else 0.0
    print(f"# mean_rate = {_fmt(mean)}", file=sys.stderr)
    print(f"# failures = {int(failed.sum())}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _require_sps(config, "compare")
    report = compare(config.source, config.channel, config.proto, config.sec)
    _, r_sps0, r_wcp0 = report.scan[0]  # the crossover scan starts at 0 dB
    max_adv = advantage_db(r_sps0, r_wcp0)
    print(f"advantage_db = {format(report.advantage_db, '.17g')}")
    print(f"crossover_loss_db = {format(report.crossover_loss_db, '.17g')}")
    print(f"r_sps = {format(report.r_sps, '.17g')}")
    print(f"r_wcp = {format(report.r_wcp, '.17g')}")
    print(f"max_advantage_db_near_zero = {format(max_adv, '.17g')}")
    return 0


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _positive_float(text: str) -> float:
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _loss_db(text: str) -> float:
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_in_range(minimum: int, maximum: float = math.inf):
    """Argparse type accepting integers from ``minimum`` to ``maximum``."""
    bounds = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {text!r}")
        return value

    return parse


# Caps on the arguments that size arrays or lists, so that an oversized
# value is a usage error rather than a failed allocation.
MAX_REPS = 1_000_000
MAX_POPULATION = 10_000
MAX_POINTS = 10_000  # sweep --steps, boundary --grid-points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyrates",
        description="Secret-key-rate calculator for SPS and WCP QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="finite-key rate of one configuration")
    p_rate.add_argument("config")
    p_rate.set_defaults(func=_cmd_rate)

    p_sweep = sub.add_parser("sweep", help="optimised SPS and WCP rates over a loss range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--loss-min", type=_loss_db, required=True)
    p_sweep.add_argument("--loss-max", type=_loss_db, required=True)
    p_sweep.add_argument("--steps", type=_int_in_range(2, MAX_POINTS), required=True)
    p_sweep.add_argument("--output", "-o", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_boundary = sub.add_parser("boundary", help="advantage boundary in the (<n>, g2) plane")
    p_boundary.add_argument("config")
    p_boundary.add_argument("--loss", type=_loss_db, required=True)
    p_boundary.add_argument("--mode", choices=("asymptotic", "finite"), required=True)
    p_boundary.add_argument("--grid-min", type=_positive_float, default=0.05)
    p_boundary.add_argument("--grid-max", type=_positive_float, default=1.2)
    p_boundary.add_argument("--grid-points", type=_int_in_range(2, MAX_POINTS), default=25)
    p_boundary.add_argument("--output", "-o", default=None)
    p_boundary.set_defaults(func=_cmd_boundary)

    p_opt = sub.add_parser("optimize", help="genetic-algorithm parameter search")
    p_opt.add_argument("config")
    p_opt.add_argument("--target", choices=("sps", "wcp"), default="sps")
    p_opt.add_argument("--seed", type=_int_in_range(0), default=0)
    p_opt.add_argument(
        "--population",
        type=_int_in_range(ELITE_COUNT + 2, MAX_POPULATION),
        default=50,
    )
    p_opt.add_argument("--generations", type=_int_in_range(0), default=200)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte Carlo tally sampling")
    p_sim.add_argument("config")
    p_sim.add_argument("--reps", type=_int_in_range(1, MAX_REPS), required=True)
    p_sim.add_argument("--seed", type=_int_in_range(0), required=True)
    p_sim.add_argument("--output", "-o", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="SPS advantage and crossover loss")
    p_cmp.add_argument("config")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "boundary" and not args.grid_max > args.grid_min:
            parser.error("boundary: --grid-max must be greater than --grid-min")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UnwritableOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UndefinedG2, NonPhysicalSource, RateTooHigh, TooManyPulses) as exc:
        # A configuration that loads but has no physical launched light,
        # a detector with a dark count in every gate, or more pulses per
        # block than `simulate` can sample.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (EmptyCurve, NoCrossover, InsufficientBlock, DecoyInfeasible) as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
