"""Benchmark of the keyrates command line on the bundled field.cfg.

    python3 perfbench/run.py --workload loss-scan --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the program is imported
from the checkout's ``src`` directory, never from an installed copy.

Each operation is one ``keyrates`` CLI call in a fresh interpreter
(``child.py``), timed inside that interpreter around
``keyrates.cli.run``; nothing carries over from one operation to the
next, and only one process computes at a time. A run repeats whole
rounds of its workload's operations while another round is expected
to end within ``--seconds`` (at least one round),
checks every output outside the timed region, prints one line per
operation kind and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each round starts with ``calibrate.py``, a fixed workload in its own
interpreter that measures how fast the shared host runs at the time.
With ``--trace 0`` the metrics are the end-to-end ones:
``norm_round_s`` (the run's CLI time per round over its calibration
time per round, times 0.5 s: the round time on a host where one
calibration takes 0.5 s), ``setup_s`` (the median interpreter start,
``import keyrates`` and ``load_config`` of one operation, scaled the
same way by the run's mean calibration) and ``peak_rss_mb``. The raw
times are printed above the JSON. With
``--trace 1`` each round runs untraced and then traced, and the
metrics are the per-layer call counts and busy times from the traced
pass plus ``trace.overhead_s``, the traced minus the untraced round.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import Checker  # noqa: E402
from tracer import span_names  # noqa: E402

WORKLOADS = ("loss-scan", "finite-boundary", "pointwise")
CONFIG = os.path.join("src", "keyrates", "data", "field.cfg")
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# The GA stops after 30 stagnant generations, so its work depends on
# the seed: from 51 to 100 generations for `--target sps` and from 98
# to the cap of 200 for `--target wcp` over seeds 0-11. One fixed
# default keeps the work per round the same in every run; pass
# --ga-seed to move it.
DEFAULT_GA_SEED = 7
# One to two seconds of `simulate` on the 2-core reference machine.
SIMULATE_REPS = 20_000
OP_TIMEOUT_S = 120
# `norm_round_s` is the round time on a host where one calibration
# (calibrate.py) takes this long.
CALIBRATION_REFERENCE_S = 0.5
SWEEP_LOSSES = [float(loss) for loss in range(31)]


@dataclass
class Op:
    """One CLI call: a metric stem, a check kind and its arguments."""

    name: str
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


def workload_ops(workload: str, seed: int, ga_seed: int, mc_seed: int) -> list[Op]:
    cfg = CONFIG  # relative to the checkout root, as a shell user would type it
    if workload == "loss-scan":
        return [
            Op("compare", "compare", ["compare", cfg]),
            Op(
                "sweep",
                "sweep",
                ["sweep", cfg, "--loss-min", "0", "--loss-max", "30", "--steps", "31"],
                {"losses": SWEEP_LOSSES},
            ),
        ]
    if workload == "finite-boundary":
        return [
            Op(
                "boundary_finite",
                "boundary_finite",
                ["boundary", cfg, "--loss", "0", "--mode", "finite"],
                {"loss": 0.0},
            )
        ]
    rng = random.Random(seed)
    losses = [0.0] + sorted(round(rng.uniform(1.0, 25.0), 2) for _ in range(3))
    ops = [Op("rate", "rate", ["rate", cfg])]
    ops += [
        Op(
            "boundary_asymptotic",
            "boundary_asymptotic",
            ["boundary", cfg, "--loss", repr(loss), "--mode", "asymptotic"],
            {"loss": loss},
        )
        for loss in losses
    ]
    ops += [
        Op(f"optimize_{target}", "optimize", ["optimize", cfg, "--target", target, "--seed", str(ga_seed)], {"target": target})
        for target in ("sps", "wcp")
    ]
    ops.append(
        Op(
            "simulate",
            "simulate",
            ["simulate", cfg, "--reps", str(SIMULATE_REPS), "--seed", str(mc_seed)],
            {"reps": SIMULATE_REPS},
        )
    )
    return ops


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_op(op: Op, trace: bool, spans_path: str) -> dict:
    """Run one operation in a fresh interpreter; never raises."""
    cmd = [sys.executable, CHILD, ROOT, "1" if trace else "0", spans_path, "--", *op.argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"interpreter exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return {"error": f"no result from child: {exc}"}
    result["setup_s"] = result["setup_done"] - spawned
    if result["error"] is None and result["rc"] != 0:
        result["error"] = f"keyrates exited {result['rc']}: {result['stderr'].strip()[-2000:]}"
    return result


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_pass(self, ops: list[Op], checker: Checker, trace: bool, tag: str) -> list[dict]:
        context: dict = {}
        results = []
        for index, op in enumerate(ops):
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}-{index}.npz") if trace else ""
            result = run_op(op, trace, spans_path)
            self.attempted += 1
            if result.get("error") is None:
                problem = checker.check(op.kind, op.params, result["stdout"], result["stderr"], context)
                if problem is not None:
                    self.correct = False
                    result["error"] = f"check failed: {problem}"
            if result.get("error") is not None:
                self.failed += 1
                print(f"FAILED {op.name} ({' '.join(op.argv)}): {result['error']}", file=sys.stderr)
            results.append(result)
        return results


def _ok(results: list[dict]) -> list[dict]:
    return [r for r in results if r.get("error") is None]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_calibration() -> float:
    """Seconds the fixed calibration workload takes in a fresh interpreter.

    It imports nothing from keyrates, so no change to the program can
    make it fail; if it does fail, the benchmark itself is broken and
    the run stops without a result.
    """
    proc = subprocess.run(
        [sys.executable, CALIBRATE], env=child_env(), capture_output=True, text=True,
        timeout=OP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def round_times(rounds: list[list[dict]]) -> list[float]:
    """Summed CLI time of each round in which every operation succeeded."""
    return [sum(r["elapsed_s"] for r in results) for results in rounds if len(_ok(results)) == len(results)]


def end_to_end_metrics(rounds: list[list[dict]], calibrations: list[float]) -> dict[str, tuple[float, str]]:
    """Times scaled to a host on which one calibration takes CALIBRATION_REFERENCE_S."""
    setups = [r["setup_s"] for results in rounds for r in _ok(results)]
    peaks = [max(r["maxrss_kb"] for r in _ok(results)) / 1024.0 for results in rounds if _ok(results)]
    # The host switches between fast and slow spells within seconds, so a
    # median of a few rounds jumps between them; totals average them out.
    whole = [
        (sum(r["elapsed_s"] for r in results), cal)
        for results, cal in zip(rounds, calibrations)
        if len(_ok(results)) == len(results)
    ]
    cli_total = sum(t for t, _ in whole)
    cal_total = sum(cal for _, cal in whole)
    host_scale = CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)
    return {
        "norm_round_s": (cli_total / cal_total * CALIBRATION_REFERENCE_S if whole else 0.0, "s"),
        "setup_s": (_median(setups) * host_scale, "s"),
        "peak_rss_mb": (_median(peaks), "MB"),
    }


def _round_layers(results: list[dict]) -> dict:
    """Sum the traced operations of one round per span name."""
    names = span_names()
    total = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0} for name in names}
    evals = scored = 0
    for result in _ok(results):
        trace = result["trace"]
        for name, stats in trace["functions"].items():
            for key, value in stats.items():
                total[name][key] += value
        evals += trace["tuner_evals"]
        scored += trace["tuner_evals_scored"]
    return {"functions": total, "tuner_evals": evals, "tuner_evals_scored": scored}


def per_layer_metrics(untraced: list[list[dict]], traced: list[list[dict]]) -> dict[str, tuple[float, str]]:
    layers = [_round_layers(results) for results in traced]
    first = layers[0]["functions"]

    def median_of(fn) -> float:
        return _median([fn(layer["functions"]) for layer in layers])

    def self_time(prefix: str) -> float:
        return median_of(
            lambda functions: sum(
                stats["self_s"] for name, stats in functions.items() if name.rsplit(".", 1)[0] == prefix
            )
        )

    def busy_per_call(name: str, scale: float) -> float:
        def value(functions) -> float:
            calls = functions[name]["calls"]
            return functions[name]["busy_s"] * scale / calls if calls else 0.0

        return median_of(value)

    metrics: dict[str, tuple[float, str]] = {}

    def counted(name: str, timing: str, raised: bool = False) -> None:
        metrics[f"{name}.calls"] = (first[name]["calls"], "count")
        scale, unit = (1e6, "us") if timing == "us_per_call" else (1e3, "ms")
        metrics[f"{name}.{timing}"] = (busy_per_call(name, scale), unit)
        if raised:
            metrics[f"{name}.raised"] = (first[name]["raised"], "count")

    for name in (
        "photon_source.attenuate",
        "photon_source.sps_distribution",
        "channel.detection_stats",
        "asymptotic.boundary_g2",
        "finite_key.core.expected_tallies",
        "finite_key.core.sps_key_length",
    ):
        counted(name, "us_per_call")
    counted("finite_key.core.sps_expected_rate", "us_per_call", raised=True)
    counted("finite_key.wcp.wcp_finite_key_rate", "us_per_call", raised=True)
    counted("finite_key.comparison.optimized_sps_rate", "ms_per_call")
    counted("finite_key.comparison.optimized_wcp_rate", "ms_per_call")
    metrics["finite_key.comparison.self_s"] = (self_time("finite_key.comparison"), "s")
    evals = layers[0]["tuner_evals"]
    share = layers[0]["tuner_evals_scored"] / evals if evals else 0.0
    metrics["finite_key.comparison.useful_eval_share"] = (share, "ratio")
    metrics["optimizer.optimize.objective_calls"] = (first["cli.objective"]["calls"], "count")
    metrics["optimizer.optimize.self_s"] = (self_time("optimizer"), "s")
    counted("montecarlo.simulate_trial", "us_per_call")
    metrics["montecarlo.iter_trials.self_s"] = (
        median_of(lambda functions: functions["montecarlo.iter_trials"]["self_s"]),
        "s",
    )
    metrics["cli.load_config.ms"] = (busy_per_call("cli.load_config", 1e3), "ms")
    metrics["cli.self_s"] = (self_time("cli"), "s")
    overheads = [
        sum(r["elapsed_s"] for r in t) - sum(r["elapsed_s"] for r in u)
        for u, t in zip(untraced, traced)
        if len(_ok(u)) == len(u) and len(_ok(t)) == len(t)
    ]
    metrics["trace.overhead_s"] = (_median(overheads), "s")
    return metrics


def operation_lines(ops: list[Op], rounds: list[list[dict]]) -> list[str]:
    """Median time of each operation kind, with its sample count."""
    lines = []
    for name in dict.fromkeys(op.name for op in ops):
        times = [r["elapsed_s"] for results in rounds for op, r in zip(ops, results) if op.name == name and r.get("error") is None]
        if not times:
            lines.append(f"  {name}: no successful run")
            continue
        median = statistics.median(times)
        lines.append(f"  {name}_s = {median:.4f} s (median of {len(times)})")
        if name == "simulate":
            lines.append(f"  simulate_trials_per_s = {SIMULATE_REPS / median:.1f} trials/s (median of {len(times)})")
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ga-seed", type=int, default=DEFAULT_GA_SEED, help="seed of both `optimize` calls")
    parser.add_argument("--mc-seed", type=int, default=None, help="seed of `simulate` (default: from --seed)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    config = os.path.join(ROOT, CONFIG)
    if not (os.path.isfile(os.path.join(ROOT, "src", "keyrates", "cli.py")) and os.path.isfile(config)):
        print(f"error: no keyrates source under {ROOT}/src", file=sys.stderr)
        return 2
    mc_seed = args.mc_seed if args.mc_seed is not None else random.Random(f"mc-{args.seed}").randrange(2**31)
    ops = workload_ops(args.workload, args.seed, args.ga_seed, mc_seed)
    trace = bool(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Byte-compile the program once, so no timed set-up pays for it. A
    # file that does not compile is left to fail the operations that import it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "keyrates")])

    checker = Checker(ROOT, config)
    tally = Tally()
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    calibrations: list[float] = []
    started = time.monotonic()
    while True:
        round_started = time.monotonic()
        calibrations.append(run_calibration())
        untraced.append(tally.run_pass(ops, checker, False, args.workload))
        if trace:
            traced.append(tally.run_pass(ops, checker, True, args.workload))
        now = time.monotonic()
        if now - started + (now - round_started) > args.seconds:
            break

    print(f"workload {args.workload}: seed {args.seed}, GA seed {args.ga_seed}, MC seed {mc_seed}")
    print(f"  {len(untraced)} rounds, {tally.attempted} operations, {tally.failed} failed")
    times = round_times(untraced)
    print("  round times: " + " ".join(f"{t:.3f}" for t in times))
    print("  calibrations: " + " ".join(f"{c:.3f}" for c in calibrations))
    if times:
        print(f"  round_s = {statistics.median(times):.4f} s (median of {len(times)}, not normalised)")
    setups = [r["setup_s"] for results in untraced for r in _ok(results)]
    if setups:
        print(f"  raw_setup_s = {statistics.median(setups):.4f} s (median of {len(setups)}, not normalised)")
    print("\n".join(operation_lines(ops, untraced)))
    if trace:
        for op, result in zip(ops, traced[0]):
            if result.get("error") is not None:
                continue
            functions = result["trace"]["functions"]
            print(
                f"  {op.name}: {functions['finite_key.core.sps_expected_rate']['calls']} SPS and "
                f"{functions['finite_key.wcp.wcp_finite_key_rate']['calls']} WCP evaluations"
            )
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, calibrations)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    summary = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
