"""Output checks for the benchmark's CLI operations.

Each check compares an output with a value computed apart from the
operation that printed it, or with a property the method must have:
published figures from the paper, closed forms evaluated here, the
transmittance computed from the config text by this module's own
parser, or the program's deterministic tuners called on the same
config. None compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import replace

# (published value, tolerance) for `keyrates compare` on field.cfg.
PUBLISHED_COMPARE = {
    "advantage_db": (2.53, 1.0),
    "crossover_loss_db": (19.0, 2.0),
    "max_advantage_db_near_zero": (5.40, 1.0),
}
# Published finite-key break-even endpoints at 0 dB, 15 % tolerance.
PUBLISHED_FINITE_MIN_MEAN = 0.078
PUBLISHED_FINITE_MAX_G2 = 0.41
PUBLISHED_RATE_PER_PULSE = 1.08e-3

SWEEP_HEADER = "loss_db,r_sps,r_wcp,advantage_db"
BOUNDARY_HEADER = "mean_photon_number,g2"
SIMULATE_HEADER = "seed,n_z,m_z,n_x,m_x,key_length,rate"

# CSV values carry ten significant digits, so comparisons with values
# recomputed here allow for that rounding.
PRINT_REL = 1e-9
# Relative step in g2 (or <n>) used to test that a boundary point is
# the last one at which the SPS still matches the WCP comparator.
PROBE_STEP = 1e-6


class CheckFailed(Exception):
    """One output property did not hold."""


def read_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` text, parsed independently of keyrates."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    return values


def boundary_grid(grid_min: float = 0.05, grid_max: float = 1.2, points: int = 25) -> list[float]:
    """The CLI's default logarithmic <n> grid."""
    return [grid_min * (grid_max / grid_min) ** (i / (points - 1)) for i in range(points)]


def asymptotic_boundary_g2(loss_db: float, n_mean: float) -> float:
    """Closed-form ideal break-even g2 at mean photon number ``n_mean``."""
    eta = 10.0 ** (-loss_db / 10.0)
    if n_mean < 2.0 / math.e:
        return 2.0 * eta * (n_mean - 1.0 / math.e) / (n_mean**2 * (eta**2 + 1.0))
    return math.e * eta / (2.0 * (eta**2 + 1.0))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _key_values(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            values[key.strip()] = float(value)
    return values


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"CSV header is not {header!r}")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PRINT_REL, abs_tol=1e-12)


class Checker:
    """Checks one workload's outputs against the field.cfg it ran on.

    ``root`` is the checkout whose ``src`` holds the program; its tuners
    are imported lazily, only by the checks that need them, and their
    results are kept for the rest of the run.
    """

    def __init__(self, root: str, config_path: str) -> None:
        self.root = root
        self.config_path = config_path
        self.raw = read_config(config_path)
        self._config = None
        self._tuned: dict = {}

    def eta(self, loss_db: float) -> float:
        """Link transmittance at ``loss_db``, from the config text."""
        return (
            10.0 ** (-loss_db / 10.0)
            * float(self.raw["fiber_optics_efficiency"])
            * float(self.raw["detection_efficiency"])
        )

    def _program(self):
        if self._config is None:
            sys.path.insert(0, f"{self.root}/src")
            from keyrates import cli

            self._config = cli.load_config(self.config_path)
        return self._config

    def _tuned_wcp(self, loss_db: float) -> float:
        key = ("wcp", loss_db)
        if key not in self._tuned:
            config = self._program()
            from keyrates.finite_key import optimized_wcp_rate

            channel = replace(config.channel, channel_loss_db=loss_db)
            self._tuned[key] = optimized_wcp_rate(channel, config.proto, config.sec)[0]
        return self._tuned[key]

    def _tuned_sps(self, loss_db: float, n_mean: float, g2: float) -> float:
        key = ("sps", loss_db, n_mean, g2)
        if key not in self._tuned:
            config = self._program()
            from keyrates.finite_key import optimized_sps_rate
            from keyrates.photon_source import SourceKind, SourceSpec

            channel = replace(config.channel, channel_loss_db=loss_db)
            source = SourceSpec(SourceKind.SPS, n_mean, g2)
            self._tuned[key] = optimized_sps_rate(source, channel, config.proto, config.sec)[0]
        return self._tuned[key]

    def check(self, kind: str, params: dict, stdout: str, stderr: str, context: dict) -> str | None:
        """Return None when the output holds, else what failed.

        ``context`` carries values between the operations of one round:
        ``compare`` leaves its crossover for ``sweep``, ``rate`` its
        rate for ``simulate``.
        """
        try:
            getattr(self, f"_check_{kind}")(params, stdout, stderr, context)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # unreadable output, or the program's tuners raised
            return f"{type(exc).__name__}: {exc}"
        return None

    def _check_compare(self, params, stdout, stderr, context):
        values = _key_values(stdout)
        for key, (published, tol) in PUBLISHED_COMPARE.items():
            _require(
                abs(values[key] - published) <= tol,
                f"{key} = {values[key]:.6g}, published {published} +- {tol}",
            )
        recomputed = 10.0 * math.log10(values["r_sps"] / values["r_wcp"])
        _require(
            _close(recomputed, values["advantage_db"]),
            f"advantage_db {values['advantage_db']!r} != 10 log10(r_sps/r_wcp) = {recomputed!r}",
        )
        context["crossover_loss_db"] = values["crossover_loss_db"]

    def _check_sweep(self, params, stdout, stderr, context):
        rows = _csv_rows(stdout, SWEEP_HEADER)
        losses = params["losses"]
        _require(len(rows) == len(losses), f"{len(rows)} sweep rows, expected {len(losses)}")
        for (loss, r_sps, r_wcp, adv), expected in zip(rows, losses):
            _require(_close(loss, expected), f"sweep loss {loss} != {expected}")
            ceiling = self.eta(loss) / math.e
            _require(r_wcp <= ceiling * (1.0 + PRINT_REL), f"r_wcp {r_wcp} > eta/e {ceiling} at {loss} dB")
            _require(r_sps >= 0.0 and r_wcp >= 0.0, f"negative rate at {loss} dB")
            if r_sps > 0.0 and r_wcp > 0.0:
                recomputed = 10.0 * math.log10(r_sps / r_wcp)
                _require(abs(recomputed - adv) <= 1e-8 * max(1.0, abs(adv)), f"advantage_db at {loss} dB")
        for prev, cur in zip(rows, rows[1:]):
            _require(cur[1] <= prev[1], f"r_sps rises from {prev[0]} to {cur[0]} dB")
            _require(cur[2] <= prev[2], f"r_wcp rises from {prev[0]} to {cur[0]} dB")
        changes = [
            (prev[0], cur[0])
            for prev, cur in zip(rows, rows[1:])
            if prev[1] - prev[2] > 0.0 >= cur[1] - cur[2]
        ]
        _require(len(changes) == 1, f"r_sps - r_wcp changes sign {len(changes)} times")
        crossover = context.get("crossover_loss_db")
        _require(crossover is not None, "no crossover from compare in this round")
        lo, hi = changes[0]
        _require(lo <= crossover <= hi, f"sign change in [{lo}, {hi}] dB, compare says {crossover}")

    def _check_boundary_finite(self, params, stdout, stderr, context):
        points = _csv_rows(stdout, BOUNDARY_HEADER)
        _require(len(points) >= 3, f"only {len(points)} boundary points")
        n_first = points[0][0]
        g2_max = max(g2 for _, g2 in points)
        _require(
            abs(n_first / PUBLISHED_FINITE_MIN_MEAN - 1.0) <= 0.15,
            f"first <n> {n_first}, published {PUBLISHED_FINITE_MIN_MEAN}",
        )
        _require(
            abs(g2_max / PUBLISHED_FINITE_MAX_G2 - 1.0) <= 0.15,
            f"largest g2 {g2_max}, published {PUBLISHED_FINITE_MAX_G2}",
        )
        for n_mean, g2 in points:
            _require(0.0 <= g2 <= (1.0 + PRINT_REL) / n_mean, f"g2 {g2} outside [0, 1/<n>] at <n> = {n_mean}")
        for (n_prev, _), (n_cur, _) in zip(points, points[1:]):
            _require(n_cur > n_prev, f"<n> does not ascend at {n_cur}")

        loss = params["loss"]
        r_wcp = self._tuned_wcp(loss)
        # The g2 = 0 endpoint is the smallest <n> that still matches.
        _require(
            self._tuned_sps(loss, n_first, 0.0) >= r_wcp * (1.0 - PRINT_REL),
            f"SPS below WCP at the endpoint <n> = {n_first}",
        )
        _require(
            self._tuned_sps(loss, n_first * (1.0 - PROBE_STEP), 0.0) < r_wcp,
            f"SPS still matches WCP below the endpoint <n> = {n_first}",
        )
        for index in sorted({1, len(points) // 2, len(points) - 1}):
            n_mean, g2 = points[index]
            _require(
                self._tuned_sps(loss, n_mean, g2) >= r_wcp * (1.0 - PRINT_REL),
                f"SPS below WCP at boundary point ({n_mean}, {g2})",
            )
            if g2 < (1.0 - PRINT_REL) / n_mean:
                _require(
                    self._tuned_sps(loss, n_mean, g2 * (1.0 + PROBE_STEP)) < r_wcp,
                    f"SPS still matches WCP just above boundary point ({n_mean}, {g2})",
                )

    def _check_boundary_asymptotic(self, params, stdout, stderr, context):
        points = _csv_rows(stdout, BOUNDARY_HEADER)
        loss = params["loss"]
        expected = [(1.0 / math.e, 0.0)] + [
            (n, asymptotic_boundary_g2(loss, n)) for n in boundary_grid() if n >= 1.0 / math.e
        ]
        _require(len(points) == len(expected), f"{len(points)} points, expected {len(expected)}")
        for (n_mean, g2), (n_ref, g2_ref) in zip(points, expected):
            _require(_close(n_mean, n_ref), f"<n> {n_mean} != {n_ref}")
            _require(_close(g2, g2_ref), f"g2 {g2} != closed form {g2_ref} at <n> = {n_ref}")

    def _check_rate(self, params, stdout, stderr, context):
        rate = _key_values(stdout)["rate_per_pulse"]
        _require(
            abs(rate / PUBLISHED_RATE_PER_PULSE - 1.0) <= 0.25,
            f"rate_per_pulse {rate}, published {PUBLISHED_RATE_PER_PULSE}",
        )
        context["rate_per_pulse"] = rate

    def _check_optimize(self, params, stdout, stderr, context):
        values = _key_values(stdout)
        best = values["best_rate_per_pulse"]
        loss = float(self.raw["channel_loss_db"])
        if params["target"] == "sps":
            config = self._program()
            reference = self._tuned_sps(loss, config.source.mean_photon_number, config.source.g2)
        else:
            reference = self._tuned_wcp(loss)
            ceiling = self.eta(loss) / math.e
            _require(best <= ceiling, f"WCP best rate {best} > eta/e {ceiling}")
            total = values["p_signal"] + values["p_decoy"] + values["p_vacuum"]
            _require(abs(total - 1.0) <= 1e-12, f"decoded probabilities sum to {total!r}")
        _require(
            abs(best / reference - 1.0) <= 0.02,
            f"GA best rate {best} vs tuned rate {reference} ({best / reference - 1.0:+.2%})",
        )

    def _check_simulate(self, params, stdout, stderr, context):
        rows = _csv_rows(stdout, SIMULATE_HEADER)
        _require(len(rows) == params["reps"], f"{len(rows)} trial rows, expected {params['reps']}")
        _require("# failures = 0" in stderr.splitlines(), "simulate reports failures")
        reference = context.get("rate_per_pulse")
        _require(reference is not None, "no rate from `rate` in this round")
        rates = [row[6] for row in rows]
        mean = statistics.fmean(rates)
        stderr_of_mean = statistics.stdev(rates) / math.sqrt(len(rates))
        allowed = max(3.0 * stderr_of_mean, 0.05 * reference)
        _require(
            abs(mean - reference) <= allowed,
            f"mean trial rate {mean} vs analytic {reference} (allowed {allowed})",
        )
