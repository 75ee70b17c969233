"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines inline, or with ``-rP`` to collect them in the summary.
"""

import math
import time
from dataclasses import replace

import numpy as np

from keyrates.asymptotic import (
    advantage_boundary,
    eta_threshold,
    sps_asymptotic_rate,
    sps_rate_fixed_mean,
    wcp_asymptotic_rate,
)
from keyrates.channel import ChannelDetectorModel, dark_count_prob
from keyrates.cli import bundled_field_config, load_config
from keyrates.finite_key.comparison import advantage_db, compare, finite_boundary
from keyrates.finite_key.core import (
    ProtocolConfig,
    SecurityParams,
    chernoff_bound,
    sps_expected_rate,
)
from keyrates.montecarlo import TrialSpec, analytic_reference, simulate_rate_distribution
from keyrates.optimizer import GASettings, SearchSpace, optimize
from keyrates.photon_source import (
    SourceKind,
    SourceSpec,
    attenuate,
    moments,
    sps_distribution,
    wcp_distribution,
)

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-15, 1.16)
FIELD_PROTO = ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e8)
FIELD_SOURCE = SourceSpec(SourceKind.SPS, 0.292, 0.00698)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_wcp_rate_exactness():
    start = time.perf_counter()
    exact = abs(wcp_asymptotic_rate(1.0) - 1.0 / math.e)
    worst_linearity = max(
        abs(wcp_asymptotic_rate(i / 50.0) - (i / 50.0) * wcp_asymptotic_rate(1.0))
        for i in range(51)
    )
    elapsed = time.perf_counter() - start
    ok = exact <= 1e-12 and worst_linearity <= 1e-12 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"R(1) off 1/e by {exact:.2e}, linearity residual {worst_linearity:.2e}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_zero_loss_boundary_endpoints():
    start = time.perf_counter()
    curve = advantage_boundary(0.0, [0.4, 0.5, 0.7, 1.0, 1.5, 2.0])
    n_min_err = abs(curve.min_mean_photon_number - 1.0 / math.e)
    g2_max_err = abs(curve.max_g2 - math.e / 4.0)
    elapsed = time.perf_counter() - start
    ok = n_min_err <= 1e-6 and g2_max_err <= 1e-6 and elapsed < 1.0
    verdict(
        2,
        ok,
        f"<n>_min off 1/e by {n_min_err:.2e}, g2_max off e/4 by {g2_max_err:.2e}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_3_piecewise_continuity_and_attenuation_optimum():
    start = time.perf_counter()
    means = [0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.42, 0.5, 0.7, 0.85, 1.0, 1.3, 1.7]
    g2s = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    pairs = [(n, g) for n in means for g in g2s if 0.0 < n * g <= 0.5]
    assert len(pairs) >= 100
    worst_jump = 0.0
    for n_mean, g2 in pairs:
        eta_th = eta_threshold(n_mean, g2)
        branch1 = sps_rate_fixed_mean(eta_th, n_mean, g2)
        branch2 = eta_th**2 / (2.0 * g2 * (eta_th**2 + 1.0))
        worst_jump = max(worst_jump, abs(branch1 - branch2))

    worst_identity = 0.0
    for eta in (0.01, 0.05, 0.2, 0.6):
        for g2 in (0.05, 0.1, 0.3):
            lo, hi = 1e-9, 10.0
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if sps_rate_fixed_mean(eta, m1, g2) < sps_rate_fixed_mean(eta, m2, g2):
                    lo = m1
                else:
                    hi = m2
            best = sps_rate_fixed_mean(eta, 0.5 * (lo + hi), g2)
            branch2 = eta**2 / (2.0 * g2 * (eta**2 + 1.0))
            worst_identity = max(worst_identity, abs(best - branch2))
    elapsed = time.perf_counter() - start
    ok = worst_jump <= 1e-9 and worst_identity <= 1e-8 and elapsed < 5.0
    verdict(
        3,
        ok,
        f"branch mismatch {worst_jump:.2e} over {len(pairs)} pairs, "
        f"optimum identity residual {worst_identity:.2e}, {elapsed:.3f}s",
    )


def test_criterion_4_reference_parameter_consistency():
    p_dc = dark_count_prob(FIELD_CHANNEL)
    dark_ok = abs(p_dc - 1.4706e-7) <= 1e-11 and abs(p_dc - 1.47e-7) / 1.47e-7 <= 5e-3
    config = load_config(bundled_field_config())
    notes = config.consistency_report()
    budget_ok = len(notes) == 1 and "consistent" in notes[0] and "INCONSISTENT" not in notes[0]
    ok = dark_ok and budget_ok
    verdict(
        4,
        ok,
        f"dark-count probability {p_dc:.5g} vs 1.47e-07, budget note: {notes[0]}",
    )


def test_criterion_5_field_reproduction():
    start = time.perf_counter()
    config = load_config(bundled_field_config())
    report = sps_expected_rate(config.source, config.channel, config.proto, config.sec)
    ratio = report.rate_per_pulse / 1.08e-3
    elapsed = time.perf_counter() - start
    ok = 0.75 <= ratio <= 1.25 and elapsed < 10.0
    verdict(
        5,
        ok,
        f"rate {report.rate_per_pulse:.4e} bits/pulse = {ratio:.3f} x 1.08e-3, "
        f"{elapsed:.3f}s",
    )


def test_criterion_6_advantage_figures():
    start = time.perf_counter()
    report = compare(FIELD_SOURCE, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
    _, r_sps0, r_wcp0 = report.scan[0]  # the crossover scan starts at 0 dB
    max_adv = advantage_db(r_sps0, r_wcp0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(report.advantage_db - 2.53) <= 1.0
        and abs(report.crossover_loss_db - 19.0) <= 2.0
        and abs(max_adv - 5.40) <= 1.0
        and elapsed < 30.0
    )
    verdict(
        6,
        ok,
        f"advantage {report.advantage_db:.2f} dB (2.53 +- 1), crossover "
        f"{report.crossover_loss_db:.2f} dB (19 +- 2), near-zero max "
        f"{max_adv:.2f} dB (5.40 +- 1), {elapsed:.1f}s",
    )


def test_criterion_7_finite_key_boundary():
    start = time.perf_counter()
    grid = [0.08, 0.1, 0.13, 0.17, 0.22, 0.3, 0.4, 0.55, 0.8]
    curve = finite_boundary(0.0, grid, FIELD_CHANNEL, FIELD_PROTO, FIELD_SEC)
    n_min = curve.min_mean_photon_number
    plateau = curve.max_g2
    elapsed = time.perf_counter() - start
    ok = (
        abs(n_min - 0.078) / 0.078 <= 0.15
        and abs(plateau - 0.41) / 0.41 <= 0.15
        and elapsed < 60.0
    )
    verdict(
        7,
        ok,
        f"<n>_min {n_min:.4f} (0.078 +- 15%), g2 plateau {plateau:.4f} "
        f"(0.41 +- 15%), {elapsed:.1f}s",
    )


def test_criterion_8_laboratory_series():
    targets = [(0.17, 5.65e-2), (5.11, 1.69e-2), (10.15, 4.34e-3), (15.16, 1.08e-3)]
    rates = []
    ratios = []
    for loss_db, target in targets:
        channel = replace(FIELD_CHANNEL, channel_loss_db=loss_db)
        rate = sps_expected_rate(FIELD_SOURCE, channel, FIELD_PROTO, FIELD_SEC).rate_per_pulse
        rates.append(rate)
        ratios.append(rate / target)
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    in_band = all(0.5 <= ratio <= 1.5 for ratio in ratios)
    ok = decreasing and in_band
    verdict(
        8,
        ok,
        "rates " + ", ".join(f"{r:.3e}" for r in rates)
        + "; ratios to reference " + ", ".join(f"{x:.2f}" for x in ratios),
    )


def test_criterion_9_property_suites():
    start = time.perf_counter()
    failures: list[str] = []

    # Distribution normalisation and moment round trip at 1e-12.
    for n_mean in (0.05, 0.2, 0.292, 0.5, 0.9):
        for g2 in (0.0, 0.00698, 0.1, 0.8):
            if g2 * n_mean > 1.0:
                continue
            dist = sps_distribution(n_mean, g2)
            if abs(math.fsum(dist.probs) - 1.0) > 1e-12:
                failures.append(f"normalisation ({n_mean}, {g2})")
            mean_out, g2_out = moments(dist)
            if abs(mean_out - n_mean) > 1e-12:
                failures.append(f"mean round trip ({n_mean}, {g2})")
            if g2 > 0 and abs(g2_out - g2) / g2 > 1e-12:
                failures.append(f"g2 round trip ({n_mean}, {g2})")

    # g2 loss-invariance at 1e-9 and attenuation composition at 1e-12.
    base = sps_distribution(0.292, 0.00698)
    for t in (0.015, 0.1, 0.37, 0.8, 1.0):
        _, g2_out = moments(attenuate(base, t))
        if abs(g2_out - 0.00698) > 1e-9:
            failures.append(f"loss invariance t={t}")
    wide = wcp_distribution(0.7, 10)
    for t1, t2 in ((0.3, 0.7), (0.9, 0.2), (0.5, 0.5)):
        once = attenuate(wide, t1 * t2)
        twice = attenuate(attenuate(wide, t1), t2)
        if any(abs(a - b) > 1e-12 for a, b in zip(once.probs, twice.probs)):
            failures.append(f"composition ({t1}, {t2})")

    # Chernoff ordering and Monte Carlo coverage.
    for x in (0.0, 1.0, 50.0, 1e4, 1e9):
        for eps in (1e-12, 1e-6, 1e-3, 0.5):
            lo = chernoff_bound(x, eps, "lower")
            hi = chernoff_bound(x, eps, "upper")
            if not 0.0 <= lo <= x <= hi:
                failures.append(f"ordering x={x} eps={eps}")
    trials = 100_000
    eps = 1e-3
    true_mean = 1e4 * 0.01
    samples = np.random.default_rng(20240809).binomial(10_000, 0.01, size=trials)
    beta = math.log(1.0 / eps)
    uppers = samples + beta + np.sqrt(2.0 * beta * samples + beta * beta)
    lowers = np.maximum(0.0, samples - np.sqrt(2.0 * beta * samples))
    misses = int(np.count_nonzero((true_mean < lowers) | (true_mean > uppers)))
    spot = samples[::5000]
    formula_ok = all(
        math.isclose(chernoff_bound(float(x), eps, "upper"), float(u), rel_tol=1e-12)
        and math.isclose(chernoff_bound(float(x), eps, "lower"), float(l), rel_tol=1e-12)
        for x, u, l in zip(spot, uppers[::5000], lowers[::5000])
    )
    allowance = eps * trials + 3.0 * math.sqrt(eps * trials)
    if misses > allowance:
        failures.append(f"coverage: {misses} misses > {allowance:.0f}")
    if not formula_ok:
        failures.append("vectorised coverage oracle disagrees with chernoff_bound")

    # Stochastic tallies against the analytic pipeline, 200 seeds.
    spec = TrialSpec(
        source=FIELD_SOURCE,
        channel=FIELD_CHANNEL,
        proto=ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e6),
        sec=FIELD_SEC,
        seed=97,
        repetitions=200,
    )
    summary = simulate_rate_distribution(spec)
    analytic = analytic_reference(spec).rate_per_pulse
    stderr = summary.stddev / math.sqrt(spec.repetitions)
    if abs(summary.mean - analytic) > max(3.0 * stderr, 0.05 * analytic):
        failures.append(
            f"stochastic mean {summary.mean:.4e} vs analytic {analytic:.4e}"
        )

    # GA determinism, elitism and recovery of the attenuated-branch optimum.
    eta, g2 = 0.01, 0.1

    def objective(params):
        return sps_rate_fixed_mean(eta, params["t"], g2)

    space = SearchSpace({"t": (1e-6, 1.0)})
    run_a = optimize(objective, space, GASettings(seed=5))
    run_b = optimize(objective, space, GASettings(seed=5))
    if run_a.best_params != run_b.best_params or run_a.history != run_b.history:
        failures.append("GA determinism")
    if any(b < a for a, b in zip(run_a.history, run_a.history[1:])):
        failures.append("GA elitism monotonicity")
    branch2 = sps_asymptotic_rate(eta, 1.0, g2)
    if abs(run_a.best_rate - branch2) / branch2 > 0.01:
        failures.append(
            f"GA optimum {run_a.best_rate:.6e} vs attenuated branch {branch2:.6e}"
        )

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    verdict(
        9,
        ok,
        f"{misses} coverage misses (allowed {allowance:.0f}), stochastic mean "
        f"{summary.mean:.4e} vs {analytic:.4e}, GA optimum within "
        f"{abs(run_a.best_rate - branch2) / branch2:.2%}, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )
