"""Stochastic tallies against the analytic expectation pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrates.channel import ChannelDetectorModel, detection_stats, link_transmittance
from keyrates.finite_key.core import (
    InsufficientBlock,
    ProtocolConfig,
    SecurityParams,
    expected_tallies,
    sps_key_length,
)
from keyrates.montecarlo import (
    RateSummary,
    TrialSpec,
    analytic_reference,
    iter_trials,
    simulate_rate_distribution,
    simulate_trial,
)
from keyrates.photon_source import SourceKind, SourceSpec
from keyrates.seeding import spawned_generators

FIELD_CHANNEL = ChannelDetectorModel(14.6, 0.6, 0.712, 43.0, 3.42e-9, 0.0254)
FIELD_SEC = SecurityParams(11e-10 / 12, 1e-10 / 24, 1e-15, 1.16)
FIELD_SPEC = TrialSpec(
    source=SourceSpec(SourceKind.SPS, 0.292, 0.00698),
    channel=FIELD_CHANNEL,
    proto=ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e6),
    sec=FIELD_SEC,
    seed=1234,
    repetitions=200,
)


class TestSimulateTrial:
    def test_fixed_seed_reproduces_tallies(self):
        first = simulate_trial(FIELD_SPEC)
        second = simulate_trial(FIELD_SPEC)
        assert first == second

    @pytest.mark.parametrize("seed", [1234, 7])
    def test_default_stream_is_repetition_zero(self, seed):
        # Repetition i draws from child i of SeedSequence(seed), also
        # when simulate_trial picks its own generator.
        spec = replace(FIELD_SPEC, seed=seed, repetitions=3)
        assert simulate_trial(spec) == next(iter_trials(spec))[0]

    def test_dark_count_limit(self):
        # A source a dozen orders dimmer than the dark counts: detections
        # are dark counts alone and half of them are errors.
        spec = TrialSpec(
            source=SourceSpec(SourceKind.SPS, 1e-9, 0.0),
            channel=FIELD_CHANNEL,
            proto=ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=2000),
            sec=FIELD_SEC,
            seed=7,
            repetitions=300,
        )
        totals = np.array(
            [
                (t.z_detections, t.z_errors)
                for t in (
                    simulate_trial(spec, np.random.default_rng(child))
                    for child in np.random.SeedSequence(spec.seed).spawn(spec.repetitions)
                )
            ]
        )
        mean_detections = totals[:, 0].mean()
        stderr = totals[:, 0].std(ddof=1) / math.sqrt(len(totals))
        assert abs(mean_detections - spec.proto.block_size) <= 3.0 * stderr + 1.0
        # Dark counts err half the time.
        error_fraction = totals[:, 1].sum() / totals[:, 0].sum()
        assert error_fraction == pytest.approx(0.5, abs=0.05)

    def test_tally_means_match_analytic_expectation(self):
        spec = replace(FIELD_SPEC, repetitions=200)
        children = np.random.SeedSequence(spec.seed).spawn(spec.repetitions)
        tallies = [simulate_trial(spec, np.random.default_rng(c)) for c in children]
        for field in ("z_detections", "x_detections", "z_errors", "x_errors"):
            values = np.array([getattr(t, field) for t in tallies], dtype=float)
            sample_mean = values.mean()
            stderr = values.std(ddof=1) / math.sqrt(len(values))
            expectation = {
                "z_detections": spec.proto.block_size,
                "x_detections": tallies[0].n_pulses_sent * 0.01 * _gain(spec),
                "z_errors": spec.proto.block_size * _qber(spec),
                "x_errors": tallies[0].n_pulses_sent * 0.01 * _gain(spec) * _qber(spec),
            }[field]
            assert abs(sample_mean - expectation) <= 3.0 * stderr + 1.0, field


def _gain(spec):
    return detection_stats(
        spec.source.distribution(), link_transmittance(spec.channel), spec.channel
    ).q


def _qber(spec):
    return detection_stats(
        spec.source.distribution(), link_transmittance(spec.channel), spec.channel
    ).qber


class TestRateDistribution:
    def test_mean_rate_matches_analytic_pipeline(self):
        summary = simulate_rate_distribution(FIELD_SPEC)
        analytic = analytic_reference(FIELD_SPEC).rate_per_pulse
        assert summary.failures == 0
        assert abs(summary.mean - analytic) / analytic <= 0.05

    def test_summary_quantiles_ordered(self):
        summary = simulate_rate_distribution(replace(FIELD_SPEC, repetitions=50))
        assert isinstance(summary, RateSummary)
        assert summary.q05 <= summary.median <= summary.q95

    def test_zero_variance_for_perfect_link(self):
        # Unit-efficiency receiver, lossless channel, one photon per
        # pulse: every sifted pulse is detected.
        spec = TrialSpec(
            source=SourceSpec(SourceKind.SPS, 1.0, 0.0),
            channel=ChannelDetectorModel(0.0, 1.0, 1.0, 43.0, 3.42e-9, 0.0254),
            proto=ProtocolConfig(q_z_tx=0.9, q_z_rx=0.9, block_size=1e5),
            sec=FIELD_SEC,
            seed=5,
            repetitions=40,
        )
        children = np.random.SeedSequence(spec.seed).spawn(spec.repetitions)
        detections = {
            simulate_trial(spec, np.random.default_rng(c)).z_detections for c in children
        }
        assert len(detections) == 1

    def test_multiphoton_contamination_lowers_mean_rate(self):
        clean = simulate_rate_distribution(
            replace(FIELD_SPEC, source=SourceSpec(SourceKind.SPS, 0.292, 0.0), repetitions=60)
        )
        dirty = simulate_rate_distribution(
            replace(FIELD_SPEC, source=SourceSpec(SourceKind.SPS, 0.292, 0.005), repetitions=60)
        )
        assert clean.mean > dirty.mean

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            replace(FIELD_SPEC, repetitions=0)
        # Every spawn key must be one uint32 word.
        with pytest.raises(ValueError):
            replace(FIELD_SPEC, repetitions=2**32)

    def test_seed_validated(self):
        with pytest.raises(ValueError):
            replace(FIELD_SPEC, seed=-1)
        with pytest.raises(TypeError):
            replace(FIELD_SPEC, seed=1.5)

    def test_seed_splitting_is_prefix_stable(self):
        # Child streams are spawned incrementally, so extending the run
        # reproduces the earlier trials unchanged.
        short = list(iter_trials(replace(FIELD_SPEC, repetitions=3)))
        longer = list(iter_trials(replace(FIELD_SPEC, repetitions=6)))
        assert [t for t, _, _ in short] == [t for t, _, _ in longer[:3]]

    def test_trials_draw_the_simulate_trial_tallies(self):
        spec = replace(FIELD_SPEC, repetitions=5)
        children = np.random.SeedSequence(spec.seed).spawn(spec.repetitions)
        expected = [simulate_trial(spec, np.random.default_rng(c)) for c in children]
        assert [t for t, _, _ in iter_trials(spec)] == expected


@pytest.mark.parametrize(
    "g2, block_size, keyless",
    [
        # Near the multi-photon threshold: about half the trials draw
        # fewer Z detections than the cap and raise InsufficientBlock.
        (0.085, 1e4, True),
        # The field source: every trial distils a positive key.
        (0.00698, 1e6, False),
    ],
)
def test_batched_distillation_matches_per_trial_key_length(g2, block_size, keyless):
    spec = replace(
        FIELD_SPEC,
        source=SourceSpec(SourceKind.SPS, 0.292, g2),
        proto=replace(FIELD_SPEC.proto, block_size=block_size),
        repetitions=300,
    )
    _, launched = expected_tallies(spec.source, spec.channel, spec.proto)
    insufficient = 0
    for tallies, key_length, rate in iter_trials(spec):
        try:
            report = sps_key_length(tallies, launched, spec.proto, spec.sec)
        except InsufficientBlock:
            insufficient += 1
            assert math.isnan(key_length) and math.isnan(rate)
            continue
        # NumPy's log2 and libm's may differ in the last bit.
        assert key_length == pytest.approx(report.key_length, rel=1e-12, abs=0.0)
        assert rate == pytest.approx(report.rate_per_pulse, rel=1e-12, abs=0.0)
        assert (key_length > 0.0) is not keyless
    if keyless:
        assert 0 < insufficient < spec.repetitions
    else:
        assert insufficient == 0


@settings(max_examples=60, deadline=None)
@example(seed=0, n=1)
@example(seed=2**128, n=3)
@example(seed=2**256 - 1, n=64)
@given(
    seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**256 - 1)),
    n=st.integers(1, 64),
)
def test_spawned_generators_are_those_of_spawned_seed_sequences(seed, n):
    # Seeds above 2**128 take more run-entropy words than the pool holds.
    expected = [np.random.PCG64(c).state for c in np.random.SeedSequence(seed).spawn(n)]
    assert [rng.bit_generator.state for rng in spawned_generators(seed, n)] == expected
