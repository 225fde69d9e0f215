"""Estimator tests against channels with known information content."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.channel_capacity import channel_capacity_bits
from repro.core.window import RandomFillWindow
from repro.leakage.estimators import (
    JointCounts,
    conditional_guessing_entropy,
    entropy_bits,
    guessing_entropy,
    mutual_information_bits,
    n_to_success,
    sample_window_channel,
    success_rate_curve,
)
from repro.util.rng import derive_seed


def identity_joint(m=8, trials=4000, seed=1):
    rng = random.Random(seed)
    return JointCounts.from_samples(
        (s, s) for s in (rng.randrange(m) for _ in range(trials)))


def independent_joint(m=8, trials=4000, seed=2):
    rng = random.Random(seed)
    return JointCounts.from_samples(
        (rng.randrange(m), rng.randrange(m)) for _ in range(trials))


class TestJointCounts:
    def test_accumulates(self):
        joint = JointCounts()
        joint.add(0, "a")
        joint.add(0, "a")
        joint.add(1, "b", count=3)
        assert joint.total == 5
        assert joint.row(0) == {"a": 2}
        assert joint.secret_marginal() == {0: 2, 1: 3}
        assert joint.observation_marginal() == {"a": 2, "b": 3}
        assert joint.num_joint_symbols() == 2

    def test_nested_round_trip(self):
        nested = {0: {(1,): 4, (): 1}, 3: {(1,): 2}}
        joint = JointCounts.from_nested(nested)
        assert joint.total == 7
        assert joint.row(3) == {(1,): 2}

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            JointCounts().add(0, "a", count=0)


class TestEntropy:
    def test_uniform(self):
        assert entropy_bits({i: 5 for i in range(8)}) == pytest.approx(3.0)

    def test_deterministic(self):
        assert entropy_bits({"x": 100}) == 0.0


class TestMutualInformation:
    def test_identity_channel_is_log2_m(self):
        mi = mutual_information_bits(identity_joint(m=8))
        assert mi == pytest.approx(3.0, abs=0.02)

    def test_independent_channel_is_zero(self):
        mi = mutual_information_bits(independent_joint(m=8))
        assert mi == pytest.approx(0.0, abs=0.05)

    def test_plugin_biased_above_corrected_on_noise(self):
        joint = independent_joint(m=8)
        plugin = mutual_information_bits(joint, correction="none")
        corrected = mutual_information_bits(joint)
        assert plugin > corrected  # MM removes the upward bias

    def test_eq7_channel_matches_analytic_capacity(self):
        """The acceptance check: empirical MI on the Equation (7)
        channel reproduces the Equation (8) closed form."""
        for size in (2, 8, 32):
            window = RandomFillWindow.bidirectional(size)
            joint = sample_window_channel(16, window, trials=6000, seed=3)
            mi = mutual_information_bits(joint)
            capacity = channel_capacity_bits(16, window)
            assert mi == pytest.approx(capacity, abs=0.12), f"W={size}"

    def test_unknown_correction_rejected(self):
        with pytest.raises(ValueError):
            mutual_information_bits(identity_joint(), correction="jackknife")

    def test_empty_joint_rejected(self):
        with pytest.raises(ValueError):
            mutual_information_bits(JointCounts())


class TestGuessingEntropy:
    def test_identity_channel_needs_one_guess(self):
        assert conditional_guessing_entropy(identity_joint()) == 1.0

    def test_independent_channel_degrades_to_blind(self):
        joint = independent_joint(m=8, trials=8000)
        blind = guessing_entropy(joint)
        conditional = conditional_guessing_entropy(joint)
        # blind uniform-8 guessing: (M + 1) / 2 = 4.5
        assert blind == pytest.approx(4.5, abs=0.3)
        assert conditional == pytest.approx(blind, abs=0.4)

    def test_monotone_in_window_size(self):
        """More randomization -> strictly more guesses needed."""
        ges = []
        for size in (2, 8, 32):
            joint = sample_window_channel(
                16, RandomFillWindow.bidirectional(size), trials=5000, seed=4)
            ges.append(conditional_guessing_entropy(joint))
        assert ges[0] < ges[1] < ges[2]

    def test_conditioning_never_hurts(self):
        joint = sample_window_channel(
            16, RandomFillWindow.bidirectional(8), trials=5000, seed=5)
        assert conditional_guessing_entropy(joint) <= guessing_entropy(joint)


class TestSuccessRateCurve:
    def test_identity_channel_succeeds_immediately(self):
        curve = success_rate_curve(identity_joint(), (1, 2), repeats=100,
                                   seed=1)
        assert curve[0][1] == 1.0
        assert curve[0][2] == 1.0  # mean rank

    def test_rate_grows_with_measurements(self):
        joint = sample_window_channel(
            16, RandomFillWindow.bidirectional(8), trials=5000, seed=6)
        curve = success_rate_curve(joint, (1, 8, 64), repeats=300, seed=2)
        rates = [rate for _n, rate, _rank in curve]
        assert rates[0] < rates[1] < rates[2]
        assert rates[2] > 0.9

    def test_rank_shrinks_with_measurements(self):
        joint = sample_window_channel(
            16, RandomFillWindow.bidirectional(8), trials=5000, seed=7)
        curve = success_rate_curve(joint, (1, 64), repeats=300, seed=3)
        assert curve[-1][2] < curve[0][2]

    def test_deterministic_for_seed(self):
        joint = sample_window_channel(
            16, RandomFillWindow.bidirectional(4), trials=2000, seed=8)
        kwargs = dict(measurement_counts=(1, 4), repeats=50, seed=9)
        assert success_rate_curve(joint, **kwargs) == \
            success_rate_curve(joint, **kwargs)

    def test_n_to_success(self):
        curve = [(1, 0.2, 5.0), (4, 0.7, 2.0), (16, 0.95, 1.1)]
        assert n_to_success(curve, target=0.9) == 16
        assert n_to_success(curve, target=0.99) is None
        with pytest.raises(ValueError):
            n_to_success(curve, target=0.0)


def reference_success_rate_curve(joint, measurement_counts, repeats, seed, smoothing):
    """Per-draw ML scoring: one dict lookup per (observation, secret).

    Scores accumulate left to right from 0, the order ``sum()`` used
    before Python 3.12 (3.12+ ``sum()`` compensates float rounding).
    """
    secrets = joint.secrets
    obs_alphabet = list(joint.observation_marginal())
    k_obs = len(obs_alphabet) + 1
    rows = [joint.row(secret) for secret in secrets]
    cum_tables = []
    for row in rows:
        symbols = list(row)
        cum = []
        running = 0
        for obs in symbols:
            running += row[obs]
            cum.append(running)
        cum_tables.append((symbols, cum, running))
    log_templates = []
    for row in rows:
        denom = math.log(sum(row.values()) + smoothing * k_obs)
        log_templates.append(
            {obs: math.log(row.get(obs, 0) + smoothing) - denom for obs in obs_alphabet})
    points = []
    for n in measurement_counts:
        rng = random.Random(derive_seed(seed, "success-rate", n))
        successes = 0
        rank_sum = 0.0
        for _ in range(repeats):
            true_idx = rng.randrange(len(secrets))
            symbols, cum, total_s = cum_tables[true_idx]
            drawn = [symbols[bisect_right(cum, rng.randrange(total_s))] for _ in range(n)]
            scores = []
            for template in log_templates:
                score = 0
                for obs in drawn:
                    score += template[obs]
                scores.append(score)
            true_score = scores[true_idx]
            higher = sum(1 for s in scores if s > true_score)
            ties = sum(1 for s in scores if s == true_score) - 1
            if higher == 0 and ties == 0:
                successes += 1
            rank_sum += 1 + higher + ties / 2.0
        points.append((n, successes / repeats, rank_sum / repeats))
    return points


@st.composite
def joints(draw):
    """Small joints over int or tuple (flush-reload style) observations.

    ``copy`` repeats a row under another secret, so scores tie exactly.
    ``permute`` gives another secret the same counts on permuted
    observations: its scores equal the first secret's up to rounding,
    so only the exact summation order decides ``>`` against ``==``.
    """
    if draw(st.booleans()):
        obs = st.integers(-3, 12)
    else:
        obs = st.lists(st.integers(0, 4), max_size=3, unique=True).map(tuple)
    n_secrets = draw(st.integers(1, 6))
    rows = [draw(st.dictionaries(obs, st.integers(1, 9), min_size=1, max_size=5))
            for _ in range(n_secrets)]
    mode = draw(st.sampled_from(["free", "copy", "permute"]))
    if n_secrets > 1 and mode == "copy":
        rows[-1] = dict(rows[0])
    elif n_secrets > 1 and mode == "permute":
        keys = list(rows[0])
        rows[-1] = dict(zip(keys, draw(st.permutations(list(rows[0].values())))))
    secrets = draw(st.permutations(range(n_secrets)))
    return JointCounts.from_nested(dict(zip(secrets, rows)))


class TestSuccessRateCurveReference:
    @settings(max_examples=150, deadline=None)
    @given(
        joint=joints(),
        counts=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        repeats=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        smoothing=st.sampled_from([0.5, 1.0, 0.1]),
    )
    def test_matches_per_draw_reference(self, joint, counts, repeats, seed, smoothing):
        kwargs = dict(repeats=repeats, seed=seed, smoothing=smoothing)
        assert success_rate_curve(joint, counts, **kwargs) == \
            reference_success_rate_curve(joint, counts, **kwargs)

    def test_single_secret_always_wins(self):
        joint = JointCounts.from_nested({3: {(): 2, (1,): 5}})
        assert success_rate_curve(joint, (1, 64), repeats=20, seed=4) == \
            [(1, 1.0, 1.0), (64, 1.0, 1.0)]

    def test_identical_templates_tie(self):
        """Two secrets with one template: never a strict winner, and the
        tie shares ranks 1 and 2."""
        joint = JointCounts.from_nested({0: {7: 3, 8: 1}, 1: {7: 3, 8: 1}})
        assert success_rate_curve(joint, (1, 16), repeats=30, seed=1) == \
            [(1, 0.0, 1.5), (16, 0.0, 1.5)]


class TestWindowChannelSampler:
    def test_observation_stays_in_window(self):
        window = RandomFillWindow(2, 1)
        joint = sample_window_channel(8, window, trials=500, seed=1)
        for secret, obs, _count in joint.items():
            assert secret - 2 <= obs <= secret + 1

    def test_validation(self):
        window = RandomFillWindow(1, 1)
        with pytest.raises(ValueError):
            sample_window_channel(0, window, trials=10)
        with pytest.raises(ValueError):
            sample_window_channel(8, window, trials=0)
