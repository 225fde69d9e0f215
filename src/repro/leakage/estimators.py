"""Empirical leakage estimators over (secret, observation) streams.

Every attack in this repository reduces to the same abstraction: the
victim holds a secret ``S``, the attacker records an observation ``O``,
and the leakage is a property of the joint distribution P(S, O).  This
module estimates the standard metrics from sampled pairs:

* **Mutual information** — the plug-in estimator, optionally with the
  Miller-Madow bias correction (the plug-in estimate of I(S; O) is
  biased *upward* by roughly ``(|S||O| - |S| - |O| + 1) / (2 N ln 2)``
  bits, which matters exactly in the low-leakage regime the random fill
  cache creates).
* **Guessing entropy** — the expected number of guesses an optimal
  attacker needs to hit the secret, unconditionally (no observation)
  and conditioned on the observation.
* **Success-rate / key-rank curves** — maximum-likelihood decoding of
  the secret from ``n`` i.i.d. observations using the empirical
  per-secret templates, swept over ``n`` (the empirical analogue of the
  paper's Equation (5) measurement count).

All estimators consume a :class:`JointCounts`, which any sample stream
builds incrementally; observations may be any hashable value (an int
miss count, a tuple of probed lines, ...).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import derive_seed

Observation = Hashable

#: correction modes accepted by :func:`mutual_information_bits`
MI_CORRECTIONS = ("none", "miller-madow")


class JointCounts:
    """Integer counts of (secret, observation) pairs.

    Secrets and observations are kept in first-seen order, which is a
    pure function of the sample stream — estimates are therefore
    bit-identical across processes for the same stream.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, Dict[Observation, int]] = {}
        self.total = 0

    @classmethod
    def from_samples(cls, samples: Iterable[Tuple[int, Observation]]) -> "JointCounts":
        joint = cls()
        for secret, obs in samples:
            joint.add(secret, obs)
        return joint

    @classmethod
    def from_nested(cls, nested: Mapping[int, Mapping[Observation, int]]) -> "JointCounts":
        """Build from a ``{secret: {observation: count}}`` mapping."""
        joint = cls()
        for secret, row in nested.items():
            for obs, count in row.items():
                joint.add(secret, obs, count)
        return joint

    def add(self, secret: int, obs: Observation, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        row = self._counts.setdefault(secret, {})
        row[obs] = row.get(obs, 0) + count
        self.total += count

    # -- views -----------------------------------------------------------

    @property
    def secrets(self) -> List[int]:
        return list(self._counts)

    def row(self, secret: int) -> Dict[Observation, int]:
        return dict(self._counts.get(secret, {}))

    def secret_marginal(self) -> Dict[int, int]:
        return {secret: sum(row.values()) for secret, row in self._counts.items()}

    def observation_marginal(self) -> Dict[Observation, int]:
        marginal: Dict[Observation, int] = {}
        for row in self._counts.values():
            for obs, count in row.items():
                marginal[obs] = marginal.get(obs, 0) + count
        return marginal

    def items(self) -> Iterable[Tuple[int, Observation, int]]:
        for secret, row in self._counts.items():
            for obs, count in row.items():
                yield secret, obs, count

    def num_joint_symbols(self) -> int:
        return sum(len(row) for row in self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointCounts):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JointCounts({len(self)} secrets, "
            f"{self.num_joint_symbols()} joint symbols, "
            f"total={self.total})"
        )


def entropy_bits(counts: Mapping[Hashable, int]) -> float:
    """Plug-in Shannon entropy of a count table, in bits."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("entropy of an empty count table is undefined")
    h = 0.0
    for count in counts.values():
        if count:
            p = count / total
            h -= p * math.log2(p)
    return h


def mutual_information_bits(joint: JointCounts, correction: str = "miller-madow") -> float:
    """Empirical I(S; O) in bits.

    ``correction`` is ``"none"`` for the raw plug-in estimate or
    ``"miller-madow"`` (default) for the first-order bias correction
    ``(K_S + K_O - K_SO - 1) / (2 N ln 2)``, where the K's are the
    numbers of *observed* symbols.  The corrected estimate is clamped
    at zero (true MI is non-negative).
    """
    if correction not in MI_CORRECTIONS:
        raise ValueError(f"unknown correction {correction!r}; known: {MI_CORRECTIONS}")
    total = joint.total
    if total <= 0:
        raise ValueError("mutual information of an empty joint is undefined")
    s_marginal = joint.secret_marginal()
    o_marginal = joint.observation_marginal()
    mi = 0.0
    for secret, obs, count in joint.items():
        p = count / total
        mi += p * math.log2(p / ((s_marginal[secret] / total) * (o_marginal[obs] / total)))
    if correction == "miller-madow":
        k_s = len(s_marginal)
        k_o = len(o_marginal)
        k_so = joint.num_joint_symbols()
        mi += (k_s + k_o - k_so - 1) / (2.0 * total * math.log(2.0))
        mi = max(mi, 0.0)
    return mi


def guessing_entropy(joint: JointCounts) -> float:
    """Unconditional guessing entropy E[rank of S], first guess = 1.

    The optimal blind attacker guesses secrets in decreasing prior
    order; for a uniform M-ary secret this is ``(M + 1) / 2``.
    """
    marginal = joint.secret_marginal()
    return _expected_rank(list(marginal.values()))


def conditional_guessing_entropy(joint: JointCounts) -> float:
    """Guessing entropy given the observation, E_O[E[rank of S | O]].

    The attacker ranks secrets by posterior P(s | o).  A perfectly
    leaky channel gives 1.0; an independent one degrades to the
    unconditional :func:`guessing_entropy`.  Leakier channels always
    score lower (data-processing: conditioning cannot hurt a ranking
    attacker on average).
    """
    total = joint.total
    if total <= 0:
        raise ValueError("guessing entropy of an empty joint is undefined")
    # Group counts by observation: posterior P(s|o) ∝ joint count.
    by_obs: Dict[Observation, List[int]] = {}
    for _secret, obs, count in joint.items():
        by_obs.setdefault(obs, []).append(count)
    ge = 0.0
    for counts in by_obs.values():
        p_obs = sum(counts) / total
        ge += p_obs * _expected_rank(counts)
    return ge


def _expected_rank(counts: Sequence[int]) -> float:
    """E[rank] of a value drawn from ``counts`` under best-first guessing.

    Ties share their rank block evenly (the attacker has no basis to
    order within a tie, so the expectation averages over the block).
    """
    total = sum(counts)
    if total <= 0:
        raise ValueError("expected rank of an empty count table is undefined")
    ordered = sorted(counts, reverse=True)
    ge = 0.0
    rank = 1
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        block = j - i  # ties occupy ranks [rank, rank+block)
        mean_rank = rank + (block - 1) / 2.0
        for k in range(i, j):
            ge += (ordered[k] / total) * mean_rank
        rank += block
        i = j
    return ge


def success_rate_curve(
    joint: JointCounts,
    measurement_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    repeats: int = 200,
    seed: int = 0,
    smoothing: float = 0.5,
) -> List[Tuple[int, float, float]]:
    """Success rate and mean key rank of an ML attacker vs. measurements.

    The attacker knows the empirical templates P(o | s) (profiling
    phase = the ``joint`` itself).  For each ``n`` in
    ``measurement_counts`` we Monte-Carlo ``repeats`` attacks: draw a
    uniform secret, draw ``n`` observations i.i.d. from its template,
    and rank every candidate secret by smoothed log-likelihood.
    Returns ``(n, success_rate, mean_rank)`` triples, where success
    means the true secret is the *strict* likelihood winner and ranks
    are 1-based with ties sharing their block's mean rank.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    secrets = joint.secrets
    if not secrets:
        raise ValueError("success rate of an empty joint is undefined")
    obs_alphabet = list(joint.observation_marginal())
    column = {obs: j for j, obs in enumerate(obs_alphabet)}
    k_obs = len(obs_alphabet) + 1  # +1: an implicit unseen symbol
    # Per-secret sampling tables (symbols as alphabet columns) and one
    # (observations x secrets) table of smoothed log-likelihoods.  Every
    # drawn observation comes from some row, so the alphabet covers it.
    rows = [joint.row(secret) for secret in secrets]
    cum_tables = []
    for row in rows:
        symbols = [column[obs] for obs in row]
        cum = list(accumulate(row.values()))
        cum_tables.append((symbols, cum, cum[-1]))
    log_table = np.empty((len(obs_alphabet), len(secrets)), dtype=np.float64)
    for idx, row in enumerate(rows):
        denom = math.log(sum(row.values()) + smoothing * k_obs)
        log_table[:, idx] = [math.log(row.get(obs, 0) + smoothing) - denom for obs in obs_alphabet]

    points: List[Tuple[int, float, float]] = []
    for n in measurement_counts:
        if n <= 0:
            raise ValueError(f"measurement counts must be positive, got {n}")
        rng = random.Random(derive_seed(seed, "success-rate", n))
        randrange = rng.randrange
        # Draw every repeat's (secret, observations) from the stream in
        # the per-repeat order the attack consumes it.
        true_idx = []
        drawn = []
        for _ in range(repeats):
            secret_idx = randrange(len(secrets))
            symbols, cum, total_s = cum_tables[secret_idx]
            true_idx.append(secret_idx)
            drawn.append([symbols[bisect_right(cum, randrange(total_s))] for _ in range(n)])
        drawn_cols = np.array(drawn, dtype=np.intp).reshape(repeats, n)
        # Adding one observation's row at a time makes each score the
        # left-to-right float sum of its n log-likelihoods (the order
        # ``sum()`` used before Python 3.12), so the exact ``>``/``==``
        # comparisons below do not depend on the Python version.
        scores = np.zeros((repeats, len(secrets)), dtype=np.float64)
        for j in range(n):
            scores += log_table[drawn_cols[:, j]]
        true_score = scores[np.arange(repeats), true_idx][:, None]
        higher = np.count_nonzero(scores > true_score, axis=1).tolist()
        ties = (np.count_nonzero(scores == true_score, axis=1) - 1).tolist()
        successes = sum(1 for h, t in zip(higher, ties) if h == 0 and t == 0)
        rank_sum = 0.0
        for h, t in zip(higher, ties):
            rank_sum += 1 + h + t / 2.0
        points.append((n, successes / repeats, rank_sum / repeats))
    return points


def n_to_success(curve: Sequence[Tuple[int, float, float]], target: float = 0.9) -> Optional[int]:
    """Smallest measurement count reaching ``target`` success rate."""
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    for n, rate, _rank in curve:
        if rate >= target:
            return n
    return None


def sample_window_channel(m_lines: int, window, trials: int, seed: int = 0) -> JointCounts:
    """Sample the Equation (7) storage channel directly.

    The sender is uniform over ``[0, M)``; the receiver observes
    ``i + U`` with ``U`` uniform over ``[-a, b]`` — exactly the channel
    whose capacity :func:`repro.analysis.channel_capacity.channel_capacity_bits`
    computes in closed form.  Used to validate the empirical estimators
    against the analytic bound.
    """
    if m_lines <= 0:
        raise ValueError(f"m_lines must be positive, got {m_lines}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(derive_seed(seed, "eq7", m_lines, window.a, window.b))
    size = window.size
    a = window.a
    joint = JointCounts()
    for _ in range(trials):
        secret = rng.randrange(m_lines)
        joint.add(secret, secret + rng.randrange(size) - a)
    return joint
