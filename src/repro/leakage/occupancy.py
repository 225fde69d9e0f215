"""Cache-occupancy channel: the attacker sees only *how many* lines.

Unlike Flush-Reload or Prime-Probe, the occupancy attacker never learns
*which* of its lines was evicted — only the aggregate count.  It primes
the whole cache with its own data, lets the victim run a
secret-dependent working set, then probes its lines and counts the
misses.  Because the observation is address-free, mapping
randomization (Newcache, RPcache) does not degrade it: every victim
fill still displaces one attacker line somewhere.  What *does* degrade
it is the random fill strategy (window collisions make the fill count a
noisy function of the working-set size) and preload+lock (the victim's
accesses all hit, so nothing is displaced).  This follows the
systematic-evaluation methodology of Chakraborty et al. and the
replacement-policy observations of Peters et al. (see PAPERS.md).

The victim here models a secret-dependent *footprint*: secret ``s`` in
``[0, M)`` touches the first ``s + 1`` lines of the protected region —
the occupancy analogue of the single secret-indexed lookup the storage
channel uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.leakage.adapters import FunctionalScheme
from repro.leakage.estimators import (
    JointCounts,
    conditional_guessing_entropy,
    mutual_information_bits,
)
from repro.util.rng import derive_seed

#: attacker prime lines start here (far from every victim region in use)
ATTACKER_BASE_LINE = 0xB00_0000 // 64


@dataclass
class OccupancyResult:
    """Aggregate outcome of an occupancy-channel measurement campaign."""

    trials: int
    joint: JointCounts  # secret -> {attacker miss count: trials}
    mutual_information: float  # Miller-Madow corrected, bits
    mutual_information_plugin: float
    guessing_entropy: float  # conditional on the observation

    @property
    def secret_space(self) -> int:
        return len(self.joint)


def run_occupancy_trials(
    scheme: FunctionalScheme, trials: int = 1000, seed: int = 0
) -> OccupancyResult:
    """Run the occupancy channel against one functional scheme.

    Each trial: reset the victim's lines (fresh victim run), prime the
    cache with attacker lines, let the victim touch ``secret + 1``
    region lines through the scheme's fill strategy, then count how
    many attacker lines went missing.  The (secret, miss count) pairs
    feed the shared estimators.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    store = scheme.tag_store
    attacker_ctx = scheme.attacker_ctx
    region_lines = list(scheme.region.lines)
    m = len(region_lines)
    n_prime = scheme.capacity_lines
    prime_lines = [ATTACKER_BASE_LINE + i for i in range(n_prime)]
    prime_end = ATTACKER_BASE_LINE + n_prime
    rng = random.Random(derive_seed(seed, "occupancy", scheme.name, "secrets"))
    joint = JointCounts()
    from repro.check import active_checker

    checker = active_checker()
    access = store.access
    fill = store.fill
    victim_access = scheme.victim_access
    randrange = rng.randrange
    resident = None  # first trial: reset_victim walks the store itself

    for _ in range(trials):
        if checker is not None:
            checker.maybe_validate_store(store, where="occupancy.tag_store")
        # The previous trial's probe listed the resident lines and
        # nothing has touched the store since, so the reset reuses it.
        scheme.reset_victim(resident)
        # Prime: top the cache back up with attacker lines (after the
        # first trial only the previously displaced ones refill).  This
        # stays a per-line loop on purpose: ``access`` on a hit updates
        # recency state, which steers the victim's later evictions, so
        # a precomputed membership mask would change results.
        for line in prime_lines:
            if not access(line, attacker_ctx):
                fill(line, attacker_ctx)
        # Victim: a secret-dependent working set.
        secret = randrange(m)
        for line in region_lines[: secret + 1]:
            victim_access(line)
        # Probe: the aggregate miss count is the whole observation.
        # ``probe`` is side-effect-free in every store and each prime
        # address is resident at most once, so the per-line probe scan
        # collapses into one numpy range-membership count over the
        # store's resident lines.
        resident = list(store.resident_lines())
        lines = np.array(resident, dtype=np.int64)
        present = int(np.count_nonzero((lines >= ATTACKER_BASE_LINE) & (lines < prime_end)))
        joint.add(secret, n_prime - present)

    return OccupancyResult(
        trials=trials,
        joint=joint,
        mutual_information=mutual_information_bits(joint),
        mutual_information_plugin=mutual_information_bits(joint, correction="none"),
        guessing_entropy=conditional_guessing_entropy(joint),
    )
