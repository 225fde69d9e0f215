"""Functional per-scheme cache builders for the leakage channels.

The leakage attacks operate on the *functional* (hit/miss-only) level,
like the Section V-A Monte Carlo: what matters for the channel is which
lines are resident, not the cycle counts.  A :class:`FunctionalScheme`
bundles a freshly built tag store, the victim's fill strategy (demand
fetch, a random fill window, or a scheme-specific model), the
attacker/victim access contexts and the per-trial victim reset — one
uniform surface the Flush-Reload and occupancy loops can run against
any design through.

Which schemes exist, how their stores are built and which fill strategy
their victim runs all come from the scheme-plugin registry
(:mod:`repro.schemes`): ``LEAKAGE_SCHEMES`` is computed from the
registered specs, and registering a new :class:`~repro.schemes.SchemeSpec`
with a ``store_factory`` makes it buildable here with no further code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, Optional

from repro.analysis.hit_probability import FunctionalRandomFillCache
from repro.cache.context import AccessContext
from repro.cache.tagstore import TagStore
from repro.core.window import (
    DISABLED_WINDOW,
    RandomFillWindow,
    validate_window,
)
from repro.schemes import StoreGeometry, functional_scheme_names, get_scheme
from repro.schemes import random_fill_scheme_names
from repro.secure.region import ProtectedRegion
from repro.util.rng import HardwareRng, derive_seed

#: every registered scheme with a functional store (registry order)
LEAKAGE_SCHEMES = functional_scheme_names()

#: schemes whose victim runs the random fill strategy
RANDOM_FILL_SCHEMES = random_fill_scheme_names()

VICTIM_CTX = AccessContext(thread_id=0, domain=0)
ATTACKER_CTX = AccessContext(thread_id=1, domain=1)
_LOCK_CTX = AccessContext(thread_id=0, domain=0, lock=True)


@dataclass
class FunctionalScheme:
    """A built functional scheme plus the knobs the leakage loops need.

    ``victim_cache`` is any object exposing ``access_line(line) -> bool``
    — the default windowed :class:`FunctionalRandomFillCache` or a
    scheme's custom victim model (e.g. Random-and-Safe's decoy fill).
    """

    name: str
    tag_store: TagStore
    window: RandomFillWindow
    region: ProtectedRegion
    victim_cache: Any
    victim_ctx: AccessContext = VICTIM_CTX
    attacker_ctx: AccessContext = ATTACKER_CTX
    #: every line a victim access can install (region plus window margins)
    victim_lines: FrozenSet[int] = field(default_factory=frozenset)
    preloaded: bool = False
    #: the victim model is scheme-specific (not the windowed default)
    custom_fill: bool = False

    @property
    def capacity_lines(self) -> int:
        return self.tag_store.capacity_lines

    def victim_access(self, line_addr: int) -> bool:
        """One victim access through the scheme's fill strategy."""
        return self.victim_cache.access_line(line_addr)

    def reset_victim(self, resident: Optional[Iterable[int]] = None) -> None:
        """Return the victim's cache state to its trial-start condition.

        Models a fresh victim run: every line the victim could have
        installed is invalidated; for ``plcache_preload`` the preload
        routine then re-runs (the paper's defence re-preloads on every
        context switch / program start).

        ``resident`` is the store's ``resident_lines()`` in order, for a
        caller that has just listed them and not touched the store
        since; without it the store is walked here.
        """
        store = self.tag_store
        victim_lines = self.victim_lines
        if resident is None:
            resident = store.resident_lines()
        # Frozenset ``in`` is O(1) per resident line, cheaper than
        # np.isin's sort/search (8us vs 29us per reset at 128 lines).
        # The filter is materialized first because invalidating mutates
        # the store that ``resident_lines()`` walks.
        for line in [line for line in resident if line in victim_lines]:
            store.invalidate(line)
        if self.preloaded:
            self._preload()

    def _preload(self) -> None:
        for line in self.region.lines:
            if not self.tag_store.access(line, _LOCK_CTX):
                self.tag_store.fill(line, _LOCK_CTX)


def build_functional_scheme(
    name: str,
    region: ProtectedRegion,
    window: Optional[RandomFillWindow] = None,
    cache_bytes: int = 8 * 1024,
    associativity: int = 4,
    seed: int = 0,
) -> FunctionalScheme:
    """Construct a registered functional scheme around ``region``.

    ``window`` is required by the random fill schemes and rejected (if
    enabled) by every other fill strategy.  Every RNG the scheme owns is
    derived from ``seed`` via :func:`repro.util.rng.derive_seed`; the
    derivation strings are per-scheme stable (golden-pinned), so a
    registry migration can never silently move measured results.
    Unknown names raise :class:`ValueError` listing the registered
    functional schemes.
    """
    spec = get_scheme(name, functional=True)
    if spec.uses_window:
        if window is None or window.disabled:
            raise ValueError(f"scheme {name!r} needs an enabled window")
    elif window is not None and not window.disabled:
        raise ValueError(f"scheme {name!r} cannot honour a random fill window")
    window = window if spec.uses_window else DISABLED_WINDOW

    geometry = StoreGeometry(
        cache_bytes=cache_bytes,
        associativity=associativity,
        seed=derive_seed(seed, "leakage", name, "store"),
    )
    store: TagStore = spec.store_factory(geometry)

    validate_window(
        window, capacity_lines=store.capacity_lines, where=f"scheme {name!r}"
    )
    fill_rng = HardwareRng(derive_seed(seed, "leakage", name, "victim-fill"))
    if spec.victim_cache_factory is not None:
        victim_cache = spec.victim_cache_factory(
            store, window, fill_rng, region, VICTIM_CTX
        )
    else:
        victim_cache = FunctionalRandomFillCache(
            store, window, fill_rng, ctx=VICTIM_CTX
        )
    first = region.first_line
    victim_lines = frozenset(
        range(max(0, first - window.a), first + region.num_lines + window.b)
    )
    scheme = FunctionalScheme(
        name=name,
        tag_store=store,
        window=window,
        region=region,
        victim_cache=victim_cache,
        victim_lines=victim_lines,
        preloaded=spec.preload,
        custom_fill=spec.has_custom_fill,
    )
    if scheme.preloaded:
        scheme._preload()
    return scheme
