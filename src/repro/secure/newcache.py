"""Newcache: dynamic memory-to-cache remapping (Wang & Lee, MICRO'08).

Newcache is a *logically direct-mapped* cache with more index bits than
the physical cache needs (``extra_index_bits``), plus a remapping table
(one per protected trust domain, one shared by all unprotected
processes) that maps a logical index to a physical cache line.  Misses
are handled by the SecRAND security-aware random replacement algorithm:

* **index miss** (no physical line holds this (RMT, index)): a uniformly
  random physical line is evicted and remapped to the new index;
* **tag miss** (the mapped line holds a different tag): the mapped
  line's data is replaced in place for same-domain accesses; for
  cross-domain conflicts SecRAND evicts a random line instead, so the
  attacker learns nothing from where a victim line lands.

This reproduces the properties the paper relies on: randomized
contention (defeats contention based attacks), random replacement
(makes a full cache clean hard — the Table III note), and a higher
effective associativity from the longer index (fewer conflict misses).
It remains a demand-fetch cache, hence still vulnerable to reuse based
attacks — which is the paper's point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.context import AccessContext, DEFAULT_CONTEXT
from repro.cache.tagstore import LineIndex, TagStore
from repro.util.rng import HardwareRng


class _PhysLine:
    """One physical cache line: which logical slot it holds."""

    __slots__ = ("rmt_id", "index", "line_addr")

    def __init__(self, rmt_id: int, index: int, line_addr: int):
        self.rmt_id = rmt_id
        self.index = index
        self.line_addr = line_addr


class Newcache(TagStore):
    """Logical direct-mapped tag store with a remapping table.

    Parameters
    ----------
    size_bytes, line_size:
        Physical geometry.
    extra_index_bits:
        k: the logical index is ``log2(lines) + k`` bits (the paper's
        Newcache uses k = 4 by default; more bits → fewer conflicts).
    rng:
        Randomness source for SecRAND replacement.
    """

    def __init__(self, size_bytes: int, line_size: int = 64,
                 extra_index_bits: int = 4,
                 rng: Optional[HardwareRng] = None, seed: int = 0):
        if size_bytes <= 0 or size_bytes % line_size:
            raise ValueError(f"size {size_bytes} not a multiple of line size")
        self.line_size = line_size
        self.capacity_lines = size_bytes // line_size
        if self.capacity_lines & (self.capacity_lines - 1):
            raise ValueError("Newcache needs a power-of-two line count")
        if extra_index_bits < 0:
            raise ValueError(f"extra_index_bits must be >= 0, got {extra_index_bits}")
        phys_bits = self.capacity_lines.bit_length() - 1
        self.index_bits = phys_bits + extra_index_bits
        self._index_mask = (1 << self.index_bits) - 1
        self._rng = rng if rng is not None else HardwareRng(seed)
        self._phys: List[Optional[_PhysLine]] = [None] * self.capacity_lines
        self._mapping: Dict[Tuple[int, int], int] = {}
        self._free: List[int] = list(range(self.capacity_lines))
        # line -> physical slots holding it (more than one only when the
        # line is resident under several domains' RMTs)
        self._where = LineIndex()

    # -- TagStore interface ----------------------------------------------

    def probe(self, line_addr: int, ctx: AccessContext = DEFAULT_CONTEXT) -> bool:
        # The RMT is keyed by (domain, logical index); comparing the full
        # line address stands in for the tag compare.
        phys = self._mapping.get((ctx.domain, line_addr & self._index_mask))
        if phys is None:
            return False
        entry = self._phys[phys]
        return entry is not None and entry.line_addr == line_addr

    # Logical-DM lookup has no recency state, so access == probe.
    access = probe

    def _place(self, phys: int, rmt_id: int, index: int, line_addr: int) -> None:
        self._phys[phys] = _PhysLine(rmt_id, index, line_addr)
        self._where.add(line_addr, phys)

    def _evict_phys(self, phys: int) -> Optional[int]:
        entry = self._phys[phys]
        if entry is None:
            return None
        del self._mapping[(entry.rmt_id, entry.index)]
        self._phys[phys] = None
        self._where.discard(entry.line_addr, phys)
        return entry.line_addr

    def _random_victim(self) -> int:
        if self._free:
            # Fill empty frames first (a cold cache fills before evicting);
            # choose among them randomly so placement stays unpredictable.
            pick = self._rng.draw_below(len(self._free))
            self._free[pick], self._free[-1] = self._free[-1], self._free[pick]
            return self._free.pop()
        return self._rng.draw_below(self.capacity_lines)

    def fill(self, line_addr: int,
             ctx: AccessContext = DEFAULT_CONTEXT) -> Optional[int]:
        rmt_id = ctx.domain
        index = line_addr & self._index_mask
        key = (rmt_id, index)
        phys = self._mapping.get(key)
        if phys is not None:
            entry = self._phys[phys]
            if entry is not None and entry.line_addr == line_addr:
                return None  # already resident
            # Tag miss: replace the mapped line's data in place (SecRAND's
            # same-domain path; cross-domain sharing of an RMT does not
            # occur in our experiments).
            evicted = None
            if entry is not None:
                evicted = entry.line_addr
                self._where.discard(evicted, phys)
            self._place(phys, rmt_id, index, line_addr)
            return evicted
        # Index miss: random victim anywhere, remap.
        victim = self._random_victim()
        evicted = self._evict_phys(victim)
        self._place(victim, rmt_id, index, line_addr)
        self._mapping[key] = victim
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        # The line may be mapped under any domain's RMT.  The leakage
        # trial loops invalidate on every victim reset, so look the line
        # up in the slot index; only a line resident under several RMTs
        # scans the mappings, to drop the earliest-mapped copy.
        slots = self._where.get(line_addr)
        if slots is None:
            return False
        if len(slots) == 1:
            phys = slots[0]
        else:
            phys = next(p for p in self._mapping.values() if p in slots)
        self._evict_phys(phys)
        self._free.append(phys)
        return True

    def flush(self) -> None:
        self._mapping.clear()
        self._where.clear()
        self._phys = [None] * self.capacity_lines
        self._free = list(range(self.capacity_lines))

    def resident_lines(self) -> Iterator[int]:
        for entry in self._phys:
            if entry is not None:
                yield entry.line_addr
