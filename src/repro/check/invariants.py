"""Structural invariants for the cache model (the sanitizer layer).

Each function raises :exc:`~repro.check.CheckViolation` on the first
violated invariant.  The catalogue:

tag store
    * no duplicate resident lines (globally, and per set for
      set-associative stores);
    * no set holds more lines than the associativity;
    * for the stock set-associative mapping, every line sits in the
      set its address selects;
    * occupancy never exceeds ``capacity_lines``;
    * Newcache and RPcache: the line -> slot/set index that
      ``invalidate`` looks lines up in lists exactly the slots/sets each
      line is resident in, and every Newcache slot is the one its RMT
      entry maps to.

MSHR file
    * occupancy <= capacity, and every entry is keyed by its own line;
    * the cached ``next_completion`` equals the true minimum (or
      ``NEVER`` when empty);
    * no line is simultaneously in flight and resident — the invariant
      behind Section IV-B's "nofill" guarantee: a NOFILL demand miss
      must never have allocated its line.

fill queue
    * length <= ``fill_queue_capacity``;
    * only non-negative line addresses are parked (window underflow is
      dropped at enqueue);
    * ``_fills_blocked`` implies a non-empty queue.

stats conservation
    * L1: ``hits + demand_misses + mshr_merges == accesses`` and
      ``fills <= next_level_requests``;
    * L2: ``hits + demand_misses == accesses`` and
      ``fills <= demand_misses``;
    * with a random-fill policy installed:
      ``random_fill_issued + random_fill_dropped <= demand_misses``
      (each miss requests exactly one windowed fill, Table II);
    * no counter is negative.
"""

from __future__ import annotations

from typing import Optional

from repro.check import CheckViolation

#: Mirror of ``MissQueue.NEVER``.
_NEVER = 1 << 62


def validate_tag_store(store, where: str = "tag-store",
                       index: Optional[int] = None) -> None:
    """Tag uniqueness / occupancy / recency-structure checks."""
    from repro.cache.set_associative import SetAssociativeCache

    if isinstance(store, SetAssociativeCache):
        assoc = store.associativity
        num_sets = store.size_bytes // (store.line_size * assoc)
        mask = num_sets - 1
        stock_mapping = type(store) is SetAssociativeCache
        for set_index, cache_set in enumerate(store._sets):
            if len(cache_set) > assoc:
                raise CheckViolation(
                    "occupancy", where,
                    f"set {set_index} holds {len(cache_set)} lines, "
                    f"associativity {assoc}", index=index)
            seen = set()
            for line_state in cache_set:
                line = line_state.line_addr
                if line in seen:
                    raise CheckViolation(
                        "tag-duplicate", where,
                        f"line 0x{line:x} resident twice in set {set_index}",
                        index=index)
                seen.add(line)
                if stock_mapping and (line & mask) != set_index:
                    raise CheckViolation(
                        "set-mapping", where,
                        f"line 0x{line:x} resident in set {set_index}, "
                        f"maps to set {line & mask}", index=index)
        return
    from repro.schemes.chameleon import ChameleonCache
    from repro.schemes.skewed import SkewedRandomCache

    if isinstance(store, SkewedRandomCache):
        seen = set()
        for way, row, line in store.resident_rows():
            if line in seen:
                raise CheckViolation(
                    "tag-duplicate", where,
                    f"line 0x{line:x} resident in more than one way",
                    index=index)
            seen.add(line)
            if store._row(line, way) != row:
                raise CheckViolation(
                    "set-mapping", where,
                    f"line 0x{line:x} resident at way {way} row {row}, "
                    f"epoch {store.epoch} keys hash it to row "
                    f"{store._row(line, way)}", index=index)
        return
    if isinstance(store, ChameleonCache):
        victim = store.victim_contents()
        if len(victim) > store.victim_entries:
            raise CheckViolation(
                "occupancy", where,
                f"victim cache holds {len(victim)} lines, capacity "
                f"{store.victim_entries}", index=index)
        seen = set(victim)
        if len(seen) != len(victim):
            duplicate = next(ln for ln in victim if victim.count(ln) > 1)
            raise CheckViolation(
                "tag-duplicate", where,
                f"line 0x{duplicate:x} resident twice in the victim cache",
                index=index)
        mask = store._set_mask
        for set_index in range(mask + 1):
            contents = store.set_contents(set_index)
            if len(contents) > store.associativity:
                raise CheckViolation(
                    "occupancy", where,
                    f"set {set_index} holds {len(contents)} lines, "
                    f"associativity {store.associativity}", index=index)
            for line in contents:
                if line in seen:
                    raise CheckViolation(
                        "tag-duplicate", where,
                        f"line 0x{line:x} resident more than once",
                        index=index)
                seen.add(line)
                if (line & mask) != set_index:
                    raise CheckViolation(
                        "set-mapping", where,
                        f"line 0x{line:x} resident in set {set_index}, "
                        f"maps to set {line & mask}", index=index)
        return
    from repro.secure.newcache import Newcache
    from repro.secure.rpcache import RPCache

    if isinstance(store, Newcache):
        expected = {}
        for phys, entry in enumerate(store._phys):
            if entry is None:
                continue
            expected.setdefault(entry.line_addr, []).append(phys)
            if store._mapping.get((entry.rmt_id, entry.index)) != phys:
                raise CheckViolation(
                    "set-mapping", where,
                    f"slot {phys} holds line 0x{entry.line_addr:x} but RMT "
                    f"{entry.rmt_id} index {entry.index} maps to "
                    f"{store._mapping.get((entry.rmt_id, entry.index))}",
                    index=index)
        occupied = sum(len(slots) for slots in expected.values())
        if len(store._mapping) != occupied:
            raise CheckViolation(
                "set-mapping", where,
                f"{len(store._mapping)} RMT entries for {occupied} "
                f"occupied slots", index=index)
        _check_line_index(store._where, expected, "slot", where, index)
    elif isinstance(store, RPCache):
        expected = {}
        for set_index, cache_set in enumerate(store._sets):
            for line_state in cache_set:
                expected.setdefault(line_state.line_addr, []).append(set_index)
        _check_line_index(store._where, expected, "set", where, index)
    # Newcache, RPcache and other TagStores: global uniqueness + occupancy.
    lines = list(store.resident_lines())
    if len(lines) != len(set(lines)):
        duplicate = next(ln for ln in lines if lines.count(ln) > 1)
        raise CheckViolation(
            "tag-duplicate", where,
            f"line 0x{duplicate:x} resident more than once", index=index)
    capacity = getattr(store, "capacity_lines", None)
    if capacity is not None and len(lines) > capacity:
        raise CheckViolation(
            "occupancy", where,
            f"{len(lines)} resident lines exceed capacity {capacity}",
            index=index)


def _check_line_index(actual, expected, unit: str, where: str,
                      index: Optional[int]) -> None:
    """The store's line -> {unit} index must list exactly where each
    resident line lives (as a multiset: one entry per resident copy)."""
    for line in actual.keys() | expected.keys():
        have = sorted(actual.get(line, ()))
        want = expected.get(line, [])
        if have != want:
            raise CheckViolation(
                "line-index", where,
                f"line 0x{line:x} indexed at {unit}s {have}, "
                f"resident in {unit}s {want}", index=index,
                expected=str(want), actual=str(have))


def _validate_mshr(l1, index: Optional[int]) -> None:
    miss_queue = l1.miss_queue
    entries = miss_queue._entries
    if len(entries) > miss_queue.capacity:
        raise CheckViolation(
            "mshr", "l1.miss_queue",
            f"{len(entries)} entries exceed capacity {miss_queue.capacity}",
            index=index)
    true_next = _NEVER
    for line, entry in entries.items():
        if entry.line_addr != line:
            raise CheckViolation(
                "mshr", "l1.miss_queue",
                f"entry keyed 0x{line:x} holds line 0x{entry.line_addr:x}",
                index=index)
        if entry.complete_at < true_next:
            true_next = entry.complete_at
    if miss_queue.next_completion != true_next:
        raise CheckViolation(
            "mshr", "l1.miss_queue",
            "cached next_completion out of date",
            index=index, expected=str(true_next),
            actual=str(miss_queue.next_completion))
    if entries:
        probe = l1.tag_store.probe
        for line in entries:
            if probe(line):
                raise CheckViolation(
                    "nofill-security", "l1",
                    f"line 0x{line:x} is simultaneously resident and in "
                    f"flight (a miss allocated before its data returned)",
                    index=index)


def _validate_fill_queue(l1, index: Optional[int]) -> None:
    fill_queue = l1.fill_queue
    if len(fill_queue) > l1.fill_queue_capacity:
        raise CheckViolation(
            "fill-queue", "l1.fill_queue",
            f"{len(fill_queue)} parked requests exceed capacity "
            f"{l1.fill_queue_capacity}", index=index)
    for line, _ctx in fill_queue:
        if line < 0:
            raise CheckViolation(
                "fill-queue", "l1.fill_queue",
                f"negative line address 0x{line:x} parked (window "
                f"underflow must be dropped at enqueue)", index=index)
    if l1._fills_blocked and not fill_queue:
        raise CheckViolation(
            "fill-queue", "l1",
            "_fills_blocked set with an empty fill queue", index=index)


def _validate_stats(l1, index: Optional[int]) -> None:
    from repro.core.policy import RandomFillPolicy

    stats = l1.stats
    for field in stats._FIELDS:
        value = getattr(stats, field)
        if value < 0:
            raise CheckViolation(
                "stats", "l1.stats", f"{field} is negative ({value})",
                index=index)
    accounted = stats.hits + stats.demand_misses + stats.mshr_merges
    if accounted != stats.accesses:
        raise CheckViolation(
            "stats", "l1.stats",
            "hits + demand_misses + mshr_merges != accesses",
            index=index, expected=str(stats.accesses), actual=str(accounted))
    if stats.fills > stats.next_level_requests:
        raise CheckViolation(
            "stats", "l1.stats",
            f"fills ({stats.fills}) exceed issued requests "
            f"({stats.next_level_requests})", index=index)
    if type(l1._policy) is RandomFillPolicy:
        requested = stats.random_fill_issued + stats.random_fill_dropped
        if requested > stats.demand_misses:
            raise CheckViolation(
                "stats", "l1.stats",
                f"random fills requested ({requested}) exceed demand "
                f"misses ({stats.demand_misses})", index=index)

    l2 = l1.next_level
    l2_stats = getattr(l2, "stats", None)
    if l2_stats is None:
        return
    for field in l2_stats._FIELDS:
        value = getattr(l2_stats, field)
        if value < 0:
            raise CheckViolation(
                "stats", "l2.stats", f"{field} is negative ({value})",
                index=index)
    if l2_stats.hits + l2_stats.demand_misses != l2_stats.accesses:
        raise CheckViolation(
            "stats", "l2.stats", "hits + demand_misses != accesses",
            index=index, expected=str(l2_stats.accesses),
            actual=str(l2_stats.hits + l2_stats.demand_misses))
    if l2_stats.fills > l2_stats.demand_misses:
        raise CheckViolation(
            "stats", "l2.stats",
            f"fills ({l2_stats.fills}) exceed demand misses "
            f"({l2_stats.demand_misses})", index=index)


def validate_l1(l1, index: Optional[int] = None) -> None:
    """Full sweep: tag store, MSHR file, fill queue, stats laws."""
    validate_tag_store(l1.tag_store, where="l1.tag_store", index=index)
    _validate_mshr(l1, index)
    _validate_fill_queue(l1, index)
    _validate_stats(l1, index)
