"""Newcache and RPcache ``invalidate`` vs. a scan-based reference.

Both stores find the line to invalidate through a line -> slot/set
index.  The references below override ``invalidate`` with the original
full scan (earliest RMT mapping for Newcache, lowest set index for
RPcache), so any op sequence must give identical return values and an
identical ``resident_lines()`` order after every op.  The sequences
mix fill/access/probe/invalidate/flush under two domains over a small
line pool, so lines end up resident under both domains.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.context import AccessContext
from repro.check.invariants import validate_tag_store
from repro.secure.newcache import Newcache
from repro.secure.rpcache import RPCache

DOMAINS = (AccessContext(thread_id=0, domain=0), AccessContext(thread_id=1, domain=1))


class ScanNewcache(Newcache):
    def invalidate(self, line_addr):
        for phys in list(self._mapping.values()):
            entry = self._phys[phys]
            if entry is not None and entry.line_addr == line_addr:
                self._evict_phys(phys)
                self._free.append(phys)
                return True
        return False


class ScanRPCache(RPCache):
    def invalidate(self, line_addr):
        for set_index, cache_set in enumerate(self._sets):
            index = self._find(cache_set, line_addr)
            if index >= 0:
                cache_set.pop(index)
                self._where.discard(line_addr, set_index)
                return True
        return False


def _newcache_pair(seed):
    # 8 slots, no extra index bits: lines 0..23 share logical indices
    return (Newcache(8 * 64, extra_index_bits=0, seed=seed),
            ScanNewcache(8 * 64, extra_index_bits=0, seed=seed))


def _rpcache_pair(seed):
    # 4 sets x 2 ways
    return RPCache(8 * 64, 2, seed=seed), ScanRPCache(8 * 64, 2, seed=seed)


def _line_index_holds(store):
    """The checked-mode index invariant, minus global uniqueness (a
    line resident under both domains is legal here)."""
    try:
        validate_tag_store(store)
    except AssertionError as exc:
        assert exc.kind == "tag-duplicate", exc


def _replay(store, reference, ops):
    for op, line, domain in ops:
        ctx = DOMAINS[domain]
        if op == "flush":
            got, want = store.flush(), reference.flush()
        elif op == "invalidate":
            got, want = store.invalidate(line), reference.invalidate(line)
        else:
            got = getattr(store, op)(line, ctx)
            want = getattr(reference, op)(line, ctx)
        assert got == want, (op, line, domain)
        assert list(store.resident_lines()) == list(reference.resident_lines())
        _line_index_holds(store)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["fill", "fill", "access", "probe", "invalidate", "invalidate", "flush"]),
        st.integers(0, 23),
        st.integers(0, 1),
    ),
    min_size=30,
    max_size=150,
)


@settings(max_examples=120, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_newcache_matches_scan(ops, seed):
    _replay(*_newcache_pair(seed), ops)


@settings(max_examples=120, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_rpcache_matches_scan(ops, seed):
    _replay(*_rpcache_pair(seed), ops)


def test_newcache_dual_resident_line_drops_earliest_mapping():
    store, reference = _newcache_pair(3)
    # Domain 0 maps index 5 first (for line 13), domain 1 then installs
    # line 5, and domain 0 replaces 13 by 5 in place: line 5 reached
    # domain 0's slot last, but that slot's RMT entry is the earliest.
    _replay(store, reference, [("fill", 13, 0), ("fill", 5, 1), ("fill", 5, 0)])
    assert list(store.resident_lines()).count(5) == 2
    first_mapped = store._mapping[(0, 5)]
    assert store._where[5][0] != first_mapped
    _replay(store, reference, [("invalidate", 5, 0)])
    assert store._where[5] == [store._mapping[(1, 5)]]
    _replay(store, reference, [("invalidate", 5, 0)] * 2)
    assert 5 not in list(store.resident_lines())


def test_rpcache_dual_resident_line_drops_lowest_set():
    # Lines 1, 5 and 9 share raw set 1.  Domain 1's fill of 9 is a
    # cross-domain conflict, which swaps set 1 with a random set in
    # domain 1's permutation; find a seed where that set is 0, so line
    # 5's domain-1 copy lands in a lower set than its earlier domain-0
    # copy.
    for seed in range(200):
        store, reference = _rpcache_pair(seed)
        _replay(store, reference, [("fill", 1, 0), ("fill", 5, 0), ("fill", 9, 1), ("fill", 5, 1)])
        if store._where.get(5) == [1, 0]:
            break
    else:
        raise AssertionError("no seed put line 5 in set 0 second")
    _replay(store, reference, [("invalidate", 5, 0)])
    assert store._where[5] == [1]
    _replay(store, reference, [("invalidate", 5, 0)] * 2)
    assert 5 not in list(store.resident_lines())
