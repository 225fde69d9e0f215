"""Tag store interface: placement and replacement, no timing.

A *tag store* answers "is this line resident, and if I fill it, what gets
evicted?".  Controllers (demand fetch, random fill, the L2) add timing,
miss queues and fill strategy on top.  Keeping the two concerns separate
is what lets the paper's claim — "as a cache fill strategy, it can be
built on any cache architecture" — hold literally in this codebase: the
random fill controller composes with the set-associative store, Newcache,
PLcache, NoMo and RPcache unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache.context import AccessContext, DEFAULT_CONTEXT


class LineState:
    """Mutable per-line metadata (tag plus secure-cache flags)."""

    __slots__ = ("line_addr", "owner", "domain", "locked")

    def __init__(self, line_addr: int, owner: int = 0, domain: int = 0,
                 locked: bool = False):
        self.line_addr = line_addr
        self.owner = owner
        self.domain = domain
        self.locked = locked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "L" if self.locked else ""
        return f"LineState(0x{self.line_addr:x}, owner={self.owner}{flags})"


class LineIndex(dict):
    """line address -> the slots (frames or sets) holding it.

    For stores that could otherwise only find a line by walking every
    slot.  The list has one entry per resident copy, so a line resident
    under several domains lists each of its slots.
    """

    def add(self, line_addr: int, slot: int) -> None:
        slots = self.get(line_addr)
        if slots is None:
            self[line_addr] = [slot]
        else:
            slots.append(slot)

    def discard(self, line_addr: int, slot: int) -> None:
        slots = self[line_addr]
        if len(slots) == 1:
            del self[line_addr]
        else:
            slots.remove(slot)


class TagStore:
    """Abstract tag store.

    All addresses are *line* addresses.  Subclasses must implement the
    four primitives; ``flush`` and iteration have default implementations
    where possible.
    """

    #: total number of data lines the store can hold
    capacity_lines: int = 0

    def probe(self, line_addr: int, ctx: AccessContext = DEFAULT_CONTEXT) -> bool:
        """True if resident; must not change replacement state."""
        raise NotImplementedError

    def access(self, line_addr: int, ctx: AccessContext = DEFAULT_CONTEXT) -> bool:
        """Lookup for a demand access; updates recency. True on hit."""
        raise NotImplementedError

    def fill(self, line_addr: int,
             ctx: AccessContext = DEFAULT_CONTEXT) -> Optional[int]:
        """Insert ``line_addr``.

        Returns the evicted line address, or ``None`` when no eviction
        happened (empty way available, line already resident, or — for
        locking designs — the fill was refused).  Use :meth:`probe`
        afterwards to distinguish "filled without eviction" from
        "refused" if the caller needs to know.
        """
        raise NotImplementedError

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line if present.  True if it was resident."""
        raise NotImplementedError

    def flush(self) -> None:
        """Empty the store (models a full cache flush)."""
        for line in list(self.resident_lines()):
            self.invalidate(line)

    def resident_lines(self) -> Iterator[int]:
        """Iterate over currently resident line addresses."""
        raise NotImplementedError

    def occupancy(self) -> int:
        return sum(1 for _ in self.resident_lines())
