"""Deterministic model of the hardware random number generator.

The paper's random fill engine draws from "a free running random number
generator (RNG) ... a pseudo random number generator with a truly random
seed" (Section IV-B.2).  For a reproducible simulator we model the RNG as
a seeded PRNG; the security analysis only requires that the masked output
is uniform over ``[0, 2**width)``, which holds for any good PRNG.

``HardwareRng`` also models the paper's buffering remark ("the random
number can be generated ahead of time and buffered"): numbers are produced
in batches so a draw is a constant-time pop, mirroring the fact that RNG
latency is off the processor's critical path.
"""

from __future__ import annotations

import random
import threading
from typing import List, Optional

import numpy as np


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    Experiments use one master seed; every stochastic component (random
    fill engine, workload generator, attacker plaintext source, ...) gets
    its own stream via ``derive_seed(master, "component", index)``.  The
    derivation is stable across runs and Python versions.
    """
    h = 0x9E3779B97F4A7C15 ^ (base_seed & 0xFFFFFFFFFFFFFFFF)
    for component in components:
        for byte in repr(component).encode():
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


#: one numpy MT19937 per thread (in practice, per process); every bulk
#: draw overwrites its state, so seeding a fresh generator from OS
#: entropy per call is wasted work.  Thread-local rather than locked, so
#: a pool forked while another thread draws inherits no held lock.
_LOCAL = threading.local()


def _mt_words(rng: random.Random, total: int) -> Optional[np.ndarray]:
    """``total`` raw 32-bit MT words of ``rng`` via numpy, advancing it.

    Returns ``None`` unless ``rng`` is a plain ``random.Random`` (a
    subclass may override the calls these words stand for) in the
    624-word Mersenne Twister state layout.
    """
    if type(rng) is not random.Random:
        return None
    try:
        version, internal, gauss_next = rng.getstate()
    except (TypeError, ValueError):        # pragma: no cover
        return None
    if version != 3 or len(internal) != 625:
        return None
    bit_generator = getattr(_LOCAL, "mt19937", None)
    if bit_generator is None:
        bit_generator = _LOCAL.mt19937 = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                  "pos": internal[-1]},
    }
    words = bit_generator.random_raw(total)
    state = bit_generator.state["state"]
    rng.setstate((version,
                  tuple(state["key"].tolist()) + (int(state["pos"]),),
                  gauss_next))
    return words


class HardwareRng:
    """Buffered pseudo-random source standing in for the hardware RNG.

    Parameters
    ----------
    seed:
        PRNG seed (models the "truly random seed" of the hardware RNG).
    width:
        Output width in bits; the paper's range registers and RNG are
        8 bits wide (Figure 4).
    buffer_size:
        How many numbers are pre-generated per refill, modelling the
        ahead-of-time generation buffer.
    """

    def __init__(self, seed: int, width: int = 8, buffer_size: int = 256):
        if width <= 0:
            raise ValueError(f"RNG width must be positive, got {width}")
        if buffer_size <= 0:
            raise ValueError(f"buffer_size must be positive, got {buffer_size}")
        self.width = width
        self._max = (1 << width) - 1
        self._rng = random.Random(seed)
        self._buffer_size = buffer_size
        self._buffer: List[int] = []

    def _refill(self) -> None:
        rand = self._rng.getrandbits
        width = self.width
        # In-place extend: the buffer list's identity is stable, so hot
        # loops (the fused timing kernel) may hold a direct reference to
        # it across refills.  Only ever called when the buffer is empty,
        # so the draw sequence is unchanged.
        self._buffer += [rand(width) for _ in range(self._buffer_size)]

    def draw(self) -> int:
        """Return the next raw random number in ``[0, 2**width)``."""
        if not self._buffer:
            self._refill()
        return self._buffer.pop()

    def pregenerate(self, count: int) -> List[int]:
        """The next ``count`` values of the :meth:`draw` stream, as ints.

        The list form of :meth:`draw_row` (same values, same state left
        behind).
        """
        return self.draw_row(count).tolist()

    def draw_row(self, count: int) -> np.ndarray:
        """The next ``count`` values of the :meth:`draw` stream, at once.

        Bit-identical to ``[self.draw() for _ in range(count)]``,
        including the state left behind: the underlying PRNG advances by
        the same number of words and the buffer holds the unconsumed
        remainder of the last refill, so interleaving ``draw_row`` and
        ``draw`` calls produces the same stream as ``draw`` alone.

        The batched runner uses this to turn the per-miss ``draw()``
        calls of a whole cell into one vectorized row: ``getrandbits``
        consumes exactly one 32-bit Mersenne Twister word per call for
        widths <= 32, so the words are produced by numpy's MT19937 from
        a transplanted state and shifted down to ``width`` bits.  The
        row is ``uint32`` for those widths; wider RNGs (none in the
        paper's 8-bit datapath) and exotic PRNG states take the scalar
        refill loop into a ``uint64`` row (``object`` above 64 bits).
        """
        width = self.width
        dtype = np.uint32 if width <= 32 else \
            np.uint64 if width <= 64 else object
        count = max(count, 0)
        row = np.empty(count, dtype=dtype)
        buffer = self._buffer
        head = min(len(buffer), count)
        if head:
            # draw() pops from the end of the buffer
            row[:head] = buffer[len(buffer) - head:][::-1]
            del buffer[len(buffer) - head:]
        need = count - head
        if need:
            chunk = self._buffer_size
            values = self._bulk_values(-(-need // chunk) * chunk, dtype)
            row[head:] = values[:need]
            # Unconsumed tail of the final refill, restored so pop()
            # yields it in the same order scalar draws would.
            buffer.extend(values[need:][::-1].tolist())
        return row

    def _bulk_values(self, total: int, dtype) -> np.ndarray:
        """``total`` draw-stream values (a whole number of refills).

        Each refill appends ``buffer_size`` words and ``draw`` pops from
        the end, so the consumed order is each chunk reversed.
        """
        chunk = self._buffer_size
        if self.width <= 32:
            words = _mt_words(self._rng, total)
            if words is not None:
                values = np.empty((total // chunk, chunk), dtype=np.uint32)
                np.right_shift(words.reshape(-1, chunk)[:, ::-1],
                               32 - self.width, out=values,
                               casting="unsafe")
                return values.ravel()
        rand = self._rng.getrandbits
        width = self.width
        out: List[int] = []
        for _ in range(total // chunk):
            out.extend([rand(width) for _ in range(chunk)][::-1])
        return np.array(out, dtype=dtype)

    def draw_masked(self, mask: int) -> int:
        """Return ``draw() & mask`` — the bounded value R' of Figure 4."""
        return self.draw() & mask

    def draw_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` (used by replacement policies).

        Unlike :meth:`draw_masked` this is exact for non-power-of-two
        bounds; it is used by components (e.g. Newcache's random
        replacement) that are not constrained by the Figure 4 datapath.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._rng.randrange(bound)

    def fork(self, *components: object) -> "HardwareRng":
        """Create an independent child stream (for per-subsystem RNGs)."""
        child_seed = derive_seed(self._rng.getrandbits(64), *components)
        return HardwareRng(child_seed, width=self.width, buffer_size=self._buffer_size)
