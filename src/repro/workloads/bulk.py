"""Bulk synthesis of the SPEC stand-in traces from raw Mersenne Twister words.

The generators in :mod:`repro.workloads.synthetic` are the spec: they
build a trace one ``random.Random`` call at a time.  CPython builds
every call they make from the same stream of 32-bit MT19937 words:

* ``random()`` takes two words, ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
* ``randrange(n)`` takes one word per try, shifted right by
  ``32 - n.bit_length()``, and retries while the value is ``>= n``
  (``bit_length(n)``, not ``bit_length(n - 1)``, so ``randrange(128)``
  throws away half its words); ``randint(a, b)`` is
  ``a + randrange(b - a + 1)``.

So each trace is a parse of one word stream, and the functions here
rebuild it from the generator's state:

* :func:`strided` uses two words per reference whatever their values,
  so it is plain numpy over words that numpy's MT19937 produces from
  the transplanted state (:func:`repro.util.rng._mt_words`), fetched
  in chunks of :data:`CHUNK_WORDS`;
* :func:`locality_mixture` and :func:`streaming` use words depending on
  their values (the branch roll, the stride roll and every rejection
  loop), so they are parsed by the ``synth_mixture`` and
  ``synth_streaming`` entry points of the lane kernel library
  (``repro/cpu/lanes_kernel.c``).  Those take the 624-word state and
  run the Mersenne Twister themselves as they parse, so they keep no
  word buffer at all.

The hot-set ``rng.sample`` of :func:`locality_mixture` stays in Python
and runs before the state is handed over.  Each function returns
``None``, leaving ``rng`` untouched, when it cannot reproduce the spec
exactly: no C compiler (for the two parsers), an ``rng`` that is not a
plain ``random.Random``, or an argument outside the exact ranges below
(non-integer counts, probabilities a double cannot hold, bounds of 2**32
or more, addresses beyond 2**62).  The caller then runs the Python
generator, so results are bit-identical either way.
"""

from __future__ import annotations

import ctypes
import operator
import random
from typing import Optional, Sequence

import numpy as np

from repro.cpu.trace import Trace
from repro.util.rng import _mt_words

#: bytes per cache line (``synthetic.LINE``; the C parsers use 64)
LINE = 64

#: words :func:`strided` fetches at a time, which bounds its transient
#: memory at about a megabyte
CHUNK_WORDS = 1 << 16

#: exclusive bound on ``randrange`` arguments (one word per try) and on
#: the line and reference counts the int64 parsers index with
_WORD_BOUND = 1 << 32

#: exclusive bound on ``|address|``, so no int64 sum can overflow
_ADDR_BOUND = 1 << 62

_U32P = ctypes.POINTER(ctypes.c_uint32)
_I64P = ctypes.POINTER(ctypes.c_int64)


def _library():
    """The lane kernel library, or ``None`` without a C compiler.

    Imported on first use rather than with this module, so processes
    that only import the workloads (a service starting up) do not load
    the kernel module.
    """
    from repro.cpu import lanes
    return lanes._native()


def _i64(array: np.ndarray):
    """A new int64 array's buffer as an ``int64_t *``."""
    return array.ctypes.data_as(_I64P)


def _ints(*values) -> Optional[Sequence[int]]:
    try:
        return [operator.index(value) for value in values]
    except TypeError:
        return None


def _doubles(*values) -> Optional[Sequence[float]]:
    """``values`` as C doubles, or ``None`` unless each converts exactly
    (which also refuses NaN, the one value unequal to itself)."""
    out = []
    for value in values:
        try:
            as_double = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
        if as_double != value:
            return None
        out.append(as_double)
    return out


def _exact(rng: random.Random, n_refs: int, base: int, lines: int) -> bool:
    """Whether the word recipes above are exactly the calls ``rng``
    makes, and every line and address fits the int64 arithmetic."""
    return (type(rng) is random.Random
            and 0 < n_refs < _WORD_BOUND and 0 < lines < _WORD_BOUND
            and abs(base) + lines * LINE < _ADDR_BOUND)


def _random_doubles(words: np.ndarray) -> np.ndarray:
    """``random()`` of each consecutive word pair (exact: < 2**53)."""
    high = words[0::2] >> 5
    low = words[1::2] >> 6
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def _run_parser(entry, rng: random.Random, n_refs: int, gap: int,
                *params) -> Trace:
    """Run a C parser from ``rng``'s state into new trace columns."""
    _, internal, _ = rng.getstate()
    key = np.array(internal[:-1], dtype=np.uint32)
    addr = np.empty(n_refs, dtype=np.int64)
    write = np.empty(n_refs, dtype=np.int64)
    entry(key.ctypes.data_as(_U32P), internal[-1], n_refs, *params,
          _i64(addr), _i64(write))
    return Trace(addr, np.full(n_refs, gap, dtype=np.int64), write)


def streaming(rng: random.Random, n_refs, base, array_lines, refs_per_line,
              stride_lines_max, dense_prob, write_ratio,
              gap) -> Optional[Trace]:
    """:func:`repro.workloads.synthetic.streaming` from ``rng`` (already
    seeded, arguments already validated), or ``None``."""
    ints = _ints(n_refs, base, array_lines, refs_per_line, stride_lines_max,
                 gap)
    doubles = _doubles(dense_prob, write_ratio)
    if ints is None or doubles is None:
        return None
    n_refs, base, array_lines, refs_per_line, stride_lines_max, gap = ints
    # the unwrapped line counter grows by at most stride_lines_max a line
    if not (_exact(rng, n_refs, base, array_lines)
            and stride_lines_max * n_refs < _ADDR_BOUND):
        return None
    lib = _library()
    if lib is None:
        return None
    dense_prob, write_ratio = doubles
    return _run_parser(lib.synth_streaming, rng, n_refs, gap, base,
                       array_lines, stride_lines_max, dense_prob,
                       refs_per_line, LINE // refs_per_line, write_ratio)


def locality_mixture(rng: random.Random, n_refs, base, working_set_lines,
                     hot_lines, p_hot, p_neighbor, neighbor_span,
                     refs_per_line, write_ratio, gap) -> Optional[Trace]:
    """:func:`repro.workloads.synthetic.locality_mixture` from ``rng``
    (already seeded, arguments already validated), or ``None``."""
    ints = _ints(n_refs, base, working_set_lines, hot_lines, neighbor_span,
                 refs_per_line, gap)
    # p_hot + p_neighbor is summed in Python, as the generator sums it
    doubles = _doubles(p_hot, p_hot + p_neighbor, write_ratio)
    if ints is None or doubles is None:
        return None
    (n_refs, base, working_set_lines, hot_lines, neighbor_span,
     refs_per_line, gap) = ints
    if not (_exact(rng, n_refs, base, working_set_lines)
            and 2 * neighbor_span + 1 < _WORD_BOUND):
        return None
    lib = _library()
    if lib is None:
        return None
    p_hot, p_near, write_ratio = doubles
    hot_set = np.array(rng.sample(range(working_set_lines), hot_lines),
                       dtype=np.int64)
    return _run_parser(lib.synth_mixture, rng, n_refs, gap, base,
                       working_set_lines, hot_lines, _i64(hot_set),
                       p_hot, p_near, neighbor_span, refs_per_line,
                       max(1, LINE // refs_per_line), write_ratio)


def strided(rng: random.Random, n_refs, base, array_lines, stride_lines,
            refs_per_line, write_ratio, gap) -> Optional[Trace]:
    """:func:`repro.workloads.synthetic.strided` from ``rng`` (already
    seeded, arguments already validated), or ``None``.  Needs no
    compiler: every reference takes exactly one ``random()``."""
    ints = _ints(n_refs, base, array_lines, stride_lines, refs_per_line, gap)
    doubles = _doubles(write_ratio)
    if ints is None or doubles is None:
        return None
    n_refs, base, array_lines, stride_lines, refs_per_line, gap = ints
    # k * (stride_lines % array_lines) below stays in int64: the line
    # index k is below 2**32 and the factor below 2**31
    if not (_exact(rng, n_refs, base, array_lines)
            and array_lines < _WORD_BOUND // 2):
        return None
    (write_ratio,) = doubles
    # line k of the sweep is (k * stride_lines) % array_lines, and it
    # gets the first refs_per_line element offsets
    n_lines = -(-n_refs // refs_per_line)
    line = np.arange(n_lines, dtype=np.int64) \
        * (stride_lines % array_lines) % array_lines
    element = np.arange(min(refs_per_line, n_refs), dtype=np.int64) \
        * max(1, LINE // refs_per_line)
    addr = (base + line[:, None] * LINE + element).ravel()[:n_refs]
    write = np.empty(n_refs, dtype=np.int64)
    step = CHUNK_WORDS // 2
    for start in range(0, n_refs, step):
        stop = min(start + step, n_refs)
        words = _mt_words(rng, 2 * (stop - start))
        write[start:stop] = _random_doubles(words) < write_ratio
    return Trace(addr, np.full(n_refs, gap, dtype=np.int64), write)
