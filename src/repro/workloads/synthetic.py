"""Primitive synthetic address-stream generators.

SPEC CPU2006 binaries and reference inputs are proprietary, so the
concurrent-program and general-performance experiments (Figures 8-10)
run on synthetic traces whose *spatial/temporal locality profile*
matches each benchmark's published character — which is precisely the
property Figure 9 shows determines random-fill behaviour.  The
primitives here are composed into named benchmarks by
:mod:`repro.workloads.spec`.

All generators emit columnar :class:`~repro.cpu.trace.Trace` objects
of ``(byte_addr, gap, write)`` records (see :mod:`repro.cpu.trace`) and
are deterministic given their seed.  The loops below are the spec: they
build a trace one ``random.Random`` call at a time into plain
per-column lists.  :func:`streaming`, :func:`locality_mixture` and
:func:`strided` first hand their seeded generator to
:mod:`repro.workloads.bulk`, which rebuilds the same trace, bit for
bit, from the generator's raw Mersenne Twister words in numpy and C;
the loops run only when it declines (no C compiler, or arguments
outside its exact ranges).
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.trace import Trace
from repro.workloads import bulk

LINE = 64


def _require(name: str, value, minimum: int) -> None:
    """Refuse a count below ``minimum`` before either backend runs (the
    Python loops would divide by it or loop on an empty range)."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def streaming(n_refs: int, base: int, array_lines: int,
              refs_per_line: int = 8, stride_lines_max: int = 1,
              dense_prob: float = 0.7,
              write_ratio: float = 0.0, gap: int = 4,
              seed: int = 0) -> Trace:
    """Irregular forward streaming (the libquantum/lbm pattern).

    Walks forward over a large array, touching each visited line with
    ``refs_per_line`` element accesses, then advancing by one line
    (probability ``dense_prob``) or jumping 2..``stride_lines_max``
    lines ahead — "irregular streaming access patterns ... wider
    spatial locality beyond a cache line, especially in the forward
    direction" (Section VII).  The irregular jumps are what break a
    next-sequential-line prefetcher while a forward random fill window
    still covers the skipped-to lines.  Wraps around the array if the
    trace is longer than one pass.
    """
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    _require("refs_per_line", refs_per_line, 1)
    _require("stride_lines_max", stride_lines_max, 1)
    _require("array_lines", array_lines, 1)
    if array_lines <= stride_lines_max:
        raise ValueError("array too small for the requested stride")
    if not 0.0 <= dense_prob <= 1.0:
        raise ValueError(f"dense_prob must be in [0, 1], got {dense_prob}")
    rng = random.Random(seed)
    trace = bulk.streaming(rng, n_refs, base, array_lines, refs_per_line,
                           stride_lines_max, dense_prob, write_ratio, gap)
    if trace is not None:
        return trace
    addrs: List[int] = []
    writes: List[int] = []
    line = 0
    element_stride = LINE // refs_per_line
    while len(addrs) < n_refs:
        line_base = base + (line % array_lines) * LINE
        for e in range(refs_per_line):
            writes.append(1 if rng.random() < write_ratio else 0)
            addrs.append(line_base + e * element_stride)
            if len(addrs) >= n_refs:
                break
        if stride_lines_max <= 1 or rng.random() < dense_prob:
            line += 1
        else:
            line += rng.randint(2, stride_lines_max)
    return Trace.from_columns(addrs, [gap] * len(addrs), writes)


def locality_mixture(n_refs: int, base: int, working_set_lines: int,
                     hot_lines: int, p_hot: float,
                     p_neighbor: float, neighbor_span: int,
                     refs_per_line: int = 2, write_ratio: float = 0.2,
                     gap: int = 4, seed: int = 0) -> Trace:
    """General-purpose locality mixture (astar/bzip2/sjeng/... pattern).

    Each step picks the next *line* as one of:

    * a hot line (probability ``p_hot``) — temporal locality against a
      small hot set *scattered* across the working set (hot objects in
      real programs are not contiguous, which is what keeps the
      Figure 9 reference ratio low at far offsets),
    * a neighbor of the previous line within ``±neighbor_span`` lines
      (probability ``p_neighbor``) — bounded spatial locality,
    * a uniformly random line in the working set — capacity pressure.

    Each chosen line receives ``refs_per_line`` element accesses.
    """
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if not 0 <= p_hot + p_neighbor <= 1:
        raise ValueError("p_hot + p_neighbor must be within [0, 1]")
    if hot_lines > working_set_lines:
        raise ValueError("hot set larger than working set")
    _require("refs_per_line", refs_per_line, 1)
    _require("working_set_lines", working_set_lines, 1)
    _require("neighbor_span", neighbor_span, 0)
    if p_hot > 0:
        _require("hot_lines", hot_lines, 1)
    rng = random.Random(seed)
    trace = bulk.locality_mixture(
        rng, n_refs, base, working_set_lines, hot_lines, p_hot, p_neighbor,
        neighbor_span, refs_per_line, write_ratio, gap)
    if trace is not None:
        return trace
    addrs: List[int] = []
    writes: List[int] = []
    prev_line = 0
    element_stride = max(1, LINE // refs_per_line)
    hot_set = rng.sample(range(working_set_lines), hot_lines)
    while len(addrs) < n_refs:
        roll = rng.random()
        if roll < p_hot:
            line = hot_set[rng.randrange(hot_lines)]
        elif roll < p_hot + p_neighbor:
            line = (prev_line + rng.randint(-neighbor_span, neighbor_span)) \
                % working_set_lines
        else:
            line = rng.randrange(working_set_lines)
        prev_line = line
        line_base = base + line * LINE
        for e in range(refs_per_line):
            writes.append(1 if rng.random() < write_ratio else 0)
            addrs.append(line_base + e * element_stride)
            if len(addrs) >= n_refs:
                break
    return Trace.from_columns(addrs, [gap] * len(addrs), writes)


def strided(n_refs: int, base: int, array_lines: int, stride_lines: int,
            refs_per_line: int = 2, write_ratio: float = 0.1,
            gap: int = 6, seed: int = 0) -> Trace:
    """Regular strided sweep (the milc-like pattern): repeated passes
    with a fixed multi-line stride, so demand fetch sees no next-line
    spatial locality and neither does a next-line prefetcher."""
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if stride_lines < 1:
        raise ValueError(f"stride_lines must be >= 1, got {stride_lines}")
    _require("refs_per_line", refs_per_line, 1)
    _require("array_lines", array_lines, 1)
    rng = random.Random(seed)
    trace = bulk.strided(rng, n_refs, base, array_lines, stride_lines,
                         refs_per_line, write_ratio, gap)
    if trace is not None:
        return trace
    addrs: List[int] = []
    writes: List[int] = []
    line = 0
    element_stride = max(1, LINE // refs_per_line)
    while len(addrs) < n_refs:
        line_base = base + (line % array_lines) * LINE
        for e in range(refs_per_line):
            writes.append(1 if rng.random() < write_ratio else 0)
            addrs.append(line_base + e * element_stride)
            if len(addrs) >= n_refs:
                break
        line += stride_lines
    return Trace.from_columns(addrs, [gap] * len(addrs), writes)


def pointer_chase(n_refs: int, base: int, working_set_lines: int,
                  gap: int = 5, write_ratio: float = 0.05,
                  seed: int = 0) -> Trace:
    """Pointer chasing over a shuffled cycle: no spatial locality at all,
    temporal locality only through working-set size (the astar/sjeng
    irregular-control pattern)."""
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if working_set_lines < 2:
        raise ValueError("pointer chase needs >= 2 lines")
    rng = random.Random(seed)
    order = list(range(working_set_lines))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % working_set_lines]
                 for i in range(working_set_lines)}
    addrs: List[int] = []
    writes: List[int] = []
    line = order[0]
    for _ in range(n_refs):
        writes.append(1 if rng.random() < write_ratio else 0)
        addrs.append(base + line * LINE + rng.randrange(8) * 8)
        line = successor[line]
    return Trace.from_columns(addrs, [gap] * n_refs, writes)
