"""Lane-parallel kernel: the one kernel every lowered cell runs through.

A batch group's cells replay the same decoded trace through the same
cache geometry and differ only in their policy split (demand fetch or
a random-fill window with its own draw row).  This module runs all of
them as independent *lanes* over the shared columns in a single kernel
call; a lone lowered cell is simply a one-lane call.

numpy prepares the shared column work — the decoded trace is reused
as-is, the per-record step column is shared, and each lane's
pregenerated random-fill draw row is masked to fill offsets in one
vectorized pass (``(draw & mask) - a``, Table II bounds; see
:func:`masked_offsets`).  The per-record state machine itself runs in
a small C kernel (``lanes_kernel.c``), compiled once with the host
toolchain and loaded through :mod:`ctypes`; results are
**bit-identical** to the per-cell fused kernel
(:meth:`repro.cpu.timing.TimingModel._run_columnar_fused` plus settle)
because the C code is a branch-for-branch transcription (drain order,
fill-queue drop/merge rules, MSHR-full stall, MLP charge table with
its prune threshold, and the settle loop) and every quantity fits
int64 with all divisions on non-negative operands.

Why C and not numpy record-steps: this kernel went through three
measured all-Python designs first — the issue-sketched
``(lanes, sets, assoc)`` numpy struct-of-arrays with ``tags == line``
hit-scan reductions ran ~3x *slower* than the scalar kernel (small-
array numpy op constants dominate at fig10 lane widths), a lockstep
presence-bitmask design (one dict lookup classifying all lanes per
record) reached only ~0.55x (per-lane indexing replaces a scalar
kernel's bare locals on every event), and a fully tuned per-lane
rewrite (heap MSHR, O(1) ordered-dict sets, precomputed offsets,
steady-merge fast path) topped out at ~1.06x — fig10 traffic is
miss/merge-dominated, so per-event interpreter constants bound any
same-language kernel near 1x.  That tuned per-lane kernel ships as
:func:`_run_lane_python`, the fallback when no C compiler is
available; the native kernel is the performance path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.cpu.timing import (
    CHARGED_PRUNE_THRESHOLD,
    SimResult,
    prune_charged,
)

#: mirrors :data:`repro.cache.mshr.MissQueue.NEVER`
_NEVER = 1 << 62

#: kernel request types (1 mirrors ``NOFILL``)
_RT_NORMAL, _RT_NOFILL, _RT_RANDOM_FILL = 0, 1, 2

#: diagnostics of the most recent kernel run, overwritten per call;
#: the batch runner reads the backend right after each call
LAST_STATS: dict = {}

#: the native kernel rejects MSHR capacities above its drain scratch
#: bound (C returns -2); such configs take the Python fallback
_NATIVE_MQ_LIMIT = 64

_native_fn = None
_native_tried = False


class LaneCell:
    """Per-lane kernel inputs: the policy split of one lowered cell.

    ``offsets`` is the pregenerated random-fill offset row
    ``(draw & rf_mask) - rf_a`` as an int64 array (one entry per trace
    record, masked in one numpy pass from the cell's own derived RNG
    stream); ``None`` for demand-fetch lanes (``policy_kind`` 1).
    """

    __slots__ = ("policy_kind", "offsets")

    def __init__(self, policy_kind: int,
                 offsets: Optional[np.ndarray] = None):
        self.policy_kind = policy_kind
        self.offsets = offsets


def masked_offsets(draws: Sequence[int], rf_a: int,
                   rf_mask: int) -> np.ndarray:
    """One lane's fill-offset row: ``(draw & rf_mask) - rf_a`` vectorized.

    Bit-identical to the fused kernel's per-miss arithmetic: the raw
    draws are below ``2**width <= 2**32`` so int64 masking is exact.
    """
    return (np.asarray(draws, dtype=np.int64) & rf_mask) - rf_a


def _compile_native() -> Optional[ctypes.CDLL]:
    """Build (or reuse) the shared library for ``lanes_kernel.c``.

    The object is cached under ``$REPRO_LANES_CACHE`` (default: a
    ``repro-lanes`` directory in the system temp dir) keyed by source
    hash, so each kernel revision compiles once per machine.  Returns
    ``None`` when no C compiler is available or compilation fails —
    callers fall back to the Python kernel.
    """
    src = Path(__file__).with_name("lanes_kernel.c")
    try:
        body = src.read_bytes()
    except OSError:
        return None
    tag = hashlib.sha256(body).hexdigest()[:12]
    cache_dir = os.environ.get("REPRO_LANES_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-lanes")
    so_path = os.path.join(cache_dir, f"lanes_kernel_{tag}.so")
    if not os.path.exists(so_path):
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            return None
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            proc = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path,
                 str(src)],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp_path, so_path)
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None


def _native():
    """The bound ``run_lanes`` entry point, or ``None`` (memoized)."""
    global _native_fn, _native_tried
    if _native_tried:
        return _native_fn
    _native_tried = True
    lib = _compile_native()
    if lib is None:
        return None
    i64 = ctypes.c_int64
    ptr = ctypes.POINTER(ctypes.c_int64)
    fn = lib.run_lanes
    fn.restype = ctypes.c_int
    fn.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ptr] + [i64] * 17 + [ptr]
    _native_fn = fn
    return fn


def native_available() -> bool:
    """Whether the compiled kernel is (or can be made) loadable."""
    return _native() is not None


def _as_ptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _run_native(fn, lines_l, steps_l, instructions, l1_num_sets, l1_assoc,
                l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cells, dram) -> Optional[List[SimResult]]:
    n_lanes = len(cells)
    n_records = len(lines_l)
    lines = np.asarray(lines_l, dtype=np.int64)
    steps = np.asarray(steps_l, dtype=np.int64)
    kinds = np.asarray([c.policy_kind for c in cells], dtype=np.int64)
    offsets = np.zeros((n_lanes, n_records), dtype=np.int64)
    for i, cell in enumerate(cells):
        if cell.offsets is not None:
            offsets[i, :len(cell.offsets)] = cell.offsets
    template = np.full(l2_num_sets * l2_assoc, -1, dtype=np.int64)
    for s, ways in enumerate(l2_sets):
        if ways:
            template[s * l2_assoc:s * l2_assoc + len(ways)] = ways
    out = np.zeros(n_lanes * 7, dtype=np.int64)
    rc = fn(n_records, _as_ptr(lines), _as_ptr(steps),
            n_lanes, _as_ptr(kinds), _as_ptr(offsets), _as_ptr(template),
            l1_num_sets, l1_assoc, l2_num_sets, l2_assoc,
            l2_hit_latency, mq_capacity, fill_reserve,
            fill_queue_capacity, hit_cost, mlp, credit,
            dram[0], dram[1], dram[2], dram[3], dram[4], dram[5],
            _as_ptr(out))
    if rc != 0:
        return None
    return [
        SimResult(
            instructions=instructions,
            cycles=int(out[l * 7 + 0]),
            l1_accesses=n_records,
            l1_hits=int(out[l * 7 + 1]),
            l1_demand_misses=int(out[l * 7 + 2]),
            l2_accesses=int(out[l * 7 + 3]),
            l2_demand_misses=int(out[l * 7 + 4]),
            memory_lines=int(out[l * 7 + 5]),
            random_fill_issued=int(out[l * 7 + 6]),
        )
        for l in range(n_lanes)
    ]


def _run_lane_python(lines_l, steps_plus, instructions, l1_num_sets,
                     l1_assoc, l2_sets, l2_num_sets, l2_assoc,
                     l2_hit_latency, mq_capacity, fill_reserve,
                     fill_queue_capacity, hit_cost, mlp, credit,
                     policy_kind, offsets, dram) -> SimResult:
    """One lane's trace pass — the tuned Python fallback.

    The C kernel's state machine (itself a transcription of the fused
    kernel plus settle) with order-identical Python machinery: cache
    sets are :class:`OrderedDict` (O(1) membership, ``move_to_end``
    refresh, first key = LRU victim — the C kernel's MRU-first ways
    reversed), the MSHR adds a completion-ordered heap whose
    ``(completion, seq)`` order reproduces the stable completion sort
    on insertion order, the step column arrives fused with the
    per-record ``hit_cost`` (every record's branch adds exactly one),
    fill offsets are premasked, and a ``steady`` set marks lines whose
    charge already equals their in-flight completion so a repeat merge
    retires in one membership test (after the drain check, surviving
    entries complete strictly after ``now``, so such a merge adds
    exactly the already-fused ``hit_cost``).
    """
    from heapq import heappop, heappush

    (dram_lines_per_row, dram_banks, dram_hit_latency, dram_miss_latency,
     dram_hit_busy, dram_miss_busy) = dram
    l1_set_mask = l1_num_sets - 1
    l2_set_mask = l2_num_sets - 1
    l1_sets = [OrderedDict() for _ in range(l1_num_sets)]
    l2 = [OrderedDict((line, True) for line in reversed(ways))
          for ways in l2_sets]
    mq: dict = {}
    mq_get = mq.get
    heap: list = []
    seq = 0
    fill_queue: list = []
    open_row: dict = {}
    bank_free: dict = {}
    bank_free_get = bank_free.get
    open_row_get = open_row.get
    steady: set = set()
    steady_add = steady.add
    steady_discard = steady.discard

    prune_at = CHARGED_PRUNE_THRESHOLD
    fill_cap = mq_capacity - fill_reserve
    l2_accesses = 0
    l2_misses = 0
    memory_lines = 0
    rf_issued = 0
    hits = 0
    demand_misses = 0
    off_i = 0
    nc = _NEVER
    ncx = _NEVER                  # nc + hit_cost, in fused-clock terms
    fills_blocked = False

    def l2_access(line, at):
        nonlocal l2_accesses, l2_misses, memory_lines
        l2_accesses += 1
        cache_set = l2[line & l2_set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            return at + l2_hit_latency
        l2_misses += 1
        row = line // dram_lines_per_row
        bank = row % dram_banks
        start = bank_free_get(bank, 0)
        at += l2_hit_latency
        if start < at:
            start = at
        if open_row_get(bank) == row:
            done = start + dram_hit_latency
            bank_free[bank] = start + dram_hit_busy
        else:
            open_row[bank] = row
            done = start + dram_miss_latency
            bank_free[bank] = start + dram_miss_busy
        memory_lines += 1
        if len(cache_set) >= l2_assoc:
            cache_set.popitem(last=False)
        cache_set[line] = True
        return done

    def drain(at):
        nonlocal nc, ncx
        if at < nc:
            return 0
        done = 0
        while heap and heap[0][0] <= at:
            dline = heappop(heap)[2]
            done += 1
            steady_discard(dline)
            if mq.pop(dline)[1] != _RT_NOFILL:
                cache_set = l1_sets[dline & l1_set_mask]
                if dline not in cache_set:
                    if len(cache_set) >= l1_assoc:
                        cache_set.popitem(last=False)
                    cache_set[dline] = True
        nc = heap[0][0] if heap else _NEVER
        ncx = nc + hit_cost
        return done

    def issue_fills(at):
        nonlocal nc, ncx, fills_blocked, rf_issued, seq
        while fill_queue:
            head = fill_queue[0]
            if head in l1_sets[head & l1_set_mask]:
                del fill_queue[0]
                continue
            in_flight = mq_get(head)
            if in_flight is not None:
                del fill_queue[0]
                if in_flight[1] == _RT_NOFILL:
                    in_flight[1] = _RT_RANDOM_FILL
                    rf_issued += 1
                continue
            if len(mq) >= fill_cap:
                break
            del fill_queue[0]
            fill_at = l2_access(head, at)
            rf_issued += 1
            mq[head] = [fill_at, _RT_RANDOM_FILL]
            heappush(heap, (fill_at, seq, head))
            seq += 1
            if fill_at < nc:
                nc = fill_at
                ncx = nc + hit_cost
        fills_blocked = bool(fill_queue)

    now = 0
    charged: dict = {}
    charged_get = charged.get
    for line, sp in zip(lines_l, steps_plus):
        # ``sp`` fuses step + hit_cost: the unfused "now" at branch
        # entry is ``now - hit_cost``.
        now += sp
        if now >= ncx:
            drain(now - hit_cost)
            fills_blocked = False
        cache_set = l1_sets[line & l1_set_mask]
        if line in cache_set:
            hits += 1
            cache_set.move_to_end(line)
            if fill_queue and not fills_blocked:
                issue_fills(now - hit_cost)
            continue
        if line in steady:
            # charged[line] == mq[line][0] > now: the merge path adds
            # exactly hit_cost, already fused into the step.
            continue
        nb = now - hit_cost
        in_flight = mq_get(line)
        if in_flight is None and fill_queue and not fills_blocked:
            # Queued random fills are older than this demand miss, so
            # they claim MSHRs first — possibly turning it into a merge.
            issue_fills(nb)
            in_flight = mq_get(line)
        if in_flight is not None:
            completion = in_flight[0]
            if completion < nb:
                completion = nb
            if charged_get(line) != completion:
                charged[line] = completion
                remaining = completion - now - credit
                if remaining > 0:
                    now += (remaining + mlp - 1) // mlp
                if completion == in_flight[0]:
                    steady_add(line)
                else:
                    steady_discard(line)
            if len(charged) >= prune_at:
                charged = prune_charged(charged, now)
                charged_get = charged.get
                for k in tuple(steady):
                    if charged_get(k) != mq[k][0]:
                        steady_discard(k)
            continue
        stall = 0
        access_now = nb
        if len(mq) >= mq_capacity:
            stall = nc - nb
            if stall < 0:
                stall = 0
            access_now = nb + stall
            drain(access_now)
            fills_blocked = False
            if line in cache_set:
                # The drained line was the one we wanted; charge only
                # the hit (stall unused), with the MRU refresh.
                hits += 1
                cache_set.move_to_end(line)
                continue
        demand_misses += 1
        if policy_kind == 2:
            complete_at = l2_access(line, access_now)
            mq[line] = [complete_at, _RT_NOFILL]
            heappush(heap, (complete_at, seq, line))
            seq += 1
            if complete_at < nc:
                nc = complete_at
                ncx = nc + hit_cost
            fills_blocked = False
            fill_line = line + offsets[off_i]
            off_i += 1
            if fill_queue:
                # Parked requests are older; preserve FIFO order.
                if fill_line >= 0 and len(fill_queue) < fill_queue_capacity:
                    fill_queue.append(fill_line)
                issue_fills(access_now)
            elif fill_line < 0:
                pass                 # window underflow: dropped
            elif fill_line in l1_sets[fill_line & l1_set_mask]:
                pass                 # already resident: dropped
            else:
                in_flight = mq_get(fill_line)
                if in_flight is not None:
                    if in_flight[1] == _RT_NOFILL:
                        in_flight[1] = _RT_RANDOM_FILL
                        rf_issued += 1
                elif len(mq) >= fill_cap:
                    fill_queue.append(fill_line)
                    fills_blocked = True
                else:
                    fill_at = l2_access(fill_line, access_now)
                    rf_issued += 1
                    mq[fill_line] = [fill_at, _RT_RANDOM_FILL]
                    heappush(heap, (fill_at, seq, fill_line))
                    seq += 1
                    if fill_at < nc:
                        nc = fill_at
                        ncx = nc + hit_cost
        else:
            complete_at = l2_access(line, access_now)
            mq[line] = [complete_at, _RT_NORMAL]
            heappush(heap, (complete_at, seq, line))
            seq += 1
            if complete_at < nc:
                nc = complete_at
                ncx = nc + hit_cost
            fills_blocked = False
            if fill_queue:
                issue_fills(access_now)
        charged[line] = complete_at
        # The fresh entry's charge matches its completion by
        # construction: repeat merges are steady until it drains.
        steady_add(line)
        now += stall
        remaining = complete_at - now - credit
        if remaining > 0:
            now += (remaining + mlp - 1) // mlp
        if len(charged) >= prune_at:
            charged = prune_charged(charged, now)
            charged_get = charged.get
            for k in tuple(steady):
                if charged_get(k) != mq[k][0]:
                    steady_discard(k)

    # End-of-run settle (the C kernel's loop, verbatim): issued fills
    # and their L2/DRAM traffic count toward this run's totals.
    while fill_queue or mq:
        progressed = False
        if mq:
            horizon = nc if nc > 0 else 0
            progressed = drain(horizon) > 0
        if fill_queue and len(mq) < mq_capacity:
            before = len(fill_queue)
            issue_fills(0)
            progressed = progressed or len(fill_queue) != before
        if not progressed:       # pragma: no cover - defensive backstop
            break

    return SimResult(
        instructions=instructions,
        cycles=now,
        l1_accesses=len(lines_l),
        l1_hits=hits,
        l1_demand_misses=demand_misses,
        l2_accesses=l2_accesses,
        l2_demand_misses=l2_misses,
        memory_lines=memory_lines,
        random_fill_issued=rf_issued,
    )


def run_lanes_general(lines_l, steps_l, instructions,
                      l1_num_sets, l1_assoc,
                      l2_sets, l2_num_sets, l2_assoc,
                      l2_hit_latency, mq_capacity, fill_reserve,
                      fill_queue_capacity, hit_cost, mlp, credit,
                      cells: Sequence[LaneCell], dram,
                      backend: Optional[str] = None) -> List[SimResult]:
    """Advance every lane of a batch group over the shared columns.

    Shared arguments are the fields of a
    :class:`~repro.cpu.batch.LoweredCell`; ``l2_sets`` is
    the group's warmed L2 image (MRU-first int lists, *not* mutated —
    each lane works on its own copy) and ``cells`` holds one
    :class:`LaneCell` per lane.  ``backend`` forces ``"native"`` or
    ``"python"``; the default picks the compiled kernel when available.
    Returns one :class:`SimResult` per lane, bit-identical to running
    each cell alone through :func:`repro.runner.cells.run_cell`.
    """
    if backend not in (None, "native", "python"):
        raise ValueError(
            f"backend must be None, 'native' or 'python', got {backend!r}")
    n_lanes = len(cells)
    if n_lanes == 0:
        return []
    used = "python"
    results = None
    if backend != "python" and mq_capacity <= _NATIVE_MQ_LIMIT:
        fn = _native()
        if fn is None:
            if backend == "native":
                raise RuntimeError("native lane kernel unavailable")
        else:
            results = _run_native(
                fn, lines_l, steps_l, instructions, l1_num_sets,
                l1_assoc, l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cells, dram)
            if results is not None:
                used = "native"
    elif backend == "native":
        raise RuntimeError(
            f"native lane kernel rejects mq_capacity {mq_capacity}")
    if results is None:
        steps_plus = (np.asarray(steps_l, dtype=np.int64)
                      + hit_cost).tolist()
        results = []
        for cell in cells:
            offsets = (cell.offsets.tolist()
                       if cell.offsets is not None else ())
            results.append(_run_lane_python(
                lines_l, steps_plus, instructions, l1_num_sets, l1_assoc,
                l2_sets, l2_num_sets, l2_assoc, l2_hit_latency,
                mq_capacity, fill_reserve, fill_queue_capacity, hit_cost,
                mlp, credit, cell.policy_kind, offsets, dram))
    LAST_STATS.clear()
    LAST_STATS.update(records=len(lines_l), lanes=n_lanes, backend=used)
    return results
