"""Lane-parallel kernel: the one kernel every lowered cell runs through.

A batch group's cells replay the same decoded trace through the same
cache geometry and differ only in their policy split (demand fetch or
a random-fill window with its own draw row).  This module runs all of
them as independent *lanes* over the shared columns in a single kernel
call; a lone lowered cell is simply a one-lane call.

The inputs stay numpy arrays end to end: the decoded line and step
columns and the warmed L2 image (built once per group by the C
:func:`warm_l2_template` replay) are read-only int64 arrays shared by
every lane, and each lane's pregenerated random-fill draw row is masked
in place into one ``(lanes, records)`` offsets matrix (``(draw & mask)
- a``, Table II bounds).  The C kernel reads them all without a copy.
The per-record state machine itself runs in a small C kernel
(``lanes_kernel.c``), compiled once with the host toolchain and loaded
through :mod:`ctypes`; results are **bit-identical** to the per-cell
fused kernel (:meth:`repro.cpu.timing.TimingModel._run_columnar_fused`
plus settle) because the C code is a branch-for-branch transcription
(drain order, fill-queue drop/merge rules, MSHR-full stall, MLP charge
table with its prune threshold, and the settle loop) and every quantity
fits int64 with all divisions on non-negative operands.

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
available and the only code here that works on plain int lists; the
native kernel is the performance path.
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

_native_lib = None
_native_tried = False

_I64P = ctypes.POINTER(ctypes.c_int64)


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


def _native() -> Optional[ctypes.CDLL]:
    """The kernel library with its entry points bound, or ``None``
    (memoized)."""
    global _native_lib, _native_tried
    if _native_tried:
        return _native_lib
    _native_tried = True
    lib = _compile_native()
    if lib is None:
        return None
    i64 = ctypes.c_int64
    lib.run_lanes.restype = ctypes.c_int
    lib.run_lanes.argtypes = ([i64, _I64P, _I64P, i64, _I64P, _I64P, _I64P]
                              + [i64] * 17 + [_I64P])
    lib.warm_l2.restype = None
    lib.warm_l2.argtypes = [i64, _I64P, _I64P, i64, i64]
    f64, u32p = ctypes.c_double, ctypes.POINTER(ctypes.c_uint32)
    lib.synth_mixture.restype = None
    lib.synth_mixture.argtypes = ([u32p, i64, i64, i64, i64, i64, _I64P,
                                   f64, f64, i64, i64, i64, f64]
                                  + [_I64P] * 2)
    lib.synth_streaming.restype = None
    lib.synth_streaming.argtypes = ([u32p, i64, i64, i64, i64, i64, f64,
                                     i64, i64, f64] + [_I64P] * 2)
    _native_lib = lib
    return lib


def native_available() -> bool:
    """Whether the compiled kernel is (or can be made) loadable."""
    return _native() is not None


def _as_ptr(arr: np.ndarray):
    """``arr``'s buffer as an ``int64_t *``, refusing any other layout."""
    if arr.dtype != np.int64 or not arr.flags.c_contiguous:
        raise TypeError("kernel arrays must be C-contiguous int64")
    return arr.ctypes.data_as(_I64P)


def warm_l2_template(footprint: np.ndarray, l2_num_sets: int,
                     l2_assoc: int) -> np.ndarray:
    """The warmed L2 image: ``footprint`` replayed into an empty L2.

    Access-or-fill per line under LRU, as ``warm_l2`` does on the
    object model.  Returns a read-only int64 array of ``l2_num_sets *
    l2_assoc`` ways, each set MRU first with ``-1`` for an empty way —
    the layout the C kernel copies per lane.  The C ``warm_l2`` replay
    runs when the kernel library loads, :func:`_warm_l2_python`
    otherwise.
    """
    template = np.full(l2_num_sets * l2_assoc, -1, dtype=np.int64)
    lib = _native()
    if lib is None:
        sets = _warm_l2_python(footprint.tolist(), l2_num_sets, l2_assoc)
        for s, ways in enumerate(sets):
            template[s * l2_assoc:s * l2_assoc + len(ways)] = ways
    else:
        lib.warm_l2(len(footprint), _as_ptr(footprint), _as_ptr(template),
                    l2_num_sets, l2_assoc)
    template.flags.writeable = False
    return template


def _warm_l2_python(footprint: List[int], l2_num_sets: int,
                    l2_assoc: int) -> List[List[int]]:
    """The no-compiler warm replay: MRU-first int list per set."""
    l2_mask = l2_num_sets - 1
    sets: List[List[int]] = [[] for _ in range(l2_num_sets)]
    for line in footprint:
        cache_set = sets[line & l2_mask]
        if line in cache_set:
            if cache_set[0] != line:
                cache_set.remove(line)
                cache_set.insert(0, line)
        else:
            if len(cache_set) >= l2_assoc:
                cache_set.pop()
            cache_set.insert(0, line)
    return sets


def _run_native(lib, group, params, kinds: np.ndarray,
                offsets: np.ndarray) -> Optional[List[SimResult]]:
    n_lanes = len(kinds)
    n_records = len(group.lines)
    out = np.zeros(n_lanes * 7, dtype=np.int64)
    rc = lib.run_lanes(
        n_records, _as_ptr(group.lines), _as_ptr(group.steps),
        n_lanes, _as_ptr(kinds), _as_ptr(offsets),
        _as_ptr(group.l2_template),
        params.l1_num_sets, params.l1_assoc, group.l2_num_sets,
        group.l2_assoc, params.l2_hit_latency, params.mq_capacity,
        params.fill_reserve, params.fill_queue_capacity, params.hit_cost,
        params.mlp, params.credit, *params.dram, _as_ptr(out))
    if rc != 0:
        return None
    return [
        SimResult(
            instructions=group.instructions,
            cycles=cycles,
            l1_accesses=n_records,
            l1_hits=hits,
            l1_demand_misses=demand_misses,
            l2_accesses=l2_accesses,
            l2_demand_misses=l2_misses,
            memory_lines=memory_lines,
            random_fill_issued=rf_issued,
        )
        for (cycles, hits, demand_misses, l2_accesses, l2_misses,
             memory_lines, rf_issued) in out.reshape(n_lanes, 7).tolist()
    ]


def _run_lane_python(lines_l, steps_plus, l2_sets, group, params,
                     policy_kind, offsets) -> SimResult:
    """One lane's trace pass — the tuned Python fallback.

    ``lines_l``, ``steps_plus`` (steps fused with ``hit_cost``),
    ``l2_sets`` (the warm image as MRU-first lists) and ``offsets``
    are plain int lists; ``group`` and ``params`` are as in
    :func:`run_lanes_general`.

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
     dram_hit_busy, dram_miss_busy) = params.dram
    l1_num_sets = params.l1_num_sets
    l1_assoc = params.l1_assoc
    l2_num_sets = group.l2_num_sets
    l2_assoc = group.l2_assoc
    l2_hit_latency = params.l2_hit_latency
    mq_capacity = params.mq_capacity
    fill_reserve = params.fill_reserve
    fill_queue_capacity = params.fill_queue_capacity
    hit_cost = params.hit_cost
    mlp = params.mlp
    credit = params.credit
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
        instructions=group.instructions,
        cycles=now,
        l1_accesses=len(lines_l),
        l1_hits=hits,
        l1_demand_misses=demand_misses,
        l2_accesses=l2_accesses,
        l2_demand_misses=l2_misses,
        memory_lines=memory_lines,
        random_fill_issued=rf_issued,
    )


def run_lanes_general(group, params, kinds: Sequence[int],
                      offsets: np.ndarray,
                      backend: Optional[str] = None) -> List[SimResult]:
    """Advance every lane of a batch group over the shared columns.

    ``group`` is the :class:`~repro.cpu.batch.GeneralGroupState`
    (``lines``/``steps`` columns, ``l2_template``, L2 geometry,
    ``instructions``, and :meth:`python_columns` for the fallback);
    ``params`` is a :class:`~repro.cpu.batch.LoweredCell` carrying the
    kernel parameters every lane shares.  ``kinds`` holds one policy
    kind per lane and ``offsets`` is the ``(lanes, records)`` int64
    matrix of premasked fill offsets (rows of demand-fetch lanes are
    never read).  Nothing is mutated — each lane works on its own copy
    of the L2 image.  ``backend`` forces ``"native"`` or ``"python"``;
    the default picks the compiled kernel when available.  Returns one
    :class:`SimResult` per lane, bit-identical to running each cell
    alone through :func:`repro.runner.cells.run_cell`.
    """
    if backend not in (None, "native", "python"):
        raise ValueError(
            f"backend must be None, 'native' or 'python', got {backend!r}")
    n_lanes = len(kinds)
    if n_lanes == 0:
        return []
    kinds = np.asarray(kinds, dtype=np.int64)
    if offsets.shape != (n_lanes, len(group.lines)):
        raise ValueError(
            f"offsets shape {offsets.shape} != "
            f"({n_lanes}, {len(group.lines)})")
    used = "python"
    results = None
    if backend != "python" and params.mq_capacity <= _NATIVE_MQ_LIMIT:
        lib = _native()
        if lib is None:
            if backend == "native":
                raise RuntimeError("native lane kernel unavailable")
        else:
            results = _run_native(lib, group, params, kinds, offsets)
            if results is not None:
                used = "native"
    elif backend == "native":
        raise RuntimeError(
            f"native lane kernel rejects mq_capacity {params.mq_capacity}")
    if results is None:
        lines_l, l2_sets = group.python_columns()
        steps_plus = (group.steps + params.hit_cost).tolist()
        results = [
            _run_lane_python(lines_l, steps_plus, l2_sets, group, params,
                             kind, row.tolist() if kind == 2 else ())
            for kind, row in zip(kinds.tolist(), offsets)
        ]
    LAST_STATS.clear()
    LAST_STATS.update(records=len(group.lines), lanes=n_lanes, backend=used)
    return results
