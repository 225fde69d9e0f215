"""Shared-state lowering for batched cell execution.

A Figure-10-style sweep runs many cells that differ only in window,
seed knob, or scheme while replaying the *same* trace through the same
cache geometry.  The per-cell path re-derives the decode columns and
re-warms the L2 for every one of them; this module computes that shared
work once per batch group and lowers each eligible cell onto the
lane-parallel kernel (:func:`repro.cpu.lanes.run_lanes_general`), one
or many lanes per call:

* :class:`GeneralGroupState` — the per-(trace, config, warm) inputs:
  decoded line/step columns of the measured slice and the warmed L2
  contents as plain int lists,
* :func:`lower_cell` — build the cell's scheme, check that it is
  exactly the stock set-associative/LRU configuration the kernels
  transcribe, and pregenerate its random-fill draw row from its own
  derived RNG stream; ineligible cells lower to ``None`` and the
  caller falls back to :func:`repro.runner.cells.run_cell`,
* :func:`run_lane_cells` — a group of lowered cells through the lane
  kernel in one shared trace pass (the lanes must agree on
  :meth:`LoweredCell.shared_key`),
* :func:`run_lowered_cell` — one cell with no lane partner, as a
  one-lane call,
* :func:`lane_eligible` — the structural half of the eligibility check
  from the spec alone (no trace load), for plan displays.

Results are bit-identical to the per-cell path: the kernel is an exact
transcription of the fused kernel plus settle, the warm replay mirrors
``warm_l2``, and the draw row reproduces the scalar ``draw()`` stream
(:meth:`repro.util.rng.HardwareRng.pregenerate`).
"""

from __future__ import annotations


from typing import List, Optional, Sequence

from repro.cache.controller import DemandFetchPolicy
from repro.cache.l2 import L2Cache
from repro.cache.set_associative import SetAssociativeCache
from repro.core.policy import RandomFillPolicy
from repro.cpu.lanes import LaneCell, masked_offsets, run_lanes_general
from repro.cpu.timing import SimResult
from repro.cpu.trace import Trace
from repro.memory.dram import DramModel

#: thread whose window registers drive a batched run (the timing model's
#: default context)
_THREAD_ID = 0


class GeneralGroupState:
    """Shared inputs of one batch group: decode columns + warm L2 state.

    Built once per (trace, config, warm) group; every cell of the group
    reads the same column lists and warmed L2 sets (never mutated: the
    lane kernel copies the L2 image per lane).
    """

    __slots__ = ("config", "lines", "steps", "instructions",
                 "l2_num_sets", "l2_assoc", "_warm_l2_sets")

    def __init__(self, trace: Trace, config, warm: bool):
        self.config = config
        line_shift = config.line_size.bit_length() - 1
        if warm:
            # Warm on the first half, measure the second — the same
            # split (and the same memoized slice/decode objects) as
            # run_general_workload.
            split = len(trace) // 2
            footprint = trace.decoded(line_shift).warm_footprint(split)
            measured = trace[split:]
        else:
            footprint = ()
            measured = trace
        decode = measured.decoded(line_shift)
        self.lines: List[int] = decode.lines_list()
        self.steps: List[int] = decode.issue_steps(config.issue_width)
        self.instructions: int = measured.instruction_count
        self.l2_num_sets = (config.l2_size // config.line_size) \
            // config.l2_assoc
        self.l2_assoc = config.l2_assoc
        # Flat replay of warm_l2: access-or-fill per footprint line on
        # MRU-first int lists (hits move to front, fills evict the LRU
        # tail), matching SetAssociativeCache under LRU exactly.
        l2_mask = self.l2_num_sets - 1
        l2_assoc = self.l2_assoc
        sets: List[List[int]] = [[] for _ in range(self.l2_num_sets)]
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
        self._warm_l2_sets = sets

    def l2_sets_view(self) -> List[List[int]]:
        """The warmed L2 contents, MRU first — read-only for callers."""
        return self._warm_l2_sets


def group_state_for(spec) -> GeneralGroupState:
    """Build the shared state for a batch group from one member spec."""
    from repro.workloads.cache import cached_workload
    trace = cached_workload(spec.benchmark, n_refs=spec.n_refs,
                            seed=spec.seed)
    return GeneralGroupState(trace, spec.config, spec.warm)


class LoweredCell:
    """One eligible cell lowered to plain kernel parameters.

    The shared fields (geometry, capacities, latencies, DRAM timing)
    must agree between lanes run together — :meth:`shared_key` is the
    grouping key; ``policy_kind`` / ``rf_a`` / ``rf_mask`` / ``draws``
    are the per-lane split.
    """

    __slots__ = ("l1_num_sets", "l1_assoc", "l2_hit_latency",
                 "mq_capacity", "fill_reserve", "fill_queue_capacity",
                 "hit_cost", "mlp", "credit", "dram",
                 "policy_kind", "rf_a", "rf_mask", "draws")

    def shared_key(self):
        return (self.l1_num_sets, self.l1_assoc, self.l2_hit_latency,
                self.mq_capacity, self.fill_reserve,
                self.fill_queue_capacity, self.hit_cost, self.mlp,
                self.credit, self.dram)


def _lower(spec, config, l2_num_sets, l2_assoc,
           n_draws: int) -> Optional[LoweredCell]:
    """Structural eligibility check + parameter extraction.

    ``n_draws == 0`` performs a *dry* lowering (no draw row is
    pregenerated, leaving the scheme's RNG untouched) — enough for
    eligibility display; a real run lowers with one draw per trace
    record.
    """
    from repro.experiments.schemes import build_scheme
    from repro.runner.cells import CellSpec
    from repro.schemes import get_scheme

    if not isinstance(spec, CellSpec) or spec.kind != "general":
        return None
    # Declarative early-out from the scheme registry: schemes not
    # flagged lane_eligible never lower, and pow2_window_only schemes
    # skip the build for windows the mask path cannot draw.  The
    # structural checks below stay as the authority for flagged
    # schemes (a conformance test pins flag/structure agreement).
    registered = get_scheme(spec.scheme, timing=True)
    if not registered.lane_eligible:
        return None
    if registered.pow2_window_only and spec.window is not None:
        size = spec.window[0] + spec.window[1] + 1
        if size > 1 and size & (size - 1):
            return None
    scheme = build_scheme(spec.scheme, config, seed=spec.seed)
    window = spec.window if spec.window is not None else (0, 0)
    if scheme.os is not None:
        scheme.os.set_rr(*window)

    l1 = scheme.l1
    tag = l1.tag_store
    if type(tag) is not SetAssociativeCache \
            or not (tag._lru_hits and tag._mru_fills and tag._max_victims) \
            or l1._policy_bypasses or l1._policy_on_hit is not None:
        return None
    l2 = l1.next_level
    if type(l2) is not L2Cache:
        return None
    l2_tag = l2.tag_store
    if type(l2_tag) is not SetAssociativeCache \
            or not (l2_tag._lru_hits and l2_tag._mru_fills
                    and l2_tag._max_victims) \
            or l2_tag._set_mask + 1 != l2_num_sets \
            or l2_tag.associativity != l2_assoc:
        return None
    dram = l2.dram
    if type(dram) is not DramModel:
        return None
    # The kernel starts from empty in-flight/warm state; a freshly
    # built scheme always satisfies this.
    if len(l1.miss_queue) or l1.fill_queue or dram._open_row \
            or dram._bank_free_at:
        return None

    policy = l1._policy
    policy_kind = 1
    rf_a = rf_mask = 0
    draws: Sequence[int] = ()
    if type(policy) is RandomFillPolicy:
        engine = policy.engine
        rf_window = engine.window_for(_THREAD_ID)
        if not (rf_window.a == 0 and rf_window.b == 0):
            rf_a, rf_mask, _size = engine._params[_THREAD_ID]
            if rf_mask is None:
                return None          # non-power-of-two: draw_below path
            policy_kind = 2
            # One raw draw per demand miss; one per record is always
            # enough.  The row comes from this cell's own derived RNG
            # stream and reproduces scalar draw() bit-exactly.
            if n_draws:
                draws = engine._rng.pregenerate(n_draws)
    elif type(policy) is not DemandFetchPolicy:
        return None

    cfg = dram.config
    lowered = LoweredCell()
    lowered.l1_num_sets = tag._set_mask + 1
    lowered.l1_assoc = tag.associativity
    lowered.l2_hit_latency = l2.hit_latency
    lowered.mq_capacity = l1.miss_queue.capacity
    lowered.fill_reserve = l1.fill_reserve
    lowered.fill_queue_capacity = l1.fill_queue_capacity
    lowered.hit_cost = l1.hit_latency
    lowered.mlp = max(1, l1.miss_queue.capacity // 2)
    lowered.credit = config.overlap_credit
    lowered.dram = (
        cfg.row_size_bytes // cfg.line_size, cfg.num_banks,
        cfg.row_hit_latency, cfg.row_miss_latency,
        cfg.t_burst, cfg.t_rp + cfg.t_rcd + cfg.t_burst,
    )
    lowered.policy_kind = policy_kind
    lowered.rf_a = rf_a
    lowered.rf_mask = rf_mask
    lowered.draws = draws
    return lowered


def lower_cell(spec, group: GeneralGroupState) -> Optional[LoweredCell]:
    """Lower one cell onto kernel parameters, or ``None`` if ineligible.

    The cell's scheme is built exactly as ``run_general_workload``
    builds it (same ``build_scheme`` seed derivation, same ``set_rr``),
    then checked: only the stock set-associative/LRU L1 and L2 with a
    demand-fetch or power-of-two random-fill policy qualify — the same
    configurations the fused kernel covers, minus the non-power-of-two
    windows that draw via ``draw_below``.
    """
    if spec.config != group.config:
        return None
    return _lower(spec, spec.config, group.l2_num_sets, group.l2_assoc,
                  n_draws=len(group.lines))


def lane_eligible(spec) -> bool:
    """Would this spec lower onto the kernels?  Structure only, no trace.

    Used by plan displays (``--profile``): the check builds the scheme
    (cheap) but skips the draw-row pregeneration, so no workload trace
    is loaded.
    """
    from repro.runner.cells import CellSpec

    if not isinstance(spec, CellSpec) or spec.kind != "general":
        return False
    config = spec.config
    l2_num_sets = (config.l2_size // config.line_size) // config.l2_assoc
    return _lower(spec, config, l2_num_sets, config.l2_assoc,
                  n_draws=0) is not None


def run_lane_cells(group: GeneralGroupState,
                   lowered: Sequence[LoweredCell]) -> List[SimResult]:
    """Run a group of lowered cells as lanes of one shared trace pass.

    Every member must report the same :meth:`LoweredCell.shared_key`
    (the runner groups by it before calling).  Returns one result per
    cell, in order, bit-identical to running each cell alone.
    """
    if not lowered:
        return []
    first = lowered[0]
    cells = [
        LaneCell(
            lc.policy_kind,
            masked_offsets(lc.draws, lc.rf_a, lc.rf_mask)
            if lc.policy_kind == 2 else None,
        )
        for lc in lowered
    ]
    return run_lanes_general(
        group.lines, group.steps, group.instructions,
        l1_num_sets=first.l1_num_sets, l1_assoc=first.l1_assoc,
        l2_sets=group.l2_sets_view(),
        l2_num_sets=group.l2_num_sets, l2_assoc=group.l2_assoc,
        l2_hit_latency=first.l2_hit_latency,
        mq_capacity=first.mq_capacity, fill_reserve=first.fill_reserve,
        fill_queue_capacity=first.fill_queue_capacity,
        hit_cost=first.hit_cost, mlp=first.mlp, credit=first.credit,
        cells=cells, dram=first.dram,
    )


def run_lowered_cell(group: GeneralGroupState,
                     lowered: LoweredCell) -> SimResult:
    """Run one lowered cell with no lane partner: a one-lane call."""
    return run_lane_cells(group, [lowered])[0]
