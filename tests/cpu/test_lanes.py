"""Lane-kernel identity tests: lanes == the per-cell path, bit for bit.

The lane kernel (:mod:`repro.cpu.lanes`) runs every lowered cell — a
lane group of a batch, or a lone cell as a one-lane call.  Its only
permitted observable difference from the spec-level per-cell path
(:func:`repro.runner.cells.run_cell`, the fused kernel plus settle) is
speed, so every test here compares :func:`run_lane_cells` /
:func:`run_lanes_general` against ``run_cell(spec)`` across schemes,
windows, warm state, seeds, cache geometry and lane counts — on both
the native C backend and the pure-Python fallback.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import lanes as lanes_mod
from repro.cpu.batch import (
    group_state_for,
    lower_cell,
    run_lane_cells,
)
from repro.cpu.lanes import (
    _NATIVE_MQ_LIMIT,
    LaneCell,
    masked_offsets,
    native_available,
    run_lanes_general,
)
from repro.experiments.config import BASELINE_CONFIG
from repro.runner.cells import CellSpec, run_cell

#: pow2 windows the kernels cover, plus demand fetch; the (2, 2)
#: window is non-power-of-two and must fail lowering (fallback path)
POW2_WINDOWS = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7))

#: MSHR capacities: the attacker-favouring single entry (no fill
#: reserve), the baseline's 4, and sizes past the native kernel's
#: drain-scratch bound, which take the Python lanes
MSHR_ENTRIES = (1, 2, 4, 8, 65, 128)

BACKENDS = ["python"] + (["native"] if native_available() else [])


def _config(l1_assoc=4, mshr_entries=4):
    """Baseline machine with 128 L1 sets of ``l1_assoc`` ways."""
    config = BASELINE_CONFIG.with_l1d(128 * 64 * l1_assoc, l1_assoc)
    return replace(config, mshr_entries=mshr_entries)


def _specs(benchmark, windows, warm, seed, config=BASELINE_CONFIG,
           n_refs=1200):
    """One batch group's specs: random fill per window, then baseline."""
    specs = [CellSpec(kind="general", benchmark=benchmark,
                      scheme="random_fill", window=window, n_refs=n_refs,
                      seed=seed, warm=warm, config=config)
             for window in windows if window != (0, 0)]
    specs += [CellSpec(kind="general", benchmark=benchmark,
                       scheme="baseline", window=(0, 0), n_refs=n_refs,
                       seed=seed, warm=warm, config=config)]
    return specs


def _lower(specs):
    """Shared group state plus every spec lowered onto it."""
    shared = group_state_for(specs[0])
    return shared, [lower_cell(spec, shared) for spec in specs]


def _run_lanes(shared, lowered, backend):
    first = lowered[0]
    cells = [LaneCell(lc.policy_kind,
                      masked_offsets(lc.draws, lc.rf_a, lc.rf_mask)
                      if lc.policy_kind == 2 else None)
             for lc in lowered]
    return run_lanes_general(
        shared.lines, shared.steps, shared.instructions,
        l1_num_sets=first.l1_num_sets, l1_assoc=first.l1_assoc,
        l2_sets=shared.l2_sets_view(), l2_num_sets=shared.l2_num_sets,
        l2_assoc=shared.l2_assoc, l2_hit_latency=first.l2_hit_latency,
        mq_capacity=first.mq_capacity, fill_reserve=first.fill_reserve,
        fill_queue_capacity=first.fill_queue_capacity,
        hit_cost=first.hit_cost, mlp=first.mlp, credit=first.credit,
        cells=cells, dram=first.dram, backend=backend)


class TestLaneIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(windows=st.lists(st.sampled_from(POW2_WINDOWS), min_size=1,
                            max_size=4, unique=True),
           warm=st.booleans(),
           seed=st.integers(min_value=0, max_value=3),
           benchmark=st.sampled_from(("astar", "lbm")),
           l1_assoc=st.integers(min_value=1, max_value=8),
           mshr_entries=st.sampled_from(MSHR_ENTRIES))
    def test_matches_scalar_flat_kernel(self, backend, windows, warm,
                                        seed, benchmark, l1_assoc,
                                        mshr_entries):
        # The reference is the scalar per-cell path, run_cell(spec).
        # Capacities past the native bound must fall back to the
        # Python lanes, so they run with backend auto-selection.
        specs = _specs(benchmark, windows, warm, seed,
                       _config(l1_assoc, mshr_entries))
        shared, lowered = _lower(specs)
        assert all(lc is not None for lc in lowered)
        native_ok = mshr_entries <= _NATIVE_MQ_LIMIT
        laned = _run_lanes(shared, lowered, backend if native_ok else None)
        assert laned == [run_cell(spec) for spec in specs]
        assert lanes_mod.LAST_STATS["backend"] == \
            (backend if native_ok else "python")
        assert lanes_mod.LAST_STATS["lanes"] == len(lowered)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 7])
    def test_lane_count_never_changes_results(self, backend, n_lanes):
        # The same cell replicated N times must produce N identical
        # results, each equal to its per-cell run — lanes share
        # read-only columns but no mutable state.
        spec = _specs("astar", ((4, 3),), warm=False, seed=1)[0]
        shared, lowered = _lower([spec])
        laned = _run_lanes(shared, lowered * n_lanes, backend)
        assert laned == [run_cell(spec)] * n_lanes

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on host")
    def test_backends_agree(self):
        shared, lowered = _lower(_specs("lbm", POW2_WINDOWS, warm=True,
                                        seed=2))
        assert _run_lanes(shared, lowered, "python") == \
            _run_lanes(shared, lowered, "native")

    def test_mixed_group_fallback_cells_stay_scalar(self):
        # A (2, 2) window is not a power of two: it must fail lowering
        # (scalar fallback inside the batch), while its pow2 siblings
        # lane — and the lanes agree with the per-cell path.
        windows = ((4, 3), (2, 2), (0, 7))
        specs = [CellSpec(kind="general", benchmark="astar",
                          scheme="random_fill", window=window,
                          n_refs=1200, seed=0)
                 for window in windows]
        shared, lowered = _lower(specs)
        assert [lc is not None for lc in lowered] == [True, False, True]
        laned = run_lane_cells(shared, [lowered[0], lowered[2]])
        assert laned == [run_cell(specs[0]), run_cell(specs[2])]


class TestLaneKnobs:
    def test_explicit_native_raises_without_compiler(self, monkeypatch):
        monkeypatch.setattr(lanes_mod, "_native", lambda: None)
        shared, lowered = _lower(_specs("astar", ((0, 0),), warm=False,
                                        seed=0))
        with pytest.raises(RuntimeError, match="native"):
            _run_lanes(shared, lowered, "native")

    def test_unknown_backend_rejected(self):
        shared, lowered = _lower(_specs("astar", ((0, 0),), warm=False,
                                        seed=0))
        with pytest.raises(ValueError, match="backend"):
            _run_lanes(shared, lowered, "cuda")

    def test_empty_lane_list_is_empty(self):
        shared, _ = _lower(_specs("astar", ((0, 0),), warm=False, seed=0))
        assert run_lane_cells(shared, []) == []

    def test_big_mshr_falls_back_to_python(self):
        # The native kernel bounds its drain scratch at 64 MSHR
        # entries; a machine with more must transparently take the
        # Python lanes (backend=None auto-selection) and still match
        # the per-cell path.
        spec = _specs("astar", ((4, 3),), warm=False, seed=0,
                      config=_config(mshr_entries=128))[0]
        shared, lowered = _lower([spec])
        assert lowered[0].mq_capacity == 128
        laned = run_lane_cells(shared, lowered * 2)
        assert lanes_mod.LAST_STATS["backend"] == "python"
        assert laned == [run_cell(spec)] * 2
