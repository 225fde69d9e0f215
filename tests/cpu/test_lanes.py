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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_associative import SetAssociativeCache
from repro.cpu import lanes as lanes_mod
from repro.cpu.batch import (
    group_state_for,
    lane_inputs,
    lower_cell,
    run_lane_cells,
    run_lowered_cell,
)
from repro.cpu.decode import TraceDecode
from repro.cpu.lanes import (
    _NATIVE_MQ_LIMIT,
    _warm_l2_python,
    native_available,
    run_lanes_general,
    warm_l2_template,
)
from repro.experiments.config import BASELINE_CONFIG
from repro.experiments.perf_general import warm_l2
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
    kinds, offsets = lane_inputs(lowered, len(shared.lines))
    return run_lanes_general(shared, lowered[0], kinds, offsets,
                             backend=backend)


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


@st.composite
def _footprints(draw):
    """An L2 geometry plus a footprint that thrashes a few sets.

    Lines fall into at most four sets with tags drawn from a range a
    little wider than the associativity, so fills evict, evicted lines
    come back and hits land at every LRU depth; runs of one line repeat.
    """
    num_sets = 1 << draw(st.integers(min_value=0, max_value=12))
    assoc = draw(st.integers(min_value=1, max_value=16))
    hot_sets = draw(st.lists(st.integers(min_value=0,
                                         max_value=num_sets - 1),
                             min_size=1, max_size=4))
    picks = draw(st.lists(
        st.tuples(st.sampled_from(hot_sets),
                  st.integers(min_value=0, max_value=assoc + 3),
                  st.integers(min_value=1, max_value=3)),
        max_size=120))
    lines = [tag * num_sets + set_index
             for set_index, tag, repeat in picks for _ in range(repeat)]
    return num_sets, assoc, lines


class TestWarmL2:
    """The C warm replay, its Python fallback and the object model's
    ``warm_l2`` leave the same L2, way for way."""

    @settings(max_examples=60, deadline=None)
    @given(case=_footprints())
    def test_replays_agree_way_for_way(self, case):
        num_sets, assoc, lines = case
        template = warm_l2_template(np.array(lines, dtype=np.int64),
                                    num_sets, assoc)
        image = [[way for way in row if way != -1]
                 for row in template.reshape(num_sets, assoc).tolist()]

        assert _warm_l2_python(lines, num_sets, assoc) == image

        store = SetAssociativeCache(num_sets * assoc * 64, assoc)
        scheme = SimpleNamespace(
            hierarchy=SimpleNamespace(l2=SimpleNamespace(tag_store=store)),
            config=SimpleNamespace(line_size=64))
        warm_l2(scheme, [(line * 64, 1, 0) for line in lines])
        assert [[state.line_addr for state in ways]
                for ways in store._sets] == image

    def test_empty_ways_trail_the_set(self):
        # MRU first, and -1 (empty) only after every resident line.
        template = warm_l2_template(np.array([0, 2, 4, 2], dtype=np.int64),
                                    2, 4)
        assert template.tolist() == [2, 4, 0, -1, -1, -1, -1, -1]


class TestGroupState:
    def test_arrays_are_read_only(self):
        shared = group_state_for(_specs("astar", ((4, 3),), warm=True,
                                        seed=0)[0])
        for column in (shared.lines, shared.steps, shared.l2_template):
            assert column.dtype == np.int64
            assert column.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            shared.l2_template.reshape(-1, shared.l2_assoc)[0] = 1

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_path_builds_no_int_lists(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("native lane path built an int list")

        monkeypatch.setattr(TraceDecode, "lines_list", refuse)
        monkeypatch.setattr(TraceDecode, "issue_steps", refuse)
        monkeypatch.setattr(TraceDecode, "warm_footprint", refuse)
        specs = _specs("lbm", ((4, 3), (0, 7)), warm=True, seed=3)
        shared, lowered = _lower(specs)
        laned = run_lane_cells(shared, lowered)
        assert lanes_mod.LAST_STATS["backend"] == "native"
        assert shared._python_columns is None
        monkeypatch.undo()
        assert laned == [run_cell(spec) for spec in specs]

    def test_fallback_builds_int_lists_once_per_group(self, monkeypatch):
        monkeypatch.setattr(lanes_mod, "_native", lambda: None)
        specs = _specs("astar", ((4, 3), (16, 15)), warm=True, seed=2)
        shared, lowered = _lower(specs)
        assert shared._python_columns is None
        laned = run_lane_cells(shared, lowered[:2])
        columns = shared._python_columns
        assert columns is not None
        laned.append(run_lowered_cell(shared, lowered[2]))
        assert shared._python_columns is columns
        assert lanes_mod.LAST_STATS["backend"] == "python"
        assert laned == [run_cell(spec) for spec in specs]
