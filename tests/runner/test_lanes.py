"""Lane execution through the runner: planner, telemetry, faults.

Lane execution must be invisible except in speed: grids run at any
chunk width, and a lone eligible cell run as a one-lane call, produce
the per-cell results; checked mode bypasses lane planning entirely;
and a lane batch that hangs splits back into the ordinary per-cell
retry machinery exactly like any other batch.
"""

import os
import time

import pytest

from repro.cpu.lanes import native_available
from repro.runner import batch as batch_mod
from repro.runner.batch import (
    DEFAULT_LANES,
    MAX_BATCH,
    BatchItem,
    CellBatch,
    plan_batches,
    run_batch,
)
from repro.runner.cells import CellSpec, run_cell
from repro.runner.pool import last_run_stats, run_cells
from repro.runner.profiler import profile_batch
from repro.runner.result_cache import ResultCache
from repro.runner.telemetry import read_events


def _general_specs(n=4, benchmark="astar", n_refs=1500, seed=0):
    windows = ((0, 0), (0, 7), (4, 3), (16, 15), (8, 7), (0, 3))
    return [CellSpec(kind="general", benchmark=benchmark,
                     window=windows[i % len(windows)], n_refs=n_refs,
                     seed=seed)
            for i in range(n)]


def _fallback_specs():
    """Two astar cells the lane kernel does not cover: a non-power-of-two
    window and a prefetcher scheme, both in the ``_general_specs`` group."""
    return [
        CellSpec(kind="general", benchmark="astar", window=(2, 2),
                 n_refs=1500, seed=0),
        CellSpec(kind="general", benchmark="astar",
                 scheme="tagged_prefetch", window=(0, 0),
                 n_refs=1500, seed=0),
    ]


#: the backend a lane call picks on this host
_BACKEND = "native" if native_available() else "python"


class HangingLaneMember:
    """Duck-typed member of a *general* batch group that hangs once.

    It copies a real cell's ``batch_group_key()`` so the planner puts
    it into the same lane batch, but it is not a ``CellSpec`` — the
    lowering step rejects it, so inside the batch it takes the
    per-cell fallback, where its first ``run()`` sleeps for a minute.
    Attempts are counted through marker files so the count spans the
    batch attempt and the per-cell retries after the split.
    """

    config = None  # lower_cell compares this against the group config

    def __init__(self, template, state_dir, tag="sleeper"):
        self.group_key = template.batch_group_key()
        self.state_dir = state_dir
        self.tag = tag

    def __repr__(self):
        return f"HangingLaneMember({self.tag!r})"

    def batch_group_key(self):
        return self.group_key

    def run(self):
        n = 0
        while True:
            try:
                open(os.path.join(self.state_dir, f"{self.tag}.{n}"),
                     "x").close()
                break
            except FileExistsError:
                n += 1
        if n == 0:
            time.sleep(60)
        return ("ok", self.tag)


@pytest.fixture(autouse=True)
def _no_ambient_check(monkeypatch):
    # These tests pin lane behaviour, which checked mode disables by
    # design; an ambient REPRO_CHECK (e.g. a whole-suite checked run)
    # would mask it.  The checked-mode tests below set the variable
    # back explicitly after this runs.
    monkeypatch.delenv("REPRO_CHECK", raising=False)


@pytest.fixture
def nocache():
    return ResultCache(disk_dir=None, use_default_disk_dir=False)


@pytest.fixture
def state_dir(tmp_path):
    d = tmp_path / "state"
    d.mkdir()
    return str(d)


class TestLanePlanner:
    def test_general_groups_chunk_at_lane_width(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "DEFAULT_LANES", 3)
        specs = _general_specs(n=7)
        items = plan_batches(specs, range(len(specs)))
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [3, 3]          # 7 cells -> 3 + 3 + 1 unbatched
        assert items[-1] == 6

    def test_width_can_exceed_max_batch(self):
        assert DEFAULT_LANES > MAX_BATCH
        specs = _general_specs(n=DEFAULT_LANES)
        (item,) = plan_batches(specs, range(len(specs)))
        assert len(item.indices) == DEFAULT_LANES

    def test_non_general_kinds_keep_scalar_cap(self):
        class SquareSpec:
            def __init__(self, value):
                self.value = value

            def batch_group_key(self):
                return ("square", "g")

            def run(self):
                return self.value ** 2

        specs = [SquareSpec(i) for i in range(MAX_BATCH + 4)]
        items = plan_batches(specs, range(len(specs)))
        sizes = [len(i.indices) for i in items if isinstance(i, BatchItem)]
        assert sizes == [MAX_BATCH, 4]


class TestLaneRuns:
    def test_widths_are_bit_identical(self, nocache, monkeypatch):
        # Chunk boundaries carry no state: every width reproduces the
        # per-cell path (batching off) bit for bit.
        specs = _general_specs(n=6)
        percell = run_cells(specs, jobs=1, result_cache=nocache,
                            batch=False)
        assert last_run_stats()["vectorized_cells"] == 0
        for width in (2, 3, 64):
            monkeypatch.setattr(batch_mod, "DEFAULT_LANES", width)
            assert run_cells(specs, jobs=1, result_cache=nocache) == percell
            stats = last_run_stats()
            assert stats["vectorized_cells"] == 6
            assert stats["lane_width"] == width

    def test_batch_finish_carries_lane_fields(self, nocache, tmp_path):
        log = str(tmp_path / "telemetry.jsonl")
        run_cells(_general_specs(n=4), jobs=1, result_cache=nocache,
                  telemetry=log)
        (finish,) = [e for e in read_events(log)
                     if e["event"] == "batch_finish"]
        assert finish["lane_width"] == DEFAULT_LANES
        assert finish["vectorized_cells"] == 4
        assert finish["scalar_fallback_cells"] == 0
        assert finish["kernel_backend"] == _BACKEND

    def test_lone_eligible_cell_runs_on_lane_kernel(self, nocache,
                                                    tmp_path):
        # One lowerable cell in a batch of fallbacks has no lane
        # partner: it runs as a one-lane kernel call, and its result
        # is the per-cell one.
        specs = _general_specs(n=1) + _fallback_specs()
        batch = CellBatch("b0", "general", tuple(specs))
        results, metas, batch_meta = run_batch(batch)
        assert batch_meta["vectorized_cells"] == 1
        assert batch_meta["kernel_backend"] == _BACKEND
        assert [m.get("lane_width") for m in metas] == [1, None, None]
        assert results == [run_cell(spec) for spec in specs]
        log = str(tmp_path / "telemetry.jsonl")
        assert run_cells(specs, jobs=1, result_cache=nocache,
                         telemetry=log) == results
        (finish,) = [e for e in read_events(log)
                     if e["event"] == "batch_finish"]
        assert finish["kernel_backend"] == _BACKEND
        assert finish["vectorized_cells"] == 1

    def test_profile_batch_names_backend(self):
        batch = CellBatch("b0", "general", tuple(_general_specs(n=2)))
        _results, report = profile_batch(batch)
        assert report.startswith(
            f"lane kernel: width {DEFAULT_LANES}, 2 vectorized / 0 "
            f"scalar-fallback cells, backend {_BACKEND}\n")

    def test_mixed_eligibility_batch(self, monkeypatch):
        # (2, 2) is not a power of two and the policy scheme never
        # lowers: both fall back to the scalar path inside the lane
        # batch, and every result matches its per-cell run.
        specs = _general_specs(n=3) + _fallback_specs()
        batch = CellBatch("b0", "general", tuple(specs))
        results, metas, batch_meta = run_batch(batch)
        assert batch_meta["lane_width"] == DEFAULT_LANES
        assert batch_meta["vectorized_cells"] == 3
        assert batch_meta["scalar_fallback_cells"] == 2
        # Per-cell meta records the actual chunk size for laned members
        # and no lane field for fallbacks.
        assert [m.get("lane_width") for m in metas] == [3, 3, 3, None, None]
        assert results == [run_cell(spec) for spec in specs]

    def test_check_env_bypasses_lane_planning(self, nocache, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "256")
        specs = _general_specs(n=3)
        checked = run_cells(specs, jobs=1, result_cache=nocache)
        stats = last_run_stats()
        assert stats["batches"] == 0
        assert stats["vectorized_cells"] == 0
        assert stats["checks_run"] > 0
        monkeypatch.delenv("REPRO_CHECK")
        assert checked == run_cells(specs, jobs=1, result_cache=nocache)

    def test_run_batch_checked_guard_skips_lanes(self, monkeypatch):
        # Belt-and-braces: even a batch dispatched under REPRO_CHECK
        # (the parent normally never plans one) runs per-cell.
        monkeypatch.setenv("REPRO_CHECK", "256")
        batch = CellBatch("b0", "general", tuple(_general_specs(n=2)))
        _results, metas, batch_meta = run_batch(batch)
        assert "lane_width" not in batch_meta
        assert all("lane_width" not in m for m in metas)
        assert batch_meta.get("checks_run", 0) > 0


class TestLaneBatchFaults:
    def test_hung_lane_batch_times_out_splits_and_retries_per_cell(
            self, nocache, state_dir, tmp_path):
        specs = _general_specs(n=3)
        specs.append(HangingLaneMember(specs[0], state_dir))
        log = str(tmp_path / "telemetry.jsonl")
        results = run_cells(specs, jobs=2, timeout=1.0, retries=2,
                            result_cache=nocache, telemetry=log)
        # The lane batch hung on the duck-typed member; after the
        # timeout the batch split and every cell — laned members
        # included — completed through the per-cell machinery.
        assert results[:3] == [run_cell(spec) for spec in specs[:3]]
        assert results[3] == ("ok", "sleeper")
        stats = last_run_stats()
        assert stats["timeouts"] >= 1
        assert stats["pool_restarts"] >= 1
        events = read_events(log)
        timeout_events = [e for e in events if e["event"] == "batch_timeout"]
        assert timeout_events and 3 in timeout_events[0]["cells"]
        assert any(e["event"] == "batch_split" for e in events)
        # Marker files prove the hang fired inside the batch attempt
        # and the per-cell retry ran it once more.
        markers = [n for n in os.listdir(state_dir)
                   if n.startswith("sleeper.")]
        assert len(markers) == 2
