"""Runner smoke benchmark: columnar-engine speedups, result-cache warm
re-runs, and cache/jobs invariance.

Two generations of baselines, both measured on the reference container
(one CPU core, Python 3.11):

* the seed revision: 0.322 s per 100k-ref cell, 6.31 s for the 20k-ref
  Figure 10 sweep;
* the first runner optimisation pass (the committed ``BENCH_runner.json``
  before the columnar engine landed): 0.1408 s per cell, 2.9759 s for
  the sweep.

The bars below are the acceptance criteria for the columnar trace
engine, the content-addressed result cache, and the lane kernel:

* a **cold** Figure 10 sweep at ``jobs=1`` (result cache bypassed) must
  be >= 1.5x faster than the previous committed baseline,
* the **lane** sweep (the default path: one trace decode and one
  vectorized random-fill draw row per benchmark group, eligible cells
  of a batch advancing together through the lane kernel) must be >= 7x
  faster than the same sweep with ``--no-batch`` (every cell on the
  per-cell fused kernel), and bit-identical to it,
* a **warm** identical re-run must be >= 10x faster than cold, served
  entirely from the result cache,
* results are bit-identical cold vs. warm (cache off vs. on) and
  ``jobs=1`` vs. ``jobs=N``,
* checked mode (``REPRO_CHECK``) must keep bypassing lane planning
  (every checked cell takes the per-cell oracle path) and its on-mode
  slowdown must stay under a soft ceiling,
* bulk trace synthesis (:mod:`repro.workloads.bulk`) of the 8 Figure 10
  traces at 100k refs must be bit-identical to the generators' Python
  loops and >= 10x faster,
* neither ``single_cell_s`` nor ``fig10_20k_sweep_s`` may regress more
  than 30% against the committed baseline (the CI perf smoke gate).

All gated timings are **process CPU time** (``time.process_time``),
min-of-N: the reference container shares its single core with bursty
background load, which inflates wall clock by 30%+ but leaves CPU time
within a few percent.  The baselines were wall-clock minima on an idle
core, which is the same quantity.

Timings land in ``BENCH_runner.json`` at the repository root alongside
the per-sweep entries the ``python -m repro sweep`` CLI records.
"""

import contextlib
import os
import random
import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from _reporting import save_report

from repro import check as check_mod

from repro.experiments.perf_general import figure10
from repro.runner import CellSpec, record_bench, resolve_jobs, run_cell
from repro.runner.pool import last_run_stats, run_context
from repro.runner.result_cache import RESULT_CACHE
from repro.util.tables import format_table
from repro.workloads import synthetic
from repro.workloads.cache import cached_workload
from repro.workloads.spec import make_workload

SEED_SINGLE_CELL_S = 0.322   # seed revision, reference container
SEED_FIG10_20K_S = 6.31      # seed revision, reference container

BASE_SINGLE_CELL_S = 0.1408  # committed baseline before the columnar engine
BASE_FIG10_20K_S = 2.9759    # committed baseline before the columnar engine

#: CI perf smoke gate: fail on more than this regression vs. the baseline
MAX_REGRESSION = 1.30

#: soft ceiling on the checked-mode slowdown (checked cell / plain
#: cell).  Measured 3.1-3.3x across PRs 5-8 with min-of-5 sampling; a
#: reading above this means checked mode itself regressed, not noise.
#: (The 4.72x once committed for PR 6 was a min-of-2 artifact on a
#: shared core — the underlying ratio had not moved.)
MAX_CHECK_OVERHEAD_X = 4.5

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runner.json"

FIG10_BENCHMARKS = ("astar", "bzip2", "h264ref", "sjeng",
                    "milc", "hmmer", "lbm", "libquantum")


def _timed(fn):
    started = time.process_time()
    fn()
    return time.process_time() - started


class _LoopRandom(random.Random):
    """The stdlib stream under another type, which the bulk path
    declines: the generators run their Python loops."""


def _synthesize_fig10():
    return [make_workload(benchmark, n_refs=100_000, seed=5)
            for benchmark in FIG10_BENCHMARKS]


def _synthesis():
    """Min-of-3 CPU seconds of the 8 traces on the default (bulk) path
    and on the Python loops, and whether both built the same traces.
    ``make_workload`` bypasses the trace cache."""
    def timed(context):
        best = traces = None
        for _ in range(3):
            with context():
                started = time.process_time()
                traces = _synthesize_fig10()
                elapsed = time.process_time() - started
            best = elapsed if best is None else min(best, elapsed)
        return best, traces

    bulk_s, bulk_traces = timed(contextlib.nullcontext)
    loop_s, loop_traces = timed(lambda: mock.patch.object(
        synthetic, "random", SimpleNamespace(Random=_LoopRandom)))
    return bulk_s, loop_s, bulk_traces == loop_traces


def _points_key(points):
    return [(p.benchmark, p.window, p.result, p.normalized_ipc)
            for p in points]


def run():
    synth_s, synth_python_s, synth_matches = _synthesis()

    # Warm the trace cache first so the timings below measure
    # simulation, not trace synthesis (the baselines were measured the
    # same way).
    for benchmark in FIG10_BENCHMARKS:
        cached_workload(benchmark, n_refs=20_000, seed=5)
    cached_workload("bzip2", n_refs=100_000, seed=5)

    spec = CellSpec(kind="general", benchmark="bzip2", window=(4, 3),
                    n_refs=100_000, seed=5)
    single_s = min(_timed(lambda: run_cell(spec)) for _ in range(5))

    # Cold sweeps: result cache bypassed so every cell simulates.  The
    # default path batches compatible cells and advances them as lanes
    # of the lane kernel; the per-cell path is timed with batching off.
    cold_s, sequential = None, None
    percell_s, percell_points = None, None
    with RESULT_CACHE.disabled():
        for _ in range(3):
            started = time.process_time()
            points = figure10(n_refs=20_000, seed=5, jobs=1)
            elapsed = time.process_time() - started
            if cold_s is None or elapsed < cold_s:
                cold_s, sequential = elapsed, points
        batch_stats = last_run_stats()

        with run_context(batch=False):
            for _ in range(3):
                started = time.process_time()
                points = figure10(n_refs=20_000, seed=5, jobs=1)
                elapsed = time.process_time() - started
                if percell_s is None or elapsed < percell_s:
                    percell_s, percell_points = elapsed, points

        jobs = resolve_jobs(None)
        parallel = figure10(n_refs=20_000, seed=5, jobs=jobs)
        pool_stats = last_run_stats()
    jobs_match = _points_key(sequential) == _points_key(parallel)
    lanes_match = _points_key(sequential) == _points_key(percell_points)

    # Warm re-run: fill a fresh result cache, then time the identical
    # sweep served entirely from it.
    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-results-")
    saved_dir = RESULT_CACHE.disk_dir
    try:
        RESULT_CACHE.disk_dir = tmp_dir
        filled = figure10(n_refs=20_000, seed=5, jobs=1)
        started = time.process_time()
        warm = figure10(n_refs=20_000, seed=5, jobs=1)
        warm_s = max(time.process_time() - started, 1e-4)
        warm_stats = last_run_stats()
    finally:
        RESULT_CACHE.disk_dir = saved_dir
        shutil.rmtree(tmp_dir, ignore_errors=True)
    cache_match = (_points_key(sequential) == _points_key(filled)
                   == _points_key(warm))

    # Checked-mode accounting, after every gated timing above so the
    # slow differential runs cannot perturb them.  Off-mode overhead is
    # exactly one ``active_checker()`` lookup per ``TimingModel.run``
    # dispatch, so measure that lookup directly and scale it by a
    # generous per-cell dispatch allowance — a differential
    # cell-vs-cell timing would drown the nanoseconds in scheduler
    # noise.
    lookups = 50_000

    def _hook_calls():
        lookup = check_mod.active_checker
        for _ in range(lookups):
            lookup()

    hook_s = min(_timed(_hook_calls) for _ in range(3))
    hook_frac = (hook_s / lookups) * 50 / single_s

    # The on-mode ratio is gated against a soft ceiling, so sample it
    # with the same min-of-5 discipline as ``single_s`` — a min-of-2
    # here once recorded a phantom 4.72x drift on a shared core.
    unchecked_result = run_cell(spec)
    os.environ[check_mod.ENV_VAR] = "1"
    try:
        checked_result = run_cell(spec)
        checked_s = min(_timed(lambda: run_cell(spec)) for _ in range(5))
    finally:
        del os.environ[check_mod.ENV_VAR]
    checked_matches = checked_result == unchecked_result

    # Checked mode must bypass lane planning: a grid that lane-batches
    # by default runs per-cell under REPRO_CHECK, with the oracle
    # active and bit-identical results.
    os.environ[check_mod.ENV_VAR] = "1"
    try:
        with RESULT_CACHE.disabled():
            checked_points = figure10(n_refs=2_000, seed=5, jobs=1)
            checked_sweep_stats = last_run_stats()
    finally:
        del os.environ[check_mod.ENV_VAR]
    with RESULT_CACHE.disabled():
        lane_points = figure10(n_refs=2_000, seed=5, jobs=1)
        lane_sweep_stats = last_run_stats()
    checked_bypasses_lanes = (
        checked_sweep_stats.get("vectorized_cells", 0) == 0
        and checked_sweep_stats.get("batched_cells", 0) == 0
        and checked_sweep_stats.get("checks_run", 0) > 0
        and lane_sweep_stats.get("vectorized_cells", 0) == len(lane_points)
        and _points_key(checked_points) == _points_key(lane_points))

    payload = {
        "single_cell_s": round(single_s, 4),
        "single_cell_seed_s": SEED_SINGLE_CELL_S,
        "single_cell_base_s": BASE_SINGLE_CELL_S,
        "single_cell_speedup_vs_seed": round(SEED_SINGLE_CELL_S / single_s, 2),
        "single_cell_speedup_vs_base": round(BASE_SINGLE_CELL_S / single_s, 2),
        "single_cell_checked_s": round(checked_s, 4),
        "check_overhead_on_x": round(checked_s / single_s, 2),
        "check_overhead_ceiling_x": MAX_CHECK_OVERHEAD_X,
        "check_hook_off_frac": round(hook_frac, 5),
        "checked_matches_unchecked": checked_matches,
        "checked_bypasses_lanes": checked_bypasses_lanes,
        "fig10_20k_sweep_s": round(cold_s, 4),
        "fig10_20k_seed_s": SEED_FIG10_20K_S,
        "fig10_20k_base_s": BASE_FIG10_20K_S,
        "fig10_20k_speedup_vs_seed": round(SEED_FIG10_20K_S / cold_s, 2),
        "fig10_20k_speedup_vs_base": round(BASE_FIG10_20K_S / cold_s, 2),
        "fig10_lanes_s": round(cold_s, 4),
        "fig10_percell_s": round(percell_s, 4),
        "lanes_speedup_vs_percell": round(percell_s / cold_s, 2),
        "lanes_match_percell": lanes_match,
        "batches": batch_stats.get("batches", 0),
        "batched_cells": batch_stats.get("batched_cells", 0),
        "decode_reuse_hits": batch_stats.get("decode_reuse_hits", 0),
        "lane_width": batch_stats.get("lane_width", 0),
        "vectorized_cells": batch_stats.get("vectorized_cells", 0),
        "scalar_fallback_cells": batch_stats.get("scalar_fallback_cells", 0),
        "fig10_20k_warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 1),
        "warm_cache_hits": warm_stats.get("result_cache_hits", 0),
        "cells": len(sequential),
        "cells_per_sec": round(len(sequential) / cold_s, 2),
        "parallel_jobs": jobs,
        "parallel_matches_sequential": jobs_match,
        "cached_matches_uncached": cache_match,
        "supervision_retries": (pool_stats.get("retries", 0)
                                + warm_stats.get("retries", 0)),
        "supervision_pool_restarts": (pool_stats.get("pool_restarts", 0)
                                      + warm_stats.get("pool_restarts", 0)),
        "latency_p95_s": pool_stats.get("latency_p95_s", 0.0),
        "trace_synth_s": round(synth_s, 4),
        "trace_synth_python_s": round(synth_python_s, 4),
        "synth_speedup_vs_python": round(synth_python_s / synth_s, 1),
        "synth_matches_python": synth_matches,
    }
    record_bench("runner_smoke", payload, path=str(REPORT_PATH))
    return payload


def test_runner_speedups(benchmark):
    payload = benchmark.pedantic(run, rounds=1, iterations=1)

    # Invariance: same bits for any job count and with the cache on/off.
    assert payload["parallel_matches_sequential"]
    assert payload["cached_matches_uncached"]
    assert payload["warm_cache_hits"] == payload["cells"]

    # Columnar engine: cold sweep beats the committed baseline by 1.5x.
    assert payload["fig10_20k_speedup_vs_base"] >= 1.5

    # Lane kernel: the default path (shared decode + warm replay +
    # vectorized random-fill draws per benchmark group, every eligible
    # cell of a batch advanced through the lane kernel) is bit-identical
    # to the per-cell path and >= 7x faster on the cold Figure 10 sweep.
    assert payload["lanes_match_percell"]
    assert payload["lanes_speedup_vs_percell"] >= 7
    assert payload["batches"] >= 1
    assert payload["vectorized_cells"] == payload["cells"]
    assert payload["scalar_fallback_cells"] == 0

    # Result cache: identical re-run is served from disk, >= 10x faster.
    assert payload["warm_speedup"] >= 10

    # CI perf smoke gate: no >30% regression against the baseline.  The
    # cold sweep now runs through the supervision layer, so this bar is
    # also the acceptance test that supervision overhead stays small.
    assert payload["single_cell_s"] <= BASE_SINGLE_CELL_S * MAX_REGRESSION
    assert payload["fig10_20k_sweep_s"] <= BASE_FIG10_20K_S * MAX_REGRESSION

    # A healthy benchmark run must never trip the supervisor.
    assert payload["supervision_retries"] == 0
    assert payload["supervision_pool_restarts"] == 0

    # Checked simulation mode: with REPRO_CHECK unset the dispatch hook
    # must cost under 2% of a cell; with it set the differential oracle
    # must reproduce the unchecked result bit-for-bit, stay under the
    # soft slowdown ceiling (it is a debugging mode, but a drift past
    # the ceiling means checked mode itself regressed), and bypass lane
    # planning entirely.
    assert payload["check_hook_off_frac"] <= 0.02
    assert payload["checked_matches_unchecked"]
    assert payload["check_overhead_on_x"] <= MAX_CHECK_OVERHEAD_X
    assert payload["checked_bypasses_lanes"]

    # Bulk trace synthesis: the 8 Figure 10 traces at 100k refs are
    # bit-identical to the generators' Python loops and >= 10x faster.
    assert payload["synth_matches_python"]
    assert payload["synth_speedup_vs_python"] >= 10

    rows = [(name, str(payload[name])) for name in sorted(payload)]
    save_report("runner_smoke",
                format_table(("metric", "value"), rows,
                             title="Runner smoke benchmark"))
