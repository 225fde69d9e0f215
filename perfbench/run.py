"""The repository's benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig10_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload untraced for half the time, then runs
the same sweeps again with the layer functions wrapped
(``layers.py``), and reports per-layer metrics plus the tracing
overhead.  Spans, a per-layer self-time table and a record of the run
land in ``.perfbench_work/out``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

Every cache the simulator keeps (traces, results, the compiled lane
kernel) lives under ``.perfbench_work``; traces and results are emptied
at the start of each run, and ``REPRO_*`` settings from the caller's
environment are dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = WORK / "out"

WORKLOADS = ("fig10_cold", "timing_scalar", "leakage_default", "service_mix")
#: set-up is repeated this many times per run; setup_s is the median
SETUP_REPS = 3


def isolate_environment() -> None:
    """Point every cache at ``.perfbench_work`` and drop caller knobs."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for name in ("traces", "results", "tmp", "service"):
        shutil.rmtree(WORK / name, ignore_errors=True)
    for name in ("traces", "results", "tmp", "service", "lanes", "out"):
        (WORK / name).mkdir(parents=True, exist_ok=True)
    os.environ.update(
        REPRO_TRACE_CACHE=str(WORK / "traces"),
        REPRO_RESULT_CACHE=str(WORK / "results"),
        REPRO_LANES_CACHE=str(WORK / "lanes"),
        TMPDIR=str(WORK / "tmp"),
    )
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def reset_caches() -> None:
    """Empty the on-disk trace and result caches."""
    for name in ("traces", "results"):
        shutil.rmtree(WORK / name, ignore_errors=True)
        (WORK / name).mkdir()


def timed_setups(setup_once, before=reset_caches) -> list:
    """Wall times of :data:`SETUP_REPS` set-ups, each after an untimed ``before()``."""
    times = []
    for _ in range(SETUP_REPS):
        before()
        started = time.perf_counter()
        setup_once()
        times.append(time.perf_counter() - started)
    return times


# -- in-process workloads ------------------------------------------------------


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import suite

    workload = suite.IN_PROCESS[name]
    grids = workload.grids(seed)
    record = {}
    if trace:
        suite.warm_inputs(grids)
    else:
        def prepare():
            subprocess.run([sys.executable, str(HERE / "prepare.py"), name, str(seed)],
                           cwd=ROOT, check=True)
        record["setup_times_s"] = timed_setups(prepare)
        suite.warm_inputs(grids)

    outcome = suite.run_sweeps(grids, seconds / 2 if trace else seconds, len(grids))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install_simulator(tracer)
        before = suite.trace_cache_stats()
        try:
            traced = suite.run_sweeps(grids, 0, len(outcome.sweeps), tracer=tracer)
        finally:
            tracer.unwrap()
        for key, value in suite.trace_cache_stats().items():
            tracer.counts[key] += value - before[key]
        suite.check_sweeps(traced, len(grids))
        record["traced"] = traced
        record["tracer"] = tracer

    suite.check_sweeps(outcome, len(grids))
    workload.check(outcome, grids, seed)
    if trace:
        outcome.absorb(traced, "traced")
        if traced.digest != outcome.digest:
            outcome.fail(1, "traced sweeps returned other results than untraced ones")
    return finish(name, seed, trace, outcome, record, len(grids))


# -- service workloads ---------------------------------------------------------


def run_service(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import suite

    work = str(WORK / "service")
    min_count = 2 * suite.SERVICE_MIN_SWEEPS

    def grid_for(grid: int) -> list:
        return suite.service_grid(seed, grid)

    record = {}
    server = suite.Server(str(ROOT), work)
    suite.native_available()  # build the lane kernel before timing set-up

    def stop_and_reset():
        server.stop()
        reset_caches()

    try:
        if trace:
            client = server.start()
        else:
            record["setup_times_s"] = timed_setups(server.start, before=stop_and_reset)
            client = server.client
        outcome = suite.service_loop(client, grid_for, seconds / 2 if trace else seconds,
                                     min_count)
        record["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()

    if trace:
        import layers

        # The result cache's store cost grows with its entry count, so
        # the traced sweeps start from empty caches too, on new grids.
        reset_caches()
        spans_path = str(OUT / f"{name}-seed{seed}.server-spans.json")
        server = suite.Server(str(ROOT), work, spans_path)
        tracer = layers.Tracer()
        try:
            client = server.start()
            journal_before = client.metrics()["journal"]["appends"]
            layers.install_client(tracer)
            try:
                traced = suite.service_loop(client, grid_for, 0, len(outcome.sweeps),
                                            start=len(outcome.sweeps), tracer=tracer)
            finally:
                tracer.unwrap()
            journal_after = client.metrics()["journal"]["appends"]
        finally:
            server.stop()
        counts = tracer.counts
        counts["service.journal_appends"] += journal_after - journal_before
        for sweep in traced.sweeps:
            run_s = sweep.status.get("run_seconds") or 0.0
            counts["service.queue_wait_s"] += sweep.status.get("queue_wait_s") or 0.0
            counts["service.run_s"] += run_s
            counts["service.overhead_s"] += sweep.latency_s - run_s
        with open(spans_path) as fh:
            server_trace = json.load(fh)
        offset = len(tracer.spans)
        for span in server_trace["spans"]:
            tracer.spans.append(span[:3] + [span[3] + offset if span[3] >= 0 else -1, span[4]])
        for key, value in server_trace["counts"].items():
            counts[key] += value
        suite.check_service(traced, grid_for)
        record["traced"] = traced
        record["tracer"] = tracer

    suite.check_service(outcome, grid_for)
    if trace:
        outcome.absorb(record["traced"], "traced")
    return finish(name, seed, trace, outcome, record, 2)


# -- reporting -----------------------------------------------------------------


def check_reference(name: str, seed: int, outcome) -> str:
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)["digests"].get(name, {})
    expected = reference.get(str(seed))
    if expected is None:
        return f"no stored digest for seed {seed}"
    outcome.attempted += 1
    if outcome.digest != expected:
        outcome.fail(1, f"digest {outcome.digest or '(none)'} differs from stored {expected}")
        return "MISMATCH with stored digest"
    return "matches stored digest"


def finish(name: str, seed: int, trace: bool, outcome, record: dict, pass_len: int) -> dict:
    import suite

    reference = check_reference(name, seed, outcome)
    figures = suite.figures(outcome, pass_len)
    backend = suite.backend_label(outcome)
    lines = [f"perfbench {name} seed={seed} trace={int(trace)}: {len(outcome.sweeps)} sweeps "
             f"in {outcome.wall_s:.3f} s"]
    if "setup_times_s" in record:
        lines.append(f"  setup_s          {statistics.median(record['setup_times_s']):.4f} s "
                     f"(median of {SETUP_REPS})")
    lines.append(f"  cells_per_s      {figures['cells_per_s']:.2f} 1/s "
                 f"(median of {figures['passes']} passes)")
    if outcome.sim_instructions:
        lines.append(f"  sim_instr_per_s  {outcome.sim_instructions / outcome.wall_s:.0f} 1/s")
    for kind, latency in figures["latency"].items():
        lines.append(f"  {kind}_sweep_p50_s {latency['p50_s']:.4f} s (n={latency['count']})")
        if latency["count"] >= 100:
            lines.append(f"  {kind}_sweep_p90_s {latency['p90_s']:.4f} s (n={latency['count']})")
    lines.append(f"  peak_rss_mb      {record['peak_rss_mb']:.1f} MB")
    lines.append(f"  failed_frac      {outcome.failed}/{outcome.attempted}")
    lines.append("  backend          " + " ".join(f"{k}={v}" for k, v in backend.items()))
    lines.append(f"  digest           {outcome.digest or '(incomplete)'}: {reference}")
    for failure in outcome.failures[:20]:
        lines.append(f"  FAILED: {failure}")

    if trace:
        import layers

        traced, tracer = record["traced"], record["tracer"]
        table = layers.layer_table(tracer.spans)
        text = layers.format_table(table, traced.wall_s)
        metrics = layers.layer_metrics(table, tracer.counts, traced.wall_s,
                                       traced.wall_s - outcome.wall_s, bool(backend["native"]))
        tracer.dump(str(OUT / f"{name}-seed{seed}.spans.json"))
        (OUT / f"{name}-seed{seed}.layers.txt").write_text(text + "\n")
        lines.append(f"  tracing_overhead_s {metrics['tracing_overhead_s']:.4f} s "
                     f"(traced {traced.wall_s:.4f} s - untraced {outcome.wall_s:.4f} s)")
        lines.append(text)
        units = layers.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(record["setup_times_s"]),
            "cells_per_s": figures["cells_per_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = {"setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}
    print("\n".join(lines))

    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        **result, "backend": backend, "digest": outcome.digest, "figures": figures,
        "failures": outcome.failures, "setup_times_s": record.get("setup_times_s"),
        "sim_instructions": outcome.sim_instructions,
    }, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    isolate_environment()
    run = run_service if args.workload == "service_mix" else run_in_process
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
