"""The benchmark's workloads: inputs from a seed, the measured loops,
and the checks on every output.

Every workload is a closed loop with one client and ``jobs=1``: the
next sweep starts only after the previous one has returned.  A sweep
is one ``run_cells`` call (in-process workloads) or one submit, wait
and fetch of a grid over HTTP (``service_mix``).

Timing is host wall time.  On a shared host, other tenants can slow the
cores by up to 1.7x for stretches of a fraction of a second to minutes,
so figures from runs minutes apart can differ by 10-25% with no change
to the program.

Importing this module needs the environment that ``run.py`` sets up
first: the trace and result caches read their directories from it at
import time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.runner.pool as pool
from repro.check import checked
from repro.cpu.lanes import native_available
from repro.experiments.perf_crypto import cached_cbc_trace
from repro.experiments.perf_general import FIGURE10_ORDER, figure10_specs
from repro.leakage.report import validate_results
from repro.leakage.sweep import leakage_grid
from repro.runner.cells import CellSpec, run_cell
from repro.runner.result_cache import RESULT_CACHE
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.codec import encode_result
from repro.workloads.cache import TRACE_CACHE, cached_workload

#: fig10_cold: trace length and trace seeds per run (352 cells a pass)
FIG10_N_REFS = 100_000
FIG10_TRACE_SEEDS = 4

#: timing_scalar: one benchmark's row of cells as (scheme, window).
#: Every timing scheme the lane kernel does not run, a non-power-of-two
#: random fill window (fused path) and the row's one lane-eligible cell
#: (flat scalar kernel, as it has no lane partner).
SCALAR_ROW = (("newcache", None), ("random_fill_newcache", (4, 3)),
              ("plcache_preload", None), ("tagged_prefetch", None),
              ("skewed_random", None), ("chameleon", None),
              ("random_fill", (2, 2)), ("random_fill", (8, 7)))
#: timing_scalar: AES cells, one sweep each: the protected-region
#: defences plus random fill and the baseline
CRYPTO_CELLS = (("plcache_preload", None), ("disable_cache", None),
                ("random_and_safe", None), ("random_fill", (16, 15)), ("baseline", None))
SCALAR_N_REFS = 20_000
CRYPTO_MESSAGE_KB = 4

#: service_mix: one benchmark's Figure 10 row per sweep
SERVICE_N_REFS = 20_000
#: service_mix runs at least this many cold and this many warm sweeps,
#: so each kind's p90 has ten samples beyond it
SERVICE_MIN_SWEEPS = 100
#: client poll interval while a sweep runs; it bounds the latency
#: resolution of service_mix
POLL_S = 0.002
SWEEP_TIMEOUT_S = 60.0
#: a measured loop stops here even below its minimum sweep count
HARD_CAP_S = 100.0


def trace_seed(seed: int, index: int) -> int:
    """The ``index``-th trace seed a run with ``seed`` uses."""
    return seed * 100_003 + index


def sweep_digest(results) -> str:
    """Digest of every field of every result of a sweep, in order.

    Results are hashed in their service-codec encoding (every
    ``SimResult`` field; a leakage result's ``to_json()``), so results
    fetched over HTTP and computed in-process hash alike.
    """
    digest = hashlib.sha256()
    for result in results:
        encoded = result if isinstance(result, dict) else encode_result(result)
        digest.update(json.dumps(encoded, sort_keys=True).encode())
    return digest.hexdigest()


@dataclass
class Sweep:
    """One measured sweep: which grid, how long, what came back."""

    grid: int
    cells: int
    latency_s: float
    results: Optional[list]
    stats: dict
    error: Optional[str] = None
    status: dict = field(default_factory=dict)
    warm: bool = False  # a resubmitted grid, expected to be served from the result cache


@dataclass
class Outcome:
    """What a workload's measured loop and checks produced."""

    sweeps: List[Sweep]
    wall_s: float
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    sim_instructions: int = 0

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.failures.append(reason)

    def absorb(self, other: "Outcome", label: str) -> None:
        """Count ``other``'s checks and failures as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(f"{label}: {failure}" for failure in other.failures)


def sweep_span(tracer, count: int):
    """A span around one sweep, tagged with the sweep's number in the run."""
    return nullcontext() if tracer is None else tracer.span("bench.sweep", f"sweep{count}")


def closed_loop(run_one: Callable[[int], Sweep], seconds: float, min_count: int,
                tracer=None) -> Outcome:
    """Run sweeps ``0, 1, ...`` until ``seconds`` passed and ``min_count`` ran."""
    sweeps: List[Sweep] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if (len(sweeps) >= min_count and elapsed >= seconds) or elapsed >= HARD_CAP_S:
            break
        with sweep_span(tracer, len(sweeps)):
            sweeps.append(run_one(len(sweeps)))
    outcome = Outcome(sweeps, time.perf_counter() - started)
    if len(sweeps) < min_count:
        outcome.fail(min_count - len(sweeps), f"only {len(sweeps)} of {min_count} sweeps ran")
    return outcome


# -- in-process workloads ------------------------------------------------------


def fig10_grids(seed: int) -> List[list]:
    """Figure 10 (8 benchmarks x 11 windows, random_fill) on 4 trace
    seeds, one benchmark row per sweep."""
    return [figure10_specs(benchmarks=(benchmark,), n_refs=FIG10_N_REFS,
                           seed=trace_seed(seed, k))
            for k in range(FIG10_TRACE_SEEDS) for benchmark in FIGURE10_ORDER]


def timing_scalar_grids(seed: int) -> List[list]:
    """69 cells no lane kernel runs: each benchmark's :data:`SCALAR_ROW`,
    then one sweep per AES cell."""
    ts = trace_seed(seed, 0)
    grids = [[CellSpec(kind="general", scheme=scheme, benchmark=benchmark, window=window,
                       n_refs=SCALAR_N_REFS, seed=ts) for scheme, window in SCALAR_ROW]
             for benchmark in FIGURE10_ORDER]
    grids.extend([CellSpec(kind="crypto", scheme=scheme, window=window,
                           message_kb=CRYPTO_MESSAGE_KB, seed=ts)]
                 for scheme, window in CRYPTO_CELLS)
    return grids


def leakage_grids(seed: int) -> List[list]:
    """The default leakage grid (39 cells), one sweep per channel and
    scheme (the runner's batch key)."""
    grids: Dict[tuple, list] = {}
    for spec in leakage_grid(seeds=(trace_seed(seed, 0),)):
        grids.setdefault((spec.channel, spec.scheme), []).append(spec)
    return list(grids.values())


def warm_inputs(grids: List[list]) -> None:
    """Load (or synthesize) every trace the grids read, and the kernel."""
    for specs in grids:
        for spec in specs:
            if not isinstance(spec, CellSpec):
                continue
            if spec.kind == "crypto":
                cached_cbc_trace(message_kb=spec.message_kb, seed=spec.seed)
            else:
                cached_workload(spec.benchmark, n_refs=spec.n_refs, seed=spec.seed)
    native_available()


def run_sweeps(grids: List[list], seconds: float, min_count: int, tracer=None) -> Outcome:
    """Closed loop over ``grids`` (result cache bypassed, ``jobs=1``)."""

    def run_one(count: int) -> Sweep:
        grid = count % len(grids)
        started = time.perf_counter()
        try:
            results, error = pool.run_cells(grids[grid], jobs=1), None
        except Exception as exc:  # counted as a failed sweep
            results, error = None, repr(exc)
        latency = time.perf_counter() - started
        return Sweep(grid, len(grids[grid]), latency, results,
                     dict(pool.last_run_stats()), error)

    with RESULT_CACHE.disabled():
        return closed_loop(run_one, seconds, min_count, tracer)


def check_sweeps(outcome: Outcome, grid_count: int) -> None:
    """Per-sweep checks shared by every workload.

    A sweep fails when it raised, when a cold sweep read anything from
    the result cache (or a warm one recomputed anything), or when it
    returned other results than the first sweep of the same grid.  The
    run's digest covers grids ``0 .. grid_count - 1``.
    """
    first: Dict[int, str] = {}
    for sweep in outcome.sweeps:
        outcome.attempted += 1
        if sweep.results is None:
            outcome.fail(1, f"grid {sweep.grid}: {sweep.error}")
            continue
        hits = sweep.stats.get("result_cache_hits", 0)
        if not sweep.warm:
            outcome.sim_instructions += sum(map(instructions, sweep.results))
            if hits:
                outcome.fail(1, f"grid {sweep.grid}: cold sweep read {hits} cached results")
                continue
        elif hits != sweep.cells:
            outcome.fail(1, f"grid {sweep.grid}: warm sweep read only {hits} cached results")
            continue
        digest = sweep_digest(sweep.results)
        if first.setdefault(sweep.grid, digest) != digest:
            outcome.fail(1, f"grid {sweep.grid}: results differ from its first sweep")
    if all(grid in first for grid in range(grid_count)):
        outcome.digest = hashlib.sha256(
            "".join(first[grid] for grid in range(grid_count)).encode()).hexdigest()


def instructions(result) -> int:
    """Simulated instructions of a timing result (0 for leakage results),
    in-process or as the service codec encodes it."""
    if isinstance(result, dict):
        return result.get("instructions", 0)
    return getattr(result, "instructions", 0)


def first_results(outcome: Outcome, grid_count: int) -> List[Optional[list]]:
    """Each grid's results from its first successful sweep."""
    results: List[Optional[list]] = [None] * grid_count
    for sweep in outcome.sweeps:
        if sweep.results is not None and results[sweep.grid] is None:
            results[sweep.grid] = sweep.results
    return results


def cross_check_cells(outcome: Outcome, grids: List[list], picks, oracle: bool) -> None:
    """Rerun sampled cells one by one on the per-cell path and compare.

    ``oracle`` runs them under checked mode, where the reference model
    steps in lockstep with the simulator.
    """
    measured = first_results(outcome, len(grids))
    for grid, index in picks:
        if measured[grid] is None:
            continue
        outcome.attempted += 1
        spec = grids[grid][index]
        try:
            with checked() if oracle else nullcontext():
                expected = run_cell(spec)
        except Exception as exc:  # a check violation is a failed check
            outcome.fail(1, f"cross-check {spec!r}: {exc!r}")
            continue
        if expected != measured[grid][index]:
            outcome.fail(1, f"cross-check {spec!r}: batched result differs from per-cell run")


def check_fig10(outcome: Outcome, grids: List[list], seed: int) -> None:
    """Every window (lane) once per run, each on a seed-chosen row."""
    picks = [((seed + 3 * window) % len(grids), window) for window in range(len(grids[0]))]
    cross_check_cells(outcome, grids, picks, oracle=False)


def check_timing_scalar(outcome: Outcome, grids: List[list], seed: int) -> None:
    """Every column of :data:`SCALAR_ROW` once per run, each on another benchmark."""
    picks = [(row, (seed + row) % len(SCALAR_ROW)) for row in range(len(FIGURE10_ORDER))]
    cross_check_cells(outcome, grids, picks, oracle=True)


def check_leakage(outcome: Outcome, grids: List[list], seed: int) -> None:
    measured = first_results(outcome, len(grids))
    if any(results is None for results in measured):
        return
    report = validate_results([result for results in measured for result in results])
    outcome.attempted += report["passed"] + report["failed"]
    for check in report["checks"]:
        if not check["ok"]:
            outcome.fail(1, f"leakage check {check['check']}: {check['detail']}")


@dataclass(frozen=True)
class InProcess:
    grids: Callable[[int], List[list]]
    check: Callable[[Outcome, List[list], int], None]


IN_PROCESS = {
    "fig10_cold": InProcess(fig10_grids, check_fig10),
    "timing_scalar": InProcess(timing_scalar_grids, check_timing_scalar),
    "leakage_default": InProcess(leakage_grids, check_leakage),
}


# -- service workloads ---------------------------------------------------------


def service_grid(seed: int, index: int) -> list:
    """One benchmark's Figure 10 row on the ``index``-th trace seed."""
    benchmark = FIGURE10_ORDER[index % len(FIGURE10_ORDER)]
    return figure10_specs(benchmarks=(benchmark,), n_refs=SERVICE_N_REFS,
                          seed=trace_seed(seed, index))


class Server:
    """``python -m repro serve --jobs 1`` as a child process."""

    def __init__(self, root: str, work: str, spans_path: Optional[str] = None):
        self.root = root
        self.work = work
        self.spans_path = spans_path
        self.port_file = os.path.join(work, "server.port")
        self.spool = os.path.join(work, "spool")
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> ServiceClient:
        shutil.rmtree(self.spool, ignore_errors=True)
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        launcher = (["-m", "repro"] if self.spans_path is None else
                    [os.path.join(self.root, "perfbench", "traced_server.py"), self.spans_path])
        argv = [sys.executable, *launcher, "serve", "--port", "0", "--jobs", "1",
                "--spool", self.spool, "--port-file", self.port_file, "--no-recover",
                # one closed-loop client never nears these; a refusal is a failure
                "--rate", "1000", "--burst", "1000"]
        with open(os.path.join(self.work, "server.log"), "ab") as log:
            self.proc = subprocess.Popen(argv, cwd=self.root, stdout=log, stderr=log)
        deadline = time.monotonic() + 60
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("sweep service did not start; see server.log")
            time.sleep(0.005)
        with open(self.port_file) as fh:
            port = int(fh.read().strip())
        self.client = ServiceClient("127.0.0.1", port, client_id="perfbench",
                                    timeout=SWEEP_TIMEOUT_S, retries=0)
        self.client.healthz()
        return self.client

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not exit in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def submit_and_fetch(client: ServiceClient, specs: list):
    """One sweep: submit, wait, fetch results -> (results, status, error)."""
    try:
        accepted = client.submit(specs)
        status = client.wait(accepted["id"], timeout=SWEEP_TIMEOUT_S, poll_s=POLL_S)
        if status["state"] != "done":
            return None, status, f"sweep {status['state']}: {status.get('error')}"
        return client.results(accepted["id"]), status, None
    except (ServiceClientError, TimeoutError, OSError, ValueError, KeyError) as exc:
        return None, {}, repr(exc)


def service_loop(client: ServiceClient, grid_for: Callable[[int], list], seconds: float,
                 min_count: int, start: int = 0, tracer=None) -> Outcome:
    """Closed loop alternating a cold sweep of grid ``start + k`` (a new
    trace seed) and a warm resubmit of the same grid."""

    def run_one(count: int) -> Sweep:
        grid = start + count // 2
        specs = grid_for(grid)
        started = time.perf_counter()
        results, status, error = submit_and_fetch(client, specs)
        latency = time.perf_counter() - started
        return Sweep(grid, len(specs), latency, results, status.get("last_run_stats") or {},
                     error, status, warm=bool(count % 2))

    return closed_loop(run_one, seconds, min_count, tracer)


def check_service(outcome: Outcome, grid_for: Callable[[int], list]) -> None:
    """Service results must equal an in-process ``run_cells`` of the same grid.

    The reference runs with the result cache bypassed, so it recomputes
    every cell instead of reading back what the server stored.
    """
    check_sweeps(outcome, SERVICE_MIN_SWEEPS)
    references: Dict[int, str] = {}
    with RESULT_CACHE.disabled():
        for sweep in outcome.sweeps:
            if sweep.results is None:
                continue
            if sweep.grid not in references:
                references[sweep.grid] = sweep_digest(pool.run_cells(grid_for(sweep.grid), jobs=1))
            outcome.attempted += 1
            if sweep_digest(sweep.results) != references[sweep.grid]:
                outcome.fail(1, f"grid {sweep.grid}: service results differ from run_cells")


# -- figures -------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def figures(outcome: Outcome, pass_len: int) -> Dict[str, object]:
    """Throughput as the median over complete passes (``pass_len``
    consecutive sweeps, every one successful) of the pass's cells over
    its sweeps' wall time; and per sweep kind (cold or warm) the median
    and p90 of the successful sweeps' wall times with their count."""
    sweeps = outcome.sweeps
    rates = []
    for start in range(0, len(sweeps) - pass_len + 1, pass_len):
        one_pass = sweeps[start:start + pass_len]
        if all(s.results is not None for s in one_pass):
            rates.append(sum(s.cells for s in one_pass) / sum(s.latency_s for s in one_pass))
    latency = {}
    for kind, warm in (("cold", False), ("warm", True)):
        times = [s.latency_s for s in sweeps if s.results is not None and s.warm == warm]
        if times:
            latency[kind] = {"count": len(times), "p50_s": statistics.median(times),
                             "p90_s": percentile(times, 0.9)}
    return {"cells_per_s": statistics.median(rates) if rates else 0.0, "passes": len(rates),
            "latency": latency}


def backend_label(outcome: Outcome) -> Dict[str, int]:
    return {
        "native": int(native_available()),
        "vectorized_cells": sum(s.stats.get("vectorized_cells", 0) for s in outcome.sweeps),
        "scalar_fallback_cells": sum(s.stats.get("scalar_fallback_cells", 0)
                                     for s in outcome.sweeps),
    }


def trace_cache_stats() -> Dict[str, int]:
    memory, disk, misses = TRACE_CACHE.stats()
    return {"workloads.trace_cache_hits": memory + disk, "workloads.trace_cache_misses": misses}
