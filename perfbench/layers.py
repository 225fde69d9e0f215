"""In-memory span tracing of the simulator's layers, from outside.

A traced run wraps public functions of each layer (trace cache, batch
lowering, the lane kernel, the scalar paths, the leakage estimators,
the runner, the result cache and the service client) with a
:class:`Tracer`.  Each call records a span: name, start, end, parent
span and the id of the sweep it belongs to.  Nothing under ``src/``
changes: the wrappers replace module attributes that the simulator
looks up at call time, and :meth:`Tracer.unwrap` puts them back.

Spans stay in memory until the run ends.  :func:`layer_table` turns
them into per-layer self times (a span's duration minus the time its
child spans cover) and :func:`layer_metrics` into the benchmark's
``per_layer`` metrics.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span recorder plus event counters for one traced pass."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, tag]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _frames(self) -> List[int]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def open(self, name: str, tag: Optional[str] = None) -> int:
        frames = self._frames()
        parent = frames[-1] if frames else -1
        with self._lock:
            if tag is None and parent >= 0:
                tag = self.spans[parent][4]
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tag])
        frames.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._frames().pop()

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        index = self.open(name, tag)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments returning one.  ``after(counts, args, result, error)``
        runs once the call has returned or raised.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self.open(name(args) if callable(name) else name)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.close(index)
                if after is not None:
                    after(self.counts, args, result, error)

        functools.update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# -- the layer boundaries ------------------------------------------------------


def _count(key: str):
    def after(counts, args, result, error):
        if error is None:
            counts[key] += 1

    return after


def _lowered(counts, args, result, error):
    if error is None:
        counts["cpu.lower_calls"] += 1
        counts["cpu.lowered"] += result is not None


def _kernel(counts, args, result, error):
    if error is None:
        group, lowered = args
        counts["cpu.kernel_calls"] += 1
        counts["cpu.lane_cells"] += len(lowered)
        counts["cpu.lane_refs"] += len(lowered) * len(group.lines)


def _run_cells(counts, args, result, error):
    from repro.runner.pool import last_run_stats

    stats = last_run_stats()
    for key, stat in (("runner.cache_hits", "result_cache_hits"),
                      ("runner.cache_misses", "result_cache_misses"),
                      ("runner.retries", "retries"),
                      ("runner.timeouts", "timeouts"),
                      ("backend.vectorized_cells", "vectorized_cells"),
                      ("backend.scalar_fallback_cells", "scalar_fallback_cells")):
        counts[key] += stats.get(stat, 0)


def _http(counts, args, result, error):
    counts["service.http_requests"] += 1
    counts["service.http_errors"] += error is not None


def _cell_span(args) -> str:
    from repro.runner.cells import CellSpec

    return "cpu.scalar" if isinstance(args[0], CellSpec) else "leakage.cell"


def _scalar_cell(counts, args, result, error):
    from repro.runner.cells import CellSpec

    if error is None and isinstance(args[0], CellSpec):
        counts["cpu.scalar_cells"] += 1


def install_simulator(tracer: Tracer) -> None:
    """Wrap the in-process simulator layers (also used by the traced server)."""
    import repro.attacks.flush_reload as flush_reload
    import repro.cpu.batch as cpu_batch
    import repro.experiments.perf_crypto as perf_crypto
    import repro.leakage.occupancy as occupancy
    import repro.leakage.sweep as sweep
    import repro.runner.batch as runner_batch
    import repro.runner.jobs as jobs
    import repro.runner.pool as pool
    import repro.workloads.cache as workload_cache
    from repro.runner.result_cache import RESULT_CACHE

    wrap = tracer.wrap
    wrap(workload_cache, "cached_workload", "workloads.trace_load")
    wrap(perf_crypto, "cached_cbc_trace", "workloads.trace_load")
    wrap(cpu_batch, "group_state_for", "cpu.group_state", _count("cpu.groups"))
    wrap(cpu_batch, "lower_cell", "cpu.lower", _lowered)
    wrap(cpu_batch, "run_lane_cells", "cpu.kernel", _kernel)
    wrap(cpu_batch, "run_lowered_cell", "cpu.scalar", _count("cpu.scalar_cells"))
    wrap(runner_batch, "run_cell", _cell_span, _scalar_cell)
    wrap(pool, "run_cell", _cell_span, _scalar_cell)
    wrap(perf_crypto, "run_crypto_workload", "experiments.crypto")
    wrap(occupancy, "run_occupancy_trials", "leakage.trials.occupancy")
    wrap(flush_reload, "run_flush_reload_trials", "leakage.trials.flush_reload")
    wrap(sweep, "sample_window_channel", "leakage.trials.eq7")
    for estimator in ("mutual_information_bits", "conditional_guessing_entropy",
                      "guessing_entropy", "n_to_success"):
        wrap(sweep, estimator, "leakage.estimator")
    wrap(sweep, "success_rate_curve", "leakage.success_curve")
    wrap(pool, "run_batch", "runner.batch", _count("runner.batches"))
    wrap(pool, "run_cells", "runner.run_cells", _run_cells)
    wrap(jobs, "run_cells", "runner.run_cells", _run_cells)
    wrap(RESULT_CACHE, "lookup_spec", "runner.cache_load")
    wrap(RESULT_CACHE, "store", "runner.cache_store")


def install_client(tracer: Tracer) -> None:
    """Wrap the service client calls the closed loop makes."""
    from repro.service.client import ServiceClient

    tracer.wrap(ServiceClient, "submit", "service.submit")
    tracer.wrap(ServiceClient, "wait", "service.wait")
    tracer.wrap(ServiceClient, "results", "service.results")
    tracer.wrap(ServiceClient, "_request_once", "service.http", _http)


# -- reduction -----------------------------------------------------------------


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """``{span name: {calls, incl_s, self_s}}`` over closed spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _tag in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent, _tag) in enumerate(spans):
        if end is None:
            continue
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table


def format_table(table: Dict[str, Dict[str, float]], wall_s: float) -> str:
    lines = [f"{'layer':<28} {'calls':>7} {'self_s':>10} {'incl_s':>10} {'self share':>10}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"{name:<28} {row['calls']:>7} {row['self_s']:>10.4f} "
                     f"{row['incl_s']:>10.4f} {share:>10.1%}")
    lines.append(f"{'traced wall':<28} {'':>7} {wall_s:>10.4f}")
    return "\n".join(lines)


#: every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "workloads.trace_load_s": "s",
    "workloads.trace_cache_hits": "count",
    "workloads.trace_cache_misses": "count",
    "cpu.group_state_s": "s",
    "cpu.groups": "count",
    "cpu.lower_s": "s",
    "cpu.lower_calls": "count",
    "cpu.lowered_frac": "ratio",
    "cpu.kernel_s": "s",
    "cpu.kernel_calls": "count",
    "cpu.lane_cells": "count",
    "cpu.kernel_ns_per_lane_ref": "ns",
    "cpu.kernel_native": "flag",
    "cpu.scalar_s": "s",
    "cpu.scalar_cells": "count",
    "experiments.crypto_s": "s",
    "leakage.trials_s": "s",
    "leakage.occupancy_s": "s",
    "leakage.estimator_s": "s",
    "leakage.success_curve_s": "s",
    "runner.dispatch_self_s": "s",
    "runner.batches": "count",
    "runner.cache_load_s": "s",
    "runner.cache_store_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.retries": "count",
    "runner.timeouts": "count",
    "service.submit_s": "s",
    "service.wait_s": "s",
    "service.results_s": "s",
    "service.http_requests": "count",
    "service.http_errors": "count",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.overhead_s": "s",
    "service.journal_appends": "count",
    "backend.vectorized_cells": "count",
    "backend.scalar_fallback_cells": "count",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
}


def layer_metrics(table: Dict[str, Dict[str, float]], counts: Dict[str, float],
                  traced_wall_s: float, overhead_s: float, native: bool) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass."""

    def self_s(*names: str) -> float:
        return sum(table[name]["self_s"] for name in names if name in table)

    kernel_s = self_s("cpu.kernel")
    lower_calls = counts.get("cpu.lower_calls", 0)
    lane_refs = counts.get("cpu.lane_refs", 0)
    values = {
        "workloads.trace_load_s": self_s("workloads.trace_load"),
        "cpu.group_state_s": self_s("cpu.group_state"),
        "cpu.lower_s": self_s("cpu.lower"),
        "cpu.lowered_frac": counts.get("cpu.lowered", 0) / lower_calls if lower_calls else 0.0,
        "cpu.kernel_s": kernel_s,
        "cpu.kernel_ns_per_lane_ref": kernel_s * 1e9 / lane_refs if lane_refs else 0.0,
        "cpu.kernel_native": 1 if native else 0,
        "cpu.scalar_s": self_s("cpu.scalar"),
        "experiments.crypto_s": self_s("experiments.crypto"),
        "leakage.trials_s": self_s("leakage.trials.occupancy", "leakage.trials.flush_reload",
                                   "leakage.trials.eq7"),
        "leakage.occupancy_s": self_s("leakage.trials.occupancy"),
        "leakage.estimator_s": self_s("leakage.estimator"),
        "leakage.success_curve_s": self_s("leakage.success_curve"),
        "runner.dispatch_self_s": self_s("runner.run_cells"),
        "runner.cache_load_s": self_s("runner.cache_load"),
        "runner.cache_store_s": self_s("runner.cache_store"),
        "service.submit_s": self_s("service.submit"),
        "service.wait_s": self_s("service.wait"),
        "service.results_s": self_s("service.results"),
        "traced_wall_s": traced_wall_s,
        "tracing_overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        if name not in values:
            values[name] = counts.get(name, 0)
    return {name: values[name] for name in PER_LAYER}
