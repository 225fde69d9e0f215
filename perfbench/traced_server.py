"""``python -m repro ...`` with the simulator's layers traced.

The traced service run starts the sweep service through this launcher
instead of ``python -m repro``.  It wraps the same layer functions as an
in-process traced run, runs the CLI, and when the server exits (SIGTERM
drains it) writes the spans and counters to SPANS_PATH.

Usage: python3 perfbench/traced_server.py SPANS_PATH serve [serve options]
"""

import sys


def main(spans_path: str, argv) -> None:
    from layers import Tracer, install_simulator
    from repro.__main__ import main as repro_main
    from repro.workloads.cache import TRACE_CACHE

    tracer = Tracer()
    install_simulator(tracer)
    try:
        repro_main(argv)
    finally:
        memory, disk, misses = TRACE_CACHE.stats()
        tracer.counts["workloads.trace_cache_hits"] += memory + disk
        tracer.counts["workloads.trace_cache_misses"] += misses
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
