"""Regenerate ``golden_traces.json`` (the SPEC stand-in trace pins).

Each pin is the sha256 of one trace column's little-endian int64 bytes,
for every benchmark at the ``(n_refs, seed)`` points below.  The file
was produced by this script from the Python generators (their
per-call loops, the spec that the bulk synthesis in
``repro.workloads.bulk`` reproduces).  Regenerate it only together
with a ``GENERATOR_VERSION`` bump:

    PYTHONPATH=src python tests/workloads/_generate_golden.py
"""

import hashlib
import json
import os
import random
from types import SimpleNamespace
from unittest import mock

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traces.json")

#: (n_refs, seed) points: a one-reference trace, a service-sized trace
#: and a Figure 10-sized trace, on seeds no other test uses
POINTS = ((1, 0), (20_000, 100_003), (100_000, 100_004))

COLUMNS = ("addr", "gap", "write")


class SpecRandom(random.Random):
    """The stdlib stream under another type: the bulk path declines
    it, so the generators run their Python loops."""


def python_loops():
    """Within this context the generators skip the bulk path."""
    from repro.workloads import synthetic

    return mock.patch.object(synthetic, "random",
                             SimpleNamespace(Random=SpecRandom))


def digests(trace):
    return {column: hashlib.sha256(
        getattr(trace, column).astype("<i8").tobytes()).hexdigest()
        for column in COLUMNS}


def golden():
    from repro.workloads.spec import SPEC_BENCHMARKS, make_workload

    with python_loops():
        return {f"{name}/{n_refs}/{seed}":
                digests(make_workload(name, n_refs=n_refs, seed=seed))
                for name in sorted(SPEC_BENCHMARKS)
                for n_refs, seed in POINTS}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({"comment": "sha256 of each trace column; see "
                              "_generate_golden.py",
                   "traces": golden()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
