"""Bulk trace synthesis == the Python generators, bit for bit.

:mod:`repro.workloads.bulk` rebuilds the SPEC stand-in traces from the
generators' raw Mersenne Twister words (numpy for ``strided``, the C
parsers of the lane kernel library for ``locality_mixture`` and
``streaming``).  The generators' Python loops are the spec.  These
tests pin both against ``golden_traces.json`` (digests taken from the
loops before the bulk path existed) and compare them across random
seeds, lengths and parameters outside the SPEC set.  The
native half is skipped on a host without a C compiler; there the
golden pins check the no-compiler path.
"""

import contextlib
import json
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.lanes import native_available
from repro.workloads import bulk, synthetic
from repro.workloads.spec import SPEC_BENCHMARKS, make_workload
from tests.workloads._generate_golden import (
    GOLDEN_PATH,
    digests,
    python_loops,
)

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)["traces"]

NATIVE = native_available()
needs_native = pytest.mark.skipif(not NATIVE, reason="no C compiler on host")

BASE = 0x100_0000

#: the numpy primitive needs no compiler
NUMPY_ONLY = {"milc"}


@contextlib.contextmanager
def bulk_served():
    """Record, per generator call, whether the bulk path built it."""
    served = []

    def spy(fn):
        def wrapper(*args):
            trace = fn(*args)
            served.append(trace is not None)
            return trace
        return wrapper

    with mock.patch.multiple(bulk, streaming=spy(bulk.streaming),
                             locality_mixture=spy(bulk.locality_mixture),
                             strided=spy(bulk.strided)):
        yield served


def _columns(trace):
    return (trace.addr.tolist(), trace.gap.tolist(), trace.write.tolist())


def _assert_same(fast, spec):
    assert fast is not None
    assert fast.addr.dtype == fast.gap.dtype == fast.write.dtype == np.int64
    assert _columns(fast) == _columns(spec)


class TestGoldenPins:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_python_loops(self, key):
        name, n_refs, seed = key.split("/")
        with python_loops(), bulk_served() as served:
            trace = make_workload(name, int(n_refs), int(seed))
        assert not any(served)
        assert digests(trace) == GOLDEN[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_path(self, key):
        """Whatever backend this host selects: bulk for every benchmark
        with a compiler, bulk for the numpy primitive without one."""
        name, n_refs, seed = key.split("/")
        with bulk_served() as served:
            trace = make_workload(name, int(n_refs), int(seed))
        assert served == [NATIVE or name in NUMPY_ONLY]
        assert digests(trace) == GOLDEN[key]

    def test_pins_cover_every_benchmark(self):
        assert {key.split("/")[0] for key in GOLDEN} == set(SPEC_BENCHMARKS)


seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80),
                  st.integers(-2**40, -1))
lengths = st.integers(1, 5000)
probabilities = st.one_of(st.sampled_from([0.0, 1.0, 0, 1]),
                          st.floats(0.0, 1.0))
bases = st.sampled_from([0, BASE, 64 * 12345 + 8, 2**40])
gaps = st.integers(0, 9)
#: strided's word fetches: a few words, a few hundred, the default
chunks = st.sampled_from([16, 256, bulk.CHUNK_WORDS])


def _both(name, seed, chunk=bulk.CHUNK_WORDS, **kwargs):
    """(bulk trace from a fresh generator, Python loop trace)."""
    with mock.patch.object(bulk, "CHUNK_WORDS", chunk):
        fast = getattr(bulk, name)(random.Random(seed), **kwargs)
    with python_loops():
        spec = getattr(synthetic, name)(seed=seed, **kwargs)
    return fast, spec


class TestEquivalence:
    @needs_native
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, n_refs=lengths, base=bases, gap=gaps,
           working_set_lines=st.integers(1, 5000),
           hot_frac=st.floats(0.0, 1.0),
           p_hot=probabilities, p_neighbor=probabilities,
           neighbor_span=st.integers(0, 8),
           refs_per_line=st.integers(1, 16), write_ratio=probabilities)
    def test_locality_mixture(self, seed, n_refs, base, gap,
                              working_set_lines, hot_frac, p_hot, p_neighbor,
                              neighbor_span, refs_per_line, write_ratio):
        p_neighbor = min(p_neighbor, 1 - p_hot)
        if p_hot + p_neighbor > 1:
            p_neighbor = 0.0
        hot_lines = max(1, round(hot_frac * working_set_lines))
        fast, spec = _both(
            "locality_mixture", seed, n_refs=n_refs, base=base,
            working_set_lines=working_set_lines, hot_lines=hot_lines,
            p_hot=p_hot, p_neighbor=p_neighbor, neighbor_span=neighbor_span,
            refs_per_line=refs_per_line, write_ratio=write_ratio, gap=gap)
        _assert_same(fast, spec)

    @needs_native
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, n_refs=lengths, base=bases, gap=gaps,
           array_lines=st.integers(6, 300_000),
           refs_per_line=st.integers(1, 16),
           stride_lines_max=st.integers(1, 5), dense_prob=probabilities,
           write_ratio=probabilities)
    def test_streaming(self, seed, n_refs, base, gap, array_lines,
                       refs_per_line, stride_lines_max, dense_prob,
                       write_ratio):
        fast, spec = _both(
            "streaming", seed, n_refs=n_refs, base=base,
            array_lines=array_lines, refs_per_line=refs_per_line,
            stride_lines_max=stride_lines_max, dense_prob=dense_prob,
            write_ratio=write_ratio, gap=gap)
        _assert_same(fast, spec)

    @settings(max_examples=80, deadline=None)
    @given(seed=seeds, n_refs=lengths, base=bases, gap=gaps, chunk=chunks,
           array_lines=st.integers(1, 100_000),
           stride_lines=st.one_of(st.integers(1, 64),
                                  st.integers(2**61, 2**62)),
           refs_per_line=st.integers(1, 100), write_ratio=probabilities)
    def test_strided(self, seed, n_refs, base, gap, chunk, array_lines,
                     stride_lines, refs_per_line, write_ratio):
        fast, spec = _both(
            "strided", seed, chunk=chunk, n_refs=n_refs, base=base,
            array_lines=array_lines, stride_lines=stride_lines,
            refs_per_line=refs_per_line, write_ratio=write_ratio, gap=gap)
        _assert_same(fast, spec)


class TestFallback:
    def test_random_subclass_runs_the_python_loop(self):
        """A subclass may override the calls the word recipes stand
        for (overriding ``random`` alone even switches ``randrange`` to
        another recipe), so the bulk path declines it and the loop
        runs.  This one only counts, so the trace is unchanged."""
        calls = []

        class CountingRandom(random.Random):
            def random(self):
                calls.append("random")
                return super().random()

            def getrandbits(self, k):
                calls.append("getrandbits")
                return super().getrandbits(k)

        with mock.patch.object(synthetic, "random",
                               SimpleNamespace(Random=CountingRandom)), \
                bulk_served() as served:
            trace = make_workload("bzip2", 2000, 100_003)
        assert served == [False]
        assert set(calls) == {"random", "getrandbits"}
        assert _columns(trace) == _columns(make_workload("bzip2", 2000,
                                                         100_003))

    def test_declines_without_touching_rng(self):
        rng = random.Random(3)
        state = rng.getstate()
        # addresses past 2**62 are beyond the int64 arithmetic
        assert bulk.strided(rng, 10, 2**62, 100, 2, 2, 0.1, 6) is None
        # a non-integer count is the Python loop's business
        assert bulk.strided(rng, 10, BASE, 100, 2, 2.0, 0.1, 6) is None
        # a probability no double holds exactly
        from fractions import Fraction
        assert bulk.strided(rng, 10, BASE, 100, 2, 2, Fraction(1, 3),
                            6) is None
        assert rng.getstate() == state

    def test_declined_trace_matches_loop(self):
        trace = synthetic.strided(50, 2**62, 100, 3, seed=9)
        with python_loops():
            assert _columns(trace) == _columns(
                synthetic.strided(50, 2**62, 100, 3, seed=9))

    @needs_native
    def test_no_compiler_runs_the_python_loop(self, monkeypatch):
        from repro.cpu import lanes
        monkeypatch.setattr(lanes, "_native", lambda: None)
        with bulk_served() as served:
            trace = make_workload("lbm", 20_000, 100_003)
        assert served == [False]
        assert digests(trace) == GOLDEN["lbm/20000/100003"]


class TestMemory:
    def test_strided_fetches_words_in_chunks(self):
        """A 100k-reference trace fetches its words CHUNK_WORDS at a
        time, never the whole stream at once (the C parsers run the
        generator themselves and keep no words)."""
        with mock.patch.object(bulk, "_mt_words",
                               wraps=bulk._mt_words) as fetch:
            trace = make_workload("milc", 100_000, 100_004)
        sizes = [call.args[1] for call in fetch.call_args_list]
        assert digests(trace) == GOLDEN["milc/100000/100004"]
        assert len(sizes) > 1
        assert max(sizes) <= bulk.CHUNK_WORDS
