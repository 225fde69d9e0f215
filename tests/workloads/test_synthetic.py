"""Tests for the synthetic workload primitives."""

import pytest

from repro.cpu.trace import validate_trace
from repro.workloads.synthetic import (
    locality_mixture,
    pointer_chase,
    streaming,
    strided,
)

BASE = 0x100_0000


class TestStreaming:
    def test_length_and_validity(self):
        trace = streaming(1000, BASE, 10000, seed=1)
        assert len(trace) == 1000
        list(validate_trace(trace))

    def test_moves_forward(self):
        trace = streaming(2000, BASE, 100000, refs_per_line=4, seed=2)
        lines = [addr // 64 for addr, _, _ in trace]
        assert lines[-1] > lines[0]
        assert all(b >= a for a, b in zip(lines, lines[1:]))

    def test_dense_prob_controls_density(self):
        dense = streaming(4000, BASE, 100000, refs_per_line=1,
                          stride_lines_max=4, dense_prob=1.0, seed=3)
        sparse = streaming(4000, BASE, 100000, refs_per_line=1,
                           stride_lines_max=4, dense_prob=0.0, seed=3)
        def span(t):
            return (t[-1][0] - t[0][0]) // 64
        assert span(sparse) > span(dense)

    def test_write_ratio(self):
        trace = streaming(5000, BASE, 10000, write_ratio=0.5, seed=4)
        writes = sum(w for _, _, w in trace)
        assert 2000 < writes < 3000

    def test_deterministic(self):
        assert streaming(500, BASE, 1000, seed=7) == \
            streaming(500, BASE, 1000, seed=7)

    def test_validation(self):
        with pytest.raises(ValueError):
            streaming(0, BASE, 100)
        with pytest.raises(ValueError):
            streaming(10, BASE, 2, stride_lines_max=4)
        with pytest.raises(ValueError):
            streaming(10, BASE, 100, dense_prob=1.5)

    def test_refs_per_line_at_least_one(self):
        with pytest.raises(ValueError, match="refs_per_line"):
            streaming(10, BASE, 100, refs_per_line=0)

    def test_stride_lines_max_at_least_one(self):
        with pytest.raises(ValueError, match="stride_lines_max"):
            streaming(10, BASE, 100, stride_lines_max=0)

    def test_array_lines_at_least_one(self):
        with pytest.raises(ValueError, match="array_lines"):
            streaming(10, BASE, 0, stride_lines_max=1)


class TestLocalityMixture:
    def test_length_and_validity(self):
        trace = locality_mixture(1000, BASE, 1024, 64, 0.5, 0.2, 4, seed=1)
        assert len(trace) == 1000
        list(validate_trace(trace))

    def test_hot_set_concentration(self):
        from collections import Counter
        trace = locality_mixture(8000, BASE, 4096, 32, 0.9, 0.0, 1,
                                 refs_per_line=1, seed=2)
        counts = Counter((addr - BASE) // 64 for addr, _, _ in trace)
        top32 = sum(c for _, c in counts.most_common(32))
        assert top32 > 0.8 * len(trace)

    def test_stays_in_working_set(self):
        trace = locality_mixture(2000, BASE, 256, 16, 0.3, 0.3, 8, seed=3)
        for addr, _, _ in trace:
            assert 0 <= (addr - BASE) // 64 < 256

    def test_validation(self):
        with pytest.raises(ValueError):
            locality_mixture(0, BASE, 100, 10, 0.1, 0.1, 1)
        with pytest.raises(ValueError):
            locality_mixture(10, BASE, 100, 10, 0.8, 0.3, 1)  # probs > 1
        with pytest.raises(ValueError):
            locality_mixture(10, BASE, 100, 200, 0.1, 0.1, 1)  # hot > ws

    def test_refs_per_line_at_least_one(self):
        with pytest.raises(ValueError, match="refs_per_line"):
            locality_mixture(10, BASE, 100, 10, 0.1, 0.1, 1, refs_per_line=0)

    def test_working_set_lines_at_least_one(self):
        with pytest.raises(ValueError, match="working_set_lines"):
            locality_mixture(10, BASE, 0, 0, 0.0, 0.1, 1)

    def test_neighbor_span_not_negative(self):
        with pytest.raises(ValueError, match="neighbor_span"):
            locality_mixture(10, BASE, 100, 10, 0.1, 0.1, -1)

    def test_hot_lines_at_least_one_when_hot(self):
        with pytest.raises(ValueError, match="hot_lines"):
            locality_mixture(10, BASE, 100, 0, 0.1, 0.1, 1)
        # no hot set is fine when it is never picked
        assert len(locality_mixture(10, BASE, 100, 0, 0.0, 0.1, 1)) == 10


class TestStrided:
    def test_stride_pattern(self):
        trace = strided(100, BASE, 10000, stride_lines=4, refs_per_line=1,
                        write_ratio=0.0, seed=1)
        lines = [(addr - BASE) // 64 for addr, _, _ in trace]
        deltas = {b - a for a, b in zip(lines, lines[1:])}
        assert deltas == {4}

    def test_validation(self):
        with pytest.raises(ValueError):
            strided(0, BASE, 100, 2)
        with pytest.raises(ValueError):
            strided(10, BASE, 100, 0)

    def test_refs_per_line_at_least_one(self):
        with pytest.raises(ValueError, match="refs_per_line"):
            strided(10, BASE, 100, 2, refs_per_line=0)

    def test_array_lines_at_least_one(self):
        with pytest.raises(ValueError, match="array_lines"):
            strided(10, BASE, 0, 2)


class TestPointerChase:
    def test_visits_whole_cycle(self):
        ws = 64
        trace = pointer_chase(ws, BASE, ws, seed=1)
        lines = {(addr - BASE) // 64 for addr, _, _ in trace}
        assert len(lines) == ws  # a full permutation cycle

    def test_no_spatial_pattern(self):
        trace = pointer_chase(500, BASE, 256, seed=2)
        lines = [(addr - BASE) // 64 for addr, _, _ in trace]
        sequential = sum(1 for a, b in zip(lines, lines[1:]) if b == a + 1)
        assert sequential < 25

    def test_validation(self):
        with pytest.raises(ValueError):
            pointer_chase(0, BASE, 10)
        with pytest.raises(ValueError):
            pointer_chase(10, BASE, 1)
