"""Tests for the columnar Trace container and the batched pre-decode."""

import gc
import weakref

import numpy as np
import pytest

from repro.cpu.decode import TraceDecode
from repro.cpu.trace import (
    MemRef,
    Trace,
    instruction_count,
    materialize,
    validate_trace,
)

RECORDS = [(0, 1, 0), (64, 2, 1), (128, 4, 0), (64, 1, 0), (4096, 3, 1)]


class TestConstruction:
    def test_from_records_roundtrip(self):
        trace = Trace.from_records(RECORDS)
        assert list(trace) == RECORDS
        assert len(trace) == len(RECORDS)

    def test_from_columns_matches_from_records(self):
        columns = Trace.from_columns([r[0] for r in RECORDS],
                                     [r[1] for r in RECORDS],
                                     [r[2] for r in RECORDS])
        assert columns == Trace.from_records(RECORDS)

    def test_from_records_accepts_memrefs(self):
        trace = Trace.from_records([MemRef(0), MemRef(64, 2, 1)])
        assert list(trace) == [(0, 1, 0), (64, 2, 1)]

    def test_from_records_passes_through_trace(self):
        trace = Trace.from_records(RECORDS)
        assert Trace.from_records(trace) is trace

    def test_empty(self):
        trace = Trace.from_records([])
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.instruction_count == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_columns([1, 2], [1], [0, 0])

    def test_bad_record_shape_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_records([(1, 2)])

    def test_concat_mixes_traces_and_lists(self):
        merged = Trace.concat([Trace.from_records(RECORDS[:2]), RECORDS[2:]])
        assert merged == Trace.from_records(RECORDS)

    def test_concat_single_chunk_is_identity(self):
        trace = Trace.from_records(RECORDS)
        assert Trace.concat([trace]) is trace

    def test_concat_empty(self):
        assert len(Trace.concat([])) == 0


class TestSequenceProtocol:
    def test_iteration_yields_plain_int_tuples(self):
        record = next(iter(Trace.from_records(RECORDS)))
        assert type(record) is tuple
        assert all(type(field) is int for field in record)

    def test_getitem_int(self):
        trace = Trace.from_records(RECORDS)
        assert trace[1] == RECORDS[1]
        assert trace[-1] == RECORDS[-1]

    def test_slice_returns_trace_view(self):
        trace = Trace.from_records(RECORDS)
        tail = trace[2:]
        assert isinstance(tail, Trace)
        assert list(tail) == RECORDS[2:]
        # Zero-copy: the sliced columns are views of the parent buffers.
        assert np.shares_memory(tail.addr, trace.addr)

    def test_slice_memoized(self):
        trace = Trace.from_records(RECORDS)
        assert trace[2:] is trace[2:]
        assert trace[2:] is not trace[1:]

    def test_columns_read_only(self):
        trace = Trace.from_records(RECORDS)
        with pytest.raises(ValueError):
            trace.addr[0] = 1
        with pytest.raises(ValueError):
            trace[1:].gap[0] = 9

    def test_eq_against_record_list(self):
        trace = Trace.from_records(RECORDS)
        assert trace == RECORDS
        assert trace != RECORDS[:-1]
        assert trace != [(1, 1, 1)] * len(RECORDS)

    def test_unhashable_like_list(self):
        with pytest.raises(TypeError):
            hash(Trace.from_records(RECORDS))


class TestDerivedData:
    def test_instruction_count(self):
        trace = Trace.from_records(RECORDS)
        assert trace.instruction_count == sum(r[1] for r in RECORDS)
        # Module-level helper agrees on both representations.
        assert instruction_count(trace) == instruction_count(RECORDS)

    def test_records_memoized(self):
        trace = Trace.from_records(RECORDS)
        assert trace.records() is trace.records()
        assert trace.records() == RECORDS
        assert materialize(trace) == RECORDS

    def test_fingerprint_stable_across_routes(self):
        a = Trace.from_records(RECORDS)
        b = Trace.from_columns([r[0] for r in RECORDS],
                               [r[1] for r in RECORDS],
                               [r[2] for r in RECORDS])
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_sensitive_to_every_column(self):
        base = Trace.from_records([(8, 2, 0)])
        assert base.fingerprint != Trace.from_records([(9, 2, 0)]).fingerprint
        assert base.fingerprint != Trace.from_records([(8, 3, 0)]).fingerprint
        assert base.fingerprint != Trace.from_records([(8, 2, 1)]).fingerprint

    def test_fingerprint_not_fooled_by_column_swap(self):
        # Same bytes distributed differently across columns must differ.
        a = Trace.from_columns([1, 2], [3, 3], [0, 0])
        b = Trace.from_columns([3, 3], [1, 2], [0, 0])
        assert a.fingerprint != b.fingerprint

    def test_validate_trace_accepts_columnar(self):
        assert list(validate_trace(Trace.from_records(RECORDS))) == RECORDS

    def test_validate_trace_still_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            list(validate_trace(Trace.from_records([(0, 0, 0)])))


class TestTraceDecode:
    LINE_SHIFT = 6

    def decode(self):
        return Trace.from_records(RECORDS).decoded(self.LINE_SHIFT)

    def test_memoized_on_trace(self):
        trace = Trace.from_records(RECORDS)
        assert trace.decoded(6) is trace.decoded(6)
        assert trace.decoded(6) is not trace.decoded(5)

    def test_lines(self):
        decode = self.decode()
        expected = [r[0] >> self.LINE_SHIFT for r in RECORDS]
        assert decode.lines().tolist() == expected
        assert decode.lines_list() == expected
        assert decode.gaps_list() == [r[1] for r in RECORDS]
        assert decode.writes_list() == [r[2] for r in RECORDS]

    def test_set_indices_and_tags(self):
        decode = self.decode()
        num_sets = 8
        lines = decode.lines_list()
        assert decode.set_indices(num_sets).tolist() == \
            [line % num_sets for line in lines]
        assert decode.tags(num_sets).tolist() == \
            [line // num_sets for line in lines]

    def test_issue_steps_match_scalar_recurrence(self):
        gaps = [1, 7, 3, 4, 12, 1, 1, 5]
        trace = Trace.from_columns([0] * len(gaps), gaps, [0] * len(gaps))
        for width in (1, 2, 4):
            backlog, expected = 0, []
            for gap in gaps:
                backlog += gap
                expected.append(backlog // width)
                backlog %= width
            assert trace.decoded(0).issue_steps(width) == expected

    def test_issue_steps_rejects_zero_width(self):
        with pytest.raises(ValueError):
            self.decode().issue_steps(0)

    def test_warm_footprint_collapses_consecutive_runs(self):
        addrs = [0, 0, 64, 64, 64, 0, 128, 128]
        trace = Trace.from_columns(addrs, [1] * len(addrs), [0] * len(addrs))
        decode = trace.decoded(self.LINE_SHIFT)
        assert decode.warm_footprint(len(addrs)) == [0, 1, 0, 2]
        assert decode.warm_footprint(2) == [0]
        assert decode.warm_footprint(0) == []

    def test_dropped_trace_freed_without_gc(self):
        """The decode memo must not form a cycle with its trace, or an
        evicted trace keeps its decoded columns until a full GC."""

        class WeakTrace(Trace):  # Trace's __slots__ carry no __weakref__
            pass

        table = Trace.from_records(RECORDS)
        trace = WeakTrace(table.addr, table.gap, table.write)
        decode = trace.decoded(6)
        decode.lines_list()
        decode.gaps_list()
        decode.issue_steps(4)
        lines = weakref.ref(decode.lines())
        alive = weakref.ref(trace)
        gc.disable()
        try:
            del trace, decode
            assert alive() is None
            assert lines() is None
        finally:
            gc.enable()

    def test_negative_line_shift_rejected(self):
        with pytest.raises(ValueError):
            TraceDecode(Trace.from_records(RECORDS), -1)
