"""Batched address pre-decode for columnar traces.

Splitting a byte address into line address / set index / tag is pure
per-record arithmetic, yet the interpreter used to pay for it once per
access — tens of millions of shift-and-mask bytecodes per sweep.  A
:class:`TraceDecode` performs each derivation exactly once per (trace,
cache geometry) as a whole-column numpy pass.  The C lane kernel reads
the read-only int64 columns in place; the Python timing loops ask for
plain int lists instead (one ``tolist()`` call, not one ``int()`` per
element), which they iterate faster than numpy scalars.

Instances are memoized on the :class:`~repro.cpu.trace.Trace`
(``trace.decoded(line_shift)``), so the eleven Figure-10 windows that
replay one benchmark trace at jobs=1 share a single decode.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cpu.trace import Trace


class TraceDecode:
    """Per-geometry decoded columns of one trace (all lazily computed).

    ``line_shift`` is ``log2(line_size)``; every product below is cached
    after its first computation:

    * :meth:`lines` / :meth:`lines_list` — line address per record,
    * :meth:`set_indices` / :meth:`tags` — placement for one tag-store
      geometry,
    * :meth:`step_column` / :meth:`issue_steps` — per-record cycle
      increment of the in-order issue front-end for one
      ``issue_width`` (the running ``backlog // width`` arithmetic
      collapsed into a cumsum diff),
    * :meth:`warm_footprint_array` — consecutive-duplicate-free
      line-address prefix used to pre-warm the L2.

    The array products are read-only: they are shared by every cell
    that replays the trace.
    """

    __slots__ = ("addr", "gap", "write", "line_shift", "_lines",
                 "_lines_list", "_gaps_list", "_writes_list",
                 "_step_columns", "_issue_steps", "_set_indices", "_tags",
                 "_footprints")

    def __init__(self, trace: Trace, line_shift: int):
        if line_shift < 0:
            raise ValueError(f"line_shift must be >= 0, got {line_shift}")
        # The trace memoizes this decode, so holding the trace itself
        # would make a reference cycle that keeps an evicted trace and
        # its decoded lists alive until a full garbage collection.
        self.addr = trace.addr
        self.gap = trace.gap
        self.write = trace.write
        self.line_shift = line_shift
        self._lines: "np.ndarray | None" = None
        self._lines_list: "List[int] | None" = None
        self._gaps_list: "List[int] | None" = None
        self._writes_list: "List[int] | None" = None
        self._step_columns: Dict[int, np.ndarray] = {}
        self._issue_steps: Dict[int, List[int]] = {}
        self._set_indices: Dict[int, np.ndarray] = {}
        self._tags: Dict[int, np.ndarray] = {}
        self._footprints: Dict[int, np.ndarray] = {}

    # -- line addresses ------------------------------------------------------

    def lines(self) -> np.ndarray:
        """Line address column (``addr >> line_shift``), one numpy pass."""
        if self._lines is None:
            self._lines = _read_only(self.addr >> self.line_shift)
        return self._lines

    def lines_list(self) -> List[int]:
        """Line addresses as plain ints (fastest form for the sim loop)."""
        if self._lines_list is None:
            self._lines_list = self.lines().tolist()
        return self._lines_list

    def gaps_list(self) -> List[int]:
        if self._gaps_list is None:
            self._gaps_list = self.gap.tolist()
        return self._gaps_list

    def writes_list(self) -> List[int]:
        if self._writes_list is None:
            self._writes_list = self.write.tolist()
        return self._writes_list

    # -- placement -----------------------------------------------------------

    def set_indices(self, num_sets: int) -> np.ndarray:
        """Set index per record for a power-of-two ``num_sets`` geometry."""
        cached = self._set_indices.get(num_sets)
        if cached is None:
            cached = self.lines() & (num_sets - 1)
            self._set_indices[num_sets] = cached
        return cached

    def tags(self, num_sets: int) -> np.ndarray:
        """Tag per record (line address above the set-index bits)."""
        cached = self._tags.get(num_sets)
        if cached is None:
            cached = self.lines() >> (num_sets - 1).bit_length()
            self._tags[num_sets] = cached
        return cached

    # -- issue front-end -----------------------------------------------------

    def step_column(self, issue_width: int) -> np.ndarray:
        """Cycles the issue front-end advances before each record.

        Equivalent to the scalar recurrence ``backlog += gap;
        step = backlog // width; backlog %= width`` — the running
        backlog is just the cumulative gap count modulo ``width``, so
        the per-record step is the difference of
        ``cumsum(gap) // width``.
        """
        cached = self._step_columns.get(issue_width)
        if cached is None:
            if issue_width < 1:
                raise ValueError(
                    f"issue_width must be >= 1, got {issue_width}")
            issued = np.cumsum(self.gap) // issue_width
            cached = _read_only(np.diff(issued, prepend=0))
            self._step_columns[issue_width] = cached
        return cached

    def issue_steps(self, issue_width: int) -> List[int]:
        """:meth:`step_column` as plain ints (for the Python loops)."""
        cached = self._issue_steps.get(issue_width)
        if cached is None:
            cached = self.step_column(issue_width).tolist()
            self._issue_steps[issue_width] = cached
        return cached

    # -- warm-up -------------------------------------------------------------

    def warm_footprint_array(self, split: int) -> np.ndarray:
        """Line addresses of ``trace[:split]`` with consecutive runs
        collapsed (the warm-up loop probes each run once anyway)."""
        cached = self._footprints.get(split)
        if cached is None:
            prefix = self.lines()[:split]
            keep = np.empty(len(prefix), dtype=bool)
            keep[:1] = True
            np.not_equal(prefix[1:], prefix[:-1], out=keep[1:])
            cached = _read_only(prefix[keep])
            self._footprints[split] = cached
        return cached

    def warm_footprint(self, split: int) -> List[int]:
        """:meth:`warm_footprint_array` as plain ints."""
        return self.warm_footprint_array(split).tolist()


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column
