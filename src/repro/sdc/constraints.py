"""Difference constraints and the SDC constraint system.

All HLS scheduling constraints used here are integer-difference constraints
of the form ``s_u - s_v <= bound`` (paper Eq. 1), which keeps the LP's
constraint matrix totally unimodular and therefore guarantees an integral
optimum (Cong & Zhang, DAC'06).

A :class:`ConstraintSystem` keeps its rows as one integer array
(:attr:`ConstraintSystem.rows`), so bulk builders append thousands of rows
with one :meth:`~ConstraintSystem.extend` call and the LP assembly and the
feasibility check read them without a per-row Python object.
:class:`DifferenceConstraint` objects are only made for callers that
iterate the system or ask for its violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

#: Constraint categories; a row stores its kind as an index into this tuple.
KINDS = ("user", "dependency", "timing", "loop")
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: Columns of :attr:`ConstraintSystem.rows`.
U_COL, V_COL, BOUND_COL, KIND_COL = range(4)


@dataclass(frozen=True)
class DifferenceConstraint:
    """One integer-difference constraint ``s_u - s_v <= bound``.

    Attributes:
        u: node id of the left variable.
        v: node id of the right variable.
        bound: the integer bound.
        kind: constraint category, used for reporting ("dependency",
            "timing", "loop", "user"; "pin" marks a violated pin).
    """

    u: int
    v: int
    bound: int
    kind: str = "user"

    def is_satisfied(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies this constraint."""
        return schedule[self.u] - schedule[self.v] <= self.bound


def _kind_code(kind: str) -> int:
    try:
        return _KIND_CODES[kind]
    except KeyError:
        raise ValueError(f"unknown constraint kind {kind!r}; expected one of "
                         + ", ".join(KINDS)) from None


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of an ``(n, 3)`` key array not repeating an earlier row.

    The three columns are packed into one int64 per row whenever their
    value ranges allow it (always, for node ids and stage bounds), which
    keeps the sort one-dimensional.
    """
    low = keys.min(axis=0)
    spans = [int(high) - int(lo) + 1 for lo, high in zip(low, keys.max(axis=0))]
    if spans[0] * spans[1] * spans[2] < 2 ** 62:
        shifted = keys - low
        packed = (shifted[:, 0] * spans[1] + shifted[:, 1]) * spans[2] \
            + shifted[:, 2]
        _, first = np.unique(packed, return_index=True)
    else:
        _, first = np.unique(keys, axis=0, return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[first] = True
    return mask


def _values_at(schedule: Mapping[int, int], ids: np.ndarray) -> np.ndarray:
    """``schedule[i]`` for every node id in the non-empty array ``ids``.

    Raises:
        KeyError: naming the first id the schedule does not cover.
    """
    if not schedule:
        raise KeyError(int(ids.flat[0]))
    keys = np.fromiter(schedule, dtype=np.int64, count=len(schedule))
    order = np.argsort(keys)
    keys = keys[order]
    values = np.array(list(schedule.values()))[order]
    position = np.searchsorted(keys, ids).clip(max=len(keys) - 1)
    missing = keys[position] != ids
    if missing.any():
        raise KeyError(int(ids[missing][0]))
    return values[position]


class ConstraintSystem:
    """A collection of difference constraints over node variables.

    Attributes:
        variables: the node ids that appear as variables.
        pinned: variables fixed to a specific time step (e.g. parameters
            pinned to cycle 0).
    """

    def __init__(self) -> None:
        self.variables: set[int] = set()
        self.pinned: dict[int, int] = {}
        self._rows = np.zeros((0, 4), dtype=np.int64)
        self._rows.flags.writeable = False

    def add_variable(self, node_id: int) -> None:
        """Register a schedule variable."""
        self.variables.add(node_id)

    def pin(self, node_id: int, time_step: int) -> None:
        """Fix a variable to a specific time step."""
        self.add_variable(node_id)
        self.pinned[node_id] = time_step

    @property
    def rows(self) -> np.ndarray:
        """Every constraint as one read-only ``(m, 4)`` int64 array.

        Columns are ``u``, ``v``, ``bound`` and the kind's index in
        :data:`KINDS` (see :data:`U_COL` .. :data:`KIND_COL`); row order is
        insertion order.
        """
        return self._rows

    def add(self, u: int, v: int, bound: int, kind: str = "user") -> bool:
        """Add ``s_u - s_v <= bound``.

        Duplicate (u, v, bound) triples are ignored; when several bounds exist
        for the same (u, v) pair all are kept (the tightest governs anyway).
        Each call scans the existing rows, so builders of many rows use
        :meth:`extend`.

        Returns:
            True if the constraint was newly added.
        """
        return self.extend([u], [v], [bound], kind) == 1

    def extend(self, u, v, bound, kind: str) -> int:
        """Add ``s_u[i] - s_v[i] <= bound[i]`` for every ``i`` at once.

        The bulk form of :meth:`add`: rows keep their order, and a triple
        already in the system (or earlier in the batch) is skipped.

        Returns:
            The number of constraints added.
        """
        code = _kind_code(kind)
        batch = np.column_stack((
            np.asarray(u, dtype=np.int64).ravel(),
            np.asarray(v, dtype=np.int64).ravel(),
            np.asarray(bound, dtype=np.int64).ravel(),
            np.full(np.size(u), code, dtype=np.int64)))
        if not len(batch):
            return 0
        keep = _first_occurrences(
            np.concatenate((self._rows, batch))[:, :BOUND_COL + 1])
        batch = batch[keep[len(self._rows):]]
        self._rows = np.concatenate((self._rows, batch))
        self._rows.flags.writeable = False
        self.variables.update(np.unique(batch[:, :BOUND_COL]).tolist())
        return len(batch)

    def add_dependency(self, producer: int, consumer: int) -> bool:
        """Require ``consumer`` to be scheduled no earlier than ``producer``."""
        return self.add(producer, consumer, 0, kind="dependency")

    def add_timing(self, source: int, sink: int, min_distance: int) -> bool:
        """Require at least ``min_distance`` cycles between source and sink.

        This is Eq. 2 of the paper: ``s_source - s_sink <= -min_distance``.
        """
        return self.add(source, sink, -min_distance, kind="timing")

    def add_loop(self, src: int, phi: int, distance: int, ii: int) -> bool:
        """Add the loop-carried (recurrence) constraint of one back-edge.

        For a back-edge ``src -> phi`` at iteration distance ``d`` and
        initiation interval ``II``, the carried value must reach the phi's
        loop register before iteration ``i + d`` reads it:
        ``s_src - s_phi <= II * d - 1`` (the ``-1`` is the register
        boundary the value crosses).

        Returns:
            True if the constraint was newly added.
        """
        return self.add(src, phi, ii * distance - 1, kind="loop")

    def _make(self, row: list[int]) -> DifferenceConstraint:
        u, v, bound, code = row
        return DifferenceConstraint(u, v, bound, KINDS[code])

    def rows_of(self, kind: str) -> np.ndarray:
        """The rows of one constraint kind, in insertion order."""
        rows = self.rows
        return rows[rows[:, KIND_COL] == _kind_code(kind)]

    def constraints(self, kind: str | None = None) -> list[DifferenceConstraint]:
        """All constraints, optionally filtered by ``kind``."""
        rows = self.rows if kind is None else self.rows_of(kind)
        return [self._make(row) for row in rows.tolist()]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[DifferenceConstraint]:
        return map(self._make, self.rows.tolist())

    def _violated_rows(self, schedule: Mapping[int, int]) -> np.ndarray:
        """Mask of the rows ``schedule`` violates (pins not included)."""
        rows = self.rows
        if not len(rows):
            return np.zeros(0, dtype=bool)
        values = _values_at(schedule, rows[:, :BOUND_COL])
        return values[:, 0] - values[:, 1] > rows[:, BOUND_COL]

    def _pins_hold(self, schedule: Mapping[int, int]) -> bool:
        return all(schedule.get(node_id) == time_step
                   for node_id, time_step in self.pinned.items())

    def violations(self, schedule: dict[int, int]) -> list[DifferenceConstraint]:
        """Constraints violated by ``schedule`` (pins included)."""
        violated = [self._make(row) for row in
                    self.rows[self._violated_rows(schedule)].tolist()]
        for node_id, time_step in self.pinned.items():
            if schedule.get(node_id) != time_step:
                violated.append(DifferenceConstraint(node_id, node_id, -1, kind="pin"))
        return violated

    def is_feasible_schedule(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies every constraint and pin."""
        return not self._violated_rows(schedule).any() \
            and self._pins_hold(schedule)
