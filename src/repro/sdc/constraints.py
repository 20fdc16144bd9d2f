"""Difference constraints and the SDC constraint system.

All HLS scheduling constraints used here are integer-difference constraints
of the form ``s_u - s_v <= bound`` (paper Eq. 1), which keeps the LP's
constraint matrix totally unimodular and therefore guarantees an integral
optimum (Cong & Zhang, DAC'06).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class DifferenceConstraint:
    """One integer-difference constraint ``s_u - s_v <= bound``.

    Attributes:
        u: node id of the left variable.
        v: node id of the right variable.
        bound: the integer bound.
        kind: constraint category, used for reporting and for selective
            rebuilds ("dependency", "timing", "pin", "user").
    """

    u: int
    v: int
    bound: int
    kind: str = "user"

    def is_satisfied(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies this constraint."""
        return schedule[self.u] - schedule[self.v] <= self.bound


@dataclass
class ConstraintSystem:
    """A collection of difference constraints over node variables.

    Attributes:
        variables: the node ids that appear as variables.
        pinned: variables fixed to a specific time step (e.g. parameters
            pinned to cycle 0).
    """

    variables: set[int] = field(default_factory=set)
    pinned: dict[int, int] = field(default_factory=dict)
    _constraints: list[DifferenceConstraint] = field(default_factory=list)
    _seen: set[tuple[int, int, int]] = field(default_factory=set, repr=False)
    _timing_rows: dict[tuple[int, int], int] = field(default_factory=dict,
                                                     repr=False)
    _loop_rows: dict[tuple[int, int], int] = field(default_factory=dict,
                                                   repr=False)
    _loop_distances: dict[tuple[int, int], int] = field(default_factory=dict,
                                                        repr=False)

    def add_variable(self, node_id: int) -> None:
        """Register a schedule variable."""
        self.variables.add(node_id)

    def pin(self, node_id: int, time_step: int) -> None:
        """Fix a variable to a specific time step."""
        self.add_variable(node_id)
        self.pinned[node_id] = time_step

    def add(self, u: int, v: int, bound: int, kind: str = "user") -> bool:
        """Add ``s_u - s_v <= bound``.

        Duplicate (u, v, bound) triples are ignored; when several bounds exist
        for the same (u, v) pair all are kept (the tightest governs anyway).

        Returns:
            True if the constraint was newly added.
        """
        self.add_variable(u)
        self.add_variable(v)
        key = (u, v, bound)
        if key in self._seen:
            return False
        self._seen.add(key)
        if kind == "timing":
            self._timing_rows[(u, v)] = len(self._constraints)
        self._constraints.append(DifferenceConstraint(u, v, bound, kind))
        return True

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

        Like timing constraints, loop constraints have stable row
        identities so :meth:`set_loop_bound` can rebase every bound in
        place when the II changes during the minimum-II search.

        Returns:
            True if the constraint was newly added.
        """
        added = self.add(src, phi, ii * distance - 1, kind="loop")
        if added:
            self._loop_rows[(src, phi)] = len(self._constraints) - 1
            self._loop_distances[(src, phi)] = distance
        return added

    def set_loop_bound(self, src: int, phi: int, ii: int) -> bool:
        """Rebase the loop constraint on ``(src, phi)`` to a new II.

        The constraint keeps its row identity; only the bound changes.

        Returns:
            True if the bound actually changed.

        Raises:
            KeyError: if no loop constraint exists for the pair.
        """
        row = self._loop_rows[(src, phi)]
        distance = self._loop_distances[(src, phi)]
        bound = ii * distance - 1
        old = self._constraints[row]
        if old.bound == bound:
            return False
        self._seen.discard((src, phi, old.bound))
        self._seen.add((src, phi, bound))
        self._constraints[row] = DifferenceConstraint(src, phi, bound, "loop")
        return True

    def loop_entries(self) -> list[tuple[int, int, int, int]]:
        """All ``(src, phi, distance, row)`` loop entries in insertion order."""
        return [(src, phi, self._loop_distances[(src, phi)], row)
                for (src, phi), row in self._loop_rows.items()]

    def num_loop_pairs(self) -> int:
        """Number of back-edges currently carrying a loop constraint."""
        return len(self._loop_rows)

    def num_timing_pairs(self) -> int:
        """Number of node pairs currently carrying a timing constraint."""
        return len(self._timing_rows)

    def timing_entries(self) -> list[tuple[int, int, int]]:
        """All ``(u, v, row)`` timing entries in insertion (row-major) order.

        Insertion order is the enumeration order of the builder
        (:func:`~repro.sdc.problem.add_timing_constraints` walks
        ``np.nonzero(matrix > budget)`` row-major), which is what lets the
        clock-period rebase pack the pairs into arrays aligned with a fresh
        row-major enumeration.
        """
        return [(u, v, row) for (u, v), row in self._timing_rows.items()]

    def set_timing_bound(self, u: int, v: int, bound: int) -> bool:
        """Replace the bound of the existing timing constraint on ``(u, v)``.

        The constraint keeps its row identity (list position); only the bound
        changes.  Row indices never move once assigned, so cached LP rows and
        adjacency lists built over row indices stay valid across rebases.

        Returns:
            True if the bound actually changed.

        Raises:
            KeyError: if no timing constraint exists for the pair.
        """
        row = self._timing_rows[(u, v)]
        old = self._constraints[row]
        if old.bound == bound:
            return False
        self._seen.discard((u, v, old.bound))
        self._seen.add((u, v, bound))
        self._constraints[row] = DifferenceConstraint(u, v, bound, "timing")
        return True

    def constraint_at(self, row: int) -> DifferenceConstraint:
        """The constraint stored at a given row index."""
        return self._constraints[row]

    def constraints(self, kind: str | None = None) -> list[DifferenceConstraint]:
        """All constraints, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._constraints)
        return [c for c in self._constraints if c.kind == kind]

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[DifferenceConstraint]:
        return iter(self._constraints)

    def violations(self, schedule: dict[int, int]) -> list[DifferenceConstraint]:
        """Constraints violated by ``schedule`` (pins included)."""
        violated = [c for c in self._constraints if not c.is_satisfied(schedule)]
        for node_id, time_step in self.pinned.items():
            if schedule.get(node_id) != time_step:
                violated.append(DifferenceConstraint(node_id, node_id, -1, kind="pin"))
        return violated

    def is_feasible_schedule(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies every constraint and pin."""
        return not self.violations(schedule)

    def clone(self) -> "ConstraintSystem":
        """An independent deep copy of this system.

        The constraint list, seen-set, timing-row map, variables and pins are
        all duplicated, so mutating the clone (``add``, ``set_timing_bound``)
        never touches the original.  The :class:`DifferenceConstraint`
        entries themselves are frozen and therefore shared.
        """
        duplicate = ConstraintSystem(
            variables=set(self.variables),
            pinned=dict(self.pinned),
            _constraints=list(self._constraints),
            _seen=set(self._seen),
            _timing_rows=dict(self._timing_rows),
            _loop_rows=dict(self._loop_rows),
            _loop_distances=dict(self._loop_distances),
        )
        return duplicate

    def merge(self, other: "ConstraintSystem") -> None:
        """Merge another system's variables, pins and constraints into this one."""
        for node_id in other.variables:
            self.add_variable(node_id)
        for node_id, time_step in other.pinned.items():
            self.pin(node_id, time_step)
        for constraint in other:
            self.add(constraint.u, constraint.v, constraint.bound, constraint.kind)


def count_by_kind(constraints: Iterable[DifferenceConstraint]) -> dict[str, int]:
    """Histogram of constraint kinds (reporting helper)."""
    counts: dict[str, int] = {}
    for constraint in constraints:
        counts[constraint.kind] = counts.get(constraint.kind, 0) + 1
    return counts
