"""Tests for difference constraints and the constraint system."""

import numpy as np
import pytest

from repro.sdc.constraints import (
    BOUND_COL,
    KIND_COL,
    KINDS,
    ConstraintSystem,
    DifferenceConstraint,
)


class TestDifferenceConstraint:
    def test_satisfaction(self):
        constraint = DifferenceConstraint(u=1, v=2, bound=-1)
        assert constraint.is_satisfied({1: 0, 2: 2})
        assert constraint.is_satisfied({1: 1, 2: 2})
        assert not constraint.is_satisfied({1: 2, 2: 2})


class TestConstraintSystem:
    def test_add_and_deduplicate(self):
        system = ConstraintSystem()
        assert system.add(1, 2, 0)
        assert not system.add(1, 2, 0)
        assert system.add(1, 2, -1)  # different bound is a new constraint
        assert len(system) == 2
        assert system.variables == {1, 2}

    def test_dependency_and_timing_helpers(self):
        system = ConstraintSystem()
        system.add_dependency(producer=0, consumer=1)
        system.add_timing(source=0, sink=2, min_distance=3)
        assert [c.kind for c in system] == ["dependency", "timing"]
        dependency = system.constraints("dependency")[0]
        assert dependency.u == 0 and dependency.v == 1 and dependency.bound == 0
        timing = system.constraints("timing")[0]
        assert timing.bound == -3

    def test_violations(self):
        system = ConstraintSystem()
        system.add_dependency(0, 1)
        system.add_timing(0, 1, 2)
        good = {0: 0, 1: 2}
        bad = {0: 0, 1: 1}
        assert system.is_feasible_schedule(good)
        assert not system.is_feasible_schedule(bad)
        assert len(system.violations(bad)) == 1

    def test_pins_checked_in_violations(self):
        system = ConstraintSystem()
        system.pin(5, 0)
        assert not system.is_feasible_schedule({5: 1})
        assert system.is_feasible_schedule({5: 0})

    def test_extend_keeps_order_and_skips_duplicates(self):
        system = ConstraintSystem()
        system.add(0, 1, -1, kind="timing")
        added = system.extend([0, 1, 2, 1], [1, 2, 3, 2], [-1, -2, -3, -2],
                              kind="timing")
        # (0, 1, -1) is already present; the second (1, 2, -2) repeats the
        # batch's own earlier row.
        assert added == 2
        assert [(c.u, c.v, c.bound) for c in system] == \
            [(0, 1, -1), (1, 2, -2), (2, 3, -3)]
        assert system.variables == {0, 1, 2, 3}

    def test_add_after_extend_still_deduplicates(self):
        system = ConstraintSystem()
        system.extend([4, 5], [5, 6], [0, 0], kind="dependency")
        assert not system.add_dependency(4, 5)
        assert system.add_dependency(4, 6)
        assert system.extend([4], [6], [0], kind="dependency") == 0
        assert len(system) == 3

    def test_empty_extend_adds_nothing(self):
        system = ConstraintSystem()
        assert system.extend([], [], [], kind="timing") == 0
        assert len(system) == 0 and system.variables == set()

    def test_rows_array_and_kind_filter(self):
        system = ConstraintSystem()
        system.add_dependency(0, 1)
        system.add_timing(0, 2, 3)
        system.add_loop(2, 0, distance=1, ii=2)
        rows = system.rows
        assert rows.shape == (3, 4) and rows.dtype == np.int64
        assert rows[:, BOUND_COL].tolist() == [0, -3, 1]
        assert [KINDS[code] for code in rows[:, KIND_COL]] == \
            ["dependency", "timing", "loop"]
        assert system.rows_of("timing").tolist() == \
            [[0, 2, -3, KINDS.index("timing")]]
        with pytest.raises(ValueError):
            rows[0, BOUND_COL] = 5

    def test_unknown_kind_is_rejected(self):
        system = ConstraintSystem()
        with pytest.raises(ValueError, match="unknown constraint kind"):
            system.add(0, 1, 0, kind="resource")
        with pytest.raises(ValueError, match="unknown constraint kind"):
            system.extend([0], [1], [0], kind="resource")

    def test_unscheduled_variable_raises_key_error(self):
        system = ConstraintSystem()
        system.add_dependency(0, 7)
        with pytest.raises(KeyError):
            system.is_feasible_schedule({0: 0})
        with pytest.raises(KeyError):
            system.violations({})

    def test_violations_match_the_per_constraint_check(self):
        rng = np.random.default_rng(5)
        system = ConstraintSystem()
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, 12, size=2))
            system.add(u, v, int(rng.integers(-3, 3)))
        for _ in range(20):
            schedule = {node: int(rng.integers(0, 6)) for node in range(12)}
            expected = [c for c in system if not c.is_satisfied(schedule)]
            assert system.violations(schedule) == expected
            assert system.is_feasible_schedule(schedule) == (not expected)
