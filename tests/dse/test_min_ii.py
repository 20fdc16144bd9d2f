"""Tests for the DSE minimum-II search mode."""

import pytest

from repro.dse.cli import format_dse
from repro.dse.search import DseResult, probe_key, probe_records, run_dse
from repro.dse.warm import ProblemCache

LOOP = "loop:seed=1,depth=4,width=3,bits=16,inputs=2,phis=2,dist=1,clock=2500"


class TestMinIiSearch:
    def test_dag_resolves_to_ii_one(self):
        final, trace = ProblemCache().min_ii_search("rrot")
        assert final.feasible and final.ii == 1
        assert [probe.ii for probe in trace] == [1]

    def test_loop_design_records_probe_trace(self):
        final, trace = ProblemCache().min_ii_search(LOOP)
        assert final.feasible
        assert final.ii >= 1
        assert trace[0].ii == 1
        assert all(probe.ii is not None for probe in trace)
        # The final answer is the smallest feasible candidate probed.
        feasible = [probe.ii for probe in trace if probe.feasible]
        assert final.ii == min(feasible)

    def test_ir_file_resolves_above_ii_one(self):
        final, trace = ProblemCache().min_ii_search("examples/loop_accum.ir")
        assert final.feasible and final.ii == 2
        assert final.num_stages is not None
        assert final.num_registers is not None
        assert len(trace) >= 2

    def test_every_ii_probe_solves_an_lp(self):
        final, trace = ProblemCache().min_ii_search("examples/loop_accum.ir")
        # Every II candidate rebuilds the same problem via rebase_ii and
        # solves it; nothing in an II search is reused.
        assert all(probe.lp_rebuild and not probe.solution_reuse
                   for probe in trace)

    def test_budget_rejection_is_graceful(self):
        final, trace = ProblemCache().min_ii_search(LOOP, clock_period_ps=1.0)
        assert not final.feasible and final.reason == "budget"
        assert trace == []

    def test_outcome_payload_carries_ii(self):
        final, _ = ProblemCache().min_ii_search("examples/loop_accum.ir")
        assert final.to_payload()["ii"] == 2


class TestRunDseMinIi:
    def test_end_to_end_result(self):
        result = run_dse(["examples/loop_accum.ir", "rrot"], mode="min-ii")
        assert isinstance(result, DseResult)
        assert result.mode == "min-ii"
        by_name = {d.design: d for d in result.designs}
        assert by_name["examples/loop_accum.ir"].min_ii == 2
        assert by_name["rrot"].min_ii == 1
        assert all(d.converged for d in result.designs)

    def test_jobs_do_not_change_results(self):
        serial = run_dse([LOOP, "rrot"], mode="min-ii", jobs=1)
        parallel = run_dse([LOOP, "rrot"], mode="min-ii", jobs=2)
        assert ([d.min_ii for d in serial.designs]
                == [d.min_ii for d in parallel.designs])

    def test_payload_round_trips_min_ii(self):
        result = run_dse(["examples/loop_accum.ir"], mode="min-ii")
        payload = result.to_payload()
        design = payload["designs"][0]
        assert design["min_ii"] == 2
        assert all("ii" in probe for probe in design["probes"])

    def test_table_renders_min_ii_columns(self):
        result = run_dse(["examples/loop_accum.ir"], mode="min-ii")
        table = format_dse(result)
        assert "Min II" in table
        assert "dse min-ii: 1 designs" in table

    def test_probe_records_are_ii_keyed(self):
        result = run_dse(["examples/loop_accum.ir"], mode="min-ii")
        records = probe_records(result)
        probes = [r for r in records if r.kind == "dse-probe"]
        # Distinct II candidates produce distinct content keys.
        assert len({r.key for r in probes}) == len(probes)

    def test_probe_key_identity_only_gains_ii_when_set(self):
        without = probe_key("d", "minclock", 1000.0, None)
        with_none = probe_key("d", "minclock", 1000.0, None, ii=None)
        assert without == with_none  # pre-II store keys are unchanged
        assert probe_key("d", "min-ii", 1000.0, None, ii=2) != without

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            run_dse(["no-such-design"], mode="min-ii")
