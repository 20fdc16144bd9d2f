"""Tests for the pluggable flow-backend layer."""

import pytest

from repro.synth.backend import (
    BACKENDS,
    EstimatorBackend,
    FlowBackend,
    LocalSynthesisBackend,
    create_backend,
)
from repro.synth.flow import SynthesisFlow
from repro.synth.report import SynthesisReport


def _stage_sets(graph):
    names = {n.name: n.node_id for n in graph.nodes()}
    return [
        [names["s1"]],
        [names["s1"], names["s2"]],
        [names["s2"], names["s3"]],
        [names["s1"], names["s2"], names["s3"], names["product"]],
    ]


def test_backends_satisfy_protocol(library):
    assert isinstance(LocalSynthesisBackend(library), FlowBackend)
    assert isinstance(EstimatorBackend(library), FlowBackend)
    assert isinstance(SynthesisFlow(library), FlowBackend)


def test_protocol_requires_a_signature(library):
    class Unsigned:
        def __init__(self):
            self.library = library

        def evaluate_subgraph(self, graph, node_ids, name=""):
            raise NotImplementedError

        def evaluate_batch(self, graph, node_sets, names=None):
            raise NotImplementedError

    assert not isinstance(Unsigned(), FlowBackend)


def test_create_backend_registry(library):
    assert isinstance(create_backend("local", library), LocalSynthesisBackend)
    assert isinstance(create_backend("estimator", library), EstimatorBackend)
    assert set(BACKENDS) == {"local", "estimator"}
    with pytest.raises(ValueError, match="unknown flow backend"):
        create_backend("yosys")


def test_create_backend_estimator_ignores_synthesis_knobs(library):
    backend = create_backend("estimator", library, optimize=True, jobs=8)
    assert isinstance(backend, EstimatorBackend)


def test_serial_batch_matches_individual_evaluations(adder_chain_graph, library):
    flow = SynthesisFlow(library)
    sets = _stage_sets(adder_chain_graph)
    batch = flow.evaluate_batch(adder_chain_graph, sets)
    individual = [flow.evaluate_subgraph(adder_chain_graph, s) for s in sets]
    assert [r.delay_ps for r in batch] == [r.delay_ps for r in individual]
    assert [r.num_gates for r in batch] == [r.num_gates for r in individual]


def test_parallel_batch_identical_to_serial(adder_chain_graph, library):
    sets = _stage_sets(adder_chain_graph)
    serial = SynthesisFlow(library).evaluate_batch(adder_chain_graph, sets)
    with LocalSynthesisBackend(library, jobs=3) as backend:
        parallel = backend.evaluate_batch(adder_chain_graph, sets)
    assert parallel == serial  # frozen dataclasses: field-wise equality


def test_parallel_batch_preserves_order_and_names(adder_chain_graph, library):
    sets = _stage_sets(adder_chain_graph)
    names = [f"block{i}" for i in range(len(sets))]
    with LocalSynthesisBackend(library, jobs=2) as backend:
        reports = backend.evaluate_batch(adder_chain_graph, sets, names)
    assert [r.name for r in reports] == names
    assert all(isinstance(r, SynthesisReport) for r in reports)


def test_estimator_backend_is_cheap_but_consistent(adder_chain_graph, library):
    estimator = EstimatorBackend(library)
    sets = _stage_sets(adder_chain_graph)
    reports = estimator.evaluate_batch(adder_chain_graph, sets)
    # Longer chains estimate no faster than their prefixes.
    assert reports[1].delay_ps >= reports[0].delay_ps
    assert reports[3].delay_ps >= reports[1].delay_ps
    for report in reports:
        assert report.delay_ps > 0
        assert report.num_gates == report.num_gates_unoptimized


def test_estimator_backend_drives_the_analyzer(adder_chain_graph, library):
    """The estimator slots into the same consumers as the local backend."""
    from repro.sdc.pipeline import PipelineAnalyzer
    from repro.sdc.scheduler import SdcScheduler
    from repro.tech.delay_model import OperatorModel

    schedule = SdcScheduler(OperatorModel(library),
                            clock_period_ps=2500.0).schedule(
        adder_chain_graph).schedule
    analyzer = PipelineAnalyzer(flow=EstimatorBackend(library),
                                library=library)
    report = analyzer.report(schedule)
    assert report.num_stages == schedule.num_stages
    assert all(d >= 0 for d in report.stage_delays_ps)


def test_backend_close_is_idempotent(library):
    backend = LocalSynthesisBackend(library, jobs=2)
    backend.close()
    backend.close()
