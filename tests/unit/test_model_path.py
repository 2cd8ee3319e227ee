"""The abstract-model run path: one schedule per run, counted fallbacks.

``DesignedTam.run`` schedules a model experiment exactly once,
verifies that outcome and reports it, so the strategy runs once per
experiment whether verification is on or off.  A run the CAS-BUS could
simulate but that falls to the model is counted and traced with its
reason; model-only workloads are not fallbacks.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import Experiment
from repro.api.registry import list_architectures
from repro.api.schedulers import StrategyAdapter


@pytest.fixture
def strategy_calls(monkeypatch):
    """Counts every ``StrategyAdapter.schedule`` call."""
    calls = []
    original = StrategyAdapter.schedule

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StrategyAdapter, "schedule", counted)
    return calls


def _model(architecture="casbus", scheduler="greedy", verify=True):
    return (Experiment("itc02-d695")
            .with_architecture(architecture)
            .with_scheduler(scheduler)
            .with_bus_width(8)
            .simulated(False)
            .with_verify(verify))


@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize(
    "scheduler", ["greedy", "preemptive", "reconfig", "optimize-anneal"]
)
def test_casbus_model_run_schedules_once(strategy_calls, scheduler, verify):
    _model(scheduler=scheduler, verify=verify).run()
    assert strategy_calls == [scheduler]


@pytest.mark.parametrize(
    "architecture", [a for a in list_architectures() if a != "casbus"]
)
def test_fixed_model_run_never_schedules(strategy_calls, architecture):
    _model(architecture=architecture).run()
    assert strategy_calls == []


def test_run_reports_the_evaluated_result():
    experiment = _model(scheduler="preemptive")
    assert experiment.run() == experiment.evaluate()


# -- fallback accounting -----------------------------------------------------


def _traced_run(experiment):
    sink = obs.MemorySink()
    with obs.capture(sinks=[sink]) as collector:
        result = experiment.run()
    counters = collector.metrics.snapshot()["counters"]
    spans = [r for r in sink.records if r.name == "fallback.model"]
    return result, counters.get("fallback.model", 0), spans


def test_simulatable_soc_falling_to_model_is_counted():
    experiment = Experiment("itc02-d695-soc").with_scheduler("preemptive")
    result, count, spans = _traced_run(experiment)
    assert result.source == "model"
    assert count == 1
    (span,) = spans
    assert "'preemptive'" in span.attrs["reason"]


def test_abstract_table_is_not_a_fallback():
    result, count, spans = _traced_run(
        Experiment("itc02-d695").with_scheduler("preemptive")
        .with_bus_width(8)
    )
    assert result.source == "model"
    assert count == 0
    assert spans == []


def test_explicit_model_choice_is_not_a_fallback():
    result, count, spans = _traced_run(
        Experiment("itc02-d695-soc").with_scheduler("preemptive")
        .simulated(False)
    )
    assert result.source == "model"
    assert (count, spans) == (0, [])


def test_scheduling_architecture_without_report_is_rejected():
    from repro.api.architectures import TamArchitecture
    from repro.api.results import RunConfig
    from repro.baselines.casbus import CasBusTam
    from repro.errors import ConfigurationError

    class Unreported(TamArchitecture):
        key = "casbus"
        uses_scheduler = True

        def model(self, *, cas_policy=None):
            return CasBusTam(policy=cas_policy)

    with pytest.raises(ConfigurationError, match="report"):
        Unreported().design("itc02-d695").evaluate(
            RunConfig(architecture="casbus", bus_width=8)
        )
