"""Golden equivalence: the vectorized batch kernel vs fresh
single-instance runs.

``SessionExecutor.run_batch`` runs every stuck-at scenario on one
shared instance through the compiled kernel, one dispatch per session,
with faulty scan captures on the packed word arrays of
:mod:`repro.sim.batch`.  Its contract is
*fresh-instance semantics*: element ``i`` of a batch run must be
byte-identical to a fresh :class:`~repro.sim.session.SessionExecutor`
over ``scenarios[i]`` -- cycle counts, pass/fail, mismatch counters,
detail strings and captured syndromes alike.  Single runs and batches
share the kernel's one session routine, so the independent oracle is
the legacy object-stepping executor.  These tests pin that
on the fig-1 SoC (scan, BIST, external and hierarchical victims),
through the public entry points (``run_batch``, ``run_many``), and as
a hypothesis property over generated SoCs and mixed-kind defect
scenarios (transport defects exercise the per-scenario fallback path).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bist.engine import random_detectable_fault
from repro.core.tam import CasBusTamDesign
from repro.diagnose.inject import random_scenario
from repro.sim.session import SessionExecutor
from repro.sim.system import build_system
from repro.soc.itc02 import random_soc
from repro.soc.library import fig1_soc


def _plan(soc):
    return CasBusTamDesign.for_soc(soc).executable_plan()


def _fig1_scenarios():
    """Clean plus one detectable stuck-at per victim kind."""
    soc = fig1_soc()
    scenarios = [None]
    for victim, seed in (
        ("core2", 3),          # scan, multi-chain
        ("core3", 7),          # BIST
        ("core4", 2),          # external LFSR/MISR
    ):
        clean = soc.core_named(victim).build_scannable()
        scenarios.append({victim: random_detectable_fault(clean,
                                                          seed=seed)})
    inner = soc.core_named("core5").inner.core_named("core5b")
    scenarios.append({
        "core5/core5b": random_detectable_fault(
            inner.build_scannable(), seed=9
        ),
    })
    return soc, scenarios


def _scalar_reference(soc, plan, scenarios, *, backend,
                      capture_syndromes=False):
    """One fresh scalar executor per scenario (the contract's RHS)."""
    results = []
    for scenario in scenarios:
        faults = scenario if isinstance(scenario, dict) else None
        system = (build_system(soc, inject_faults=faults)
                  if faults is not None or scenario is None
                  else None)
        if system is None:
            from repro.diagnose.inject import build_faulty_system

            system = build_faulty_system(soc, scenario)
        executor = SessionExecutor(
            system, backend=backend,
            capture_syndromes=capture_syndromes,
        )
        results.append(executor.run_plan(plan))
    return results


class TestFig1BatchEquivalence:
    @pytest.mark.parametrize("backend", ["kernel", "legacy"])
    def test_batch_matches_scalar_backends(self, backend):
        soc, scenarios = _fig1_scenarios()
        plan = _plan(soc)
        batch = SessionExecutor(build_system(soc)).run_batch(plan, scenarios)
        scalar = _scalar_reference(soc, plan, scenarios, backend=backend)
        assert batch == scalar
        assert batch[0].passed
        assert not any(result.passed for result in batch[1:])

    @pytest.mark.parametrize("backend", ["kernel", "legacy"])
    def test_syndrome_capture_is_bit_exact(self, backend):
        soc, scenarios = _fig1_scenarios()
        plan = _plan(soc)
        batch = SessionExecutor(
            build_system(soc), capture_syndromes=True
        ).run_batch(plan, scenarios)
        scalar = _scalar_reference(
            soc, plan, scenarios, backend=backend,
            capture_syndromes=True,
        )
        assert batch == scalar
        failing = [
            core
            for result in batch[1:]
            for core in result.core_results()
            if not core.passed
        ]
        assert failing
        assert all(core.syndrome is not None for core in failing)

    def test_mismatch_counts_are_bit_exact(self):
        soc, scenarios = _fig1_scenarios()
        plan = _plan(soc)
        batch = SessionExecutor(build_system(soc)).run_batch(plan, scenarios)
        scalar = _scalar_reference(soc, plan, scenarios,
                                   backend="legacy")
        for result_b, result_s in zip(batch, scalar):
            for core_b, core_s in zip(
                result_b.core_results(), result_s.core_results()
            ):
                assert core_b.mismatches == core_s.mismatches
                assert core_b.bits_compared == core_s.bits_compared
                assert core_b.detail == core_s.detail

    def test_transport_defects_fall_back_per_scenario(self):
        """Non-stuck-at scenarios cannot overlay the shared template:
        they must take the fresh-executor fallback and still match."""
        from repro.diagnose.inject import DefectScenario

        soc = fig1_soc()
        plan = _plan(soc)
        scenarios = [
            None,
            DefectScenario.open_wire(1),
            DefectScenario.stuck_at("core2", 3, 1),
        ]
        batch = SessionExecutor(build_system(soc)).run_batch(plan, scenarios)
        # "auto": a transport-defective system is not kernel-supported,
        # so a pinned scalar backend would refuse what the fallback
        # path legitimately runs on the legacy executor.
        scalar = _scalar_reference(soc, plan, scenarios, backend="auto")
        assert batch == scalar


class TestEntryPoints:
    def test_backend_batch_single_run(self):
        soc = fig1_soc()
        plan = _plan(soc)
        fault = {"core2": random_detectable_fault(
            soc.core_named("core2").build_scannable(), seed=3
        )}
        results = {
            backend: SessionExecutor(
                build_system(soc, inject_faults=fault), backend=backend
            ).run_plan(plan)
            for backend in ("legacy", "kernel", "auto")
        }
        assert results["kernel"] == results["legacy"] == results["auto"]

    def test_session_executor_run_batch(self):
        soc, scenarios = _fig1_scenarios()
        plan = _plan(soc)
        executor = SessionExecutor(build_system(soc), backend="auto")
        batch = executor.run_batch(plan, scenarios)
        assert batch == _scalar_reference(soc, plan, scenarios,
                                          backend="legacy")

    def test_run_batch_legacy_backend_loops(self):
        """A pinned scalar backend never takes the batch path, but the
        entry point still answers with identical results."""
        soc, scenarios = _fig1_scenarios()
        plan = _plan(soc)
        executor = SessionExecutor(build_system(soc), backend="legacy")
        batch = executor.run_batch(plan, scenarios[:3])
        assert batch == _scalar_reference(
            soc, plan, scenarios[:3], backend="legacy"
        )

    @pytest.mark.parametrize("backend", ["auto", "legacy"])
    def test_run_batch_rejects_trace_recorder(self, backend):
        """Batch scenarios run on fresh instances that never see the
        recorder, so asking for a trace is an error, not a silent
        empty trace."""
        from repro.errors import ConfigurationError
        from repro.sim.trace import TraceRecorder

        soc, scenarios = _fig1_scenarios()
        trace = TraceRecorder()
        executor = SessionExecutor(
            build_system(soc), trace=trace, backend=backend
        )
        with pytest.raises(ConfigurationError, match="trace"):
            executor.run_batch(_plan(soc), scenarios[:2])
        assert not trace.changes

    def test_run_batch_keeps_pinned_backend(self):
        """The per-scenario path runs on the executor's own backend: a
        pinned kernel refuses a transport defect exactly as run_plan
        does, while "auto" runs it on legacy and counts the fallback."""
        from repro import obs
        from repro.diagnose.inject import DefectScenario
        from repro.errors import ConfigurationError

        soc = fig1_soc()
        plan = _plan(soc)
        scenarios = [None, DefectScenario.open_wire(1)]
        pinned = SessionExecutor(build_system(soc), backend="kernel")
        with pytest.raises(ConfigurationError, match="open bus wire 1"):
            pinned.run_batch(plan, scenarios)
        with obs.capture() as collector:
            batch = SessionExecutor(build_system(soc)).run_batch(
                plan, scenarios
            )
        assert batch == _scalar_reference(soc, plan, scenarios,
                                          backend="auto")
        backends = [
            span.attrs["backend"] for span in collector.spans()
            if span.name == "executor.session"
        ]
        assert backends.count("legacy") == len(plan.sessions)
        counters = collector.metrics.snapshot()["counters"]
        assert counters["batch.fallback_scenarios"] == 1

    def test_run_many_routes_fault_sweeps(self):
        from repro.api import Experiment
        from repro.api.runner import _batch_partition, run_many

        soc, scenarios = _fig1_scenarios()
        base = Experiment(soc)
        experiments = [
            base if scenario is None else base.with_faults(scenario)
            for scenario in scenarios
        ]
        grouped, rest = _batch_partition(experiments)
        assert [len(group) for group in grouped] == [len(experiments)]
        assert rest == []
        batched = run_many(experiments, parallel=False)
        reference = [item.run() for item in experiments]
        assert batched == reference


_SOC_SEEDS = st.integers(min_value=0, max_value=7)
_SCENARIO_SEEDS = st.lists(
    st.integers(min_value=0, max_value=63),
    min_size=1, max_size=5,
)

_PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchProperty:
    @given(soc_seed=_SOC_SEEDS, scenario_seeds=_SCENARIO_SEEDS)
    @_PROPERTY_SETTINGS
    def test_batch_equals_fresh_scalar_runs(self, soc_seed,
                                            scenario_seeds):
        """Random geometry, random mixed-kind scenario batch: the
        batch dispatch is byte-identical to fresh per-scenario scalar
        executors (stuck-at scenarios on the vector path, transport
        defects through the fallback)."""
        soc = random_soc(soc_seed, num_cores=4, bus_width=4)
        plan = _plan(soc)
        scenarios = [None] + [
            random_scenario(soc, seed) for seed in scenario_seeds
        ]
        batch = SessionExecutor(
            build_system(soc), capture_syndromes=True
        ).run_batch(plan, scenarios)
        scalar = _scalar_reference(
            soc, plan, scenarios, backend="auto",
            capture_syndromes=True,
        )
        assert batch == scalar
