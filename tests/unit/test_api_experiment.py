"""The Experiment builder and the parallel sweep runner."""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.api import (
    Experiment,
    RunConfig,
    RunResult,
    results_table,
    run_many,
    run_sweep,
    sweep_experiments,
)
from repro.baselines.casbus import CasBusTam
from repro.core.tam import CasBusTamDesign
from repro.errors import ConfigurationError
from repro.schedule.preemptive import schedule_preemptive
from repro.soc.itc02 import d695_like
from repro.soc.library import small_soc


class TestExperimentSimulation:
    def test_matches_legacy_facade_cycle_for_cycle(self):
        legacy = CasBusTamDesign.for_soc(small_soc()).run()
        result = (Experiment(small_soc())
                  .with_architecture("casbus")
                  .run())
        assert result.source == "simulation"
        assert result.total_cycles == legacy.total_cycles
        assert result.test_cycles == legacy.test_cycles
        assert result.config_cycles == legacy.config_cycles
        assert result.passed == legacy.passed is True
        # Per-session detail mirrors the executor's sessions.
        assert len(result.sessions) == len(legacy.sessions)
        for detail, session in zip(result.sessions, legacy.sessions):
            assert detail.test_cycles == session.test_cycles
            assert detail.config_cycles == session.config_cycles
            assert detail.passed == session.passed

    def test_fault_injection_fails_the_run(self):
        from repro.bist.engine import random_detectable_fault

        soc = small_soc()
        fault = random_detectable_fault(
            soc.core_named("beta").build_scannable(), seed=8
        )
        result = Experiment(soc).with_faults({"beta": fault}).run()
        assert result.source == "simulation"
        assert result.passed is False

    def test_faults_without_simulation_rejected(self):
        with pytest.raises(ConfigurationError, match="simulation"):
            (Experiment(d695_like())  # abstract workload: no simulator
             .with_architecture("casbus")
             .with_faults({"c1": (0, 1)})
             .run())

    def test_forced_simulation_on_baseline_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot simulate"):
            (Experiment(small_soc())
             .with_architecture("mux-bus")
             .simulated(True)
             .run())

    def test_cas_policy_reaches_simulated_hardware(self):
        default = (Experiment(small_soc())
                   .with_architecture("casbus")
                   .run())
        pinned = (Experiment(small_soc())
                  .with_architecture("casbus")
                  .with_policy("contiguous")
                  .run())
        assert pinned.source == default.source == "simulation"
        assert pinned.passed and default.passed
        # "contiguous" enumerates fewer schemes than the default "all",
        # so the generated CAS hardware must shrink.
        assert pinned.area_ge < default.area_ge

    def test_pinned_backend_is_never_dropped_for_the_model(self):
        # `repro run itc02-d695-soc -w 16 --backend kernel`: the width
        # override blocks simulation, so the pinned engine must raise
        # instead of quietly returning a model result.
        experiment = Experiment("itc02-d695-soc").with_bus_width(16)
        assert experiment.run().source == "model"
        for backend in ("kernel", "legacy"):
            with pytest.raises(ConfigurationError,
                               match=f"backend '{backend}'.*bus width"):
                experiment.with_backend(backend).run()

    def test_simulation_forbidden_falls_back_to_model(self):
        result = (Experiment(small_soc())
                  .with_architecture("casbus")
                  .simulated(False)
                  .run())
        assert result.source == "model"
        assert result.passed is None


class TestExperimentModel:
    def test_model_matches_legacy_baseline(self):
        cores = d695_like()
        legacy = CasBusTam().evaluate(cores, 8)
        result = (Experiment(cores)
                  .with_architecture("casbus")
                  .with_bus_width(8)
                  .evaluate())
        assert result.source == "model"
        assert result.test_cycles == legacy.test_cycles
        assert result.config_cycles == legacy.config_cycles
        assert result.area_ge == legacy.area_proxy
        assert result.extra_pins == legacy.extra_pins

    def test_reconfig_strategy_honours_cas_policy(self):
        from repro.api import get_scheduler

        cores = d695_like()
        loose = get_scheduler("reconfig").schedule(cores, 8,
                                                   cas_policy=None)
        strict = get_scheduler("reconfig").schedule(cores, 8,
                                                    cas_policy="all")
        # The practical policy shrinks instruction registers, so the
        # charged reconfiguration cost must differ from "all".
        assert loose.config_cycles != strict.config_cycles

    def test_scheduler_strategy_plugs_in(self):
        cores = d695_like()
        reference = schedule_preemptive(cores, 8, cas_policy=None)
        result = (Experiment(cores)
                  .with_architecture("casbus")
                  .with_scheduler("preemptive")
                  .with_bus_width(8)
                  .run())
        assert result.source == "model"  # preemptive is not executable
        assert result.scheduler == "preemptive"
        assert result.test_cycles == reference.test_cycles
        assert result.config_cycles == reference.config_cycles_total

    def test_unknown_names_rejected_eagerly(self):
        experiment = Experiment(small_soc())
        with pytest.raises(ConfigurationError):
            experiment.with_architecture("token-ring")
        with pytest.raises(ConfigurationError):
            experiment.with_scheduler("oracle")

    def test_builder_is_immutable(self):
        base = Experiment(small_soc())
        widened = base.with_bus_width(7)
        assert base.config.bus_width is None
        assert widened.config.bus_width == 7
        assert widened is not base

    def test_abstract_workload_needs_a_width(self):
        with pytest.raises(ConfigurationError, match="bus width"):
            Experiment(d695_like()).evaluate()

    def test_lifecycle_schedule_step(self):
        outcome = (Experiment(d695_like())
                   .with_architecture("casbus")
                   .with_bus_width(8)
                   .schedule())
        assert outcome is not None
        assert outcome.strategy == "greedy"
        # Fixed-model architectures have nothing to schedule.
        assert (Experiment(d695_like())
                .with_architecture("daisy-chain")
                .with_bus_width(8)
                .schedule()) is None


class TestRunMany:
    ARCHS = ("casbus", "mux-bus", "direct-access")
    WIDTHS = (4, 8, 16)

    def _grid(self):
        return sweep_experiments(
            d695_like(), architectures=self.ARCHS, bus_widths=self.WIDTHS
        )

    def test_parallel_equals_serial(self):
        serial = run_many(self._grid(), parallel=False)
        parallel = run_many(self._grid(), parallel=True)
        assert serial == parallel
        assert len(serial) == len(self.ARCHS) * len(self.WIDTHS)

    def test_results_are_uniform_and_tabulatable(self):
        results = run_sweep(
            d695_like(), architectures=self.ARCHS,
            bus_widths=self.WIDTHS, parallel=True,
        )
        assert all(isinstance(r, RunResult) for r in results)
        headers, rows = results_table(results)
        table = format_table(headers, rows, title="sweep")
        for arch in self.ARCHS:
            assert arch in table
        assert len(rows) == len(results)

    def test_order_matches_input(self):
        results = run_many(self._grid(), parallel=True)
        expected = [
            (arch, width)
            for arch in self.ARCHS for width in self.WIDTHS
        ]
        assert [(r.architecture, r.bus_width) for r in results] == expected

    def test_empty_and_invalid_input(self):
        assert run_many([]) == []
        with pytest.raises(ConfigurationError, match="Experiment"):
            run_many([RunConfig()])  # configs alone are not runnable

    def test_simulated_experiments_cross_process_boundary(self):
        experiments = [
            Experiment(small_soc()).with_architecture("casbus"),
            Experiment(small_soc()).with_architecture("daisy-chain"),
        ]
        results = run_many(experiments, parallel=True)
        assert results[0].source == "simulation"
        assert results[0].passed is True
        assert results[1].source == "model"
