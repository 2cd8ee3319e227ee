"""Golden equivalence: the compiled kernel vs the legacy backend.

The kernel (:mod:`repro.sim.kernel`) must reproduce the legacy
object-stepping executor's :class:`~repro.sim.session.ProgramResult`
*exactly* -- cycle counts, pass/fail, bit-level mismatch counts,
detail strings -- and leave the live system in the same post-run state
(chain contents, wrapper modes, CAS codes).  These tests pin that on
the fig-1 SoC, on ITC'02-style workloads, with and without injected
faults, and through the maintenance (non-interference) scenario.
"""

from __future__ import annotations

import pytest

from repro.bist.engine import random_detectable_fault
from repro.errors import ConfigurationError
from repro.core.tam import CasBusTamDesign
from repro.schedule.concurrent import maintenance_session
from repro.sim.kernel import KernelExecutor, kernel_supports
from repro.sim.plan import PlanBuilder, flat_assignment
from repro.sim.session import SessionExecutor
from repro.sim.system import build_system
from repro.sim.trace import TraceRecorder
from repro.soc.itc02 import benchmark_soc, random_soc
from repro.soc.library import fig1_soc


def _run_both(soc, *, inject_faults=None, plan=None):
    """One plan on both backends; returns (legacy, kernel) results and
    the two post-run systems."""
    tam = CasBusTamDesign.for_soc(soc)
    plan = plan or tam.executable_plan()
    outcomes = []
    for backend in ("legacy", "kernel"):
        system = build_system(soc, inject_faults=inject_faults)
        executor = SessionExecutor(system, backend=backend)
        outcomes.append((executor.run_plan(plan), system))
    return outcomes


def _faulty(soc, kind, *args):
    from repro.diagnose.inject import DefectScenario, build_faulty_system

    return build_faulty_system(soc, getattr(DefectScenario, kind)(*args))


def _assert_same_state(system_a, system_b):
    for node_a, node_b in zip(system_a.walk(), system_b.walk()):
        assert node_a.path == node_b.path
        assert node_a.cas.active_code == node_b.cas.active_code, node_a.path
        if node_a.wrapper is None:
            continue
        assert node_a.wrapper.mode == node_b.wrapper.mode, node_a.path
        cells_a = [c.shift_value for c in node_a.wrapper.boundary.cells]
        cells_b = [c.shift_value for c in node_b.wrapper.boundary.cells]
        assert cells_a == cells_b, node_a.path
        if node_a.wrapper.core is not None:
            assert (node_a.wrapper.core.ff_values
                    == node_b.wrapper.core.ff_values), node_a.path


class TestFig1Equivalence:
    def test_clean_program_identical(self):
        (legacy, sys_l), (kernel, sys_k) = _run_both(fig1_soc())
        assert legacy == kernel
        assert kernel.passed
        _assert_same_state(sys_l, sys_k)

    @pytest.mark.parametrize("victim,seed", [
        ("core2", 3),          # scan, multi-chain
        ("core3", 7),          # BIST
        ("core4", 2),          # external LFSR/MISR
    ])
    def test_faulty_program_identical(self, victim, seed):
        soc = fig1_soc()
        clean = soc.core_named(victim).build_scannable()
        fault = random_detectable_fault(clean, seed=seed)
        (legacy, _), (kernel, _) = _run_both(
            soc, inject_faults={victim: fault}
        )
        assert legacy == kernel
        assert not kernel.passed
        failed = [c for c in kernel.core_results() if not c.passed]
        assert [c.name for c in failed] == [victim]

    def test_hierarchical_fault_identical(self):
        soc = fig1_soc()
        clean = soc.core_named("core5").inner.core_named(
            "core5b").build_scannable()
        fault = random_detectable_fault(clean, seed=9)
        (legacy, _), (kernel, _) = _run_both(
            soc, inject_faults={"core5/core5b": fault}
        )
        assert legacy == kernel
        assert not kernel.passed

    def test_mismatch_counts_are_bit_exact(self):
        """Not just pass/fail: the per-core mismatch and compare
        counters agree bit for bit."""
        soc = fig1_soc()
        clean = soc.core_named("core2").build_scannable()
        fault = random_detectable_fault(clean, seed=3)
        (legacy, _), (kernel, _) = _run_both(
            soc, inject_faults={"core2": fault}
        )
        for result_l, result_k in zip(
            legacy.core_results(), kernel.core_results()
        ):
            assert result_l.mismatches == result_k.mismatches
            assert result_l.bits_compared == result_k.bits_compared
            assert result_l.detail == result_k.detail


class TestItc02Equivalence:
    def test_benchmark_soc_clean(self):
        (legacy, sys_l), (kernel, sys_k) = _run_both(
            benchmark_soc("d695")
        )
        assert legacy == kernel
        assert kernel.passed
        _assert_same_state(sys_l, sys_k)

    def test_benchmark_soc_faulty(self):
        soc = benchmark_soc("g1023")
        victim = next(
            core for core in soc.cores if core.method.value == "scan"
        )
        fault = random_detectable_fault(
            victim.build_scannable(), seed=4
        )
        (legacy, _), (kernel, _) = _run_both(
            soc, inject_faults={victim.name: fault}
        )
        assert legacy == kernel
        assert not kernel.passed

    @pytest.mark.parametrize("seed", range(3))
    def test_random_soc_equivalence(self, seed):
        (legacy, sys_l), (kernel, sys_k) = _run_both(
            random_soc(seed, num_cores=6, bus_width=6)
        )
        assert legacy == kernel
        _assert_same_state(sys_l, sys_k)


class TestRetestEquivalence:
    def test_retested_cores_agree_including_divergent_external(self):
        """Re-testing cores in later sessions starts from post-test
        state.  An external core's second run legitimately fails (its
        live chain no longer matches the fresh golden shadow) -- both
        backends must agree bit for bit on that too."""
        from repro.soc.core import CoreSpec
        from repro.soc.soc import SocSpec

        soc = SocSpec(name="retest", bus_width=2, cores=(
            CoreSpec.external("e1", seed=4, num_ffs=8,
                              stream_patterns=6),
            CoreSpec.scan("s1", seed=5, num_ffs=6, num_chains=1,
                          num_pis=2, num_pos=2, atpg_max_patterns=8),
        ))
        soc.validate()
        plan = (PlanBuilder()
                .add_session(flat_assignment("e1", (0,)),
                             flat_assignment("s1", (1,)))
                .add_session(flat_assignment("e1", (1,)))
                .add_session(flat_assignment("s1", (0,)))
                .build())
        results = {}
        for backend in ("legacy", "kernel"):
            executor = SessionExecutor(build_system(soc), backend=backend)
            results[backend] = executor.run_plan(plan)
        assert results["legacy"] == results["kernel"]
        second_external = results["kernel"].sessions[1].core_results[0]
        assert not second_external.passed  # diverged from fresh shadow


class TestMaintenanceEquivalence:
    def test_undisturbed_checks_agree(self):
        soc = fig1_soc()
        plan, undisturbed = maintenance_session(soc, ["core3"])
        sessions = []
        for backend in ("legacy", "kernel"):
            system = build_system(soc)
            # Mid-mission state: every functional core holds live bits.
            for node in system.walk():
                if node.wrapper is not None and node.wrapper.core is not None:
                    core = node.wrapper.core
                    core.ff_values = [
                        (3 * i + 1) % 2 for i in range(core.num_ffs)
                    ]
            executor = SessionExecutor(system, backend=backend)
            sessions.append(executor.run_session(
                plan, label="maintenance", undisturbed_paths=undisturbed
            ))
        legacy, kernel = sessions
        assert legacy == kernel
        assert kernel.passed
        assert kernel.undisturbed and all(kernel.undisturbed.values())


class TestBackendSelection:
    def test_auto_uses_kernel_when_possible(self):
        executor = SessionExecutor(build_system(fig1_soc()))
        assert executor._use_kernel()

    def test_trace_falls_back_to_legacy(self):
        executor = SessionExecutor(
            build_system(fig1_soc()), trace=TraceRecorder()
        )
        assert not executor._use_kernel()

    def test_kernel_backend_rejects_trace(self):
        executor = SessionExecutor(
            build_system(fig1_soc()), trace=TraceRecorder(),
            backend="kernel",
        )
        with pytest.raises(ConfigurationError, match="trace"):
            executor.run_plan(
                PlanBuilder().add_session(
                    flat_assignment("core6", (0,))
                ).build()
            )

    def test_gate_level_systems_stay_legacy(self):
        system = build_system(fig1_soc(), gate_level={"core6"})
        assert not kernel_supports(system)
        executor = SessionExecutor(system)
        assert not executor._use_kernel()
        with pytest.raises(ConfigurationError, match="gate-level"):
            KernelExecutor(system)

    @pytest.mark.parametrize("build, blocker", [
        (lambda soc: _faulty(soc, "open_wire", 1),
         "open bus wire 1"),
        (lambda soc: _faulty(soc, "bridge", 0, 2),
         "bridged bus wires 0 and 2"),
        (lambda soc: _faulty(soc, "dead_cell", "core2", 3),
         "dead boundary cell 3 of core2"),
        (lambda soc: build_system(soc, gate_level={"core6"}),
         "gate-level CAS core6"),
    ], ids=["open-wire", "bridge", "dead-cell", "gate-level"])
    def test_pinned_kernel_names_the_blocker(self, build, blocker):
        """A pinned kernel refuses each non-kernel system with the
        reason it actually has, not a blanket gate-level message."""
        soc = fig1_soc()
        system = build(soc)
        assert not kernel_supports(system)
        plan = CasBusTamDesign.for_soc(soc).executable_plan()
        with pytest.raises(ConfigurationError, match=blocker):
            SessionExecutor(system, backend="kernel").run_plan(plan)
        with pytest.raises(ConfigurationError, match=blocker):
            KernelExecutor(system)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SessionExecutor(build_system(fig1_soc()), backend="warp")

    def test_errors_match_legacy_shapes(self):
        """Compile-time validation raises the same error types/messages
        the legacy backend raises mid-run."""
        from repro.sim.plan import CoreAssignment

        for backend in ("legacy", "kernel"):
            executor = SessionExecutor(
                build_system(fig1_soc()), backend=backend
            )
            plan = PlanBuilder().add_session(
                CoreAssignment(path=("core5", "core5a"),
                               levels=((0, 1), (0,))),
                CoreAssignment(path=("core5", "core5b"),
                               levels=((1, 0), (0, 1))),
            ).build()
            with pytest.raises(ConfigurationError, match="conflicting"):
                executor.run_plan(plan)


class TestApiBackendPlumbing:
    def test_experiment_backend_switch(self):
        from repro.api import Experiment

        results = {
            backend: (Experiment(fig1_soc())
                      .with_backend(backend)
                      .run())
            for backend in ("legacy", "kernel", "auto")
        }
        assert results["legacy"] == results["kernel"] == results["auto"]
        assert results["kernel"].source == "simulation"

    def test_experiment_rejects_unknown_backend(self):
        from repro.api import Experiment

        with pytest.raises(ConfigurationError, match="backend"):
            Experiment(fig1_soc()).with_backend("warp")

    def test_facade_backend_switch(self):
        tam = CasBusTamDesign.for_soc(fig1_soc())
        assert tam.run(backend="kernel") == tam.run(backend="legacy")
