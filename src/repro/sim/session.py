"""Test-session execution: configure the TAM, move real bits, decide
pass/fail.

The executor turns a :class:`~repro.sim.plan.TestPlan` into clocked
activity on a :class:`~repro.sim.system.CasBusSystem`:

1. **Staged configuration** per session.  Stage A splices the wrappers
   whose instruction must change (CAS CHAIN instruction, the paper's
   optional tri-state mechanism); stage B shifts the final CAS switch
   schemes together with the wrapper instructions and updates
   atomically.  Cycle costs are counted exactly.
2. **Test phase.**  Each tested core gets a *driver* that knows its
   per-cycle stimulus, expected observations and wrapper controls:
   scan cores stream ATPG patterns and compare responses bit by bit;
   BISTed cores wait out the self-test and check the signature
   read-out; externally tested cores replay an off-chip LFSR source
   against an off-chip MISR sink with a golden shadow model.
3. **Results.**  Per-core pass/fail with bit-level mismatch counts,
   per-session cycle budgets (configuration vs test), and optional
   non-interference checks (cores in NORMAL mode must keep their state
   -- the paper's maintenance-test scenario).

Two interchangeable backends execute plans:

* ``"kernel"`` -- the compiled engine of :mod:`repro.sim.kernel`:
  sessions are lowered once into bit-packed integer programs and run
  as whole shift bursts; faulty scan captures are vectorised on the
  array evaluator of :mod:`repro.sim.batch`.  One kernel routine runs
  a session for one instance and, under :meth:`SessionExecutor.run_batch`,
  for every stuck-at scenario of a batch at once.  Much faster,
  bit-exact.
* ``"legacy"`` -- the original object-stepping path below: every cycle
  routes the bus through every node object.  Required for per-cycle
  :class:`~repro.sim.trace.TraceRecorder` capture, for transport
  defects (open/bridged bus wires, dead boundary cells) and for
  gate-level CAS instances.

The default ``backend="auto"`` picks the kernel whenever it applies
and falls back otherwise; a pinned ``"kernel"`` raises
:class:`~repro.errors.ConfigurationError` naming the blocker instead.
:meth:`SessionExecutor.run_batch` keeps that rule: scenarios the
kernel cannot take run one fresh system each on the executor's own
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import values as lv
from repro.diagnose.inject import build_faulty_system
from repro.diagnose.syndrome import (
    KIND_BIST,
    KIND_EXTERNAL,
    KIND_SCAN,
    Syndrome,
)
from repro.errors import ConfigurationError, SimulationError
from repro.core.instruction import CHAIN_CODE
from repro.bist.lfsr import Lfsr
from repro.bist.misr import Misr
from repro.scan.atpg import TestSet
from repro.soc.core import CoreSpec, TestMethod
from repro.obs.metrics import counter as obs_counter
from repro.obs.spans import span as obs_span
from repro.sim.config import configuration_targets, state_snapshot
from repro.sim.nodes import BistNode, CasNode, NodeControls, ScanNode
from repro.sim.plan import CoreAssignment, SessionPlan, TestPlan
from repro.sim.system import CasBusSystem, build_system
from repro.sim.testsets import test_set_for
from repro.sim.trace import TraceRecorder
from repro.wrapper.wir import Wir
from repro.wrapper.wrapper import P1500Wrapper

#: Accepted ``SessionExecutor(backend=...)`` values.
BACKENDS = ("auto", "kernel", "legacy")


@dataclass
class CoreResult:
    """Outcome of one core's test inside one session.

    ``syndrome`` is populated only when the executor runs with
    ``capture_syndromes=True`` (and never for interconnect results);
    both backends then emit identical
    :class:`~repro.diagnose.syndrome.Syndrome` values.
    """

    name: str
    method: str
    passed: bool
    bits_compared: int
    mismatches: int
    detail: str = ""
    syndrome: "Syndrome | None" = None


@dataclass
class SessionResult:
    """Outcome of one session."""

    label: str
    config_cycles: int
    test_cycles: int
    core_results: list[CoreResult] = field(default_factory=list)
    undisturbed: dict[str, bool] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.config_cycles + self.test_cycles

    @property
    def passed(self) -> bool:
        return (all(result.passed for result in self.core_results)
                and all(self.undisturbed.values()))


@dataclass
class ProgramResult:
    """Outcome of a full test program (all sessions)."""

    sessions: list[SessionResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(session.total_cycles for session in self.sessions)

    @property
    def config_cycles(self) -> int:
        return sum(session.config_cycles for session in self.sessions)

    @property
    def test_cycles(self) -> int:
        return sum(session.test_cycles for session in self.sessions)

    @property
    def passed(self) -> bool:
        return all(session.passed for session in self.sessions)

    def core_results(self) -> list[CoreResult]:
        return [result for session in self.sessions
                for result in session.core_results]


class SessionExecutor:
    """Runs test plans against one system instance.

    Args:
        system: the live behavioural system.
        trace: optional per-cycle signal recorder (forces the legacy
            backend, which is the only one that sees individual
            cycles).
        backend: ``"auto"`` (default, compiled kernel when possible),
            ``"kernel"`` (force the compiled engine; raises when it
            cannot apply) or ``"legacy"`` (original object stepping).
        capture_syndromes: record bit-level failing positions into
            :attr:`CoreResult.syndrome` (off by default; cycle counts
            are unaffected either way).
        verify: statically verify the system wiring and each session's
            configuration/program artifacts before dispatching them
            (:mod:`repro.verify`); raises
            :class:`~repro.errors.VerificationError` instead of
            executing a malformed plan.
    """

    def __init__(self, system: CasBusSystem,
                 trace: TraceRecorder | None = None,
                 backend: str = "auto",
                 capture_syndromes: bool = False,
                 verify: bool = True) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
            )
        self.system = system
        self.trace = trace
        self.backend = backend
        self.capture_syndromes = capture_syndromes
        self.verify = verify
        self._test_sets: dict[str, TestSet] = {}
        self._cycle = 0  # global clock, spans sessions
        self._kernel = None
        self._system_verified = False

    # -- pre-dispatch static verification --------------------------------

    def _verify_session(
        self,
        session: SessionPlan,
        array_paths: "set[tuple[str, ...]]",
    ) -> None:
        """Fail fast on invariant violations before anything executes.

        Runs after the plan's own structural validation, so the
        planner's :class:`~repro.errors.ConfigurationError` surface is
        unchanged; what this adds is the static verifier's deeper
        checks (system wiring bijections, configuration target codes,
        compiled program packing, and the array program of every scan
        core in ``array_paths`` -- the captures the compiled kernel
        evaluates on the array evaluator).
        """
        from repro.verify import (
            verify_batch_program,
            verify_session_programs,
            verify_system,
        )

        name = self.system.soc.name
        if not self._system_verified:
            # Raise on wiring violations *before* compiling session
            # programs: configuration targets are meaningless (and can
            # raise ConfigurationError) on a corrupted system.
            verify_system(self.system).raise_if_failed(name)
            self._system_verified = True
        verify_session_programs(self.system, session).raise_if_failed(name)
        for assignment in session.assignments:
            if assignment.path not in array_paths:
                continue
            node = self.system.node_at(assignment.path)
            # Function-local: repro.sim.batch imports this module, and
            # fault-free runs never load numpy.
            from repro.sim.batch import batch_scan_program

            verify_batch_program(
                batch_scan_program(node.spec, node.wrapper), node.spec,
                location=f"batch/{assignment.name}",
            ).raise_if_failed(name)

    def _scan_paths(self, *, faulty_only: bool) -> "set[tuple[str, ...]]":
        """Paths of this system's wrapped scan cores whose captures the
        compiled kernel evaluates on arrays: with ``faulty_only``, the
        plain scan cores carrying an injected fault.  None on the
        legacy backend, which never runs the array evaluator."""
        if self.backend == "legacy":
            return set()
        return {
            tuple(node.path.split("/"))
            for node in self.system.walk()
            if isinstance(node, ScanNode) and node.wrapper is not None
            and not (faulty_only and (
                node.spec.method != TestMethod.SCAN
                or node.wrapper.core is None
                or node.wrapper.core.fault is None
            ))
        }

    # -- backend dispatch ------------------------------------------------

    def _use_kernel(self) -> bool:
        from repro.sim.kernel import kernel_blocker

        if self.backend == "legacy":
            return False
        if self.backend == "kernel":
            if self.trace is not None:
                raise ConfigurationError(
                    "the kernel backend runs whole shift bursts and "
                    "records no per-cycle trace; use backend='legacy' "
                    "(or 'auto') for tracing"
                )
            blocker = kernel_blocker(self.system)
            if blocker is not None:
                raise ConfigurationError(
                    f"{self.system.soc.name}: {blocker} needs "
                    f"backend='legacy'"
                )
            return True
        return self.trace is None and kernel_blocker(self.system) is None

    def _kernel_executor(self):
        from repro.sim.kernel import KernelExecutor

        if self._kernel is None:
            self._kernel = KernelExecutor(
                self.system, test_sets=self._test_sets,
                capture_syndromes=self.capture_syndromes,
            )
        return self._kernel

    # -- public API ------------------------------------------------------

    def run_plan(self, plan: TestPlan) -> ProgramResult:
        with obs_span(
            "executor.run_plan",
            sessions=len(plan.sessions),
            backend=self.backend,
        ):
            if self.verify:
                plan.validate(self.system.n)
                array_paths = self._scan_paths(faulty_only=True)
                for session in plan.sessions:
                    self._verify_session(session, array_paths)
            if self._use_kernel():
                return self._kernel_executor().run_plan(plan)
            plan.validate(self.system.n)
            program = ProgramResult()
            for index, session in enumerate(plan.sessions):
                label = session.label or f"session{index}"
                program.sessions.append(
                    self._run_session_legacy(session, label=label)
                )
            return program

    def run_batch(self, plan: TestPlan, scenarios) -> "list[ProgramResult]":
        """Run ``plan`` against N independent scenario instances.

        Each scenario is ``None`` (clean), an ``inject_faults``-style
        mapping, or a :class:`~repro.diagnose.inject.DefectScenario`.
        Fresh-instance semantics: element ``i`` is byte-identical to
        running the plan on a brand-new system built with scenario
        ``i`` applied -- this executor's own live system is never
        touched.

        Stuck-at scenarios share one freshly built system and run in
        one compiled-kernel dispatch per session
        (:meth:`~repro.sim.kernel.KernelExecutor.run_batch`).  The rest
        -- transport defects, and every scenario on
        ``backend="legacy"`` -- run one fresh system each, on this
        executor's backend: ``"auto"`` takes the legacy path for
        transport defects, a pinned ``"kernel"`` raises
        :class:`~repro.errors.ConfigurationError`.  So does an attached
        trace recorder: the scenarios run on fresh instances that never
        see it.
        """
        # Function-local: repro.sim.batch imports this module.
        from repro.sim.batch import scenario_overlay

        if self.trace is not None:
            raise ConfigurationError(
                "run_batch executes every scenario on a fresh system "
                "instance and records no trace; use run_plan on a "
                "system with the scenario applied for tracing"
            )
        scenarios = list(scenarios)
        overlays = [scenario_overlay(scenario) for scenario in scenarios]
        batchable = [
            overlay is not None and self.backend != "legacy"
            for overlay in overlays
        ]
        batched = [index for index, ok in enumerate(batchable) if ok]
        soc = self.system.soc
        results: "list[ProgramResult | None]" = [None] * len(scenarios)
        with obs_span(
            "batch.run", scenarios=len(scenarios), batched=len(batched)
        ):
            # Per-scenario runs first: a pinned kernel refuses a
            # transport defect before the batch dispatch does any work.
            obs_counter("batch.fallback_scenarios").inc(
                len(scenarios) - len(batched)
            )
            for index, scenario in enumerate(scenarios):  # RL005
                if batchable[index]:
                    continue
                # A stuck-at overlay is exactly what build_faulty_system
                # injects; transport defects have none.
                overlay = overlays[index]
                system = (
                    build_faulty_system(soc, scenario) if overlay is None
                    else build_system(soc, inject_faults=overlay)
                )
                results[index] = self._sibling(system).run_plan(plan)
            if batched:
                template = self._sibling(build_system(soc))
                kernel = template._kernel_executor()
                if self.verify:
                    plan.validate(template.system.n)
                    array_paths = template._scan_paths(faulty_only=False)
                    for session in plan.sessions:
                        template._verify_session(session, array_paths)
                programs = kernel.run_batch(
                    plan, [overlays[index] for index in batched]
                )
                for index, program in zip(batched, programs):
                    results[index] = program
        return results  # type: ignore[return-value]

    def _sibling(self, system: CasBusSystem) -> "SessionExecutor":
        """An executor with this one's settings on another instance."""
        return SessionExecutor(
            system, backend=self.backend,
            capture_syndromes=self.capture_syndromes, verify=self.verify,
        )

    def run_session(
        self,
        session: SessionPlan,
        *,
        label: str = "session",
        undisturbed_paths: Sequence[tuple[str, ...]] = (),
    ) -> SessionResult:
        if self.verify:
            session.validate(self.system.n)
            self._verify_session(
                session, self._scan_paths(faulty_only=True)
            )
        if self._use_kernel():
            return self._kernel_executor().run_session(
                session, label=label, undisturbed_paths=undisturbed_paths
            )
        return self._run_session_legacy(
            session, label=label, undisturbed_paths=undisturbed_paths
        )

    def _run_session_legacy(
        self,
        session: SessionPlan,
        *,
        label: str = "session",
        undisturbed_paths: Sequence[tuple[str, ...]] = (),
    ) -> SessionResult:
        session.validate(self.system.n)
        snapshots = {
            "/".join(path): self._state_snapshot(path)
            for path in undisturbed_paths
        }
        with obs_span("executor.session", label=label, backend="legacy"):
            with obs_span("executor.config"):
                config_cycles = self._configure(session)
            drivers = [self._driver_for(assignment)
                       for assignment in session.assignments]
            with obs_span("executor.shift") as shift_span:
                test_cycles = self._run_test_phase(drivers)
                shift_span.set(cycles=test_cycles)
            result = SessionResult(
                label=label,
                config_cycles=config_cycles,
                test_cycles=test_cycles,
                core_results=[driver.finish() for driver in drivers],
            )
        for name, before in snapshots.items():
            after = self._state_snapshot(tuple(name.split("/")))
            result.undisturbed[name] = (before == after)
        return result

    def run_interconnect_test(
        self,
        *,
        label: str = "interconnect",
        patterns: "list[dict[str, int]] | None" = None,
    ) -> SessionResult:
        """EXTEST interconnect test of every SoC net (section 4).

        Wrappers of the involved cores go to EXTEST; for each pattern,
        driver output boundary cells are loaded through the CAS-BUS, a
        transfer cycle launches the values across the SoC nets (with
        any injected interconnect faults applied), sink input cells
        capture, and the captured bits are shifted out and compared.

        One :class:`CoreResult` per net (method ``"interconnect"``).
        Nets whose cores do not all fit on the bus together are tested
        in automatically chosen phases.
        """
        from repro.sim.interconnect import apply_faults, counting_patterns

        nets = list(self.system.soc.interconnects)
        if not nets:
            raise ConfigurationError(
                f"{self.system.soc.name}: no interconnects declared"
            )
        phases = self._interconnect_phases(nets)
        net_results: dict[str, CoreResult] = {}
        total_config = 0
        total_test = 0
        for phase_nets in phases:
            config, test, results = self._run_interconnect_phase(
                phase_nets,
                patterns or counting_patterns(phase_nets),
                apply_faults,
            )
            total_config += config
            total_test += test
            net_results.update(results)
        return SessionResult(
            label=label,
            config_cycles=total_config,
            test_cycles=total_test,
            core_results=[net_results[net.name] for net in nets],
        )

    def _interconnect_phases(self, nets):
        """Group nets so each phase's cores fit on the bus at once."""
        phases: list[list] = []
        phase: list = []
        used_wires = 0
        cores_in_phase: set[str] = set()
        for net in nets:
            cores = {net.source[0], net.sink[0]}
            extra = sum(
                self.system.node_at((name,)).cas.p
                for name in cores - cores_in_phase
            )
            if phase and used_wires + extra > self.system.n:
                phases.append(phase)
                phase, used_wires, cores_in_phase = [], 0, set()
                extra = sum(
                    self.system.node_at((name,)).cas.p for name in cores
                )
            if extra > self.system.n and not cores_in_phase:
                raise ConfigurationError(
                    f"net {net.name}: its two cores need {extra} wires, "
                    f"bus has {self.system.n}"
                )
            phase.append(net)
            used_wires += extra
            cores_in_phase |= cores
        if phase:
            phases.append(phase)
        return phases

    def _run_interconnect_phase(self, nets, patterns, apply_faults):
        core_names: list[str] = []
        for net in nets:
            for name in (net.source[0], net.sink[0]):
                if name not in core_names:
                    core_names.append(name)
        assignments = []
        cursor = 0
        for name in core_names:
            node = self.system.node_at((name,))
            wires = tuple(range(cursor, cursor + node.cas.p))
            cursor += node.cas.p
            assignments.append(CoreAssignment(
                path=(name,), levels=(wires,), wir_override="EXTEST"
            ))
        session = SessionPlan(assignments=tuple(assignments),
                              label="extest")
        config_cycles = self._configure(session)
        wrappers: dict[str, P1500Wrapper] = {}
        port_wire: dict[str, int] = {}
        for assignment in assignments:
            node = self.system.node_at(assignment.path)
            assert node.wrapper is not None
            wrappers[assignment.path[0]] = node.wrapper
            port_wire[assignment.path[0]] = assignment.levels[0][0]
        boundary_len = {
            name: len(wrapper.boundary)
            for name, wrapper in wrappers.items()
        }
        depth = max(boundary_len.values())
        mismatches: dict[str, int] = {net.name: 0 for net in nets}
        compared: dict[str, int] = {net.name: 0 for net in nets}
        test_cycles = 0
        # expect[(core, cycle_in_window)] -> (net_name, expected_bit)
        expect: dict[tuple[str, int], tuple[str, int]] = {}
        windows = [*patterns, None]  # final flush window
        for pattern in windows:
            streams = self._interconnect_streams(
                nets, wrappers, pattern, depth
            )
            for offset in range(depth):
                for node in self.system.walk():
                    node.controls = NodeControls()
                bus_drive = {
                    port_wire[name]: streams[name][offset]
                    for name in core_names
                }
                bus_in = tuple(
                    lv.ONE if bus_drive.get(w) else lv.ZERO
                    for w in range(self.system.n)
                )
                bus_out = self.system.route_bus(bus_in, config=False)
                for (core, when), (net_name, want) in expect.items():
                    if when == offset:
                        got = _to_bit(bus_out[port_wire[core]])
                        compared[net_name] += 1
                        if got != want:
                            mismatches[net_name] += 1
                for name in core_names:
                    node = self.system.node_at((name,))
                    node.controls.shift = True
                self.system.tick_all(config=False)
                test_cycles += 1
                self._cycle += 1
            for node in self.system.walk():
                node.controls = NodeControls()
            if pattern is None:
                break
            # Transfer-capture cycle: drive nets, apply faults, capture.
            driven = {
                net.name: wrappers[net.source[0]].extest_driven_output(
                    net.source[1])
                for net in nets
            }
            received = apply_faults(
                driven, self.system.interconnect_faults
            )
            by_sink: dict[str, dict[int, int]] = {}
            for net in nets:
                sink_core, pi_index = net.sink
                by_sink.setdefault(sink_core, {})[pi_index] = received[
                    net.name]
            for sink_core, values in by_sink.items():
                wrappers[sink_core].extest_capture_inputs(values)
            test_cycles += 1
            self._cycle += 1
            # Expected observations for the next shift window: input
            # cell ``pi`` of core c emerges at cycle B_c - 1 - pi with
            # the fault-free (driven) value.
            expect = {}
            for net in nets:
                sink_core, pi_index = net.sink
                when = boundary_len[sink_core] - 1 - pi_index
                expect[(sink_core, when)] = (net.name, driven[net.name])
        results = {
            net.name: CoreResult(
                name=net.name,
                method="interconnect",
                passed=mismatches[net.name] == 0,
                bits_compared=compared[net.name],
                mismatches=mismatches[net.name],
                detail=(
                    f"{net.source[0]}.po{net.source[1]} -> "
                    f"{net.sink[0]}.pi{net.sink[1]}"
                ),
            )
            for net in nets
        }
        return config_cycles, test_cycles, results

    def _interconnect_streams(self, nets, wrappers, pattern, depth):
        """Per-core scan-in streams loading one EXTEST pattern."""
        streams: dict[str, list[int]] = {}
        for name, wrapper in wrappers.items():
            target = [0] * len(wrapper.boundary)
            if pattern is not None:
                num_inputs = len(wrapper.boundary.input_cells)
                for net in nets:
                    if net.source[0] == name:
                        target[num_inputs + net.source[1]] = pattern[
                            net.name]
            stream = list(reversed(target))
            streams[name] = [0] * (depth - len(stream)) + stream
        return streams

    # -- configuration -----------------------------------------------------------

    def _configure(self, session: SessionPlan) -> int:
        """Two-stage reconfiguration; returns cycle cost."""
        cas_targets, wir_targets = self._targets_for(session)
        # Every targeted wrapper is spliced, even when the instruction
        # is unchanged: the WIR update pulse is what (re)arms the test
        # resource (a BIST engine restarts on it).
        splice: dict[str, int] = {
            path: Wir.code_of(mode) for path, mode in wir_targets.items()
        }
        cycles = 0
        if splice:
            stage_a = {f"{path}.cas": CHAIN_CODE for path in splice}
            cycles += self.system.run_configuration(stage_a)
        stage_b = dict(cas_targets)
        stage_b.update(
            {f"{path}.wir": code for path, code in splice.items()}
        )
        cycles += self.system.run_configuration(stage_b)
        self._verify_configuration(cas_targets, wir_targets)
        self._cycle += cycles
        return cycles

    def _targets_for(
        self, session: SessionPlan
    ) -> tuple[dict[str, int], dict[str, str]]:
        """Final CAS codes (all nodes) and WIR modes (changed nodes).

        Shared with the kernel backend -- see
        :func:`repro.sim.config.configuration_targets`.
        """
        return configuration_targets(self.system, session)

    def _verify_configuration(
        self,
        cas_targets: dict[str, int],
        wir_targets: dict[str, str],
    ) -> None:
        for node in self.system.walk():
            want = cas_targets[f"{node.path}.cas"]
            if node.cas.active_code != want:
                raise SimulationError(
                    f"{node.path}: CAS landed on {node.cas.active_code}, "
                    f"wanted {want}"
                )
        for path, mode in wir_targets.items():
            node = self.system.node_at(tuple(path.split("/")))
            assert node.wrapper is not None
            if node.wrapper.mode != mode:
                raise SimulationError(
                    f"{path}: wrapper mode {node.wrapper.mode}, "
                    f"wanted {mode}"
                )

    # -- test phase --------------------------------------------------------------

    def _run_test_phase(self, drivers: list["_TerminalDriver"]) -> int:
        for node in self.system.walk():
            node.controls = NodeControls()
        total = max((driver.total_cycles for driver in drivers), default=0)
        for local_cycle in range(total):
            bus_drive: dict[int, int] = {}
            for driver in drivers:
                drives, shift, capture = driver.plan(local_cycle)
                for wire, bit in drives.items():
                    if wire in bus_drive and bus_drive[wire] != bit:
                        raise SimulationError(
                            f"two drivers on wire {wire} at cycle "
                            f"{local_cycle}"
                        )
                    bus_drive[wire] = bit
                driver.node.controls.shift = shift
                driver.node.controls.capture = capture
            bus_in = tuple(
                lv.ONE if bus_drive.get(w) else lv.ZERO
                for w in range(self.system.n)
            )
            bus_out = self.system.route_bus(bus_in, config=False)
            if self.trace is not None:
                self.trace.record_vector("bus_in", self._cycle, bus_in)
                self.trace.record_vector("bus_out", self._cycle, bus_out)
            for driver in drivers:
                driver.observe(local_cycle, bus_out)
            self.system.tick_all(config=False)
            self._cycle += 1
        for node in self.system.walk():
            node.controls = NodeControls()
        return total

    # -- drivers -----------------------------------------------------------------

    def _driver_for(self, assignment: CoreAssignment) -> "_TerminalDriver":
        node = self.system.node_at(assignment.path)
        capture = self.capture_syndromes
        if isinstance(node, BistNode):
            return _BistDriver(node, assignment, capture=capture)
        if node.spec.method == TestMethod.EXTERNAL:
            return _ExternalDriver(node, assignment, capture=capture)
        if isinstance(node, ScanNode):
            return _ScanDriver(node, assignment,
                               self._test_set_for(node), capture=capture)
        raise ConfigurationError(
            f"{assignment.name}: no driver for {node.spec.method}"
        )

    def _test_set_for(self, node: ScanNode) -> TestSet:
        cached = self._test_sets.get(node.path)
        if cached is not None:
            return cached
        test_set = test_set_for(node.spec)
        self._test_sets[node.path] = test_set
        return test_set

    # -- helpers ------------------------------------------------------------------

    def _state_snapshot(self, path: tuple[str, ...]):
        return state_snapshot(self.system, path)


def _to_bit(value: int) -> int:
    return 1 if value == lv.ONE else 0


class _TerminalDriver:
    """Per-core stimulus/observation timeline inside one session."""

    def __init__(self, node: CasNode, assignment: CoreAssignment,
                 capture: bool = False) -> None:
        self.node = node
        self.assignment = assignment
        self.capture = capture
        self.total_cycles = 0
        self.bits_compared = 0
        self.mismatches = 0

    def plan(self, cycle: int) -> tuple[dict[int, int], bool, bool]:
        raise NotImplementedError

    def observe(self, cycle: int, bus_out: tuple[int, ...]) -> None:
        raise NotImplementedError

    def finish(self) -> CoreResult:
        raise NotImplementedError


class _ScanDriver(_TerminalDriver):
    """Streams ATPG patterns through the wrapper chains (fig 2a)."""

    def __init__(self, node: ScanNode, assignment: CoreAssignment,
                 test_set: TestSet, capture: bool = False) -> None:
        super().__init__(node, assignment, capture=capture)
        self._masks: dict[tuple[int, int], int] = {}
        wrapper = node.wrapper
        assert wrapper is not None
        self.wrapper = wrapper
        self.test_set = test_set
        self.lengths = wrapper.wrapper_chain_lengths()
        self.depth = max(self.lengths)
        self.top_wires = assignment.top_wires()
        if len(self.top_wires) != wrapper.p:
            raise ConfigurationError(
                f"{assignment.name}: {len(self.top_wires)} wires for "
                f"{wrapper.p} wrapper chains"
            )
        self.patterns = test_set.patterns
        self.num_patterns = len(self.patterns)
        # (depth shifts + 1 capture) per pattern + final flush.
        self.total_cycles = (self.depth + 1) * self.num_patterns + self.depth
        self._in_streams = [
            self._padded(wrapper.pattern_streams(p)) for p in self.patterns
        ]
        self._out_streams = [
            wrapper.expected_response_streams(r) for r in test_set.responses
        ]

    def _padded(self, streams: list[list[int]]) -> list[list[int]]:
        return [
            [0] * (self.depth - len(stream)) + stream for stream in streams
        ]

    def plan(self, cycle: int) -> tuple[dict[int, int], bool, bool]:
        if cycle >= self.total_cycles:
            return {}, False, False
        block, offset = divmod(cycle, self.depth + 1)
        if block < self.num_patterns:
            if offset == self.depth:
                return {}, False, True  # capture clock
            drives = {
                self.top_wires[c]: self._in_streams[block][c][offset]
                for c in range(self.wrapper.p)
            }
            return drives, True, False
        # Flush window: push the last response out with zero fill.
        return {wire: 0 for wire in self.top_wires}, True, False

    def observe(self, cycle: int, bus_out: tuple[int, ...]) -> None:
        if cycle >= self.total_cycles:
            return
        block, offset = divmod(cycle, self.depth + 1)
        if block < self.num_patterns:
            response_index = block - 1
        else:
            response_index = self.num_patterns - 1
            offset = cycle - (self.depth + 1) * self.num_patterns
        if response_index < 0 or offset >= self.depth:
            return
        expected = self._out_streams[response_index]
        for c in range(self.wrapper.p):
            if offset >= len(expected[c]):
                continue
            want = expected[c][offset]
            if want is None:
                continue
            got = _to_bit(bus_out[self.top_wires[c]])
            self.bits_compared += 1
            if got != want:
                self.mismatches += 1
                if self.capture:
                    key = (response_index, c)
                    self._masks[key] = self._masks.get(key, 0) | (1 << offset)

    def finish(self) -> CoreResult:
        return CoreResult(
            name=self.assignment.name,
            method="scan",
            passed=self.mismatches == 0,
            bits_compared=self.bits_compared,
            mismatches=self.mismatches,
            detail=(
                f"{self.num_patterns} patterns, chains={list(self.lengths)}, "
                f"coverage={self.test_set.fault_coverage:.2%}"
            ),
            syndrome=(Syndrome.from_masks(KIND_SCAN, self._masks)
                      if self.capture else None),
        )


class _BistDriver(_TerminalDriver):
    """Waits out the self-test, then checks the signature bits (fig 2b)."""

    def __init__(self, node: BistNode, assignment: CoreAssignment,
                 capture: bool = False) -> None:
        super().__init__(node, assignment, capture=capture)
        self.bist_node = node
        self.wire = assignment.top_wire(0)
        self.golden_bits = node.golden_signature_bits()
        self.total_cycles = node.spec.bist_cycles + len(self.golden_bits)
        self._xor_mask = 0

    def plan(self, cycle: int) -> tuple[dict[int, int], bool, bool]:
        return {}, False, False

    def observe(self, cycle: int, bus_out: tuple[int, ...]) -> None:
        start = self.bist_node.spec.bist_cycles
        index = cycle - start
        if 0 <= index < len(self.golden_bits):
            got = _to_bit(bus_out[self.wire])
            self.bits_compared += 1
            if got != self.golden_bits[index]:
                self.mismatches += 1
                # The signature streams out LSB first, so the serial
                # read-out index *is* the signature bit number.
                self._xor_mask |= 1 << index

    def finish(self) -> CoreResult:
        return CoreResult(
            name=self.assignment.name,
            method="bist",
            passed=self.mismatches == 0,
            bits_compared=self.bits_compared,
            mismatches=self.mismatches,
            detail=(
                f"{self.bist_node.spec.bist_cycles} BIST cycles, "
                f"{len(self.golden_bits)}-bit signature"
            ),
            syndrome=(Syndrome.signature_xor(KIND_BIST, self._xor_mask, 0)
                      if self.capture else None),
        )


class _ExternalDriver(_TerminalDriver):
    """Off-chip LFSR source and MISR sink with a golden shadow (fig 2c)."""

    def __init__(self, node: ScanNode, assignment: CoreAssignment,
                 capture: bool = False) -> None:
        super().__init__(node, assignment, capture=capture)
        spec: CoreSpec = node.spec
        self.wire = assignment.top_wire(0)
        self.source = Lfsr(16, seed=0xACE1 ^ (spec.seed or 1))
        self.live_misr = Misr(16)
        self.golden_misr = Misr(16)
        shadow_core = spec.build_scannable()
        self.shadow = P1500Wrapper(shadow_core, name=f"{node.path}.shadow")
        self.shadow.set_mode("INTEST")
        self.depth = self.shadow.max_chain_length
        self.num_patterns = spec.external_stream_patterns
        self.total_cycles = (self.depth + 1) * self.num_patterns + self.depth
        self._current_bit = 0

    def plan(self, cycle: int) -> tuple[dict[int, int], bool, bool]:
        if cycle >= self.total_cycles:
            return {}, False, False
        block, offset = divmod(cycle, self.depth + 1)
        if block < self.num_patterns and offset == self.depth:
            return {}, False, True
        self._current_bit = self.source.step()
        return {self.wire: self._current_bit}, True, False

    def observe(self, cycle: int, bus_out: tuple[int, ...]) -> None:
        if cycle >= self.total_cycles:
            return
        block, offset = divmod(cycle, self.depth + 1)
        capture = block < self.num_patterns and offset == self.depth
        if capture:
            self.shadow.test_capture()
            return
        self.live_misr.absorb_bit(_to_bit(bus_out[self.wire]))
        self.golden_misr.absorb_bit(self.shadow.test_returns()[0])
        self.shadow.test_shift((self._current_bit,))
        self.bits_compared += 1

    def finish(self) -> CoreResult:
        passed = self.live_misr.signature == self.golden_misr.signature
        return CoreResult(
            name=self.assignment.name,
            method="external",
            passed=passed,
            bits_compared=self.bits_compared,
            mismatches=0 if passed else 1,
            detail=(
                f"sink signature {self.live_misr.signature:#06x} vs "
                f"golden {self.golden_misr.signature:#06x}"
            ),
            syndrome=(Syndrome.signature_xor(
                KIND_EXTERNAL, self.live_misr.signature,
                self.golden_misr.signature,
            ) if self.capture else None),
        )
