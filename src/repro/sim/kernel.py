"""Compile-then-execute simulation kernel.

The legacy :class:`~repro.sim.session.SessionExecutor` moves every test
bit through per-cycle, per-node Python dispatch: each clock routes the
whole bus through every CAS object and shifts wrapper chains one
boundary cell at a time.  That is faithful but slow -- and for every
*valid* plan it is also redundant, because the architecture guarantees
independence: concurrently tested cores sit on disjoint bus wires, and
the paper's pairing heuristic routes a terminal's data in and out on
the same wire.  A core's test traffic therefore never interacts with
another core's, and a whole shift window can be computed at once.

This module exploits that in two phases:

* **compile** -- lower a session into flat per-core *programs*: serial
  chain geometry as index tuples, scan stimulus and expected-response
  streams bit-packed into Python ints (care bits separated, so
  don't-cares cost nothing), configuration targets and exact stage
  cycle costs.  Programs are pure functions of the frozen
  :class:`~repro.soc.core.CoreSpec`, so they are cached process-wide.
* **execute** -- one routine per session compiles it, applies the
  configuration and runs each compiled driver over a list of per-core
  fault overlays, once per *distinct* fault of each core.  A single
  instance (:meth:`KernelExecutor.run_session`) is the list of one --
  its own injected faults; a scenario batch
  (:meth:`KernelExecutor.run_batch`, behind
  :meth:`~repro.sim.session.SessionExecutor.run_batch`) passes every
  stuck-at scenario at once on one fault-free instance.  Fault-free
  scan captures cost nothing; faulty ones are vectorised on the array
  evaluator of :mod:`repro.sim.batch`.  Configuration is applied by
  loading the same register states the serial protocol would have
  shifted in, with the update pulses driven through the real node
  objects so side effects (BIST restarts, CHAIN splices) stay
  bit-exact.

The kernel reproduces the legacy backend's
:class:`~repro.sim.session.ProgramResult` exactly -- cycle counts,
pass/fail, bit-level mismatch counts, per-core detail strings -- and
leaves the live system objects in the same post-session state (chain
contents, wrapper modes, CAS codes), so non-interference snapshots and
mixed-backend usage agree.  Golden-equivalence tests in
``tests/integration/test_kernel_equivalence.py`` pin this.

What it does not do: record per-cycle traces (use the legacy backend
for VCD work), drive gate-level CAS instances (their whole point is
exercising the generated netlist cycle by cycle) or carry transport
defects (open/bridged bus wires, dead boundary cells).
:func:`kernel_blocker` names what keeps a system off the kernel;
:class:`~repro.sim.session.SessionExecutor` falls back automatically
under ``backend="auto"`` and raises under a pinned ``"kernel"``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.diagnose.syndrome import (
    KIND_BIST,
    KIND_EXTERNAL,
    KIND_SCAN,
    Syndrome,
)
from repro.errors import ConfigurationError, SimulationError
from repro.core.cas import CoreAccessSwitch
from repro.core.instruction import CHAIN_CODE
from repro.bist.lfsr import Lfsr
from repro.bist.misr import Misr
from repro.scan.atpg import TestSet
from repro.soc.core import CoreSpec, TestMethod
from repro.obs.metrics import histogram as obs_histogram
from repro.obs.spans import span as obs_span
from repro.sim.cache import BoundedCache
from repro.sim.config import configuration_targets, state_snapshot
from repro.sim.nodes import BistNode, CasNode, ScanNode
from repro.sim.plan import CoreAssignment, SessionPlan, TestPlan
from repro.sim.session import CoreResult, ProgramResult, SessionResult
from repro.sim.system import CasBusSystem
from repro.sim.testsets import test_set_for
from repro.wrapper.wir import Wir
from repro.wrapper.wrapper import P1500Wrapper


def kernel_blocker(system: CasBusSystem) -> "str | None":
    """What keeps the compiled kernel off this system, or ``None``.

    Physical transport defects -- broken/bridged bus wires or dead
    wrapper boundary cells (see :mod:`repro.diagnose.inject`) -- break
    the kernel's whole premise that test traffic crosses the TAM
    unmodified.  Gate-level CAS instances exist to exercise the
    generated netlist through the real serial protocol.  Both stay on
    the legacy backend.
    """
    if system.wire_faults:
        return f"open bus wire {min(system.wire_faults)}"
    if system.wire_bridges:
        wire_a, wire_b = system.wire_bridges[0]
        return f"bridged bus wires {wire_a} and {wire_b}"
    for node in system.walk():
        if not isinstance(node.cas, CoreAccessSwitch):
            return f"gate-level CAS {node.path}"
        if node.wrapper is not None:
            for index, cell in enumerate(node.wrapper.boundary.cells):
                if cell.stuck is not None:
                    return f"dead boundary cell {index} of {node.path}"
    return None


def kernel_supports(system: CasBusSystem) -> bool:
    """Whether the compiled kernel can run this system."""
    return kernel_blocker(system) is None


def _popcount(word: int) -> int:
    return bin(word).count("1")


# -- compiled per-core programs -----------------------------------------------


@dataclass(frozen=True)
class _ChainGeometry:
    """One wrapper chain as index tuples, scan-in side first."""

    in_pi: tuple[int, ...]    # PI number of each input boundary cell
    ff_ids: tuple[int, ...]   # core flip-flop id at each chain position
    out_po: tuple[int, ...]   # PO number of each output boundary cell

    @property
    def length(self) -> int:
        return len(self.in_pi) + len(self.ff_ids) + len(self.out_po)


def chain_geometries(wrapper: P1500Wrapper) -> tuple[_ChainGeometry, ...]:
    """Per-chain index geometry of a wrapped core.

    Public because the diagnosis engine (:mod:`repro.diagnose`) uses
    the same geometry to map observed syndromes back onto core
    flip-flops and primary outputs.
    """
    assert wrapper.core is not None
    layout = wrapper.chain_layout()
    return tuple(
        _ChainGeometry(
            in_pi=in_pi,
            ff_ids=tuple(wrapper.core.chains[c]),
            out_po=out_po,
        )
        for c, (in_pi, out_po) in enumerate(layout)
    )


@dataclass(frozen=True)
class _ScanProgram:
    """Everything a scan core's session test needs, precompiled."""

    test_set: TestSet
    geometries: tuple[_ChainGeometry, ...]
    lengths: tuple[int, ...]
    depth: int
    num_patterns: int
    total_cycles: int
    bits_compared: int
    #: ``want_care[r][c]`` = packed (expected, care-mask) ints for
    #: response ``r`` emerging on chain ``c``.
    want_care: tuple[tuple[tuple[int, int], ...], ...]
    detail: str


#: LRU-bounded like :data:`repro.sim.testsets.MAX_CACHED`, so sweeps
#: over generated workloads cannot grow memory monotonically.
MAX_CACHED_PROGRAMS = 1024

_SCAN_PROGRAMS: "BoundedCache[CoreSpec, _ScanProgram]" = BoundedCache(
    MAX_CACHED_PROGRAMS, name="scan_programs"
)


def _scan_program(spec: CoreSpec, wrapper: P1500Wrapper) -> _ScanProgram:
    cached = _SCAN_PROGRAMS.get(spec)
    if cached is not None:
        return cached
    test_set = test_set_for(spec)
    geometries = chain_geometries(wrapper)
    lengths = tuple(geo.length for geo in geometries)
    depth = max(lengths)
    num_patterns = len(test_set.patterns)
    want_care = tuple(
        tuple(
            _pack_expected(geo, response) for geo in geometries
        )
        for response in test_set.responses
    )
    program = _ScanProgram(
        test_set=test_set,
        geometries=geometries,
        lengths=lengths,
        depth=depth,
        num_patterns=num_patterns,
        # (depth shifts + 1 capture) per pattern + final flush.
        total_cycles=(depth + 1) * num_patterns + depth,
        bits_compared=num_patterns * sum(
            len(geo.ff_ids) + len(geo.out_po) for geo in geometries
        ),
        want_care=want_care,
        detail=(
            f"{num_patterns} patterns, chains={list(lengths)}, "
            f"coverage={test_set.fault_coverage:.2%}"
        ),
    )
    _SCAN_PROGRAMS.put(spec, program)
    return program


def _pack_expected(geo: _ChainGeometry, response) -> tuple[int, int]:
    """Packed (want, care) for one response on one chain.

    Input-cell positions echo the next pattern's PI load, not core
    logic, so they are don't-care -- exactly the ``None`` entries of
    :meth:`~repro.wrapper.wrapper.P1500Wrapper.expected_response_streams`.
    """
    want = 0
    care = 0
    contents = (
        [None] * len(geo.in_pi)
        + [response.ff_values[ff] for ff in geo.ff_ids]
        + [response.po_values[po] for po in geo.out_po]
    )
    for offset, value in enumerate(reversed(contents)):
        if value is None:
            continue
        care |= 1 << offset
        want |= value << offset
    return want, care


# -- kernel executor ----------------------------------------------------------


@dataclass
class _CompiledDriver:
    """One tested terminal inside a compiled session."""

    kind: str  # "scan" | "bist" | "external"
    node: CasNode
    assignment: CoreAssignment
    total_cycles: int
    scan: _ScanProgram | None = None


@dataclass
class _CompiledSession:
    """A session lowered to per-core programs (state-independent)."""

    plan: SessionPlan
    drivers: list[_CompiledDriver]

    @property
    def test_cycles(self) -> int:
        return max(
            (driver.total_cycles for driver in self.drivers), default=0
        )


class KernelExecutor:
    """Compiled counterpart of :class:`~repro.sim.session.SessionExecutor`.

    Runs plans against one live system instance.  The constructor takes
    an optional ``test_sets`` mapping (node path -> test set) that it
    keeps populated, so a delegating session executor exposes the same
    introspection surface either way.
    """

    def __init__(
        self,
        system: CasBusSystem,
        test_sets: "dict[str, TestSet] | None" = None,
        capture_syndromes: bool = False,
    ) -> None:
        blocker = kernel_blocker(system)
        if blocker is not None:
            raise ConfigurationError(
                f"{system.soc.name}: {blocker} needs the legacy "
                f"object-stepping backend"
            )
        self.system = system
        self.capture_syndromes = capture_syndromes
        self._test_sets = test_sets if test_sets is not None else {}
        self._compiled: dict[SessionPlan, _CompiledSession] = {}

    # -- public API ------------------------------------------------------

    def run_plan(self, plan: TestPlan) -> ProgramResult:
        plan.validate(self.system.n)
        program = ProgramResult()
        for index, session in enumerate(plan.sessions):
            label = session.label or f"session{index}"
            program.sessions.append(self.run_session(session, label=label))
        return program

    def run_session(
        self,
        session: SessionPlan,
        *,
        label: str = "session",
        undisturbed_paths: Sequence[tuple[str, ...]] = (),
    ) -> SessionResult:
        session.validate(self.system.n)
        with obs_span("executor.session", label=label, backend="kernel"):
            snapshots = {
                "/".join(path): state_snapshot(self.system, path)
                for path in undisturbed_paths
            }
            chains: "dict[tuple[CasNode, object], list[int]]" = {}
            (result,) = self._run_overlays(
                session, label, [self._live_faults()], chains
            )
            # The live instance keeps what its external tests shifted.
            for (node, _), state in chains.items():
                _load_external_chain(node, state)
        for name, before in snapshots.items():
            after = state_snapshot(self.system, tuple(name.split("/")))
            result.undisturbed[name] = (before == after)
        return result

    def run_batch(
        self,
        plan: TestPlan,
        overlays: "Sequence[dict[str, tuple[int, int]]]",
    ) -> "list[ProgramResult]":
        """``plan`` once per ``core path -> stuck-at`` overlay.

        This executor's instance must be fault-free and freshly built:
        configuration never depends on test outcomes, scan captures
        depend only on the loaded pattern, and BIST/external replays
        are deterministic from reset, so every overlay shares one
        configured instance and each session runs one dispatch.
        Element ``i`` equals a fresh instance with ``overlays[i]``
        injected running :meth:`run_plan`.
        """
        plan.validate(self.system.n)
        programs = [ProgramResult() for _ in overlays]
        # Off-chip replay state per (core, fault): external chains
        # carry state across the sessions of one instance.
        chains: "dict[tuple[CasNode, object], list[int]]" = {}
        for index, session in enumerate(plan.sessions):
            label = session.label or f"session{index}"
            session.validate(self.system.n)
            with obs_span(
                "batch.dispatch", label=label, scenarios=len(overlays)
            ):
                results = self._run_overlays(
                    session, label, overlays, chains
                )
            obs_histogram("batch.scenarios_per_dispatch").observe(
                len(overlays)
            )
            for program, result in zip(programs, results):
                program.sessions.append(result)
        return programs

    def _live_faults(self) -> "dict[str, tuple[int, int] | None]":
        """The overlay of this instance's own injected faults."""
        faults: "dict[str, tuple[int, int] | None]" = {}
        for node in self.system.walk():
            if isinstance(node, BistNode):
                faults[node.path] = node.engine.fault
            elif node.wrapper is not None and node.wrapper.core is not None:
                faults[node.path] = node.wrapper.core.fault
        return faults

    def _run_overlays(
        self,
        session: SessionPlan,
        label: str,
        overlays: "Sequence[dict[str, tuple[int, int] | None]]",
        chains: "dict[tuple[CasNode, object], list[int]]",
    ) -> "list[SessionResult]":
        """Compile, configure, then run every driver per overlay.

        One :class:`SessionResult` per overlay.  ``chains`` maps
        ``(node, fault)`` to an external chain's contents (scan-in
        side first); a missing key starts from the live chain, and the
        test advances each entry in place.
        """
        with obs_span("executor.compile"):
            compiled = self.compile_session(session)
        with obs_span("executor.config"):
            config_cycles = self._apply_configuration(session)
        test_cycles = compiled.test_cycles
        with obs_span("executor.capture", cycles=test_cycles):
            rows = [
                self._driver_results(driver, overlays, chains)
                for driver in compiled.drivers
            ]
        return [
            SessionResult(
                label=label,
                config_cycles=config_cycles,
                test_cycles=test_cycles,
                core_results=[row[index] for row in rows],
            )
            for index in range(len(overlays))
        ]

    # -- compile ---------------------------------------------------------

    def compile_session(self, session: SessionPlan) -> _CompiledSession:
        cached = self._compiled.get(session)
        if cached is not None:
            return cached
        # Validate the configuration first so error ordering matches the
        # legacy backend (conflicting/hierarchy errors before driver or
        # wire errors); the cheap target computation is redone against
        # live state when the session actually runs.
        configuration_targets(self.system, session)
        drivers = [
            self._compile_driver(assignment)
            for assignment in session.assignments
        ]
        used_wires: dict[int, str] = {}
        for driver in drivers:
            for wire in driver.assignment.top_wires():
                owner = used_wires.get(wire)
                if owner is not None and owner != driver.assignment.name:
                    raise SimulationError(
                        f"two drivers on wire {wire}: {owner} and "
                        f"{driver.assignment.name}"
                    )
                used_wires[wire] = driver.assignment.name
        compiled = _CompiledSession(plan=session, drivers=drivers)
        self._compiled[session] = compiled
        return compiled

    def _compile_driver(self, assignment: CoreAssignment) -> _CompiledDriver:
        node = self.system.node_at(assignment.path)
        if isinstance(node, BistNode):
            return _CompiledDriver(
                kind="bist",
                node=node,
                assignment=assignment,
                total_cycles=(node.spec.bist_cycles
                              + node.spec.signature_width),
            )
        if node.spec.method == TestMethod.EXTERNAL:
            assert node.wrapper is not None
            depth = node.wrapper.max_chain_length
            patterns = node.spec.external_stream_patterns
            return _CompiledDriver(
                kind="external",
                node=node,
                assignment=assignment,
                total_cycles=(depth + 1) * patterns + depth,
            )
        if isinstance(node, ScanNode):
            assert node.wrapper is not None
            program = _scan_program(node.spec, node.wrapper)
            self._test_sets[node.path] = program.test_set
            return _CompiledDriver(
                kind="scan",
                node=node,
                assignment=assignment,
                total_cycles=program.total_cycles,
                scan=program,
            )
        raise ConfigurationError(
            f"{assignment.name}: no driver for {node.spec.method}"
        )

    # -- configuration ---------------------------------------------------

    def _apply_configuration(self, session: SessionPlan) -> int:
        """Load the staged configuration; returns the exact cycle cost.

        The serial protocol's cost is the chain length plus the update
        pulse per stage; its *effect* is that every register on the
        chain ends up holding the target (or re-loaded current) code
        and one update pulse fires.  The kernel applies the effect
        directly and charges the same cycles, driving the update
        through the real node objects so splice/restart side effects
        are identical.
        """
        system = self.system
        cas_targets, wir_targets = configuration_targets(system, session)
        splice: dict[str, int] = {
            path: Wir.code_of(mode) for path, mode in wir_targets.items()
        }
        cycles = 0
        if splice:
            # Stage A: re-shift the current chain with spliced CASes
            # moved to CHAIN.
            cycles += self._chain_width() + 1
            for node in system.walk():
                reload_wir = node.chain_spliced
                code = (CHAIN_CODE if node.path in splice
                        else node.cas.active_code)
                node.cas.load_code(code)
                if reload_wir:
                    assert node.wrapper is not None
                    wir = node.wrapper.wir
                    wir.load_code(wir.active_code)
            system.config_update()
        # Stage B: final CAS codes everywhere, wrapper instructions
        # through the freshly spliced WIRs, one atomic update.
        cycles += self._chain_width() + 1
        for node in system.walk():
            reload_wir = node.chain_spliced and node.path not in splice
            node.cas.load_code(cas_targets[f"{node.path}.cas"])
            if node.path in splice:
                assert node.wrapper is not None
                node.wrapper.wir.load_code(splice[node.path])
            elif reload_wir:
                assert node.wrapper is not None
                wir = node.wrapper.wir
                wir.load_code(wir.active_code)
        system.config_update()
        return cycles

    def _chain_width(self) -> int:
        return sum(
            register.width for register in self.system.serial_layout()
        )

    # -- execute ---------------------------------------------------------

    def _driver_results(
        self,
        driver: _CompiledDriver,
        overlays: "Sequence[dict[str, tuple[int, int] | None]]",
        chains: "dict[tuple[CasNode, object], list[int]]",
    ) -> "list[CoreResult]":
        """One driver's result per overlay, each distinct fault run once.

        The live configuration is shared; only the injected stuck-at
        differs, and ``None`` is the fault-free core.
        """
        node = driver.node
        faults = [overlay.get(node.path) for overlay in overlays]
        distinct = list(dict.fromkeys(faults))
        if driver.kind == "scan":
            results = self._run_scan(driver, distinct)
        elif driver.kind == "bist":
            results = self._run_bist(driver, distinct)
        else:
            for fault in distinct:
                if (node, fault) not in chains:
                    chains[(node, fault)] = _external_chain_state(node)
            results = self._run_external(
                driver, distinct,
                [chains[(node, fault)] for fault in distinct],
            )
        by_fault = dict(zip(distinct, results))
        return [replace(by_fault[fault]) for fault in faults]

    def _run_bist(self, driver, faults) -> "list[CoreResult]":
        node = driver.node
        assert isinstance(node, BistNode)
        spec = node.spec
        engine = node.engine
        # Golden first, then each faulty run: the engine's LFSR/MISR end
        # in the state a BistEngine.run would leave them in.
        golden = engine._signature(spec.bist_cycles, fault=None)
        mask = (1 << spec.signature_width) - 1
        results = []
        for fault in faults:
            actual = (golden if fault is None
                      else engine._signature(spec.bist_cycles, fault=fault))
            xor_mask = (actual ^ golden) & mask
            mismatches = _popcount(xor_mask)
            results.append(CoreResult(
                name=driver.assignment.name,
                method="bist",
                passed=mismatches == 0,
                bits_compared=spec.signature_width,
                mismatches=mismatches,
                detail=(
                    f"{spec.bist_cycles} BIST cycles, "
                    f"{spec.signature_width}-bit signature"
                ),
                syndrome=(Syndrome.signature_xor(KIND_BIST, xor_mask, 0)
                          if self.capture_syndromes else None),
            ))
        return results

    def _run_scan(self, driver, faults) -> "list[CoreResult]":
        node = driver.node
        program = driver.scan
        assert program is not None
        wrapper = node.wrapper
        assert wrapper is not None and wrapper.core is not None
        core = wrapper.core
        injected = [fault for fault in faults if fault is not None]
        outcomes: "dict[tuple[int, int], tuple[int, dict]]" = {}
        # A clean instance's captures are, bit for bit, the ATPG
        # responses the expected streams were compiled from, so only
        # faulty entries are evaluated -- on the array evaluator,
        # imported here so fault-free runs never load numpy.
        if injected and program.num_patterns > 0:
            from repro.sim.batch import _scan_fault_results, batch_scan_program

            batch = batch_scan_program(node.spec, wrapper)
            outcomes = dict(zip(injected, _scan_fault_results(
                batch, injected, capture=self.capture_syndromes
            )))
        # Every window shifts full depth, so the final flush leaves all
        # chains (boundary cells included) holding zeros -- write the
        # state the legacy backend would have shifted into place.
        core.ff_values = [0] * core.num_ffs
        for cell in wrapper.boundary.cells:
            cell.shift_value = 0
        results = []
        for fault in faults:
            mismatches, masks = outcomes.get(fault, (0, {}))
            results.append(CoreResult(
                name=driver.assignment.name,
                method="scan",
                passed=mismatches == 0,
                bits_compared=program.bits_compared,
                mismatches=mismatches,
                detail=program.detail,
                syndrome=(Syndrome.from_masks(KIND_SCAN, masks)
                          if self.capture_syndromes else None),
            ))
        return results

    def _run_external(self, driver, faults, states) -> "list[CoreResult]":
        """Off-chip LFSR source vs MISR sink with a golden shadow.

        The live chain starts from whatever state the instance is in
        (a re-test after earlier activity legitimately diverges from
        the fresh-built golden shadow, exactly as on the legacy
        backend), so this driver simulates the full bit stream -- still
        at chain level, with one cloud evaluation per capture instead
        of per-cycle bus routing.
        """
        node = driver.node
        spec = node.spec
        wrapper = node.wrapper
        assert wrapper is not None and wrapper.core is not None
        core = wrapper.core
        geo = chain_geometries(wrapper)[0]
        depth = geo.length
        results = []
        for fault, live in zip(faults, states):
            shadow = [0] * depth
            source = Lfsr(16, seed=0xACE1 ^ (spec.seed or 1))
            live_misr = Misr(16)
            golden_misr = Misr(16)
            bits_compared = 0
            for window in range(spec.external_stream_patterns + 1):
                for _ in range(depth):
                    live_misr.absorb_bit(live[-1])
                    golden_misr.absorb_bit(shadow[-1])
                    bit = source.step()
                    live.insert(0, bit)
                    live.pop()
                    shadow.insert(0, bit)
                    shadow.pop()
                    bits_compared += 1
                if window < spec.external_stream_patterns:
                    chain_capture(core, geo, live, fault)
                    chain_capture(core, geo, shadow, None)
            passed = live_misr.signature == golden_misr.signature
            results.append(CoreResult(
                name=driver.assignment.name,
                method="external",
                passed=passed,
                bits_compared=bits_compared,
                mismatches=0 if passed else 1,
                detail=(
                    f"sink signature {live_misr.signature:#06x} vs "
                    f"golden {golden_misr.signature:#06x}"
                ),
                syndrome=(Syndrome.signature_xor(
                    KIND_EXTERNAL, live_misr.signature,
                    golden_misr.signature,
                ) if self.capture_syndromes else None),
            ))
        return results


def _external_chain_state(node: CasNode) -> list[int]:
    """An externally tested core's live chain contents, scan-in first."""
    wrapper = node.wrapper
    assert wrapper is not None and wrapper.core is not None
    geo = chain_geometries(wrapper)[0]
    input_cells = wrapper.boundary.input_cells
    output_cells = wrapper.boundary.output_cells
    return (
        [input_cells[pi].shift_value for pi in geo.in_pi]
        + [wrapper.core.ff_values[ff] for ff in geo.ff_ids]
        + [output_cells[po].shift_value for po in geo.out_po]
    )


def _load_external_chain(node: CasNode, state: list[int]) -> None:
    """Inverse of :func:`_external_chain_state`."""
    wrapper = node.wrapper
    assert wrapper is not None and wrapper.core is not None
    geo = chain_geometries(wrapper)[0]
    num_in = len(geo.in_pi)
    num_core = len(geo.ff_ids)
    for position, pi in enumerate(geo.in_pi):
        wrapper.boundary.input_cells[pi].shift_value = state[position]
    for position, ff in enumerate(geo.ff_ids):
        wrapper.core.ff_values[ff] = state[num_in + position]
    for position, po in enumerate(geo.out_po):
        wrapper.boundary.output_cells[po].shift_value = (
            state[num_in + num_core + position]
        )


def chain_capture(core, geo: _ChainGeometry, state: list[int],
                  fault) -> None:
    """One capture clock on chain contents held as a flat list.

    Public for the diagnosis engine's off-line external-stream
    predictor (:mod:`repro.diagnose.engine`).
    """
    num_in = len(geo.in_pi)
    pi_values = [0] * core.num_pis
    for position, pi in enumerate(geo.in_pi):
        pi_values[pi] = state[position]
    ff_values = [0] * core.num_ffs
    for position, ff in enumerate(geo.ff_ids):
        ff_values[ff] = state[num_in + position]
    outputs = core.cloud.evaluate_words(
        pi_values + ff_values, mask=1, fault=fault
    )
    for position, ff in enumerate(geo.ff_ids):
        state[num_in + position] = outputs[ff] & 1
    base = num_in + len(geo.ff_ids)
    for position, po in enumerate(geo.out_po):
        state[base + position] = outputs[core.num_ffs + po] & 1
