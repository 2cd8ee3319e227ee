"""Two-phase adaptive diagnosis over the reconfigurable CAS-BUS.

Phase 1 -- **screening**: run the SoC's normal test program with
syndrome capture on.  Per-core pass/fail falls out of the ordinary
schedule; the bit-level syndromes are free observations the diagnosis
reuses.

Phase 2 -- **adaptive reconfiguration**: this is the part only a
reconfigurable TAM can do.  Each failing core is re-tested *solo on
different bus wires* (one CAS reconfiguration away):

* if the core now passes, the core is healthy and the TAM itself is
  broken -- a binary search over the original wire footprint (halves
  swapped for verified-good wires, one reconfigured session per probe)
  pins the defective wire in ``log2(P)`` sessions;
* if it still fails, the defect travels with the core -- its observed
  syndrome is matched against a *fault dictionary* built with the
  bit-parallel machinery of :mod:`repro.scan.fault_sim`, ranking
  equivalence classes of stuck-at candidates (signature matching for
  BIST/external cores).  A syndrome no single stuck-at reproduces
  demotes the cloud candidates and flags a wrapper/chain defect.

Probe order and cycle accounting run through the scheduling layer's
:class:`~repro.schedule.model.CostModel` (cheapest suspect probed
first), and every executed session's exact cycles are charged to the
diagnosis, so "adaptive diagnosis is cheaper than re-running the full
program" is a measured claim, not a hope.  All sessions execute on
fresh system instances -- each probe is an independent power-on test
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.bist.engine import BistEngine
from repro.bist.lfsr import Lfsr
from repro.bist.misr import Misr
from repro.scan.faults import core_fault_list
from repro.soc.core import CoreSpec, TestMethod
from repro.soc.soc import SocSpec
from repro.core.tam import CasBusTamDesign
from repro.schedule.model import CostModel, TamProblem
from repro.sim.cache import BoundedCache
from repro.sim.kernel import chain_capture, chain_geometries
from repro.sim.plan import CoreAssignment, SessionPlan
from repro.sim.session import CoreResult, SessionExecutor
from repro.sim.testsets import test_set_for
from repro.wrapper.wrapper import P1500Wrapper
from repro.diagnose.inject import DefectScenario, build_faulty_system
from repro.diagnose.syndrome import Syndrome

#: ``Candidate.kind`` values.
CANDIDATE_CLOUD = "cloud"
CANDIDATE_TAM_WIRE = "tam-wire"
CANDIDATE_WRAPPER = "wrapper"

#: Cap on cached fault dictionaries (LRU, like the test-set cache).
MAX_CACHED_DICTIONARIES = 256

#: Exact-match score.
EXACT = 1.0


# -- ranked candidates ---------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One ranked diagnosis hypothesis.

    ``kind="cloud"`` carries an *equivalence class* of stuck-at faults
    (``faults``) that all predict the same syndrome on this test set --
    no test the SoC runs can tell them apart, so they rank as one
    candidate.  ``kind="tam-wire"`` names a bus wire;
    ``kind="wrapper"`` flags a defect in the access path itself
    (wrapper cell / chain) that no single cloud stuck-at explains.
    """

    kind: str
    core: "str | None"
    score: float
    faults: tuple = ()
    wire: "int | None" = None
    detail: str = ""

    def contains_fault(self, node: int, stuck_value: int) -> bool:
        """Whether a specific stuck-at fault is in this candidate."""
        return self.kind == CANDIDATE_CLOUD and (
            (node, stuck_value) in self.faults
        )

    def describe(self) -> str:
        if self.kind == CANDIDATE_TAM_WIRE:
            return f"bus wire {self.wire} ({self.score:.2f})"
        if self.kind == CANDIDATE_WRAPPER:
            return f"{self.core}: wrapper/chain defect ({self.score:.2f})"
        shown = ", ".join(
            f"node{node}/SA{value}" for node, value in self.faults[:3]
        )
        more = len(self.faults) - 3
        if more > 0:
            shown += f", +{more}"
        return f"{self.core}: {shown} ({self.score:.2f})"

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "core": self.core,
            "score": self.score,
            "faults": [list(fault) for fault in self.faults],
            "wire": self.wire,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Candidate":
        """Rebuild a candidate serialized by :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            core=data.get("core"),
            score=data["score"],
            faults=tuple(tuple(fault) for fault in data.get("faults", ())),
            wire=data.get("wire"),
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class DiagnosisResult:
    """Outcome of one full diagnosis run.

    Cycle accounting separates the three cost pools the comparison
    cares about: ``screening_cycles`` (the normal program that flagged
    the failure), ``diagnosis_cycles`` (every adaptive probe session
    actually executed), and ``full_retest_cycles`` (what naively
    re-running the whole program would cost -- the baseline adaptive
    diagnosis must beat).  ``retest_cycles`` is the model-predicted
    cost of the minimal confirmation re-test of the suspects
    (:mod:`repro.diagnose.retest`).
    """

    workload: str
    scenario: "DefectScenario | None"
    screen_passed: bool
    failing_cores: tuple
    candidates: tuple
    screening_cycles: int
    diagnosis_cycles: int
    planned_diagnosis_cycles: int
    probe_sessions: int
    full_retest_cycles: int
    retest_cycles: int
    backend: str = "auto"
    syndromes: "dict[str, Syndrome]" = field(default_factory=dict)

    @property
    def is_clean(self) -> bool:
        """Defect-free verdict: screening passed, nothing suspected."""
        return self.screen_passed and not self.candidates

    @property
    def localized_core(self) -> "str | None":
        """The top-ranked candidate's core (``None`` when clean or the
        top candidate blames the TAM, not a core)."""
        if not self.candidates:
            return None
        top = self.candidates[0]
        if top.kind == CANDIDATE_TAM_WIRE:
            # The wire candidate's ``core`` records which probe exposed
            # the wire -- that core is healthy, so nothing localises.
            return None
        return top.core

    def fault_rank(self, core: str, node: int,
                   stuck_value: int) -> "int | None":
        """1-based rank of the candidate containing a specific fault."""
        for rank, candidate in enumerate(self.candidates, start=1):
            if candidate.core == core and candidate.contains_fault(
                node, stuck_value
            ):
                return rank
        return None

    def scenario_rank(self) -> "int | None":
        """1-based rank of the injected scenario among the candidates."""
        if self.scenario is None:
            return None
        scenario = self.scenario
        if scenario.fault is not None:
            assert scenario.core is not None
            return self.fault_rank(scenario.core, *scenario.fault)
        for rank, candidate in enumerate(self.candidates, start=1):
            if scenario.kind == "open-wire":
                if (candidate.kind == CANDIDATE_TAM_WIRE
                        and candidate.wire == scenario.wire):
                    return rank
            elif scenario.kind == "bridge-wires":
                assert scenario.wires is not None
                if (candidate.kind == CANDIDATE_TAM_WIRE
                        and candidate.wire in scenario.wires):
                    return rank
            elif scenario.kind == "dead-cell":
                if (candidate.kind == CANDIDATE_WRAPPER
                        and candidate.core == scenario.core):
                    return rank
        return None

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`)."""
        return {
            "workload": self.workload,
            "scenario": (
                self.scenario.to_dict() if self.scenario else None
            ),
            "screen_passed": self.screen_passed,
            "failing_cores": list(self.failing_cores),
            "candidates": [c.to_dict() for c in self.candidates],
            "screening_cycles": self.screening_cycles,
            "diagnosis_cycles": self.diagnosis_cycles,
            "planned_diagnosis_cycles": self.planned_diagnosis_cycles,
            "probe_sessions": self.probe_sessions,
            "full_retest_cycles": self.full_retest_cycles,
            "retest_cycles": self.retest_cycles,
            "backend": self.backend,
            "syndromes": {
                name: syndrome.to_dict()
                for name, syndrome in sorted(self.syndromes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DiagnosisResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        scenario = data.get("scenario")
        return cls(
            workload=data["workload"],
            scenario=(
                DefectScenario.from_dict(scenario) if scenario else None
            ),
            screen_passed=data["screen_passed"],
            failing_cores=tuple(data.get("failing_cores", ())),
            candidates=tuple(
                Candidate.from_dict(c) for c in data.get("candidates", ())
            ),
            screening_cycles=data["screening_cycles"],
            diagnosis_cycles=data["diagnosis_cycles"],
            planned_diagnosis_cycles=data.get(
                "planned_diagnosis_cycles", 0
            ),
            probe_sessions=data.get("probe_sessions", 0),
            full_retest_cycles=data["full_retest_cycles"],
            retest_cycles=data.get("retest_cycles", 0),
            backend=data.get("backend", "auto"),
            syndromes={
                name: Syndrome.from_dict(payload)
                for name, payload in data.get("syndromes", {}).items()
            },
        )

    def describe(self) -> str:
        if self.is_clean:
            return (
                f"{self.workload}: clean "
                f"({self.screening_cycles} screening cycles)"
            )
        lines = [
            f"{self.workload}: {len(self.failing_cores)} failing core(s) "
            f"{list(self.failing_cores)}; "
            f"{self.diagnosis_cycles} diagnosis vs "
            f"{self.full_retest_cycles} full-retest cycles"
        ]
        for rank, candidate in enumerate(self.candidates, start=1):
            lines.append(f"  #{rank} {candidate.describe()}")
        return "\n".join(lines)


# -- fault dictionaries --------------------------------------------------------


@dataclass(frozen=True)
class DictionaryEntry:
    """One equivalence class of stuck-at faults and its prediction.

    ``key`` is the predicted syndrome in matchable form: a frozenset of
    ``(pattern, output)`` failing positions for scan cores, an integer
    signature-XOR for BIST/external cores.
    """

    faults: tuple
    key: object


_DICTIONARIES: "BoundedCache[CoreSpec, tuple[DictionaryEntry, ...]]" = (
    BoundedCache(MAX_CACHED_DICTIONARIES, name="fault_dictionaries")
)


def clear_dictionary_cache() -> None:
    """Drop cached fault dictionaries (tests, memory-sensitive callers)."""
    _DICTIONARIES.clear()


def fault_dictionary(spec: CoreSpec) -> "tuple[DictionaryEntry, ...]":
    """The (cached) fault dictionary of one core spec.

    Every entry is a class of single stuck-at faults its own test
    provably detects, keyed by the exact syndrome they produce.  Built
    from clean models only -- like expected test data, dictionaries
    never see the injected defect.
    """
    cached = _DICTIONARIES.get(spec)
    if cached is not None:
        return cached
    if spec.method == TestMethod.SCAN:
        entries = _scan_dictionary(spec)
    elif spec.method == TestMethod.BIST:
        entries = _bist_dictionary(spec)
    elif spec.method == TestMethod.EXTERNAL:
        entries = _external_dictionary(spec)
    else:
        raise ConfigurationError(
            f"{spec.name}: no fault dictionary for {spec.method}"
        )
    _DICTIONARIES.put(spec, entries)
    return entries


def _group(by_key: "dict[object, list]") -> "tuple[DictionaryEntry, ...]":
    entries = [
        DictionaryEntry(faults=tuple(sorted(faults)), key=key)
        for key, faults in by_key.items()
    ]
    entries.sort(key=lambda entry: entry.faults)
    return tuple(entries)


def _scan_dictionary(spec: CoreSpec) -> "tuple[DictionaryEntry, ...]":
    """Pattern-parallel diff of every fault against the golden responses.

    All faults run through the vectorized batch kernel in a handful of
    array dispatches (:func:`repro.sim.batch.scan_fault_failing_sets`).
    """
    # Function-local: store verification imports this module on the
    # model-only path, which must not pay for loading numpy.
    from repro.sim.batch import scan_fault_failing_sets

    core = spec.build_scannable()
    if not test_set_for(spec).patterns:
        return ()
    fault_pairs = [
        (fault.node, fault.stuck_value) for fault in core_fault_list(core)
    ]
    failing_sets = scan_fault_failing_sets(spec, fault_pairs)
    by_key: "dict[object, list]" = {}
    for fault, failing in zip(fault_pairs, failing_sets):
        if failing:
            by_key.setdefault(frozenset(failing), []).append(fault)
    return _group(by_key)


def _bist_dictionary(spec: CoreSpec) -> "tuple[DictionaryEntry, ...]":
    """Per-fault MISR signatures over one self-test run."""
    core = spec.build_scannable()
    engine = BistEngine(core, signature_width=spec.signature_width)
    faults = [
        (fault.node, fault.stuck_value) for fault in core_fault_list(core)
    ]
    golden, signatures = engine.signatures_for(spec.bist_cycles, faults)
    by_key: "dict[object, list]" = {}
    for fault, signature in signatures.items():
        xor = signature ^ golden
        if xor:
            by_key.setdefault(xor, []).append(fault)
    return _group(by_key)


def _external_dictionary(spec: CoreSpec) -> "tuple[DictionaryEntry, ...]":
    """Per-fault off-chip sink signatures of the external stream.

    The core model, wrapper and chain geometry are built once and
    shared across every fault's stream replay (the replay itself is
    per-fault by nature: chain state depends on the fault).
    """
    core = spec.build_scannable()
    geo = chain_geometries(P1500Wrapper(core))[0]
    golden = _external_stream_signature(spec, core, geo, None)
    by_key: "dict[object, list]" = {}
    for fault in core_fault_list(core):
        signature = _external_stream_signature(
            spec, core, geo, (fault.node, fault.stuck_value)
        )
        xor = signature ^ golden
        if xor:
            by_key.setdefault(xor, []).append(
                (fault.node, fault.stuck_value)
            )
    return _group(by_key)


def external_signature(
    spec: CoreSpec, fault: "tuple[int, int] | None"
) -> int:
    """Predicted off-chip MISR signature of one external-stream test.

    Replays the exact protocol both backends implement (LFSR source,
    full-depth shift windows, capture clocks) on a from-reset instance
    -- the state a diagnosis probe starts from.
    """
    core = spec.build_scannable()
    geo = chain_geometries(P1500Wrapper(core))[0]
    return _external_stream_signature(spec, core, geo, fault)


def _external_stream_signature(
    spec: CoreSpec, core, geo, fault: "tuple[int, int] | None"
) -> int:
    """The stream replay on prebuilt structures (never mutates them)."""
    depth = geo.length
    state = [0] * depth
    source = Lfsr(16, seed=0xACE1 ^ (spec.seed or 1))
    misr = Misr(16)
    for window in range(spec.external_stream_patterns + 1):
        for _ in range(depth):
            misr.absorb_bit(state[-1])
            bit = source.step()
            state.insert(0, bit)
            state.pop()
        if window < spec.external_stream_patterns:
            chain_capture(core, geo, state, fault)
    return misr.signature


# -- syndrome decoding ---------------------------------------------------------


def decode_scan_syndrome(
    spec: CoreSpec, syndrome: Syndrome
) -> "frozenset[tuple[int, int]]":
    """Observed ``(pattern, output)`` failing positions of a scan core.

    Inverts the wrapper chain geometry: a mask bit at scan-out offset
    ``o`` of chain ``c`` in window ``w`` is the capture of pattern
    ``w`` at a specific core flip-flop or primary output -- the exact
    coordinate system the fault dictionary predicts in.
    """
    wrapper = P1500Wrapper(spec.build_scannable())
    geometries = chain_geometries(wrapper)
    assert wrapper.core is not None
    num_ffs = wrapper.core.num_ffs
    tags: "list[list]" = []
    for geo in geometries:
        per_position: list = [None] * len(geo.in_pi)
        per_position.extend(ff for ff in geo.ff_ids)
        per_position.extend(num_ffs + po for po in geo.out_po)
        tags.append(per_position)
    failing: "set[tuple[int, int]]" = set()
    for window, chain, mask in syndrome.entries:
        positions = tags[chain]
        length = len(positions)
        offset = 0
        while mask:
            if mask & 1:
                output = positions[length - 1 - offset]
                if output is not None:
                    failing.add((window, output))
            mask >>= 1
            offset += 1
    return frozenset(failing)


def _jaccard_sets(observed: frozenset, predicted: frozenset) -> float:
    union = len(observed | predicted)
    if not union:
        return 0.0
    return len(observed & predicted) / union


def _jaccard_bits(observed: int, predicted: int) -> float:
    union = bin(observed | predicted).count("1")
    if not union:
        return 0.0
    return bin(observed & predicted).count("1") / union


def rank_cloud_candidates(
    spec: CoreSpec,
    core_path: str,
    syndrome: Syndrome,
    *,
    max_candidates: int = 8,
) -> "list[Candidate]":
    """Ranked stuck-at candidate classes for one failing core.

    Exact dictionary matches score 1.0; partial overlaps score their
    Jaccard similarity.  When nothing matches exactly, a wrapper-defect
    hypothesis is inserted with the residual confidence -- syndromes no
    single cloud stuck-at reproduces point at the access path, not the
    logic.
    """
    entries = fault_dictionary(spec)
    if syndrome.kind == "scan":
        observed_key: object = decode_scan_syndrome(spec, syndrome)
        similarity = _jaccard_sets
    else:
        observed_key = (
            syndrome.entries[0][2] if syndrome.entries else 0
        )
        similarity = _jaccard_bits
    scored: "list[Candidate]" = []
    for entry in entries:
        score = (
            EXACT if entry.key == observed_key
            else similarity(observed_key, entry.key)  # type: ignore[arg-type]
        )
        if score > 0.0:
            scored.append(Candidate(
                kind=CANDIDATE_CLOUD,
                core=core_path,
                score=score,
                faults=entry.faults,
            ))
    scored.sort(key=lambda c: (-c.score, c.faults))
    scored = scored[:max_candidates]
    best = scored[0].score if scored else 0.0
    if best < EXACT:
        wrapper_candidate = Candidate(
            kind=CANDIDATE_WRAPPER,
            core=core_path,
            score=round(EXACT - best, 6),
            detail=(
                "syndrome matches no single stuck-at exactly; "
                "wrapper cell / chain defect suspected"
            ),
        )
        scored.append(wrapper_candidate)
        scored.sort(key=lambda c: -c.score)
    return scored


# -- the engine ----------------------------------------------------------------


class DiagnosisEngine:
    """Screen, adaptively reconfigure, rank -- for one SoC instance.

    Args:
        soc: the SoC under diagnosis.
        scenario: the injected defect (``None`` = defect-free run).
        backend: simulation engine; ``"auto"`` transparently falls back
            to the legacy backend for transport defects.
        cas_policy: CAS scheme-enumeration policy of the generated TAM.
        max_candidates: ranked cloud-candidate classes kept per core.
        max_suspects: failing cores probed individually (beyond this,
            remaining suspects are reported unprobed).
    """

    def __init__(
        self,
        soc: SocSpec,
        scenario: "DefectScenario | None" = None,
        *,
        backend: str = "auto",
        cas_policy: str = "all",
        max_candidates: int = 8,
        max_suspects: int = 4,
    ) -> None:
        soc.validate()
        self.soc = soc
        self.scenario = scenario
        self.backend = backend
        self.cas_policy = cas_policy
        self.max_candidates = max_candidates
        self.max_suspects = max_suspects
        self.tam = CasBusTamDesign(soc=soc, policy=cas_policy)
        self.plan = self.tam.executable_plan()
        self._assignments = {
            assignment.name: assignment
            for session in self.plan.sessions
            for assignment in session.assignments
        }
        self._cost_model = CostModel(TamProblem.of(
            [core.test_params() for core in soc.cores],
            soc.bus_width,
            cas_policy,
        ))
        self._probe_cycles = 0
        self._planned_cycles = 0
        self._probe_sessions = 0

    # -- probes ------------------------------------------------------------

    def _fresh_executor(self) -> SessionExecutor:
        system = build_faulty_system(self.soc, self.scenario)
        return SessionExecutor(
            system, backend=self.backend, capture_syndromes=True
        )

    def _plan_probe(self, name: str) -> int:
        """Model-predicted cycles of one solo probe session."""
        top = name.split("/", 1)[0]
        params = self.soc.core_named(top).test_params()
        return (
            self._cost_model.core_cycles(params, params.max_wires)
            + self._cost_model.session_config_cycles(1)
        )

    def _run_probe(self, assignment: CoreAssignment) -> CoreResult:
        """Execute one solo session on a fresh instance."""
        executor = self._fresh_executor()
        session = SessionPlan(assignments=(assignment,), label="probe")
        result = executor.run_session(
            session, label=f"probe:{assignment.name}"
        )
        self._probe_cycles += result.total_cycles
        self._probe_sessions += 1
        for core_result in result.core_results:
            if core_result.name == assignment.name:
                return core_result
        raise ConfigurationError(
            f"probe session lost core {assignment.name}"
        )  # pragma: no cover - structural invariant

    def _with_top_wires(
        self, assignment: CoreAssignment, wires: Sequence[int]
    ) -> CoreAssignment:
        return CoreAssignment(
            path=assignment.path,
            levels=(tuple(wires),) + assignment.levels[1:],
            wir_override=assignment.wir_override,
        )

    def _spare_wires(self, original: Sequence[int]) -> "list[int]":
        """Bus wires outside the original footprint."""
        return [
            wire for wire in range(self.soc.bus_width)
            if wire not in original
        ]

    def _search_broken_wires(
        self,
        assignment: CoreAssignment,
        good_wires: Sequence[int],
    ) -> "list[int]":
        """Binary search the original footprint for the broken wire.

        Each probe re-tests the core with half the suspect wires
        swapped for verified-good ones; a failing probe keeps the
        half still in use, a passing probe exonerates it.
        """
        original = list(assignment.levels[0])
        suspects = list(original)
        pool = [w for w in good_wires if w not in original]
        while len(suspects) > 1:
            half = suspects[: len(suspects) // 2]
            rest = suspects[len(suspects) // 2:]
            fill = len(original) - len(half)
            if fill > len(pool):
                break  # not enough spare wires to keep narrowing
            trial = self._with_top_wires(
                assignment, tuple(half + pool[:fill])
            )
            self._planned_cycles += self._plan_probe(assignment.name)
            if self._run_probe(trial).passed:
                suspects = rest
            else:
                suspects = half
        return suspects

    # -- main flow ---------------------------------------------------------

    def run(self) -> DiagnosisResult:
        """Execute the full screen -> reconfigure -> rank flow."""
        from repro.diagnose.retest import minimal_retest_plan

        executor = self._fresh_executor()
        program = executor.run_plan(self.plan)
        screening_cycles = program.total_cycles
        syndromes: "dict[str, Syndrome]" = {}
        failing: "list[CoreResult]" = []
        for core_result in program.core_results():
            if core_result.syndrome is not None:
                syndromes[core_result.name] = core_result.syndrome
            if not core_result.passed:
                failing.append(core_result)
        candidates: "list[Candidate]" = []
        blamed_wires: "set[int]" = set()
        if failing:
            candidates = self._localize(failing, blamed_wires)
        failing_names = tuple(result.name for result in failing)
        retest = (
            minimal_retest_plan(
                self.soc, failing_names, cas_policy=self.cas_policy
            )
            if failing_names else None
        )
        return DiagnosisResult(
            workload=self.soc.name,
            scenario=self.scenario,
            screen_passed=not failing,
            failing_cores=failing_names,
            candidates=tuple(candidates),
            screening_cycles=screening_cycles,
            diagnosis_cycles=self._probe_cycles,
            planned_diagnosis_cycles=self._planned_cycles,
            probe_sessions=self._probe_sessions,
            full_retest_cycles=screening_cycles,
            retest_cycles=(
                retest.predicted_total_cycles if retest else 0
            ),
            backend=self.backend,
            syndromes={
                name: syndrome
                for name, syndrome in syndromes.items()
                if not syndrome.is_clean
            },
        )

    def _localize(
        self,
        failing: "list[CoreResult]",
        blamed_wires: "set[int]",
    ) -> "list[Candidate]":
        """Phase 2: adaptive per-suspect probing, cheapest first."""
        order = sorted(
            failing, key=lambda result: self._plan_probe(result.name)
        )
        candidates: "list[Candidate]" = []
        probed = 0
        for core_result in order:
            assignment = self._assignments[core_result.name]
            footprint = set(assignment.levels[0])
            if blamed_wires & footprint:
                # An already-identified broken wire explains this
                # core's failure; no extra sessions needed.
                continue
            if probed >= self.max_suspects:
                candidates.append(Candidate(
                    kind=CANDIDATE_WRAPPER,
                    core=core_result.name,
                    score=0.0,
                    detail="suspect budget exhausted; not probed",
                ))
                continue
            probed += 1
            candidates.extend(
                self._diagnose_suspect(core_result, blamed_wires)
            )
        candidates.sort(key=lambda c: -c.score)
        return candidates

    def _diagnose_suspect(
        self,
        core_result: CoreResult,
        blamed_wires: "set[int]",
    ) -> "list[Candidate]":
        """Wire check, then dictionary match, for one failing core."""
        assignment = self._assignments[core_result.name]
        original = assignment.levels[0]
        spares = self._spare_wires(original)
        syndrome = core_result.syndrome
        if len(spares) >= len(original):
            # Enough free wires for a fully disjoint footprint: one
            # probe decides core-vs-TAM, then a binary search narrows
            # a broken wire in log2(P) more sessions.
            alternate = tuple(spares[:len(original)])
            self._planned_cycles += self._plan_probe(core_result.name)
            moved = self._run_probe(
                self._with_top_wires(assignment, alternate)
            )
            if moved.passed:
                suspects = self._search_broken_wires(
                    assignment, list(alternate)
                )
                blamed_wires.update(suspects)
                return self._wire_candidates(
                    core_result.name, suspects,
                    f"{core_result.name} passes on wires "
                    f"{list(alternate)}, fails on {list(original)}",
                )
            # The defect moved with the core: use the cleaner solo
            # syndrome (identical to the screening one for logic
            # faults, and untangled from wire damage otherwise).
            syndrome = moved.syndrome or core_result.syndrome
        elif spares:
            # The footprint cannot move wholesale; swap one wire at a
            # time instead.  If replacing wire w heals the test, w is
            # the broken wire.
            for wire in original:
                trial = tuple(
                    spares[0] if used == wire else used
                    for used in original
                )
                self._planned_cycles += self._plan_probe(
                    core_result.name
                )
                if self._run_probe(
                    self._with_top_wires(assignment, trial)
                ).passed:
                    blamed_wires.add(wire)
                    return self._wire_candidates(
                        core_result.name, [wire],
                        f"{core_result.name} passes once wire {wire} "
                        f"is swapped for {spares[0]}",
                    )
        if syndrome is None or syndrome.is_clean:
            return [Candidate(
                kind=CANDIDATE_WRAPPER,
                core=core_result.name,
                score=0.5,
                detail="failure without a stable syndrome",
            )]
        spec = self._spec_of(core_result.name)
        return rank_cloud_candidates(
            spec,
            core_result.name,
            syndrome,
            max_candidates=self.max_candidates,
        )

    def _wire_candidates(
        self,
        core_name: str,
        suspects: Sequence[int],
        detail: str,
    ) -> "list[Candidate]":
        share = round(1.0 / len(suspects), 6)
        return [
            Candidate(
                kind=CANDIDATE_TAM_WIRE,
                core=core_name,
                score=share,
                wire=wire,
                detail=detail,
            )
            for wire in sorted(suspects)
        ]

    def _spec_of(self, name: str) -> CoreSpec:
        from repro.diagnose.inject import spec_at

        return spec_at(self.soc, name)


def diagnose_soc(
    soc: SocSpec,
    scenario: "DefectScenario | None" = None,
    *,
    backend: str = "auto",
    cas_policy: str = "all",
    max_candidates: int = 8,
) -> DiagnosisResult:
    """One-call diagnosis: screen, reconfigure, rank."""
    engine = DiagnosisEngine(
        soc,
        scenario,
        backend=backend,
        cas_policy=cas_policy,
        max_candidates=max_candidates,
    )
    return engine.run()
