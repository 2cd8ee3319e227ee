"""Experiment configuration and result records.

:class:`RunConfig` is the full recipe for one experiment run (what
architecture, which scheduler, which pin budget, which faults);
:class:`RunResult` is the uniform outcome every architecture reports,
whether it came from the cycle-accurate simulator (CAS-BUS on a real
SoC) or from the abstract timing model (baselines and width sweeps).

Results are plain frozen dataclasses: hashable, picklable (they cross
process boundaries in :func:`repro.api.runner.run_many`) and directly
tabulatable via :func:`results_table` +
:func:`repro.analysis.tables.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

#: ``RunResult.source`` values.
SOURCE_SIMULATION = "simulation"
SOURCE_MODEL = "model"

#: Version stamped into every serialized record (campaign stores,
#: ``to_dict`` payloads).  Bump on incompatible shape changes; readers
#: refuse records whose schema is newer than what they understand.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """One experiment recipe.

    Attributes:
        architecture: registry name of the TAM architecture.
        scheduler: registry name of the scheduler strategy (used by
            architectures that schedule; baselines with a fixed timing
            model ignore it).
        bus_width: pin budget N; ``None`` uses the workload's own width.
        cas_policy: CAS scheme-enumeration policy; a fixed policy
            string (e.g. ``"contiguous"``) is honoured everywhere --
            model configuration costs and generated simulation
            hardware alike.  The default ``None`` keeps each engine's
            historical default: the designer rule of
            :func:`repro.core.instruction.practical_policy` in the
            abstract model (the legacy ``CasBusTam()`` default) and
            ``"all"`` for simulated CAS hardware (the legacy
            ``CasBusTamDesign.for_soc`` default).
        inject_faults: core name -> fault, passed to the behavioural
            system builder (simulation runs only).
        simulate: force (``True``) or forbid (``False``) cycle-accurate
            simulation; ``None`` simulates whenever the architecture,
            workload and scheduler support it.
        backend: simulation engine -- ``"auto"`` (compiled kernel when
            possible, the default), ``"kernel"`` or ``"legacy"``; see
            :class:`~repro.sim.session.SessionExecutor`.  A pinned
            engine raises where the run cannot simulate, instead of
            falling back to the model.
        capture_syndromes: record bit-level failing positions
            (:class:`~repro.diagnose.syndrome.Syndrome`) on simulated
            core results; off by default and free when off (cycle
            counts never change either way).
        verify: run the static verifier (:mod:`repro.verify`) at the
            fail-fast boundaries -- executor pre-dispatch, campaign
            record append, model-path scheduling.  On by default;
            identity-neutral (never enters the config hash).
        label: free-form tag copied onto the result.
    """

    architecture: str = "casbus"
    scheduler: str = "greedy"
    bus_width: int | None = None
    cas_policy: str | None = None
    inject_faults: Mapping[str, tuple] | None = None
    simulate: bool | None = None
    backend: str = "auto"
    capture_syndromes: bool = False
    verify: bool = True
    label: str = ""

    def evolve(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (builder plumbing)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`).

        Fault tuples become lists and the fault mapping is emitted in
        sorted key order, so equal configs serialize identically
        regardless of construction order.
        """
        return {
            "architecture": self.architecture,
            "scheduler": self.scheduler,
            "bus_width": self.bus_width,
            "cas_policy": self.cas_policy,
            "inject_faults": (
                {name: list(fault)
                 for name, fault in sorted(self.inject_faults.items())}
                if self.inject_faults else None
            ),
            "simulate": self.simulate,
            "backend": self.backend,
            "capture_syndromes": self.capture_syndromes,
            "verify": self.verify,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        """Rebuild a config serialized by :meth:`to_dict`."""
        faults = data.get("inject_faults")
        return cls(
            architecture=data.get("architecture", "casbus"),
            scheduler=data.get("scheduler", "greedy"),
            bus_width=data.get("bus_width"),
            cas_policy=data.get("cas_policy"),
            inject_faults=(
                {name: tuple(fault) for name, fault in faults.items()}
                if faults else None
            ),
            simulate=data.get("simulate"),
            backend=data.get("backend", "auto"),
            capture_syndromes=data.get("capture_syndromes", False),
            verify=data.get("verify", True),
            label=data.get("label", ""),
        )


@dataclass(frozen=True)
class SessionDetail:
    """Per-session breakdown of a simulated run."""

    label: str
    config_cycles: int
    test_cycles: int
    cores: tuple[str, ...]
    passed: bool

    @property
    def total_cycles(self) -> int:
        return self.config_cycles + self.test_cycles

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`)."""
        return {
            "label": self.label,
            "config_cycles": self.config_cycles,
            "test_cycles": self.test_cycles,
            "cores": list(self.cores),
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SessionDetail":
        """Rebuild a session serialized by :meth:`to_dict`."""
        return cls(
            label=data["label"],
            config_cycles=data["config_cycles"],
            test_cycles=data["test_cycles"],
            cores=tuple(data["cores"]),
            passed=data["passed"],
        )


@dataclass(frozen=True)
class RunResult:
    """Uniform outcome of one experiment run.

    Attributes:
        architecture: canonical architecture name.
        scheduler: canonical scheduler name ('' when the architecture
            has a fixed timing model).
        workload: workload name (SoC name or synthetic tag).
        bus_width: pin budget the run used.
        test_cycles: test application time.
        config_cycles: configuration overhead.
        extra_pins: dedicated test pins the architecture needs.
        area_ge: access-hardware silicon cost (NAND2-equivalent).
        source: ``"simulation"`` (cycle-accurate executor) or
            ``"model"`` (abstract timing).
        passed: overall pass/fail for simulated runs, ``None`` for
            model-only runs (the model moves no bits).
        sessions: per-session detail (simulated runs).
        label: tag copied from the config.
    """

    architecture: str
    scheduler: str
    workload: str
    bus_width: int
    test_cycles: int
    config_cycles: int
    extra_pins: int
    area_ge: float
    source: str
    passed: bool | None = None
    sessions: tuple[SessionDetail, ...] = field(default=())
    label: str = ""

    @property
    def total_cycles(self) -> int:
        return self.test_cycles + self.config_cycles

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`).

        ``area_ge`` survives exactly: JSON floats round-trip through
        ``repr``, so a reloaded result compares equal to the original
        dataclass.
        """
        return {
            "architecture": self.architecture,
            "scheduler": self.scheduler,
            "workload": self.workload,
            "bus_width": self.bus_width,
            "test_cycles": self.test_cycles,
            "config_cycles": self.config_cycles,
            "extra_pins": self.extra_pins,
            "area_ge": self.area_ge,
            "source": self.source,
            "passed": self.passed,
            "sessions": [session.to_dict() for session in self.sessions],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            architecture=data["architecture"],
            scheduler=data["scheduler"],
            workload=data["workload"],
            bus_width=data["bus_width"],
            test_cycles=data["test_cycles"],
            config_cycles=data["config_cycles"],
            extra_pins=data["extra_pins"],
            area_ge=data["area_ge"],
            source=data["source"],
            passed=data.get("passed"),
            sessions=tuple(
                SessionDetail.from_dict(session)
                for session in data.get("sessions", ())
            ),
            label=data.get("label", ""),
        )

    def metrics(self) -> dict[str, object]:
        """Flat metric mapping (sweep/table friendly)."""
        return {
            "architecture": self.architecture,
            "scheduler": self.scheduler or "-",
            "N": self.bus_width,
            "test cycles": self.test_cycles,
            "config cycles": self.config_cycles,
            "total cycles": self.total_cycles,
            "extra pins": self.extra_pins,
            "area (GE)": round(self.area_ge, 1),
            "source": self.source,
            "passed": "-" if self.passed is None else self.passed,
        }


#: Column order of :func:`results_table`.
RESULT_HEADERS: tuple[str, ...] = (
    "architecture", "scheduler", "N", "test cycles", "config cycles",
    "total cycles", "extra pins", "area (GE)", "source", "passed",
)


def results_table(results) -> tuple[list[str], list[list[object]]]:
    """``(headers, rows)`` for a batch of :class:`RunResult`.

    Feed straight into :func:`repro.analysis.tables.format_table`.
    """
    headers = list(RESULT_HEADERS)
    rows = [
        [result.metrics()[key] for key in headers] for result in results
    ]
    return headers, rows
