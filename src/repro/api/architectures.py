"""TAM architectures behind one ``design -> schedule -> evaluate/run``
lifecycle.

Every architecture the paper compares -- CAS-BUS and the five
alternative TAM styles -- registers here under a string key, so
``get_architecture("casbus")`` and ``get_architecture("mux-bus")`` are
interchangeable in every experiment:

======================  ==============================================
key                     implementation
======================  ==============================================
``casbus``              :class:`repro.baselines.casbus.CasBusTam` +
                        the cycle-accurate
                        :class:`repro.core.tam.CasBusTamDesign`
``mux-bus``             :class:`repro.baselines.mux_bus.MultiplexedBus`
``daisy-chain``         :class:`repro.baselines.daisy.DaisyChain`
``static-distribution`` :class:`repro.baselines.distribution.StaticDistribution`
``direct-access``       :class:`repro.baselines.direct.DirectAccess`
``system-bus``          :class:`repro.baselines.sysbus.SystemBusTam`
======================  ==============================================

Only the CAS-BUS supports cycle-accurate simulation (it is the paper's
architecture; the baselines exist as timing models).  Experiments ask
for it implicitly: :meth:`DesignedTam.run` simulates when the
architecture, workload and scheduler allow it and falls back to the
abstract timing model otherwise, always returning a uniform
:class:`~repro.api.results.RunResult`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Sequence, Union

from repro.errors import ConfigurationError
from repro.baselines.base import TamBaseline, TamReport
from repro.baselines.casbus import CasBusTam
from repro.baselines.daisy import DaisyChain
from repro.baselines.direct import DirectAccess
from repro.baselines.distribution import StaticDistribution
from repro.baselines.mux_bus import MultiplexedBus
from repro.baselines.sysbus import SystemBusTam
from repro.obs.metrics import counter as obs_counter
from repro.obs.spans import span as obs_span
from repro.soc.core import CoreTestParams
from repro.soc.soc import SocSpec
from repro.api.registry import get_scheduler, register_architecture
from repro.api.results import (
    SOURCE_MODEL,
    SOURCE_SIMULATION,
    RunConfig,
    RunResult,
    SessionDetail,
)
from repro.api.schedulers import ScheduleOutcome

#: Anything an experiment accepts as a workload (a string is resolved
#: through the :mod:`repro.api.workloads` registry).
WorkloadLike = Union["Workload", SocSpec, Sequence[CoreTestParams], str]


@dataclass(frozen=True)
class Workload:
    """A normalised experiment workload.

    Either a full :class:`~repro.soc.soc.SocSpec` (simulatable) or a
    bag of abstract :class:`~repro.soc.core.CoreTestParams` (model
    only, e.g. the ITC'02-style tables).
    """

    name: str
    cores: tuple[CoreTestParams, ...]
    bus_width: int | None = None
    soc: SocSpec | None = None

    @classmethod
    def of(cls, workload: WorkloadLike) -> "Workload":
        if isinstance(workload, Workload):
            return workload
        if isinstance(workload, str):
            from repro.api.workloads import get_workload

            return get_workload(workload)
        if isinstance(workload, SocSpec):
            workload.validate()
            return cls(
                name=workload.name,
                cores=tuple(core.test_params() for core in workload.cores),
                bus_width=workload.bus_width,
                soc=workload,
            )
        cores = tuple(workload)
        for core in cores:
            if not isinstance(core, CoreTestParams):
                raise ConfigurationError(
                    f"workload entries must be CoreTestParams, "
                    f"got {type(core).__name__}"
                )
        if not cores:
            raise ConfigurationError("a workload needs at least one core")
        return cls(name=f"cores[{len(cores)}]", cores=cores)

    def identity(self) -> dict:
        """Canonical JSON-ready identity (campaign config hashing).

        Simulatable workloads serialize their full :class:`SocSpec`
        (structural identity: core specs, seeds, interconnects);
        abstract core tables serialize their
        :class:`~repro.soc.core.CoreTestParams` plus the workload name,
        so registered tables (``itc02-d695``) hash stably across
        processes while remaining distinct from one another.  Enum
        members serialize by value; the payload is pure
        JSON-serializable data.
        """
        import dataclasses

        def jsonable(value):
            if isinstance(value, enum.Enum):
                return value.value
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {
                    f.name: jsonable(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                }
            if isinstance(value, (tuple, list)):
                return [jsonable(item) for item in value]
            if isinstance(value, dict):
                return {key: jsonable(item) for key, item in value.items()}
            return value

        if self.soc is not None:
            return {"kind": "soc", "spec": jsonable(self.soc)}
        return {
            "kind": "cores",
            "name": self.name,
            "bus_width": self.bus_width,
            "cores": [jsonable(core) for core in self.cores],
        }

    def resolve_width(self, requested: int | None) -> int:
        width = requested if requested is not None else self.bus_width
        if width is None:
            raise ConfigurationError(
                f"workload {self.name!r} has no intrinsic bus width; "
                f"set RunConfig.bus_width"
            )
        if width < 1:
            raise ConfigurationError(
                f"bus width must be >= 1, got {width}"
            )
        return width


class TamArchitecture(abc.ABC):
    """One test access mechanism style, pluggable by name."""

    #: Canonical registry key.
    key: str = "architecture"
    #: Whether the cycle-accurate executor can run this architecture.
    supports_simulation: bool = False
    #: Whether the timing model consults a scheduler strategy.  A
    #: scheduling architecture reports the strategy's outcome through
    #: :meth:`report`, which it must then implement.
    uses_scheduler: bool = False

    @abc.abstractmethod
    def model(self, *, cas_policy: str | None = None) -> TamBaseline:
        """The abstract timing model (a legacy baseline instance)."""

    def design(self, workload: WorkloadLike) -> "DesignedTam":
        """Bind this architecture to a workload (lifecycle step 1)."""
        return DesignedTam(architecture=self, workload=Workload.of(workload))

    def evaluate(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        *,
        cas_policy: str | None = None,
    ) -> TamReport:
        """Abstract-model cost report (legacy-compatible)."""
        return self.model(cas_policy=cas_policy).evaluate(cores, bus_width)

    def report(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        outcome: ScheduleOutcome,
        *,
        cas_policy: str | None = None,
    ) -> TamReport:
        """Cost report of a scheduler's ``outcome`` (scheduling
        architectures only)."""
        raise ConfigurationError(
            f"architecture {self.key!r} uses a scheduler but does not "
            f"implement report()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key!r}>"


@dataclass(frozen=True)
class DesignedTam:
    """An architecture bound to a workload: schedule, evaluate, run."""

    architecture: TamArchitecture
    workload: Workload

    # -- lifecycle ---------------------------------------------------------

    def schedule(
        self, config: RunConfig | None = None
    ) -> ScheduleOutcome | None:
        """The scheduler strategy's outcome, or ``None`` when the
        architecture's timing model is fixed (non-scheduling TAMs)."""
        config = config or RunConfig(architecture=self.architecture.key)
        if not self.architecture.uses_scheduler:
            return None
        width = self.workload.resolve_width(config.bus_width)
        strategy = get_scheduler(config.scheduler)
        return strategy.schedule(
            self.workload.cores, width, cas_policy=config.cas_policy
        )

    def evaluate(self, config: RunConfig | None = None) -> RunResult:
        """Abstract-timing-model result (never simulates)."""
        config = config or RunConfig(architecture=self.architecture.key)
        return self._model_result(config, self.schedule(config))

    def run(self, config: RunConfig | None = None) -> RunResult:
        """Cycle-accurate simulation when possible, model otherwise.

        A run the architecture could simulate but that falls to the
        model (``simulate=None`` with a non-executable scheduler or a
        width override) is counted as ``fallback.model`` and traced in a
        span of that name carrying the reason.  Abstract tables and the
        baseline architectures are model-only by nature and emit
        neither.
        """
        config = config or RunConfig(architecture=self.architecture.key)
        blocker = self._simulation_blocker(config)
        if config.simulate is True and blocker:
            raise ConfigurationError(f"cannot simulate: {blocker}")
        if blocker and config.simulate is None and config.backend != "auto":
            # An explicit engine choice is never dropped for the model.
            raise ConfigurationError(
                f"backend {config.backend!r} needs cycle-accurate "
                f"simulation, but {blocker}"
            )
        if config.simulate is False and config.inject_faults:
            raise ConfigurationError(
                "fault injection needs cycle-accurate simulation "
                "(simulate=False forbids it)"
            )
        if blocker is None and config.simulate is not False:
            return self._simulate(config)
        if config.inject_faults:
            raise ConfigurationError(
                f"fault injection needs cycle-accurate simulation, "
                f"but {blocker}"
            )
        if (config.simulate is None and self.workload.soc is not None
                and self.architecture.supports_simulation):
            obs_counter("fallback.model").inc()
            with obs_span("fallback.model", reason=blocker):
                return self._model_run(config)
        return self._model_run(config)

    # -- internals ---------------------------------------------------------

    def _model_run(self, config: RunConfig) -> RunResult:
        """Schedule once, verify that outcome, report that outcome."""
        outcome = self.schedule(config)
        if config.verify:
            self._verify_model_outcome(config, outcome)
        return self._model_result(config, outcome)

    def _model_result(self, config: RunConfig,
                      outcome: ScheduleOutcome | None) -> RunResult:
        """The model-path :class:`RunResult` of ``outcome``.

        A scheduling architecture reports ``outcome`` itself, so the
        run's verified object is the reported one; fixed-model
        architectures (``outcome is None``) evaluate their timing model.
        """
        cores = self.workload.cores
        width = self.workload.resolve_width(config.bus_width)
        if outcome is None:
            report = self.architecture.evaluate(
                cores, width, cas_policy=config.cas_policy
            )
        else:
            report = self.architecture.report(
                cores, width, outcome, cas_policy=config.cas_policy
            )
        return RunResult(
            architecture=self.architecture.key,
            scheduler="" if outcome is None else outcome.strategy,
            workload=self.workload.name,
            bus_width=width,
            test_cycles=report.test_cycles,
            config_cycles=report.config_cycles,
            extra_pins=report.extra_pins,
            area_ge=report.area_proxy,
            source=SOURCE_MODEL,
            passed=None,
            label=config.label,
        )

    def _verify_model_outcome(self, config: RunConfig,
                              outcome: ScheduleOutcome | None) -> None:
        """Statically check the scheduler's outcome before reporting it.

        Model-path counterpart of the executor's pre-dispatch
        verification: the strategy's schedule object is re-derived
        against the cost model and any inconsistency raises
        :class:`~repro.errors.VerificationError` instead of entering a
        result.  Fixed-model architectures have nothing to check.
        """
        if outcome is None:
            return
        from repro.schedule.model import TamProblem
        from repro.verify import verify_outcome

        problem = TamProblem.of(
            self.workload.cores,
            self.workload.resolve_width(config.bus_width),
            cas_policy=config.cas_policy,
        )
        verify_outcome(outcome, problem).raise_if_failed(
            f"{self.architecture.key}/{self.workload.name}"
        )

    def _simulation_blocker(self, config: RunConfig) -> str | None:
        """Why this run cannot simulate, or ``None`` if it can."""
        if not self.architecture.supports_simulation:
            return (f"architecture {self.architecture.key!r} has no "
                    f"behavioural model (abstract timing only)")
        if self.workload.soc is None:
            return (f"workload {self.workload.name!r} is abstract "
                    f"core parameters, not a simulatable SocSpec")
        if (config.bus_width is not None
                and config.bus_width != self.workload.soc.bus_width):
            return (f"bus width override {config.bus_width} differs from "
                    f"the SoC's physical width "
                    f"{self.workload.soc.bus_width}")
        strategy = get_scheduler(config.scheduler)
        if not strategy.executable:
            return (f"scheduler {strategy.name!r} produces schedules the "
                    f"session executor cannot run (only 'greedy' is "
                    f"executable)")
        return None

    def _facade(self, config: RunConfig):
        """The run's CAS-BUS facade and its CAS area in gate equivalents.

        A pinned policy sizes the generated CAS hardware; the default
        ``None`` keeps the facade's historical ``"all"`` enumeration.
        The area is read here, so a generation error is raised before
        any simulation starts.
        """
        from repro.core.tam import CasBusTamDesign

        soc = self.workload.soc
        assert soc is not None
        facade = CasBusTamDesign.for_soc(
            soc,
            policy="all" if config.cas_policy is None
            else config.cas_policy,
        )
        return facade, facade.total_cas_ge

    def _simulate(self, config: RunConfig) -> RunResult:
        facade, area_ge = self._facade(config)
        program = facade.run(
            inject_faults=config.inject_faults,
            backend=config.backend,
            capture_syndromes=config.capture_syndromes,
            verify=config.verify,
        )
        return self._simulated_result(config, program, area_ge)

    def _simulated_result(self, config: RunConfig, program,
                          area_ge: float) -> RunResult:
        """The :class:`RunResult` of one simulated ``program``.

        Shared by :meth:`_simulate` and the runner's batch dispatch,
        which simulates many fault scenarios of one design at once.
        """
        soc = self.workload.soc
        assert soc is not None
        sessions = tuple(
            SessionDetail(
                label=session.label,
                config_cycles=session.config_cycles,
                test_cycles=session.test_cycles,
                cores=tuple(r.name for r in session.core_results),
                passed=session.passed,
            )
            for session in program.sessions
        )
        return RunResult(
            architecture=self.architecture.key,
            scheduler=get_scheduler(config.scheduler).name,
            workload=self.workload.name,
            bus_width=soc.bus_width,
            test_cycles=program.test_cycles,
            config_cycles=program.config_cycles,
            extra_pins=soc.bus_width,
            area_ge=area_ge,
            source=SOURCE_SIMULATION,
            passed=program.passed,
            sessions=sessions,
            label=config.label,
        )


class CasBusArchitecture(TamArchitecture):
    """The paper's reconfigurable CAS-BUS (simulatable, scheduled)."""

    key = "casbus"
    supports_simulation = True
    uses_scheduler = True

    def model(self, *, cas_policy=None) -> TamBaseline:
        return CasBusTam(policy=cas_policy)

    def report(self, cores, bus_width, outcome, *,
               cas_policy=None) -> TamReport:
        return CasBusTam(policy=cas_policy).report(
            cores, bus_width, outcome.test_cycles, outcome.config_cycles
        )


class FixedModelArchitecture(TamArchitecture):
    """A baseline with a fixed timing model (no scheduler, no sim)."""

    baseline_cls: type = TamBaseline

    def model(self, *, cas_policy=None) -> TamBaseline:
        return self.baseline_cls()


class MuxBusArchitecture(FixedModelArchitecture):
    key = "mux-bus"
    baseline_cls = MultiplexedBus


class DaisyChainArchitecture(FixedModelArchitecture):
    key = "daisy-chain"
    baseline_cls = DaisyChain


class StaticDistributionArchitecture(FixedModelArchitecture):
    key = "static-distribution"
    baseline_cls = StaticDistribution


class DirectAccessArchitecture(FixedModelArchitecture):
    key = "direct-access"
    baseline_cls = DirectAccess


class SystemBusArchitecture(FixedModelArchitecture):
    key = "system-bus"
    baseline_cls = SystemBusTam


#: Canonical comparison order (CAS-BUS last, matching ``all_baselines``).
BASELINE_ORDER: tuple[str, ...] = (
    "mux-bus", "daisy-chain", "static-distribution",
    "direct-access", "system-bus", "casbus",
)


def registered_baselines() -> list[TamBaseline]:
    """Legacy baseline instances in canonical order, via the registry.

    Backs :func:`repro.baselines.all_baselines`, so the shim and the
    registry can never diverge.
    """
    from repro.api.registry import get_architecture

    return [get_architecture(key).model() for key in BASELINE_ORDER]


register_architecture(
    "casbus", CasBusArchitecture, aliases=("cas-bus", "cas_bus"),
    description="The paper's reconfigurable CAS-BUS (simulatable, "
                "scheduled).",
)
register_architecture(
    "mux-bus", MuxBusArchitecture, aliases=("mux_bus", "multiplexed-bus"),
    description="Multiplexed test bus: one core at a time owns the bus.",
)
register_architecture(
    "daisy-chain", DaisyChainArchitecture, aliases=("daisy", "daisy_chain"),
    description="Daisy-chained wrappers: one serial path through every "
                "core.",
)
register_architecture(
    "static-distribution", StaticDistributionArchitecture,
    aliases=("distribution", "testrail"),
    description="Fixed wire distribution frozen at tape-out (TestRail "
                "style).",
)
register_architecture(
    "direct-access", DirectAccessArchitecture,
    aliases=("direct", "direct_access"),
    description="Dedicated pins per core: fastest, most expensive in "
                "pins.",
)
register_architecture(
    "system-bus", SystemBusArchitecture, aliases=("sysbus", "system_bus"),
    description="Reuse of the functional system bus for test access.",
)
