"""SoC-level CAS-BUS assembly: the one-stop facade.

:class:`CasBusTamDesign` ties the whole flow together for a given SoC:
CAS generation per core (area/VHDL), schedule computation, behavioural
system construction and plan execution.  CAS hardware is generated
lazily, on the first read of :attr:`~CasBusTamDesign.cas_designs` or
an area total, and once per distinct ``(N, P, policy)`` key; planning
and execution never need it.

This class predates the :mod:`repro.api` experiment layer and remains
fully supported; new code should prefer
``repro.api.Experiment(soc).with_architecture("casbus")``, which wraps
this facade behind the same lifecycle every baseline architecture
offers (the registry exposes it as ``get_architecture("casbus")``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from repro.errors import ScheduleError
from repro.core.generator import CasDesign, generate_cas
from repro.soc.core import CoreSpec, TestMethod
from repro.soc.soc import SocSpec
from repro.schedule.assign import session_plan
from repro.schedule.scheduler import Schedule
from repro.sim.plan import TestPlan


@dataclass
class CasBusTamDesign:
    """A complete CAS-BUS TAM for one SoC.

    ``policy`` is the scheme-enumeration policy of every CAS; ``None``
    applies :func:`repro.core.instruction.practical_policy` per CAS.
    """

    soc: SocSpec
    policy: str | None = "all"

    @classmethod
    def for_soc(cls, soc: SocSpec, *,
                policy: str | None = "all") -> "CasBusTamDesign":
        """The CAS-BUS TAM of a validated SoC.

        Generates no hardware: :attr:`cas_designs` synthesises it on
        first access.  The default ``"all"`` policy is the historical
        behaviour.
        """
        soc.validate()
        return cls(soc=soc, policy=policy)

    @cached_property
    def cas_designs(self) -> dict[str, CasDesign]:
        """Core path -> generated CAS, inner cores included.

        Each distinct ``(bus_width, p, policy)`` is generated once per
        design, and cores sharing a key share one :class:`CasDesign`.
        """
        from repro.core.instruction import practical_policy

        designs: dict[str, CasDesign] = {}
        by_key: dict[tuple[int, int, str], CasDesign] = {}

        def visit(spec_soc: SocSpec, prefix: str) -> None:
            for core in spec_soc.cores:
                path = f"{prefix}{core.name}"
                n = spec_soc.bus_width
                policy = (practical_policy(n, core.p)
                          if self.policy is None else self.policy)
                key = (n, core.p, policy)
                if key not in by_key:
                    by_key[key] = generate_cas(n, core.p, policy=policy)
                designs[path] = by_key[key]
                if core.method == TestMethod.HIERARCHICAL:
                    assert core.inner is not None
                    visit(core.inner, f"{path}/")

        visit(self.soc, "")
        return designs

    # -- hardware cost -----------------------------------------------------

    @property
    def total_cas_cells(self) -> int:
        return sum(d.area.cell_count for d in self.cas_designs.values())

    @property
    def total_cas_ge(self) -> float:
        return round(
            sum(d.area.area_ge for d in self.cas_designs.values()), 2
        )

    @property
    def total_config_bits(self) -> int:
        """Length of the full serial configuration chain (CAS IRs)."""
        return sum(d.k for d in self.cas_designs.values())

    def vhdl_bundle(self) -> dict[str, str]:
        """VHDL text for every distinct (N, P) CAS in the design."""
        seen: dict[tuple[int, int], str] = {}
        for design in self.cas_designs.values():
            seen.setdefault((design.n, design.p), design.vhdl)
        return {
            f"cas_{n}_{p}.vhd": text for (n, p), text in sorted(seen.items())
        }

    # -- scheduling ---------------------------------------------------------------

    def schedule(self, strategy: str = "greedy") -> Schedule:
        """Schedule the SoC's top-level cores with a named strategy.

        ``strategy`` is a :mod:`repro.api` scheduler name (``greedy``,
        ``exhaustive``, ``balanced-lpt``, ``preemptive``,
        ``reconfig``); the default reproduces the historical greedy
        session packing and returns its
        :class:`~repro.schedule.scheduler.Schedule`.  Other strategies
        return their own schedule objects (the outcome's ``detail``).
        """
        from repro.api.registry import get_scheduler

        params = [core.test_params() for core in self.soc.cores]
        outcome = get_scheduler(strategy).schedule(
            params, self.soc.bus_width
        )
        return outcome.detail

    def executable_plan(self) -> TestPlan:
        """An executor-ready plan covering every core once.

        Flat cores follow the greedy schedule; each hierarchical core
        expands into per-inner-core sessions (the inner bus usually
        cannot host all inner cores at once).
        """
        flat = [core for core in self.soc.cores
                if core.method != TestMethod.HIERARCHICAL]
        sessions = [
            session_plan(specs, self.soc.bus_width, "flat")
            for specs in self._greedy_exact(self.soc, flat)
        ]
        for core in self.soc.cores:
            if core.method != TestMethod.HIERARCHICAL:
                continue
            assert core.inner is not None
            sessions.extend(
                session_plan(specs, core.inner.bus_width,
                             f"{core.name}-inner", parent=core)
                for specs in self._greedy_exact(core.inner,
                                                core.inner.cores)
            )
        if not sessions:
            raise ScheduleError(f"{self.soc.name}: nothing to test")
        return TestPlan(sessions=tuple(sessions), label=self.soc.name)

    @staticmethod
    def _greedy_exact(soc: SocSpec,
                      cores: Sequence[CoreSpec]) -> list[list[CoreSpec]]:
        """Executor-compatible packing of ``cores``: exact P wires each.

        Routed through the registered ``greedy`` strategy (the only
        executable one) so facade and experiment layer share one
        scheduler implementation.  Returns the cores of each session.
        """
        from repro.api.registry import get_scheduler

        if not cores:
            return []
        schedule = get_scheduler("greedy").schedule(
            [core.test_params() for core in cores], soc.bus_width,
            exact_wires=True,
        ).detail
        return [
            [soc.core_named(entry.params.name) for entry in scheduled.entries]
            for scheduled in schedule.sessions
        ]

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        *,
        inject_faults: Mapping[str, tuple[int, int]] | None = None,
        plan: TestPlan | None = None,
        backend: str = "auto",
        capture_syndromes: bool = False,
        verify: bool = True,
    ):
        """Build the behavioural system and execute a plan.

        ``backend`` selects the execution engine (``"auto"``,
        ``"kernel"``, ``"legacy"``) -- see
        :class:`~repro.sim.session.SessionExecutor`.
        ``capture_syndromes`` records bit-level failing positions on
        every core result (:mod:`repro.diagnose.syndrome`).
        ``verify`` statically checks the wired system and every
        session's artifacts before dispatch (:mod:`repro.verify`).

        Returns the :class:`~repro.sim.session.ProgramResult`.
        """
        from repro.sim.session import SessionExecutor
        from repro.sim.system import build_system

        system = build_system(self.soc, inject_faults=inject_faults)
        executor = SessionExecutor(
            system, backend=backend,
            capture_syndromes=capture_syndromes,
            verify=verify,
        )
        return executor.run_plan(plan or self.executable_plan())
