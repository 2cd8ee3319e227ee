"""Minimal follow-up re-test planning after a diagnosis.

Once diagnosis has narrowed the failure to a set of suspect cores, a
confirmation run (after repair, a wafer-map recheck, an incoming-batch
screen) only needs to exercise *those* cores -- the reconfigurable bus
happily leaves everything else in BYPASS.  This module plans that
minimal program by reusing the scheduling layer's
:class:`~repro.schedule.model.TamProblem` / ``CostModel`` machinery, so
the predicted cost lives in the same cycle currency every scheduler
and the diagnosis engine already report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.soc.core import TestMethod
from repro.soc.soc import SocSpec
from repro.schedule.assign import session_plan
from repro.schedule.model import CostModel, TamProblem
from repro.sim.plan import SessionPlan, TestPlan


@dataclass(frozen=True)
class RetestPlan:
    """An executor-ready minimal re-test of the suspect cores."""

    plan: TestPlan
    cores: tuple
    predicted_test_cycles: int
    predicted_config_cycles: int

    @property
    def predicted_total_cycles(self) -> int:
        return self.predicted_test_cycles + self.predicted_config_cycles

    def describe(self) -> str:
        return (
            f"re-test of {list(self.cores)}: "
            f"{len(self.plan.sessions)} session(s), predicted "
            f"{self.predicted_test_cycles} test + "
            f"{self.predicted_config_cycles} config cycles"
        )


def minimal_retest_plan(
    soc: SocSpec,
    suspects: Sequence[str],
    *,
    cas_policy: str = "all",
) -> RetestPlan:
    """Plan the cheapest session program covering only ``suspects``.

    Top-level suspects pack greedily onto the bus at their exact port
    widths (the executor's wire discipline); nested suspects
    (``parent/child``) each get their own session through the parent's
    inner bus.  Costs come from the shared
    :class:`~repro.schedule.model.CostModel`.
    """
    if not suspects:
        raise ConfigurationError("a re-test needs at least one suspect")
    seen = set()
    ordered: "list[str]" = []
    for name in suspects:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    flat = [name for name in ordered if "/" not in name]
    nested = [name for name in ordered if "/" in name]
    sessions: "list[SessionPlan]" = []
    model = CostModel(TamProblem.of(
        [soc.core_named(name).test_params() for name in flat]
        if flat else [core.test_params() for core in soc.cores],
        soc.bus_width,
        cas_policy,
    ))
    test_cycles = 0
    config_cycles = 0
    if flat:
        from repro.api.registry import get_scheduler

        params = [soc.core_named(name).test_params() for name in flat]
        schedule = get_scheduler("greedy").schedule(
            params, soc.bus_width, exact_wires=True
        ).detail
        for scheduled in schedule.sessions:
            sessions.append(session_plan(
                [soc.core_named(entry.params.name)
                 for entry in scheduled.entries],
                soc.bus_width, "retest",
            ))
            test_cycles += scheduled.cycles
            config_cycles += model.session_config_cycles(
                len(scheduled.entries)
            )
    for name in nested:
        parent_name, _, inner_name = name.partition("/")
        parent = soc.core_named(parent_name)
        if parent.method != TestMethod.HIERARCHICAL:
            raise ConfigurationError(
                f"{name}: {parent_name} is not hierarchical"
            )
        assert parent.inner is not None
        inner_spec = parent.inner.core_named(inner_name.split("/")[0])
        sessions.append(session_plan(
            [inner_spec], parent.inner.bus_width, "retest", parent=parent
        ))
        inner_params = inner_spec.test_params()
        inner_model = CostModel(TamProblem.of(
            [core.test_params() for core in parent.inner.cores],
            parent.inner.bus_width,
            cas_policy,
        ))
        test_cycles += inner_model.core_cycles(
            inner_params, inner_params.max_wires
        )
        config_cycles += model.session_config_cycles(1)
    return RetestPlan(
        plan=TestPlan(sessions=tuple(sessions), label="retest"),
        cores=tuple(ordered),
        predicted_test_cycles=test_cycles,
        predicted_config_cycles=config_cycles,
    )


def run_retest(
    soc: SocSpec,
    retest: RetestPlan,
    *,
    scenario=None,
    backend: str = "auto",
    capture_syndromes: bool = False,
):
    """Execute a re-test plan on a fresh (optionally defective) system.

    Returns the :class:`~repro.sim.session.ProgramResult` -- after a
    repair, pass ``scenario=None`` and expect a clean program.
    """
    from repro.sim.session import SessionExecutor
    from repro.diagnose.inject import build_faulty_system

    system = build_faulty_system(soc, scenario)
    executor = SessionExecutor(
        system, backend=backend, capture_syndromes=capture_syndromes
    )
    return executor.run_plan(retest.plan)
