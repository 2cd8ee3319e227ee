"""Maintenance / concurrent test planning (section 4: "it is possible
to test some embedded cores while others are in normal functioning
mode.  This is very useful when, e.g., an embedded memory test is
periodically required").

Builds an executor-ready session that tests a target subset of cores
while every other core's wrapper stays in NORMAL mode, and returns the
paths whose state the executor should verify undisturbed.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ScheduleError
from repro.soc.core import TestMethod
from repro.soc.soc import SocSpec
from repro.schedule.assign import session_plan
from repro.sim.plan import SessionPlan


def maintenance_session(
    soc: SocSpec,
    target_names: Sequence[str],
) -> tuple[SessionPlan, list[tuple[str, ...]]]:
    """Plan a maintenance test of ``target_names``.

    Returns the session plan plus the list of core paths that must
    remain undisturbed (every non-target, non-hierarchical core).

    Raises :class:`~repro.errors.ScheduleError` when the targets cannot
    run concurrently on the SoC's bus.
    """
    if not target_names:
        raise ScheduleError("maintenance test needs at least one target")
    targets = [soc.core_named(name) for name in target_names]
    for core in targets:
        if core.method == TestMethod.HIERARCHICAL:
            raise ScheduleError(
                f"{core.name}: address inner cores of hierarchical "
                f"cores individually"
            )
    needed = sum(core.p for core in targets)
    if needed > soc.bus_width:
        raise ScheduleError(
            f"targets need {needed} wires, bus has {soc.bus_width}; "
            f"split the maintenance test into phases"
        )
    plan = session_plan(targets, soc.bus_width, "maintenance")
    undisturbed = [
        (core.name,)
        for core in soc.cores
        if core.name not in set(target_names)
        and core.method != TestMethod.HIERARCHICAL
    ]
    return plan, undisturbed
