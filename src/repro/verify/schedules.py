"""Static checks on schedule IR against the memoised cost model.

Every check re-derives the quantity a schedule *claims* (entry cycles,
session wire usage, configuration totals) from the one
:class:`~repro.schedule.model.CostModel` and reports a diagnostic when
the artifact disagrees -- without simulating anything.

Rules::

    SCH001  wire budget exceeded (or schedule/problem width mismatch)
    SCH002  core scheduled twice inside one concurrent group
    SCH003  scheduled core unknown to (or inconsistent with) the problem
    SCH004  problem core with work never scheduled
    SCH005  entry allocated fewer than one wire
    SCH006  entry cycle claim not re-derivable from the cost model
    SCH007  configuration total not re-derivable from the cost model
    PRE001  preemptive segment breaks the wire budget
    PRE002  core allocated twice inside one segment
    PRE003  preemptive configuration total inconsistent with boundaries
    STA001  static plan structure broken (groups vs wires vs budget)
    STA002  static groups do not partition the problem cores
    OUT001  strategy outcome totals not re-derivable from its detail
"""

from __future__ import annotations

from typing import Optional

from repro.soc.core import CoreTestParams
from repro.schedule.model import CostModel, Schedule, TamProblem, cost_model
from repro.schedule.optimize import OptimizeOutcome
from repro.schedule.preemptive import PreemptiveSchedule
from repro.schedule.reconfig import ReconfigComparison, StaticPlan
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    VerifyReport,
    rule,
)

SCH001 = rule("SCH001", SEVERITY_ERROR,
              "session wire usage exceeds the bus budget")
SCH002 = rule("SCH002", SEVERITY_ERROR,
              "core scheduled twice inside one concurrent group")
SCH003 = rule("SCH003", SEVERITY_ERROR,
              "scheduled core unknown to the problem")
SCH004 = rule("SCH004", SEVERITY_ERROR,
              "problem core with work never scheduled")
SCH005 = rule("SCH005", SEVERITY_ERROR,
              "entry allocated fewer than one wire")
SCH006 = rule("SCH006", SEVERITY_ERROR,
              "entry cycle claim not re-derivable from the cost model")
SCH007 = rule("SCH007", SEVERITY_ERROR,
              "configuration total not re-derivable from the cost model")
PRE001 = rule("PRE001", SEVERITY_ERROR,
              "preemptive segment breaks the wire budget")
PRE002 = rule("PRE002", SEVERITY_ERROR,
              "core allocated twice inside one segment")
PRE003 = rule("PRE003", SEVERITY_ERROR,
              "preemptive configuration total inconsistent with its "
              "boundary count")
STA001 = rule("STA001", SEVERITY_ERROR,
              "static plan structure broken")
STA002 = rule("STA002", SEVERITY_ERROR,
              "static groups do not partition the problem cores")
OUT001 = rule("OUT001", SEVERITY_ERROR,
              "strategy outcome totals not re-derivable from its detail")


def _core_index(problem: TamProblem) -> dict[str, CoreTestParams]:
    return {core.name: core for core in problem.cores}


def _has_work(model: CostModel, core: CoreTestParams) -> bool:
    return model.core_cycles(core, 1) > 0


def _check_coverage(
    scheduled: set[str],
    model: CostModel,
    report: VerifyReport,
    location: str,
) -> None:
    """SCH004: every core with actual work must appear somewhere.

    Zero-work cores (no patterns, no fixed duration) may legally be
    omitted -- the preemptive scheduler never emits segments for them.
    """
    for core in model.problem.cores:
        if core.name in scheduled:
            continue
        if not _has_work(model, core):
            continue
        report.add(
            SCH004, f"{location}",
            f"core {core.name!r} "
            f"({model.core_cycles(core, 1)} cycles of work) "
            f"is never scheduled",
            hint="every core with work must appear in some session",
        )


def verify_schedule(
    schedule: Schedule,
    problem: TamProblem,
    *,
    charge_config: Optional[bool] = None,
    report: Optional[VerifyReport] = None,
    location: str = "schedule",
) -> VerifyReport:
    """Check a session-based :class:`Schedule` against ``problem``.

    ``charge_config`` declares how the configuration total was
    charged: ``True`` (must match the model), ``False`` (must be 0) or
    ``None`` (either is acceptable -- the caller does not know).
    """
    if report is None:
        report = VerifyReport()
    report.checked += 1
    model = CostModel(problem)
    index = _core_index(problem)
    if schedule.bus_width != problem.bus_width:
        report.add(
            SCH001, location,
            f"schedule is for N={schedule.bus_width} but the problem "
            f"has N={problem.bus_width}",
        )
    scheduled: set[str] = set()
    for s_index, session in enumerate(schedule.sessions):
        s_loc = f"{location}/session[{s_index}]"
        seen: set[str] = set()
        wires_used = 0
        for e_index, entry in enumerate(session.entries):
            e_loc = f"{s_loc}/entry[{e_index}]"
            params = entry.params
            name = params.name
            scheduled.add(name)
            if name in seen:
                report.add(
                    SCH002, e_loc,
                    f"core {name!r} appears twice in one session",
                )
            seen.add(name)
            known = index.get(name)
            if known is None:
                report.add(
                    SCH003, e_loc,
                    f"core {name!r} is not part of the problem",
                )
            elif known != params:
                report.add(
                    SCH003, e_loc,
                    f"core {name!r} parameters differ from the "
                    f"problem's ({params} != {known})",
                    hint="schedules must reference problem cores "
                         "verbatim",
                )
            if entry.wires < 1:
                report.add(
                    SCH005, e_loc,
                    f"core {name!r} allocated {entry.wires} wires",
                    hint="every scheduled core needs at least one wire",
                )
                continue
            wires_used += entry.wires
            claimed = entry.cycles
            derived = model.core_cycles(params, entry.wires)
            if claimed != derived:
                report.add(
                    SCH006, e_loc,
                    f"core {name!r} claims {claimed} cycles on "
                    f"{entry.wires} wires; the cost model derives "
                    f"{derived}",
                )
        if wires_used > problem.bus_width:
            report.add(
                SCH001, s_loc,
                f"session uses {wires_used} wires on an "
                f"N={problem.bus_width} bus",
            )
    _check_coverage(scheduled, model, report, location)
    derived_config = model.schedule_config_cycles(schedule.sessions)
    total = schedule.config_cycles_total
    valid: tuple[int, ...]
    if charge_config is True:
        valid = (derived_config,)
    elif charge_config is False:
        valid = (0,)
    else:
        valid = (0, derived_config)
    if total not in valid:
        report.add(
            SCH007, location,
            f"configuration total {total} is not re-derivable: the "
            f"cost model charges {derived_config} (or 0 uncharged)",
        )
    return report


def verify_preemptive(
    schedule: PreemptiveSchedule,
    problem: TamProblem,
    *,
    charge_config: Optional[bool] = None,
    report: Optional[VerifyReport] = None,
    location: str = "preemptive",
) -> VerifyReport:
    """Check a :class:`PreemptiveSchedule` against ``problem``."""
    if report is None:
        report = VerifyReport()
    report.checked += 1
    model = CostModel(problem)
    index = _core_index(problem)
    if schedule.bus_width != problem.bus_width:
        report.add(
            SCH001, location,
            f"schedule is for N={schedule.bus_width} but the problem "
            f"has N={problem.bus_width}",
        )
    scheduled: set[str] = set()
    for s_index, segment in enumerate(schedule.segments):
        s_loc = f"{location}/segment[{s_index}]"
        seen: set[str] = set()
        wires_used = 0
        if segment.duration < 0:
            report.add(
                PRE001, s_loc,
                f"negative segment duration {segment.duration}",
            )
        for name, wires in segment.allocations:
            scheduled.add(name)
            if name in seen:
                report.add(
                    PRE002, s_loc,
                    f"core {name!r} allocated twice in one segment",
                )
            seen.add(name)
            if name not in index:
                report.add(
                    SCH003, s_loc,
                    f"core {name!r} is not part of the problem",
                )
            if wires < 1:
                report.add(
                    PRE001, s_loc,
                    f"core {name!r} allocated {wires} wires",
                )
                continue
            wires_used += wires
        if wires_used > problem.bus_width:
            report.add(
                PRE001, s_loc,
                f"segment uses {wires_used} wires on an "
                f"N={problem.bus_width} bus",
            )
    _check_coverage(scheduled, model, report, location)
    per_boundary = model.boundary_config_cycles()
    derived_config = len(schedule.segments) * per_boundary
    total = schedule.config_cycles_total
    if charge_config is True:
        valid = (derived_config,)
    elif charge_config is False:
        valid = (0,)
    else:
        valid = (0, derived_config)
    if total not in valid:
        report.add(
            PRE003, location,
            f"configuration total {total} does not match "
            f"{len(schedule.segments)} boundaries at {per_boundary} "
            f"cycles each ({derived_config}, or 0 uncharged)",
        )
    return report


def verify_static_plan(
    plan: StaticPlan,
    problem: TamProblem,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "static-plan",
) -> VerifyReport:
    """Check a :class:`StaticPlan` wire partition against ``problem``."""
    if report is None:
        report = VerifyReport()
    report.checked += 1
    if len(plan.groups) != len(plan.wires_per_group):
        report.add(
            STA001, location,
            f"{len(plan.groups)} groups but "
            f"{len(plan.wires_per_group)} wire counts",
        )
    bad_wires = [w for w in plan.wires_per_group if w < 1]
    if bad_wires:
        report.add(
            STA001, location,
            f"groups with fewer than one wire: {bad_wires}",
        )
    total_wires = sum(plan.wires_per_group)
    if total_wires > problem.bus_width:
        report.add(
            STA001, location,
            f"partition uses {total_wires} wires on an "
            f"N={problem.bus_width} bus",
        )
    planned = [core.name for group in plan.groups for core in group]
    expected = sorted(core.name for core in problem.cores)
    if sorted(planned) != expected:
        report.add(
            STA002, location,
            f"groups hold {sorted(planned)} but the problem has "
            f"{expected}",
            hint="a static partition assigns every core exactly once",
        )
    return report


def _derive_totals(
    detail: object, problem: TamProblem, report: VerifyReport,
    location: str,
) -> "Optional[tuple[int, int]]":
    """Verify ``detail`` structurally and re-derive its totals.

    Returns ``(test_cycles, config_cycles)`` as the strategy adapter
    would have reported them, or ``None`` for unknown detail types.
    """
    if isinstance(detail, Schedule):
        verify_schedule(detail, problem, report=report,
                        location=location)
        return detail.test_cycles, detail.config_cycles_total
    if isinstance(detail, PreemptiveSchedule):
        verify_preemptive(detail, problem, report=report,
                          location=location)
        return detail.test_cycles, detail.config_cycles_total
    if isinstance(detail, StaticPlan):
        verify_static_plan(detail, problem, report=report,
                           location=location)
        config = 0
        if problem.cores:
            config = cost_model(
                problem.cores, problem.bus_width, problem.cas_policy,
            ).session_config_cycles(len(problem.cores))
        return detail.total_cycles, config
    if isinstance(detail, ReconfigComparison):
        verify_schedule(detail.reconfigured, problem,
                        charge_config=True, report=report,
                        location=f"{location}/reconfigured")
        verify_preemptive(detail.preemptive, problem,
                          charge_config=True, report=report,
                          location=f"{location}/preemptive")
        verify_static_plan(detail.static, problem, report=report,
                           location=f"{location}/static")
        best = min(
            (detail.reconfigured, detail.preemptive),
            key=lambda schedule: schedule.total_cycles,
        )
        return best.test_cycles, best.config_cycles_total
    if isinstance(detail, OptimizeOutcome):
        verify_schedule(detail.schedule, detail.problem, report=report,
                        location=f"{location}/best")
        for width, schedule in sorted(detail.schedules.items()):
            verify_schedule(
                schedule, detail.problem.with_width(width),
                report=report, location=f"{location}/width[{width}]",
            )
        return detail.test_cycles, detail.config_cycles
    return None


def verify_outcome(
    outcome,
    problem: TamProblem,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "",
) -> VerifyReport:
    """Check a :class:`~repro.api.schedulers.ScheduleOutcome`.

    Verifies the strategy-specific ``detail`` structurally, then
    re-derives the outcome's reported totals from it (OUT001).  The
    adapter zeroes ``config_cycles`` when configuration was not
    charged, so 0 is always an acceptable configuration total.
    """
    if report is None:
        report = VerifyReport()
    loc = location or f"outcome[{outcome.strategy}]"
    if outcome.bus_width != problem.bus_width:
        report.add(
            OUT001, loc,
            f"outcome is for N={outcome.bus_width} but the problem "
            f"has N={problem.bus_width}",
        )
    derived = _derive_totals(outcome.detail, problem, report, loc)
    if derived is None:
        return report
    test, config = derived
    if outcome.test_cycles != test:
        report.add(
            OUT001, loc,
            f"outcome claims {outcome.test_cycles} test cycles; its "
            f"detail derives {test}",
        )
    if outcome.config_cycles not in (0, config):
        report.add(
            OUT001, loc,
            f"outcome claims {outcome.config_cycles} config cycles; "
            f"its detail derives {config} (or 0 uncharged)",
        )
    return report
