"""Scheduler strategies: one pluggable interface over the policies in
:mod:`repro.schedule`.

Every strategy is the same :class:`StrategyAdapter` wrapped around one
schedule function, so experiments swap policies by name and adding a
policy is one entry in :data:`_STRATEGY_SPECS`:

======================  =================================================
name                    algorithm
======================  =================================================
``greedy``              :func:`repro.schedule.scheduler.schedule_greedy`
``exhaustive``          :func:`repro.schedule.scheduler.schedule_exhaustive`
``balanced-lpt``        LPT static partition
                        (:func:`repro.schedule.reconfig.static_partition`)
``preemptive``          :func:`repro.schedule.preemptive.schedule_preemptive`
``reconfig``            best of session/preemptive reconfiguration
                        (:func:`repro.schedule.reconfig.compare_reconfiguration`)
``optimize-bnb``        exact width/session co-optimisation
                        (:func:`repro.schedule.optimize.optimize_bnb`)
``optimize-anneal``     annealed width/session co-optimisation
                        (:func:`repro.schedule.optimize.optimize_anneal`)
``optimize-portfolio``  parallel multi-start portfolio
                        (:func:`repro.schedule.portfolio.optimize_portfolio`)
======================  =================================================

Only ``greedy`` produces schedules the cycle-accurate
:class:`~repro.sim.session.SessionExecutor` can execute (a CAS in TEST
mode switches exactly P wires, so executable plans are rigid); the
others model design-time alternatives in the abstract timing model.
The two ``optimize-*`` strategies carry their full
:class:`~repro.schedule.optimize.OptimizeOutcome` (Pareto front
included) as the outcome's ``detail``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from repro.soc.core import CoreTestParams
from repro.schedule.model import cost_model
from repro.schedule.optimize import optimize_anneal, optimize_bnb
from repro.schedule.preemptive import schedule_preemptive
from repro.schedule.reconfig import compare_reconfiguration, static_partition
from repro.schedule.scheduler import schedule_exhaustive, schedule_greedy
from repro.api.registry import register_scheduler


@dataclass(frozen=True)
class ScheduleOutcome:
    """Uniform result of one scheduling strategy on one workload.

    Attributes:
        strategy: the strategy's registry name.
        bus_width: the pin budget scheduled against.
        test_cycles: test application time.
        config_cycles: configuration/reconfiguration overhead.
        detail: the strategy-specific schedule object
            (:class:`~repro.schedule.model.Schedule`,
            :class:`~repro.schedule.preemptive.PreemptiveSchedule`,
            :class:`~repro.schedule.reconfig.ReconfigComparison`,
            :class:`~repro.schedule.reconfig.StaticPlan`, or
            :class:`~repro.schedule.optimize.OptimizeOutcome`).
    """

    strategy: str
    bus_width: int
    test_cycles: int
    config_cycles: int
    detail: object = None

    @property
    def total_cycles(self) -> int:
        return self.test_cycles + self.config_cycles

    def describe(self) -> str:
        if hasattr(self.detail, "describe"):
            return self.detail.describe()
        return (f"{self.strategy} on N={self.bus_width}: "
                f"{self.test_cycles} test + {self.config_cycles} config "
                f"cycles")


class SchedulerStrategy(abc.ABC):
    """One test-scheduling policy over abstract core parameters."""

    name: str = "strategy"
    #: Whether the strategy's schedules map onto the rigid session plans
    #: the cycle-accurate executor runs (greedy exact-wires packing).
    executable: bool = False

    @abc.abstractmethod
    def schedule(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        *,
        charge_config: bool = True,
        cas_policy: str | None = "all",
    ) -> ScheduleOutcome:
        """Schedule ``cores`` onto ``bus_width`` wires."""

    def _outcome(self, bus_width, test, config, detail) -> ScheduleOutcome:
        return ScheduleOutcome(
            strategy=self.name,
            bus_width=bus_width,
            test_cycles=test,
            config_cycles=config,
            detail=detail,
        )


#: A schedule function: ``(cores, bus_width, charge_config=...,
#: cas_policy=..., **options) -> (test_cycles, config_cycles, detail)``.
ScheduleFn = Callable[..., "tuple[int, int, object]"]


class StrategyAdapter(SchedulerStrategy):
    """The one generic adapter: any schedule function, one interface.

    Replaces the five near-identical per-policy wrapper classes;
    strategy-specific keyword options (``exact_wires`` for greedy,
    ``widths``/``seed``/``iterations`` for the optimisers) pass
    through ``schedule`` untouched.
    """

    def __init__(self, name: str, fn: ScheduleFn, *,
                 executable: bool = False) -> None:
        self.name = name
        self.executable = executable
        self._fn = fn

    def schedule(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        *,
        charge_config: bool = True,
        cas_policy: str | None = "all",
        **options,
    ) -> ScheduleOutcome:
        test, config, detail = self._fn(
            cores, bus_width,
            charge_config=charge_config, cas_policy=cas_policy,
            **options,
        )
        if not charge_config:
            config = 0
        return self._outcome(bus_width, test, config, detail)


# -- schedule functions -------------------------------------------------------


def _run_greedy(cores, bus_width, *, charge_config, cas_policy,
                exact_wires=False):
    result = schedule_greedy(
        cores, bus_width, charge_config=charge_config,
        exact_wires=exact_wires, cas_policy=cas_policy,
    )
    return result.test_cycles, result.config_cycles_total, result


def _run_exhaustive(cores, bus_width, *, charge_config, cas_policy):
    result = schedule_exhaustive(
        cores, bus_width, charge_config=charge_config,
        cas_policy=cas_policy,
    )
    return result.test_cycles, result.config_cycles_total, result


def _run_balanced_lpt(cores, bus_width, *, charge_config, cas_policy):
    plan = static_partition(cores, bus_width)
    config = 0
    if charge_config and cores:
        # One all-parallel session: every core's WIR is spliced in the
        # single configuration pass.
        config = cost_model(
            cores, bus_width, cas_policy
        ).session_config_cycles(len(cores))
    return plan.total_cycles, config, plan


def _run_preemptive(cores, bus_width, *, charge_config, cas_policy):
    result = schedule_preemptive(
        cores, bus_width, charge_config=charge_config,
        cas_policy=cas_policy,
    )
    return result.test_cycles, result.config_cycles_total, result


def _run_reconfig(cores, bus_width, *, charge_config, cas_policy):
    comparison = compare_reconfiguration(cores, bus_width,
                                         cas_policy=cas_policy)
    best = min(
        (comparison.reconfigured, comparison.preemptive),
        key=lambda schedule: schedule.total_cycles,
    )
    return best.test_cycles, best.config_cycles_total, comparison


def _run_optimize_bnb(cores, bus_width, *, charge_config, cas_policy,
                      widths=None):
    outcome = optimize_bnb(
        cores, bus_width, widths=widths,
        charge_config=charge_config, cas_policy=cas_policy,
    )
    return outcome.test_cycles, outcome.config_cycles, outcome


def _run_optimize_anneal(cores, bus_width, *, charge_config, cas_policy,
                         widths=None, seed=0, iterations=None,
                         restarts=1):
    outcome = optimize_anneal(
        cores, bus_width, widths=widths,
        charge_config=charge_config, cas_policy=cas_policy,
        seed=seed, iterations=iterations, restarts=restarts,
    )
    return outcome.test_cycles, outcome.config_cycles, outcome


def _run_optimize_portfolio(cores, bus_width, *, charge_config,
                            cas_policy, widths=None, seed=0, spec=None,
                            jobs=1, budget=None, progress=None):
    from repro.schedule.portfolio import optimize_portfolio

    outcome = optimize_portfolio(
        cores, bus_width, widths=widths,
        charge_config=charge_config, cas_policy=cas_policy,
        seed=seed, spec=spec, jobs=jobs, budget=budget,
        progress=progress,
    )
    return outcome.test_cycles, outcome.config_cycles, outcome


# -- registration -------------------------------------------------------------

#: name -> (schedule function, executable, aliases, description).
_STRATEGY_SPECS: "dict[str, tuple[ScheduleFn, bool, tuple, str]]" = {
    "greedy": (
        _run_greedy, True, ("session", "default"),
        "Greedy session packing with a widening improvement pass.",
    ),
    "exhaustive": (
        _run_exhaustive, False, ("optimal",),
        "Optimal enumeration over session partitions (small instances).",
    ),
    "balanced-lpt": (
        _run_balanced_lpt, False, ("lpt", "static"),
        "One-shot LPT load balancing: a single all-parallel session.",
    ),
    "preemptive": (
        _run_preemptive, False, ("staircase",),
        "Staircase scheduling: reallocate wires whenever a core finishes.",
    ),
    "reconfig": (
        _run_reconfig, False, ("best-reconfig",),
        "Best reconfiguration granularity: session-based or preemptive.",
    ),
    "optimize-bnb": (
        _run_optimize_bnb, False, ("bnb", "branch-and-bound"),
        "Exact width/session co-optimisation with a Pareto front "
        "(small SoCs).",
    ),
    "optimize-anneal": (
        _run_optimize_anneal, False, ("anneal",),
        "Annealed width/session co-optimisation with a Pareto front "
        "(ITC'02 scale).",
    ),
    "optimize-portfolio": (
        _run_optimize_portfolio, False, ("portfolio",),
        "Parallel multi-start portfolio (anneal ladder, genetic, LNS) "
        "over a shared evaluation cache; jobs-independent results.",
    ),
}

for _name, (_fn, _executable, _aliases, _description) in \
        _STRATEGY_SPECS.items():
    register_scheduler(
        _name,
        partial(StrategyAdapter, _name, _fn, executable=_executable),
        aliases=_aliases,
        description=_description,
    )
