"""The scheduling problem IR and the one cost model.

Every scheduling policy in :mod:`repro.schedule` answers the same
question -- how long does it take to test these cores through an
N-wire CAS-BUS, reconfiguration included -- but historically each
algorithm kept its own copy of the cycle bookkeeping (wire
normalisation in the greedy packer, configuration-pass maths in the
preemptive scheduler, another copy in the reconfiguration study).
This module is the single source of truth they all migrated onto:

* :class:`TamProblem` -- the immutable problem statement: the cores,
  the pin budget N, and the CAS instruction-sizing policy;
* :class:`CostModel` -- test- and config-cycle accounting for one
  problem, memoised so optimisers can evaluate thousands of candidate
  schedules cheaply;
* the schedule IR (:class:`ScheduledEntry`, :class:`ScheduledSession`,
  :class:`Schedule`) every session-based policy emits.

The raw closed-form timing primitives stay in
:mod:`repro.schedule.timing`; this layer owns everything built from
them (session costs, schedule costs, bounds, optimal wire splits), so
the formula for, say, a two-stage configuration pass exists exactly
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ScheduleError
from repro.obs.metrics import Counter
from repro.soc.core import CoreTestParams
from repro.schedule.timing import (
    cas_config_bits,
    config_cycles,
    core_test_cycles,
)

#: Wrapper instruction register width spliced per tested core (stage B).
WIR_WIDTH = 3


# -- schedule IR --------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledEntry:
    """One core inside one session."""

    params: CoreTestParams
    wires: int

    @property
    def cycles(self) -> int:
        return core_test_cycles(self.params, self.wires)


@dataclass(frozen=True)
class ScheduledSession:
    """A group of cores tested concurrently."""

    entries: tuple[ScheduledEntry, ...]

    @property
    def wires_used(self) -> int:
        return sum(entry.wires for entry in self.entries)

    @property
    def cycles(self) -> int:
        return max((entry.cycles for entry in self.entries), default=0)

    def names(self) -> list[str]:
        return [entry.params.name for entry in self.entries]


@dataclass
class Schedule:
    """A complete test program in the abstract timing model."""

    bus_width: int
    sessions: list[ScheduledSession] = field(default_factory=list)
    config_cycles_total: int = 0

    @property
    def test_cycles(self) -> int:
        return sum(session.cycles for session in self.sessions)

    @property
    def total_cycles(self) -> int:
        return self.test_cycles + self.config_cycles_total

    def describe(self) -> str:
        lines = [
            f"schedule on N={self.bus_width}: {len(self.sessions)} sessions, "
            f"{self.test_cycles} test + {self.config_cycles_total} config "
            f"cycles"
        ]
        for index, session in enumerate(self.sessions):
            entries = ", ".join(
                f"{e.params.name}(w={e.wires},t={e.cycles})"
                for e in session.entries
            )
            lines.append(
                f"  s{index}: [{entries}] -> {session.cycles} cycles"
            )
        return "\n".join(lines)


# -- configuration-pass primitive ---------------------------------------------


def two_stage_config_cycles(
    cas_bits: int,
    num_wir_changes: int,
    *,
    wir_width: int = WIR_WIDTH,
    wir_bits: int | None = None,
    stage_a_always: bool = True,
) -> int:
    """Cycle cost of the executor's two-stage session configuration.

    Stage A (splice) is one chain pass over all CAS registers; stage B
    is another pass with ``num_wir_changes`` WIR registers spliced in
    (``wir_width`` bits each, or exactly ``wir_bits`` total when the
    caller knows the real register widths).  The abstract schedulers
    charge stage A unconditionally (every session re-splices); the
    behavioural executor skips it when no wrapper instruction changes
    -- ``stage_a_always=False`` models that.  This is the one copy of
    the formula; schedulers, the reconfiguration study and the
    simulator-side predictor all call it.
    """
    if wir_bits is None:
        wir_bits = num_wir_changes * wir_width
    total = 0
    if stage_a_always or num_wir_changes:
        total += config_cycles(cas_bits)
    total += config_cycles(cas_bits + wir_bits)
    return total


# -- problem IR ---------------------------------------------------------------


@dataclass(frozen=True)
class TamProblem:
    """One TAM scheduling problem: cores on an N-wire bus under a policy.

    Attributes:
        cores: the abstract core test parameters.
        bus_width: pin budget N.
        cas_policy: instruction-register sizing rule charged per CAS
            (``None`` = the designer rule of
            :func:`repro.core.instruction.practical_policy`).
    """

    cores: tuple[CoreTestParams, ...]
    bus_width: int
    cas_policy: str | None = "all"

    def __post_init__(self) -> None:
        if self.bus_width < 1:
            raise ScheduleError(
                f"bus width must be >= 1, got {self.bus_width}"
            )

    @classmethod
    def of(
        cls,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        cas_policy: str | None = "all",
    ) -> "TamProblem":
        """Normalise any core sequence into a problem."""
        return cls(cores=tuple(cores), bus_width=bus_width,
                   cas_policy=cas_policy)

    def with_width(self, bus_width: int) -> "TamProblem":
        """The same cores and policy on a different pin budget."""
        return TamProblem(cores=self.cores, bus_width=bus_width,
                          cas_policy=self.cas_policy)


class CostModel:
    """Test- and config-cycle accounting for one :class:`TamProblem`.

    All costs are memoised: optimisers evaluate thousands of candidate
    sessions against one model, and the CAS register-bit total (which
    needs the instruction-count closed forms) is computed once instead
    of once per session.
    """

    def __init__(self, problem: TamProblem) -> None:
        self.problem = problem
        self._core_cycles: dict[tuple[CoreTestParams, int], int] = {}
        self._cas_bits: int | None = None
        # Instance-scoped obs counters, deliberately NOT registry-
        # routed: the reported stats must be a pure function of the
        # work *this* model did (the portfolio CI gate diffs them
        # across --jobs 1 vs --jobs 4), never of global obs state.
        self._hits = Counter()
        self._misses = Counter()

    # -- width normalisation (the one copy) --------------------------------

    @staticmethod
    def useful_wires(params: CoreTestParams, available: int) -> int:
        """Widest allocation that still helps (capped by the core's P)."""
        return max(1, min(available, params.max_wires))

    @staticmethod
    def effective_wires(params: CoreTestParams, wires: int) -> int:
        """The wires a core actually exploits from an allocation."""
        return max(1, min(wires, params.max_wires))

    def port_width(self, params: CoreTestParams) -> int:
        """The P of the core's CAS on this bus (never exceeds N)."""
        return min(params.max_wires, self.problem.bus_width)

    # -- test-cycle accounting ---------------------------------------------

    def core_cycles(self, params: CoreTestParams, wires: int) -> int:
        """Memoised :func:`repro.schedule.timing.core_test_cycles`."""
        key = (params, self.effective_wires(params, wires))
        cached = self._core_cycles.get(key)
        if cached is None:
            cached = core_test_cycles(params, key[1])
            self._core_cycles[key] = cached
            self._misses.inc()
        else:
            self._hits.inc()
        return cached

    def stats(self) -> dict:
        """Memoisation effectiveness counters (JSON-ready).

        A view over the model's :class:`repro.obs.metrics.Counter`
        instances: ``hits``/``misses`` count :meth:`core_cycles`
        lookups; ``entries`` is the resident cache size.  Surfaced by
        ``repro optimize --json`` so cache sharing is observable
        rather than assumed.
        """
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "entries": len(self._core_cycles),
        }

    # -- config-cycle accounting -------------------------------------------

    @property
    def cas_bits(self) -> int:
        """Total CAS instruction-register bits on the configuration
        chain (one CAS per core at its port width), computed once."""
        if self._cas_bits is None:
            self._cas_bits = sum(
                cas_config_bits(self.problem.bus_width,
                                self.port_width(core),
                                self.problem.cas_policy)
                for core in self.problem.cores
            )
        return self._cas_bits

    @property
    def config_bits(self) -> int:
        """The DfT configuration footprint (Pareto axis): CAS bits."""
        return self.cas_bits

    def session_config_cycles(self, num_tested: int) -> int:
        """Config cost of one session: stage A + stage B with
        ``num_tested`` wrapper instruction registers spliced."""
        return two_stage_config_cycles(self.cas_bits, num_tested)

    def boundary_config_cycles(self) -> int:
        """Per-boundary cost of a preemptive reconfiguration (at least
        the started/stopped core's wrapper is spliced)."""
        return self.session_config_cycles(1)

    def schedule_config_cycles(self, sessions) -> int:
        """Total config cost of a session list (charged per session)."""
        return sum(
            self.session_config_cycles(len(session.entries))
            for session in sessions
        )

    def charge(self, schedule: Schedule,
               charge_config: bool = True) -> Schedule:
        """Stamp the schedule's config total from this model."""
        schedule.config_cycles_total = (
            self.schedule_config_cycles(schedule.sessions)
            if charge_config else 0
        )
        return schedule

    # -- bounds -------------------------------------------------------------

    def lower_bound(self) -> int:
        """Test-cycle lower bound: work conservation vs widest core.

        The work term credits each core its *minimum* wires-times-time
        area over every legal allocation.  (Crediting full-width time
        times full width -- the seed formula -- over-counts the
        per-pattern capture cycle, which does not shrink with width:
        narrow allocations then legitimately beat the "bound".  The
        exact optimisers find exactly those allocations, so the bound
        must be sound.)
        """
        work = 0
        widest = 0
        for core in self.problem.cores:
            widest = max(
                widest, self.core_cycles(core, self.problem.bus_width)
            )
            work += min(
                wires * self.core_cycles(core, wires)
                for wires in range(1, self.port_width(core) + 1)
            )
        return max(widest, math.ceil(work / self.problem.bus_width))

    # -- optimal wire split of one concurrent group ------------------------

    def optimal_session(
        self, group: Sequence[CoreTestParams]
    ) -> ScheduledSession | None:
        """Minimum-makespan wire split for one group, or ``None``.

        Parametric search: makespans are drawn from the finite set of
        per-core cycle counts, feasibility (can every core reach the
        target makespan within N wires) is monotone in the target, so
        a binary search over the candidate values finds the optimum
        without enumerating wire splits.  Equivalent to -- and
        replaces -- exhaustive split enumeration.
        """
        width = self.problem.bus_width
        if len(group) > width:
            return None  # every core needs at least one wire
        if not group:
            return None
        # cycles_at[c][w-1]: cycles of core c on w wires (nonincreasing).
        cycles_at: list[list[int]] = []
        floors: list[int] = []
        for core in group:
            limit = self.port_width(core)
            row = [self.core_cycles(core, w) for w in range(1, limit + 1)]
            cycles_at.append(row)
            floors.append(row[-1])
        lowest = max(floors)  # no split beats every core's own floor

        def min_wires(target: int) -> int | None:
            """Fewest wires meeting ``target`` everywhere, or None."""
            total = 0
            for row in cycles_at:
                if row[-1] > target:
                    return None
                # First (narrowest) allocation achieving the target;
                # rows are short (<= N), linear scan beats bisect setup.
                for wires0, cycles in enumerate(row):
                    if cycles <= target:
                        total += wires0 + 1
                        break
            return total

        # Non-empty: the row owning the max floor contributes ``lowest``.
        candidates = sorted(
            {value for row in cycles_at for value in row if value >= lowest}
        )
        lo, hi = 0, len(candidates) - 1
        best_target: int | None = None
        while lo <= hi:
            mid = (lo + hi) // 2
            needed = min_wires(candidates[mid])
            if needed is not None and needed <= width:
                best_target = candidates[mid]
                hi = mid - 1
            else:
                lo = mid + 1
        if best_target is None:
            return None
        entries = []
        for core, row in zip(group, cycles_at):
            for wires0, cycles in enumerate(row):
                if cycles <= best_target:
                    entries.append(
                        ScheduledEntry(params=core, wires=wires0 + 1)
                    )
                    break
        return ScheduledSession(entries=tuple(entries))

    def schedule_from_groups(
        self,
        groups: Iterable[Sequence[CoreTestParams]],
        *,
        charge_config: bool = True,
    ) -> Schedule | None:
        """Build a schedule from a session partition (optimal splits).

        Returns ``None`` when any group cannot fit on the bus.
        """
        sessions = []
        for group in groups:
            session = self.optimal_session(group)
            if session is None:
                return None
            sessions.append(session)
        schedule = Schedule(bus_width=self.problem.bus_width,
                            sessions=sessions)
        return self.charge(schedule, charge_config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CostModel(N={self.problem.bus_width}, "
                f"{len(self.problem.cores)} cores, "
                f"policy={self.problem.cas_policy!r})")


def cost_model(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    cas_policy: str | None = "all",
) -> CostModel:
    """Convenience: a :class:`CostModel` straight from the arguments."""
    return CostModel(TamProblem.of(cores, bus_width, cas_policy))
