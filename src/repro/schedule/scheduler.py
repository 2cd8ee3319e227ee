"""Session scheduling: pack core tests onto N bus wires over time.

This is the rectangle-packing view of TAM scheduling (cores are
rectangles: wires x time).  The CAS-BUS reconfigures between sessions,
so the scheduler's job is to choose session groups and per-core wire
counts minimising total time, configuration overhead included.

All cost accounting flows through the shared
:class:`~repro.schedule.model.CostModel` (the schedule IR lives in
:mod:`repro.schedule.model` too and is re-exported here), so the
greedy packer, the exhaustive enumerator and the optimisers in
:mod:`repro.schedule.optimize` can never drift on what a session
costs.

Algorithms:

* :func:`schedule_greedy` -- sort by single-wire test time, open a
  session around the biggest unscheduled core at its best useful
  width, fill leftover wires with the next cores, iterate.  Then a
  local improvement pass widens cores into idle wires.
* :func:`schedule_exhaustive` -- optimal over all session partitions
  for small instances (tests and ablations); wire splits per session
  come from the cost model's parametric optimum.
* :func:`lower_bound` -- max of the work-conservation bound and the
  widest-core bound; used to sanity-check schedule quality and to
  seed the branch-and-bound optimiser.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ScheduleError
from repro.soc.core import CoreTestParams
from repro.schedule.model import (
    CostModel,
    Schedule,
    ScheduledEntry,
    ScheduledSession,
    TamProblem,
    cost_model,
)

__all__ = [
    "Schedule",
    "ScheduledEntry",
    "ScheduledSession",
    "lower_bound",
    "schedule_exhaustive",
    "schedule_greedy",
]


def schedule_greedy(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    charge_config: bool = True,
    exact_wires: bool = False,
    cas_policy: str | None = "all",
) -> Schedule:
    """Greedy session packing with a widening improvement pass.

    ``exact_wires=True`` allocates every core exactly ``max_wires``
    (its P): a CAS in TEST mode always switches P wires, so executable
    plans are rigid; elastic allocation models design-time freedom in
    the chain count (trade-off experiments).  ``cas_policy`` sets the
    instruction-register sizing rule for configuration costs
    (``None`` = the designer rule of
    :func:`repro.core.instruction.practical_policy`).
    """
    model = cost_model(cores, bus_width, cas_policy)
    if exact_wires:
        for core in cores:
            if core.max_wires > bus_width:
                raise ScheduleError(
                    f"{core.name}: P={core.max_wires} exceeds bus "
                    f"width {bus_width}"
                )

    def allocation(params: CoreTestParams, available: int) -> int:
        if exact_wires:
            return params.max_wires
        return model.useful_wires(params, available)

    remaining = sorted(
        cores,
        key=lambda c: -model.core_cycles(c, 1),
    )
    schedule = Schedule(bus_width=bus_width)
    while remaining:
        available = bus_width
        entries: list[ScheduledEntry] = []
        # Anchor: the longest core, as wide as useful.
        anchor = remaining.pop(0)
        anchor_wires = allocation(anchor, available)
        entries.append(ScheduledEntry(params=anchor, wires=anchor_wires))
        available -= anchor_wires
        # Fill: next-longest cores that still fit.
        index = 0
        while index < len(remaining) and available > 0:
            candidate = remaining[index]
            wires = allocation(candidate, available)
            if wires <= available:
                entries.append(
                    ScheduledEntry(params=candidate, wires=wires)
                )
                available -= wires
                remaining.pop(index)
            else:
                index += 1
        if not exact_wires:
            entries = _widen(entries, bus_width)
        schedule.sessions.append(ScheduledSession(entries=tuple(entries)))
    return model.charge(schedule, charge_config)


def _widen(entries: list[ScheduledEntry],
           bus_width: int) -> list[ScheduledEntry]:
    """Give leftover wires to whichever core bounds the session."""
    current = list(entries)
    while True:
        used = sum(entry.wires for entry in current)
        spare = bus_width - used
        if spare <= 0:
            return current
        # The session is as long as its slowest entry; widening anyone
        # else is useless.
        slowest = max(range(len(current)), key=lambda i: current[i].cycles)
        entry = current[slowest]
        if (entry.wires >= entry.params.max_wires
                or entry.params.fixed_cycles is not None):
            return current
        improved = ScheduledEntry(params=entry.params, wires=entry.wires + 1)
        if improved.cycles >= entry.cycles:
            return current
        current[slowest] = improved


def schedule_exhaustive(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    charge_config: bool = True,
    cas_policy: str | None = "all",
    max_cores: int = 6,
) -> Schedule:
    """Optimal schedule by partition enumeration (small instances only).

    Wire splits inside each candidate session come from
    :meth:`~repro.schedule.model.CostModel.optimal_session`, so only
    the set partitions are enumerated.
    """
    if len(cores) > max_cores:
        raise ScheduleError(
            f"{len(cores)} cores exceed the exhaustive limit {max_cores}"
        )
    model = cost_model(cores, bus_width, cas_policy)
    best: Schedule | None = None
    for partition in _set_partitions(list(cores)):
        candidate = model.schedule_from_groups(
            partition, charge_config=charge_config
        )
        if candidate is None:
            continue
        if best is None or candidate.total_cycles < best.total_cycles:
            best = candidate
    assert best is not None  # singleton partition is always feasible
    return best


def _set_partitions(items: list):
    """All partitions of a list into non-empty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            yield (partition[:index]
                   + [[first] + partition[index]]
                   + partition[index + 1:])
        yield [[first]] + partition


def lower_bound(cores: Sequence[CoreTestParams], bus_width: int) -> int:
    """Test-cycle lower bound: work conservation vs widest core."""
    return CostModel(TamProblem.of(cores, bus_width)).lower_bound()
