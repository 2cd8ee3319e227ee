"""Wire assignment: turning abstract wire *counts* into concrete bus
wire *indices* for one session.

The CAS supports every injective wire-to-port mapping, so any disjoint
index choice works; contiguous ranges are used for readability of
reports and traces.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ScheduleError
from repro.sim.plan import CoreAssignment, SessionPlan, flat_assignment
from repro.soc.core import CoreSpec


def assign_wires(
    requests: Sequence[tuple[str, int]],
    bus_width: int,
) -> dict[str, tuple[int, ...]]:
    """Allocate disjoint wire index ranges for one session.

    Args:
        requests: ``(core_name, wire_count)`` pairs.
        bus_width: total wires available.

    Returns:
        core name -> tuple of wire indices (contiguous, ascending).
    """
    total = sum(count for _, count in requests)
    if total > bus_width:
        names = [name for name, _ in requests]
        raise ScheduleError(
            f"session needs {total} wires for {names} but the bus has "
            f"{bus_width}"
        )
    result: dict[str, tuple[int, ...]] = {}
    cursor = 0
    for name, count in requests:
        if count < 1:
            raise ScheduleError(f"{name}: wire count must be >= 1")
        result[name] = tuple(range(cursor, cursor + count))
        cursor += count
    return result


def session_plan(
    specs: Sequence[CoreSpec],
    bus_width: int,
    label: str,
    *,
    parent: CoreSpec | None = None,
) -> SessionPlan:
    """An executor-ready session testing ``specs`` concurrently.

    Each core gets exactly its ``p`` wires from :func:`assign_wires`.
    With ``parent``, the specs are inner cores of that hierarchical
    core: each path is ``(parent.name, spec.name)`` and the parent's
    ports take the top-level wires ``0 .. parent.p - 1``.
    """
    wires = assign_wires([(spec.name, spec.p) for spec in specs], bus_width)
    if parent is None:
        assignments = tuple(
            flat_assignment(name, inner) for name, inner in wires.items()
        )
    else:
        outer = tuple(range(parent.p))
        assignments = tuple(
            CoreAssignment(path=(parent.name, name), levels=(outer, inner))
            for name, inner in wires.items()
        )
    return SessionPlan(assignments=assignments, label=label)
