"""The CAS-BUS itself under the baseline interface.

Test time comes from the reconfigurable scheduler (with configuration
overhead charged), area from the actual CAS generator: one CAS per core
at the core's P, on an N-wire bus.

The scheme-enumeration policy is configurable: ``None`` (default)
applies the designer rule of
:func:`repro.core.instruction.practical_policy` per CAS -- the paper's
"other heuristics ... to limit the total number m" -- while a fixed
policy string keeps the rule constant across a sweep (used by the
bus-width trade-off experiment so area reflects width, not policy
switches).

:meth:`CasBusTam.evaluate` schedules with the greedy session packing;
:meth:`CasBusTam.report` costs a schedule made elsewhere, which is how
the experiment layer reports the CAS-BUS under any registered
scheduler strategy (``preemptive``, ``exhaustive``, ...) from the one
outcome it verified.  Registered in :mod:`repro.api` as ``"casbus"``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.soc.core import CoreTestParams
from repro.baselines.base import TamBaseline, TamReport
from repro.schedule.scheduler import schedule_greedy


@lru_cache(maxsize=512)
def _cas_area_ge(n: int, p: int, policy: str | None) -> float:
    """Generated CAS area (GE), cached: generation is not free."""
    from repro.core.generator import generate_cas
    from repro.core.instruction import practical_policy

    if policy is None:
        policy = practical_policy(n, p)
    return generate_cas(n, p, policy=policy).area.area_ge


class CasBusTam(TamBaseline):
    name = "cas-bus"
    key = "casbus"

    def __init__(self, policy: str | None = None) -> None:
        self.policy = policy

    def evaluate(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
    ) -> TamReport:
        schedule = schedule_greedy(cores, bus_width, charge_config=True,
                                   cas_policy=self.policy)
        return self.report(cores, bus_width, schedule.test_cycles,
                           schedule.config_cycles_total)

    def report(
        self,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        test_cycles: int,
        config_cycles: int,
    ) -> TamReport:
        """The cost report of a schedule already made.

        Carries the schedule's test and configuration totals; area is
        the wire-area proxy plus one generated CAS per core, and the
        bus costs ``bus_width`` extra pins.
        """
        area = self.wire_area_proxy(bus_width, len(cores))
        for core in cores:
            p = min(core.max_wires, bus_width)
            area += _cas_area_ge(bus_width, p, self.policy)
        return TamReport(
            name=self.name,
            test_cycles=test_cycles,
            config_cycles=config_cycles,
            extra_pins=bus_width,
            area_proxy=round(area, 1),
        )
