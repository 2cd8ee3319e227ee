"""Test bus and CAS chains.

The CAS-BUS threads all N bus wires through every CAS in a fixed
physical order (figure 1).  During configuration, the instruction
registers of all CASes form one serial chain on the first wire
(``e0``/``s0``); this module owns that chain's bit-ordering rules:

* the stream enters the CAS nearest the controller and flows towards
  the last CAS, so **the last CAS's bits are shifted first**;
* within one CAS the code is shifted **LSB first** (stage 0 of the
  shift register is the serial-out end and holds the code's bit 0).

Both rules are encapsulated in :meth:`CasChain.config_bitstream` and
round-trip-tested against the cycle-level shift implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import values as lv
from repro.errors import ConfigurationError, SimulationError
from repro.core.cas import BusRouting, CoreAccessSwitch


@dataclass(frozen=True)
class TestBus:
    """The SoC test bus: N serial wires (paper, section 2).

    Carries only naming/width; values flow through
    :class:`CasChain` / :mod:`repro.sim.system`.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"bus width must be >= 1, got {self.n}")

    def wire_names(self) -> list[str]:
        return [f"w{i}" for i in range(self.n)]


@dataclass(frozen=True)
class ChainRouting:
    """Result of routing the bus through a whole CAS chain.

    Attributes:
        bus_out: values leaving the last CAS (back to the controller).
        core_outputs: per-CAS core-side ``o`` values, chain order.
    """

    bus_out: tuple[int, ...]
    core_outputs: tuple[tuple[int, ...], ...]


class CasChain:
    """An ordered chain of CASes sharing one test bus.

    The chain owns no wrappers or cores; core-side return values are
    supplied per evaluation.  The full SoC assembly (wrappers, cores,
    hierarchy, CHAIN splicing) lives in :mod:`repro.sim.system`.
    """

    def __init__(self, cases: Sequence[CoreAccessSwitch]) -> None:
        if not cases:
            raise ConfigurationError("a CAS chain needs at least one CAS")
        widths = {cas.n for cas in cases}
        if len(widths) != 1:
            raise ConfigurationError(
                f"all CASes on one bus must share N; got widths {sorted(widths)}"
            )
        self.cases = list(cases)
        self.bus = TestBus(n=self.cases[0].n)

    @property
    def n(self) -> int:
        return self.bus.n

    def total_ir_bits(self) -> int:
        """Length of the serial configuration chain, in bits."""
        return sum(cas.k for cas in self.cases)

    # -- configuration ------------------------------------------------------

    def config_bitstream(self, codes: Sequence[int]) -> list[int]:
        """The serial stream that loads ``codes[i]`` into ``cases[i]``.

        Bits for the CAS farthest from the controller come first; each
        code is expanded LSB first.
        """
        if len(codes) != len(self.cases):
            raise ConfigurationError(
                f"need {len(self.cases)} codes, got {len(codes)}"
            )
        stream: list[int] = []
        for cas, code in reversed(list(zip(self.cases, codes))):
            if not cas.iset.is_valid_code(code):
                raise ConfigurationError(
                    f"{cas.name}: code {code} invalid (m={cas.iset.m})"
                )
            stream.extend(cas.iset.code_to_bits(code))
        return stream

    def shift_cycle(self, bit_in: int) -> int:
        """One configuration clock: shift every CAS, return the chain's
        serial output (what the controller reads back)."""
        bit = bit_in
        for cas in self.cases:
            bit = cas.shift(bit)
        return bit

    def update_all(self) -> list[int]:
        """Pulse update on every CAS; returns the new active codes."""
        return [cas.update() for cas in self.cases]

    def run_configuration(self, codes: Sequence[int]) -> int:
        """Shift a full configuration and update.

        Returns the number of clock cycles spent (bits shifted + the
        update cycle), the quantity used by the timing model.
        """
        stream = self.config_bitstream(codes)
        for bit in stream:
            self.shift_cycle(bit)
        self.update_all()
        for cas, code in zip(self.cases, codes):
            if cas.active_code != code:
                raise SimulationError(
                    f"{cas.name}: configuration landed on code "
                    f"{cas.active_code}, wanted {code}"
                )
        return len(stream) + 1

    def reset_all(self) -> None:
        for cas in self.cases:
            cas.reset()

    # -- data transport --------------------------------------------------------

    def route(
        self,
        bus_in: Sequence[int],
        core_returns: Sequence[Sequence[int]],
        config: bool = False,
    ) -> ChainRouting:
        """Evaluate the bus combinationally through the whole chain.

        Args:
            bus_in: values driven by the controller on bus entry.
            core_returns: per-CAS core-side return values (``i`` pins).
            config: global configuration control.
        """
        if len(core_returns) != len(self.cases):
            raise SimulationError(
                f"need core returns for {len(self.cases)} CASes, "
                f"got {len(core_returns)}"
            )
        values = tuple(bus_in)
        if len(values) != self.n:
            raise SimulationError(
                f"bus is {self.n} wires, got {len(values)} values"
            )
        outputs: list[tuple[int, ...]] = []
        for cas, returns in zip(self.cases, core_returns):
            routing: BusRouting = cas.route(values, returns, config=config)
            outputs.append(routing.o)
            values = routing.s
        return ChainRouting(bus_out=values, core_outputs=tuple(outputs))

    def idle_bus(self) -> tuple[int, ...]:
        """The all-zero bus vector (what the controller drives at rest)."""
        return (lv.ZERO,) * self.n
