"""Event-driven four-valued simulation of netlists.

Combinational settling is computed to a fixpoint after every input change;
state elements advance on explicit :meth:`NetlistSimulator.clock` calls
(single global clock domain, which is all the CAS needs -- the paper's
``tck``).  Multi-driver nets are resolved with
:func:`repro.values.resolve_all`, so tri-stated CAS terminals behave like
real buses: undriven nets float to ``Z`` and contention yields ``X``.
"""

from __future__ import annotations

from collections import defaultdict

from repro import values as lv
from repro.errors import SimulationError
from repro.netlist.cells import cell_spec
from repro.netlist.netlist import Gate, Netlist

#: Settle-iteration budget; exceeding it means the netlist oscillates.
_MAX_SETTLE_PASSES = 10_000


class NetlistSimulator:
    """Simulate one :class:`~repro.netlist.netlist.Netlist` instance.

    Typical use::

        sim = NetlistSimulator(netlist)
        sim.set_inputs({"config": ONE, "e0": ZERO})
        sim.clock()                  # rising edge of tck
        value = sim.read("s0")
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._values: dict[str, int] = {net: lv.X for net in netlist.nets()}
        # Per-gate output value, pre-resolution (tri-states may emit Z).
        self._gate_out: dict[str, int] = {g.name: lv.X for g in netlist.gates}
        self._state: dict[str, int] = {
            g.name: lv.X for g in netlist.sequential_gates()
        }
        self._fanout: dict[str, list[Gate]] = defaultdict(list)
        for gate in netlist.combinational_gates():
            for source in gate.inputs:
                self._fanout[source].append(gate)
        self._drivers: dict[str, list[Gate]] = defaultdict(list)
        for gate in netlist.gates:
            self._drivers[gate.output].append(gate)
        # Undriven, non-input nets float.
        for net in netlist.nets():
            if net not in self._drivers and net not in netlist.inputs:
                self._values[net] = lv.Z
        # Sequential outputs reflect their (unknown) state.
        for gate in netlist.sequential_gates():
            self._gate_out[gate.name] = lv.X
        # Evaluate every combinational gate once so zero-input cells
        # (CONST0/CONST1) and the initial X state propagate, then settle.
        for gate in netlist.combinational_gates():
            spec = cell_spec(gate.kind)
            inputs = [self._values[src] for src in gate.inputs]
            self._gate_out[gate.name] = spec.evaluate(inputs)
        for gate in netlist.gates:
            self._refresh_net(gate.output)
        self._settle(set(netlist.nets()))

    # -- driving and reading ------------------------------------------------

    def set_input(self, net: str, value: int) -> None:
        """Drive one primary input and settle the combinational logic."""
        self.set_inputs({net: value})

    def set_inputs(self, assignments: dict[str, int]) -> None:
        """Drive several primary inputs at once, then settle."""
        dirty: set[str] = set()
        for net, value in assignments.items():
            if net not in self.netlist.inputs:
                raise SimulationError(f"{net!r} is not a primary input")
            if value not in lv.VALUES:
                raise SimulationError(f"bad logic value {value!r} for {net!r}")
            if self._values[net] != value:
                self._values[net] = value
                dirty.add(net)
        if dirty:
            self._settle(dirty)

    def read(self, net: str) -> int:
        """Current resolved value of any net."""
        try:
            return self._values[net]
        except KeyError:
            raise SimulationError(f"no such net: {net!r}") from None

    def state_of(self, instance_name: str) -> int:
        """Current stored value of a sequential cell."""
        try:
            return self._state[instance_name]
        except KeyError:
            raise SimulationError(
                f"no sequential cell named {instance_name!r}"
            ) from None

    def load_state(self, assignments: dict[str, int]) -> None:
        """Force sequential-cell contents (test setup / reset modelling)."""
        dirty: set[str] = set()
        for name, value in assignments.items():
            if name not in self._state:
                raise SimulationError(f"no sequential cell named {name!r}")
            self._state[name] = value
        for gate in self.netlist.sequential_gates():
            if gate.name in assignments:
                self._gate_out[gate.name] = self._state[gate.name]
                dirty.add(gate.output)
        if dirty:
            for net in dirty:
                self._refresh_net(net)
            self._settle(dirty)

    # -- time ----------------------------------------------------------------

    def clock(self, cycles: int = 1) -> None:
        """Advance the single clock domain by ``cycles`` rising edges."""
        for _ in range(cycles):
            sampled: dict[str, int] = {}
            for gate in self.netlist.sequential_gates():
                if gate.kind == "DFF":
                    sampled[gate.name] = self._values[gate.inputs[0]]
                else:  # DFFE: (d, enable)
                    d_value = self._values[gate.inputs[0]]
                    enable = self._values[gate.inputs[1]]
                    if enable == lv.ONE:
                        sampled[gate.name] = d_value
                    elif enable == lv.ZERO:
                        sampled[gate.name] = self._state[gate.name]
                    else:
                        sampled[gate.name] = lv.X
            dirty: set[str] = set()
            for gate in self.netlist.sequential_gates():
                new_value = sampled[gate.name]
                self._state[gate.name] = new_value
                if self._gate_out[gate.name] != new_value:
                    self._gate_out[gate.name] = new_value
                    dirty.add(gate.output)
            for net in dirty:
                self._refresh_net(net)
            if dirty:
                self._settle(dirty)

    # -- internals -------------------------------------------------------------

    def _refresh_net(self, net: str) -> int:
        """Recompute a net's resolved value from all of its drivers."""
        drivers = self._drivers.get(net)
        if not drivers:
            value = self._values[net] if net in self.netlist.inputs else lv.Z
        else:
            value = lv.resolve_all(self._gate_out[g.name] for g in drivers)
        self._values[net] = value
        return value

    def _settle(self, initially_dirty: set[str]) -> None:
        """Propagate changes through combinational logic to a fixpoint."""
        queue = list(initially_dirty)
        passes = 0
        while queue:
            passes += 1
            if passes > _MAX_SETTLE_PASSES:
                raise SimulationError(
                    f"netlist {self.netlist.name!r} failed to settle "
                    f"(combinational oscillation?)"
                )
            net = queue.pop()
            for gate in self._fanout.get(net, ()):
                spec = cell_spec(gate.kind)
                inputs = [self._values[src] for src in gate.inputs]
                new_out = spec.evaluate(inputs)
                if new_out != self._gate_out[gate.name]:
                    self._gate_out[gate.name] = new_out
                    old = self._values[gate.output]
                    if self._refresh_net(gate.output) != old:
                        queue.append(gate.output)
