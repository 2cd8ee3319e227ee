"""Seeded, serialisable defect scenarios.

A :class:`DefectScenario` describes one physical defect injected into a
simulatable SoC instance -- never into the expected data, which always
comes from clean builds.  Four defect families cover the layers a
CAS-BUS test actually exercises:

* ``stuck-at`` -- a single stuck-at fault on one core's combinational
  cloud (the :mod:`repro.scan.faults` model); both simulation backends
  handle it, so this is the family the accuracy guarantees run on;
* ``open-wire`` -- one TAM bus wire stuck at a level (data path only;
  the serial configuration chain stays alive, so the bus remains
  *reconfigurable around* the defect);
* ``bridge-wires`` -- two bus wires shorted wired-AND;
* ``dead-cell`` -- one wrapper boundary cell's shift flop stuck.

Wire and wrapper defects force the legacy object-stepping backend
(:func:`repro.sim.kernel.kernel_blocker` names them), which
``backend="auto"`` handles transparently and a pinned
``backend="kernel"`` refuses.

Scenarios are frozen, hashable and round-trip through
``to_dict``/``from_dict``, so diagnosis campaigns persist them next to
their results.  :func:`random_scenario` draws a seeded scenario whose
stuck-at fault is *guaranteed detectable* by the victim core's actual
test (screening always fails, and an exact fault-dictionary match
exists), which is what makes seed sweeps meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.soc.core import CoreSpec, TestMethod
from repro.soc.soc import SocSpec

#: ``DefectScenario.kind`` values.
KIND_STUCK_AT = "stuck-at"
KIND_OPEN_WIRE = "open-wire"
KIND_BRIDGE = "bridge-wires"
KIND_DEAD_CELL = "dead-cell"

KINDS = (KIND_STUCK_AT, KIND_OPEN_WIRE, KIND_BRIDGE, KIND_DEAD_CELL)


@dataclass(frozen=True)
class DefectScenario:
    """One injected defect, fully described by plain data.

    Attributes:
        kind: one of :data:`KINDS`.
        core: victim core path (``"core5/core5a"`` style) for
            ``stuck-at`` / ``dead-cell``.
        node: cloud node id of a ``stuck-at`` fault.
        cell: boundary-cell index of a ``dead-cell`` defect.
        wire: broken bus wire of an ``open-wire`` defect.
        wires: the two shorted wires of a ``bridge-wires`` defect.
        stuck_value: the stuck level (0/1) where applicable.
        seed: provenance tag for scenarios drawn by
            :func:`random_scenario` (``None`` for hand-built ones).
    """

    kind: str
    core: "str | None" = None
    node: "int | None" = None
    cell: "int | None" = None
    wire: "int | None" = None
    wires: "tuple[int, int] | None" = None
    stuck_value: int = 0
    seed: "int | None" = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def stuck_at(cls, core: str, node: int, stuck_value: int,
                 *, seed: "int | None" = None) -> "DefectScenario":
        """A single stuck-at fault on one core's logic."""
        return cls(kind=KIND_STUCK_AT, core=core, node=node,
                   stuck_value=stuck_value, seed=seed)

    @classmethod
    def open_wire(cls, wire: int, stuck_value: int = 0,
                  *, seed: "int | None" = None) -> "DefectScenario":
        """One TAM bus wire stuck at a level."""
        return cls(kind=KIND_OPEN_WIRE, wire=wire,
                   stuck_value=stuck_value, seed=seed)

    @classmethod
    def bridge(cls, wire_a: int, wire_b: int,
               *, seed: "int | None" = None) -> "DefectScenario":
        """Two TAM bus wires shorted (wired-AND)."""
        low, high = sorted((wire_a, wire_b))
        return cls(kind=KIND_BRIDGE, wires=(low, high), seed=seed)

    @classmethod
    def dead_cell(cls, core: str, cell: int, stuck_value: int = 0,
                  *, seed: "int | None" = None) -> "DefectScenario":
        """One wrapper boundary cell's shift flop stuck."""
        return cls(kind=KIND_DEAD_CELL, core=core, cell=cell,
                   stuck_value=stuck_value, seed=seed)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown defect kind {self.kind!r}; known: "
                f"{', '.join(KINDS)}"
            )
        if self.stuck_value not in (0, 1):
            raise ConfigurationError(
                f"stuck value must be 0/1, got {self.stuck_value!r}"
            )
        needs = {
            KIND_STUCK_AT: ("core", "node"),
            KIND_OPEN_WIRE: ("wire",),
            KIND_BRIDGE: ("wires",),
            KIND_DEAD_CELL: ("core", "cell"),
        }[self.kind]
        for attribute in needs:
            if getattr(self, attribute) is None:
                raise ConfigurationError(
                    f"{self.kind} scenario needs {attribute!r}"
                )
        if self.kind == KIND_BRIDGE:
            assert self.wires is not None
            if self.wires[0] == self.wires[1]:
                raise ConfigurationError(
                    "bridge needs two distinct wires"
                )

    # -- application -------------------------------------------------------

    @property
    def fault(self) -> "tuple[int, int] | None":
        """The ``(node, stuck_value)`` pair of a stuck-at scenario."""
        if self.kind != KIND_STUCK_AT:
            return None
        assert self.node is not None
        return (self.node, self.stuck_value)

    @property
    def core_path(self) -> "tuple[str, ...] | None":
        """The victim core path as a tuple, when there is one."""
        if self.core is None:
            return None
        return tuple(self.core.split("/"))

    def describe(self) -> str:
        if self.kind == KIND_STUCK_AT:
            return f"{self.core}: node{self.node}/SA{self.stuck_value}"
        if self.kind == KIND_OPEN_WIRE:
            return f"bus wire {self.wire} stuck at {self.stuck_value}"
        if self.kind == KIND_BRIDGE:
            assert self.wires is not None
            return f"bus wires {self.wires[0]}+{self.wires[1]} bridged"
        return (
            f"{self.core}: boundary cell {self.cell} "
            f"stuck at {self.stuck_value}"
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips via :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "core": self.core,
            "node": self.node,
            "cell": self.cell,
            "wire": self.wire,
            "wires": list(self.wires) if self.wires else None,
            "stuck_value": self.stuck_value,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DefectScenario":
        """Rebuild a scenario serialized by :meth:`to_dict`."""
        wires = data.get("wires")
        return cls(
            kind=data["kind"],
            core=data.get("core"),
            node=data.get("node"),
            cell=data.get("cell"),
            wire=data.get("wire"),
            wires=tuple(wires) if wires else None,
            stuck_value=data.get("stuck_value", 0),
            seed=data.get("seed"),
        )


def build_faulty_system(
    soc: SocSpec,
    scenario: "DefectScenario | None",
    **build_kwargs,
):
    """A fresh behavioural system with ``scenario`` applied.

    ``scenario=None`` builds a defect-free instance.  Every call
    returns a brand-new system: diagnosis probes are independent
    power-on test runs, so they never inherit chain state from earlier
    sessions.
    """
    from repro.sim.system import build_system

    if scenario is None:
        return build_system(soc, **build_kwargs)
    if scenario.kind == KIND_STUCK_AT:
        assert scenario.core is not None
        faults = dict(build_kwargs.pop("inject_faults", None) or {})
        faults[scenario.core] = scenario.fault
        return build_system(soc, inject_faults=faults, **build_kwargs)
    system = build_system(soc, **build_kwargs)
    if scenario.kind == KIND_OPEN_WIRE:
        if not 0 <= scenario.wire < soc.bus_width:
            raise ConfigurationError(
                f"open-wire defect on wire {scenario.wire}, bus has "
                f"{soc.bus_width} wires"
            )
        system.wire_faults[scenario.wire] = scenario.stuck_value
        return system
    if scenario.kind == KIND_BRIDGE:
        assert scenario.wires is not None
        for wire in scenario.wires:
            if not 0 <= wire < soc.bus_width:
                raise ConfigurationError(
                    f"bridge defect on wire {wire}, bus has "
                    f"{soc.bus_width} wires"
                )
        system.wire_bridges.append(scenario.wires)
        return system
    assert scenario.kind == KIND_DEAD_CELL
    path = scenario.core_path
    assert path is not None and scenario.cell is not None
    node = system.node_at(path)
    if node.wrapper is None:
        raise ConfigurationError(
            f"{scenario.core}: no wrapper to break a cell in"
        )
    cells = node.wrapper.boundary.cells
    if not 0 <= scenario.cell < len(cells):
        raise ConfigurationError(
            f"{scenario.core}: no boundary cell {scenario.cell} "
            f"(wrapper has {len(cells)})"
        )
    cell = cells[scenario.cell]
    cell.stuck = scenario.stuck_value
    cell.load(scenario.stuck_value)
    return system


# -- seeded scenario generation ------------------------------------------------


def _flat_core_paths(soc: SocSpec, prefix: str = "") -> "list[str]":
    """Paths of every non-hierarchical core, depth first."""
    paths: "list[str]" = []
    for core in soc.cores:
        if core.method == TestMethod.HIERARCHICAL:
            assert core.inner is not None
            paths.extend(
                _flat_core_paths(core.inner, f"{prefix}{core.name}/")
            )
        else:
            paths.append(f"{prefix}{core.name}")
    return paths


def spec_at(soc: SocSpec, path: str) -> CoreSpec:
    """Resolve a ``parent/child`` core path to its :class:`CoreSpec`.

    Shared by scenario generation and the diagnosis engine, so both
    always resolve hierarchical names identically.
    """
    spec_soc = soc
    parts = path.split("/")
    for name in parts[:-1]:
        inner = spec_soc.core_named(name).inner
        if inner is None:
            raise ConfigurationError(
                f"{name} is not hierarchical in path {path!r}"
            )
        spec_soc = inner
    return spec_soc.core_named(parts[-1])


def detectable_faults(spec: CoreSpec) -> "list[tuple[int, int]]":
    """Stuck-at faults the core's *own test* provably detects.

    Drawn from the diagnosis fault dictionary, so every returned fault
    both fails the screening run and has an exact dictionary match --
    the property the localisation guarantees rest on.
    """
    from repro.diagnose.engine import fault_dictionary

    faults: "list[tuple[int, int]]" = []
    for entry in fault_dictionary(spec):
        faults.extend(entry.faults)
    return sorted(faults)


def random_scenario(
    soc: SocSpec,
    seed: int,
    *,
    kinds: "tuple[str, ...]" = (KIND_STUCK_AT,),
) -> DefectScenario:
    """A seeded random defect on ``soc``.

    The default draws only ``stuck-at`` scenarios (the family with
    end-to-end localisation guarantees); pass a wider ``kinds`` tuple
    for transport-defect sweeps.  Identical ``(soc, seed, kinds)``
    yield identical scenarios.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown defect kind {kind!r}; known: {', '.join(KINDS)}"
            )
    rng = random.Random(seed)
    kind = rng.choice(list(kinds))
    if kind == KIND_OPEN_WIRE:
        return DefectScenario.open_wire(
            rng.randrange(soc.bus_width), rng.randint(0, 1), seed=seed
        )
    if kind == KIND_BRIDGE:
        if soc.bus_width < 2:
            raise ConfigurationError(
                "bridge scenarios need a bus of width >= 2"
            )
        wire_a, wire_b = rng.sample(range(soc.bus_width), 2)
        return DefectScenario.bridge(wire_a, wire_b, seed=seed)
    paths = _flat_core_paths(soc)
    if kind == KIND_DEAD_CELL:
        path = rng.choice(paths)
        spec = spec_at(soc, path)
        cells = spec.num_pis + spec.num_pos
        return DefectScenario.dead_cell(
            path, rng.randrange(cells), rng.randint(0, 1), seed=seed
        )
    # Stuck-at: draw a victim whose test set detects at least one
    # fault (ATPG on tiny cores can in principle detect nothing).
    order = list(paths)
    rng.shuffle(order)
    for path in order:
        faults = detectable_faults(spec_at(soc, path))
        if faults:
            node, value = rng.choice(faults)
            return DefectScenario.stuck_at(path, node, value, seed=seed)
    raise ConfigurationError(
        f"{soc.name}: no core has a detectable stuck-at fault"
    )
