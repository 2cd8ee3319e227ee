"""Test plans: which cores are tested when, on which wires.

A :class:`TestPlan` is a sequence of :class:`SessionPlan` steps; each
session tests a set of cores *concurrently* on disjoint top-level bus
wires.  Hierarchical cores are addressed by path, and an assignment
carries the wire choice at every hierarchy level:

``levels[0]`` -- top-level bus wires feeding the outermost node on the
path (ordered by that node's ports); ``levels[1]`` -- the inner bus
wires feeding the next node; ...; ``levels[-1]`` -- the wires of the
terminal core's enclosing bus, ordered by the terminal's ports.

Because every CAS applies the paper's pairing heuristic (``e_i -> o_j``
implies ``i_j -> s_i``), a terminal port's data enters and leaves the
SoC on the *same* top-level wire; :meth:`CoreAssignment.top_wire`
computes it by composing the levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CoreAssignment:
    """Wire assignment for one (possibly nested) tested core.

    Attributes:
        path: core names from the top level down, e.g. ``("core5",
            "core5a")``; flat cores have a single-element path.
        levels: per-level wire tuples as described in the module doc.
        wir_override: optional wrapper instruction replacing the
            default (INTEST for scan/external, BIST for BISTed cores);
            the interconnect test uses ``"EXTEST"``.
    """

    path: tuple[str, ...]
    levels: tuple[tuple[int, ...], ...]
    wir_override: str | None = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("assignment needs a core path")
        if len(self.levels) != len(self.path):
            raise ConfigurationError(
                f"{'/'.join(self.path)}: {len(self.path)} path levels but "
                f"{len(self.levels)} wire levels"
            )
        for level in self.levels:
            if len(set(level)) != len(level):
                raise ConfigurationError(
                    f"{'/'.join(self.path)}: duplicate wires in {level}"
                )

    @property
    def name(self) -> str:
        return "/".join(self.path)

    def top_wire(self, port: int) -> int:
        """The top-level bus wire that carries terminal port ``port``.

        Composes the hierarchy: the terminal's enclosing-bus wire is an
        inner-bus index, which the next level up maps to its own
        enclosing bus, and so on to the top.
        """
        wire = self.levels[-1][port]
        for level in reversed(self.levels[:-1]):
            wire = level[wire]
        return wire

    def top_wires(self) -> tuple[int, ...]:
        """Top-level wires for all terminal ports, in port order."""
        return tuple(self.top_wire(p) for p in range(len(self.levels[-1])))


@dataclass(frozen=True)
class SessionPlan:
    """One concurrent test step.

    Attributes:
        assignments: cores tested in this session; their top-level wire
            footprints must be disjoint (validated against a bus width
            by :meth:`validate`).
        label: free-form tag for reports.
    """

    assignments: tuple[CoreAssignment, ...]
    label: str = ""

    def validate(self, bus_width: int) -> None:
        used: set[int] = set()
        for assignment in self.assignments:
            footprint = set(assignment.levels[0])
            for wire in footprint:
                if not 0 <= wire < bus_width:
                    raise ConfigurationError(
                        f"{assignment.name}: wire {wire} outside bus "
                        f"of width {bus_width}"
                    )
            overlap = used & footprint
            # Nested cores of one hierarchical parent share the parent's
            # top-level footprint; that is legal.  Distinct top-level
            # nodes must not collide.
            if overlap:
                sharers = [
                    a for a in self.assignments
                    if a.path[0] != assignment.path[0]
                    and set(a.levels[0]) & footprint
                ]
                if sharers:
                    raise ConfigurationError(
                        f"session wires clash on {sorted(overlap)} between "
                        f"{assignment.name} and {sharers[0].name}"
                    )
            used |= footprint

    def tested_names(self) -> list[str]:
        return [assignment.name for assignment in self.assignments]


@dataclass(frozen=True)
class TestPlan:
    """A full test program: sessions applied in order, each preceded by
    a reconfiguration of the TAM (the paper's 'different TAM
    architectures ... in sequential order, within the same test
    program')."""

    __test__ = False  # keep pytest from collecting this as a test class

    sessions: tuple[SessionPlan, ...]
    label: str = ""

    def validate(self, bus_width: int) -> None:
        if not self.sessions:
            raise ConfigurationError("a test plan needs at least one session")
        for session in self.sessions:
            session.validate(bus_width)


def flat_assignment(core_name: str, wires: tuple[int, ...]) -> CoreAssignment:
    """Convenience: an assignment for a top-level (non-nested) core."""
    return CoreAssignment(path=(core_name,), levels=(wires,))


@dataclass
class PlanBuilder:
    """Incremental construction of a test plan."""

    sessions: list[SessionPlan] = field(default_factory=list)

    def add_session(self, *assignments: CoreAssignment,
                    label: str = "") -> "PlanBuilder":
        self.sessions.append(
            SessionPlan(assignments=tuple(assignments), label=label)
        )
        return self

    def build(self, label: str = "") -> TestPlan:
        return TestPlan(sessions=tuple(self.sessions), label=label)
