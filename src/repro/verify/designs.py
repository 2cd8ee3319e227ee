"""Static checks on wired TAM systems and defect scenarios.

A built :class:`~repro.sim.system.CasBusSystem` encodes the paper's
figure-1 wiring: every core sits behind a CAS switching exactly its P
terminals out of the enclosing N-wire bus, and every flat core's P1500
wrapper chains form a bijection onto its boundary cells and flip-flops.
A :class:`~repro.diagnose.inject.DefectScenario` must reference parts
of the SoC that actually exist -- and must not be forced onto the
compiled kernel when it is a transport defect
(:func:`~repro.sim.kernel.kernel_blocker`): ``backend="auto"`` runs
those on the legacy path, single runs and
:meth:`~repro.sim.session.SessionExecutor.run_batch` scenarios alike,
while a pinned ``backend="kernel"`` raises at execution time.

Rules::

    DES001  CAS port width disagrees with the core's P
    DES002  wrapper chains are not a bijection onto the boundary cells
    DES003  CAS bus width disagrees with the enclosing bus
    SCN001  scenario victim core does not exist (or has no flat logic)
    SCN002  scenario wire outside the bus
    SCN003  scenario boundary cell outside the wrapper
    SCN004  transport defect forced onto the compiled kernel backend
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.soc.core import TestMethod
from repro.soc.soc import SocSpec
from repro.diagnose.inject import (
    KIND_BRIDGE,
    KIND_DEAD_CELL,
    KIND_OPEN_WIRE,
    KIND_STUCK_AT,
    DefectScenario,
    spec_at,
)
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    VerifyReport,
    rule,
)

DES001 = rule("DES001", SEVERITY_ERROR,
              "CAS port width disagrees with the core's P")
DES002 = rule("DES002", SEVERITY_ERROR,
              "wrapper chains are not a bijection onto the boundary "
              "cells")
DES003 = rule("DES003", SEVERITY_ERROR,
              "CAS bus width disagrees with the enclosing bus")
SCN001 = rule("SCN001", SEVERITY_ERROR,
              "scenario victim core does not exist")
SCN002 = rule("SCN002", SEVERITY_ERROR,
              "scenario wire outside the bus")
SCN003 = rule("SCN003", SEVERITY_ERROR,
              "scenario boundary cell outside the wrapper")
SCN004 = rule("SCN004", SEVERITY_ERROR,
              "transport defect forced onto the compiled kernel backend")

#: Defect kinds the compiled kernel cannot execute (they corrupt the
#: TAM transport itself; see :func:`repro.sim.kernel.kernel_blocker`).
TRANSPORT_KINDS = (KIND_OPEN_WIRE, KIND_BRIDGE, KIND_DEAD_CELL)


def _check_layout(node, report: VerifyReport, location: str) -> None:
    """DES002: wrapper chain layout must tile the boundary exactly."""
    wrapper = node.wrapper
    try:
        layout = wrapper.chain_layout()
    except Exception as exc:  # pragma: no cover - defensive
        report.add(
            DES002, location,
            f"chain layout unavailable: {exc}",
        )
        return
    num_in = len(wrapper.boundary.input_cells)
    num_out = len(wrapper.boundary.output_cells)
    in_indices = [index for in_pi, _ in layout for index in in_pi]
    out_indices = [index for _, out_po in layout for index in out_po]
    if sorted(in_indices) != list(range(num_in)):
        report.add(
            DES002, location,
            f"input-cell indices {sorted(in_indices)} do not tile the "
            f"{num_in} input cells",
        )
    if sorted(out_indices) != list(range(num_out)):
        report.add(
            DES002, location,
            f"output-cell indices {sorted(out_indices)} do not tile "
            f"the {num_out} output cells",
        )


def verify_system(
    system,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "",
) -> VerifyReport:
    """Check a built :class:`~repro.sim.system.CasBusSystem`.

    Recurses into hierarchical cores (each inner system has its own
    bus width).  Gate-level CAS instances expose the same ``n``/``p``
    surface as the behavioural model, so both are checked uniformly;
    attributes a custom CAS stand-in lacks are skipped rather than
    crashed on.
    """
    from repro.sim.nodes import HierNode

    if report is None:
        report = VerifyReport()
    report.checked += 1
    loc = location or f"system[{system.soc.name}]"
    for node in system.nodes:
        n_loc = f"{loc}/{node.path}"
        cas_n = getattr(node.cas, "n", None)
        if cas_n is not None and cas_n != system.n:
            report.add(
                DES003, n_loc,
                f"CAS switches an N={cas_n} bus inside an "
                f"N={system.n} system",
            )
        cas_p = getattr(node.cas, "p", None)
        if cas_p is not None and cas_p != node.spec.p:
            report.add(
                DES001, n_loc,
                f"CAS switches P={cas_p} terminals but the core has "
                f"P={node.spec.p}",
            )
        if isinstance(node, HierNode):
            if node.inner.n != node.spec.p:
                report.add(
                    DES001, n_loc,
                    f"inner bus is N={node.inner.n} wide but the core "
                    f"declares P={node.spec.p}",
                )
            verify_system(node.inner, report=report, location=n_loc)
            continue
        if node.wrapper is not None:
            _check_layout(node, report, n_loc)
    return report


def verify_scenario(
    scenario: DefectScenario,
    soc: SocSpec,
    *,
    backend: str = "auto",
    report: Optional[VerifyReport] = None,
    location: str = "",
) -> VerifyReport:
    """Check a :class:`DefectScenario` against the SoC it targets."""
    if report is None:
        report = VerifyReport()
    report.checked += 1
    loc = location or f"scenario[{scenario.describe()}]"
    spec = None
    if scenario.core is not None:
        try:
            spec = spec_at(soc, scenario.core)
        except ConfigurationError as exc:
            report.add(SCN001, loc, str(exc))
    if (spec is not None and scenario.kind == KIND_STUCK_AT
            and spec.method == TestMethod.HIERARCHICAL):
        report.add(
            SCN001, loc,
            f"{scenario.core!r} is hierarchical and has no flat logic "
            f"to fault",
            hint="address one of its inner cores instead",
        )
    if scenario.kind == KIND_OPEN_WIRE:
        assert scenario.wire is not None
        if not 0 <= scenario.wire < soc.bus_width:
            report.add(
                SCN002, loc,
                f"wire {scenario.wire} outside the "
                f"{soc.bus_width}-wire bus",
            )
    if scenario.kind == KIND_BRIDGE:
        assert scenario.wires is not None
        for wire in scenario.wires:
            if not 0 <= wire < soc.bus_width:
                report.add(
                    SCN002, loc,
                    f"wire {wire} outside the {soc.bus_width}-wire bus",
                )
    if scenario.kind == KIND_DEAD_CELL and spec is not None:
        if spec.method == TestMethod.HIERARCHICAL:
            report.add(
                SCN003, loc,
                f"{scenario.core!r} is hierarchical and has no "
                f"wrapper boundary",
            )
        else:
            cells = spec.num_pis + spec.num_pos
            assert scenario.cell is not None
            if not 0 <= scenario.cell < cells:
                report.add(
                    SCN003, loc,
                    f"boundary cell {scenario.cell} outside the "
                    f"wrapper's {cells} cells",
                )
    if backend == "kernel" and scenario.kind in TRANSPORT_KINDS:
        report.add(
            SCN004, loc,
            f"{scenario.kind} defects corrupt the TAM transport; the "
            f"compiled kernel cannot execute them",
            hint='use backend="auto" or "legacy"',
        )
    return report
