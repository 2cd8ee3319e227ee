"""Static checks on compiled kernel programs and configuration loads.

The compiled kernel (:mod:`repro.sim.kernel`) lowers a session into
bit-packed per-core programs; the configuration planner
(:mod:`repro.sim.config`) computes register target codes.  These checks
prove the packed data is well formed *before* anything executes:

Rules::

    PRG001  packed stimulus/expected/care words overflow the chain
    PRG002  chain geometry does not partition the core's cells
    PRG003  program window/cycle accounting inconsistent
    PRG004  configuration load references an unknown register
    PRG005  configuration load carries an invalid instruction code
    PRG006  batch golden responses disagree with the scalar program
    PRG007  batch program shape/mask/column accounting inconsistent
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.soc.core import CoreSpec
from repro.verify.diagnostics import (
    SEVERITY_ERROR,
    VerifyReport,
    rule,
)

PRG001 = rule("PRG001", SEVERITY_ERROR,
              "packed scan words overflow the declared chain width")
PRG002 = rule("PRG002", SEVERITY_ERROR,
              "chain geometry does not partition the core's cells")
PRG003 = rule("PRG003", SEVERITY_ERROR,
              "program window/cycle accounting inconsistent")
PRG004 = rule("PRG004", SEVERITY_ERROR,
              "configuration load references an unknown register")
PRG005 = rule("PRG005", SEVERITY_ERROR,
              "configuration load carries an invalid instruction code")
PRG006 = rule("PRG006", SEVERITY_ERROR,
              "batch golden responses disagree with the scalar program")
PRG007 = rule("PRG007", SEVERITY_ERROR,
              "batch program shape/mask/column accounting inconsistent")


def _check_partition(
    report: VerifyReport,
    location: str,
    what: str,
    pieces: "list[tuple[int, ...]]",
    universe: int,
) -> None:
    """PRG002 helper: ``pieces`` must tile ``range(universe)`` exactly."""
    flat: list[int] = [index for piece in pieces for index in piece]
    expected = list(range(universe))
    if sorted(flat) != expected:
        missing = sorted(set(expected) - set(flat))
        extra = sorted(set(flat) - set(expected))
        duplicated = sorted(
            {index for index in flat if flat.count(index) > 1}
        )
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"out of range {extra}")
        if duplicated:
            parts.append(f"duplicated {duplicated}")
        report.add(
            PRG002, location,
            f"{what} indices do not partition range({universe}): "
            + "; ".join(parts),
        )


def verify_scan_program(
    program,
    spec: CoreSpec,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "",
) -> VerifyReport:
    """Check one compiled :class:`~repro.sim.kernel._ScanProgram`."""
    if report is None:
        report = VerifyReport()
    report.checked += 1
    loc = location or f"program[{spec.name}]"
    geometries = program.geometries
    _check_partition(
        report, loc, "flip-flop",
        [geo.ff_ids for geo in geometries], spec.num_ffs,
    )
    _check_partition(
        report, loc, "input-cell",
        [geo.in_pi for geo in geometries], spec.num_pis,
    )
    _check_partition(
        report, loc, "output-cell",
        [geo.out_po for geo in geometries], spec.num_pos,
    )
    lengths = tuple(geo.length for geo in geometries)
    if program.lengths != lengths:
        report.add(
            PRG003, loc,
            f"declared chain lengths {program.lengths} differ from the "
            f"geometry's {lengths}",
        )
    depth = max(lengths, default=0)
    if program.depth != depth:
        report.add(
            PRG003, loc,
            f"declared depth {program.depth} differs from the longest "
            f"chain ({depth})",
        )
    patterns = len(program.test_set.patterns)
    if program.num_patterns != patterns:
        report.add(
            PRG003, loc,
            f"declared {program.num_patterns} patterns but the test "
            f"set holds {patterns}",
        )
    windows = (program.depth + 1) * program.num_patterns + program.depth
    if program.total_cycles != windows:
        report.add(
            PRG003, loc,
            f"total_cycles {program.total_cycles} != "
            f"(depth+1)*patterns+depth = {windows}",
            hint="every pattern costs one full shift window plus a "
                 "capture; the response flushes in one more window",
        )
    for r_index, response in enumerate(program.want_care):
        for c_index, (want, care) in enumerate(response):
            length = lengths[c_index] if c_index < len(lengths) else 0
            w_loc = f"{loc}/response[{r_index}]/chain[{c_index}]"
            if want >> length or care >> length:
                report.add(
                    PRG001, w_loc,
                    f"packed word wider than the {length}-bit chain "
                    f"(want={want:#x}, care={care:#x})",
                )
            if want & ~care:
                report.add(
                    PRG001, w_loc,
                    f"expected bits set outside the care mask "
                    f"(want={want:#x}, care={care:#x})",
                    hint="don't-care positions must expect nothing",
                )
    return report


def verify_batch_program(
    program,
    spec: CoreSpec,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "",
) -> VerifyReport:
    """Check one lowered :class:`~repro.sim.batch.BatchScanProgram`.

    PRG007 proves the array shapes, per-word care masks and output
    scan coordinates are internally consistent; PRG006 proves the
    packed golden responses agree bit-for-bit with the scalar
    program's want/care words at every output position.  Works on
    plain Python ints (``tolist``).
    """
    if report is None:
        report = VerifyReport()
    report.checked += 1
    loc = location or f"batch[{spec.name}]"
    scalar = program.scalar
    lengths = scalar.lengths
    word_width = 64
    words = (program.num_patterns + word_width - 1) // word_width
    if program.words != words:
        report.add(
            PRG007, loc,
            f"declared {program.words} words for {program.num_patterns} "
            f"patterns (expected {words})",
        )
    if program.num_patterns != scalar.num_patterns:
        report.add(
            PRG007, loc,
            f"batch holds {program.num_patterns} patterns but the "
            f"scalar program {scalar.num_patterns}",
        )
    masks = [int(word) for word in program.masks.tolist()]
    full = (1 << word_width) - 1
    for index, mask in enumerate(masks):
        used = min(
            word_width,
            program.num_patterns - index * word_width,
        )
        expected = ((1 << used) - 1) if used < word_width else full
        if mask != expected:
            report.add(
                PRG007, f"{loc}/word[{index}]",
                f"care mask {mask:#x} does not cover the {used} "
                f"pattern bits of this word",
            )
    if program.inputs.shape != (program.cloud.num_inputs, len(masks)):
        report.add(
            PRG007, loc,
            f"input array shaped {program.inputs.shape}, expected "
            f"({program.cloud.num_inputs}, {len(masks)})",
        )
    outputs = len(program.cloud.outputs)
    if program.golden.shape != (outputs, len(masks)):
        report.add(
            PRG007, loc,
            f"golden array shaped {program.golden.shape}, expected "
            f"({outputs}, {len(masks)})",
        )
    if len(program.out_chain) != outputs or len(program.out_offset) != outputs:
        report.add(
            PRG007, loc,
            f"{len(program.out_chain)} chain / {len(program.out_offset)} "
            f"offset coordinates for {outputs} outputs",
        )
        return report  # coordinates unusable: skip the golden check
    for index, (chain, offset) in enumerate(
            zip(program.out_chain, program.out_offset)):
        if not 0 <= chain < len(lengths) or not 0 <= offset < (
                lengths[chain] if 0 <= chain < len(lengths) else 0):
            report.add(
                PRG007, f"{loc}/output[{index}]",
                f"scan coordinate (chain={chain}, offset={offset}) "
                f"outside the geometry",
            )
            return report
    golden = [
        [int(word) for word in row] for row in program.golden.tolist()
    ]
    for output in range(outputs):
        chain = program.out_chain[output]
        offset = program.out_offset[output]
        row = golden[output]
        for pattern in range(program.num_patterns):
            want, care = scalar.want_care[pattern][chain]
            bit = (row[pattern // word_width]
                   >> (pattern % word_width)) & 1
            if not (care >> offset) & 1:
                report.add(
                    PRG006,
                    f"{loc}/response[{pattern}]/output[{output}]",
                    f"scalar program does not care about chain {chain} "
                    f"offset {offset}, but the batch captures it",
                )
            elif (want >> offset) & 1 != bit:
                report.add(
                    PRG006,
                    f"{loc}/response[{pattern}]/output[{output}]",
                    f"golden bit {bit} contradicts the scalar expected "
                    f"bit at chain {chain} offset {offset}",
                )
    return report


def verify_configuration_targets(
    system,
    cas_targets: Mapping[str, int],
    *,
    report: Optional[VerifyReport] = None,
    location: str = "configuration",
) -> VerifyReport:
    """Check CAS register loads against the live system's registers."""
    if report is None:
        report = VerifyReport()
    report.checked += 1
    nodes = {f"{node.path}.cas": node for node in system.walk()}
    for register in sorted(set(cas_targets) - set(nodes)):
        report.add(
            PRG004, f"{location}/{register}",
            "target register does not exist in the system",
        )
    for register in sorted(set(nodes) - set(cas_targets)):
        report.add(
            PRG004, f"{location}/{register}",
            "register has no target code (every CAS is re-shifted)",
            hint="configuration passes thread the whole chain",
        )
    for register, code in sorted(cas_targets.items()):
        node = nodes.get(register)
        if node is None:
            continue
        iset = getattr(node.cas, "iset", None)
        if iset is None:
            continue  # gate-level CAS: codes validated by the netlist
        if not iset.is_valid_code(code):
            report.add(
                PRG005, f"{location}/{register}",
                f"code {code} is not a valid instruction "
                f"(k={iset.k} bits)",
            )
    return report


def verify_session_programs(
    system,
    session,
    *,
    report: Optional[VerifyReport] = None,
    location: str = "session",
) -> VerifyReport:
    """Statically check everything one session would load and run.

    Computes the session's configuration targets (propagating the
    planner's own :class:`~repro.errors.ConfigurationError` untouched,
    so callers see the same failure they would at execution time) and
    verifies them plus each scan terminal's compiled program.
    """
    from repro.sim.config import configuration_targets
    from repro.sim.kernel import _scan_program
    from repro.sim.nodes import ScanNode

    if report is None:
        report = VerifyReport()
    cas_targets, _ = configuration_targets(system, session)
    verify_configuration_targets(
        system, cas_targets, report=report, location=location,
    )
    for assignment in session.assignments:
        node = system.node_at(assignment.path)
        if isinstance(node, ScanNode) and node.wrapper is not None:
            program = _scan_program(node.spec, node.wrapper)
            verify_scan_program(
                program, node.spec, report=report,
                location=f"{location}/{assignment.name}",
            )
    return report
