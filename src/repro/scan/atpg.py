"""Random-pattern ATPG with fault dropping.

Generates seeded random scan patterns, fault-simulates them in batches,
keeps only patterns that detect new faults, and stops at a coverage
target or pattern budget.  The resulting :class:`TestSet` carries the
expected responses (captured flip-flop state and primary outputs), i.e.
exactly the bits the CAS-BUS must transport and compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.scan.core_model import ScannableCore
from repro.scan.fault_sim import (
    WORD_WIDTH,
    pack_patterns,
    run_fault_simulation,
)
from repro.scan.faults import Fault, core_fault_list


@dataclass(frozen=True)
class ScanPattern:
    """One scan test pattern.

    Attributes:
        pi: primary input values, index = PI number.
        chains: per-chain load values; ``chains[c][i]`` lands in chain
            ``c`` position ``i`` (position 0 = scan-in side).
    """

    pi: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PatternResponse:
    """Expected capture results for one pattern.

    Attributes:
        ff_values: post-capture flip-flop values (index = FF number).
        po_values: primary output values observed at capture.
    """

    ff_values: tuple[int, ...]
    po_values: tuple[int, ...]


@dataclass
class TestSet:
    """A complete scan test for one core."""

    core_name: str
    patterns: list[ScanPattern] = field(default_factory=list)
    responses: list[PatternResponse] = field(default_factory=list)
    fault_coverage: float = 0.0
    detected_faults: int = 0
    total_faults: int = 0
    #: Faults proven redundant by PODEM (no test exists).
    untestable_faults: int = 0
    #: Faults PODEM gave up on (backtrack budget exhausted).
    aborted_faults: int = 0

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def effective_coverage(self) -> float:
        """Coverage over *testable* faults (untestable ones excluded)."""
        testable = self.total_faults - self.untestable_faults
        if not testable:
            return 1.0
        return self.detected_faults / testable


def random_pattern(core: ScannableCore, rng: random.Random) -> ScanPattern:
    """One uniformly random pattern for a core."""
    pi = tuple(rng.randint(0, 1) for _ in range(core.num_pis))
    chains = tuple(
        tuple(rng.randint(0, 1) for _ in range(length))
        for length in core.chain_lengths
    )
    return ScanPattern(pi=pi, chains=chains)


def compute_responses(
    core: ScannableCore,
    patterns: Sequence[ScanPattern],
) -> list[PatternResponse]:
    """Fault-free expected responses, computed bit-parallel."""
    responses: list[PatternResponse] = []
    for batch, start in zip(
        pack_patterns(core, patterns), range(0, len(patterns), WORD_WIDTH)
    ):
        words = core.cloud.evaluate_words(batch.input_words, batch.mask)
        for offset in range(batch.count):
            bit = 1 << offset
            ff_values = tuple(
                1 if words[index] & bit else 0
                for index in range(core.num_ffs)
            )
            po_values = tuple(
                1 if words[core.num_ffs + index] & bit else 0
                for index in range(core.num_pos)
            )
            responses.append(
                PatternResponse(ff_values=ff_values, po_values=po_values)
            )
    return responses


def generate_test_set(
    core: ScannableCore,
    *,
    seed: int = 1,
    target_coverage: float = 0.95,
    max_patterns: int = 512,
    batch_size: int = WORD_WIDTH,
    deterministic_topup: bool = False,
    podem_backtrack_limit: int = 128,
) -> TestSet:
    """ATPG: random patterns with fault dropping, plus optional PODEM.

    Phase 1 generates seeded random patterns, keeping only those that
    detect new faults, until the coverage target, the pattern budget or
    random saturation.  With ``deterministic_topup``, phase 2 targets
    every remaining fault with PODEM (:mod:`repro.scan.podem`): each
    testable fault contributes a pattern (which is fault-simulated to
    drop collaterals), and redundant faults are *proven* untestable.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise ConfigurationError(
            f"target coverage must be in (0, 1], got {target_coverage}"
        )
    rng = random.Random(seed)
    remaining: list[Fault] = core_fault_list(core)
    total = len(remaining)
    kept: list[ScanPattern] = []
    detected = 0
    while remaining and len(kept) < max_patterns:
        budget = min(batch_size, max_patterns - len(kept))
        batch = [random_pattern(core, rng) for _ in range(budget)]
        sim = run_fault_simulation(core, batch, remaining)
        if not sim.detected:
            # A full batch with zero new detections: random ATPG has
            # saturated (remaining faults are random-pattern-resistant).
            break
        useful_indices = sorted(set(sim.detecting_pattern.values()))
        kept.extend(batch[index] for index in useful_indices)
        detected += len(sim.detected)
        remaining = [f for f in remaining if f not in sim.detected]
        if total and detected / total >= target_coverage:
            break
    untestable = 0
    aborted = 0
    if deterministic_topup and remaining:
        from repro.scan.podem import TESTABLE, UNTESTABLE, podem_pattern

        queue = list(remaining)
        while queue and len(kept) < max_patterns:
            fault = queue.pop(0)
            pattern, verdict = podem_pattern(
                core, fault,
                fill_seed=seed ^ (fault.node * 2 + fault.stuck_value),
                backtrack_limit=podem_backtrack_limit,
            )
            if verdict == UNTESTABLE:
                untestable += 1
                remaining = [f for f in remaining if f != fault]
                continue
            if verdict != TESTABLE:
                aborted += 1
                continue
            assert pattern is not None
            sim = run_fault_simulation(core, [pattern], remaining)
            if fault not in sim.detected:
                # Random fill masked the target; count as aborted
                # rather than looping (rare).
                aborted += 1
                continue
            kept.append(pattern)
            detected += len(sim.detected)
            remaining = [f for f in remaining if f not in sim.detected]
            queue = [f for f in queue if f in set(remaining)]
    responses = compute_responses(core, kept)
    coverage = detected / total if total else 1.0
    return TestSet(
        core_name=core.name,
        patterns=kept,
        responses=responses,
        fault_coverage=coverage,
        detected_faults=detected,
        total_faults=total,
        untestable_faults=untestable,
        aborted_faults=aborted,
    )
