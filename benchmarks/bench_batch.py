"""Vectorized batch kernel vs per-scenario scalar dispatch.

The batch path (``SessionExecutor.run_batch``) exists for one reason:
Monte-Carlo defect sweeps and fault-dictionary builds run the *same*
compiled program geometry thousands of times with only the scenario
varying, and per-scenario Python dispatch re-pays the whole
interpreter cost every time.  These benchmarks run identical scenario
batches through one batch dispatch and through a scalar per-scenario
loop, assert byte-identical results, and gate the wall-clock ratio --
the PR-gating target is >= 5x at N=256 scenarios, with batch-of-1
overhead bounded at 2x a plain scalar run.
"""

from __future__ import annotations

import os
import time

import pytest

pytest.importorskip("numpy")

from repro.analysis.tables import format_table
from repro.bist.engine import random_detectable_fault
from repro.core.tam import CasBusTamDesign
from repro.diagnose.engine import fault_dictionary
from repro.sim.session import SessionExecutor
from repro.sim.system import build_system
from repro.soc.library import fig1_soc

from conftest import emit

#: Required batch-vs-scalar ratio at N=256 scenarios.  5x on a quiet
#: machine (the PR gate); CI smoke jobs on noisy shared runners export
#: a lower BATCH_SPEEDUP_GATE so scheduler jitter cannot flake the
#: build while gross regressions still trip it.
SPEEDUP_GATE = float(os.environ.get("BATCH_SPEEDUP_GATE", "5.0"))

#: Allowed batch-of-1 wall-clock overhead over one scalar run.
OVERHEAD_GATE = float(os.environ.get("BATCH_OVERHEAD_GATE", "2.0"))


def _sweep_scenarios(soc, count):
    """A stuck-at Monte-Carlo sweep: clean plus seeded scan faults."""
    victims = [core for core in soc.cores if core.method.value == "scan"]
    scenarios = [None]
    for index in range(count - 1):
        victim = victims[index % len(victims)]
        fault = random_detectable_fault(
            victim.build_scannable(), seed=index
        )
        scenarios.append({victim.name: fault})
    return scenarios


def _scalar_sweep(soc, plan, scenarios):
    results = []
    for scenario in scenarios:  # RL005: the measured scalar baseline
        executor = SessionExecutor(
            build_system(soc, inject_faults=scenario)
        )
        results.append(executor.run_plan(plan))
    return results


def test_batch_sweep_speedup(benchmark):
    """One dispatch for 256 scenarios vs 256 scalar kernel runs."""
    soc = fig1_soc()
    plan = CasBusTamDesign.for_soc(soc).executable_plan()
    scenarios = _sweep_scenarios(soc, 256)
    executor = SessionExecutor(build_system(soc))
    # Warm every shared cache (ATPG, compiled programs, batch arrays)
    # so both paths are measured steady-state.
    executor.run_batch(plan, scenarios[:2])
    _scalar_sweep(soc, plan, scenarios[:2])

    def run():
        start = time.perf_counter()
        batch = executor.run_batch(plan, scenarios)
        batch_s = time.perf_counter() - start
        start = time.perf_counter()
        scalar = _scalar_sweep(soc, plan, scenarios)
        scalar_s = time.perf_counter() - start
        return batch, scalar, batch_s, scalar_s

    batch, scalar, batch_s, scalar_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert batch == scalar, "batch diverged from scalar sweep"
    assert not batch[1].passed  # the faulty scenarios really fail
    speedup = scalar_s / batch_s
    emit(format_table(
        ("path", "s / 256 scenarios", "speedup"),
        [
            ("scalar loop", f"{scalar_s:.3f}", "1.0x"),
            ("batch dispatch", f"{batch_s:.3f}", f"{speedup:.1f}x"),
        ],
        title="batch kernel vs per-scenario dispatch -- fig-1 SoC",
    ))
    assert speedup >= SPEEDUP_GATE, (
        f"batch speedup {speedup:.1f}x < {SPEEDUP_GATE}x"
    )


def test_batch_of_one_overhead(benchmark):
    """A batch of one scenario must stay close to a plain scalar run:
    the vector path may not tax the common single-run case."""
    soc = fig1_soc()
    plan = CasBusTamDesign.for_soc(soc).executable_plan()
    scenarios = _sweep_scenarios(soc, 2)[1:]
    executor = SessionExecutor(build_system(soc))
    executor.run_batch(plan, scenarios)  # warm
    _scalar_sweep(soc, plan, scenarios)

    def run(repeats=5):
        batch_s = scalar_s = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            batch = executor.run_batch(plan, scenarios)
            batch_s += time.perf_counter() - start
            start = time.perf_counter()
            scalar = _scalar_sweep(soc, plan, scenarios)
            scalar_s += time.perf_counter() - start
            assert batch == scalar
        return batch_s / repeats, scalar_s / repeats

    batch_s, scalar_s = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = batch_s / scalar_s
    emit(f"batch-of-1: {batch_s * 1e3:.2f} ms vs scalar "
         f"{scalar_s * 1e3:.2f} ms ({overhead:.2f}x)")
    assert overhead <= OVERHEAD_GATE, (
        f"batch-of-1 overhead {overhead:.2f}x > {OVERHEAD_GATE}x"
    )


def test_dictionary_build_uses_batch_path(benchmark):
    """Fault-dictionary construction rides the pattern-parallel batch
    simulation; steady-state rebuild of a scan dictionary stays fast
    and its entries keep the schema the diagnosis engine matches on."""
    soc = fig1_soc()
    spec = soc.core_named("core2")
    fault_dictionary(spec)  # warm ATPG + batch arrays

    from repro.diagnose.engine import clear_dictionary_cache

    def run():
        clear_dictionary_cache()
        return fault_dictionary(spec)

    dictionary = benchmark.pedantic(run, rounds=1, iterations=3)
    assert dictionary
    emit(f"core2 dictionary: {len(dictionary)} syndrome "
         f"classes from the vectorized batch path")
