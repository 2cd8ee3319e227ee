"""The static verifier's overhead versus the work it guards.

Verification runs by default at every fail-fast boundary, so its cost
must be noise next to the runs it checks.  Two gates:

* Simulated path: this benchmark takes the itc02-d695 SoC through the
  cycle-accurate path once with verification off, then times the exact
  checks the executor boundary performs (system wiring + per-session
  program verification) and asserts they stay under 5% of execution.
  The outcome, record and store checks are timed beside it for scale.
  Its reading (about 0.008% of a d695 run) is a simulated-path
  figure only; it says nothing about what verification costs a
  model run.
* Model path: a model run schedules once, then verifies and reports
  that one outcome, so verification adds only the outcome check.
  ``test_model_verify_overhead`` times an ``optimize-anneal`` run on
  itc02-p22810 (N=16) with verification on and off and asserts the
  median on/off ratio stays at or under 1.5.  A model path that
  schedules a second time to verify reads about 2 and fails it.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from repro.analysis.tables import format_table
from repro.api import Experiment
from repro.campaign.hashing import config_hash
from repro.campaign.store import CampaignStore, make_record
from repro.core.tam import CasBusTamDesign
from repro.schedule.model import TamProblem
from repro.sim.system import build_system
from repro.verify import (
    VerifyReport,
    verify_outcome,
    verify_record,
    verify_session_programs,
    verify_store,
    verify_system,
)

from conftest import emit

WIDTH = 16
#: Model path: verify-on over verify-off run time, medians of 3.
MODEL_VERIFY_GATE = 1.5


def _timed(fn, rounds=5):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_verify_overhead_d695(benchmark):
    experiment = Experiment("itc02-d695-soc").with_verify(False)
    soc = experiment.build().workload.soc
    system = build_system(soc)
    plan = CasBusTamDesign.for_soc(soc).executable_plan()

    # The guarded work: one full cycle-accurate run, verification off.
    execute_s = _timed(lambda: experiment.run(), rounds=1)

    def boundary_verify():
        report = verify_system(system)
        for session in plan.sessions:
            verify_session_programs(system, session, report=report)
        report.raise_if_failed(soc.name)
        return report

    verify_s = _timed(boundary_verify)
    benchmark.pedantic(boundary_verify, rounds=3, iterations=1)

    # The model-path artifact checks, reported for scale.
    model = (Experiment("itc02-d695")
             .with_bus_width(WIDTH).simulated(False).with_verify(False))
    result = model.run()
    record = make_record(model, result, config_hash=config_hash(model))
    # cas_policy must match the experiment's (None = practical sizing)
    # or SCH007 fires on the config-cycle total -- by design.
    problem = TamProblem.of(
        model.build().workload.cores, WIDTH, cas_policy=None
    )
    outcome = model.schedule()
    with tempfile.TemporaryDirectory() as scratch:
        store = CampaignStore(Path(scratch) / "bench.jsonl")
        store.append(record)
        outcome_s = _timed(
            lambda: verify_outcome(outcome, problem).raise_if_failed()
        )
        record_s = _timed(
            lambda: verify_record(record).raise_if_failed()
        )
        store_s = _timed(
            lambda: verify_store(store).raise_if_failed()
        )

    ratio = verify_s / execute_s
    emit(format_table(
        ("pass", "ms", "% of execution"),
        [
            ("execute (cycle-accurate, verify off)",
             f"{execute_s * 1e3:.2f}", "100.000"),
            ("executor boundary (system+programs)",
             f"{verify_s * 1e3:.3f}", f"{ratio * 100:.3f}"),
            ("verify outcome (model path)",
             f"{outcome_s * 1e3:.3f}",
             f"{outcome_s / execute_s * 100:.3f}"),
            ("verify record (runner append)",
             f"{record_s * 1e3:.3f}",
             f"{record_s / execute_s * 100:.3f}"),
            ("verify store (offline audit)",
             f"{store_s * 1e3:.3f}",
             f"{store_s / execute_s * 100:.3f}"),
        ],
        title="verifier overhead, itc02-d695",
    ))
    assert ratio < 0.05, (
        f"boundary verification is {ratio * 100:.2f}% of execution "
        f"(budget: 5%)"
    )
    assert isinstance(boundary_verify(), VerifyReport)


def test_model_verify_overhead(benchmark):
    model = (Experiment("itc02-p22810").with_bus_width(WIDTH)
             .with_scheduler("optimize-anneal").simulated(False))
    verified = model.with_verify(True)
    unverified = model.with_verify(False)
    # The benchmarked run doubles as the warm-up for both timings.
    benchmark.pedantic(verified.run, rounds=1, iterations=1)
    on_s = _timed(verified.run, rounds=3)
    off_s = _timed(unverified.run, rounds=3)

    ratio = on_s / off_s
    emit(format_table(
        ("model run (optimize-anneal)", "ms"),
        [
            ("verify off", f"{off_s * 1e3:.1f}"),
            ("verify on", f"{on_s * 1e3:.1f}"),
            ("on / off", f"{ratio:.2f}"),
        ],
        title=f"model-path verifier overhead, itc02-p22810 N={WIDTH}",
    ))
    assert ratio <= MODEL_VERIFY_GATE, (
        f"a verified model run takes {ratio:.2f}x an unverified one "
        f"(budget: {MODEL_VERIFY_GATE}x)"
    )
