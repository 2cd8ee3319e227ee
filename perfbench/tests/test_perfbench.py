"""Tests of the benchmark's own logic (no ``repro`` run involved).

Run: ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import time

import pytest

import calibration
import checks
import stats
from layers import Tracer

# -- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [(0.0, 10.0, None), (1.0, 3.0, 0), (5.0, 6.0, 0)]
    assert stats.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_nested_grandchild_counts_once():
    # root > child > grandchild: the grandchild only reduces the child.
    spans = [(0.0, 10.0, None), (2.0, 8.0, 0), (3.0, 5.0, 1)]
    assert stats.self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_overlapping_children_use_their_union():
    spans = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 7.0, 0), (6.0, 6.5, 0)]
    # The union of [1,5], [3,7] and [6,6.5] is [1,7]: six seconds.
    assert stats.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(2.0, 4.0, None), (1.0, 3.0, 0), (3.5, 9.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(0.5)


def test_interval_union_merges_and_skips_empty():
    assert stats.interval_union(
        [(0, 1), (0.5, 2), (3, 3), (4, 5), (4.5, 4.6)]
    ) == pytest.approx(3.0)
    assert stats.interval_union([]) == 0.0


def test_tracer_summary_counts_outermost_calls_and_self_time():
    tracer = Tracer()
    # verify(0..10) > schedule.strategy(1..4) > verify(2..3),
    # then a second root strategy call (11..12).
    tracer.spans = [
        ["verify", 0.0, 10.0, None, 1],
        ["schedule.strategy", 1.0, 4.0, 0, 1],
        ["verify", 2.0, 3.0, 1, 1],
        ["schedule.strategy", 11.0, 12.0, None, 1],
    ]
    summary = tracer.summary(0.0, 20.0, {})
    metrics = summary["metrics"]
    assert metrics["verify.calls"] == 1
    assert metrics["verify.s"] == pytest.approx(7.0 + 1.0)
    assert metrics["schedule.strategy_calls"] == 2
    assert metrics["schedule.strategy_s"] == pytest.approx(2.0 + 1.0)
    # Roots cover [0,10] and [11,12] of a 20 s wall.
    assert metrics["unattributed_frac"] == pytest.approx(9.0 / 20.0)
    assert summary["largest_self_layer"] == "verify"


def test_tracer_wrap_records_nesting_and_pause():
    tracer = Tracer()
    inner = tracer.wrap("logic.minimize", lambda: "done")
    outer = tracer.wrap("core.cas", lambda: inner())
    assert outer() == "done"
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("core.cas", None), ("logic.minimize", 0),
    ]
    with tracer.paused():
        outer()
    assert len(tracer.spans) == 2


# -- host-speed reference ---------------------------------------------------


def test_reference_off_takes_no_slices():
    with calibration.Reference(enabled=False) as reference:
        time.sleep(0.3)
    assert reference.summary() == {"reference_s": None,
                                   "reference_samples": 0}


def test_reference_slices_are_left_out_of_operation_time():
    with calibration.Reference() as reference:
        start = time.perf_counter()
        deadline = start + 0.5
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter()
    summary = reference.summary()
    assert summary["reference_samples"] >= 1
    inside = sum(seconds for _, seconds in reference.slices)
    assert reference.net(start, end) == pytest.approx(end - start - inside)
    # A span before the first slice loses nothing.
    assert reference.net(start - 1.0, start) == pytest.approx(1.0)


# -- percentiles -----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.percentile(values, 90) == pytest.approx(3.7)
    assert stats.median(values) == pytest.approx(2.5)


# -- digests and invariants ------------------------------------------------

RESULT = {"source": "simulation", "passed": True, "test_cycles": 824,
          "config_cycles": 345}


def test_judge_accepts_matching_digest_and_rejects_perturbed_one():
    entry = checks.op("cold:fig1", RESULT)
    recorded = {"sim-run": {"cold:fig1": entry["digest"]}}
    assert checks.judge("sim-run", [entry], recorded)[0]["problems"] == []
    perturbed = checks.op("cold:fig1", {**RESULT, "test_cycles": 825})
    problems = checks.judge("sim-run", [perturbed], recorded)[0]["problems"]
    assert len(problems) == 1 and "recorded" in problems[0]


def test_judge_skips_digest_for_unrecorded_inputs():
    entry = checks.op("diagnose:x", {"rank": 1})
    assert checks.judge("defect-sweep", [entry], {})[0]["problems"] == []


def test_sim_run_invariants():
    assert checks.sim_run_problems(RESULT, dict(RESULT)) == []
    assert checks.sim_run_problems(RESULT, {**RESULT, "config_cycles": 1})
    assert checks.sim_run_problems({**RESULT, "passed": False},
                                   {**RESULT, "passed": False})
    assert checks.sim_run_problems({**RESULT, "source": "model"},
                                   {**RESULT, "source": "model"})


def test_screen_invariants():
    assert checks.screen_problems(False, RESULT) == []
    assert checks.screen_problems(True, {**RESULT, "passed": False}) == []
    assert checks.screen_problems(True, RESULT)
    assert checks.screen_problems(False, {**RESULT, "passed": False})


def test_diagnosis_invariant_wants_rank_one():
    assert checks.diagnosis_problems("stuck-at", False, 1) == []
    assert checks.diagnosis_problems("stuck-at", False, 2)
    assert checks.diagnosis_problems("stuck-at", False, None)
    assert checks.diagnosis_problems("open-wire", False, 1) == []
    assert checks.diagnosis_problems("open-wire", False, None)


def test_diagnosis_invariant_allows_only_open_wires_to_escape():
    # An open wire on an unused bus wire passes the screen: clean verdict.
    assert checks.diagnosis_problems("open-wire", True, None) == []
    assert checks.diagnosis_problems("open-wire", True, 1)
    assert checks.diagnosis_problems("stuck-at", True, None)


def test_sweep_invariants():
    assert checks.sweep_problems(RESULT, dict(RESULT), dict(RESULT)) == []
    assert checks.sweep_problems(RESULT, {**RESULT, "passed": None},
                                 dict(RESULT))
    assert checks.sweep_problems(RESULT, dict(RESULT), None)


def test_record_refuses_failing_operations(tmp_path):
    path = tmp_path / "digests.json"
    good = checks.op("a", 1)
    checks.record("w", [good], path)
    assert checks.load_digests(path) == {"w": {"a": good["digest"]}}
    with pytest.raises(ValueError):
        checks.record("w", [checks.op("b", 2, ["broken"])], path)
