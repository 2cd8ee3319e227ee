"""Unit and property tests for the scheduling layer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.soc.core import CoreTestParams, TestMethod
from repro.soc.itc02 import d695_like, random_test_params
from repro.schedule.assign import assign_wires, session_plan
from repro.schedule.balance import (
    balanced_lengths,
    partition_lpt,
    partition_optimal,
)
from repro.schedule.reconfig import compare_reconfiguration, static_partition
from repro.schedule.scheduler import (
    lower_bound,
    schedule_exhaustive,
    schedule_greedy,
)
from repro.schedule.timing import (
    cas_config_bits,
    config_cycles,
    core_test_cycles,
    core_test_cycles_fixed_chains,
    scan_test_cycles,
)


def _scan(name, flops, patterns, max_wires):
    return CoreTestParams(name=name, method=TestMethod.SCAN, flops=flops,
                          patterns=patterns, max_wires=max_wires)


def _bist(name, cycles):
    return CoreTestParams(name=name, method=TestMethod.BIST, flops=0,
                          patterns=0, max_wires=1, fixed_cycles=cycles)


class TestTimingFormulas:
    def test_scan_formula(self):
        # (L+1)*V + L with L=10, V=5.
        assert scan_test_cycles(10, 5) == 65

    def test_zero_patterns_zero_time(self):
        assert scan_test_cycles(10, 0) == 0

    def test_more_wires_never_hurt(self):
        core = _scan("c", 100, 10, 8)
        times = [core_test_cycles(core, w) for w in range(1, 9)]
        assert times == sorted(times, reverse=True)

    def test_wires_capped_by_max(self):
        core = _scan("c", 100, 10, 2)
        assert core_test_cycles(core, 4) == core_test_cycles(core, 2)

    def test_bist_time_wire_independent(self):
        core = _bist("b", 500)
        assert core_test_cycles(core, 1) == 500
        assert core_test_cycles(core, 7) == 500

    def test_fixed_chains_worse_or_equal(self):
        # 3 frozen chains (30, 5, 5) on 2 wires vs rebalanced 40 on 2.
        frozen = core_test_cycles_fixed_chains((30, 5, 5), 2, 10)
        balanced = core_test_cycles(_scan("c", 40, 10, 2), 2)
        assert frozen >= balanced

    def test_cas_config_bits_matches_table1(self):
        assert cas_config_bits(4, 2) == 4
        assert cas_config_bits(8, 4) == 11

    def test_config_cycles(self):
        assert config_cycles(12) == 13

    def test_negative_rejected(self):
        with pytest.raises(ScheduleError):
            scan_test_cycles(-1, 1)
        with pytest.raises(ScheduleError):
            config_cycles(-1)
        with pytest.raises(ScheduleError):
            core_test_cycles(_scan("c", 10, 5, 2), 0)


class TestBalance:
    def test_balanced_lengths(self):
        assert balanced_lengths(10, 3) == [4, 3, 3]
        assert balanced_lengths(9, 3) == [3, 3, 3]
        assert balanced_lengths(0, 2) == [0, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 8))
    def test_balanced_is_optimal(self, total, wires):
        lengths = balanced_lengths(total, wires)
        assert sum(lengths) == total
        assert max(lengths) == math.ceil(total / wires) if total else True
        assert max(lengths) - min(lengths) <= 1

    def test_lpt_known_case(self):
        # The textbook LPT counterexample: greedy lands on 14 while the
        # optimum {7,6} / {5,4,3} achieves 13.
        partition = partition_lpt((7, 6, 5, 4, 3), 2)
        assert partition.makespan == 14
        assert partition_optimal((7, 6, 5, 4, 3), 2).makespan == 13

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=8),
        st.integers(1, 4),
    )
    def test_lpt_vs_optimal_bound(self, lengths, wires):
        lpt = partition_lpt(lengths, wires)
        best = partition_optimal(lengths, wires)
        assert best.makespan <= lpt.makespan
        # LPT's 4/3 guarantee.
        assert lpt.makespan <= best.makespan * (4 / 3 - 1 / (3 * wires)) + 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=6),
        st.integers(1, 4),
    )
    def test_partitions_preserve_items(self, lengths, wires):
        for partition in (partition_lpt(lengths, wires),
                          partition_optimal(lengths, wires)):
            seen = sorted(i for group in partition.groups for i in group)
            assert seen == list(range(len(lengths)))
            for wire, group in enumerate(partition.groups):
                assert partition.loads[wire] == sum(
                    lengths[i] for i in group
                )

    def test_exact_solver_guard(self):
        with pytest.raises(ScheduleError, match="exact-solver limit"):
            partition_optimal([1] * 20, 2)


class TestAssign:
    def test_contiguous_disjoint(self):
        wires = assign_wires([("a", 2), ("b", 1)], 4)
        assert wires == {"a": (0, 1), "b": (2,)}

    def test_overflow_rejected(self):
        with pytest.raises(ScheduleError, match="needs 5 wires"):
            assign_wires([("a", 3), ("b", 2)], 4)

    def test_zero_count_rejected(self):
        with pytest.raises(ScheduleError):
            assign_wires([("a", 0)], 4)

    def test_session_plan_builders_pin_wires(self):
        """Every executable session packs cores onto contiguous wires
        through :func:`session_plan`; these literals are the wires the
        per-caller loops it replaced produced."""
        from repro.core.tam import CasBusTamDesign
        from repro.diagnose.retest import minimal_retest_plan
        from repro.schedule.concurrent import maintenance_session
        from repro.soc.library import fig1_soc

        def wires(sessions):
            return [[(a.path, a.levels) for a in session.assignments]
                    for session in sessions]

        soc = fig1_soc()
        retest = minimal_retest_plan(soc, ["core1", "core5/core5a"])
        assert wires(retest.plan.sessions) == [
            [(("core1",), ((0, 1, 2),))],
            [(("core5", "core5a"), ((0, 1), (0,)))],
        ]
        maintenance, _ = maintenance_session(soc, ["core2", "core3"])
        assert maintenance.label == "maintenance"
        assert wires([maintenance]) == [
            [(("core2",), ((0, 1),)), (("core3",), ((2,),))],
        ]
        plan = CasBusTamDesign(soc=soc).executable_plan()
        inner = [s for s in plan.sessions if s.label == "core5-inner"]
        assert wires(inner) == [
            [(("core5", "core5b"), ((0, 1), (0, 1)))],
            [(("core5", "core5a"), ((0, 1), (0,)))],
        ]
        parent = soc.core_named("core5")
        with pytest.raises(ScheduleError, match="needs 3 wires"):
            session_plan(parent.inner.cores, parent.inner.bus_width,
                         "both", parent=parent)


class TestScheduler:
    def test_wire_constraint_respected(self):
        cores = [_scan(f"c{i}", 50 + i, 10, 4) for i in range(6)]
        schedule = schedule_greedy(cores, 4)
        for session in schedule.sessions:
            assert session.wires_used <= 4

    def test_all_cores_scheduled_once(self):
        cores = [_scan(f"c{i}", 40, 8, 2) for i in range(5)]
        schedule = schedule_greedy(cores, 4)
        names = [n for s in schedule.sessions for n in s.names()]
        assert sorted(names) == sorted(c.name for c in cores)

    def test_greedy_close_to_exhaustive(self):
        cores = [_scan("a", 100, 20, 4), _scan("b", 60, 10, 2),
                 _scan("c", 30, 30, 1), _bist("d", 400)]
        greedy = schedule_greedy(cores, 4, charge_config=False)
        best = schedule_exhaustive(cores, 4, charge_config=False)
        assert best.test_cycles <= greedy.test_cycles
        assert greedy.test_cycles <= 2 * best.test_cycles

    def test_greedy_beats_lower_bound_sanity(self):
        cores = d695_like()
        schedule = schedule_greedy(cores, 16, charge_config=False)
        assert schedule.test_cycles >= lower_bound(cores, 16)

    def test_wider_bus_not_slower(self):
        cores = d695_like()
        times = [
            schedule_greedy(cores, n, charge_config=False).test_cycles
            for n in (4, 8, 16, 32)
        ]
        assert times == sorted(times, reverse=True)

    def test_exact_wires_mode(self):
        cores = [_scan("a", 30, 5, 3), _scan("b", 20, 5, 2)]
        schedule = schedule_greedy(cores, 4, exact_wires=True)
        for session in schedule.sessions:
            for entry in session.entries:
                assert entry.wires == entry.params.max_wires

    def test_exact_wires_overflow_rejected(self):
        with pytest.raises(ScheduleError, match="exceeds bus"):
            schedule_greedy([_scan("a", 30, 5, 8)], 4, exact_wires=True)

    def test_config_overhead_charged(self):
        cores = [_scan("a", 30, 5, 2), _scan("b", 20, 5, 2)]
        with_config = schedule_greedy(cores, 4, charge_config=True)
        without = schedule_greedy(cores, 4, charge_config=False)
        assert with_config.total_cycles > without.total_cycles
        assert with_config.config_cycles_total > 0

    def test_exhaustive_guard(self):
        cores = [_scan(f"c{i}", 10, 2, 1) for i in range(9)]
        with pytest.raises(ScheduleError, match="exhaustive limit"):
            schedule_exhaustive(cores, 2)

    def test_describe_mentions_sessions(self):
        schedule = schedule_greedy([_scan("a", 30, 5, 2)], 4)
        assert "sessions" in schedule.describe()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_greedy_schedules_everything_property(self, seed, n):
        cores = random_test_params(seed, num_cores=6)
        schedule = schedule_greedy(cores, n, charge_config=False)
        names = sorted(
            name for s in schedule.sessions for name in s.names()
        )
        assert names == sorted(c.name for c in cores)
        for session in schedule.sessions:
            assert session.wires_used <= n


class TestReconfig:
    def test_reconfiguration_helps_or_ties(self):
        cores = d695_like()
        comparison = compare_reconfiguration(cores, 8)
        assert comparison.speedup >= 1.0

    def test_static_partition_structure(self):
        cores = [_scan(f"c{i}", 50, 10, 4) for i in range(6)]
        plan = static_partition(cores, 4)
        assert sum(plan.wires_per_group) == 4
        placed = sorted(
            core.name for group in plan.groups for core in group
        )
        assert placed == sorted(core.name for core in cores)

    def test_config_overhead_fraction_small(self):
        cores = d695_like()
        comparison = compare_reconfiguration(cores, 16)
        # The paper: configuration happens once per session and stays
        # small against test time (the preemptive schedule pays a pass
        # per completion boundary, still well under a tenth).
        assert comparison.config_overhead_fraction < 0.08
