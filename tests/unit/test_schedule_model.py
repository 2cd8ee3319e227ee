"""Unit and property tests for the shared scheduling cost model."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.soc.core import CoreTestParams, TestMethod
from repro.soc.itc02 import d695_like, random_test_params
from repro.schedule.model import (
    CostModel,
    TamProblem,
    cost_model,
    two_stage_config_cycles,
)
from repro.schedule.scheduler import (
    lower_bound,
    schedule_exhaustive,
)
from repro.schedule.timing import (
    cas_config_bits,
    config_cycles,
    core_test_cycles,
)


def _scan(name, flops, patterns, max_wires):
    return CoreTestParams(name=name, method=TestMethod.SCAN, flops=flops,
                          patterns=patterns, max_wires=max_wires)


def _bist(name, cycles):
    return CoreTestParams(name=name, method=TestMethod.BIST, flops=0,
                          patterns=0, max_wires=1, fixed_cycles=cycles)


class TestTamProblem:
    def test_of_normalises_to_tuple(self):
        problem = TamProblem.of(d695_like(), 8)
        assert isinstance(problem.cores, tuple)
        assert problem.bus_width == 8
        assert problem.cas_policy == "all"

    def test_with_width(self):
        problem = TamProblem.of(d695_like(), 8)
        wider = problem.with_width(16)
        assert wider.bus_width == 16
        assert wider.cores == problem.cores
        assert problem.bus_width == 8  # immutable

    def test_bad_width_rejected(self):
        with pytest.raises(ScheduleError, match="bus width"):
            TamProblem.of(d695_like(), 0)


class TestNormalisation:
    def test_useful_wires_caps_at_max(self):
        core = _scan("c", 100, 10, 4)
        assert CostModel.useful_wires(core, 8) == 4
        assert CostModel.useful_wires(core, 2) == 2
        assert CostModel.useful_wires(core, 0) == 1  # never below one

    def test_effective_wires(self):
        core = _scan("c", 100, 10, 4)
        assert CostModel.effective_wires(core, 8) == 4
        assert CostModel.effective_wires(core, 3) == 3

    def test_port_width_capped_by_bus(self):
        model = cost_model([_scan("c", 100, 10, 16)], 8)
        assert model.port_width(model.problem.cores[0]) == 8


class TestCostAccounting:
    def test_core_cycles_matches_timing(self):
        model = cost_model(d695_like(), 16)
        for core in model.problem.cores:
            for wires in (1, 2, 7, 16):
                assert model.core_cycles(core, wires) == \
                    core_test_cycles(core, wires)

    def test_cas_bits_matches_per_core_sum(self):
        cores = d695_like()
        model = cost_model(cores, 16)
        expected = sum(
            cas_config_bits(16, min(core.max_wires, 16), "all")
            for core in cores
        )
        assert model.cas_bits == expected
        assert model.config_bits == expected

    def test_boundary_config_is_one_wir_session(self):
        model = cost_model(d695_like(), 8)
        assert model.boundary_config_cycles() == \
            model.session_config_cycles(1)

    def test_two_stage_formula(self):
        # Stage A (bits+1) plus stage B (bits + 2 WIRs + 1).
        assert two_stage_config_cycles(10, 2) == 11 + 17
        # The executor skips stage A when nothing changes mode.
        assert two_stage_config_cycles(10, 0, stage_a_always=False) == 11
        assert two_stage_config_cycles(10, 0) == 11 + 11
        # Exact WIR bits override the per-change width.
        assert two_stage_config_cycles(10, 2, wir_bits=7) == \
            config_cycles(10) + config_cycles(17)


class TestOptimalSession:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6))
    def test_matches_enumeration(self, seed, num_cores, width):
        """The parametric split equals brute-force enumeration."""
        cores = random_test_params(seed, num_cores=num_cores)
        model = cost_model(cores, width)
        session = model.optimal_session(cores)
        if len(cores) > width:
            assert session is None
            return
        assert session is not None
        options = [
            range(1, min(core.max_wires, width) + 1) for core in cores
        ]
        best = min(
            (
                max(core_test_cycles(core, wires)
                    for core, wires in zip(cores, split))
                for split in itertools.product(*options)
                if sum(split) <= width
            ),
        )
        assert session.cycles == best
        assert session.wires_used <= width

    def test_infeasible_group_returns_none(self):
        model = cost_model([_scan(f"c{i}", 10, 2, 1) for i in range(4)], 2)
        assert model.optimal_session(model.problem.cores) is None

    def test_bist_core_single_wire(self):
        model = cost_model([_bist("b", 500)], 4)
        session = model.optimal_session(model.problem.cores)
        assert session is not None
        assert session.cycles == 500
        assert session.entries[0].wires == 1


class TestScheduleFromGroups:
    def test_charges_per_session(self):
        cores = d695_like()[:4]
        model = cost_model(cores, 8)
        schedule = model.schedule_from_groups(
            [cores[:2], cores[2:]], charge_config=True
        )
        assert schedule is not None
        assert schedule.config_cycles_total == \
            model.session_config_cycles(2) * 2
        free = model.schedule_from_groups(
            [cores[:2], cores[2:]], charge_config=False
        )
        assert free is not None
        assert free.config_cycles_total == 0

    def test_infeasible_partition_returns_none(self):
        cores = [_scan(f"c{i}", 10, 2, 1) for i in range(4)]
        model = cost_model(cores, 2)
        assert model.schedule_from_groups([cores]) is None


class TestLowerBoundSoundness:
    def test_seed_counterexample_now_sound(self):
        """Narrow allocations used to beat the old work bound."""
        cores = [_scan(f"c{i}", 5, 10, 4) for i in range(2)]
        best = schedule_exhaustive(cores, 4, charge_config=False)
        assert lower_bound(cores, 4) <= best.test_cycles

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 8))
    def test_optimal_never_beats_bound(self, seed, num_cores, width):
        cores = random_test_params(seed, num_cores=num_cores)
        best = schedule_exhaustive(cores, width, charge_config=False)
        assert best.test_cycles >= lower_bound(cores, width)

    def test_preemptive_pays_the_unload_tail(self):
        """Regression: a core finishing mid-segment must still shift
        its final unload out (it used to be marked done without it)."""
        from repro.schedule.preemptive import schedule_preemptive
        from repro.soc.itc02 import random_test_params

        cores = random_test_params(2105, num_cores=4)
        schedule = schedule_preemptive(cores, 2, charge_config=False)
        assert schedule.test_cycles >= lower_bound(cores, 2)

    def test_bound_is_useful_not_trivial(self):
        cores = d695_like()
        assert lower_bound(cores, 16) > 0
        # Within 25% of what the best known schedule achieves.
        from repro.schedule.optimize import optimize_anneal

        outcome = optimize_anneal(cores, 16, widths=(16,),
                                  charge_config=False)
        assert outcome.test_cycles <= 1.25 * lower_bound(cores, 16)
