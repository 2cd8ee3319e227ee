"""Back-compat regression: the legacy entry points still work and
still produce the seed-era numbers.

The golden values below were captured from the seed tree (before the
repro.api layer existed); everything here is deterministic, so any
drift means the refactor changed behaviour, not just structure.
"""

from __future__ import annotations

from repro.baselines import all_baselines
from repro.baselines.casbus import CasBusTam
from repro.core.tam import CasBusTamDesign
from repro.schedule.scheduler import Schedule, schedule_greedy
from repro.soc.itc02 import d695_like
from repro.soc.library import fig1_soc, small_soc

#: Seed expectations: (test_cycles, config_cycles, extra_pins,
#: area_proxy) of every baseline on the d695-like workload at N=8.
SEED_BASELINE_REPORTS = {
    "mux-bus": (180039, 40, 8, 480.0),
    "daisy-chain": (3055704, 0, 1, 30.0),
    "static-distribution": (544729, 0, 8, 160.0),
    "direct-access": (34309, 0, 81, 162.0),
    "system-bus": (145659, 160, 0, 600.0),
    "cas-bus": (162835, 624, 8, 2678.5),
}


class TestLegacyFacade:
    def test_for_soc_run_small(self):
        result = CasBusTamDesign.for_soc(small_soc()).run()
        assert result.passed
        assert result.total_cycles == 96  # seed value
        assert result.config_cycles == 20
        assert result.test_cycles == 76

    def test_for_soc_run_fig1(self):
        result = CasBusTamDesign.for_soc(fig1_soc()).run()
        assert result.passed
        assert result.total_cycles == 1169  # seed value

    def test_schedule_default_is_greedy_schedule(self):
        schedule = CasBusTamDesign.for_soc(fig1_soc()).schedule()
        assert isinstance(schedule, Schedule)
        names = [n for s in schedule.sessions for n in s.names()]
        assert sorted(names) == sorted(
            c.name for c in fig1_soc().cores
        )


class TestLegacyFreeFunctions:
    def test_schedule_greedy_unchanged(self):
        schedule = schedule_greedy(d695_like(), 8)
        assert schedule.test_cycles == 162835  # seed value
        assert schedule.config_cycles_total == 2532
        assert len(schedule.sessions) == 9

    def test_schedule_greedy_matches_registry_strategy(self):
        from repro.api import get_scheduler

        direct = schedule_greedy(d695_like(), 8)
        outcome = get_scheduler("greedy").schedule(d695_like(), 8)
        assert outcome.test_cycles == direct.test_cycles
        assert outcome.config_cycles == direct.config_cycles_total


class TestLegacyBaselines:
    def test_all_baselines_roster_and_order(self):
        names = [b.name for b in all_baselines()]
        assert names == [
            "mux-bus", "daisy-chain", "static-distribution",
            "direct-access", "system-bus", "cas-bus",
        ]  # CAS-BUS last, as always

    def test_all_baselines_reports_unchanged(self):
        cores = d695_like()
        for baseline in all_baselines():
            report = baseline.evaluate(cores, 8)
            expected = SEED_BASELINE_REPORTS[baseline.name]
            assert (report.test_cycles, report.config_cycles,
                    report.extra_pins, report.area_proxy) == expected

    def test_casbus_default_constructor_unchanged(self):
        # CasBusTam().evaluate is still the historical greedy packing.
        report = CasBusTam().evaluate(d695_like(), 8)
        assert (report.test_cycles, report.config_cycles) == (162835, 624)


class TestFacadeAndExperimentAgree:
    def test_same_cycles_both_ways(self):
        from repro.api import Experiment

        legacy = CasBusTamDesign.for_soc(small_soc()).run()
        modern = Experiment(small_soc()).with_architecture("casbus").run()
        assert modern.total_cycles == legacy.total_cycles
        assert modern.passed == legacy.passed
