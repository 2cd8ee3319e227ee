"""Unit tests for the CasBusTamDesign facade."""

from __future__ import annotations

import pytest

import repro.core.tam as tam_module
from repro.core.tam import CasBusTamDesign
from repro.core.vhdl import lint_vhdl
from repro.soc.core import CoreSpec
from repro.soc.library import fig1_soc, small_soc
from repro.soc.soc import SocSpec


@pytest.fixture(scope="module")
def fig1_tam():
    return CasBusTamDesign.for_soc(fig1_soc())


class TestHardwareGeneration:
    def test_one_cas_per_core_including_inner(self, fig1_tam):
        assert set(fig1_tam.cas_designs) == {
            "core1", "core2", "core3", "core4", "core5",
            "core5/core5a", "core5/core5b", "core6", "sysbus",
        }

    def test_inner_cas_uses_inner_bus_width(self, fig1_tam):
        inner = fig1_tam.cas_designs["core5/core5a"]
        assert inner.n == 2  # the inner bus, not the top-level one
        outer = fig1_tam.cas_designs["core1"]
        assert outer.n == 4

    def test_totals_aggregate(self, fig1_tam):
        assert fig1_tam.total_cas_cells == sum(
            d.area.cell_count for d in fig1_tam.cas_designs.values()
        )
        assert fig1_tam.total_config_bits == sum(
            d.k for d in fig1_tam.cas_designs.values()
        )

    def test_vhdl_bundle_deduplicates(self, fig1_tam):
        bundle = fig1_tam.vhdl_bundle()
        # Multiple cores share (4,1); the bundle keeps one file per
        # distinct (N, P).
        assert len(bundle) < len(fig1_tam.cas_designs)
        for name, text in bundle.items():
            assert name.endswith(".vhd")
            assert lint_vhdl(text).ok


def _counting_generate_cas(monkeypatch):
    calls = []
    real = tam_module.generate_cas

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(tam_module, "generate_cas", counting)
    return calls


class TestLazyHardware:
    def test_plan_generates_no_hardware(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_cas called for a plan")

        monkeypatch.setattr(tam_module, "generate_cas", refuse)
        tam = CasBusTamDesign.for_soc(fig1_soc())
        assert len(tam.executable_plan().sessions) == 5

    def test_one_generation_per_distinct_key(self, monkeypatch):
        calls = _counting_generate_cas(monkeypatch)
        tam = CasBusTamDesign.for_soc(fig1_soc())
        designs = tam.cas_designs
        assert len(designs) == 9 and len(calls) == 5
        assert tam.cas_designs is designs
        by_key = {}
        for design in designs.values():
            assert by_key.setdefault((design.n, design.p), design) is design
        assert len(by_key) == 5
        assert len(tam.vhdl_bundle()) == 5 and tam.total_config_bits == 29
        assert len(calls) == 5

    @pytest.mark.parametrize("policy", ["all", None])
    @pytest.mark.parametrize("factory, totals", [
        (fig1_soc, (1110.5, 634, 29)),
        (small_soc, (177.75, 96, 6)),
    ])
    def test_pinned_totals(self, factory, totals, policy):
        tam = CasBusTamDesign.for_soc(factory(), policy=policy)
        assert (tam.total_cas_ge, tam.total_cas_cells,
                tam.total_config_bits) == totals


class TestPlanning:
    def test_schedule_covers_all_cores(self, fig1_tam):
        schedule = fig1_tam.schedule()
        names = [n for s in schedule.sessions for n in s.names()]
        assert sorted(names) == sorted(
            c.name for c in fig1_tam.soc.cores
        )

    def test_executable_plan_reaches_inner_cores(self, fig1_tam):
        plan = fig1_tam.executable_plan()
        tested = [
            name for session in plan.sessions
            for name in session.tested_names()
        ]
        assert "core5/core5a" in tested
        assert "core5/core5b" in tested
        assert sorted(tested).count("core1") == 1

    def test_plan_validates_against_bus(self, fig1_tam):
        fig1_tam.executable_plan().validate(fig1_tam.soc.bus_width)

    def test_hierarchy_only_soc(self):
        inner = small_soc(bus_width=2)
        soc = SocSpec(
            name="only_hier", bus_width=2,
            cores=(CoreSpec.hierarchical("outer", inner=inner),),
        )
        soc.validate()
        tam = CasBusTamDesign.for_soc(soc)
        plan = tam.executable_plan()
        tested = [n for s in plan.sessions for n in s.tested_names()]
        assert sorted(tested) == ["outer/alpha", "outer/beta"]


class TestExecution:
    def test_run_small_soc(self):
        tam = CasBusTamDesign.for_soc(small_soc())
        result = tam.run()
        assert result.passed
        assert {c.name for c in result.core_results()} == {"alpha", "beta"}

    def test_run_with_fault(self):
        from repro.bist.engine import random_detectable_fault

        soc = small_soc()
        fault = random_detectable_fault(
            soc.core_named("beta").build_scannable(), seed=8
        )
        tam = CasBusTamDesign.for_soc(soc)
        result = tam.run(inject_faults={"beta": fault})
        by_name = {c.name: c for c in result.core_results()}
        assert by_name["alpha"].passed
        assert not by_name["beta"].passed
