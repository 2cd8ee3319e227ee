"""Unit tests for tables, reports and the VCD/trace utilities."""

from __future__ import annotations

from repro import values as lv
from repro.analysis.report import ComparisonRow, comparison_table
from repro.analysis.tables import format_table
from repro.sim.trace import TraceRecorder
from repro.sim.vcd import render_vcd


class TestTables:
    def test_alignment(self):
        text = format_table(
            ("name", "count"),
            (("alpha", 5), ("b", 123)),
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].startswith("alpha")
        # Numeric column right-aligned.
        assert lines[2].endswith("  5".rjust(3)) or "  5" in lines[2]
        assert "123" in lines[3]

    def test_title(self):
        text = format_table(("a",), ((1,),), title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_float_formatting(self):
        text = format_table(("x",), ((1.23456,),))
        assert "1.23" in text


class TestReport:
    def test_exact_match_ratio(self):
        row = ComparisonRow("m", 14, 14)
        assert row.matches
        assert row.ratio == 1.0

    def test_non_numeric(self):
        row = ComparisonRow("policy", "all", "all")
        assert row.ratio is None
        assert row.matches

    def test_table_renders(self):
        text = comparison_table(
            [ComparisonRow("gates", 64, 108), ComparisonRow("k", 4, 4)],
        )
        assert "1.69" in text
        assert "paper" in text


class TestTraceAndVcd:
    def test_change_compression(self):
        trace = TraceRecorder()
        trace.record("sig", 0, lv.ZERO)
        trace.record("sig", 1, lv.ZERO)
        trace.record("sig", 2, lv.ONE)
        assert trace.changes["sig"] == [(0, lv.ZERO), (2, lv.ONE)]

    def test_value_at(self):
        trace = TraceRecorder()
        trace.record("sig", 0, lv.ZERO)
        trace.record("sig", 5, lv.ONE)
        assert trace.value_at("sig", 3) == lv.ZERO
        assert trace.value_at("sig", 5) == lv.ONE
        assert trace.value_at("nope", 1) is None

    def test_record_vector(self):
        trace = TraceRecorder()
        trace.record_vector("bus", 0, (lv.ZERO, lv.ONE))
        assert set(trace.signals()) == {"bus0", "bus1"}

    def test_vcd_structure(self):
        trace = TraceRecorder()
        trace.record("a", 0, lv.ZERO)
        trace.record("a", 3, lv.ONE)
        trace.record("b", 1, lv.Z)
        text = render_vcd(trace, design_name="dut")
        assert "$scope module dut $end" in text
        assert "$var wire 1" in text
        assert "#0" in text and "#3" in text
        assert "z" in text  # high-impedance encoded

    def test_vcd_identifiers_unique(self):
        trace = TraceRecorder()
        for index in range(100):
            trace.record(f"sig{index}", 0, lv.ZERO)
        text = render_vcd(trace)
        ids = [
            line.split()[3]
            for line in text.splitlines()
            if line.startswith("$var")
        ]
        assert len(set(ids)) == 100
