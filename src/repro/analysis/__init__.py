"""Reporting utilities shared by benchmarks and examples."""

from repro.analysis.tables import format_table
from repro.analysis.report import ComparisonRow, comparison_table

__all__ = ["format_table", "ComparisonRow", "comparison_table"]
