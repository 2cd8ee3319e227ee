"""Smoke tests of the public API surface and error hierarchy."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    ReproError,
    ScheduleError,
    SimulationError,
    SynthesisError,
    VerificationError,
)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_surface(self):
        """The README quickstart names resolve and work."""
        design = repro.generate_cas(4, 2)
        assert (design.m, design.k) == (14, 4)
        soc = repro.fig1_soc()
        tam = repro.CasBusTamDesign.for_soc(soc)
        assert tam.total_cas_cells > 0

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_values_alias_matches_canonical(self):
        from repro import values as canonical
        from repro.sim import values as alias

        assert alias.ZERO == canonical.ZERO
        assert alias.resolve is canonical.resolve


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, SimulationError, SynthesisError,
        ScheduleError, VerificationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_library_raises_its_own_errors(self):
        with pytest.raises(ConfigurationError):
            repro.InstructionSet(2, 5)  # P > N
        with pytest.raises(ConfigurationError):
            repro.SwitchScheme(n=2, p=1, wire_of_port=(7,))


class TestVerifyFailurePaths:
    def test_equivalence_mismatch_reports_stimulus(self):
        from repro.netlist.netlist import Netlist
        from repro.netlist.verify import check_combinational_equivalence
        from repro import values as lv

        nl = Netlist(name="wrong")
        a = nl.add_input("a")
        nl.add_output("y")
        nl.add_gate("BUF", (a,), "y")

        def reference(assignment):
            return {"y": lv.v_not(assignment["a"])}  # expects INV

        with pytest.raises(VerificationError, match="output 'y'"):
            check_combinational_equivalence(nl, reference, ["a"], ["y"])

    def test_equivalence_pass_returns_count(self):
        from repro.netlist.netlist import Netlist
        from repro.netlist.verify import check_combinational_equivalence
        from repro import values as lv

        nl = Netlist(name="right")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.add_output("y")
        nl.add_gate("AND", (a, b), "y")

        def reference(assignment):
            return {"y": lv.v_and((assignment["a"], assignment["b"]))}

        assert check_combinational_equivalence(
            nl, reference, ["a", "b"], ["y"]
        ) == 4


class TestImportCost:
    def test_fault_free_run_loads_no_array_code(self):
        """numpy and the batch module load only for faulty scan
        captures: importing the API and a clean simulated run must not
        pay their import time."""
        script = (
            "import sys\n"
            "import repro.api\n"
            "from repro.api import Experiment, get_workload\n"
            "result = Experiment(get_workload('fig1')).run()\n"
            "assert result.source == 'simulation', result.source\n"
            "print(sorted({'numpy', 'repro.sim.batch'} & set(sys.modules)))\n"
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "[]"
