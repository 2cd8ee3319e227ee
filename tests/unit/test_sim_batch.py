"""Unit tests for the vectorized batch kernel's primitives.

The integration suite (``tests/integration/test_batch_equivalence.py``)
pins whole-program equivalence; these tests pin the building blocks in
isolation: the popcount kernels agree with each other and with Python,
the array cloud evaluator is a bit-exact twin of the scalar word
evaluator (including stuck-at forcing), per-fault failing sets match a
fault-at-a-time scalar diff, programs cache per spec, and scenario
normalization routes each scenario kind to the right path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import get_workload
from repro.scan.core_model import CombCloud
from repro.scan.fault_sim import pack_patterns
from repro.scan.faults import core_fault_list
from repro.sim.batch import (
    _popcount_words,
    _popcount_words_swar,
    batch_scan_program,
    clear_batch_cache,
    evaluate_cloud_array,
    scan_fault_failing_sets,
    scenario_overlay,
)
from repro.sim import testsets
from repro.soc.core import TestMethod
from repro.soc.library import fig1_soc


class TestPopcount:
    def test_swar_matches_python_popcount(self):
        rng = random.Random(7)
        words = [0, 1, (1 << 64) - 1, 1 << 63] + [
            rng.getrandbits(64) for _ in range(200)
        ]
        array = np.array(words, dtype=np.uint64)
        expected = [bin(word).count("1") for word in words]
        assert _popcount_words_swar(array).tolist() == expected
        assert _popcount_words(array).tolist() == expected

    def test_dtype_and_shape_preserved(self):
        array = np.arange(12, dtype=np.uint64).reshape(3, 4)
        counts = _popcount_words(array)
        assert counts.shape == (3, 4)
        assert counts.dtype == np.int64


def _random_columns(cloud, num_patterns, columns, seed):
    rng = random.Random(seed)
    mask = (1 << num_patterns) - 1
    return [
        [rng.getrandbits(num_patterns) for _ in range(cloud.num_inputs)]
        for _ in range(columns)
    ], mask


class TestCloudArrayEvaluator:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_evaluator(self, seed):
        cloud = CombCloud.random(
            num_inputs=6, num_ops=30, num_outputs=8, seed=seed
        )
        column_inputs, mask = _random_columns(cloud, 16, 5, seed)
        inputs = np.array(column_inputs, dtype=np.uint64).T
        masks = np.full(5, mask, dtype=np.uint64)
        outputs = evaluate_cloud_array(cloud, inputs, masks)
        for column, words in enumerate(column_inputs):
            scalar = cloud.evaluate_words(words, mask)
            assert outputs[:, column].tolist() == scalar

    @pytest.mark.parametrize("stuck", [0, 1])
    def test_stuck_at_override_matches_scalar_fault(self, stuck):
        cloud = CombCloud.random(
            num_inputs=5, num_ops=24, num_outputs=6, seed=11
        )
        column_inputs, mask = _random_columns(cloud, 12, 3, 11)
        inputs = np.array(column_inputs, dtype=np.uint64).T
        masks = np.full(3, mask, dtype=np.uint64)
        forced = np.uint64(mask if stuck else 0)
        for node in (0, cloud.num_inputs, cloud.num_nodes - 1):
            overrides = {
                node: (
                    np.arange(3, dtype=np.intp),
                    np.full(3, forced, dtype=np.uint64),
                )
            }
            outputs = evaluate_cloud_array(
                cloud, inputs, masks, overrides=overrides
            )
            for column, words in enumerate(column_inputs):
                scalar = cloud.evaluate_words(
                    words, mask, fault=(node, stuck)
                )
                assert outputs[:, column].tolist() == scalar, (
                    f"node {node} stuck-at-{stuck}, column {column}"
                )

    def test_rejects_wrong_input_arity(self):
        from repro.errors import SimulationError

        cloud = CombCloud.random(
            num_inputs=4, num_ops=8, num_outputs=2, seed=0
        )
        with pytest.raises(SimulationError, match="inputs"):
            evaluate_cloud_array(
                cloud,
                np.zeros((3, 2), dtype=np.uint64),
                np.ones(2, dtype=np.uint64),
            )


def _scan_specs():
    """Every fig 1 scan core (nested ones included) plus one d695 core."""
    specs = []
    for core in fig1_soc().cores:
        if core.method == TestMethod.HIERARCHICAL:
            specs.extend(core.inner.cores)
        elif core.method == TestMethod.SCAN:
            specs.append(core)
    specs.append(get_workload("itc02-d695-soc").soc.core_named("c6"))
    return specs


def _scalar_failing_sets(spec, faults):
    """Reference: one fault at a time through the scalar word evaluator."""
    core = spec.build_scannable()
    batches = pack_patterns(core, testsets.test_set_for(spec).patterns)
    goldens = [
        core.cloud.evaluate_words(batch.input_words, batch.mask)
        for batch in batches
    ]
    sets = []
    for fault in faults:
        failing = set()
        base = 0
        for batch, golden in zip(batches, goldens):
            faulty = core.cloud.evaluate_words(
                batch.input_words, batch.mask, fault=fault
            )
            for output, (good, bad) in enumerate(zip(golden, faulty)):
                diff = (good ^ bad) & batch.mask
                for bit in range(batch.count):
                    if diff >> bit & 1:
                        failing.add((base + bit, output))
            base += batch.count
        sets.append(failing)
    return sets


class TestScanFaultFailingSets:
    @pytest.mark.parametrize(
        "spec", _scan_specs(), ids=lambda spec: spec.name
    )
    def test_matches_scalar_per_fault_diff(self, spec):
        faults = [
            (fault.node, fault.stuck_value)
            for fault in core_fault_list(spec.build_scannable())
        ]
        assert faults
        batched = scan_fault_failing_sets(spec, faults)
        assert batched == _scalar_failing_sets(spec, faults)
        assert any(batched)


class TestBatchProgramCache:
    def test_same_spec_hits_cache(self):
        clear_batch_cache()
        spec = next(
            core for core in fig1_soc().cores if core.name == "core2"
        )
        first = batch_scan_program(spec)
        assert batch_scan_program(spec) is first
        clear_batch_cache()
        assert batch_scan_program(spec) is not first

    def test_golden_matches_packed_chunks(self):
        spec = next(
            core for core in fig1_soc().cores if core.name == "core2"
        )
        program = batch_scan_program(spec)
        assert program.words == -(-program.num_patterns // 64)
        assert program.inputs.shape == (
            program.cloud.num_inputs, program.words
        )
        assert program.golden.shape == (
            len(program.cloud.outputs), program.words
        )
        # Every word's care mask covers exactly its pattern bits...
        for index, mask in enumerate(program.masks.tolist()):
            used = min(64, program.num_patterns - index * 64)
            assert mask == (1 << used) - 1
        # ...and stray bits above the pattern count never appear.
        stray = program.golden & ~program.masks[None, :]
        assert not stray.any()


class TestScenarioNormalization:
    def test_clean_is_empty_overlay(self):
        assert scenario_overlay(None) == {}

    def test_mapping_passes_through(self):
        overlay = scenario_overlay({"core2": (3, 1)})
        assert overlay == {"core2": (3, 1)}

    def test_stuck_at_scenario_becomes_overlay(self):
        from repro.diagnose.inject import DefectScenario

        scenario = DefectScenario.stuck_at("core2", 3, 1)
        assert scenario_overlay(scenario) == {"core2": scenario.fault}

    @pytest.mark.parametrize("factory", [
        lambda inject: inject.DefectScenario.open_wire(0),
        lambda inject: inject.DefectScenario.bridge(0, 1),
        lambda inject: inject.DefectScenario.dead_cell("core2", 1),
    ])
    def test_transport_defects_force_fallback(self, factory):
        from repro.diagnose import inject

        assert scenario_overlay(factory(inject)) is None
