"""Batch-group detection in :func:`repro.api.runner.run_many`.

Only experiments that are the same compiled simulation with different
scenario overlays may share a dispatch: the group key is the canonical
experiment identity minus ``inject_faults``, and anything that might
take the abstract-model path (or a pinned scalar backend) must stay
out.  End-to-end result equivalence lives in
``tests/integration/test_batch_equivalence.py``; this module pins the
partitioning logic itself.
"""

from __future__ import annotations

from repro.api import Experiment
from repro.api.runner import _batch_partition, _group_key
from repro.soc.core import CoreTestParams, TestMethod
from repro.soc.library import fig1_soc, small_soc


def _base():
    return Experiment(small_soc())


class TestGroupKey:
    def test_fault_variants_share_a_key(self):
        base = _base()
        clean = _group_key(base)
        faulty = _group_key(base.with_faults({"alpha": (0, 1)}))
        assert clean is not None
        assert clean == faulty

    def test_labels_do_not_split_groups(self):
        assert (_group_key(_base().with_label("a"))
                == _group_key(_base().with_label("b")))

    def test_different_workloads_split(self):
        assert _group_key(_base()) != _group_key(Experiment(fig1_soc()))

    def test_backend_pins_split_or_exclude(self):
        assert _group_key(_base().with_backend("legacy")) is None
        assert _group_key(_base().with_backend("kernel")) is None
        assert _group_key(_base().with_backend("auto")) is not None

    def test_capture_and_verify_split_groups(self):
        base = _group_key(_base())
        assert base != _group_key(_base().with_syndromes())
        assert base != _group_key(_base().with_verify(False))

    def test_model_only_runs_are_excluded(self):
        assert _group_key(_base().simulated(False)) is None

    def test_abstract_workloads_are_excluded(self):
        cores = [CoreTestParams(name="c1", method=TestMethod.SCAN,
                                flops=10, patterns=8, max_wires=2)]
        from repro.api.results import RunConfig

        experiment = Experiment(cores, RunConfig(bus_width=2))
        assert _group_key(experiment) is None

    def test_mismatched_bus_width_is_excluded(self):
        soc = small_soc()
        experiment = _base().with_bus_width(soc.bus_width + 1)
        assert _group_key(experiment) is None


class TestPartition:
    def test_singletons_stay_on_the_pool(self):
        experiments = [_base(), Experiment(fig1_soc())]
        grouped, rest = _batch_partition(experiments)
        assert grouped == []
        assert rest == [0, 1]

    def test_fault_sweep_groups_and_rest_partition(self):
        base = _base()
        experiments = [
            base,
            base.simulated(False),
            base.with_faults({"alpha": (0, 1)}),
            base.with_backend("legacy"),
            base.with_faults({"alpha": (1, 0)}),
        ]
        grouped, rest = _batch_partition(experiments)
        assert grouped == [[0, 2, 4]]
        assert rest == [1, 3]
