"""Fail-fast boundary tests for the static verifier.

The verifier is wired at three entry points -- executor pre-dispatch,
the runner's store append, and the model evaluation path -- plus the
``repro verify`` CLI verb.  These tests corrupt one artifact per
boundary and assert the run dies with a :class:`VerificationError`
when ``verify`` is on, and proceeds when it is off.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import Experiment
from repro.api.results import RunConfig
from repro.api.schedulers import StrategyAdapter
from repro.api.runner import run_many
from repro.campaign.cli import main
from repro.campaign.hashing import config_hash
from repro.campaign.store import CampaignStore, make_record
from repro.errors import VerificationError
from repro.sim.session import SessionExecutor
from repro.sim.system import build_system
from repro.soc.core import CoreTestParams, TestMethod
from repro.soc.library import small_soc
from repro.core.tam import CasBusTamDesign


def _scan(name, flops, patterns, max_wires):
    return CoreTestParams(name=name, method=TestMethod.SCAN, flops=flops,
                          patterns=patterns, max_wires=max_wires)


CORES = (_scan("c1", 35, 24, 2), _scan("c2", 20, 12, 2))


def _corrupted_system():
    # A wrapper whose declared chain layout no longer tiles its
    # boundary cells (DES002).  Only the kernel program builder and the
    # verifier read ``chain_layout``, so the legacy backend can still
    # execute this system -- the corruption is visible to the static
    # checker alone.
    system = build_system(small_soc())
    for node in system.nodes:
        if node.wrapper is not None:
            node.wrapper.chain_layout = lambda: [((0,), (0,))]
            return system
    raise AssertionError("no scan node in system")


def _plan():
    return CasBusTamDesign.for_soc(small_soc()).executable_plan()


# -- executor pre-dispatch -------------------------------------------------


def test_executor_rejects_corrupted_system():
    executor = SessionExecutor(_corrupted_system(), verify=True)
    with pytest.raises(VerificationError) as excinfo:
        executor.run_plan(_plan())
    assert "DES002" in str(excinfo.value)


def test_executor_verify_off_runs_corrupted_system():
    executor = SessionExecutor(
        _corrupted_system(), backend="legacy", verify=False
    )
    result = executor.run_plan(_plan())
    assert result.passed


def test_facade_forwards_verify_flag():
    # The facade's default path verifies and passes on a healthy SoC.
    result = CasBusTamDesign.for_soc(small_soc()).run(verify=True)
    assert result.passed


# -- model evaluation path -------------------------------------------------


def _install_lie(monkeypatch):
    # The lie enters at the strategy itself, so it reaches whatever the
    # model path reports: one more test cycle than the detail derives.
    original = StrategyAdapter.schedule

    def lying(self, *args, **kwargs):
        outcome = original(self, *args, **kwargs)
        return dataclasses.replace(
            outcome, test_cycles=outcome.test_cycles + 1
        )

    monkeypatch.setattr(StrategyAdapter, "schedule", lying)


def _honest_model():
    return Experiment(list(CORES), RunConfig(bus_width=4, simulate=False))


def test_model_path_rejects_lying_outcome(monkeypatch):
    _install_lie(monkeypatch)
    with pytest.raises(VerificationError) as excinfo:
        _honest_model().run()
    assert "OUT001" in str(excinfo.value)


def test_model_path_verify_off_accepts_lying_outcome(monkeypatch):
    honest = _honest_model().with_verify(False).run()
    _install_lie(monkeypatch)
    result = _honest_model().with_verify(False).run()
    # The reported number is the very outcome verification would check.
    assert result.test_cycles == honest.test_cycles + 1


def test_with_verify_is_identity_neutral():
    experiment = Experiment(list(CORES), RunConfig(bus_width=4, simulate=False))
    assert (config_hash(experiment.with_verify(True))
            == config_hash(experiment.with_verify(False)))
    assert experiment.with_verify(False).config.verify is False


# -- runner store append ---------------------------------------------------


@pytest.fixture
def corrupting_make_record(monkeypatch):
    import repro.campaign.store as store_module

    real = store_module.make_record

    def corrupted(*args, **kwargs):
        record = real(*args, **kwargs)
        record["hash"] = "bad"
        return record

    monkeypatch.setattr(store_module, "make_record", corrupted)


def test_runner_rejects_corrupted_record(corrupting_make_record, tmp_path):
    store = CampaignStore(tmp_path / "store.jsonl")
    experiment = Experiment(list(CORES), RunConfig(bus_width=4, simulate=False))
    with pytest.raises(VerificationError) as excinfo:
        run_many([experiment], store=store, parallel=False)
    assert "REC002" in str(excinfo.value)
    assert list(store.records()) == []


def test_runner_verify_off_appends_corrupted_record(
        corrupting_make_record, tmp_path):
    store = CampaignStore(tmp_path / "store.jsonl")
    experiment = Experiment(
        list(CORES), RunConfig(bus_width=4, simulate=False, verify=False)
    )
    run_many([experiment], store=store, parallel=False)
    (record,) = store.records()
    assert record["hash"] == "bad"


# -- the CLI verb ----------------------------------------------------------


def _good_store(tmp_path, name="good.jsonl"):
    experiment = Experiment(list(CORES), RunConfig(bus_width=4, simulate=False))
    result = experiment.run()
    store = CampaignStore(tmp_path / name)
    store.append(make_record(experiment, result,
                             config_hash=config_hash(experiment)))
    return store


def test_cli_verify_clean_store(tmp_path, capsys):
    store = _good_store(tmp_path)
    assert main(["verify", str(store.path)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_verify_corrupted_store(tmp_path, capsys):
    store = _good_store(tmp_path)
    record = store.latest().popitem()[1]
    record["result"]["passed"] = True  # model results never carry pass
    store.path.write_text(json.dumps(record) + "\n")
    assert main(["verify", str(store.path)]) == 1
    assert "REC005" in capsys.readouterr().out


def test_cli_verify_strict_promotes_warnings(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert main(["verify", str(empty)]) == 0
    assert main(["verify", "--strict", str(empty)]) == 1
    assert "REC008" in capsys.readouterr().out


def test_cli_verify_json_output(tmp_path, capsys):
    store = _good_store(tmp_path)
    assert main(["verify", "--json", str(store.path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["checked"] >= 1
    assert payload["diagnostics"] == []


def test_cli_run_no_verify_flag(tmp_path):
    # --no-verify threads through to RunConfig on the run verb.
    assert main([
        "run", "small", "--no-verify", "--model-only",
        "--store", str(tmp_path / "run.jsonl"),
    ]) == 0
