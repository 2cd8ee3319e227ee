"""Mutation tests for the static verifier's rule catalogue.

Every registered rule gets two guarantees here:

* valid artifacts produced by the real pipeline verify **clean**;
* a minimally corrupted artifact makes exactly that rule fire, at a
  location pointing into the corrupted part.

The completeness test at the bottom keeps the two in lock-step: a rule
registered without a mutation (or a mutation for an unregistered rule)
fails the suite.
"""

from __future__ import annotations

import copy
import dataclasses
import types

import numpy as np
import pytest

from repro.api import Experiment
from repro.api.registry import get_scheduler, list_schedulers
from repro.api.results import RunConfig
from repro.campaign.hashing import config_hash
from repro.campaign.store import CampaignStore, make_record
from repro.core.tam import CasBusTamDesign
from repro.diagnose.inject import DefectScenario
from repro.schedule.model import (
    Schedule,
    ScheduledEntry,
    ScheduledSession,
    TamProblem,
)
from repro.schedule.preemptive import Segment, schedule_preemptive
from repro.schedule.reconfig import static_partition
from repro.schedule.scheduler import schedule_greedy
from repro.sim.batch import batch_scan_program
from repro.sim.kernel import _scan_program
from repro.sim.config import configuration_targets
from repro.sim.system import build_system
from repro.soc.core import CoreTestParams, TestMethod
from repro.soc.library import fig1_soc, small_soc
from repro.verify import (
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    VerifyReport,
    verify_batch_program,
    verify_configuration_targets,
    verify_outcome,
    verify_preemptive,
    verify_record,
    verify_scan_program,
    verify_scenario,
    verify_schedule,
    verify_session_programs,
    verify_static_plan,
    verify_store,
    verify_system,
)


def _scan(name, flops, patterns, max_wires):
    return CoreTestParams(name=name, method=TestMethod.SCAN, flops=flops,
                          patterns=patterns, max_wires=max_wires)


def _bist(name, cycles):
    return CoreTestParams(name=name, method=TestMethod.BIST, flops=0,
                          patterns=0, max_wires=1, fixed_cycles=cycles)


def _external(name, patterns):
    return CoreTestParams(name=name, method=TestMethod.EXTERNAL, flops=20,
                          patterns=patterns, max_wires=1)


WIDTH = 4
CORES = (
    _scan("c1", 35, 24, 2),
    _scan("c2", 20, 12, 2),
    _bist("c3", 96),
    _external("c4", 10),
)
PROBLEM = TamProblem.of(CORES, WIDTH)


def _greedy():
    return schedule_greedy(CORES, WIDTH)


def _preemptive():
    return schedule_preemptive(CORES, WIDTH)


def _scan_node(system):
    for node in system.nodes:
        if node.wrapper is not None:
            return node
    raise AssertionError("no scan node in system")


def _program(system):
    node = _scan_node(system)
    return _scan_program(node.spec, node.wrapper), node.spec


def _model_record():
    experiment = Experiment(
        list(CORES), RunConfig(bus_width=WIDTH, simulate=False)
    )
    result = experiment.run()
    return make_record(experiment, result,
                       config_hash=config_hash(experiment))


def _sim_record():
    experiment = Experiment(small_soc())
    result = experiment.run()
    return make_record(experiment, result,
                       config_hash=config_hash(experiment))


# -- valid artifacts verify clean ------------------------------------------


def test_greedy_schedule_is_clean():
    report = verify_schedule(_greedy(), PROBLEM)
    assert report.diagnostics == []
    assert report.checked == 1


def test_preemptive_schedule_is_clean():
    assert verify_preemptive(_preemptive(), PROBLEM).diagnostics == []


def test_static_plan_is_clean():
    plan = static_partition(CORES, WIDTH)
    assert verify_static_plan(plan, PROBLEM).diagnostics == []


@pytest.mark.parametrize("strategy", list_schedulers())
def test_every_strategy_outcome_is_clean(strategy):
    options = {}
    if strategy == "optimize-anneal":
        options = {"seed": 0, "iterations": 40}
    outcome = get_scheduler(strategy).schedule(CORES, WIDTH, **options)
    report = verify_outcome(outcome, PROBLEM)
    assert report.diagnostics == [], report.table()


def test_built_systems_are_clean():
    for soc in (small_soc(), fig1_soc()):
        report = verify_system(build_system(soc))
        assert report.diagnostics == [], report.table()


def test_session_programs_are_clean():
    soc = small_soc()
    system = build_system(soc)
    plan = CasBusTamDesign.for_soc(soc).executable_plan()
    report = VerifyReport()
    for session in plan.sessions:
        verify_session_programs(system, session, report=report)
    assert report.diagnostics == [], report.table()


def test_valid_scenarios_are_clean():
    soc = small_soc()
    scenarios = (
        DefectScenario.stuck_at("alpha", 0, 1),
        DefectScenario.open_wire(0),
        DefectScenario.bridge(0, 1),
        DefectScenario.dead_cell("alpha", 1),
    )
    for scenario in scenarios:
        assert verify_scenario(scenario, soc).diagnostics == []


def test_real_records_are_clean():
    for record in (_model_record(), _sim_record()):
        assert verify_record(record).diagnostics == []


def test_real_store_is_clean(tmp_path):
    store = CampaignStore(tmp_path / "store.jsonl")
    store.append(_model_record())
    report = verify_store(store)
    assert report.diagnostics == [], report.table()


# -- one mutation per rule -------------------------------------------------


class _LyingEntry:
    """Duck-typed schedule entry whose cycle claim is a plain lie.

    The real :class:`ScheduledEntry` derives ``cycles`` so it cannot
    disagree with itself; a deserialized or hand-built schedule can.
    """

    def __init__(self, params, wires, cycles):
        self.params = params
        self.wires = wires
        self.cycles = cycles


def _mut_sch001():
    schedule = _greedy()
    schedule.bus_width += 1
    return verify_schedule(schedule, PROBLEM), "schedule"


def _mut_sch002():
    entry = ScheduledEntry(CORES[2], 1)
    schedule = Schedule(WIDTH, [ScheduledSession((entry, entry))])
    return verify_schedule(schedule, PROBLEM), "entry[1]"


def _mut_sch003_unknown():
    ghost = ScheduledEntry(_scan("ghost", 10, 4, 1), 1)
    schedule = Schedule(WIDTH, [ScheduledSession((ghost,))])
    return verify_schedule(schedule, PROBLEM), "entry[0]"


def _mut_sch003_divergent():
    changed = dataclasses.replace(CORES[0], patterns=CORES[0].patterns + 1)
    schedule = Schedule(WIDTH, [ScheduledSession((
        ScheduledEntry(changed, 2),
    ))])
    return verify_schedule(schedule, PROBLEM), "entry[0]"


def _mut_sch004():
    schedule = Schedule(WIDTH, [ScheduledSession((
        ScheduledEntry(CORES[2], 1),
    ))])
    return verify_schedule(schedule, PROBLEM), "schedule"


def _mut_sch005():
    schedule = Schedule(WIDTH, [ScheduledSession((
        ScheduledEntry(CORES[2], 0),
    ))])
    return verify_schedule(schedule, PROBLEM), "entry[0]"


def _mut_sch006():
    liar = _LyingEntry(CORES[0], 2, cycles=123)
    schedule = Schedule(WIDTH, [ScheduledSession((liar,))])
    return verify_schedule(schedule, PROBLEM), "entry[0]"


def _mut_sch007():
    schedule = _greedy()
    schedule.config_cycles_total += 1
    return verify_schedule(schedule, PROBLEM), "schedule"


def _mut_pre001():
    schedule = _preemptive()
    schedule.segments.append(
        Segment(duration=10, allocations=(("c1", WIDTH + 1),))
    )
    return verify_preemptive(schedule, PROBLEM), "segment"


def _mut_pre002():
    schedule = _preemptive()
    schedule.segments.append(
        Segment(duration=10, allocations=(("c1", 1), ("c1", 1)))
    )
    return verify_preemptive(schedule, PROBLEM), "segment"


def _mut_pre003():
    schedule = _preemptive()
    schedule.config_cycles_total += 1
    return verify_preemptive(schedule, PROBLEM), "preemptive"


def _mut_sta001():
    plan = static_partition(CORES, WIDTH)
    broken = dataclasses.replace(
        plan, wires_per_group=plan.wires_per_group + (1,)
    )
    return verify_static_plan(broken, PROBLEM), "static-plan"


def _mut_sta002():
    plan = static_partition(CORES, WIDTH)
    broken = dataclasses.replace(
        plan, groups=(plan.groups[0][1:],) + plan.groups[1:]
    )
    return verify_static_plan(broken, PROBLEM), "static-plan"


def _mut_out001():
    outcome = get_scheduler("greedy").schedule(CORES, WIDTH)
    lying = dataclasses.replace(
        outcome, test_cycles=outcome.test_cycles + 1
    )
    return verify_outcome(lying, PROBLEM), "outcome[greedy]"


def _mut_prg001_overflow():
    system = build_system(small_soc())
    program, spec = _program(system)
    beyond = 1 << program.lengths[0]
    want_care = [list(response) for response in program.want_care]
    want_care[0][0] = (beyond, beyond)
    broken = dataclasses.replace(
        program,
        want_care=tuple(tuple(response) for response in want_care),
    )
    return (
        verify_scan_program(broken, spec),
        "response[0]/chain[0]",
    )


def _mut_prg001_outside_care():
    system = build_system(small_soc())
    program, spec = _program(system)
    want_care = [list(response) for response in program.want_care]
    want_care[0][0] = (1, 0)  # expects a bit it does not care about
    broken = dataclasses.replace(
        program,
        want_care=tuple(tuple(response) for response in want_care),
    )
    return (
        verify_scan_program(broken, spec),
        "response[0]/chain[0]",
    )


def _mut_prg002():
    system = build_system(small_soc())
    program, spec = _program(system)
    geometries = list(program.geometries)
    geometries[0] = dataclasses.replace(
        geometries[0], ff_ids=geometries[0].ff_ids[1:]
    )
    broken = dataclasses.replace(program, geometries=tuple(geometries))
    return verify_scan_program(broken, spec), f"program[{spec.name}]"


def _mut_prg003():
    system = build_system(small_soc())
    program, spec = _program(system)
    broken = dataclasses.replace(
        program, total_cycles=program.total_cycles + 1
    )
    return verify_scan_program(broken, spec), f"program[{spec.name}]"


def _batch_program():
    system = build_system(small_soc())
    node = _scan_node(system)
    return batch_scan_program(node.spec, node.wrapper), node.spec


def test_batch_programs_are_clean():
    program, spec = _batch_program()
    report = verify_batch_program(program, spec)
    assert report.diagnostics == [], report.table()


def _mut_prg006():
    program, spec = _batch_program()
    golden = program.golden.copy()
    golden[0, 0] ^= np.uint64(1)  # flip pattern 0 of output 0
    broken = dataclasses.replace(program, golden=golden)
    return (
        verify_batch_program(broken, spec),
        "response[0]/output[0]",
    )


def _mut_prg007():
    program, spec = _batch_program()
    broken = dataclasses.replace(program, words=program.words + 1)
    return verify_batch_program(broken, spec), f"batch[{spec.name}]"


def _mut_prg007_mask():
    program, spec = _batch_program()
    masks = program.masks.copy()
    masks[0] = np.uint64(1)
    broken = dataclasses.replace(program, masks=masks)
    return verify_batch_program(broken, spec), "word[0]"


def _session_targets():
    soc = small_soc()
    system = build_system(soc)
    plan = CasBusTamDesign.for_soc(soc).executable_plan()
    cas_targets, _ = configuration_targets(system, plan.sessions[0])
    return system, dict(cas_targets)


def _mut_prg004():
    system, cas_targets = _session_targets()
    cas_targets["ghost.cas"] = 0
    return (
        verify_configuration_targets(system, cas_targets),
        "ghost.cas",
    )


def _mut_prg005():
    system, cas_targets = _session_targets()
    register = sorted(cas_targets)[0]
    cas_targets[register] = 1 << 30
    return verify_configuration_targets(system, cas_targets), register


def _mut_des001():
    system = build_system(small_soc())
    node = system.nodes[0]
    node.cas = types.SimpleNamespace(n=system.n, p=node.spec.p + 1)
    return verify_system(system), node.path


def _mut_des002():
    system = build_system(small_soc())
    node = _scan_node(system)
    node.wrapper.chain_layout = lambda: [((0,), (0,))]
    return verify_system(system), node.path


def _mut_des003():
    system = build_system(small_soc())
    node = system.nodes[0]
    node.cas = types.SimpleNamespace(n=system.n + 1, p=node.spec.p)
    return verify_system(system), node.path


def _mut_scn001_missing():
    scenario = DefectScenario.stuck_at("ghost", 0, 1)
    return verify_scenario(scenario, small_soc()), "scenario"


def _mut_scn001_hierarchical():
    scenario = DefectScenario.stuck_at("core5", 0, 1)
    return verify_scenario(scenario, fig1_soc()), "scenario"


def _mut_scn002():
    scenario = DefectScenario.open_wire(99)
    return verify_scenario(scenario, small_soc()), "scenario"


def _mut_scn003():
    scenario = DefectScenario.dead_cell("alpha", 99)
    return verify_scenario(scenario, small_soc()), "scenario"


def _mut_scn004():
    scenario = DefectScenario.open_wire(0)
    return (
        verify_scenario(scenario, small_soc(), backend="kernel"),
        "scenario",
    )


def _mut_rec001():
    return verify_record(["not", "a", "mapping"]), "record"


def _mut_rec001_schema():
    record = _model_record()
    record["schema"] = 999
    return verify_record(record), "record"


def _mut_rec002():
    record = _model_record()
    record["hash"] = "nope"
    return verify_record(record), "record"


def _mut_rec003():
    record = _model_record()
    del record["result"]["architecture"]
    return verify_record(record), "record"


def _mut_rec004():
    record = _sim_record()
    record["result"]["test_cycles"] += 1
    return verify_record(record), "record"


def _mut_rec005():
    record = _model_record()
    record["result"]["passed"] = True
    return verify_record(record), "record"


def _mut_rec006():
    record = _model_record()
    record["result"]["architecture"] = "warp-drive"
    return verify_record(record), "record"


def _mut_rec007(tmp_path):
    store = CampaignStore(tmp_path / "torn.jsonl")
    store.append(_model_record())
    with open(store.path, "a") as handle:
        handle.write("{torn-off mid-append\n")
    return verify_store(store), "torn.jsonl"


def _mut_rec008(tmp_path):
    store = CampaignStore(tmp_path / "empty.jsonl")
    return verify_store(store), "empty.jsonl"


def _mut_rec009(tmp_path):
    import sqlite3

    from repro.campaign import SqliteStore

    store = SqliteStore(tmp_path / "drift.sqlite")
    store.append(_model_record())
    # Drift the maintained aggregates away from the records the way
    # only out-of-band writes can (append/merge keep them in step).
    with sqlite3.connect(store.path) as connection:
        connection.execute("UPDATE aggregates SET runs = runs + 5")
    return verify_store(store), "drift.sqlite"


MUTATIONS = [
    ("SCH001", _mut_sch001),
    ("SCH002", _mut_sch002),
    ("SCH003", _mut_sch003_unknown),
    ("SCH003", _mut_sch003_divergent),
    ("SCH004", _mut_sch004),
    ("SCH005", _mut_sch005),
    ("SCH006", _mut_sch006),
    ("SCH007", _mut_sch007),
    ("PRE001", _mut_pre001),
    ("PRE002", _mut_pre002),
    ("PRE003", _mut_pre003),
    ("STA001", _mut_sta001),
    ("STA002", _mut_sta002),
    ("OUT001", _mut_out001),
    ("PRG001", _mut_prg001_overflow),
    ("PRG001", _mut_prg001_outside_care),
    ("PRG002", _mut_prg002),
    ("PRG003", _mut_prg003),
    ("PRG004", _mut_prg004),
    ("PRG005", _mut_prg005),
    ("PRG006", _mut_prg006),
    ("PRG007", _mut_prg007),
    ("PRG007", _mut_prg007_mask),
    ("DES001", _mut_des001),
    ("DES002", _mut_des002),
    ("DES003", _mut_des003),
    ("SCN001", _mut_scn001_missing),
    ("SCN001", _mut_scn001_hierarchical),
    ("SCN002", _mut_scn002),
    ("SCN003", _mut_scn003),
    ("SCN004", _mut_scn004),
    ("REC001", _mut_rec001),
    ("REC001", _mut_rec001_schema),
    ("REC002", _mut_rec002),
    ("REC003", _mut_rec003),
    ("REC004", _mut_rec004),
    ("REC005", _mut_rec005),
    ("REC006", _mut_rec006),
    ("REC007", _mut_rec007),
    ("REC008", _mut_rec008),
    ("REC009", _mut_rec009),
]


@pytest.mark.parametrize(
    "rule_id,mutate", MUTATIONS,
    ids=[f"{rule_id}-{fn.__name__}" for rule_id, fn in MUTATIONS],
)
def test_mutation_fires_exact_rule(rule_id, mutate, tmp_path):
    if "tmp_path" in mutate.__code__.co_varnames[
            :mutate.__code__.co_argcount]:
        report, location_part = mutate(tmp_path)
    else:
        report, location_part = mutate()
    fired = [d for d in report.diagnostics if d.rule_id == rule_id]
    assert fired, (
        f"{rule_id} did not fire; got {sorted(report.rule_ids())}"
    )
    assert any(location_part in d.location for d in fired), (
        f"no {rule_id} diagnostic at a location containing "
        f"{location_part!r}: {[d.location for d in fired]}"
    )
    for diagnostic in fired:
        assert diagnostic.severity == RULES[rule_id].severity


def test_every_registered_rule_has_a_mutation():
    covered = {rule_id for rule_id, _ in MUTATIONS}
    assert covered == set(RULES), (
        f"rules without mutation: {sorted(set(RULES) - covered)}; "
        f"mutations for unregistered rules: "
        f"{sorted(covered - set(RULES))}"
    )


def test_rule_catalogue_is_well_formed():
    for rule_id, registered in RULES.items():
        assert registered.rule_id == rule_id
        assert registered.severity in (SEVERITY_ERROR, SEVERITY_WARNING)
        assert registered.summary


def test_report_round_trips_and_renders():
    report, _ = _mut_sch007()
    (diagnostic,) = report.diagnostics
    from repro.verify import Diagnostic

    assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic
    assert "SCH007" in diagnostic.render()
    assert "SCH007" in report.table()
    assert not report.ok
    with pytest.raises(Exception) as excinfo:
        report.raise_if_failed("ctx")
    assert "ctx" in str(excinfo.value)


def test_deep_copied_record_stays_clean():
    # Guard against mutation helpers aliasing one shared record.
    record = _model_record()
    assert verify_record(copy.deepcopy(record)).diagnostics == []
