"""The three benchmark workloads: inputs, set-up, timed passes, checks.

Each workload is a class with four steps:

* ``draw(seed)`` -- the orchestrator draws the inputs (plain JSON) from
  the seed before any worker starts, so drawing is never timed and
  every worker starts with cold ``repro`` caches;
* ``prepare(inputs, scratch)`` -- inside the worker: workload/SoC construction,
  timed as part of ``setup_s``;
* ``run_pass(state, tracer, reference)`` -- one timed pass over the
  inputs, timing each operation with ``reference.net`` so the host-speed
  slices (:mod:`calibration`) are left out.  A worker runs it twice in
  one process: a cold pass, then a warm pass;
* ``check(state, passes)`` -- untimed: one check entry per operation
  (see :mod:`checks`), plus the cycle total.

Every call runs in-process (``parallel=False``, portfolio ``jobs=1``).
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _span(tracer, layer):
    return tracer.span(layer) if tracer is not None else nullcontext()


def _cycles(result: dict) -> int:
    return result["test_cycles"] + result["config_cycles"]


class SimRun:
    """Cycle-accurate ``Experiment(w).run()`` over two simulatable SoCs."""

    name = "sim-run"
    SOCS = ("fig1", "itc02-h953-soc")
    #: Nominal seconds of one worker (cold + warm pass) on a 2-core host.
    worker_s = 5

    @classmethod
    def draw(cls, seed: int) -> dict:
        # The SoCs are fixed; the seed only orders them.
        order = list(cls.SOCS)
        random.Random(seed).shuffle(order)
        return {"socs": order}

    @staticmethod
    def prepare(inputs: dict, scratch: Path):
        from repro.api import Experiment, get_workload

        return [(name, Experiment(get_workload(name)))
                for name in inputs["socs"]]

    @staticmethod
    def run_pass(state, tracer, reference) -> dict:
        runs = []
        for name, experiment in state:
            start = time.perf_counter()
            try:
                result, error = experiment.run().to_dict(), None
            except Exception as exc:  # one failed run must not end the pass
                result, error = None, _error(exc)
            seconds = reference.net(start, time.perf_counter())
            runs.append({"soc": name, "s": seconds,
                         "result": result, "error": error})
        return {"runs": runs, "timing": {
            "items": len(runs), "item_ops": len(runs),
            "op_s": [run["s"] for run in runs],
        }}

    @staticmethod
    def check(state, passes) -> tuple[list, int]:
        hashes = {name: experiment.config_hash() for name, experiment in state}
        cold, warm = passes
        ops = []
        for label, runs in (("cold", cold["runs"]), ("warm", warm["runs"])):
            for run, twin in zip(runs, cold["runs"]):
                if run["error"]:
                    problems = [run["error"]]
                else:
                    problems = checks.sim_run_problems(
                        twin["result"] or {}, run["result"]
                    )
                ops.append(checks.op(
                    f"{label}:{run['soc']}",
                    {"hash": hashes[run["soc"]], "result": run["result"]},
                    problems,
                ))
        tat = sum(_cycles(run["result"]) for run in cold["runs"]
                  if run["result"])
        return ops, tat


class DefectSweep:
    """Batch stuck-at screening on fig1, then diagnosis on four SoCs."""

    name = "defect-sweep"
    SCREEN_SOC = "fig1"
    BATCHES = 6
    BATCH_SIZE = 128
    DIAGNOSE_SOCS = ("itc02-d695-soc", "itc02-g1023-soc",
                     "itc02-p22810-soc", "itc02-p93791-soc")
    RANDOM_PER_SOC = 8
    worker_s = 7

    @classmethod
    def draw(cls, seed: int) -> dict:
        from repro.api import get_workload
        from repro.diagnose import DefectScenario, random_scenario

        rng = random.Random(f"defect-sweep:{seed}")
        screen_soc = get_workload(cls.SCREEN_SOC).soc
        batches = []
        for _ in range(cls.BATCHES):
            # One clean instance per batch, the rest seeded stuck-ats.
            batch = [None]
            for _ in range(cls.BATCH_SIZE - 1):
                scenario = random_scenario(screen_soc, rng.randrange(2**31))
                batch.append({scenario.core: list(scenario.fault)})
            batches.append(batch)
        diagnoses = []
        for name in cls.DIAGNOSE_SOCS:
            soc = get_workload(name).soc
            for _ in range(cls.RANDOM_PER_SOC):
                scenario = random_scenario(soc, rng.randrange(2**31))
                diagnoses.append({"soc": name, "scenario": scenario.to_dict()})
            wire = DefectScenario.open_wire(
                rng.randrange(soc.bus_width), rng.randint(0, 1)
            )
            diagnoses.append({"soc": name, "scenario": wire.to_dict()})
        return {"screen_soc": cls.SCREEN_SOC, "batches": batches,
                "diagnoses": diagnoses}

    @staticmethod
    def prepare(inputs: dict, scratch: Path):
        from repro.api import Experiment, get_workload
        from repro.diagnose import DefectScenario

        base = Experiment(get_workload(inputs["screen_soc"]))
        batches = [
            [(faults, base if faults is None else base.with_faults(
                {core: tuple(fault) for core, fault in faults.items()}))
             for faults in batch]
            for batch in inputs["batches"]
        ]
        socs = {}
        diagnoses = []
        for item in inputs["diagnoses"]:
            if item["soc"] not in socs:
                socs[item["soc"]] = get_workload(item["soc"]).soc
            diagnoses.append((item["soc"], socs[item["soc"]],
                              DefectScenario.from_dict(item["scenario"])))
        return {"batches": batches, "diagnoses": diagnoses}

    @staticmethod
    def run_pass(state, tracer, reference) -> dict:
        from repro.api import run_many
        from repro.diagnose import diagnose_soc

        screens = []
        batch_s = []
        for batch in state["batches"]:
            start = time.perf_counter()
            try:
                results = run_many([exp for _, exp in batch], parallel=False)
                results, error = [r.to_dict() for r in results], None
            except Exception as exc:  # a failed batch fails its scenarios
                results, error = [None] * len(batch), _error(exc)
            batch_s.append(reference.net(start, time.perf_counter()))
            for (faults, _), result in zip(batch, results):
                screens.append({"faults": faults, "result": result,
                                "error": error})
        diagnoses = []
        for name, soc, scenario in state["diagnoses"]:
            start = time.perf_counter()
            try:
                outcome = diagnose_soc(soc, scenario)
                result = {"diagnosis": outcome.to_dict(),
                          "rank": outcome.scenario_rank()}
                error = None
            except Exception as exc:  # one failed diagnosis must not end the pass
                result, error = None, _error(exc)
            seconds = reference.net(start, time.perf_counter())
            diagnoses.append({"soc": name, "ms": seconds * 1e3,
                              "scenario": scenario.to_dict(),
                              "result": result, "error": error})
        return {"screens": screens, "diagnoses": diagnoses, "timing": {
            "items": len(screens), "item_ops": len(batch_s),
            "op_s": batch_s + [d["ms"] / 1e3 for d in diagnoses],
        }}

    @staticmethod
    def check(state, passes) -> tuple[list, int]:
        ops = []
        for label, data in zip(("cold", "warm"), passes):
            for screen in data["screens"]:
                faults = screen["faults"]
                problems = ([screen["error"]] if screen["error"] else
                            checks.screen_problems(faults is not None,
                                                   screen["result"]))
                ops.append(checks.op(
                    f"screen:{checks.canonical(faults)}", screen["result"],
                    problems,
                ))
            for item in data["diagnoses"]:
                result = item["result"]
                problems = ([item["error"]] if item["error"] else
                            checks.diagnosis_problems(
                                item["scenario"]["kind"],
                                result["diagnosis"]["screen_passed"],
                                result["rank"]))
                ops.append(checks.op(
                    f"diagnose:{item['soc']}:"
                    f"{checks.canonical(item['scenario'])}",
                    result, problems,
                ))
        cold = passes[0]
        tat = sum(_cycles(s["result"]) for s in cold["screens"]
                  if s["result"])
        tat += sum(d["result"]["diagnosis"]["screening_cycles"]
                   + d["result"]["diagnosis"]["diagnosis_cycles"]
                   for d in cold["diagnoses"] if d["result"])
        return ops, tat


class DesignSweep:
    """Model-only campaign sweep, read-only resume and report."""

    name = "design-sweep"
    TABLES = ("itc02-d695", "itc02-g1023", "itc02-p22810")
    WIDTHS = (8, 16)
    SCHEDULERS = ("greedy", "preemptive", "reconfig", "optimize-anneal")
    #: Branch-and-bound only where the table is small enough.
    BNB_MAX_CORES = 14
    #: The portfolio runs once: on this table at this width.
    PORTFOLIO_AT = ("itc02-d695", 8)
    worker_s = 18

    @classmethod
    def draw(cls, seed: int) -> dict:
        from repro.api import get_workload, list_architectures

        grid = []
        for table in cls.TABLES:
            cores = len(get_workload(table).cores)
            for architecture in list_architectures():
                for width in cls.WIDTHS:
                    if architecture != "casbus":
                        # Fixed-model baselines ignore the scheduler.
                        schedulers = ["greedy"]
                    else:
                        schedulers = list(cls.SCHEDULERS)
                        if cores <= cls.BNB_MAX_CORES:
                            schedulers.append("optimize-bnb")
                        if (table, width) == cls.PORTFOLIO_AT:
                            schedulers.append("optimize-portfolio")
                    grid.extend(
                        {"workload": table, "architecture": architecture,
                         "scheduler": scheduler, "bus_width": width}
                        for scheduler in schedulers
                    )
        # The grid is fixed; the seed only orders it.
        random.Random(seed).shuffle(grid)
        return {"grid": grid, "campaign": f"design-sweep-{seed}"}

    @staticmethod
    def prepare(inputs: dict, scratch: Path):
        from repro.api import Experiment, get_workload

        tables = {}
        experiments = []
        for cell in inputs["grid"]:
            if cell["workload"] not in tables:
                tables[cell["workload"]] = get_workload(cell["workload"])
            experiments.append(
                Experiment(tables[cell["workload"]])
                .with_architecture(cell["architecture"])
                .with_scheduler(cell["scheduler"])
                .with_bus_width(cell["bus_width"])
            )
        return {"experiments": experiments, "campaign": inputs["campaign"],
                "store_dir": scratch, "passes": 0}

    @staticmethod
    def run_pass(state, tracer, reference) -> dict:
        from repro.analysis.tables import format_table
        from repro.api import results_table
        from repro.campaign import Campaign, CampaignStore

        state["passes"] += 1
        name = f"{state['campaign']}-{state['passes']}"
        path = state["store_dir"] / f"{name}.jsonl"
        path.unlink(missing_ok=True)
        latencies = []

        def stamp(experiment, result, *, cached, elapsed):
            # Per-experiment latency: from the previous result to this
            # one, so hashing and the store append are included.
            nonlocal last
            now = time.perf_counter()
            latencies.append(reference.net(last, now))
            last = now

        last = time.perf_counter()
        written = Campaign(
            name, state["experiments"], store=CampaignStore(path)
        ).run(parallel=False, on_result=stamp)
        size = path.stat().st_size

        start = time.perf_counter()
        store = CampaignStore(path)
        resumed = Campaign(name, state["experiments"], store=store).run(
            parallel=False
        )
        with _span(tracer, "campaign.read"):
            headers, rows = results_table(list(store.results().values()))
            report = format_table(headers, rows)
        resume_s = reference.net(start, time.perf_counter())
        return {
            "path": str(path), "size": size,
            "written": [r.to_dict() for r in written.results],
            "resumed": [r.to_dict() for r in resumed.results],
            "resume_executed": resumed.executed,
            "report_rows": len(rows), "report_chars": len(report),
            "timing": {
                "items": written.executed, "item_ops": len(latencies),
                "op_s": latencies + [resume_s],
                "casbus_executed": sum(
                    1 for r in written.results if r.architecture == "casbus"
                ),
            },
        }

    @staticmethod
    def check(state, passes) -> tuple[list, int]:
        from repro.campaign import CampaignStore
        from repro.verify import verify_store

        experiments = state["experiments"]
        hashes = [experiment.config_hash() for experiment in experiments]
        ops = []
        for label, data in zip(("cold", "warm"), passes):
            path = Path(data["path"])
            stored = {h: record["result"]
                      for h, record in CampaignStore(path).latest().items()}
            for item_hash, written, resumed in zip(
                    hashes, data["written"], data["resumed"]):
                ops.append(checks.op(
                    item_hash, written,
                    checks.sweep_problems(written, resumed,
                                          stored.get(item_hash)),
                ))
            problems = [f"{d.rule_id}: {d.message}"
                        for d in verify_store(path).errors]
            if data["resume_executed"]:
                problems.append(
                    f"resume executed {data['resume_executed']} runs"
                )
            if path.stat().st_size != data["size"]:
                problems.append("resume wrote to the store")
            if data["report_rows"] != len(experiments):
                problems.append("report is missing rows")
            ops.append(checks.op(f"store:{label}", len(stored), problems))
            path.unlink()
        tat = sum(_cycles(result) for result in passes[0]["written"])
        return ops, tat


WORKLOADS = {spec.name: spec for spec in (SimRun, DefectSweep, DesignSweep)}
