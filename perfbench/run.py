"""CAS-BUS reproduction benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-run --seed 0 --seconds 20 --trace 0

Workloads (see :mod:`workloads`): ``sim-run``, ``defect-sweep`` and
``design-sweep``.  The orchestrator draws the inputs from ``--seed``,
then starts fresh-interpreter workers one after another (never two at
once): set-up probes first, then k workers that each make the same cold
and warm pass, with k = max(2, ceil(--seconds / the workload's nominal
worker seconds)).  ``--trace 1`` instead runs one untraced and one
traced worker on the same inputs and reports per-layer metrics plus
the tracing overhead.

The last stdout line is the result object; the line before it holds the
detail (sample counts, percentile choices, ratio bases, the machine
calibration and the workload-specific metrics).  Both also land in
``perfbench/out/``, with the trace artifact of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import stats
from calibration import NOMINAL_SLICE_S, reference_slice
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
#: Fresh-interpreter set-up probes per untraced run (after one warm-up).
SETUP_PROBES = 9
#: Fresh-process repetitions of a workload's passes per untraced run.
MIN_REPETITIONS = 2
#: Reference slices timed by the orchestrator; the median is reported.
CALIBRATION_SLICES = 21


def calibrate() -> float:
    """Median reference-slice seconds in the orchestrator (machine speed)."""
    return sorted(reference_slice() for _ in range(CALIBRATION_SLICES))[
        CALIBRATION_SLICES // 2]


class Runner:
    """Spawns workers one at a time and enforces the run deadline."""

    def __init__(self, workload, seed, inputs, scratch, started,
                 calibrate) -> None:
        self.workload = workload
        self.calibrate = calibrate
        self.seed = seed
        self.inputs = inputs
        self.scratch = scratch
        self.deadline = started + DEADLINE_S
        self.count = 0

    def worker(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        job_path = self.scratch / f"job-{self.count}.json"
        result_path = self.scratch / f"result-{self.count}.json"
        job_path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed, "mode": mode,
            "trace": trace, "calibrate": self.calibrate,
            "inputs": self.inputs,
            "scratch": str(self.scratch),
            "trace_path": str(OUT / f"trace-{self.workload}.jsonl"),
        }))
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RuntimeError("run deadline reached before a worker")
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(result_path)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=remaining, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"worker exited with {completed.returncode}:\n"
                f"{completed.stderr[-4000:]}"
            )
        return json.loads(result_path.read_text())


def judge(workload: str, workers: list[dict]) -> tuple[int, int, list]:
    """``(attempted, failed, problems)`` over every worker's operations."""
    digests: dict[str, set] = {}
    for worker in workers:
        for entry in worker["ops"]:
            digests.setdefault(entry["key"], set()).add(entry["digest"])
    recorded = checks.load_digests()
    attempted = failed = 0
    problems = []
    for worker in workers:
        for entry in checks.judge(workload, worker["ops"], recorded):
            attempted += 1
            issues = entry["problems"]
            if len(digests[entry["key"]]) > 1:
                issues = issues + ["output differs between passes or workers"]
            if issues:
                failed += 1
                problems.append({"key": entry["key"], "problems": issues})
    tats = {worker["tat_cycles"] for worker in workers}
    if len(tats) > 1:
        attempted += 1
        failed += 1
        problems.append({"key": "tat_cycles", "problems": [
            f"cycle totals differ between workers: {sorted(tats)}"]})
    return attempted, failed, problems


def _best(workers: list[dict], index: int) -> list[float]:
    """Per operation of pass ``index``, the fastest calibrated timing.

    A worker's timings are scaled to the nominal host speed by the
    median reference slice of the same pass (:mod:`calibration`).
    """
    columns = zip(*(
        [seconds * NOMINAL_SLICE_S / w["passes"][index]["reference_s"]
         for seconds in w["passes"][index]["op_s"]]
        for w in workers
    ))
    return [min(column) for column in columns]


def _calibrated_setup(result: dict) -> float:
    """A worker's set-up seconds scaled to the nominal host speed."""
    return (result["setup_s"] * NOMINAL_SLICE_S
            / result["setup_reference_s"])


def end_to_end(spec, workers, setups) -> tuple[dict, dict]:
    """``(metrics, detail)`` of an untraced run.

    Every worker is a fresh process making the same cold and warm pass,
    so each operation is timed once per worker.  Each timing is first
    calibrated to the nominal host speed (:mod:`calibration`), then pass
    times sum, per operation, the fastest of the k repetitions
    (best-of-k, as ``timeit`` advises), which drops the few-second
    slow bursts calibration cannot follow.  The first ``item_ops``
    operations of a pass are the ones ``items_per_s`` counts.
    """
    reps = len(workers)
    timing = workers[0]["passes"][0]
    split = timing["item_ops"]
    cold, warm = _best(workers, 0), _best(workers, 1)
    items = 2 * timing["items"]
    items_s = sum(cold[:split]) + sum(warm[:split])
    metrics = {
        "setup_s": stats.median(setups),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "items_per_s": items / items_s,
        "peak_rss_mb": stats.median([w["rss_mb"] for w in workers]),
        "tat_cycles": workers[0]["tat_cycles"],
    }
    best_of_k = {"estimator": "sum of calibrated best-of-k",
                 "operations": len(cold), "repetitions": reps}
    detail = {
        "samples": {
            "setup_s": {"estimator": "median of calibrated",
                        "samples": len(setups)},
            "cold_s": best_of_k,
            "warm_s": best_of_k,
            "items_per_s": {"items": items, "seconds": items_s,
                            "repetitions": reps},
            "peak_rss_mb": {"estimator": "median", "samples": reps},
            "tat_cycles": "cold pass; equal in every worker",
        },
        "raw_median_pass_s": [
            stats.median([sum(w["passes"][index]["op_s"]) for w in workers])
            for index in (0, 1)
        ],
        "reference": {
            "nominal_slice_s": NOMINAL_SLICE_S,
            "median_slice_s": [
                stats.median([w["passes"][index]["reference_s"]
                              for w in workers])
                for index in (0, 1)
            ],
            "slices": sum(w["passes"][index]["reference_samples"]
                          for w in workers for index in (0, 1)),
        },
        "named": {},
    }
    named = detail["named"]
    if spec.name == "sim-run":
        named["run_cold_s"] = metrics["cold_s"]
        named["run_warm_s"] = metrics["warm_s"]
    if spec.name == "defect-sweep":
        named["scenarios_per_s"] = metrics["items_per_s"]
        named.update(_latency("diagnose", [
            seconds * 1e3 for seconds in cold[split:] + warm[split:]
        ]))
    if spec.name == "design-sweep":
        named["experiments_per_s"] = metrics["items_per_s"]
        named["exp_tail_ms"] = _latency("exp", [
            seconds * 1e3 for seconds in cold[:split] + warm[:split]
        ])["exp_tail_ms"]
        named["resume_s"] = {
            "value": stats.median([cold[-1], warm[-1]]),
            "estimator": "median over passes of calibrated best-of-k",
            "repetitions": reps,
        }
    return metrics, detail


def _latency(prefix: str, samples: list) -> dict:
    """Median and rule-chosen tail of per-operation latencies (ms)."""
    pct = stats.tail_percentile(len(samples))
    return {
        f"{prefix}_p50_ms": {"value": stats.median(samples),
                             "samples": len(samples)},
        f"{prefix}_tail_ms": {"value": stats.percentile(samples, pct),
                              "percentile": pct, "samples": len(samples),
                              "beyond": len(samples) * (100 - pct) / 100},
    }


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """``(metrics, detail)`` of a traced run."""
    summary = traced["trace"]
    metrics = dict(summary["metrics"])
    casbus = sum(p.get("casbus_executed", 0) for p in traced["passes"])
    metrics["campaign.casbus_executed"] = casbus
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    hotspots = {
        "largest_self_layer": summary["largest_self_layer"],
        "cas_calls_exceed_keys":
            metrics["core.cas_calls"] > metrics["core.cas_keys"],
        "strategy_calls_twice_casbus_executed":
            metrics["schedule.strategy_calls"] == 2 * casbus,
    }
    detail = {
        "bases": summary["bases"],
        "hotspots": hotspots,
        "counters": summary["counters"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the reference",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # A terminated run must not leave a worker behind: SystemExit
    # unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}

    calibration_s = calibrate()
    inputs = spec.draw(args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    # Traced runs compare raw wall times and need no reference slices.
    runner = Runner(args.workload, args.seed, inputs, scratch, started,
                    calibrate=not args.trace)
    try:
        if args.trace:
            workers = [runner.worker("run"), runner.worker("run", True)]
            metrics, detail = per_layer(*workers)
        else:
            runner.worker("setup")  # warm-up: compiles bytecode
            probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
            reps = max(MIN_REPETITIONS,
                       math.ceil(args.seconds / spec.worker_s))
            workers = [runner.worker("run") for _ in range(reps)]
            setups = [_calibrated_setup(result)
                      for result in probes + workers]
            metrics, detail = end_to_end(spec, workers, setups)
            detail["samples"]["setup_s"]["raw_median_s"] = stats.median(
                [result["setup_s"] for result in probes + workers])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, problems = judge(args.workload, workers)
    if args.record_digests:
        checks.record(args.workload, workers[0]["ops"])
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "workers": len(workers),
        "nproc": os.cpu_count(), "calibration_s": calibration_s,
        "fail_frac": {"value": failed / attempted, "failed": failed,
                      "attempted": attempted},
        "problems": problems[:20],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = OUT / f"report-{args.workload}-trace{args.trace}.json"
    report.write_text(json.dumps({"detail": detail, "result": result},
                                 indent=1, default=str))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
