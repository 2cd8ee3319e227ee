"""One fresh-interpreter benchmark worker.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

The job names a workload, its drawn inputs, a mode (``setup`` stops
after set-up; ``run`` also makes the cold and the warm pass) and whether
to trace.  ``setup_s`` spans the ``repro`` import, the registry load and
``prepare``; ``setup_reference_s`` is the median of the reference
slices timed around it (:mod:`calibration`; untraced runs only).  The
measured wall time (``wall_s``) spans the registry load, ``prepare`` and
both passes; the checks run after it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from calibration import Reference, setup_slices

    slices = setup_slices() if job["calibrate"] else []
    started = time.perf_counter()
    import repro.api
    import repro.obs

    from workloads import WORKLOADS

    spec = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    scratch = Path(job["scratch"])
    with ExitStack() as stack:
        collector = (stack.enter_context(repro.obs.capture())
                     if tracer is not None else None)
        wall_start = time.perf_counter()
        repro.api.list_architectures()
        repro.api.list_schedulers()
        repro.api.list_workloads()
        state = spec.prepare(job["inputs"], scratch)
        setup_s = time.perf_counter() - started
        setup = {"setup_s": setup_s}
        if job["calibrate"]:
            slices += setup_slices()
            setup["setup_reference_s"] = statistics.median(slices)
        if job["mode"] == "setup":
            Path(result_path).write_text(json.dumps(setup))
            return 0
        passes = []
        for _ in range(2):
            with Reference(job["calibrate"]) as reference:
                passes.append(spec.run_pass(state, tracer, reference))
            passes[-1]["timing"].update(reference.summary())
        wall_end = time.perf_counter()
    if tracer is not None:
        with tracer.paused():
            ops, tat = spec.check(state, passes)
    else:
        ops, tat = spec.check(state, passes)
    result = {
        **setup,
        "wall_s": wall_end - wall_start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tat_cycles": tat,
        "ops": ops,
        "passes": [data["timing"] for data in passes],
    }
    if tracer is not None:
        tracer.uninstall()
        counters = collector.metrics.snapshot()["counters"]
        summary = tracer.summary(wall_start, wall_end, counters)
        summary["counters"] = counters
        result["trace"] = summary
        _write_trace(Path(job["trace_path"]), job, tracer, collector, summary)
    Path(result_path).write_text(json.dumps(result))
    return 0


def _write_trace(path, job, tracer, collector, summary) -> None:
    """One JSONL artifact: header, wrapper spans, program spans, summary."""
    with path.open("w") as out:
        out.write(json.dumps({"kind": "header", "workload": job["workload"],
                              "seed": job["seed"]}) + "\n")
        for row in tracer.span_rows():
            out.write(json.dumps({"kind": "layer_span", **row}) + "\n")
        for record in collector.spans():
            out.write(json.dumps({"kind": "program_span",
                                  **record.to_dict()}, default=str) + "\n")
        out.write(json.dumps({"kind": "summary", **summary}) + "\n")


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
