"""Per-layer timing by wrapping the public call into each ``repro`` layer.

The traced worker installs a :class:`Tracer` after importing ``repro``
and before building its workload.  Every wrapped call records one span
``[layer, start, end, parent, amount]``; self time per layer is the
span duration minus the union of the wrapped calls nested inside it
(:func:`stats.self_times`).  The untraced workers never import this
module, so their timings carry no wrapper cost.

Functions are patched in every ``repro`` module that holds a reference
to them (``from x import f`` copies the binding); methods are patched on
every class in the hierarchy that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import stats

#: Modules imported before patching, so every subclass and every
#: ``from x import f`` binding already exists when the scan runs.
PRELOAD = (
    "repro.api",
    "repro.baselines",
    "repro.campaign",
    "repro.campaign.sqlite",
    "repro.core.tam",
    "repro.diagnose.engine",
    "repro.diagnose.retest",
    "repro.schedule.portfolio",
    "repro.sim.batch",
    "repro.sim.kernel",
    "repro.sim.session",
    "repro.verify",
)

#: (layer, module, function name) -- module-level functions.
FUNCTIONS = (
    ("soc.build", "repro.api.workloads", "get_workload"),
    ("soc.build", "repro.soc.itc02", "benchmark_soc"),
    ("core.cas", "repro.core.generator", "generate_cas"),
    ("logic.minimize", "repro.logic.minimize", "minimize"),
    ("logic.minimize", "repro.logic.minimize", "minimize_heuristic"),
    ("scan.atpg", "repro.sim.testsets", "test_set_for"),
    ("sim.build", "repro.sim.system", "build_system"),
    ("sim.compile", "repro.sim.batch", "batch_scan_program"),
    ("diagnose.dictionary", "repro.diagnose.engine", "fault_dictionary"),
    ("campaign.hash", "repro.campaign.hashing", "config_hash"),
)

#: (layer, module, class, method) -- patched on the class and every
#: subclass that overrides it.
METHODS = (
    ("logic.synth", "repro.logic.synth", "CoverSynthesizer", "synthesize"),
    ("sim.compile", "repro.sim.kernel", "KernelExecutor", "compile_session"),
    ("sim.dispatch", "repro.sim.session", "SessionExecutor", "run_plan"),
    ("sim.dispatch", "repro.sim.session", "SessionExecutor", "run_batch"),
    ("schedule.strategy", "repro.api.schedulers", "SchedulerStrategy",
     "schedule"),
    ("baselines.model", "repro.baselines.base", "TamBaseline", "evaluate"),
    ("diagnose.engine", "repro.diagnose.engine", "DiagnosisEngine", "run"),
    ("campaign.append", "repro.campaign.backend", "StoreBackend", "append"),
    ("campaign.append", "repro.campaign.backend", "StoreBackend",
     "append_many"),
    ("campaign.read", "repro.campaign.backend", "StoreBackend", "records"),
    ("campaign.read", "repro.campaign.backend", "StoreBackend", "hashes"),
    ("campaign.read", "repro.campaign.backend", "StoreBackend", "lookup"),
)

#: Every layer a span can carry, in report order.
LAYERS = (
    "soc.build", "core.cas", "logic.minimize", "logic.synth", "scan.atpg",
    "sim.build", "sim.compile", "sim.dispatch", "verify",
    "schedule.strategy", "baselines.model", "diagnose.dictionary",
    "diagnose.engine", "campaign.hash", "campaign.append", "campaign.read",
)

#: The named ``repro`` caches whose hit/miss obs counters the trace
#: reports (the portfolio's caches only ever ``put``, so have none).
CACHES = ("testsets", "scan_programs", "batch_programs", "fault_dictionaries")


def _cas_key(signature):
    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return (bound.arguments["n"], bound.arguments["p"],
                bound.arguments["policy"])
    return key


def _scenario_count(args, kwargs):
    # run_plan(plan) runs one scenario; run_batch(plan, scenarios) many.
    scenarios = kwargs.get("scenarios", args[2] if len(args) > 2 else None)
    return 1 if scenarios is None else len(scenarios)


class Tracer:
    """Records wrapper spans; install/uninstall patch ``repro`` in place."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index, amount]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self._undo: list = []
        self.cas_keys: set = set()
        self.cost_models: list = []

    # -- recording -----------------------------------------------------

    def wrap(self, layer, fn, amount=None, key=None):
        """``fn`` wrapped to record one ``layer`` span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if key is not None:
                self.cas_keys.add(key(args, kwargs))
            record = [layer, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None,
                      amount(args, kwargs) if amount else 1]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    @contextmanager
    def span(self, layer):
        """A span around the benchmark's own call into ``layer``."""
        record = [layer, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, 1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._undo.append((namespace, attr, original))

    def _patch_method(self, layer, cls, method, amount) -> None:
        pending = [cls]
        seen = set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(method)
            if (not inspect.isfunction(original)
                    or getattr(original, "__isabstractmethod__", False)):
                continue
            setattr(klass, method, self.wrap(layer, original, amount))
            self._undo.append((klass, method, original))

    def install(self) -> None:
        for module in PRELOAD:
            importlib.import_module(module)
        for layer, module_name, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            key = (_cas_key(inspect.signature(original))
                   if layer == "core.cas" else None)
            self._replace_everywhere(
                original, self.wrap(layer, original, key=key)
            )
        verify = importlib.import_module("repro.verify")
        for name in verify.__all__:
            if name.startswith("verify_"):
                original = getattr(verify, name)
                self._replace_everywhere(
                    original, self.wrap("verify", original)
                )
        for layer, module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            amount = _scenario_count if layer == "sim.dispatch" else None
            self._patch_method(layer, cls, method, amount)
        # CostModel memo statistics are per instance: keep every model
        # built during the run and read its stats() afterwards.
        model_cls = importlib.import_module("repro.schedule.model").CostModel
        original_init = model_cls.__init__
        models = self.cost_models

        @functools.wraps(original_init)
        def init(instance, *args, **kwargs):
            original_init(instance, *args, **kwargs)
            if not self._paused:
                models.append(instance)

        model_cls.__init__ = init
        self._undo.append((model_cls, "__init__", original_init))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def summary(self, wall_start: float, wall_end: float,
                counters: dict) -> dict:
        """Per-layer metrics for one traced workload region."""
        # Every span is closed by now: wrappers close theirs in finally.
        spans = self.spans
        selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        amounts = dict.fromkeys(LAYERS, 0)
        for span, self_time in zip(spans, selfs):
            layer = span[0]
            self_s[layer] += self_time
            # Count a call once: skip it when an enclosing span is of
            # the same layer (recursion, or a method calling its peer).
            parent = span[3]
            while parent is not None and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent is None:
                calls[layer] += 1
                amounts[layer] += span[4]
        wall = wall_end - wall_start
        covered = stats.clipped_union(
            [(s[1], s[2]) for s in spans if s[3] is None],
            wall_start, wall_end,
        )
        hits = sum(m.stats()["hits"] for m in self.cost_models)
        misses = sum(m.stats()["misses"] for m in self.cost_models)
        lookups = hits + misses
        dispatches = calls["sim.dispatch"]
        metrics = {
            "soc.build_s": self_s["soc.build"],
            "core.cas_s": self_s["core.cas"],
            "core.cas_calls": calls["core.cas"],
            "core.cas_keys": len(self.cas_keys),
            "logic.minimize_s": self_s["logic.minimize"],
            "logic.minimize_calls": calls["logic.minimize"],
            "logic.synth_s": self_s["logic.synth"],
            "scan.atpg_s": self_s["scan.atpg"],
            "scan.atpg_calls": calls["scan.atpg"],
            "scan.atpg_misses": counters.get("cache.testsets.misses", 0),
            "sim.build_s": self_s["sim.build"],
            "sim.compile_s": self_s["sim.compile"],
            "sim.dispatch_s": self_s["sim.dispatch"],
            "sim.dispatches": dispatches,
            "sim.scenarios_per_dispatch": (
                amounts["sim.dispatch"] / dispatches if dispatches else 0.0
            ),
            "verify.s": self_s["verify"],
            "verify.calls": calls["verify"],
            "schedule.strategy_s": self_s["schedule.strategy"],
            "schedule.strategy_calls": calls["schedule.strategy"],
            "schedule.costmodel_hit_ratio": (
                hits / lookups if lookups else 0.0
            ),
            "schedule.costmodel_lookups": lookups,
            "baselines.model_s": self_s["baselines.model"],
            "diagnose.dictionary_s": self_s["diagnose.dictionary"],
            "diagnose.dictionary_calls": calls["diagnose.dictionary"],
            "diagnose.engine_s": self_s["diagnose.engine"],
            "campaign.hash_s": self_s["campaign.hash"],
            "campaign.hash_calls": calls["campaign.hash"],
            "campaign.append_s": self_s["campaign.append"],
            "campaign.appends": calls["campaign.append"],
            "campaign.read_s": self_s["campaign.read"],
            "unattributed_frac": (
                max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0
            ),
        }
        for cache in CACHES:
            for kind in ("hits", "misses"):
                metrics[f"cache.{cache}.{kind}"] = counters.get(
                    f"cache.{cache}.{kind}", 0
                )
        largest = max(LAYERS, key=lambda layer: self_s[layer])
        return {
            "metrics": metrics,
            "bases": {
                "wall_s": wall,
                "covered_s": covered,
                "costmodel_hits": hits,
                "costmodel_lookups": lookups,
                "dispatch_scenarios": amounts["sim.dispatch"],
                "dispatches": dispatches,
                "spans": len(spans),
            },
            "largest_self_layer": largest,
        }

    def span_rows(self) -> list[dict]:
        """The recorded wrapper spans as JSON-ready rows."""
        return [
            {"layer": s[0], "start_s": s[1], "end_s": s[2],
             "parent": s[3], "amount": s[4]}
            for s in self.spans
        ]
