"""Batch and sweep execution on top of :class:`~repro.api.experiment.
Experiment`.

:func:`run_many` runs a batch of experiments, optionally fanned out
over worker processes with :mod:`concurrent.futures`; result order
always matches input order, so ``parallel=True`` and ``parallel=False``
are interchangeable.  Experiments that differ only in their injected
faults -- a Monte-Carlo defect sweep over one design -- are detected
up front and routed through a single vectorized simulator dispatch
(:mod:`repro.sim.batch`) instead of one process per scenario.  :func:`sweep_experiments` builds the standard
design-space grid (architectures x bus widths x schedulers) and
:func:`run_sweep` is the one-call version benchmarks use.
"""

from __future__ import annotations

import os
from concurrent import futures
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.spans import active as obs_active
from repro.obs.spans import capture as obs_capture
from repro.obs.spans import span as obs_span
from repro.obs.timing import stopwatch
from repro.api.architectures import WorkloadLike
from repro.api.experiment import Experiment
from repro.api.registry import get_architecture, get_scheduler
from repro.api.results import RunConfig, RunResult

#: Progress callback: ``on_result(experiment, result, cached=..., elapsed=...)``
#: invoked once per experiment as its result becomes available.
#: ``cached`` is True when the result came from a store instead of
#: being executed; ``elapsed`` is the wall-clock seconds of an executed
#: run (``None`` for cached ones).
OnResult = Callable[..., None]


def _run_one(experiment: Experiment) -> RunResult:
    """Process-pool entry point (must be a module-level function)."""
    return experiment.run()


def _timed_run(experiment: Experiment) -> tuple[RunResult, float]:
    """Pool entry point reporting per-run wall-clock seconds."""
    with stopwatch() as watch:
        result = experiment.run()
    return result, watch.seconds


def _timed_run_captured(
    experiment: Experiment,
) -> tuple[RunResult, float, dict]:
    """Pool entry point that also harvests the worker's telemetry.

    A spawned worker starts with observability disabled (the
    collector is process-global and never pickled), so when the
    parent is tracing it submits this wrapper instead: the run
    executes under a scoped collector whose picklable payload rides
    home with the result for :meth:`Collector.absorb`.
    """
    with obs_capture() as collector:
        result, elapsed = _timed_run(experiment)
        return result, elapsed, collector.payload()


def _default_workers(count: int) -> int:
    return max(1, min(count, os.cpu_count() or 1))


def _group_key(experiment: Experiment) -> Optional[str]:
    """Canonical identity minus faults: the one-dispatch group key.

    Experiments that agree on everything except ``inject_faults`` (and
    the identity-excluded ``label``) are the same compiled simulation
    with different scenario overlays, so they can share one batch
    dispatch.  Returns ``None`` for experiments the batch kernel must
    not take: a pinned backend, a forbidden or unsupported
    simulation, or a non-CAS-BUS architecture.
    """
    from repro.campaign.hashing import canonical_json, experiment_identity

    config = experiment.config
    if config.simulate is False or config.backend != "auto":
        return None
    if get_architecture(config.architecture).key != "casbus":
        return None
    if experiment.workload.soc is None:
        return None
    if experiment.build()._simulation_blocker(config) is not None:
        return None
    identity = experiment_identity(experiment)
    identity["config"].pop("inject_faults", None)
    # ``verify`` is identity-neutral, but one batch shares one
    # executor: keep differing verify settings in different groups.
    identity["config"]["verify"] = bool(config.verify)
    return canonical_json(identity)


def _batch_partition(
    batch: Sequence[Experiment],
) -> tuple[list[list[int]], list[int]]:
    """``(groups, rest)``: same-geometry index groups plus leftovers.

    A group needs at least two members -- a lone simulatable
    experiment gains nothing from the batch path and stays on the
    pool, where it can run beside its siblings.
    """
    groups: dict[str, list[int]] = {}
    for index, item in enumerate(batch):
        try:
            key = _group_key(item)
        except ConfigurationError:
            key = None
        if key is not None:
            groups.setdefault(key, []).append(index)
    grouped = [indices for indices in groups.values() if len(indices) >= 2]
    batched = {index for indices in grouped for index in indices}
    rest = [index for index in range(len(batch)) if index not in batched]
    return grouped, rest


def _run_batch_group(
    items: Sequence[Experiment],
) -> Optional[list[tuple[RunResult, float]]]:
    """One simulator dispatch for a same-geometry fault sweep.

    Every item shares its workload, architecture, scheduler and
    backend -- only the injected faults (and labels) differ -- so the
    CAS hardware, the executable plan and the compiled programs are
    built once and the scenarios execute through
    :meth:`repro.sim.session.SessionExecutor.run_batch`.  Returns one
    ``(result, seconds)`` per item with the group's wall clock split
    evenly, or ``None`` when the batch path is unavailable and the
    items should run individually.
    """
    from repro.sim.session import SessionExecutor
    from repro.sim.system import build_system

    leader = items[0]
    config = leader.config
    soc = leader.workload.soc
    assert soc is not None
    watch = stopwatch()
    try:
        facade, area_ge = leader.build()._facade(config)
        plan = facade.executable_plan()
        executor = SessionExecutor(
            build_system(soc),
            backend=config.backend,
            capture_syndromes=config.capture_syndromes,
            verify=config.verify,
        )
        programs = executor.run_batch(
            plan, [item.config.inject_faults for item in items]
        )
    except ConfigurationError:
        return None
    elapsed = watch.elapsed / len(items)
    return [
        (item.build()._simulated_result(item.config, program, area_ge),
         elapsed)
        for item, program in zip(items, programs)
    ]


def _stream(
    batch: Sequence[Experiment],
    serial: bool,
    workers: int,
) -> Iterator[tuple[int, RunResult, float]]:
    """Yield ``(index, result, seconds)`` in *completion* order.

    Same-geometry fault sweeps are peeled off first and executed one
    group per simulator dispatch (see :func:`_run_batch_group`); the
    leftovers run on the historical pool path below.
    """
    grouped, rest = _batch_partition(batch)
    for indices in grouped:
        executed = _run_batch_group([batch[index] for index in indices])
        if executed is None:
            rest.extend(indices)
            continue
        for index, (result, elapsed) in zip(indices, executed):
            yield index, result, elapsed
    if not rest:
        return
    rest.sort()
    subset = [batch[index] for index in rest]
    for position, result, elapsed in _stream_pool(
            subset, serial or len(subset) == 1, workers):
        yield rest[position], result, elapsed


def _stream_pool(
    batch: Sequence[Experiment],
    serial: bool,
    workers: int,
) -> Iterator[tuple[int, RunResult, float]]:
    """The per-experiment pool: one :meth:`Experiment.run` per item.

    Results are yielded the moment each run finishes -- not in input
    order -- so a store-aware caller can persist every completed run
    even while a slow sibling is still executing: an interrupted batch
    keeps everything finished so far.  The pool strategy matches the
    historical ``run_many`` behaviour: process pool first, falling back
    to threads when the platform cannot spawn processes or a spawn
    worker's registry diverged.
    """
    if serial:
        for index, item in enumerate(batch):
            result, elapsed = _timed_run(item)
            yield index, result, elapsed
        return
    yielded: set[int] = set()
    # When the parent is tracing, workers run under a scoped collector
    # and ship their spans/metrics home beside the result; the thread
    # fallback below shares this process's collector and needs nothing.
    collector = obs_active()
    entry = _timed_run if collector is None else _timed_run_captured
    try:
        with futures.ProcessPoolExecutor(max_workers=workers) as executor:
            submitted = {
                executor.submit(entry, item): index
                for index, item in enumerate(batch)
            }
            broken = False
            for future in futures.as_completed(submitted):
                index = submitted[future]
                try:
                    outcome = future.result()
                except (OSError, PermissionError, futures.BrokenExecutor,
                        ConfigurationError):
                    # No subprocesses here (sandbox) or divergent
                    # registry (spawn platforms lose dynamically
                    # registered entries): finish on threads below.
                    broken = True
                    executor.shutdown(wait=False, cancel_futures=True)
                    break
                if collector is None:
                    result, elapsed = outcome
                else:
                    result, elapsed, payload = outcome
                    collector.absorb(payload)
                yielded.add(index)
                yield index, result, elapsed
            if not broken:
                return
    except (OSError, PermissionError, futures.BrokenExecutor):
        pass  # the process pool could not start at all
    remaining = [i for i in range(len(batch)) if i not in yielded]
    with futures.ThreadPoolExecutor(max_workers=workers) as executor:
        # Threads share the registry and raise experiment errors
        # directly; no further fallback so failures surface once.
        # Only the experiments not already yielded re-run.
        mapped = executor.map(_timed_run, [batch[i] for i in remaining])
        for index, (result, elapsed) in zip(remaining, mapped):
            yield index, result, elapsed


def run_many(
    experiments: Iterable[Experiment],
    *,
    parallel: bool = True,
    max_workers: int | None = None,
    store=None,
    rerun: bool = False,
    on_result: Optional[OnResult] = None,
) -> list[RunResult]:
    """Run every experiment; results in input order.

    Args:
        experiments: :class:`Experiment` instances (see
            :func:`sweep_experiments` for grid construction).
        parallel: fan out over a process pool (fork-safe workloads
            only: experiments are plain dataclasses, so this is the
            default).  Falls back to threads, then serial, if the
            platform cannot spawn processes.
        max_workers: pool size; default ``min(len, cpu_count)``.
        store: a :class:`~repro.campaign.backend.StoreBackend` (the
            JSONL :class:`~repro.campaign.store.CampaignStore` or the
            indexed :class:`~repro.campaign.sqlite.SqliteStore`).  When
            given, experiments whose config hash already has a stored
            result are *not executed* -- the stored result is returned
            in their place -- and every freshly executed result is
            durably appended to the store the moment it completes, so
            an interrupted batch resumes where it died.
        rerun: with a store, ignore existing records and execute
            everything; new records supersede old ones on read.
        on_result: progress callback, called once per experiment as
            ``on_result(experiment, result, cached=..., elapsed=...)``.
    """
    batch = list(experiments)
    for item in batch:
        if not isinstance(item, Experiment):
            raise ConfigurationError(
                f"run_many expects Experiment instances, "
                f"got {type(item).__name__}"
            )
        # Resolve names up front: a typo fails here, before dispatch,
        # so a ConfigurationError out of a worker process can only mean
        # the worker's registry diverged -- the thread fallback in
        # ``_stream`` shares this process's registry and recovers it.
        get_architecture(item.config.architecture)
        get_scheduler(item.config.scheduler)
    if not batch:
        return []
    workers = max_workers or _default_workers(len(batch))
    serial = not parallel or len(batch) == 1
    if store is None:
        results: list[RunResult] = [None] * len(batch)  # type: ignore[list-item]
        for index, result, elapsed in _stream(batch, serial, workers):
            results[index] = result
            if on_result is not None:
                on_result(batch[index], result, cached=False,
                          elapsed=elapsed)
        return results
    return _run_with_store(
        batch, store, serial=serial, workers=workers, rerun=rerun,
        on_result=on_result,
    )


def _run_with_store(
    batch: Sequence[Experiment],
    store,
    *,
    serial: bool,
    workers: int,
    rerun: bool,
    on_result: Optional[OnResult],
) -> list[RunResult]:
    """The store-aware execution path: skip, execute, persist.

    Duplicate configs *within* the batch execute once; the survivors
    reuse the first copy's result, exactly as a store hit would.
    """
    from repro.campaign.hashing import config_hash
    from repro.campaign.store import make_record
    from repro.verify import verify_record

    hashes = [config_hash(item) for item in batch]
    # Ask the store only about this batch's hashes: resuming a small
    # shard against a large shared store must not load (let alone
    # reconstruct) every record it contains.  On the indexed SQLite
    # backend this is O(batch); on JSONL it is the one full scan the
    # format always costs.
    stored = {} if rerun else store.lookup(hashes)
    results: list[RunResult] = [None] * len(batch)  # type: ignore[list-item]
    pending: list[int] = []
    leaders: dict[str, int] = {}
    followers: dict[int, int] = {}
    for index, item_hash in enumerate(hashes):
        if item_hash in stored:
            results[index] = RunResult.from_dict(
                stored[item_hash]["result"]
            )
            if on_result is not None:
                on_result(batch[index], results[index], cached=True,
                          elapsed=None)
        elif item_hash in leaders:
            followers[index] = leaders[item_hash]
        else:
            leaders[item_hash] = index
            pending.append(index)
    subset = [batch[index] for index in pending]
    for position, result, elapsed in _stream(
            subset, serial or len(subset) == 1, workers):
        index = pending[position]
        record = make_record(batch[index], result,
                             config_hash=hashes[index], elapsed_s=elapsed)
        if getattr(batch[index].config, "verify", True):
            # A record that fails its own serialization contract must
            # never enter the store: fail loudly before the append.
            verify_record(record).raise_if_failed(hashes[index][:10])
        with obs_span("store.append", config_hash=hashes[index][:10]):
            store.append(record, replace=rerun)
        results[index] = result
        if on_result is not None:
            on_result(batch[index], result, cached=False, elapsed=elapsed)
    for index, leader in followers.items():
        results[index] = results[leader]
        if on_result is not None:
            on_result(batch[index], results[index], cached=True,
                      elapsed=None)
    return results


def sweep_experiments(
    workload: WorkloadLike,
    *,
    architectures: Sequence[str] = ("casbus",),
    bus_widths: Sequence[int | None] = (None,),
    schedulers: Sequence[str] = ("greedy",),
    base_config: RunConfig | None = None,
) -> list[Experiment]:
    """The design-space grid as concrete experiments.

    Iteration order is architectures (outer) x bus widths x schedulers
    (inner); a ``None`` bus width means the workload's own.
    """
    base = Experiment(workload, base_config)
    grid: list[Experiment] = []
    for architecture in architectures:
        for width in bus_widths:
            for scheduler in schedulers:
                experiment = (base.with_architecture(architecture)
                              .with_scheduler(scheduler))
                if width is not None:
                    experiment = experiment.with_bus_width(width)
                grid.append(experiment)
    return grid


def run_sweep(
    workload: WorkloadLike,
    *,
    architectures: Sequence[str] = ("casbus",),
    bus_widths: Sequence[int | None] = (None,),
    schedulers: Sequence[str] = ("greedy",),
    base_config: RunConfig | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
    store=None,
    rerun: bool = False,
    on_result: Optional[OnResult] = None,
) -> list[RunResult]:
    """One-call design-space exploration: grid + :func:`run_many`.

    ``workload`` may be a registered workload name (see
    :mod:`repro.api.workloads`), e.g. ``run_sweep("itc02-d695", ...)``.
    ``store``/``rerun``/``on_result`` behave as in :func:`run_many`.
    """
    return run_many(
        sweep_experiments(
            workload,
            architectures=architectures,
            bus_widths=bus_widths,
            schedulers=schedulers,
            base_config=base_config,
        ),
        parallel=parallel,
        max_workers=max_workers,
        store=store,
        rerun=rerun,
        on_result=on_result,
    )


def run_matrix(
    workloads: Sequence[WorkloadLike],
    *,
    architectures: Sequence[str] = ("casbus",),
    bus_widths: Sequence[int | None] = (None,),
    schedulers: Sequence[str] = ("greedy",),
    base_config: RunConfig | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
    store=None,
    rerun: bool = False,
    on_result: Optional[OnResult] = None,
) -> list[RunResult]:
    """Design-space exploration across *multiple* workloads.

    The full grid is workloads (outer) x architectures x bus widths x
    schedulers (inner), flattened into one parallel batch::

        run_matrix(["itc02-d695", "itc02-g1023", "itc02-p22810"],
                   architectures=list_architectures(),
                   bus_widths=(8, 16, 32),
                   schedulers=("greedy", "balanced-lpt"))

    Workload entries may be registered names, SoC specs, core-table
    sequences or prepared :class:`~repro.api.architectures.Workload`
    objects; results come back in grid order.
    """
    if isinstance(workloads, str):
        # A bare name is a single-workload matrix, not a sequence of
        # one-character workload names.
        workloads = [workloads]
    experiments: list[Experiment] = []
    for workload in workloads:
        experiments.extend(sweep_experiments(
            workload,
            architectures=architectures,
            bus_widths=bus_widths,
            schedulers=schedulers,
            base_config=base_config,
        ))
    return run_many(
        experiments, parallel=parallel, max_workers=max_workers,
        store=store, rerun=rerun, on_result=on_result,
    )
