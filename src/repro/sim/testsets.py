"""Process-wide ATPG test-set cache.

A :class:`~repro.soc.core.CoreSpec` is frozen and fully seeded, so the
test set generated for it is a pure function of the spec: every system
instance of the same spec shares one ATPG run.  Both execution backends
draw from this cache -- the legacy executor used to regenerate test
sets per executor instance, which dominated repeated simulation runs.
"""

from __future__ import annotations

from repro.scan.atpg import TestSet, generate_test_set
from repro.sim.cache import BoundedCache
from repro.soc.core import CoreSpec

#: Least-recently-used entries are evicted past this size, so sweeps
#: over unbounded generated workloads (``random_soc`` et al.) cannot
#: grow memory monotonically while hot specs stay cached.
MAX_CACHED = 1024

_CACHE: "BoundedCache[CoreSpec, TestSet]" = BoundedCache(
    MAX_CACHED, name="testsets"
)


def test_set_for(spec: CoreSpec) -> TestSet:
    """The (cached) ATPG test set for a scan core spec.

    Always generated from a *clean* build of the spec -- injected
    faults live in system instances, never in expected data.
    """
    cached = _CACHE.get(spec)
    if cached is not None:
        return cached
    clean = spec.build_scannable()
    test_set = generate_test_set(
        clean,
        seed=spec.seed,
        target_coverage=spec.atpg_target,
        max_patterns=spec.atpg_max_patterns,
        deterministic_topup=spec.atpg_deterministic,
    )
    _CACHE.put(spec, test_set)
    return test_set
