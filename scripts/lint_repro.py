#!/usr/bin/env python3
"""Project-specific AST lint: determinism and serialization hygiene.

Ruff catches generic Python mistakes; this lint encodes the invariants
that make *this* repo's campaigns resumable and its artifacts
auditable.  Nine checks, each with a stable id:

* ``RL001`` -- no unseeded ``random.Random()`` outside ``tests/``:
  every stochastic component (workload generators, the annealing
  scheduler, scenario drawing) must take an explicit seed or the
  results it feeds into stop being reproducible.
* ``RL002`` -- no wall-clock reads (``time.time``, ``datetime.now``,
  ``utcnow``, ``today``) in the identity/serialization modules: a
  timestamp inside a hashed payload breaks content addressing, so the
  modules that build record identity may never consult the clock.
  (``elapsed_s`` timing happens in the runner, outside these modules.)
* ``RL003`` -- every class with a ``to_dict`` method defines a
  matching ``from_dict``: one-way serialization rots silently until a
  store cannot be read back; the pair keeps round-trips testable.
* ``RL004`` -- dict literals with a ``"schema"`` key must reference a
  named constant (``SCHEMA_VERSION``, ``HASH_SCHEMA``, ...), never a
  bare integer literal: inlined schema numbers dodge the single bump
  point that invalidates stale records.
* ``RL005`` -- no per-scenario Python loops over the scalar executor
  (``for ... in scenarios: ....run_plan(...)``) outside ``tests/``:
  ``SessionExecutor.run_batch`` executes same-geometry scenario
  sweeps in one compiled-kernel dispatch per session.  Deliberate
  scalar loops (its own per-scenario fallback, benchmark baselines)
  carry ``RL005`` on the offending line.
* ``RL006`` -- no direct ``random.Random(...)`` construction inside
  ``repro.schedule`` (seeded or not): search randomness must flow
  from :class:`repro.schedule.seeds.SeedStream`, whose coordinate
  hashing keeps portfolio results independent of worker count and
  draw order.  The one sanctioned construction site
  (``seeds.py``) carries ``RL006`` on the line.
* ``RL007`` -- no ``print(...)`` and no self-built timers
  (``time.perf_counter``/``time.monotonic``/``time.time``) inside
  ``src/repro``: user-facing text flows through
  :class:`repro.obs.Console` and timing through
  :mod:`repro.obs.timing`, so ``--quiet``/``--json`` stay coherent
  and every duration is measured the same way.  The sanctioned sites
  (the console/dashboard rendering layer, the one ``perf_counter``
  call in ``obs/timing.py``) carry ``RL007`` on the line.
* ``RL008`` -- no ``except ImportError`` (or its subclass
  ``ModuleNotFoundError``, alone or in a tuple) inside
  ``src/repro``: every dependency the package imports is a hard
  dependency, so a fallback for a missing one is dead code that
  drifts from the path it shadows.
* ``RL009`` -- no unreferenced definitions inside ``src/repro``: a
  top-level function or class, or a non-dunder method, whose name
  appears as a word nowhere else in ``src``, ``tests``, ``scripts``,
  ``examples``, ``benchmarks``, ``perfbench`` or ``README.md`` is
  dead code.  A deliberate entry point carries ``RL009`` on its
  ``def``/``class`` line.

Usage:
    python scripts/lint_repro.py            # lint src/ + scripts/
    python scripts/lint_repro.py PATH...    # lint specific trees
"""

import argparse
import ast
import functools
import re
import sys
from collections import Counter
from pathlib import Path

DEFAULT_ROOTS = ("src", "scripts", "examples", "benchmarks")

#: Modules whose payloads are hashed or persisted: the clock is banned.
IDENTITY_MODULES = (
    "src/repro/campaign/backend.py",
    "src/repro/campaign/hashing.py",
    "src/repro/campaign/sqlite.py",
    "src/repro/campaign/store.py",
    "src/repro/diagnose/records.py",
    "src/repro/api/results.py",
)

#: Attribute calls that read the wall clock.
CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Attribute calls that build an ad-hoc timer (RL007): library code
#: times work through ``repro.obs.timing`` instead.
TIMER_CALLS = {
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "time"),
    ("time", "time_ns"),
}


#: Exceptions that only a missing module raises (RL008).
IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}

#: Where a ``src/repro`` definition may be referenced (RL009), relative
#: to the repository root: ``*.py`` under each directory, plus files.
REFERENCE_DIRS = ("src", "tests", "scripts", "examples", "benchmarks", "perfbench")
REFERENCE_FILES = ("README.md",)

REPO_ROOT = Path(__file__).resolve().parents[1]

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_test_path(path: Path) -> bool:
    return "tests" in path.parts or path.name.startswith("test_")


def _call_name(node: ast.Call) -> "tuple[str, str] | None":
    """``("obj", "attr")`` for ``obj.attr(...)`` calls, else ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute):
            # datetime.datetime.now(...) -> ("datetime", "now")
            return value.attr, func.attr
    return None


def check_unseeded_random(path: Path, tree: ast.AST) -> "list[str]":
    """RL001: ``random.Random()`` with no seed argument."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        unseeded = not node.args and not node.keywords
        if name == ("random", "Random") and unseeded:
            problems.append(
                f"{path}:{node.lineno}: RL001 unseeded random.Random() "
                f"(pass an explicit seed: results must be reproducible)"
            )
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "Random"
            and unseeded
        ):
            problems.append(
                f"{path}:{node.lineno}: RL001 unseeded Random() "
                f"(pass an explicit seed: results must be reproducible)"
            )
    return problems


def check_wall_clock(path: Path, tree: ast.AST) -> "list[str]":
    """RL002: clock reads inside identity/serialization modules."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in CLOCK_CALLS:
            problems.append(
                f"{path}:{node.lineno}: RL002 wall-clock read "
                f"{name[0]}.{name[1]}() in an identity module "
                f"(hashed payloads must not depend on the clock)"
            )
    return problems


def check_dict_pairs(path: Path, tree: ast.AST) -> "list[str]":
    """RL003: ``to_dict`` without a matching ``from_dict``."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "to_dict" in methods and "from_dict" not in methods:
            problems.append(
                f"{path}:{node.lineno}: RL003 class {node.name} defines "
                f"to_dict without from_dict (serialization must "
                f"round-trip)"
            )
    return problems


def check_schema_literals(path: Path, tree: ast.AST) -> "list[str]":
    """RL004: ``"schema"`` dict keys bound to bare integer literals."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant) and key.value == "schema"
            ):
                continue
            if isinstance(value, ast.Constant) and isinstance(
                value.value, int
            ):
                problems.append(
                    f"{path}:{value.lineno}: RL004 schema version is a "
                    f"bare literal {value.value} (reference the named "
                    f"SCHEMA constant so bumps happen in one place)"
                )
    return problems


def _names_in(node: ast.AST) -> "set[str]":
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def check_scenario_loops(
    path: Path, tree: ast.AST, source_lines: "list[str]"
) -> "list[str]":
    """RL005: per-scenario loops over the scalar executor."""

    def waived(lineno: int) -> bool:
        line = (source_lines[lineno - 1]
                if 0 < lineno <= len(source_lines) else "")
        return "RL005" in line

    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        names = _names_in(node.target) | _names_in(node.iter)
        if not any("scenario" in name.lower() for name in names):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("run_session", "run_plan")):
                continue
            if waived(node.lineno) or waived(call.lineno):
                continue
            problems.append(
                f"{path}:{call.lineno}: RL005 per-scenario loop over "
                f"the scalar executor (one SessionExecutor.run_batch "
                f"call runs the whole sweep; waive deliberate loops "
                f"with RL005 on the line)"
            )
    return problems


def check_schedule_randomness(
    path: Path, tree: ast.AST, source_lines: "list[str]"
) -> "list[str]":
    """RL006: ``random.Random`` construction inside ``repro.schedule``.

    Unlike RL001 this bans *seeded* construction too: a generator built
    mid-search couples results to draw order and work distribution.
    Generators must come from ``SeedStream.rng(...)``, a pure function
    of ``(root, coordinates)``; the one sanctioned site in ``seeds.py``
    carries ``RL006`` on the offending line as a waiver.
    """

    def waived(lineno: int) -> bool:
        line = (source_lines[lineno - 1]
                if 0 < lineno <= len(source_lines) else "")
        return "RL006" in line

    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        direct = isinstance(func, ast.Name) and func.id == "Random"
        if not direct and _call_name(node) != ("random", "Random"):
            continue
        if waived(node.lineno) or waived(node.lineno - 1):
            continue
        problems.append(
            f"{path}:{node.lineno}: RL006 direct random.Random() "
            f"construction in repro.schedule (draw generators from "
            f"SeedStream.rng(...) so results stay independent of "
            f"worker count; the sanctioned site carries RL006)"
        )
    return problems


def check_print_and_timers(
    path: Path, tree: ast.AST, source_lines: "list[str]"
) -> "list[str]":
    """RL007: ``print`` / hand-rolled timers inside ``src/repro``.

    Library code records spans and metrics; what the user *sees* is
    the CLI rendering layer's job (:class:`repro.obs.Console`, the
    sweep dashboard), and what gets *timed* flows through
    :mod:`repro.obs.timing` so one clock rules every duration.  The
    sanctioned sites carry ``RL007`` on the offending line.
    """

    def waived(lineno: int) -> bool:
        line = (source_lines[lineno - 1]
                if 0 < lineno <= len(source_lines) else "")
        return "RL007" in line

    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if waived(node.lineno) or waived(node.lineno - 1):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            problems.append(
                f"{path}:{node.lineno}: RL007 print() in library code "
                f"(render through repro.obs.Console so --quiet/--json "
                f"stay coherent; sanctioned rendering sites carry "
                f"RL007 on the line)"
            )
        name = _call_name(node)
        if name in TIMER_CALLS:
            problems.append(
                f"{path}:{node.lineno}: RL007 ad-hoc timer "
                f"{name[0]}.{name[1]}() (time through "
                f"repro.obs.timing -- stopwatch() / perf_seconds(); "
                f"the one sanctioned site carries RL007 on the line)"
            )
    return problems


def check_import_fallbacks(path: Path, tree: ast.AST) -> "list[str]":
    """RL008: ``except ImportError`` handlers inside ``src/repro``."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        if isinstance(node.type, ast.Tuple):
            caught = node.type.elts
        else:
            caught = [node.type]
        if any(
            isinstance(item, ast.Name) and item.id in IMPORT_ERRORS
            for item in caught
        ):
            problems.append(
                f"{path}:{node.lineno}: RL008 except ImportError in "
                f"library code (dependencies are hard requirements; "
                f"a missing-module fallback is dead code)"
            )
    return problems


def _definitions(tree: ast.AST) -> "list[ast.AST]":
    """Top-level functions and classes, and the methods of top-level
    classes (dunders excluded): the names RL009 checks."""
    found = []
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif isinstance(node, ast.ClassDef):
            found.append(node)
            found.extend(
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [
        node
        for node in found
        if not (node.name.startswith("__") and node.name.endswith("__"))
    ]


@functools.lru_cache(maxsize=1)
def reference_words() -> "tuple[Counter, dict[Path, Counter]]":
    """Word counts of every file RL009 searches: the total, and per
    resolved path."""
    paths = [REPO_ROOT / name for name in REFERENCE_FILES]
    for name in REFERENCE_DIRS:
        paths.extend(sorted((REPO_ROOT / name).rglob("*.py")))
    by_file = {
        path.resolve(): Counter(WORD.findall(path.read_text()))
        for path in paths
        if path.is_file()
    }
    total: Counter = Counter()
    for counts in by_file.values():
        total.update(counts)
    return total, by_file


def words_outside(path: Path, names) -> "dict[str, int]":
    """How often each of ``names`` occurs in the RL009 reference files
    other than ``path``."""
    total, by_file = reference_words()
    own = by_file.get(path.resolve(), Counter())
    return {name: total[name] - own[name] for name in names}


def check_unreferenced(
    path: Path,
    tree: ast.AST,
    source_lines: "list[str]",
    outside: "dict[str, int] | None" = None,
) -> "list[str]":
    """RL009: definitions whose name occurs nowhere but on their own
    ``def``/``class`` line.

    ``outside`` counts each name in the other reference files; by
    default it is read from the repository (:func:`words_outside`).
    """
    definitions = _definitions(tree)
    if outside is None:
        outside = words_outside(path, {node.name for node in definitions})
    local = Counter(WORD.findall("\n".join(source_lines)))
    problems = []
    for node in definitions:
        line = source_lines[node.lineno - 1]
        if "RL009" in line:
            continue
        elsewhere = (
            outside.get(node.name, 0)
            + local[node.name]
            - WORD.findall(line).count(node.name)
        )
        if elsewhere == 0:
            problems.append(
                f"{path}:{node.lineno}: RL009 {node.name} is referenced "
                f"nowhere (delete it, or waive a deliberate entry point "
                f"with RL009 on the line)"
            )
    return problems


def _in_schedule_package(path: Path) -> bool:
    normalized = str(path).replace("\\", "/")
    return "repro/schedule/" in normalized


def _in_repro_package(path: Path) -> bool:
    normalized = str(path).replace("\\", "/")
    return "src/repro/" in normalized


def lint_file(path: Path) -> "list[str]":
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [f"{path}: RL000 unparseable: {error}"]
    problems = []
    if not is_test_path(path):
        problems += check_unseeded_random(path, tree)
    if str(path).replace("\\", "/") in IDENTITY_MODULES:
        problems += check_wall_clock(path, tree)
    if not is_test_path(path):
        problems += check_dict_pairs(path, tree)
    problems += check_schema_literals(path, tree)
    if not is_test_path(path):
        problems += check_scenario_loops(path, tree,
                                         source.splitlines())
    if not is_test_path(path) and _in_schedule_package(path):
        problems += check_schedule_randomness(path, tree,
                                              source.splitlines())
    if not is_test_path(path) and _in_repro_package(path):
        problems += check_print_and_timers(path, tree,
                                           source.splitlines())
        problems += check_import_fallbacks(path, tree)
        problems += check_unreferenced(path, tree, source.splitlines())
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=list(DEFAULT_ROOTS),
        help="directories or files to lint (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    files: "list[Path]" = []
    for root in args.roots:
        root_path = Path(root)
        if root_path.is_file():
            files.append(root_path)
        else:
            files.extend(sorted(root_path.rglob("*.py")))
    problems: "list[str]" = []
    for path in files:
        problems.extend(lint_file(path))
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(
            f"lint_repro: {len(problems)} problem(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_repro: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
