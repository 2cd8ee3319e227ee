"""The project lint's RL005, RL006, RL007 and RL008 rules.

RL005 exists because the batch kernel makes the obvious
``for scenario in scenarios: executor.run_plan(...)`` loop an
anti-pattern everywhere a batch path is available; the rule flags it
in product modules while honouring explicit ``RL005`` waivers (the
fallback loop inside ``run_batch`` itself, benchmark baselines).

RL006 guards the portfolio's determinism contract: inside
``repro.schedule``, generators must come from ``SeedStream.rng(...)``
(a pure function of coordinates), never from direct
``random.Random(...)`` construction -- seeded or not -- because a
generator minted mid-search couples results to draw order and worker
count.  The single sanctioned site in ``seeds.py`` carries an
``RL006`` waiver comment.

RL007 keeps observability honest: inside ``src/repro`` nothing prints
(user-facing text flows through ``repro.obs.Console`` so ``--quiet``
and ``--json`` stay coherent) and nothing builds its own timer
(durations flow through ``repro.obs.timing``).  The sanctioned sites
-- the console/dashboard rendering layer, the one ``perf_counter``
call in ``obs/timing.py`` -- carry ``RL007`` waiver comments.

RL008 keeps the optional-dependency world from growing back: numpy
and every other import of ``src/repro`` is a hard dependency, so an
``except ImportError`` fallback there is dead code with no waiver.

RL009 finds dead definitions: a ``src/repro`` function, class or
method whose name occurs nowhere but on its own ``def`` line, in the
package or in the tests, scripts, examples, benchmarks, perfbench or
README that could call it.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "lint_repro.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_repro", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(lint, source: str):
    tree = ast.parse(source)
    return lint.check_scenario_loops(
        Path("src/example.py"), tree, source.splitlines()
    )


class TestRl005:
    def test_flags_scenario_loop_over_run_plan(self, lint):
        problems = _check(lint, (
            "for scenario in scenarios:\n"
            "    results.append(executor.run_plan(plan))\n"
        ))
        assert len(problems) == 1
        assert "RL005" in problems[0]

    def test_flags_run_session_too(self, lint):
        problems = _check(lint, (
            "for item in scenario_list:\n"
            "    executor.run_session(session)\n"
        ))
        assert len(problems) == 1

    def test_waiver_on_loop_line(self, lint):
        assert _check(lint, (
            "for scenario in scenarios:  # RL005: deliberate baseline\n"
            "    executor.run_plan(plan)\n"
        )) == []

    def test_waiver_on_call_line(self, lint):
        assert _check(lint, (
            "for scenario in scenarios:\n"
            "    executor.run_plan(plan)  # RL005 scalar fallback\n"
        )) == []

    def test_ignores_non_scenario_loops(self, lint):
        assert _check(lint, (
            "for session in plan.sessions:\n"
            "    executor.run_session(session)\n"
        )) == []

    def test_ignores_scenario_loops_without_executor_calls(self, lint):
        assert _check(lint, (
            "for scenario in scenarios:\n"
            "    overlays.append(normalise(scenario))\n"
        )) == []

    def test_tests_are_exempt(self, lint):
        assert lint.is_test_path(Path("tests/unit/test_x.py"))
        assert lint.is_test_path(Path("test_standalone.py"))
        assert not lint.is_test_path(Path("src/repro/sim/batch.py"))


def _check_rl006(lint, source: str):
    tree = ast.parse(source)
    return lint.check_schedule_randomness(
        Path("src/repro/schedule/example.py"), tree, source.splitlines()
    )


class TestRl006:
    def test_flags_seeded_construction(self, lint):
        """Mutation test: RL001 would pass a seeded Random; RL006 must
        still flag it inside repro.schedule."""
        problems = _check_rl006(lint, "rng = random.Random(42)\n")
        assert len(problems) == 1
        assert "RL006" in problems[0]
        assert "SeedStream" in problems[0]

    def test_flags_unseeded_and_bare_construction(self, lint):
        assert len(_check_rl006(lint, "rng = random.Random()\n")) == 1
        assert len(_check_rl006(
            lint, "from random import Random\nrng = Random(7)\n"
        )) == 1

    def test_waiver_on_line_or_preceding_line(self, lint):
        assert _check_rl006(
            lint, "rng = random.Random(token)  # RL006: sanctioned\n"
        ) == []
        assert _check_rl006(lint, (
            "# RL006: the one sanctioned construction site.\n"
            "rng = random.Random(token)\n"
        )) == []

    def test_ignores_stream_usage(self, lint):
        assert _check_rl006(lint, (
            "rng = stream.rng('anneal', width, restart)\n"
            "value = rng.random()\n"
        )) == []

    def test_scoped_to_schedule_package(self, lint):
        assert lint._in_schedule_package(
            Path("src/repro/schedule/portfolio.py")
        )
        assert not lint._in_schedule_package(
            Path("src/repro/soc/itc02.py")
        )

    def test_seeds_module_is_the_only_waiver(self, lint):
        """The sanctioned site exists, is waived, and is unique."""
        root = _SCRIPT.parents[1]
        schedule = root / "src" / "repro" / "schedule"
        waivers = []
        for path in sorted(schedule.rglob("*.py")):
            source = path.read_text()
            if "RL006" in source:
                waivers.append(path.name)
            assert lint.lint_file(path) == [], path
        assert waivers == ["seeds.py"]

    def test_path_scope(self, lint):
        assert lint.is_test_path(Path("tests/unit/test_x.py"))
        assert lint.is_test_path(Path("test_standalone.py"))
        assert not lint.is_test_path(Path("src/repro/sim/batch.py"))

    def test_whole_repo_is_clean(self, lint):
        root = _SCRIPT.parents[1]
        problems = []
        for rel in ("src", "scripts", "examples", "benchmarks"):
            tree = root / rel
            if not tree.is_dir():
                continue
            for path in sorted(tree.rglob("*.py")):
                problems.extend(lint.lint_file(path))
        assert problems == [], problems


def _check_rl007(lint, source: str, path: str = "src/repro/example.py"):
    tree = ast.parse(source)
    return lint.check_print_and_timers(
        Path(path), tree, source.splitlines()
    )


class TestRl007:
    def test_flags_print_in_library_code(self, lint):
        problems = _check_rl007(lint, "print('done')\n")
        assert len(problems) == 1
        assert "RL007" in problems[0]
        assert "Console" in problems[0]

    def test_flags_perf_counter_timer(self, lint):
        """Mutation test: RL002 only watches identity modules; RL007
        must flag an ad-hoc timer anywhere in src/repro."""
        problems = _check_rl007(lint, (
            "start = time.perf_counter()\n"
            "work()\n"
            "elapsed = time.perf_counter() - start\n"
        ))
        assert len(problems) == 2
        assert all("repro.obs.timing" in item for item in problems)

    def test_flags_monotonic_and_wall_clock_timers(self, lint):
        assert len(_check_rl007(lint, "t = time.monotonic()\n")) == 1
        assert len(_check_rl007(lint, "t = time.time()\n")) == 1

    def test_waiver_on_line_or_preceding_line(self, lint):
        assert _check_rl007(
            lint, "print(text)  # RL007: console rendering\n"
        ) == []
        assert _check_rl007(lint, (
            "# RL007: the sanctioned timer site.\n"
            "return time.perf_counter()\n"
        )) == []

    def test_ignores_method_named_print(self, lint):
        assert _check_rl007(lint, "console.print('fine')\n") == []

    def test_ignores_obs_timing_usage(self, lint):
        assert _check_rl007(lint, (
            "with stopwatch() as watch:\n"
            "    work()\n"
            "record(watch.seconds)\n"
        )) == []

    def test_scoped_to_repro_package(self, lint):
        assert lint._in_repro_package(Path("src/repro/sim/batch.py"))
        assert not lint._in_repro_package(Path("scripts/lint_repro.py"))
        assert not lint._in_repro_package(Path("examples/minimal.py"))

    def test_sanctioned_sites_are_waived_and_bounded(self, lint):
        """Every RL007 waiver lives in the obs rendering/timing layer."""
        root = _SCRIPT.parents[1]
        package = root / "src" / "repro"
        waivers = set()
        for path in sorted(package.rglob("*.py")):
            if "RL007" in path.read_text():
                waivers.add(path.relative_to(package).as_posix())
            assert lint.lint_file(path) == [], path
        assert waivers == {
            "obs/console.py",
            "obs/dashboard.py",
            "obs/timing.py",
        }


def _check_rl008(lint, source: str, path: str = "src/repro/example.py"):
    return lint.check_import_fallbacks(Path(path), ast.parse(source))


class TestRl008:
    def test_flags_import_error_fallback(self, lint):
        """Mutation test: the numpy fallback shape this rule retired."""
        problems = _check_rl008(lint, (
            "try:\n"
            "    from repro.sim.batch import batch_scan_program\n"
            "except ImportError:\n"
            "    batch_scan_program = None\n"
        ))
        assert len(problems) == 1
        assert "RL008" in problems[0]
        assert ":3:" in problems[0]

    def test_flags_import_error_in_tuple(self, lint):
        problems = _check_rl008(lint, (
            "try:\n"
            "    run()\n"
            "except (ImportError, ConfigurationError):\n"
            "    pass\n"
        ))
        assert len(problems) == 1

    def test_flags_module_not_found_error(self, lint):
        assert len(_check_rl008(lint, (
            "try:\n"
            "    import numpy\n"
            "except ModuleNotFoundError:\n"
            "    numpy = None\n"
        ))) == 1

    def test_ignores_other_handlers(self, lint):
        assert _check_rl008(lint, (
            "try:\n"
            "    run()\n"
            "except (ConfigurationError, OSError):\n"
            "    pass\n"
            "except Exception:\n"
            "    raise\n"
            "try:\n"
            "    run()\n"
            "except:\n"
            "    raise\n"
        )) == []

    def test_scoped_to_repro_package(self, lint, tmp_path):
        source = "try:\n    import x\nexcept ImportError:\n    x = None\n"
        outside = tmp_path / "scripts" / "tool.py"
        outside.parent.mkdir()
        outside.write_text(source)
        assert lint.lint_file(outside) == []
        inside = tmp_path / "src" / "repro" / "mod.py"
        inside.parent.mkdir(parents=True)
        inside.write_text(source)
        problems = lint.lint_file(inside)
        assert len(problems) == 1 and "RL008" in problems[0]


def _check_rl009(lint, source: str, outside=None):
    return lint.check_unreferenced(
        Path("src/repro/example.py"), ast.parse(source),
        source.splitlines(), outside or {},
    )


class TestRl009:
    def test_flags_unreferenced_function_class_and_method(self, lint):
        problems = _check_rl009(lint, (
            "def orphan():\n"
            "    return 1\n"
            "class Lonely:\n"
            "    def unused_method(self):\n"
            "        return 2\n"
        ))
        assert [p.split(": ")[1].split()[:2] for p in problems] == [
            ["RL009", "orphan"],
            ["RL009", "Lonely"],
            ["RL009", "unused_method"],
        ]
        assert ":1:" in problems[0] and ":4:" in problems[2]

    def test_reference_in_same_file_or_elsewhere_is_clean(self, lint):
        source = (
            "def helper():\n"
            "    return 1\n"
            "def exported():\n"
            "    return helper()\n"
        )
        assert _check_rl009(lint, source, {"exported": 2}) == []
        problems = _check_rl009(lint, source)
        assert len(problems) == 1 and "exported" in problems[0]

    def test_waiver_on_def_line(self, lint):
        assert _check_rl009(lint, (
            "def entry_point():  # RL009: called by name from the CLI\n"
            "    return 1\n"
        )) == []

    def test_ignores_dunders_and_nested_functions(self, lint):
        assert _check_rl009(lint, (
            "class Box:\n"
            "    def __repr__(self):\n"
            "        def inner():\n"
            "            return 'box'\n"
            "        return 'Box'\n"
        ), {"Box": 1}) == []

    def test_reads_references_from_the_repository(self, lint):
        """The default index spans the package and its tests, minus
        the file being linted."""
        path = _SCRIPT.parents[1] / "src" / "repro" / "schedule" / "assign.py"
        assert lint.words_outside(path, {"assign_wires"})["assign_wires"] > 0
        here = Path(__file__).resolve()
        assert lint.words_outside(here, {"TestRl009"}) == {"TestRl009": 0}

    def test_scoped_to_repro_package(self, lint, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "words_outside",
                            lambda path, names: {})
        source = "def orphan_tool():\n    return 1\n"
        outside = tmp_path / "scripts" / "tool.py"
        outside.parent.mkdir()
        outside.write_text(source)
        assert lint.lint_file(outside) == []
        inside = tmp_path / "src" / "repro" / "mod.py"
        inside.parent.mkdir(parents=True)
        inside.write_text(source)
        problems = lint.lint_file(inside)
        assert len(problems) == 1 and "RL009" in problems[0]
