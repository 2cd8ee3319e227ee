"""Output digests and invariants: what makes a workload pass "correct".

Each workload reports one entry per operation::

    {"key": "...", "digest": "<sha256 prefix>", "problems": [...]}

``key`` names the operation's input (a SoC, a scenario, a config hash),
``digest`` hashes its canonical output, and ``problems`` lists broken
invariants.  :func:`judge` adds a problem for every digest that differs
from the one recorded in ``digests.json`` under the same key; keys
without a record (inputs only other seeds draw) are checked by their
invariants alone.  An operation with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def canonical(payload) -> str:
    """Deterministic JSON text (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    """Short SHA-256 of ``payload``'s canonical JSON."""
    return hashlib.sha256(canonical(payload).encode()).hexdigest()[:20]


def op(key: str, payload, problems=()) -> dict:
    """One operation's check entry."""
    return {"key": key, "digest": digest(payload), "problems": list(problems)}


# -- invariants, one function per workload ---------------------------------


def sim_run_problems(cold: dict, warm: dict) -> list[str]:
    """A simulated run passes, and the warm pass repeats the cold one."""
    problems = []
    if cold.get("source") != "simulation":
        problems.append(f"source is {cold.get('source')!r}, not simulation")
    if cold.get("passed") is not True:
        problems.append("clean simulated run did not pass")
    if canonical(cold) != canonical(warm):
        problems.append("warm pass differs from cold pass")
    return problems


def screen_problems(faulty: bool, result: dict) -> list[str]:
    """A clean screen passes; a detectable injected fault fails it."""
    if result.get("source") != "simulation":
        return [f"source is {result.get('source')!r}, not simulation"]
    if not faulty and result.get("passed") is not True:
        return ["clean screen did not pass"]
    if faulty and result.get("passed") is not False:
        return ["detectable fault escaped the screen"]
    return []


def diagnosis_problems(kind: str, screen_passed: bool, rank) -> list[str]:
    """A detected defect ranks first; only an open wire may go undetected.

    ``random_scenario`` stuck-ats are drawn from faults the screen is
    known to detect.  An open wire on a bus wire the schedule leaves
    unused cannot disturb any test, so its screen passes and the
    verdict must then be clean (no candidate to rank).
    """
    if screen_passed:
        if kind != "open-wire":
            return [f"{kind} defect escaped the screen"]
        if rank is not None:
            return ["clean screen produced candidates"]
        return []
    if rank != 1:
        return [f"injected defect ranked {rank}, not first"]
    return []


def sweep_problems(written: dict, resumed: dict, stored: dict) -> list[str]:
    """Resume returns exactly what the write pass stored."""
    problems = []
    if canonical(written) != canonical(resumed):
        problems.append("resumed result differs from written result")
    if canonical(written) != canonical(stored):
        problems.append("stored record differs from written result")
    return problems


# -- judging ---------------------------------------------------------------


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def judge(workload: str, ops: list[dict], recorded: dict) -> list[dict]:
    """``ops`` with digest mismatches against ``recorded`` added."""
    expected = recorded.get(workload, {})
    judged = []
    for entry in ops:
        problems = list(entry["problems"])
        want = expected.get(entry["key"])
        if want is not None and want != entry["digest"]:
            problems.append(
                f"digest {entry['digest']} != recorded {want}"
            )
        judged.append({**entry, "problems": problems})
    return judged


def record(workload: str, ops: list[dict], path: Path = DIGESTS_PATH) -> None:
    """Store ``ops``' digests as the reference for ``workload``."""
    recorded = load_digests(path)
    table = {}
    for entry in ops:
        if entry["problems"]:
            raise ValueError(
                f"refusing to record a failing operation {entry['key']}: "
                f"{entry['problems']}"
            )
        table[entry["key"]] = entry["digest"]
    recorded[workload] = dict(sorted(table.items()))
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
