"""Correctness gate: a report must keep every recorded check and value.

A recorded report is the report the seed commit printed, minus
``wall_time_s`` and minus the fields that depend on the benchmark seed.  Its
``checks`` list is stored as a dict keyed by check name, so a later report may
gain checks; dicts may gain keys.  Everything that was recorded must come back
unchanged, and every check in the new report must pass.  Long lists of plain
values (a character table, the catalogue of maximum sets) are stored as a
SHA-256 of their canonical JSON to keep the recorded files small.
"""

from __future__ import annotations

import hashlib
import json

HASHED = "$sha256"
HASH_MIN_ITEMS = 16


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(value) -> bool:
    """True for scalars and lists that hold no dict at any depth."""
    if isinstance(value, dict):
        return False
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return True


def _drop(report: dict, path: str) -> None:
    *parents, leaf = path.split(".")
    node = report
    for key in parents:
        node = node.get(key, {})
    node.pop(leaf, None)


def _compact(value):
    if isinstance(value, dict):
        return {k: _compact(v) for k, v in value.items()}
    if isinstance(value, list):
        if len(value) >= HASH_MIN_ITEMS and _plain(value):
            return {HASHED: _digest(value)}
        return [_compact(v) for v in value]
    return value


def record(report: dict, volatile=()) -> dict:
    """The recorded form of a report: what every later report must reproduce."""
    kept = json.loads(json.dumps(report))
    kept.pop("wall_time_s", None)
    for path in volatile:
        _drop(kept, path)
    checks = kept.pop("checks")
    names = [c["name"] for c in checks]
    if len(set(names)) != len(names):
        raise ValueError("check names must be unique to be recorded")
    kept = _compact(kept)
    kept["checks"] = {c["name"]: _compact(c) for c in checks}
    return kept


def _compare(expected, actual, path: str, problems: list[str]) -> None:
    if isinstance(expected, dict) and HASHED in expected:
        if _digest(actual) != expected[HASHED]:
            problems.append(f"{path}: changed")
    elif isinstance(expected, dict):
        if not isinstance(actual, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare(value, actual[key], f"{path}.{key}", problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{path}: expected a list of {len(expected)}")
            return
        for idx, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{idx}]", problems)
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{path}: {actual!r} != recorded {expected!r}")


def problems(recorded: dict, exit_code: int, stdout: str) -> list[str]:
    """Why one invocation failed; an empty list means it passed."""
    found = []
    if exit_code != 0:
        found.append(f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return found + ["stdout is not a JSON report"]
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return found + ["report has no checks list"]
    by_name = {}
    for c in report["checks"]:
        if not isinstance(c, dict) or "name" not in c:
            found.append("malformed check entry")
            continue
        if c["name"] in by_name:
            found.append(f"duplicate check {c['name']}")
        by_name[c["name"]] = c
        if c.get("pass") is not True:
            found.append(f"check failed: {c['name']}")
    if report.get("pass") is not True:
        found.append("report pass flag is not true")
    expected = dict(recorded)
    expected_checks = expected.pop("checks")
    _compare(expected, report, "report", found)
    _compare(expected_checks, by_name, "checks", found)
    return found
