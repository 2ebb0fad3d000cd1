"""Self-test of the benchmark's correctness gate and tracer.

Run from the root of a checkout:  python3 -m pytest -q ekrbench
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

import gate
import run
import tracer

PROBE = run.Invocation(["verify-all", "--max-n", "1"])


@pytest.fixture(scope="module")
def probe():
    """A real report of a cheap invocation and its recorded form."""
    run.OUT.mkdir(exist_ok=True)
    rec = run._spawn(PROBE, "selftest-probe", None, time.monotonic() + 60)
    assert rec["exit"] == 0
    report = json.loads(Path(rec["stdout"]).read_text(encoding="utf-8"))
    recorded = json.loads((run.GOLDEN / f"{PROBE.slug}.json").read_text(encoding="utf-8"))
    return report, recorded


def _problems(recorded, report, exit_code=0):
    return gate.problems(recorded, exit_code, json.dumps(report))


def test_unchanged_report_passes(probe):
    report, recorded = probe
    assert _problems(recorded, report) == []


def test_report_may_gain_checks_and_fields(probe):
    report, recorded = probe
    grown = copy.deepcopy(report)
    grown["checks"].append({"name": "a-new-check", "pass": True, "method": "x"})
    grown["result"]["timings"] = {"total_s": 0.1}
    grown["checks"][0]["method"] = "fraction-free-elimination"
    assert _problems(recorded, grown) == []


def test_flipped_check_fails(probe):
    report, recorded = probe
    flipped = copy.deepcopy(report)
    flipped["checks"][0]["pass"] = False
    assert _problems(recorded, flipped)


def test_removed_check_fails(probe):
    report, recorded = probe
    removed = copy.deepcopy(report)
    del removed["checks"][1]
    assert any("missing" in p for p in _problems(recorded, removed))


def test_changed_detail_value_fails(probe):
    report, recorded = probe
    changed = copy.deepcopy(report)
    changed["checks"][0]["value"] = "1"
    assert _problems(recorded, changed)


def test_nonzero_exit_fails(probe):
    report, recorded = probe
    assert _problems(recorded, report, exit_code=1) == ["exit code 1"]


def test_unparseable_output_fails(probe):
    _, recorded = probe
    assert gate.problems(recorded, 0, "Traceback (most recent call last):")


def test_hashed_lists_detect_changes():
    values = [str(v) for v in range(40)]
    recorded = gate.record({"result": {"values": values}, "checks": []})
    assert gate.HASHED in recorded["result"]["values"]
    changed = {"result": {"values": values[:-1] + ["x"]}, "checks": [], "pass": True}
    recorded["pass"] = True
    assert gate.problems(recorded, 0, json.dumps(changed))


def test_every_binding_is_wrapped():
    sys.path.insert(0, str(run.SRC))
    tr = tracer.Tracer()
    tr.install()
    from ekrperm import cli, ekrverify, graphs, linalg, permgroup, scheme

    assert ekrverify.group_data is scheme.group_data
    assert ekrverify.rank is linalg.bareiss_rank
    assert ekrverify.max_independent_sets is graphs.max_independent_sets
    assert cli._CLIQUE_METHODS["latin"] is graphs.latin_clique
    assert hasattr(graphs.validate_family, "__wrapped__")
    assert not hasattr(permgroup.agreements, "__wrapped__")
    linalg.bareiss_rank([[1, 2], [2, 4]])
    assert tr.stats["linalg.bareiss_rank"][0] == 1
    assert tr.counters["bareiss_cells"] == 4


def test_traced_self_times_sum_to_traced_wall():
    """Self times partition the traced run; what lies outside is set-up or overhead."""
    run.OUT.mkdir(exist_ok=True)
    inv = run.Invocation(["lemmas", "5"])
    deadline = time.monotonic() + 120
    plain = run._spawn(inv, "selftest-plain", None, deadline)
    spans_path = run.OUT / "selftest-traced.spans.json"
    traced = run._spawn(inv, "selftest-traced", spans_path, deadline)
    assert plain["exit"] == traced["exit"] == 0
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    self_sum = sum(f["self_s"] for f in data["functions"].values())
    root = data["functions"][tracer.ROOT]["inclusive_s"]
    assert self_sum == pytest.approx(root, abs=1e-6)
    report = json.loads(Path(traced["stdout"]).read_text(encoding="utf-8"))
    assert report["wall_time_s"] - 0.001 <= root <= traced["raw_wall_s"]
    plain_report = json.loads(Path(plain["stdout"]).read_text(encoding="utf-8"))
    setup = plain["raw_wall_s"] - plain_report["wall_time_s"]
    overhead = traced["raw_wall_s"] - plain["raw_wall_s"]
    slack = 0.05
    assert traced["raw_wall_s"] - self_sum <= setup + max(overhead, 0.0) + slack
