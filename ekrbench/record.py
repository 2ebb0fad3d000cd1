"""Record the reports every later commit must reproduce.

Usage, from the root of a checkout of the commit to record:

    python3 ekrbench/record.py

Runs each workload's invocations once and writes the recorded form of each
report (see gate.py) to ekrbench/golden/.  Recording is a deliberate act: the
recorded reports are the reference the benchmark's correctness gate holds
every later commit to.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    deadline = time.monotonic() + 3600
    for name, spec in run.workloads(0).items():
        for k, inv in enumerate(spec["invocations"] + spec["setup_probes"][:1]):
            rec = run._spawn(inv, f"record-{name}-{k}", None, deadline)
            report = json.loads(open(rec["stdout"], encoding="utf-8").read())
            if rec["exit"] != 0 or not report["pass"]:
                print(f"error: {' '.join(inv.argv)} did not pass", file=sys.stderr)
                return 1
            path = run.GOLDEN / f"{inv.slug}.json"
            path.write_text(json.dumps(gate.record(report, inv.volatile), indent=1) + "\n")
            print(f"recorded {path.name} ({rec['raw_wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
