"""ekrperm benchmark: real CLI invocations, timed from outside, with a correctness gate.

Usage, from the root of a checkout:

    python3 ekrbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Every invocation is ``python -m ekrperm ...`` in a fresh interpreter, so the
module-level caches are cold exactly as they are for a user.  Children run one
at a time and are reaped with ``os.wait4`` for their peak RSS.  A run repeats
the workload until ``--seconds`` have passed (at least once) and reports
medians.  With ``--trace 1`` it alternates traced and untraced iterations and
reports the per-module breakdown instead of the end-to-end metrics.

Times are reported at a reference core speed.  The harness and its children
are pinned to one CPU, and a probe thread on that CPU times a fixed
Fraction-arithmetic kernel every 50 ms by its own CPU time.  A child's wall
time is multiplied by its mean speed (1 / probe time) while it ran, over the
reference speed 1 / REFERENCE_PROBE_S.
On shared machines the speed of a core drifts by tens of percent over seconds
to minutes, and this removes most of that drift; the raw wall times are kept
in the record.  The last line of stdout is the JSON result; the full record,
with the machine description, goes to .ekrbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
OUT = ROOT / ".ekrbench-out"
# Every invocation must be reaped before this, so a run ends within 180 s.
HARD_DEADLINE_S = 170.0
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PROBE_INTERVAL_S = 0.05
# Roughly the probe kernel's CPU time on a 2-core Intel Xeon VM under Python
# 3.11; it only fixes the unit of the scaled times.
REFERENCE_PROBE_S = 0.001


class Invocation:
    """One CLI call: its arguments, its recorded-report name, its seeded fields."""

    def __init__(self, argv, seed=None):
        self.argv = [str(a) for a in argv]
        self.seed = seed
        words = list(self.argv)
        if seed is not None:
            at = words.index("--seed")
            del words[at : at + 2]
        self.slug = "_".join(words)

    @property
    def volatile(self):
        # identity-check draws its vectors from --seed: the first-trial values
        # and the echoed seed change with it, and are checked by property.
        if self.seed is None:
            return ()
        return ("parameters.seed", "result.seed", "result.first_trial")


def workloads(seed: int) -> dict[str, dict]:
    """Invocations of each workload; the seed reaches only identity-check."""
    return {
        "verify-all": {
            "invocations": [Invocation(["verify-all", "--max-n", "9"])],
            # One invocation per run: sample its set-up again on the same CLI path.
            "setup_probes": [Invocation(["verify-all", "--max-n", "1"])] * 4,
        },
        "spans": {
            "invocations": [
                Invocation(["conjecture", "6", "--t", "2"]),
                Invocation(["conjecture", "6", "--t", "1"]),
                Invocation(["identity-check", "6", "--trials", "20", "--seed", seed], seed),
                Invocation(["bounds", "6"]),
                Invocation(["search", "6"]),
            ],
            "setup_probes": [],
        },
        "spectra": {
            "invocations": [Invocation(["spectrum", "16", "--t", t]) for t in (0, 1, 2, 3)]
            + [Invocation(["chartab", "12"])],
            "setup_probes": [],
        },
    }


WORKLOAD_NAMES = tuple(workloads(0))


def _probe_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Samples the speed of the CPU the children run on, from a thread pinned to it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        at = time.perf_counter()
        cpu = time.thread_time()
        _probe_kernel()
        self.samples.append((at, time.thread_time() - cpu))

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """Mean speed between start and end over the reference speed.

        Speed is 1 / probe time, so work done in the interval is its length
        times the mean speed, and the time the same work takes at the
        reference speed is that length times this scale.
        """
        samples = list(self.samples)
        inside = [d for t, d in samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
        return REFERENCE_PROBE_S * statistics.fmean(1 / d for d in inside)


def _spawn(inv: Invocation, tag: str, spans_path: Path | None, deadline: float) -> dict:
    """Run one child to completion; wall time and ru_maxrss come from wait4."""
    stdout_path = OUT / f"{tag}.stdout"
    stderr_path = OUT / f"{tag}.stderr"
    if spans_path is None:
        cmd = [sys.executable, "-m", "ekrperm", *inv.argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), "--", *inv.argv]
    env = dict(os.environ, **CHILD_ENV)
    with open(stdout_path, "w", encoding="utf-8") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    return {
        "argv": inv.argv,
        "exit": proc.returncode,
        "start": start,
        "end": end,
        "raw_wall_s": end - start,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": str(stdout_path),
        "stderr": stderr_path.read_text(errors="replace")[-2000:],
        "spans": str(spans_path) if spans_path else None,
    }


def _validate(inv: Invocation, rec: dict) -> None:
    """Fill in rec['problems'] and rec['raw_setup_s'] from the child's report."""
    golden = GOLDEN / f"{inv.slug}.json"
    stdout = Path(rec["stdout"]).read_text(encoding="utf-8")
    if not golden.is_file():
        rec["problems"] = [f"no recorded report {golden.name}"]
        return
    recorded = json.loads(golden.read_text(encoding="utf-8"))
    rec["problems"] = gate.problems(recorded, rec["exit"], stdout)
    try:
        report = json.loads(stdout)
        rec["raw_setup_s"] = rec["raw_wall_s"] - float(report["wall_time_s"])
    except (ValueError, KeyError, TypeError):
        return
    if inv.seed is not None:
        result = report.get("result", {})
        first = result.get("first_trial", {})
        if result.get("seed") != inv.seed:
            rec["problems"].append("report does not echo the seed")
        if not first or first.get("lhs") != first.get("rhs"):
            rec["problems"].append("first trial sides differ")


def run_iteration(invs, tag: str, traced: bool, deadline: float) -> dict:
    """All invocations back to back; validation happens after the clock stops."""
    records = []
    for k, inv in enumerate(invs):
        spans = OUT / f"{tag}-{k}.spans.json" if traced else None
        records.append(_spawn(inv, f"{tag}-{k}", spans, deadline))
    for inv, rec in zip(invs, records):
        _validate(inv, rec)
    start, end = records[0]["start"], records[-1]["end"]
    return {"start": start, "end": end, "raw_wall_s": end - start, "invocations": records}


def _apply_scale(probe: SpeedProbe, iterations, extra=()) -> None:
    for it in iterations:
        it["scale"] = probe.scale(it["start"], it["end"])
        it["wall_s"] = it["raw_wall_s"] * it["scale"]
        for rec in it["invocations"]:
            _scale_record(probe, rec)
    for rec in extra:
        _scale_record(probe, rec)


def _scale_record(probe: SpeedProbe, rec: dict) -> None:
    rec["scale"] = probe.scale(rec["start"], rec["end"])
    if "raw_setup_s" in rec:
        rec["setup_s"] = rec["raw_setup_s"] * rec["scale"]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(iterations, probes) -> dict:
    # Per invocation, the median of its set-up samples; setup_s is their sum.
    samples: dict[int, list[float]] = {}
    for it in iterations:
        for k, rec in enumerate(it["invocations"]):
            if "setup_s" in rec:
                samples.setdefault(k, []).append(rec["setup_s"])
    for rec in probes:
        if "setup_s" in rec:
            samples.setdefault(0, []).append(rec["setup_s"])
    return {
        "wall_s": {"value": _median([it["wall_s"] for it in iterations]), "unit": "s"},
        "setup_s": {"value": sum(_median(v) for v in samples.values()), "unit": "s"},
        "peak_rss_mb": {
            "value": _median([max(r["rss_mb"] for r in it["invocations"]) for it in iterations]),
            "unit": "MiB",
        },
    }


LAYER_MODULES = ("linalg", "ekrverify", "scheme", "chartab", "graphs", "permgroup", "cli")


def _layers_of(iteration) -> dict:
    """Per-layer totals of one traced iteration, summed over its invocations."""
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    mn = {"hits": 0, "misses": 0}
    for rec in iteration["invocations"]:
        path = rec.get("spans")
        if not path or not Path(path).is_file():
            continue
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        scale = rec["scale"]
        for key, f in data["functions"].items():
            incl[key] = incl.get(key, 0.0) + f["inclusive_s"] * scale
            calls[key] = calls.get(key, 0) + f["calls"]
            module = key.split(".")[0]
            self_s[module] = self_s.get(module, 0.0) + f["self_s"] * scale
        for name, v in data["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name in mn:
            mn[name] += data["caches"]["chartab._murnaghan_nakayama"][name]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{mod}.self_s": self_s.get(mod, 0.0) for mod in LAYER_MODULES}
    m.update({
        "linalg.rref_s": incl.get("linalg.rref", 0.0),
        "linalg.rref_cells": counters.get("rref_cells", 0),
        "linalg.solve_calls": calls.get("linalg.solve", 0),
        "linalg.bareiss_s": incl.get("linalg.bareiss_rank", 0.0),
        "linalg.bareiss_cells": counters.get("bareiss_cells", 0),
        "linalg.rank_mod_p_s": incl.get("linalg.rank_mod_p", 0.0),
        "linalg.modular_certified_ratio": ratio(
            counters.get("modular_certified", 0), calls.get("linalg.certified_rank", 0)
        ),
        "ekrverify.classify_s": incl.get("ekrverify.classify_maximum_sets", 0.0),
        "ekrverify.kernel_membership_s": incl.get("ekrverify.kernel_membership_check", 0.0),
        "ekrverify.module_support_s": incl.get("ekrverify.module_support", 0.0),
        "ekrverify.module_support_calls": calls.get("ekrverify.module_support", 0),
        "ekrverify.depth_s": incl.get("ekrverify.depth_conjecture_dims", 0.0),
        "scheme.group_tables_s": incl.get("scheme.GroupData", 0.0)
        + incl.get("scheme.GroupData.mult", 0.0),
        "scheme.qform_calls": calls.get("scheme.class_quadratic_forms", 0),
        "scheme.qform_pairs": counters.get("qform_pairs", 0),
        "scheme.module_form_calls": calls.get("scheme.module_quadratic_form", 0),
        "chartab.character_value_calls": calls.get("chartab.character_value", 0),
        "chartab.mn_states": mn["misses"],
        "chartab.mn_hit_ratio": ratio(mn["hits"], mn["hits"] + mn["misses"]),
        "graphs.search_s": incl.get("graphs.max_independent_sets", 0.0),
        "graphs.validated_pairs": counters.get("validated_pairs", 0),
        "permgroup.calls": sum(v for k, v in calls.items() if k.startswith("permgroup.")),
    })
    return m


def per_layer(untraced, traced) -> dict:
    layers = [_layers_of(it) for it in traced]
    out = {}
    for name in layers[0]:
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": _median([m[name] for m in layers]), "unit": unit}
    overhead = 0.0
    if untraced:
        overhead = _median([it["wall_s"] for it in traced]) - _median(
            [it["wall_s"] for it in untraced]
        )
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ekrperm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    """HEAD of the checkout when it is a git work tree; the source digest otherwise."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(cpu: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "pinned_cpu": cpu,
        "child_env": CHILD_ENV | {"PYTHONPATH": "src"},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = workloads(seed)[name]
    invs = spec["invocations"]
    deadline = time.monotonic() + HARD_DEADLINE_S
    untraced, traced, probes = [], [], []
    started = time.monotonic()
    with SpeedProbe() as probe:
        k = 0
        while True:
            tag = f"{name}-seed{seed}-trace{int(trace)}-it{k}"
            if trace:
                traced.append(run_iteration(invs, tag + "-traced", True, deadline))
                # The untraced twin only measures overhead; skip it if it may not finish.
                if time.monotonic() + 1.2 * traced[-1]["raw_wall_s"] < deadline:
                    untraced.append(run_iteration(invs, tag, False, deadline))
            else:
                untraced.append(run_iteration(invs, tag, False, deadline))
            k += 1
            if time.monotonic() - started >= seconds:
                break
        if not trace:
            for j, inv in enumerate(spec["setup_probes"]):
                rec = _spawn(inv, f"{name}-seed{seed}-probe{j}", None, deadline)
                _validate(inv, rec)
                probes.append(rec)
    _apply_scale(probe, untraced + traced, probes)
    records = [r for it in untraced + traced for r in it["invocations"]] + probes
    failed = sum(1 for r in records if r.get("problems"))
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, probes)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": len(traced) if trace else len(untraced),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "runs": {"untraced": untraced, "traced": traced, "setup_probes": probes},
        "speed_samples": len(probe.samples),
    }


def _print_summary(res: dict) -> None:
    runs = res["runs"]
    print(
        f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}"
        f"  iterations {res['iterations']}"
    )
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:>16.6f} ratio"
          f"  ({res['failed']}/{res['attempted']} invocations failed)")
    iterations = runs["traced"] if res["trace"] else runs["untraced"]
    raw = _median([it["raw_wall_s"] for it in iterations])
    scale = _median([it["scale"] for it in iterations])
    print(f"  {'raw_wall_s (unscaled)':34s} {raw:>16.6f} s  (speed scale {scale:.3f})")
    for rec in [r for it in runs["untraced"] + runs["traced"] for r in it["invocations"]] + runs[
        "setup_probes"
    ]:
        if rec.get("problems"):
            print(f"  FAILED {' '.join(rec['argv'])}: {'; '.join(rec['problems'][:5])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ekrperm" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no ekrperm sources under {SRC} to benchmark", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Children inherit the pin, so the probe thread times the CPU they run on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment(cpu)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["environment"] = env
        out_path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(res, indent=1), encoding="utf-8")
        _print_summary(res)
        results.append(res)
    print("environment " + json.dumps(env))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
