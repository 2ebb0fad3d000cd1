"""Run one ekrperm CLI invocation with spans around each module's public functions.

Usage: python ekrbench/tracer.py SPANS_JSON -- <ekrperm arguments>

The ekrperm package is imported from PYTHONPATH as usual.  Every public
function of the seven modules is wrapped, and every module-level binding of it
in the package is pointed at the wrapper, because ``from .scheme import
group_data`` and ``rank = linalg.bareiss_rank`` copy the reference.  The
per-element helpers in SKIP are left alone so their time stays in the
caller's self time.  Spans are kept in memory and written to SPANS_JSON when
the invocation returns; the report still goes to stdout and the exit code is
the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "ekrperm"
MODULES = ("permgroup", "chartab", "scheme", "graphs", "ekrverify", "linalg", "cli")
SKIP = {
    "permgroup.agreements",
    "permgroup.compose",
    "permgroup.cycle_type_of_images",
    "cli.exact",
    "cli.check",
    "cli.plabel",
}
ROOT = "cli.main"
# Spans shorter than this are only aggregated, not kept one by one.
KEEP_SPAN_S = 0.001


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _support_sq(x) -> int:
    support = sum(1 for v in x if v)
    return support * support


def _pairs(members) -> int:
    m = len(members)
    return m * (m - 1) // 2


# key -> (counter, function of (args, result) giving its increment)
COUNTERS = {
    "linalg.rref": ("rref_cells", lambda a, r: _cells(a[0])),
    "linalg.bareiss_rank": ("bareiss_cells", lambda a, r: _cells(a[0])),
    "linalg.certified_rank": (
        "modular_certified",
        lambda a, r: int(r[1] == "modular-certificate"),
    ),
    "scheme.class_quadratic_forms": ("qform_pairs", lambda a, r: _support_sq(a[0])),
    "graphs.validate_family": ("validated_pairs", lambda a, r: _pairs(a[0])),
    "graphs.validate_clique": ("validated_pairs", lambda a, r: _pairs(a[0])),
}
# Arguments a counter reads after the call; a one-shot iterator would be
# consumed by the call, so it is materialised first.
MATERIALISE_FIRST_ARG = {"graphs.validate_family", "graphs.validate_clique"}


class Tracer:
    """Span stack plus per-function totals for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.next_id = 0

    def wrap(self, fn, key: str):
        # calls, inclusive seconds (outermost activations only), self seconds, depth
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        counter = COUNTERS.get(key)
        materialise = key in MATERIALISE_FIRST_ARG
        stack, spans, clock = self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialise and args and not hasattr(args[0], "__len__"):
                args = (tuple(args[0]),) + args[1:]
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            stats[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                if stats[3] == 0:
                    stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if duration >= KEEP_SPAN_S:
                    spans.append((span_id, parent, key, start - self.origin, duration))
            if counter is not None:
                name, amount = counter
                self.counters[name] = self.counters.get(name, 0) + amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and repoint every binding of them."""
        importlib.import_module(f"{PACKAGE}.cli")
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(module).items():
                key = f"{short}.{name}"
                if name.startswith("_") or key in SKIP or not callable(obj):
                    continue
                if inspect.isclass(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, key))
        group_data = sys.modules[f"{PACKAGE}.scheme"].GroupData
        group_data.__init__ = self.wrap(group_data.__init__, "scheme.GroupData")
        group_data.mult = property(self.wrap(group_data.mult.fget, "scheme.GroupData.mult"))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, name, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            obj[k] = wrappers[id(v)][1]

    def summary(self) -> dict:
        chartab = sys.modules[f"{PACKAGE}.chartab"]
        info = chartab._murnaghan_nakayama.cache_info()
        return {
            "functions": {
                key: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                for key, s in sorted(self.stats.items())
                if s[0]
            },
            "counters": dict(sorted(self.counters.items())),
            "caches": {"chartab._murnaghan_nakayama": {"hits": info.hits, "misses": info.misses}},
            "spans": [
                {"id": i, "parent": p, "name": k, "start_s": s, "duration_s": d}
                for i, p, k, s, d in sorted(self.spans)
            ],
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <ekrperm arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
