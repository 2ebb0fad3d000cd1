"""Command-line verification reports.

Every subcommand prints one JSON report (or a plain-text rendering with
--text) and exits 0 only when all of its checks pass.  COMMANDS holds each
subcommand's help, extra arguments, closed degree range and the module of its
handler: this one for the commands that read only chartab and permgroup,
groupcmds for the rest.  This module, chartab, permgroup and errors import no
NumPy, so spectrum, chartab and derangements compile no array code.  A degree
outside the range, or a --t outside 0..n-1, is rejected before any work.  Exit
codes: 1 a check failed or a supplied family was invalid, 2 usage error
(including such a --t, a --trials or --workers below 1 and an unwritable
--out), 3 degree outside the range in COMMANDS or outside a library function's
own range, 4 construction unavailable at that degree, 5 an internal invariant
failed (a bug, reported in one line without a traceback).  A reader that
closes stdout early leaves the exit code as it was.  Reports are
byte-identical across runs except for wall_time_s.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from math import factorial
from typing import NamedTuple

from . import chartab, permgroup
from .errors import (
    DegreeRangeError,
    FamilyValidationError,
    UnsupportedConstructionError,
)


def _lazy_submodule(name: str):
    """The package's submodule name, whose body runs on its first attribute use.

    The module object enters sys.modules (and the package's namespace) at
    once, as an eager import would put it there, so every importer shares
    it; a module already in sys.modules is returned as it is.
    """
    qualified = f"{__package__}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# The handlers of the group-table subcommands; cliques, cocliques and search;
# the group tables and quadratic forms; the incidence lemmas, depth spans and
# their linear algebra.  spectrum, chartab and derangements read none of them.
groupcmds = _lazy_submodule("groupcmds")
graphs = _lazy_submodule("graphs")
scheme = _lazy_submodule("scheme")
ekrverify = _lazy_submodule("ekrverify")

SCHEMA = "ekrperm-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGREE = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 5

# The exit code of each error a handler raises; the first match counts.
_ERROR_EXITS = {
    DegreeRangeError: EXIT_DEGREE,
    UnsupportedConstructionError: EXIT_UNSUPPORTED,
    FamilyValidationError: EXIT_CHECK_FAILED,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    AssertionError: EXIT_INTERNAL,
}


def exact(value):
    """Exact numbers as strings so no JSON consumer can round them."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    # a Fraction exists only once fractions is imported, which this never does
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"not an exact scalar: {value!r}")


def check(name: str, ok: bool, **detail):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(detail)
    return entry


# --- subcommand handlers -------------------------------------------------
# Each returns (result, checks) and takes its parsed arguments as keywords.
# These read only chartab and permgroup; the rest are in groupcmds.


def run_derangements(n: int):
    count = permgroup.derangement_count(n)
    checks = []
    if n <= 12:
        class_sum = sum(
            cls.size for cls in permgroup.classes_with_few_fixed_points(n, 0)
        )
        checks.append(
            check("matches-class-size-sum", class_sum == count, value=exact(class_sum))
        )
    if n <= 8:
        brute = sum(permgroup.derangements_by_last_image(n))
        checks.append(check("matches-brute-force", brute == count, value=exact(brute)))
    return {"n": n, "count": exact(count)}, checks


def run_chartab(n: int):
    table = chartab.character_table(n)
    checks = [
        check("row-orthogonality", chartab.check_row_orthogonality(table)),
        check("column-orthogonality", chartab.check_column_orthogonality(table)),
        # the identity class is the last column, (n-1, 1) the second row
        check(
            "dimension-squares-sum",
            sum(row[-1] ** 2 for row in table.values) == factorial(n),
        ),
    ]
    standard_ok = n < 2 or all(
        value == cycles.count(1) - 1
        for value, cycles in zip(table.values[1], table.partitions)
    )
    checks.append(check("standard-character-is-fix-minus-1", standard_ok))
    result = {
        "n": n,
        "partitions": [permgroup.one_line(shape) for shape in table.partitions],
        "values": [[exact(v) for v in row] for row in table.values],
    }
    return result, checks


def run_spectrum(n: int, t: int):
    spectrum = chartab.union_spectrum(n, t)
    least, achieved = spectrum.least()
    entries = [
        {
            "partition": permgroup.one_line(shape),
            "eigenvalue": exact(ev),
            "multiplicity": exact(m),
        }
        for shape, ev, m in zip(
            spectrum.partitions, spectrum.eigenvalues, spectrum.multiplicities
        )
    ]
    checks = [
        check(
            "multiplicities-sum-to-order",
            sum(spectrum.multiplicities) == factorial(n),
        ),
        check(
            "trivial-eigenvalue-is-valency",
            spectrum.eigenvalues[0] == spectrum.valency,
        ),
    ]
    if t == 0 and n >= 2:
        d = permgroup.derangement_count(n)
        checks.append(check("valency-is-derangement-count", spectrum.valency == d))
        checks.append(
            check(
                "standard-eigenvalue-closed-form",
                spectrum.eigenvalue((n - 1, 1)) * (n - 1) == -d,
            )
        )
    result = {
        "n": n,
        "t": t,
        "entries": entries,
        "least": {
            "value": exact(least),
            "achieved": [permgroup.one_line(s) for s in achieved],
        },
        "valency": exact(spectrum.valency),
    }
    return result, checks


def run_least_eigenvalue(n: int):
    spectrum = chartab.union_spectrum(n, 0)
    least, _ = spectrum.least()
    d = permgroup.derangement_count(n)
    checks = [
        check(
            "equals--d/(n-1)",
            least * (n - 1) == -d,
            value=exact(least),
        )
    ]
    return {"n": n, "least": exact(least)}, checks


# clique --method choices and the graphs functions that build them, by name,
# so that the command table does not load graphs
_CLIQUE_CONSTRUCTIONS = {
    "latin": "latin_clique",
    "odd-latin": "odd_n_latin_clique",
    "cycles": "cycle_decomposition_clique",
    "affine": "affine_clique",
}


def __getattr__(name: str):
    # _CLIQUE_METHODS maps each choice to the function graphs binds now; built
    # when read (PEP 562), so only a reader loads graphs
    if name == "_CLIQUE_METHODS":
        return {
            method: getattr(graphs, function)
            for method, function in _CLIQUE_CONSTRUCTIONS.items()
        }
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _params_label(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


# --- the command table ----------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its help, closed degree range and extra arguments.

    The handler is run_<name with - as _> in the package submodule named by
    module, looked up when the command runs so that a replaced module
    attribute takes effect.  The degree argument is the positional n, or an option
    (defaulting to hi) when degree names one.
    """

    help: str
    lo: int
    hi: int
    arguments: tuple = ()
    degree: str = "n"
    module: str = "groupcmds"

    @property
    def span(self) -> str:
        return f"{self.degree} from {self.lo} to {self.hi}"


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


_T = ("--t", {"type": int, "default": 0})
_WORKERS = ("--workers", {"type": _at_least_one, "default": 1})
# Times below are single runs on a 2-core x86-64 VM.  Explicit cliques and
# family files take about a second at most up to here (cycles at 127: 0.3 s,
# odd-latin at 101: 1.2 s).
_EXPLICIT_MAX_DEGREE = 128
_DENSE = permgroup.MAX_DENSE_DEGREE

COMMANDS = {
    # D(1700) has more digits than Python turns into a string by default.
    "derangements": Command(
        "fixed-point-free permutation counts", 1, 1000, module="cli"
    ),
    "chartab": Command(
        "exact character table", 1, chartab.MAX_TABLE_DEGREE,
        (("--csv", {"action": "store_true", "help": "emit CSV instead of JSON"}),),
        module="cli",
    ),
    # About 0.2 s at n = 30 for every t; the run time does not grow with t.
    "spectrum": Command(
        "eigenvalues of the agreement-at-most-t graph", 1, 30, (_T,), module="cli"
    ),
    # 0.6 s at n = 8 (0.4 s with --t 1); n = 9 would take about 14 s.
    "bounds": Command("clique-coclique product and ratio bound", 2, 8, (_T,)),
    "clique": Command(
        "build and validate an explicit clique", 2, _EXPLICIT_MAX_DEGREE,
        (("--method", {"required": True, "choices": sorted(_CLIQUE_CONSTRUCTIONS)}),),
    ),
    "search": Command("exhaustive maximum independent sets", 2, _DENSE, (_T, _WORKERS)),
    "classify": Command(
        "match every maximum independent set to a point family", 2, _DENSE
    ),
    "lemmas": Command(
        "incidence-matrix rank, kernel and basis checks",
        3, permgroup.MAX_INCIDENCE_DEGREE,
    ),
    "conjecture": Command(
        "depth-bounded eigenspace dimension comparison", 3, _DENSE,
        (("--t", {"type": int, "default": 1}),),
    ),
    "identity-check": Command(
        "class/eigenspace quadratic-form identity", 1, _DENSE,
        (
            ("--trials", {"type": _at_least_one, "default": 20}),
            ("--seed", {"type": int, "default": 2024}),
            _T,
        ),
    ),
    "quotient": Command(
        "equitable two-cell quotient of the derangement graph",
        2, permgroup.MAX_QUOTIENT_DEGREE,
    ),
    "validate": Command(
        "validate a family file as an independent set", 1, _EXPLICIT_MAX_DEGREE,
        (("--family", {"required": True, "metavar": "PATH"}), _T),
    ),
    "verify-all": Command(
        "run every check across the supported degrees", 1, 9, (_WORKERS,), "--max-n"
    ),
}


# --- report plumbing ------------------------------------------------------


def render_text(report: dict) -> str:
    lines = []
    status = "PASS" if report["pass"] else "FAIL"
    params = _params_label(report["parameters"])
    lines.append(f"{report['command']}({params}): {status}")
    for c in report["checks"]:
        mark = "ok " if c["pass"] else "FAIL"
        extra = {
            k: v for k, v in c.items() if k not in ("name", "pass")
        }
        suffix = f"  {extra}" if extra else ""
        lines.append(f"  [{mark}] {c['name']}{suffix}")
    lines.append(_render_value("result", report["result"], 0))
    lines.append(f"wall_time_s: {report['wall_time_s']}")
    return "\n".join(lines)


def _render_value(key, value, depth) -> str:
    pad = "  " * depth
    if isinstance(value, dict):
        head = [f"{pad}{key}:"]
        for k, v in value.items():
            head.append(_render_value(k, v, depth + 1))
        return "\n".join(head)
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return f"{pad}{key}: {value}"
        head = [f"{pad}{key}:"]
        for idx, v in enumerate(value):
            head.append(_render_value(str(idx), v, depth + 1))
        return "\n".join(head)
    return f"{pad}{key}: {value}"


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each command in names.

    Its usage line lists every command whatever names holds, so an error
    raised by a parser built for some commands reads as from the full tree.
    """
    parser = argparse.ArgumentParser(
        prog="ekrperm",
        description=(
            "Exact verification suite for agreement graphs on symmetric groups:"
            " spectra, cliques, independent-set bounds, and the supporting"
            " linear algebra."
        ),
    )
    output_opts = argparse.ArgumentParser(add_help=False)
    output_opts.add_argument(
        "--text", action="store_true", help="human-readable output"
    )
    output_opts.add_argument(
        "--out", metavar="PATH", help="also write the report here"
    )
    # argparse lists the commands built; the full tree keeps that listing,
    # since a metavar also renames the argument in its errors ("argument
    # command: invalid choice")
    every = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if list(names) == list(COMMANDS) else every,
    )
    for name in names:
        cmd = COMMANDS[name]
        p = sub.add_parser(
            name,
            help=f"{cmd.help} ({cmd.span})",
            description=f"{cmd.help}; {cmd.span}.",
            parents=[output_opts],
        )
        # A positional n is required, so only --max-n ever takes the default.
        p.add_argument(
            cmd.degree, type=int, default=cmd.hi, help=f"from {cmd.lo} to {cmd.hi}"
        )
        for flag, spec in cmd.arguments:
            p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds only its own subparser; with no command, or an unknown one,
    # the full tree prints the help and errors that list every command
    names = [name for name in argv[:1] if name in COMMANDS] or COMMANDS
    args = build_parser(names).parse_args(argv)
    options = {
        k: v for k, v in vars(args).items() if k not in ("command", "text", "out")
    }
    parameters = {k: v for k, v in sorted(options.items()) if v is not None}
    cmd = COMMANDS[args.command]
    degree = options[cmd.degree.lstrip("-").replace("-", "_")]
    csv = options.pop("csv", False)
    try:
        # before the handler's module loads, so a rejected degree loads nothing
        permgroup.need_degree(args.command, degree, cmd.lo, cmd.hi, cmd.degree)
        home = importlib.import_module(f"{__package__}.{cmd.module}")
        handler = getattr(home, f"run_{args.command.replace('-', '_')}")
        started = time.perf_counter()
        if "t" in options:  # every --t is an agreement threshold in S(n)
            permgroup.need_threshold(options["n"], options["t"])
        result, checks = handler(**options)
    except tuple(_ERROR_EXITS) as exc:
        code = next(v for kind, v in _ERROR_EXITS.items() if isinstance(exc, kind))
        internal = "internal check failed: " if code == EXIT_INTERNAL else ""
        print(f"error: {internal}{exc}", file=sys.stderr)
        return code
    elapsed = round(time.perf_counter() - started, 3)
    all_pass = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "parameters": parameters,
        "result": result,
        "checks": checks,
        "pass": all_pass,
        "wall_time_s": elapsed,
    }
    if csv:
        output = chartab.table_to_csv(chartab.character_table(args.n))
    elif args.text:
        output = render_text(report)
    else:
        output = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    code = EXIT_OK if all_pass else EXIT_CHECK_FAILED
    try:
        print(output, flush=True)
    except OSError as exc:
        # point stdout at devnull so the flush at exit cannot fail again; a
        # reader that left early keeps the report's own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
