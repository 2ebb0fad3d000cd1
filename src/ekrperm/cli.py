"""Command-line verification reports.

Every subcommand prints one JSON report (or a plain-text rendering with
--text) and exits 0 only when all of its checks pass.  COMMANDS holds each
subcommand's help, extra arguments and closed degree range; a degree outside
that range is rejected before any work.  Exit codes: 1 a check failed or a
supplied family was invalid, 2 usage error (including a --trials or --workers
below 1 and an unwritable --out), 3 degree outside the range in COMMANDS or
outside a library function's own range, 4 construction unavailable at that
degree, 5 an internal invariant failed (a bug, reported in one line without a
traceback).  A reader that closes stdout early leaves the exit code as it was.
Reports are byte-identical across runs except for wall_time_s.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import random
import sys
import time
from functools import partial
from math import factorial
from operator import eq
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


# Cliques, cocliques and search; the group tables and quadratic forms; the
# incidence lemmas, depth spans and their linear algebra.  spectrum, chartab
# and derangements read none of them.
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


def plabel(shape) -> str:
    return ",".join(str(part) for part in shape)


def check(name: str, ok: bool, **detail):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(detail)
    return entry


def _need_threshold(n: int, t: int) -> None:
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got t={t}, n={n}")


# --- subcommand handlers -------------------------------------------------
# Each returns (result, checks) and takes its parsed arguments as keywords.


def run_derangements(n: int):
    count = permgroup.derangement_count(n)
    checks = []
    if n <= 12:
        class_sum = sum(
            cls.size
            for cls in permgroup.conjugacy_classes(n)
            if cls.fixed_points == 0
        )
        checks.append(
            check("matches-class-size-sum", class_sum == count, value=exact(class_sum))
        )
    if n <= 8:
        points = range(1, n + 1)
        brute = sum(
            not any(map(eq, images, points))
            for images in itertools.permutations(points)
        )
        checks.append(check("matches-brute-force", brute == count, value=exact(brute)))
    return {"n": n, "count": exact(count)}, checks


def run_chartab(n: int):
    table = chartab.character_table(n)
    checks = [
        check("row-orthogonality", chartab.check_row_orthogonality(table)),
        check("column-orthogonality", chartab.check_column_orthogonality(table)),
        check(
            "dimension-squares-sum",
            sum(table.dimension(shape) ** 2 for shape in table.partitions)
            == factorial(n),
        ),
    ]
    standard_ok = n < 2 or all(
        table.value((n - 1, 1), cls.cycle_type) == cls.fixed_points - 1
        for cls in permgroup.conjugacy_classes(n)
    )
    checks.append(check("standard-character-is-fix-minus-1", standard_ok))
    result = {
        "n": n,
        "partitions": [plabel(shape) for shape in table.partitions],
        "values": [[exact(v) for v in row] for row in table.values],
    }
    return result, checks


def run_spectrum(n: int, t: int):
    spectrum = chartab.union_spectrum(n, t)
    least, achieved = spectrum.least()
    entries = [
        {
            "partition": plabel(shape),
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
        "least": {"value": exact(least), "achieved": [plabel(s) for s in achieved]},
        "valency": exact(spectrum.valency),
    }
    return result, checks


def run_bounds(n: int, t: int):
    _need_threshold(n, t)
    if t == 0:
        clique = graphs.latin_clique(n)
        coclique = graphs.family([(n, n)], n)
    elif t == 1:
        if n < 3:
            raise UnsupportedConstructionError(
                f"bounds at t = 1 need n >= 3, got n={n}: the t = 1 coclique"
                " fixes the points 1 and 2 and needs a third, free point"
            )
        clique = graphs.affine_clique(n)
        coclique = graphs.family([(1, 1), (2, 2)], n)
    else:
        raise UnsupportedConstructionError(
            "bounds are wired up for thresholds 0 and 1 only"
        )
    report = scheme.clique_coclique_check(
        clique.members, coclique.members, n, t
    )
    ratio = scheme.ratio_bound(n, t)
    checks = [
        check("product-meets-bound", report.tight, product=exact(report.product)),
    ]
    if report.corollary_ok is not None:
        checks.append(check("tight-pair-supports-disjoint", report.corollary_ok))
    if t == 0:
        checks.append(check("ratio-bound-is-(n-1)!", ratio == factorial(n - 1)))
    result = {
        "n": n,
        "t": t,
        "clique_size": report.clique_size,
        "independent_size": report.independent_size,
        "product": exact(report.product),
        "bound": exact(report.bound),
        "tight": report.tight,
        "ratio_bound": exact(ratio),
    }
    if report.supports is not None:
        result["supports"] = [
            {
                "partition": plabel(shape),
                "clique_nonzero": cx,
                "independent_nonzero": cy,
            }
            for shape, cx, cy in report.supports
        ]
    return result, checks


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


def run_clique(n: int, method: str):
    certificate = getattr(graphs, _CLIQUE_CONSTRUCTIONS[method])(n)
    expected = n * (n - 1) if method == "affine" else n
    checks = [
        check("pairwise-validated", certificate.validated),
        check("expected-size", certificate.size == expected, size=certificate.size),
    ]
    result = {
        "n": n,
        "t": certificate.t,
        "construction": certificate.construction,
        "size": certificate.size,
        "members": [str(p) for p in certificate.members],
    }
    return result, checks


def run_search(n: int, t: int, workers: int, found=None):
    _need_threshold(n, t)
    if found is None:
        found = graphs.max_independent_sets(n, t, workers=workers)
    gd = scheme.group_data(n)
    distinct_families = {
        frozenset(ranks.tolist())
        for ranks in gd.constraint_ranks(
            [((i, j),) for i in range(1, n + 1) for j in range(1, n + 1)]
        )
    }
    checks = [
        check(
            "alpha-is-(n-1)!",
            found.alpha == factorial(n - 1),
            alpha=exact(found.alpha),
        ),
        check("product-tight", found.tight),
        check(
            "count-matches-stabilizer-catalogue",
            found.count == len(distinct_families),
            count=found.count,
            expected=len(distinct_families),
        ),
        check(
            "all-sets-are-stabilizer-cosets",
            all(
                frozenset(map(gd.rank_of, members)) in distinct_families
                for members in found.sets
            ),
        ),
    ]
    result = {
        "n": n,
        "t": t,
        "alpha": exact(found.alpha),
        "omega": exact(found.omega),
        "tight": found.tight,
        "sets": [[str(p) for p in members] for members in found.sets],
    }
    return result, checks


def run_classify(n: int, search_result=None):
    report = ekrverify.classify_maximum_sets(n, search_result=search_result)
    sets = []
    for record in report.records:
        sets.append(
            {
                "family": list(record.family_key) if record.family_key else None,
                "translated_to": list(record.translated_to)
                if record.translated_to
                else None,
                "case": record.case,
                "border_coefficient": exact(record.recovered_coefficient)
                if record.recovered_coefficient is not None
                else None,
                "coordinates_ok": record.coordinates_ok,
            }
        )
    checks = [
        check("all-sets-canonical", report.all_canonical),
        check(
            "count-matches-catalogue",
            report.total_sets == (n * n if n >= 3 else 2),
            count=report.total_sets,
        ),
        check(
            "coordinate-recovery",
            all(r.coordinates_ok for r in report.records),
        ),
    ]
    result = {
        "n": n,
        "alpha": exact(report.alpha),
        "total_sets": report.total_sets,
        "sets": sets,
    }
    return result, checks


def run_lemmas(n: int):
    checks = []
    # H^T H is formed once: the Gram identity compares it, the rank check reads it
    gram_ok, gram = ekrverify.gram_check(n)
    checks.append(check("gram-identity", gram_ok))
    rank_h, ok_h = ekrverify.rank_H_check(n, gram)
    checks.append(check("rank-H-is-(n-1)^2", ok_h, rank=rank_h))
    rank_m, ok_m = ekrverify.rank_M_check(n)
    checks.append(check("rank-M-is-(n-1)(n-2)", ok_m, rank=rank_m))
    _, _, sub_ok = ekrverify.pi_ab_submatrix(n)
    checks.append(check("selected-rows-give-K-kron-I", sub_ok))
    bordered_ok = ekrverify.bordered_kernel_check(n)
    checks.append(check("bordered-kernel-spanned-by-expected-vector", bordered_ok))
    checks.append(
        check(
            "kernel-vectors-map-into-diagonal-column-space",
            ekrverify.kernel_membership_check(n),
        )
    )
    skipped = []
    if n <= permgroup.MAX_DENSE_DEGREE:
        basis = ekrverify.basis_check(n)
        checks.append(check("point-family-supports-standard-only", basis.supports_ok))
        checks.append(
            check(
                "shifted-point-families-have-full-rank",
                basis.rank_shifted == (n - 1) ** 2,
                rank=basis.rank_shifted,
            )
        )
        checks.append(
            check(
                "ones-outside-span",
                basis.rank_with_ones == (n - 1) ** 2 + 1,
                rank=basis.rank_with_ones,
            )
        )
        checks.append(check("dimension-matches-square", basis.dimension_match))
    else:
        skipped = ["point-family-supports", "basis-rank"]
    result = {"n": n, "skipped": skipped}
    return result, checks


def run_conjecture(n: int, t: int):
    report = ekrverify.depth_conjecture_dims(n, t)
    checks = [
        check(
            f"supports-within-depth-{t + 1}",
            report.supports_within_depth[t + 1],
        )
    ]
    result = {
        "n": n,
        "t": t,
        "selected_depth": t + 1,
        "family_count": report.family_count,
        "module_dim_sums": {
            str(d): exact(v) for d, v in sorted(report.module_dim_sums.items())
        },
        "span_rank_shifted": exact(report.span_rank_shifted),
        "span_rank_with_ones": exact(report.span_rank_with_ones),
        "rank_method": report.rank_method,
        "support_union": [plabel(s) for s in report.support_union],
        "supports_within_depth": {
            str(d): v for d, v in sorted(report.supports_within_depth.items())
        },
        "agreement": dict(report.agreement),
    }
    return result, checks


def _coin_flips(rng: random.Random):
    """rng.randint(0, 1), drawn again and again, as one endless iterator.

    randint(0, 1) draws getrandbits(2) until the value is below 2.  These are
    the same draws, so the stream and the generator's state stay the same,
    but the loop runs in C.
    """
    return filter((2).__gt__, iter(partial(rng.getrandbits, 2), None))


def run_identity_check(n: int, trials: int, seed: int, t: int):
    flips = _coin_flips(random.Random(seed))
    order = factorial(n)

    def draws():  # x, then y, per trial from the one generator
        for _ in range(trials):
            x = list(itertools.islice(flips, order))
            y = list(itertools.islice(flips, order))
            yield x, y

    sides = scheme.fundamental_identity_check(draws(), n, t)
    sample = sides[0]
    all_equal = all(lhs == rhs for lhs, rhs in sides)
    checks = [check("identity-holds-exactly", all_equal, trials=trials)]
    result = {
        "n": n,
        "t": t,
        "trials": trials,
        "seed": seed,
        "first_trial": {"lhs": exact(sample[0]), "rhs": exact(sample[1])},
    }
    return result, checks


def run_quotient(n: int):
    quotient = graphs.equitable_quotient(n)
    d = permgroup.derangement_count(n)
    checks = [
        check("partition-is-equitable", quotient.equitable),
        check("matches-closed-form", quotient.matches_closed_form),
        check(
            "eigenvalues-are-d-and--d/(n-1)",
            quotient.eigenvalues == (d, -(d // (n - 1)))
            and d % (n - 1) == 0,
        ),
        check(
            "row-sums-equal-valency",
            all(sum(row) == d for row in quotient.matrix),
        ),
    ]
    result = {
        "n": n,
        "matrix": [[exact(v) for v in row] for row in quotient.matrix],
        "eigenvalues": [exact(v) for v in quotient.eigenvalues],
        "cell_sizes": [exact(v) for v in quotient.cell_sizes],
    }
    return result, checks


def run_validate(n: int, family: str, t: int):
    _need_threshold(n, t)
    members = graphs.read_family(family, n)
    ok, witness = graphs.validate_family(members, t)
    checks = [check("family-is-independent", ok, threshold=t)]
    result = {
        "n": n,
        "t": t,
        "size": len(members),
        "witness": [str(p) for p in witness] if witness else None,
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


def run_clique_characters(n: int):
    """Every non-standard character sums to nonzero over some clique at degree n.

    The cliques are the Hamilton-cycle one (every n but 4 and 6) and, for odd
    n >= 5, the odd-Latin one; over each of them the standard character
    (n-1, 1) must sum to zero.
    """
    cliques = []
    if n not in (4, 6):
        cliques.append(graphs.cycle_decomposition_clique(n))
    if n % 2 == 1 and n >= 5:
        cliques.append(graphs.odd_n_latin_clique(n))
    table = chartab.character_table(n)
    sums = [
        {
            shape: sum(
                table.value(shape, permgroup.cycle_type(p)) for p in clique.members
            )
            for shape in table.partitions
        }
        for clique in cliques
    ]
    standard = (n - 1, 1)
    covered = all(
        any(s[shape] != 0 for s in sums)
        for shape in table.partitions
        if shape != standard
    )
    checks = [
        check("nonzero-off-standard", covered),
        check("zero-on-standard", all(s[standard] == 0 for s in sums)),
    ]
    return {"n": n, "cliques": [c.construction for c in cliques]}, checks


def run_verify_all(max_n: int, workers: int):
    sections = []
    checks = []

    def add(section: str, degrees, handler, t=None, **extra):
        """One section per degree up to max_n; its checks prefixed by its label."""
        for n in degrees:
            if n > max_n:
                continue
            params = {"n": n} if t is None else {"n": n, "t": t}
            _, section_checks = handler(**params, **extra)
            ok = all(c["pass"] for c in section_checks)
            sections.append({"section": section, "parameters": params, "pass": ok})
            for c in section_checks:
                prefixed = dict(c)
                prefixed["name"] = f"{section}[{_params_label(params)}]:{c['name']}"
                checks.append(prefixed)

    add("derangements", range(1, 10), run_derangements)
    add("chartab", range(2, 9), run_chartab)
    add("spectrum", range(2, 10), run_spectrum, t=0)
    add("least-eigenvalue", range(2, 9), run_least_eigenvalue)
    add("quotient", range(2, 9), run_quotient)
    add("clique-latin", range(2, 9), run_clique, method="latin")
    add("clique-odd-latin", (5, 7, 9), run_clique, method="odd-latin")
    add("clique-cycles", (3, 5, 7, 8), run_clique, method="cycles")
    add("clique-characters", (7, 8, 9), run_clique_characters)
    add("bounds", range(2, 7), run_bounds, t=0)
    add("bounds", (3, 4, 5), run_bounds, t=1)
    searched = {}
    for n in range(3, min(6, max_n) + 1):
        searched[n] = graphs.max_independent_sets(n, 0, workers=workers)
        add("search", (n,), run_search, t=0, workers=workers, found=searched[n])
    for n, found in searched.items():
        add("classify", (n,), run_classify, search_result=found)
    add("identity-check", (4, 5), run_identity_check, t=0, trials=20, seed=2024)
    add("lemmas", range(3, 8), run_lemmas)
    add("conjecture", (4, 5, 6), run_conjecture, t=1)
    return {"max_n": max_n, "sections": sections}, checks


def _params_label(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


# --- the command table ----------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its help, closed degree range and extra arguments.

    The handler is run_<name with - as _>, looked up when the command runs so
    that a replaced module attribute takes effect.  The degree argument is the
    positional n, or an option (defaulting to hi) when degree names one.
    """

    help: str
    lo: int
    hi: int
    arguments: tuple = ()
    degree: str = "n"

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
    "derangements": Command("fixed-point-free permutation counts", 1, 1000),
    "chartab": Command(
        "exact character table", 1, chartab.MAX_TABLE_DEGREE,
        (("--csv", {"action": "store_true", "help": "emit CSV instead of JSON"}),),
    ),
    # About 1.1 s at n = 30 for every t; the run time does not grow with t.
    "spectrum": Command("eigenvalues of the agreement-at-most-t graph", 1, 30, (_T,)),
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


def build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
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
    args = build_parser().parse_args(argv)
    options = {
        k: v for k, v in vars(args).items() if k not in ("command", "text", "out")
    }
    parameters = {k: v for k, v in sorted(options.items()) if v is not None}
    cmd = COMMANDS[args.command]
    degree = options[cmd.degree.lstrip("-").replace("-", "_")]
    if not cmd.lo <= degree <= cmd.hi:
        print(f"error: {args.command} takes {cmd.span}, got {degree}", file=sys.stderr)
        return EXIT_DEGREE
    csv = options.pop("csv", False)
    handler = globals()[f"run_{args.command.replace('-', '_')}"]
    started = time.perf_counter()
    try:
        result, checks = handler(**options)
    except DegreeRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except UnsupportedConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except FamilyValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
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
