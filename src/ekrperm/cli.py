"""Command-line verification reports.

Every subcommand prints one JSON report (or a plain-text rendering with
--text) and exits 0 only when all of its checks pass.  Exit codes: 1 a check
failed or a supplied family was invalid, 2 usage error, 3 degree out of the
supported range, 4 construction unavailable at that degree, 5 an internal
invariant failed (a bug, reported in one line without a traceback).  Reports
are byte-identical across runs except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from math import factorial

from . import chartab, ekrverify, graphs, linalg, permgroup, scheme
from .errors import (
    DegreeRangeError,
    FamilyValidationError,
    UnsupportedConstructionError,
)

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
    if isinstance(value, Fraction):
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


# --- subcommand handlers -------------------------------------------------
# Each returns (result, checks).


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
        brute = 0
        for p in permgroup.all_permutations(n):
            if permgroup.fixed_points(p) == 0:
                brute += 1
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
    spectrum = scheme.union_spectrum(n, t)
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
                Fraction(spectrum.eigenvalue((n - 1, 1))) == Fraction(-d, n - 1),
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
    if t == 0:
        clique = graphs.latin_clique(n)
        coclique = graphs.family([(n, n)], n)
    elif t == 1:
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
        checks.append(
            check("ratio-bound-is-(n-1)!", ratio == Fraction(factorial(n - 1)))
        )
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


_CLIQUE_METHODS = {
    "latin": graphs.latin_clique,
    "odd-latin": graphs.odd_n_latin_clique,
    "cycles": graphs.cycle_decomposition_clique,
    "affine": graphs.affine_clique,
}


def run_clique(n: int, method: str):
    certificate = _CLIQUE_METHODS[method](n)
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
    if found is None:
        found = graphs.max_independent_sets(n, t, workers=workers)
    distinct_families = {
        frozenset(p.images for p in fam.members)
        for fam in graphs.all_point_families(n).values()
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
                frozenset(p.images for p in members) in distinct_families
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
    if not 3 <= n <= ekrverify.MAX_INCIDENCE_DEGREE:
        raise DegreeRangeError(
            f"lemma checks are supported for 3 <= n <= {ekrverify.MAX_INCIDENCE_DEGREE}"
        )
    checks = []
    gram_ok, _ = ekrverify.gram_check(n)
    checks.append(check("gram-identity", gram_ok))
    rank_h, ok_h = ekrverify.rank_H_check(n)
    checks.append(check("rank-H-is-(n-1)^2", ok_h, rank=rank_h))
    rank_m, ok_m = ekrverify.rank_M_check(n)
    checks.append(check("rank-M-is-(n-1)(n-2)", ok_m, rank=rank_m))
    _, _, sub_ok = ekrverify.pi_ab_submatrix(n)
    checks.append(check("selected-rows-give-K-kron-I", sub_ok))
    _, bordered_ok = ekrverify.bordered_kernel_check(n)
    checks.append(check("bordered-kernel-spanned-by-expected-vector", bordered_ok))
    checks.append(
        check(
            "kernel-vectors-map-into-diagonal-column-space",
            ekrverify.kernel_membership_check(n),
        )
    )
    skipped = []
    if n <= scheme.MAX_DENSE_DEGREE:
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


def run_conjecture(n: int, t: int, depth: int | None):
    if depth is None:
        depth = t + 1
    if depth not in (t, t + 1):
        raise ValueError(f"--depth must be {t} or {t + 1} for --t {t}")
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
        "selected_depth": depth,
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


def run_identity_check(n: int, trials: int, seed: int, t: int):
    if n > scheme.MAX_DENSE_DEGREE:
        raise DegreeRangeError(
            f"identity checks on full-support vectors stop at degree"
            f" {scheme.MAX_DENSE_DEGREE}"
        )
    rng = random.Random(seed)
    order = factorial(n)
    all_equal = True
    sample = None
    for _ in range(trials):
        x = [rng.randint(0, 1) for _ in range(order)]
        y = [rng.randint(0, 1) for _ in range(order)]
        lhs, rhs = scheme.fundamental_identity_check(x, y, n, t)
        if sample is None:
            sample = (lhs, rhs)
        if lhs != rhs:
            all_equal = False
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


def run_validate(n: int, path: str, t: int):
    members = graphs.read_family(path, n)
    ok, witness = graphs.validate_family(members, t)
    checks = [check("family-is-independent", ok, threshold=t)]
    result = {
        "n": n,
        "t": t,
        "size": len(members),
        "witness": [str(p) for p in witness] if witness else None,
    }
    return result, checks


def _clique_character_sums(certificate):
    """Character sums over a clique, keyed by partition."""
    table = chartab.character_table(certificate.n)
    sums = {}
    for shape in table.partitions:
        sums[shape] = sum(
            table.value(shape, permgroup.cycle_type(p)) for p in certificate.members
        )
    return sums


def run_verify_all(max_n: int, workers: int):
    sections = []
    checks = []

    def add(section: str, params: dict, handler, *args):
        result, section_checks = handler(*args)
        ok = all(c["pass"] for c in section_checks)
        sections.append({"section": section, "parameters": params, "pass": ok})
        for c in section_checks:
            prefixed = dict(c)
            prefixed["name"] = f"{section}[{_params_label(params)}]:{c['name']}"
            checks.append(prefixed)
        return result

    for n in range(1, min(9, max_n) + 1):
        add("derangements", {"n": n}, run_derangements, n)
    for n in range(2, min(8, max_n) + 1):
        add("chartab", {"n": n}, run_chartab, n)
    for n in range(2, min(9, max_n) + 1):
        add("spectrum", {"n": n, "t": 0}, run_spectrum, n, 0)
    for n in range(2, min(8, max_n) + 1):
        spectrum = scheme.union_spectrum(n, 0)
        least, _ = spectrum.least()
        d = permgroup.derangement_count(n)
        expected = Fraction(-d, n - 1)
        sections.append(
            {
                "section": "least-eigenvalue",
                "parameters": {"n": n},
                "pass": Fraction(least) == expected,
            }
        )
        checks.append(
            check(
                f"least-eigenvalue[n={n}]:equals--d/(n-1)",
                Fraction(least) == expected,
                value=exact(least),
            )
        )
    for n in range(2, min(8, max_n) + 1):
        add("quotient", {"n": n}, run_quotient, n)
    for n in range(2, min(8, max_n) + 1):
        add("clique-latin", {"n": n}, run_clique, n, "latin")
    for n in (5, 7, 9):
        if n <= max_n:
            add("clique-odd-latin", {"n": n}, run_clique, n, "odd-latin")
    for n in (3, 5, 7, 8):
        if n <= max_n:
            add("clique-cycles", {"n": n}, run_clique, n, "cycles")
    for n in (7, 8, 9):
        if n > max_n:
            continue
        cliques = []
        if n not in (4, 6):
            cliques.append(graphs.cycle_decomposition_clique(n))
        if n % 2 == 1 and n >= 5:
            cliques.append(graphs.odd_n_latin_clique(n))
        sums = [_clique_character_sums(c) for c in cliques]
        table = chartab.character_table(n)
        covered = all(
            any(s[shape] != 0 for s in sums)
            for shape in table.partitions
            if shape != (n - 1, 1)
        )
        standard_zero = all(s[(n - 1, 1)] == 0 for s in sums)
        ok = covered and standard_zero
        sections.append(
            {"section": "clique-characters", "parameters": {"n": n}, "pass": ok}
        )
        checks.append(
            check(f"clique-characters[n={n}]:nonzero-off-standard", covered)
        )
        checks.append(
            check(f"clique-characters[n={n}]:zero-on-standard", standard_zero)
        )
    for n in range(2, min(6, max_n) + 1):
        add("bounds", {"n": n, "t": 0}, run_bounds, n, 0)
    for q in (3, 4, 5):
        if q <= max_n:
            add("bounds", {"n": q, "t": 1}, run_bounds, q, 1)
    searched = {}
    for n in range(3, min(6, max_n) + 1):
        searched[n] = graphs.max_independent_sets(n, 0, workers=workers)
        add("search", {"n": n, "t": 0}, run_search, n, 0, workers, searched[n])
    for n in range(3, min(6, max_n) + 1):
        add("classify", {"n": n}, run_classify, n, searched[n])
    for n in (4, 5):
        if n <= max_n:
            add(
                "identity-check",
                {"n": n, "t": 0},
                run_identity_check,
                n,
                20,
                2024,
                0,
            )
    for n in range(3, min(7, max_n) + 1):
        add("lemmas", {"n": n}, run_lemmas, n)
    for n in (4, 5, 6):
        if n <= max_n:
            add("conjecture", {"n": n, "t": 1}, run_conjecture, n, 1, None)
    result = {"max_n": max_n, "sections": sections}
    return result, checks


def _params_label(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


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

    def degree_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[output_opts])
        p.add_argument("n", type=int)
        return p

    degree_cmd("derangements", "fixed-point-free permutation counts")
    p = degree_cmd("chartab", "exact character table")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p = degree_cmd("spectrum", "eigenvalues of the agreement-at-most-t graph")
    p.add_argument("--t", type=int, default=0)
    p = degree_cmd("bounds", "clique-coclique product and ratio bound")
    p.add_argument("--t", type=int, default=0)
    p = degree_cmd("clique", "build and validate an explicit clique")
    p.add_argument(
        "--method",
        required=True,
        choices=sorted(_CLIQUE_METHODS),
    )
    p = degree_cmd("search", "exhaustive maximum independent sets")
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    degree_cmd("classify", "match every maximum independent set to a point family")
    degree_cmd("lemmas", "incidence-matrix rank, kernel and basis checks")
    p = degree_cmd("conjecture", "depth-bounded eigenspace dimension comparison")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--depth", type=int, default=None)
    p = degree_cmd("identity-check", "class/eigenspace quadratic-form identity")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--t", type=int, default=0)
    degree_cmd("quotient", "equitable two-cell quotient of the derangement graph")
    p = degree_cmd("validate", "validate a family file as an independent set")
    p.add_argument("--family", required=True, metavar="PATH")
    p.add_argument("--t", type=int, default=0)
    p = sub.add_parser(
        "verify-all",
        help="run every check across the supported degrees",
        parents=[output_opts],
    )
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--workers", type=int, default=1)
    return parser


def dispatch(args) -> tuple[dict, list, str | None]:
    """Returns (result, checks, raw_text_override)."""
    if args.command == "derangements":
        result, checks = run_derangements(args.n)
    elif args.command == "chartab":
        result, checks = run_chartab(args.n)
        if args.csv:
            table = chartab.character_table(args.n)
            return result, checks, chartab.table_to_csv(table)
    elif args.command == "spectrum":
        result, checks = run_spectrum(args.n, args.t)
    elif args.command == "bounds":
        result, checks = run_bounds(args.n, args.t)
    elif args.command == "clique":
        result, checks = run_clique(args.n, args.method)
    elif args.command == "search":
        result, checks = run_search(args.n, args.t, args.workers)
    elif args.command == "classify":
        result, checks = run_classify(args.n)
    elif args.command == "lemmas":
        result, checks = run_lemmas(args.n)
    elif args.command == "conjecture":
        result, checks = run_conjecture(args.n, args.t, args.depth)
    elif args.command == "identity-check":
        result, checks = run_identity_check(args.n, args.trials, args.seed, args.t)
    elif args.command == "quotient":
        result, checks = run_quotient(args.n)
    elif args.command == "validate":
        result, checks = run_validate(args.n, args.family, args.t)
    elif args.command == "verify-all":
        result, checks = run_verify_all(args.max_n, args.workers)
    else:  # pragma: no cover - argparse blocks this
        raise ValueError(f"unknown command {args.command}")
    return result, checks, None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    parameters = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "text", "out") and v is not None
    }
    started = time.perf_counter()
    try:
        result, checks, raw = dispatch(args)
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
    if raw is not None:
        output = raw
    elif args.text:
        output = render_text(report)
    else:
        output = json.dumps(report, indent=2)
    print(output)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
