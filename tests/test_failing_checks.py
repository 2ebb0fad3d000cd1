"""Checks that can fail: one perturbation of the code each makes them read false.

Each row of CASES names a perturbation, a command run in-process at n = 5
and the checks it must turn false.  The run exits 1, a failed check, not 5,
an internal error; the named checks read false and every other check of the
report still reads true.  Every check name of verify-all is in CASES or in
PENDING, so a new check, or one newly made to fail, edits PENDING.
"""

import json
from math import factorial

import numpy as np
import pytest

from ekrperm import cli, ekrverify, graphs, scheme


def _drop_first_set(found):
    return found._replace(ranks=found.ranks[1:])


def _swap_a_member(found):
    # the first set's last member becomes the least rank outside the set
    ranks = found.ranks.copy()
    outside = np.setdiff1d(np.arange(factorial(found.n)), ranks[0])
    ranks[0, -1] = outside[0]
    ranks[0].sort()
    return found._replace(ranks=ranks)


def _alpha_less_one(found):
    return found._replace(alpha=found.alpha - 1)


def _omega_plus_one(found):
    return found._replace(omega=found.omega + 1)


def _doctored_search(doctor):
    def perturb(monkeypatch):
        real = graphs.max_independent_sets
        monkeypatch.setattr(
            graphs,
            "max_independent_sets",
            lambda n, t=0, workers=1: doctor(real(n, t, workers)),
        )

    return perturb


def _short_coclique(monkeypatch):
    real = scheme.constraint_rows
    monkeypatch.setattr(scheme, "constraint_rows", lambda n, pairs: real(n, pairs)[1:])


def _ratio_bound_plus_one(monkeypatch):
    real = scheme.ratio_bound
    monkeypatch.setattr(scheme, "ratio_bound", lambda n, t=0: real(n, t) + 1)


def _shifted_pi_ab(monkeypatch):
    real = ekrverify.pi_ab
    monkeypatch.setattr(ekrverify, "pi_ab", lambda a, b, n: real(a, b % (n - 2) + 1, n))


def _row_in_n_fixing(*points):
    """N gains the first permutation whose fixed points are exactly points.

    Fixing n alone, it meets no column of W but has n - 1 ones in M, against
    the n - 2 of a derangement; fixing 1 and n, it has n - 2 ones in M and
    one on W's column (1, 1).  Either way M keeps full column rank.
    """

    def perturb(monkeypatch):
        real = ekrverify.incidence

        def incidence(n):
            inc = real(n)
            images = scheme.image_table(n)
            identity = np.arange(1, n + 1)
            fixed = (images == identity) == np.isin(identity, points)
            rank = np.flatnonzero(fixed.all(axis=1))[0]
            return inc._replace(
                derangement_ranks=np.append(inc.derangement_ranks, rank)
            )

        monkeypatch.setattr(ekrverify, "incidence", incidence)

    return perturb


def _doctored_point_families(doctor):
    def perturb(monkeypatch):
        real = ekrverify.constraint_families

        def families(n, k):
            rows = real(n, k).copy()
            doctor(rows)
            return rows

        monkeypatch.setattr(ekrverify, "constraint_families", families)

    return perturb


def _swap_a_family_member(families):
    # S_{1->1} loses its last member to the least outsider and stays sorted
    first = families[0]
    first[-1] = np.setdiff1d(np.arange(len(first) + 1), first)[0]
    first.sort()


def _repeat_a_family(families):
    # S_{1->1} becomes a second S_{1->2}: the supports stay standard
    families[0] = families[1]


def _doctored_walk(doctor):
    def perturb(monkeypatch):
        real = graphs.derangements_by_last_image

        def walk(n):
            counts = list(real(n))
            doctor(counts)
            return tuple(counts)

        monkeypatch.setattr(graphs, "derangements_by_last_image", walk)

    return perturb


def _move_a_count(counts):
    # a derangement sending n to 2 is counted as sending it to 3: the first
    # cell's count, the total and the quotient's rows stay as they were
    counts[2] -= 1
    counts[3] += 1


def _fix_the_last_point(counts):
    # a derangement sending n to n, into the first cell: every row sums past d
    counts[-1] += 1


def _derangement_count_plus_one(monkeypatch):
    real = graphs.derangement_count
    monkeypatch.setattr(graphs, "derangement_count", lambda n: real(n) + 1)


def _second_eigenvalue_plus_one(monkeypatch):
    real = graphs.equitable_quotient

    def quotient(n):
        found = real(n)
        s, e = found.eigenvalues
        return found._replace(eigenvalues=(s, e + 1))

    monkeypatch.setattr(graphs, "equitable_quotient", quotient)


CASES = [
    pytest.param(
        "search",
        _doctored_search(_drop_first_set),
        {"count-matches-stabilizer-catalogue"},
        id="search-drops-a-set",
    ),
    pytest.param(
        "search",
        _doctored_search(_swap_a_member),
        {"all-sets-are-stabilizer-cosets"},
        id="search-swaps-a-member",
    ),
    pytest.param(
        "search",
        _doctored_search(_alpha_less_one),
        {"alpha-is-(n-1)!", "product-tight"},
        id="search-alpha-less-one",
    ),
    pytest.param(
        "search",
        _doctored_search(_omega_plus_one),
        {"product-tight"},
        id="search-omega-plus-one",
    ),
    pytest.param(
        "classify",
        _doctored_search(_drop_first_set),
        {"count-matches-catalogue"},
        id="classify-drops-a-set",
    ),
    pytest.param(
        "classify",
        _doctored_search(_swap_a_member),
        {"all-sets-canonical", "coordinate-recovery"},
        id="classify-swaps-a-member",
    ),
    pytest.param(
        "bounds", _short_coclique, {"product-meets-bound"}, id="bounds-short-coclique"
    ),
    pytest.param(
        "bounds",
        _ratio_bound_plus_one,
        {"ratio-bound-is-(n-1)!"},
        id="bounds-ratio-plus-one",
    ),
    pytest.param(
        "lemmas",
        _shifted_pi_ab,
        {"selected-rows-give-K-kron-I"},
        id="lemmas-shifted-pi-ab",
    ),
    pytest.param(
        "lemmas",
        _row_in_n_fixing(5),
        {"bordered-kernel-spanned-by-expected-vector"},
        id="lemmas-row-fixing-n",
    ),
    pytest.param(
        "lemmas",
        _row_in_n_fixing(1, 5),
        {"kernel-vectors-map-into-diagonal-column-space"},
        id="lemmas-row-meeting-w",
    ),
    pytest.param(
        "lemmas",
        _doctored_point_families(_swap_a_family_member),
        {"point-family-supports-standard-only"},
        id="lemmas-swaps-a-family-member",
    ),
    pytest.param(
        "lemmas",
        _doctored_point_families(_repeat_a_family),
        # rank [S; ones] is rank S + 1 whatever the families, so both fall
        {"shifted-point-families-have-full-rank", "ones-outside-span"},
        id="lemmas-repeats-a-family",
    ),
    pytest.param(
        "quotient",
        _doctored_walk(_move_a_count),
        {"partition-is-equitable"},
        id="quotient-moves-a-count",
    ),
    pytest.param(
        "quotient",
        _derangement_count_plus_one,
        {"matches-closed-form"},
        id="quotient-closed-form-plus-one",
    ),
    pytest.param(
        "quotient",
        _doctored_walk(_fix_the_last_point),
        # the rows sum to s, the first eigenvalue: they fall together
        {"row-sums-equal-valency", "eigenvalues-are-d-and--d/(n-1)"},
        id="quotient-fixes-the-last-point",
    ),
    pytest.param(
        "quotient",
        _second_eigenvalue_plus_one,
        {"eigenvalues-are-d-and--d/(n-1)"},
        id="quotient-eigenvalue-plus-one",
    ),
]

# verify-all's checks that no row of CASES makes read false yet
PENDING = {
    "column-orthogonality",
    "dimension-matches-square",
    "dimension-squares-sum",
    "equals--d/(n-1)",
    "expected-size",
    "gram-identity",
    "identity-holds-exactly",
    "matches-brute-force",
    "matches-class-size-sum",
    "nonzero-off-standard",
    "pairwise-validated",
    "rank-H-is-(n-1)^2",
    "rank-M-is-(n-1)(n-2)",
    "row-orthogonality",
    "standard-character-is-fix-minus-1",
    "standard-eigenvalue-closed-form",
    "supports-within-depth-2",
    "tight-pair-supports-disjoint",
    "valency-is-derangement-count",
    "zero-on-standard",
    # unable to fail: chartab.union_spectrum raises AssertionError, an
    # internal error, before spectrum's report can read either false
    "multiplicities-sum-to-order",
    "trivial-eigenvalue-is-valency",
}


@pytest.mark.parametrize("command, perturb, failing", CASES)
def test_perturbation_fails_its_checks_alone(
    monkeypatch, capsys, fresh_search, fresh_grams, command, perturb, failing
):
    perturb(monkeypatch)
    code = cli.main([command, "5"])
    report = json.loads(capsys.readouterr().out)
    outcomes = {c["name"]: c["pass"] for c in report["checks"]}
    assert code == cli.EXIT_CHECK_FAILED and not report["pass"]
    assert {name for name, ok in outcomes.items() if not ok} == failing


def test_every_verify_all_check_is_a_case_or_pending(capsys):
    assert cli.main(["verify-all", "--max-n", "9"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {c["name"].split(":", 1)[1] for c in report["checks"]}
    covered = set().union(*(case.values[2] for case in CASES))
    assert len(names) == 41
    assert names - covered == PENDING
