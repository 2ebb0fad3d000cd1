"""Checks that can fail: one perturbation of the code each makes them read false.

Each row of CASES names a perturbation, a command run in-process at n = 5
and the checks it must turn false.  The run exits 1, a failed check, not 5,
an internal error; the named checks read false and every other check of the
report still reads true.
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
]


@pytest.mark.parametrize("command, perturb, failing", CASES)
def test_perturbation_fails_its_checks_alone(
    monkeypatch, capsys, fresh_search, command, perturb, failing
):
    perturb(monkeypatch)
    code = cli.main([command, "5"])
    report = json.loads(capsys.readouterr().out)
    outcomes = {c["name"]: c["pass"] for c in report["checks"]}
    assert code == cli.EXIT_CHECK_FAILED and not report["pass"]
    assert {name for name, ok in outcomes.items() if not ok} == failing
