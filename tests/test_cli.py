"""Command line interface: report schema, exit codes, determinism."""

import hashlib
import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekrperm import cli, groupcmds, permgroup, scheme
from ekrperm.errors import (
    DegreeRangeError,
    FamilyValidationError,
    UnsupportedConstructionError,
)
from ekrperm.graphs import write_family
from test_scheme import negative_identity_forms


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def report_digest(capsys, run):
    """sha256 of the report of a clean run, less wall_time_s, indented as printed."""
    code, report, err = run_json(capsys, *run.split())
    assert (code, err) == (0, "")
    del report["wall_time_s"]
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


# sha256 of json.dumps(members) in the report of `clique n --method method`,
# recorded when each member was built as a Permutation and printed by its str
CLIQUE_DIGESTS = {
    "latin 2": "e1b688f8fd9b5e9534d66dd61d1723f56b39694b307cb0da9dfc33d8f398d779",
    "latin 8": "2c32d2c3bf17a91d7e261fb3a3314b86cf6d87865883b4abba576d768af0acc8",
    "latin 128": "b5426e3bb710b322569c7b992c40d18134518541cc97073915968b0d0c937c99",
    "odd-latin 5": "af8a86673dac7d927c295927b6b629c9d51f015a8955db30e67e5dd18a9d637f",
    "odd-latin 9": "650fe5f2e2e48ba77d883e36625a2b7a58ac69a42a62599034747cc5028300e6",
    "odd-latin 101": "d189dc854f906e5c50903f006bb066396d91c7fbfc358898699018e79b8d3e82",
    "cycles 3": "6be4bc62aef4cd795499cee953fb2090c7a37032fe15e60dcac44f65f187e3a0",
    "cycles 8": "0f57c61f8fe2fd554fa6395bf26db370d9362401468f4310991672d28dfcfbff",
    "cycles 127": "31f3aee6619560cc204f3a718d07949cbc37f8c4688c23c1edfddea77be9aee6",
    "affine 2": "e1b688f8fd9b5e9534d66dd61d1723f56b39694b307cb0da9dfc33d8f398d779",
    "affine 9": "bde8303aaf972956dc786d34c98f3c173249765fe683b69b2e70a82cec091299",
    "affine 13": "0d4da6b3968799110a4f3f63705daadad38d93756017ada851b655b930902677",
}

# sha256 of each `bounds` report less wall_time_s, indented as printed; the
# golden reports hold only bounds 6 and verify-all's bounds sections.  From
# n = 7 up to scheme.MAX_GROUP_DEGREE a tight pair reports its supports too
BOUNDS_DIGESTS = {
    "bounds 2": "09e32698dd15ef23b0e7ba1677fafe8b2f6a3bbd24e960f01db4f625316fdd70",
    "bounds 3": "6429d53c8b18b6a46e6ee3a8cb9d678ef6c0536ea90538fc97f07345bab5ccc1",
    "bounds 4": "923583e2055eb0104cced0283089011161c724eb9e62e640ad820f902af645d3",
    "bounds 5": "6df8aa9edab3f7dfbeaf9a9a438fddba90756cec75f881fad0c3742bfb3c4815",
    "bounds 6": "e9aaf527b55fa610e83e15ece4d8d295751bab5322f2a7e225d43cf6ca6b5115",
    "bounds 7": "7abf66c5233eb28b3b949c2eee0b4cd34b1caab4a685dfe01304629b3b288b06",
    "bounds 8": "d404e80b788ec82c81c69a6e7a434842c43668a3a8732c522fad64f88f483213",
    "bounds 3 --t 1": "a7b6b957347751824a295bd98c0d436e71e3285ccaed88e3026358bc4ab03cff",
    "bounds 4 --t 1": "cdff752087d31343aa2de9514f788b1253eeb2d9e30081668d6f0f035bdd7342",
    "bounds 5 --t 1": "39ecfcb3c1a7c161b1a911616b2815c4e089448dbd801e51a0211234ca76286b",
    "bounds 7 --t 1": "4a8f81892eb885cbb4e765d51505b45219002bfc82399ff4ab4722b0b679675e",
    "bounds 8 --t 1": "8dc348922a5cd673ca851085d97f5ff606c2c46483745f5e44732b33af711476",
}


# sha256 of each report less wall_time_s, indented as printed, for handlers
# whose results no golden report holds: verify-all keeps only their checks,
# and the search's golden is n = 6
REPORT_DIGESTS = {
    "search 2": "c17484b956b1abc53e95c148331a442719dd21b7d880c1185636caca03fdb984",
    "search 3": "95334bf58b16c83144613e4b759579d974b953df65762f31e72344e59becea3c",
    "search 4": "02c5485914782fecba32ecceae9a634cc30cef933b4df9edcb30241ab4ac5369",
    "search 5": "4db1c87712b7ca080a0dcf65fd2d9b2156f911e733d8df165b9ccfbd73e1e0ef",
    "derangements 1": "73f5ecfb88a959f6d012c448f849ba1a5df01da374ba01c3b9a05c6aea3ccfcd",
    "derangements 2": "da3b47c3ec463aab7f3bf0fd7cf5574f433832028f6d24d3318bf46a5aeb64d2",
    "derangements 3": "90104d0657c30fccb5f6a1c02779c3384bd1bdab351c478f990bb51c52d4ff4e",
    "derangements 4": "ed00b6dc8ea07b5784bb4d84a72c867b2e4e49c0f0d749a94190579c47f2beaa",
    "derangements 5": "7e1f7080a0f4fff317b165c92d09f853741ba7c33792d5e2c986d2c10f699729",
    "derangements 6": "77337fa76382ddb5bef918dfe6285dc263cf62ed737c145c9914fbc0fcf4c6a2",
    "derangements 7": "696dfd74a2a767c4f5e171188720fa1226c66fd809f784e93bede8b05be8cd94",
    "derangements 8": "0494bdb3ecd1c9a6de7cd0fa65290278dc994d84cc7f2475ff2e5dbb95398fe3",
    "derangements 9": "600c8ad81a651923eac1701b0ae0644fa6954300b0c1bf64906badcb084c6f61",
    "derangements 10": "f934d89695f460cf70c020ba447cf15dcb8da8996e72dec0027a490ceeb791dc",
    "derangements 11": "b925b58e178dd347541a8c8828a226b968747d74598e45e009768399f97492b1",
    "derangements 12": "cc2b3619263cb00e3097defd5b44392df71152140c99d8c8a5a5ac0e54a03600",
    "derangements 1000": "4bc789e6c96907c122f114969f0e06cf3433cd3427c57c7a24a54e5500e41360",
    "classify 2": "eb4209892d0d97defd7ef60cec601a7a37fecd60b9bcfbed523423d011a0de8d",
    "classify 3": "2ba5e76dffeaa98609fda92dc248e2d2032225cd732434ec550f7e324345009d",
    "classify 4": "f21fa02369e1f520f39002212f7138f331a64c5d8a94b61f0276cd046116d13a",
    "classify 5": "c368787802a1334d98d2ee51813eafa299222c04e26483a529987c93ecf5ad21",
    "classify 6": "410078f6c7376a7140985f9799485f92d551c03aa55273fc521c903806c937a9",
    "lemmas 3": "67fd894ff3b7a3f1dd0c33f1581e5b433b7f0bc00b49b71283318f2d1ad010de",
    "lemmas 4": "c139a852aa5611d3ad090d65730c75d8e7144501f4d1c3b19be9dee06ccac747",
    "lemmas 5": "d0bc218de38c99ed9cd247927ee487d62ee75830c8c0fdec822da0297e7ae86a",
    "lemmas 6": "3255e1e5e2b597853243b19a9dec6cc5603211923310ea1ee289f5696de8d1b8",
    "lemmas 7": "3b73fe42bdaeff311a7ef99d37c646d6a39af35fbce3e5a15ca9cfb1180d2802",
    "lemmas 8": "41df9f4c04edfa0054b2109cfa95ae349f73cb59f517c1f55446f0b1739de648",
    "quotient 2": "fb8ce047c575d0b4174d90f1be237287e13ebfbd95b81f4bc30ce14e9a837429",
    "quotient 3": "81d4f60ba8c42277d2cdaf78422e0b0ae02938d616050847aea80cfaf9e50772",
    "quotient 4": "011f648ac665311b3912149d3ec315f56f4664e4e085526e417c898b7c78f899",
    "quotient 5": "ebd5c4f2678dea6e2e239139160c848509af77997aef32635bd6b173874b83d4",
    "quotient 6": "e4a350375610d91ea339fdf3eedbb980d5bc8ee71b3fa889e1c697e2f1a255ce",
    "quotient 7": "704aa78c886d475a8921a455d89589184ba8b6fad53cf936a922e8db07f69931",
    "quotient 8": "404ba85008ee483377cc6c3c400c099ede066a21efdf9cc81e7d2a32625f1df2",
    "quotient 9": "f3849ce7bd0404eb045c48f86bde0697a80e57796734bc7ae04f9f8e4576b374",
}


class TestReportShape:
    def test_schema_and_fields(self, capsys):
        code, report, _ = run_json(capsys, "derangements", "4")
        assert code == 0
        assert report["schema"] == "ekrperm-report/1"
        assert report["command"] == "derangements"
        assert report["pass"] is True
        assert isinstance(report["wall_time_s"], float)
        assert all(
            set(c) >= {"name", "pass"} for c in report["checks"]
        )

    def test_parameters_echoed(self, capsys):
        _, report, _ = run_json(capsys, "spectrum", "4", "--t", "0")
        assert report["parameters"]["n"] == 4
        assert report["parameters"]["t"] == 0

    def test_determinism_modulo_timing(self, capsys):
        _, first, _ = run_json(capsys, "spectrum", "5")
        _, second, _ = run_json(capsys, "spectrum", "5")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second


class TestCommands:
    def test_derangements(self, capsys):
        _, report, _ = run_json(capsys, "derangements", "2")
        assert report["result"]["count"] == "1"

    def test_derangements_at_large_degree(self, capsys):
        code, report, _ = run_json(capsys, "derangements", "900")
        assert code == 0
        count = 1  # D(0); D(n) = n D(n-1) + (-1)^n
        for n in range(1, 901):
            count = n * count + (-1) ** n
        assert report["result"]["count"] == str(count)

    def test_spectrum_entries(self, capsys):
        _, report, _ = run_json(capsys, "spectrum", "5")
        by_partition = {
            entry["partition"]: entry for entry in report["result"]["entries"]
        }
        assert by_partition["4,1"]["eigenvalue"] == "-11"
        assert by_partition["4,1"]["multiplicity"] == "16"
        assert report["result"]["least"]["value"] == "-11"

    def test_spectrum_at_the_top_threshold(self, capsys):
        # t = n - 1 selects every class but the identity, the widest threshold
        code, report, _ = run_json(capsys, "spectrum", "24", "--t", "23")
        assert code == 0 and report["pass"] is True
        assert [c["name"] for c in report["checks"] if c["pass"]] == [
            "multiplicities-sum-to-order",
            "trivial-eigenvalue-is-valency",
        ]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("spectrum", "30", "--t", "3"),
                "74d449fe5c15b3d91e332a02ec221196ff173b4a550ed058753424ac551fd70b",
            ),
            (
                ("spectrum", "24", "--t", "23"),
                "57245b8a4ca0266cc24c58000368874c2cc632850d4b1c47af5c27d210f6c7cb",
            ),
        ],
        ids=["spectrum 30 --t 3", "spectrum 24 --t 23"],
    )
    def test_spectrum_reports_above_the_goldens_are_pinned(self, capsys, argv, digest):
        # SHA-256 of the report less wall_time_s, indented as printed; the
        # golden reports stop at n = 16
        assert report_digest(capsys, " ".join(argv)) == digest

    @pytest.mark.parametrize("run", BOUNDS_DIGESTS)
    def test_bounds_reports_are_pinned(self, capsys, run):
        assert report_digest(capsys, run) == BOUNDS_DIGESTS[run]

    @pytest.mark.parametrize("run", REPORT_DIGESTS)
    def test_handler_reports_are_pinned(self, capsys, run):
        assert report_digest(capsys, run) == REPORT_DIGESTS[run]

    def test_bounds_tight_product(self, capsys):
        code, report, _ = run_json(capsys, "bounds", "4")
        assert code == 0
        assert report["result"]["ratio_bound"] == "6"
        assert report["result"]["product"] == "24"
        assert report["result"]["tight"] is True

    def test_bounds_threshold_one(self, capsys):
        code, report, _ = run_json(capsys, "bounds", "5", "--t", "1")
        assert code == 0
        assert report["result"]["product"] == "120"

    @pytest.mark.parametrize("n, t", [(7, 0), (7, 1), (8, 0), (8, 1)])
    def test_tight_supports_stop_at_the_group_tables(self, capsys, n, t):
        # a tight pair reports one supports row per nontrivial partition and
        # the corollary's check (passing, as the report passes) up to
        # MAX_GROUP_DEGREE, and neither above it
        code, report, err = run_json(capsys, "bounds", str(n), "--t", str(t))
        assert (code, err, report["pass"]) == (0, "", True)
        assert report["result"]["tight"] is True
        names = [c["name"] for c in report["checks"]]
        if n > scheme.MAX_GROUP_DEGREE:
            assert "supports" not in report["result"]
            assert "tight-pair-supports-disjoint" not in names
            return
        rows = report["result"]["supports"]
        assert [r["partition"] for r in rows] == [
            permgroup.one_line(shape)
            for shape in permgroup.partitions_of(n)
            if shape != (n,)
        ]
        assert not any(r["clique_nonzero"] and r["independent_nonzero"] for r in rows)
        assert "tight-pair-supports-disjoint" in names

    def test_clique_methods(self, capsys):
        code, report, _ = run_json(capsys, "clique", "5", "--method", "odd-latin")
        assert code == 0
        assert report["result"]["size"] == 5
        rows = report["result"]["members"]
        assert rows[1] == "2,1,5,3,4"

    @pytest.mark.parametrize("run", CLIQUE_DIGESTS)
    def test_clique_members_are_pinned(self, capsys, run):
        method, n = run.split()
        code, report, err = run_json(capsys, "clique", n, "--method", method)
        assert (code, err) == (0, "")
        members = json.dumps(report["result"]["members"]).encode()
        assert hashlib.sha256(members).hexdigest() == CLIQUE_DIGESTS[run]

    def test_chartab_csv(self, capsys):
        code, out, _ = run_cli(capsys, "chartab", "4", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == 'partition/cycle_type,4,"3,1","2,2","2,1,1","1,1,1,1"'
        assert lines[2] == '"3,1",-1,0,-1,1,3'

    def test_search(self, capsys):
        code, report, _ = run_json(capsys, "search", "4")
        assert code == 0
        assert report["result"]["alpha"] == "6"
        assert len(report["result"]["sets"]) == 16

    def test_classify(self, capsys):
        code, report, _ = run_json(capsys, "classify", "4")
        assert code == 0
        assert report["result"]["total_sets"] == 16
        assert report["pass"] is True

    def test_lemmas(self, capsys):
        code, report, _ = run_json(capsys, "lemmas", "4")
        assert code == 0
        names = {c["name"] for c in report["checks"]}
        assert "gram-identity" in names or any("gram" in n for n in names)
        assert report["pass"] is True

    def test_lemmas_at_the_top_degree(self, capsys):
        code, report, _ = run_json(capsys, "lemmas", "8")
        assert code == 0 and report["pass"] is True
        ranks = {c["name"]: c.get("rank") for c in report["checks"]}
        assert ranks["rank-H-is-(n-1)^2"] == 49
        assert ranks["rank-M-is-(n-1)(n-2)"] == 42

    def test_conjecture(self, capsys):
        code, report, _ = run_json(capsys, "conjecture", "4", "--t", "1")
        assert code == 0
        assert report["result"]["module_dim_sums"] == {"1": "10", "2": "23"}
        assert report["result"]["span_rank_shifted"] == "22"
        assert report["result"]["span_rank_with_ones"] == "23"
        assert report["result"]["agreement"]["with_ones_equals_depth_2_sum"] is True

    @pytest.mark.parametrize(
        "n, t, union, shifted, with_ones, dim_sums",
        [
            (3, 1, ["2,1", "1,1,1"], "5", "6", {"1": "5", "2": "6"}),
            (4, 2, ["3,1", "2,2", "2,1,1", "1,1,1,1"], "23", "24", {"2": "23", "3": "24"}),
            (
                5,
                2,
                ["4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1"],
                "118",
                "119",
                {"2": "78", "3": "119"},
            ),
        ],
    )
    def test_conjecture_reports_are_pinned(
        self, capsys, n, t, union, shifted, with_ones, dim_sums
    ):
        # degrees the benchmark's golden reports do not cover
        code, report, _ = run_json(capsys, "conjecture", str(n), "--t", str(t))
        assert code == 0
        result = report["result"]
        assert result["support_union"] == union
        assert result["span_rank_shifted"] == shifted
        assert result["span_rank_with_ones"] == with_ones
        assert result["module_dim_sums"] == dim_sums

    def test_identity_check(self, capsys):
        code, report, _ = run_json(capsys, "identity-check", "4")
        assert code == 0
        first = report["result"]["first_trial"]
        assert first["lhs"] == first["rhs"]

    @pytest.mark.parametrize(
        "seed, value", [("3", "922563233/25920"), ("2024", "3628860859/129600")]
    )
    def test_identity_check_first_trial_is_pinned(self, capsys, seed, value):
        # seed-dependent, so the benchmark's golden reports do not record it
        code, report, _ = run_json(
            capsys, "identity-check", "6", "--trials", "1", "--seed", seed
        )
        assert code == 0
        assert report["result"]["first_trial"] == {"lhs": value, "rhs": value}

    @pytest.mark.parametrize(
        "n, value",
        [("4", "709/12"), ("5", "1471897/1800"), ("6", "3628860859/129600")],
    )
    def test_identity_check_default_run_is_pinned(self, capsys, n, value):
        code, report, _ = run_json(capsys, "identity-check", n, "--seed", "2024")
        assert code == 0
        assert report["result"]["trials"] == 20
        assert report["result"]["first_trial"] == {"lhs": value, "rhs": value}
        assert report["checks"] == [
            {"name": "identity-holds-exactly", "pass": True, "trials": 20}
        ]

    @pytest.mark.parametrize("seed", [0, 3, 2024, 2**70 + 5])
    def test_identity_check_draws_are_randints(self, seed):
        # randint(0, 1) retries getrandbits(2) while it is 2 or 3; a CPython
        # that draws it differently fails here, not in the pinned values
        rng, reference = random.Random(seed), random.Random(seed)
        draws = list(itertools.islice(groupcmds._coin_flips(rng), 5000))
        assert draws == [reference.randint(0, 1) for _ in range(5000)]
        assert rng.getstate() == reference.getstate()

    def test_quotient(self, capsys):
        code, report, _ = run_json(capsys, "quotient", "5")
        assert code == 0
        assert report["result"]["matrix"] == [["0", "44"], ["11", "33"]]

    def test_derangements_then_quotient_walk_the_group_once(self, capsys):
        # the walk runs on a cache miss only: the second command reads the first's
        walk = permgroup.derangements_by_last_image
        walk.cache_clear()
        assert run_cli(capsys, "derangements", "6")[0] == 0
        assert run_cli(capsys, "quotient", "6")[0] == 0
        assert (walk.cache_info().misses, walk.cache_info().hits) == (1, 1)

    def test_a_doctored_quotient_fails_its_check(self, capsys, monkeypatch):
        graphs = cli.graphs
        counts = list(permgroup.derangements_by_last_image(4))
        counts[1] -= 1  # one derangement moved from image 1 to image 2
        counts[2] += 1
        monkeypatch.setattr(graphs, "derangements_by_last_image", lambda n: counts)
        code, report, err = run_json(capsys, "quotient", "4")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert err == ""
        assert {c["name"]: c["pass"] for c in report["checks"]} == {
            "partition-is-equitable": False,
            "matches-closed-form": False,
            "eigenvalues-are-d-and--d/(n-1)": False,
            "row-sums-equal-valency": True,
        }

    def test_a_walk_short_of_a_derangement_fails_its_check(self, capsys, monkeypatch):
        graphs = cli.graphs
        counts = list(permgroup.derangements_by_last_image(4))
        counts[2] -= 1  # one derangement sending 4 to 2 dropped from the walk
        monkeypatch.setattr(graphs, "derangements_by_last_image", lambda n: counts)
        code, report, err = run_json(capsys, "quotient", "4")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert err == ""
        assert report["result"]["matrix"] == [["0", "8"], ["3", "5"]]
        assert {c["name"]: c["pass"] for c in report["checks"]} == {
            "partition-is-equitable": False,
            "matches-closed-form": True,
            "eigenvalues-are-d-and--d/(n-1)": False,
            "row-sums-equal-valency": False,
        }

    def test_a_construction_that_is_no_clique_fails_its_check(
        self, capsys, monkeypatch
    ):
        graphs = cli.graphs
        # the square's rows after the prescribed two are copies of the first
        monkeypatch.setattr(
            graphs,
            "_complete_latin_square",
            lambda rows, n: rows + [rows[0]] * (n - len(rows)),
        )
        code, report, err = run_json(capsys, "clique", "5", "--method", "odd-latin")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert err == ""
        assert {c["name"]: c["pass"] for c in report["checks"]} == {
            "pairwise-validated": False,
            "expected-size": True,
        }

    def test_rows_that_are_no_permutations_fail_the_clique_check(
        self, capsys, monkeypatch
    ):
        graphs = cli.graphs
        # the three added rows agree nowhere with any other row, but repeat images
        extra = [(3, 3, 1, 1, 1), (4, 4, 2, 2, 2), (5, 5, 4, 5, 3)]
        monkeypatch.setattr(
            graphs, "_complete_latin_square", lambda rows, n: rows + extra
        )
        members = graphs.odd_n_latin_clique(5).members
        message = "^member 3,3,1,1,1 is not a permutation of 1..5$"
        with pytest.raises(ValueError, match=message):
            graphs.validate_clique(members)
        code, report, err = run_json(capsys, "clique", "5", "--method", "odd-latin")
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert err == ""
        assert report["result"]["members"][2:] == [
            "3,3,1,1,1", "4,4,2,2,2", "5,5,4,5,3"
        ]
        assert {c["name"]: c["pass"] for c in report["checks"]} == {
            "pairwise-validated": False,
            "expected-size": True,
        }


class TestExitCodes:
    def test_degree_error(self, capsys):
        code, out, err = run_cli(capsys, "lemmas", "9")
        assert code == 3
        assert "error:" in err

    def test_unsupported_construction(self, capsys):
        code, _, err = run_cli(capsys, "clique", "4", "--method", "cycles")
        assert code == 4
        assert "error:" in err

    def test_cycles_at_degree_two_are_unsupported_not_out_of_range(self, capsys):
        # 2 lies inside the clique range; the method tabulates no even degree but 8
        code, out, err = run_cli(capsys, "clique", "2", "--method", "cycles")
        assert code == cli.EXIT_UNSUPPORTED == 4
        assert out == ""
        assert err == "error: no Hamilton decomposition is tabulated at even degree 2\n"

    def test_search_degree_cap(self, capsys):
        code, _, _ = run_cli(capsys, "search", "7")
        assert code == 3

    def test_quotient_degree_cap(self, capsys):
        code, out, err = run_cli(capsys, "quotient", "11")
        assert code == 3
        assert out == ""
        assert "error:" in err

    def test_internal_check_failure(self, capsys, monkeypatch):
        def broken(n):
            raise AssertionError("cosets overlap")

        monkeypatch.setattr(cli, "run_derangements", broken)
        code, out, err = run_cli(capsys, "derangements", "4")
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == "error: internal check failed: cosets overlap\n"

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (DegreeRangeError("too big"), 3, "error: too big"),
            (UnsupportedConstructionError("none"), 4, "error: none"),
            (FamilyValidationError("repeated"), 1, "error: repeated"),
            (ValueError("bad"), 2, "error: bad"),
            (FileNotFoundError("gone"), 2, "error: gone"),
            (AssertionError("broken"), 5, "error: internal check failed: broken"),
        ],
        ids=["degree", "unsupported", "family", "value", "os", "assertion"],
    )
    def test_each_error_reads_its_row(self, capsys, monkeypatch, error, code, line):
        def failing(n):
            raise error

        monkeypatch.setattr(cli, "run_derangements", failing)
        assert run_cli(capsys, "derangements", "4") == (code, "", line + "\n")

    def test_no_error_row_is_shadowed_by_an_earlier_one(self):
        kinds = list(cli._ERROR_EXITS)
        for i, later in enumerate(kinds):
            assert not any(issubclass(later, earlier) for earlier in kinds[:i]), later

    def test_negative_module_form_exits_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(scheme, "class_quadratic_forms", negative_identity_forms)
        code, out, err = run_cli(capsys, "identity-check", "4", "--trials", "1")
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert "nonnegative" in err

    def test_usage_error_from_bad_depth(self, capsys):
        # the depth is always t + 1, so there is no --depth option
        with pytest.raises(SystemExit) as info:
            cli.main(["conjecture", "5", "--t", "1", "--depth", "2"])
        assert info.value.code == 2
        assert "--depth" in capsys.readouterr().err

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command"])
        assert info.value.code == 2

    def test_validate_failure(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        write_family(np.array([[1, 2, 3, 4], [2, 1, 4, 3]]), str(path))
        code, report, _ = run_json(
            capsys, "validate", "4", "--family", str(path)
        )
        assert code == 1
        assert report["pass"] is False
        assert not report["checks"][0]["pass"]
        witness = report["result"]["witness"]
        assert len(witness) == 2

    def test_validate_space_separated_family_is_a_usage_error(self, capsys, tmp_path):
        # a line that once read as the degree-one permutation (1234,)
        path = tmp_path / "family.txt"
        path.write_text("1,2,3,4\n1 2 3 4\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "4", "--family", str(path))
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert "bad one-line permutation '1 2 3 4'" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,1,2", "error: not a permutation of 1..3: (0, 1, 2)\n"),
            ("1,2", "error: expected degree 3, found 1,2\n"),
        ],
        ids=["not-a-permutation", "other-degree"],
    )
    def test_validate_bad_member_line_is_a_usage_error(self, capsys, tmp_path, line, message):
        path = tmp_path / "family.txt"
        path.write_text(f"1,2,3\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "3", "--family", str(path))
        assert (code, out, err) == (cli.EXIT_USAGE, "", message)

    @pytest.mark.parametrize("line", ["2,1,+3,4", "2,1,\u0663,4", "2,1,3,4_0"])
    def test_validate_non_ascii_digit_token_is_a_usage_error(self, capsys, tmp_path, line):
        path = tmp_path / "family.txt"
        path.write_text(f"1,2,3,4\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "4", "--family", str(path))
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert f"bad one-line permutation {line!r}" in err

    @pytest.mark.parametrize("t", ["-1", "4"])
    def test_validate_threshold_out_of_range_is_a_usage_error(self, capsys, tmp_path, t):
        path = tmp_path / "family.txt"
        write_family(np.array([[1, 2, 3, 4], [2, 1, 3, 4]]), str(path))
        code, out, err = run_cli(capsys, "validate", "4", "--family", str(path), "--t", t)
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert err == f"error: need 0 <= t < n, got t={t}, n=4\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "4", "--t", "-1"],
            ["search", "4", "--t", "-1"],
            ["search", "4", "--t", "4"],
            ["search", "4", "--t", "9"],
            ["identity-check", "4", "--t", "4"],
        ],
    )
    def test_threshold_out_of_range_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert err == f"error: need 0 <= t < n, got t={argv[-1]}, n=4\n"

    @pytest.mark.parametrize(
        "argv", [["bounds", "4", "--t", "2"], ["search", "4", "--t", "1"]]
    )
    def test_threshold_in_range_without_a_construction_is_unsupported(
        self, capsys, argv
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_UNSUPPORTED == 4

    def test_threshold_one_bounds_need_a_free_point(self, capsys):
        # the t = 1 coclique fixes two points, so at n = 2 there is none
        code, out, err = run_cli(capsys, "bounds", "2", "--t", "1")
        assert code == cli.EXIT_UNSUPPORTED == 4
        assert out == ""
        assert err == (
            "error: bounds need a sharply (t+1)-transitive clique, built for t in"
            " [0, 1], and n >= t + 2 for a point that the coclique leaves free;"
            " got t=1, n=2\n"
        )

    def test_direct_elimination_disagreeing_is_an_internal_error(
        self, capsys, monkeypatch
    ):
        from ekrperm import linalg

        monkeypatch.setattr(linalg, "bareiss_rank", lambda rows: 0)
        code, out, err = run_cli(capsys, "lemmas", "4")
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == (
            "error: internal check failed: Gram rank disagrees with direct elimination\n"
        )

    def test_damaged_incidence_fails_the_bordered_kernel_check(
        self, capsys, doctor_incidence
    ):
        # too few rows of M: the kernel of [M | ones] is wider than a line,
        # which is a failed check, not an internal error
        from test_ekrverify import _first_derangements

        doctor_incidence(_first_derangements(3))
        code, report, _ = run_json(capsys, "lemmas", "5")
        assert code == cli.EXIT_CHECK_FAILED == 1
        outcomes = {c["name"]: c["pass"] for c in report["checks"]}
        assert outcomes["bordered-kernel-spanned-by-expected-vector"] is False

    def test_half_the_derangement_rows_fail_kernel_membership(
        self, capsys, doctor_incidence
    ):
        # G_N from every other derangement row: at n = 4, five rows on M's
        # six columns, so ker N is wider than W's unit vectors, a failed
        # check (exit 1), not an internal error (exit 5); at n = 5 the 22
        # rows left still give M full column rank, and the lemma holds
        from test_ekrverify import _every_other_derangement

        doctor_incidence(_every_other_derangement)
        code, report, _ = run_json(capsys, "lemmas", "4")
        assert code == cli.EXIT_CHECK_FAILED == 1
        outcomes = {c["name"]: c["pass"] for c in report["checks"]}
        assert outcomes["kernel-vectors-map-into-diagonal-column-space"] is False
        # H's rows and the point families are untouched
        assert outcomes["gram-identity"] is True
        assert outcomes["rank-H-is-(n-1)^2"] is True
        assert outcomes["point-family-supports-standard-only"] is True

    def test_a_swapped_family_member_fails_the_support_check(self, capsys, monkeypatch):
        # the first family loses its last member to the least outsider and
        # stays sorted, so every family keeps its size; lemmas' support
        # check, read false the same way, is a row of test_failing_checks
        from ekrperm import ekrverify

        real = ekrverify.constraint_families

        def swapped(n, k):
            families = real(n, k).copy()
            first = families[0]
            first[-1] = next(r for r in itertools.count() if r not in first)
            first.sort()
            return families

        monkeypatch.setattr(ekrverify, "constraint_families", swapped)
        code, report, _ = run_json(capsys, "conjecture", "5", "--t", "1")
        assert code == cli.EXIT_CHECK_FAILED == 1
        outcomes = {c["name"]: c["pass"] for c in report["checks"]}
        assert outcomes.pop("supports-within-depth-2") is False
        assert all(outcomes.values())

    def test_validate_success(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        write_family(np.array([[1, 2, 3, 4], [2, 1, 3, 4]]), str(path))
        code, report, _ = run_json(
            capsys, "validate", "4", "--family", str(path)
        )
        assert code == 0
        assert report["pass"] is True

    @pytest.mark.parametrize(
        "members, t, code, result",
        [
            (
                scheme.constraint_rows(4, [(4, 4)]),
                0,
                cli.EXIT_OK,
                {"n": 4, "t": 0, "size": 6, "witness": None},
            ),
            (
                np.array([[1, 2, 3, 4], [1, 3, 4, 2]]),
                1,
                cli.EXIT_CHECK_FAILED,
                {"n": 4, "t": 1, "size": 2, "witness": ["1,2,3,4", "1,3,4,2"]},
            ),
        ],
        ids=["S_4->4", "agree-once"],
    )
    def test_validate_report_is_pinned(self, capsys, tmp_path, members, t, code, result):
        # the report as printed when read_family returned Permutations
        path = tmp_path / "family.txt"
        write_family(members, str(path))
        argv = ["validate", "4", "--family", str(path), "--t", str(t)]
        got, report, err = run_json(capsys, *argv)
        assert (got, err) == (code, "")
        assert report["result"] == result
        assert report["checks"] == [
            {"name": "family-is-independent", "pass": code == cli.EXIT_OK, "threshold": t}
        ]


# The subcommands that are cheap at small degrees, each with the top degree a
# fuzzed argv may ask of it; the bottom is one below every command's range.
_FUZZ_TOPS = {
    "derangements": 30,
    "chartab": 8,
    "spectrum": 12,
    "bounds": 5,
    "clique": 13,
    "search": 5,
    "classify": 5,
    "lemmas": 5,
    "conjecture": 5,
    "identity-check": 4,
    "quotient": 7,
    "validate": 6,
    "verify-all": 4,
}
_GARBAGE = st.sampled_from(["", "x", "1.5", "-", "0x3"])


def _mostly(valid, invalid):
    """valid four times in five, else invalid."""
    return st.integers(0, 4).flatmap(lambda k: invalid if k == 0 else valid)


# Option values, valid and not; --workers never asks for a second process and
# --trials stays small, so no argv is slow.
_OPTION_VALUES = {
    "--t": _mostly(st.integers(0, 3).map(str), st.one_of(st.just("-1"), _GARBAGE)),
    "--workers": _mostly(st.just("1"), st.sampled_from(["0", "-1", "x"])),
    "--trials": _mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-3", "x"])),
    "--seed": _mostly(st.integers(-5, 5).map(str), _GARBAGE),
    "--method": _mostly(
        st.sampled_from(sorted(cli._CLIQUE_CONSTRUCTIONS)), st.just("bogus")
    ),
    "--family": _mostly(st.just("FAMILY"), st.sampled_from(["MISSING", "DIRECTORY"])),
}


def _one_line_of_degree(k):
    return st.permutations(range(1, k + 1)).map(lambda p: ",".join(map(str, p)))


@st.composite
def _family_file(draw, degree):
    """Family file bytes: members of degree, repeats, other degrees, garbage, blanks."""
    pool = draw(st.lists(_one_line_of_degree(degree), min_size=1, max_size=4))
    kinds = [
        st.sampled_from(pool),
        _one_line_of_degree(degree),
        st.integers(1, 7).flatmap(_one_line_of_degree),
        st.text(alphabet="0123456789, \t+-x()_", max_size=12),
        st.just(""),
    ]
    # most lines are members of the degree, so some files validate
    line = st.integers(0, 19).flatmap(lambda k: kinds[max(0, k - 15)])
    text = "\n".join(draw(st.lists(line, max_size=8)))
    tail = st.integers(0, 9).flatmap(lambda k: st.binary(max_size=8) if k == 0 else st.just(b""))
    return text.encode() + draw(tail)


@st.composite
def _cases(draw):
    """An argv of a cheap subcommand, and the bytes of its family file."""
    # validate, the one reader of the file, is drawn five times as often
    name = draw(st.sampled_from(sorted(_FUZZ_TOPS) + ["validate"] * 4))
    cmd = cli.COMMANDS[name]
    degrees = st.integers(cmd.lo - 1, _FUZZ_TOPS[name]).map(str)
    degree = draw(_mostly(degrees, _GARBAGE))
    argv = [name] + ([degree] if cmd.degree == "n" else [cmd.degree, degree])
    for flag, spec in cmd.arguments:
        if spec.get("required") or draw(st.booleans()):
            if spec.get("action") == "store_true":
                argv.append(flag)
            else:
                argv += [flag, draw(_OPTION_VALUES[flag])]
    if draw(st.booleans()):
        argv.append("--text")
    if draw(st.integers(0, 9)) == 0:
        argv += ["--out", "MISSING/report.json"]
    in_range = degree.lstrip("-").isdigit() and 1 <= int(degree) <= 7
    family = draw(_family_file(int(degree) if in_range else draw(st.integers(1, 6))))
    return argv, family


class TestCliFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=_cases())
    def test_every_argv_exits_0_to_5_without_a_traceback(self, capsys, tmp_path, case):
        argv, family = case
        path = tmp_path / "family.txt"
        path.write_bytes(family)
        places = {
            "FAMILY": str(path),
            "MISSING": str(tmp_path / "missing"),
            "DIRECTORY": str(tmp_path),
        }
        argv = [places.get(a, a).replace("MISSING", places["MISSING"]) for a in argv]
        try:
            code = cli.main(argv)  # any exception but SystemExit fails the test
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in range(6), (argv, err)
        assert "Traceback" not in err, (argv, err)


class TestCommandTable:
    @staticmethod
    def argv(name, degree):
        """Arguments that parse for subcommand name at the given degree."""
        cmd = cli.COMMANDS[name]
        argv = [name] + ([str(degree)] if cmd.degree == "n" else [cmd.degree, str(degree)])
        for flag, spec in cmd.arguments:
            if spec.get("required"):
                argv += [flag, spec.get("choices", ["family.txt"])[0]]
        return argv

    @pytest.mark.parametrize(
        "name, degree",
        [
            (name, degree)
            for name, cmd in cli.COMMANDS.items()
            for degree in (cmd.lo - 1, cmd.hi + 1)
        ],
    )
    def test_degree_beyond_range_exits_before_any_work(
        self, capsys, monkeypatch, name, degree
    ):
        calls = []
        home = importlib.import_module(f"ekrperm.{cli.COMMANDS[name].module}")
        handler = f"run_{name.replace('-', '_')}"
        monkeypatch.setattr(home, handler, lambda **kwargs: calls.append(kwargs))
        code, out, err = run_cli(capsys, *self.argv(name, degree))
        assert code == cli.EXIT_DEGREE == 3
        assert out == ""
        cmd = cli.COMMANDS[name]
        span = f"{cmd.degree} from {cmd.lo} to {cmd.hi}"
        assert err == f"error: {name} takes {span}, got {degree}\n"
        assert calls == []

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_help_states_the_range(self, capsys, name):
        cmd = cli.COMMANDS[name]
        with pytest.raises(SystemExit) as info:
            cli.main([name, "--help"])
        assert info.value.code == 0
        assert f"{cmd.span}." in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_one_command_parser_reads_as_the_full_tree(self, capsys, name):
        argv = self.argv(name, cli.COMMANDS[name].lo)
        full, alone = cli.build_parser(), cli.build_parser([name])
        assert alone.parse_args(argv) == full.parse_args(argv)
        # the command's help, and a top-level error that prints the usage line
        for failing in ([name, "--help"], [*argv, "--bogus"]):
            outcomes = []
            for parser in (full, alone):
                with pytest.raises(SystemExit) as info:
                    parser.parse_args(failing)
                outcomes.append((info.value.code, capsys.readouterr()))
            assert outcomes[0] == outcomes[1], failing

    def test_only_clique_and_validate_need_rows_of_their_own(self):
        # the python -O sweep of .github/workflows/tier1.yml runs [name, top]
        # for every command but those in its OWN_ROWS
        required = {
            name
            for name, cmd in cli.COMMANDS.items()
            if any(spec.get("required") for _, spec in cmd.arguments)
        }
        assert required == {"clique", "validate"}, (
            f"commands with a required option: {sorted(required)}; give each"
            " its rows in OWN_ROWS of the sweep in .github/workflows/tier1.yml"
        )
        for name, cmd in cli.COMMANDS.items():
            if name not in required:
                args = cli.build_parser([name]).parse_args(self.argv(name, cmd.hi))
                assert args.command == name

    def test_main_builds_the_named_command_alone(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def recorded(names):
            built.append(list(names))
            return real(names)

        monkeypatch.setattr(cli, "build_parser", recorded)
        assert run_cli(capsys, "derangements", "3")[0] == 0
        for argv in (["bogus"], [], ["--help"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert built == [["derangements"]] + [list(cli.COMMANDS)] * 3

    def test_readme_rows_match_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Supported degrees", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z-]+)` \| (\d+) \| (\d+) \|", section, re.M)
        documented = {name: (int(lo), int(hi)) for name, lo, hi in rows}
        assert documented == {
            name: (cmd.lo, cmd.hi) for name, cmd in cli.COMMANDS.items()
        }

    def test_clique_choices_are_the_construction_table(self):
        from ekrperm import graphs

        (flag, spec), = cli.COMMANDS["clique"].arguments
        methods = cli._CLIQUE_METHODS
        assert flag == "--method"
        assert spec["choices"] == sorted(methods) == sorted(cli._CLIQUE_CONSTRUCTIONS)
        assert methods == {
            "latin": graphs.latin_clique,
            "odd-latin": graphs.odd_n_latin_clique,
            "cycles": graphs.cycle_decomposition_clique,
            "affine": graphs.affine_clique,
        }
        for method, function in cli._CLIQUE_CONSTRUCTIONS.items():
            assert methods[method] is getattr(graphs, function)
            assert methods[method].__name__ == function

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity-check", "4", "--trials", "0"],
            ["identity-check", "4", "--trials", "-2"],
            ["search", "4", "--workers", "-3"],
            ["verify-all", "--workers", "0"],
        ],
    )
    def test_counts_below_one_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        captured = capsys.readouterr()
        assert info.value.code == cli.EXIT_USAGE == 2
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"ekrperm {argv[0]}: error: argument {argv[-2]}: expected an integer"
            f" of at least 1, got '{argv[-1]}'"
        ]


class TestVerifyAllHandlers:
    # Frozen from the least-eigenvalue and clique-characters entries of
    # verify-all --max-n 9 before these sections had handlers of their own.
    LEAST = {2: "-1", 3: "-1", 4: "-3", 5: "-11", 6: "-53", 7: "-309", 8: "-2119"}

    @pytest.mark.parametrize("n", sorted(LEAST))
    def test_least_eigenvalue(self, n):
        _, checks = cli.run_least_eigenvalue(n)
        assert checks == [
            {"name": "equals--d/(n-1)", "pass": True, "value": self.LEAST[n]}
        ]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_clique_characters(self, n):
        _, checks = groupcmds.run_clique_characters(n)
        assert checks == [
            {"name": "nonzero-off-standard", "pass": True},
            {"name": "zero-on-standard", "pass": True},
        ]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_clique_characters_walk_each_member_once(self, n, monkeypatch):
        # one cycle type per clique member, whatever the number of characters
        from ekrperm import graphs

        real = permgroup.cycle_type_of_images
        walked = []

        def recording(images):
            walked.append(images)
            return real(images)

        monkeypatch.setattr(permgroup, "cycle_type_of_images", recording)
        groupcmds.run_clique_characters(n)
        members = graphs.cycle_decomposition_clique(n).members.tolist()
        if n % 2:
            members += graphs.odd_n_latin_clique(n).members.tolist()
        assert walked == members


class TestOutputModes:
    def test_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "derangements", "4", "--text")
        assert code == 0
        assert "PASS" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "spectrum", "4", "--out", str(path))
        assert code == 0
        on_disk = path.read_text()
        assert json.loads(on_disk) == json.loads(out)

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_cli(capsys, "derangements", "3", "--out", str(path))
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ekrperm", "derangements", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["count"] == "2"


    def test_reader_that_closes_early_leaves_the_exit_code_alone(self):
        # chartab 12 prints about 83 kB, more than a pipe holds, after the
        # reader has gone
        with subprocess.Popen(
            [sys.executable, "-m", "ekrperm", "chartab", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.wait() == cli.EXIT_OK
        assert err == ""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_stdout_is_a_usage_error(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ekrperm", "derangements", "3"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def run_module(*argv):
    """python -m ekrperm argv, finished in a process group of its own.

    Returns (exit code, stdout, stderr, the group id, which is the run's pid).
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "ekrperm", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err, proc.pid


class TestFastExit:
    """python -m ekrperm ends with os._exit once its report is flushed."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["derangements", "3"], cli.EXIT_OK),
            (["validate", "3", "--family", "FAMILY"], cli.EXIT_CHECK_FAILED),
            (["derangements", "3", "--out", "MISSING/report.json"], cli.EXIT_USAGE),
            (["identity-check", "3", "--trials", "0"], cli.EXIT_USAGE),  # argparse exits
            (["search", "7"], cli.EXIT_DEGREE),
            (["bounds", "4", "--t", "2"], cli.EXIT_UNSUPPORTED),
        ],
    )
    def test_exit_codes_and_stderr(self, tmp_path, argv, code):
        # a clique of the derangement graph is no independent set
        write_family(np.array([[1, 2, 3], [2, 3, 1]]), tmp_path / "f")
        argv = [a.replace("FAMILY", str(tmp_path / "f")) for a in argv]
        argv = [a.replace("MISSING", str(tmp_path / "missing")) for a in argv]
        returncode, out, err, _ = run_module(*argv)
        assert returncode == code, err
        assert "Exception ignored" not in err and "Traceback" not in err
        assert (err == "") == (code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED))
        if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
            assert json.loads(out)["pass"] is (code == cli.EXIT_OK)

    def test_piped_and_written_reports_parse(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, err, _ = run_module("conjecture", "4", "--out", str(path))
        assert code == 0 and err == ""
        piped, written = json.loads(out), json.loads(path.read_text())
        assert piped == written and piped["pass"] is True

    def test_search_with_two_workers_leaves_no_child(self):
        code, out, err, group = run_module("search", "6", "--workers", "2")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["pass"] is True and len(report["result"]["sets"]) == 36
        # the workers were forked into the run's process group, now empty
        with pytest.raises(ProcessLookupError):
            os.killpg(group, 0)


class TestImports:
    def test_spectrum_leaves_numpy_unimported(self):
        script = (
            "import sys, ekrperm\n"
            "assert 'numpy' not in sys.modules, 'import ekrperm loaded numpy'\n"
            "from ekrperm import cli\n"
            "for argv in (['spectrum', '9'], ['spectrum', '8', '--t', '1'],\n"
            "             ['spectrum', '30', '--t', '3'], ['chartab', '8'],\n"
            "             ['chartab', '12'], ['derangements', '9'],\n"
            "             ['quotient', '6']):\n"
            "    assert cli.main(argv) == 0\n"
            "    assert 'numpy' not in sys.modules, f'{argv} loaded numpy'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_classify_and_verify_all_leave_numpy_ma_unloaded(self):
        # a set's distinct members are read from a row sort: np.unique loads numpy.ma
        script = (
            "import contextlib, io, sys\n"
            "from ekrperm import cli\n"
            "for argv in (['classify', '4'], ['verify-all', '--max-n', '6']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "    assert 'numpy.ma' not in sys.modules, f'{argv} loaded numpy.ma'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def imported(*args):
        """Modules a fresh interpreter imports, as -X importtime lists them."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        # after the header, one "import time: self | cumulative | name" per module
        return {
            line.rsplit("|", 1)[1].strip()
            for line in lines[1:]
            if line.startswith("import time:")
        }

    @pytest.mark.parametrize(
        "argv", [["spectrum", "6", "--t", "0"], ["chartab", "6"], ["derangements", "5"]]
    )
    def test_cold_start_loads_only_what_the_command_runs(self, argv):
        new = self.imported("-m", "ekrperm", *argv) - self.imported("-c", "pass")
        assert "ekrperm.cli" in new
        unused = {"numpy", "dataclasses", "ekrperm.linalg", "fractions", "decimal", "csv"}
        assert not new & unused, argv

    @staticmethod
    def executed(*argv, code=0):
        """What cli.main(argv), exiting code, imports in a fresh interpreter,
        and the package modules whose bodies it runs.

        -X importtime does not list a module that LazyLoader executes, so the
        bodies are told by the module's type: a stub is not a plain
        types.ModuleType until its body has run.  Reading an attribute would
        run it.
        """
        script = (
            "import contextlib, io, json, sys, types\n"
            "before = set(sys.modules)\n"
            "from ekrperm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(sys.argv[1:]) == {code}\n"
            "new = set(sys.modules) - before\n"
            "ran = [m for m in new if type(sys.modules[m]) is types.ModuleType]\n"
            "print(json.dumps([sorted(new), sorted(ran)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        new, ran = json.loads(proc.stdout)
        return set(new), {m for m in ran if m.startswith("ekrperm")}

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "6", "--t", "0"], ["chartab", "6"], ["derangements", "5"],
            ["spectrum", "9"], ["chartab", "12"], ["derangements", "8"],
        ],
    )
    def test_cold_start_runs_no_graphs_or_scheme_body(self, argv):
        new, ran = self.executed(*argv)
        assert ran == {
            "ekrperm", "ekrperm.cli", "ekrperm.chartab", "ekrperm.permgroup", "ekrperm.errors"
        }, argv
        # the stubs are in place, unexecuted, for whoever reads them first
        stubs = {"ekrperm.groupcmds", "ekrperm.graphs", "ekrperm.scheme", "ekrperm.ekrverify"}
        assert stubs <= new - ran
        assert not new & {"fractions", "decimal", "csv"}, argv

    @pytest.mark.parametrize(
        "argv", [["spectrum", "31"], ["search", "7"], ["verify-all", "--max-n", "10"]]
    )
    def test_degree_outside_the_range_runs_no_handler_module(self, argv):
        # the range is checked before the handler's module is looked up
        _, ran = self.executed(*argv, code=cli.EXIT_DEGREE)
        assert ran == {
            "ekrperm", "ekrperm.cli", "ekrperm.chartab", "ekrperm.permgroup", "ekrperm.errors"
        }, argv

    @pytest.mark.parametrize(
        "argv", [["search", "6", "--workers", "1"], ["verify-all", "--max-n", "6"]]
    )
    def test_one_worker_imports_no_process_pool(self, argv):
        # importing concurrent.futures.process alone takes tens of milliseconds
        new, _ = self.executed(*argv)
        assert not new & {"concurrent.futures.process", "multiprocessing"}, argv

    @pytest.mark.parametrize("argv", [["bounds", "4"], ["clique", "5", "--method", "latin"]])
    def test_cliques_and_bounds_run_graphs(self, argv):
        _, ran = self.executed(*argv)
        assert {"ekrperm.groupcmds", "ekrperm.graphs", "ekrperm.scheme"} <= ran, argv
        assert "ekrperm.ekrverify" not in ran, argv

    @pytest.mark.parametrize("argv", [["lemmas", "4"], ["conjecture", "4", "--t", "1"]])
    def test_lemmas_and_conjecture_run_no_graphs_body(self, argv):
        new, ran = self.executed(*argv)
        assert {"ekrperm.ekrverify", "ekrperm.scheme"} <= ran, argv
        assert "ekrperm.graphs" in new - ran, argv

    @pytest.mark.parametrize(
        "argv, runs, skips",
        [
            (["search", "4"], {"graphs", "scheme"}, {"ekrverify", "linalg"}),
            (["identity-check", "4"], {"scheme"}, {"graphs", "ekrverify", "linalg"}),
        ],
    )
    def test_search_and_identity_check_run_only_their_modules(self, argv, runs, skips):
        # two of the benchmark's spans commands: a stray module body costs
        # its compile time on every cold run
        _, ran = self.executed(*argv)
        ran = {m.removeprefix("ekrperm.") for m in ran}
        assert runs <= ran and not ran & skips, argv

    def test_lemmas_loads_its_linear_algebra(self):
        assert "ekrperm.linalg" in self.imported("-m", "ekrperm", "lemmas", "4")

    def test_lazy_submodule_is_the_one_in_sys_modules(self):
        import ekrperm
        from ekrperm import ekrverify

        assert cli.ekrverify is ekrverify is sys.modules["ekrperm.ekrverify"]
        assert ekrperm.ekrverify is ekrverify
        assert cli.groupcmds is groupcmds is sys.modules["ekrperm.groupcmds"]
        assert cli._lazy_submodule("ekrverify") is ekrverify
        assert ekrverify.MAX_INCIDENCE_DEGREE == permgroup.MAX_INCIDENCE_DEGREE


class TestVerifyAll:
    # The sections of verify-all --max-n 9 before they became one table:
    # (label, t or None, degrees) runs in report order, and the digest of
    # the 246 check names, joined by newlines in report order.
    FROZEN_SECTIONS = [
        ("derangements", None, range(1, 10)),
        ("chartab", None, range(2, 9)),
        ("spectrum", 0, range(2, 10)),
        ("least-eigenvalue", None, range(2, 9)),
        ("quotient", None, range(2, 9)),
        ("clique-latin", None, range(2, 9)),
        ("clique-odd-latin", None, (5, 7, 9)),
        ("clique-cycles", None, (3, 5, 7, 8)),
        ("clique-characters", None, (7, 8, 9)),
        ("bounds", 0, range(2, 7)),
        ("bounds", 1, (3, 4, 5)),
        ("search", 0, range(3, 7)),
        ("classify", None, range(3, 7)),
        ("identity-check", 0, (4, 5)),
        ("lemmas", None, range(3, 8)),
        ("conjecture", 1, (4, 5, 6)),
    ]
    FROZEN_NAMES_SHA256 = (
        "66533bcb4c5399ce7556e7c385ff298f380122658ff359cf409c7c96597e9eac"
    )

    def test_sections_and_check_names_are_frozen(self, capsys):
        code, report, _ = run_json(capsys, "verify-all", "--max-n", "9")
        assert code == 0
        sections = [
            (s["section"], s["parameters"]) for s in report["result"]["sections"]
        ]
        assert sections == [
            (label, {"n": n} if t is None else {"n": n, "t": t})
            for label, t, degrees in self.FROZEN_SECTIONS
            for n in degrees
        ]
        assert len(sections) == 81
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 246
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert digest == self.FROZEN_NAMES_SHA256

    def test_search_runs_once_per_degree(self, capsys, monkeypatch, fresh_search):
        # every search that is not read from the cache covers S(n) with cosets
        from ekrperm import graphs

        searched = []
        cover = graphs.latin_coset_cover

        def counted(n):
            searched.append(n)
            return cover(n)

        monkeypatch.setattr(graphs, "latin_coset_cover", counted)
        code, _, _ = run_cli(capsys, "verify-all", "--max-n", "5")
        assert code == 0
        assert searched == [3, 4, 5]
        for argv in (["search", "4", "--workers", "2"], ["classify", "5"]):
            assert run_cli(capsys, *argv)[0] == 0
        assert searched == [3, 4, 5]

    def test_workers_leave_the_report_alone(self, capsys, monkeypatch, fresh_search):
        # --workers reaches every search, which then maps its branches over a pool
        import concurrent.futures

        split = []
        pool = concurrent.futures.ProcessPoolExecutor

        def counted(max_workers):
            split.append(max_workers)
            return pool(max_workers=max_workers)

        # the search imports the pool at call time, so it opens the counted one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        reports = []
        for workers in ("1", "2"):
            fresh_search.clear()
            code, report, _ = run_json(
                capsys, "verify-all", "--max-n", "5", "--workers", workers
            )
            assert code == 0
            assert report["parameters"].pop("workers") == int(workers)
            del report["wall_time_s"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert split == [2, 2, 2]

    def test_capped_run_passes(self, capsys):
        code, report, _ = run_json(capsys, "verify-all", "--max-n", "4")
        assert code == 0
        assert report["pass"] is True
        sections = {c["name"].split("[")[0] for c in report["checks"]}
        assert {"derangements", "chartab", "spectrum", "lemmas"} <= sections

    def test_checks_survive_optimized_interpreter(self, capsys):
        # Internal invariants raise explicitly, so -O must not change the checks.
        _, plain, _ = run_json(capsys, "verify-all", "--max-n", "5")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "ekrperm", "verify-all", "--max-n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        optimized = json.loads(proc.stdout)

        def outcomes(report):
            return [(c["name"], c["pass"]) for c in report["checks"]]

        assert outcomes(optimized) == outcomes(plain)
        assert optimized["pass"] is plain["pass"] is True


class TestRankCertificates:
    """Each matrix kind has one modulus: the Gram blocks are certified at 251
    and the 0/1 family rows mod 2, and every rank a report reads meets its
    cap there, so none is eliminated and no profile is computed twice."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("conjecture", "6", "--t", "1"),
            ("conjecture", "6", "--t", "2"),
            *[("lemmas", str(n)) for n in range(3, 9)],
            ("classify", "6"),
        ],
        ids=" ".join,
    )
    def test_every_profile_uses_the_first_prime(self, capsys, monkeypatch, argv):
        import numpy as np

        from ekrperm import linalg

        primes, matrices = [], []
        real = linalg.rank_profile_mod_p

        def recorded(rows, p):
            primes.append(p)
            matrices.append(rows)
            return real(rows, p)

        monkeypatch.setattr(linalg, "rank_profile_mod_p", recorded)
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and report["pass"] is True
        # the Gram profiles run at 251 alone; the family routes of conjecture
        # (and of the lemmas' point basis) are ranked mod 2 with no profile
        if argv[0] == "conjecture":
            assert primes == []
        else:
            assert primes and set(primes) == {linalg._RANK_PRIME}
        # the traffic the profile is sized for: square integer Gram blocks
        # of side at most (n - 1)**2 + 1, 50 at lemmas 8 and 26 at classify 6
        side = (int(argv[1]) - 1) ** 2 + 1
        for rows in matrices:
            assert isinstance(rows, np.ndarray) and rows.dtype.kind == "i"
            assert rows.shape[0] == rows.shape[1] <= side
            assert np.array_equal(rows, rows.T)

    @staticmethod
    def _profiled_sides(capsys, monkeypatch, *argv):
        """The side of every block rank_profile_mod_p reads in one clean run."""
        from ekrperm import linalg

        sides, real = [], linalg.rank_profile_mod_p

        def recorded(rows, p):
            sides.append(len(rows))
            return real(rows, p)

        monkeypatch.setattr(linalg, "rank_profile_mod_p", recorded)
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and report["pass"] is True
        return sides

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_lemmas_profile_the_blocks_of_H_and_M_alone(
        self, capsys, monkeypatch, n
    ):
        # the bordered kernel reads M's one certified rank, so [M | ones]'s
        # Gram block of side (n-1)(n-2) + 1 is never profiled
        sides = self._profiled_sides(capsys, monkeypatch, "lemmas", str(n))
        assert sorted(sides) == [(n - 1) * (n - 2), (n - 1) ** 2]

    def test_verify_all_profiles_each_block_once(self, capsys, monkeypatch):
        # rank H and rank M at n = 3..7, and classify's G_H at n = 3..6
        sides = self._profiled_sides(capsys, monkeypatch, "verify-all", "--max-n", "9")
        expected = [(n - 1) ** 2 + 1 for n in range(3, 7)]
        expected += [(n - 1) * s for n in range(3, 8) for s in (n - 1, n - 2)]
        assert len(sides) == 14 and sorted(sides) == sorted(expected)

    @pytest.mark.parametrize(
        "argv",
        [
            *[("lemmas", str(n)) for n in range(3, 9)],
            *[("classify", str(n)) for n in range(2, 7)],
            *[("conjecture", str(n), "--t", str(t)) for t in (1, 2) for n in range(t + 2, 7)],
        ],
        ids=" ".join,
    )
    def test_every_certified_rank_is_met_by_its_one_modulus(
        self, capsys, monkeypatch, argv
    ):
        # the measured fact behind one modulus per kind: a Gram rank that
        # missed its cap at 251, or a family rank that missed it mod 2 and
        # fell back to its dense rows, would be recorded under another name
        from ekrperm import linalg

        met, in_family = [], []
        real_rank, real_family = linalg.certified_rank, linalg.certified_family_rank

        def rank(rows, cap):
            result = real_rank(rows, cap)
            met.append(("dense fallback" if in_family else "certified_rank", result[1]))
            return result

        def family(positions, width, cap):
            in_family.append(cap)
            try:
                result = real_family(positions, width, cap)
            finally:
                in_family.pop()
            met.append(("certified_family_rank", result[1]))
            return result

        monkeypatch.setattr(linalg, "certified_rank", rank)
        monkeypatch.setattr(linalg, "certified_family_rank", family)
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and report["pass"] is True
        assert met and set(met) <= {
            ("certified_rank", "modular-certificate"),
            ("certified_family_rank", "modular-certificate"),
        }
