"""Exact verification of agreement graphs on symmetric groups.

The library computes, in exact arithmetic throughout, the spectra of the
graphs whose vertices are the permutations of 1..n and whose edges join
permutations agreeing in at most t points; builds the known extremal cliques
and independent families; and verifies the rank, kernel, and eigenspace
lemmas that pin down every maximum independent set at small degree.

Each submodule loads on first use (PEP 562): ``from ekrperm import
union_spectrum`` imports ekrperm.chartab and what it needs, not the rest.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "chartab": (
        "CharacterTable",
        "SchemeSpectrum",
        "character_table",
        "character_value",
        "dimension",
        "union_spectrum",
    ),
    "ekrverify": (
        "basis_check",
        "bordered_kernel_check",
        "classify_maximum_sets",
        "depth_conjecture_dims",
        "gram_check",
        "incidence",
        "kernel_membership_check",
        "pi_ab",
        "pi_ab_submatrix",
        "rank_H_check",
        "rank_M_check",
    ),
    "errors": (
        "DegreeRangeError",
        "FamilyValidationError",
        "UnsupportedConstructionError",
    ),
    "graphs": (
        "CliqueCertificate",
        "affine_clique",
        "cycle_decomposition_clique",
        "equitable_quotient",
        "latin_clique",
        "max_independent_sets",
        "odd_n_latin_clique",
        "parse_one_line",
        "read_family",
        "validate_clique",
        "validate_family",
        "write_family",
    ),
    "permgroup": (
        "agreements",
        "class_size",
        "conjugacy_classes",
        "cycle_type_of_images",
        "derangement_count",
        "partition_depth",
        "partitions_of",
    ),
    "scheme": (
        "clique_coclique_check",
        "constraint_rows",
        "fundamental_identity_check",
        "ratio_bound",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
