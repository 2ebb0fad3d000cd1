"""Exact verification of agreement graphs on symmetric groups.

The library computes, in exact arithmetic throughout, the spectra of the
graphs whose vertices are the permutations of 1..n and whose edges join
permutations agreeing in at most t points; builds the known extremal cliques
and independent families; and verifies the rank, kernel, and eigenspace
lemmas that pin down every maximum independent set at small degree.
"""

from .chartab import (
    CharacterTable,
    character_table,
    character_value,
    dimension,
)
from .ekrverify import (
    basis_check,
    bordered_kernel_check,
    classify_maximum_sets,
    depth_conjecture_dims,
    gram_check,
    incidence,
    kernel_membership_check,
    pi_ab,
    pi_ab_submatrix,
    rank_H_check,
    rank_M_check,
)
from .errors import (
    DegreeRangeError,
    FamilyValidationError,
    UnsupportedConstructionError,
)
from .graphs import (
    CliqueCertificate,
    Family,
    affine_clique,
    cycle_decomposition_clique,
    equitable_quotient,
    family,
    latin_clique,
    max_independent_sets,
    odd_n_latin_clique,
    read_family,
    validate_clique,
    validate_family,
    write_family,
)
from .permgroup import (
    Permutation,
    agreements,
    class_size,
    compose,
    conjugacy_classes,
    cycle_type_of_images,
    derangement_count,
    identity,
    inverse,
    parse_cycles,
    parse_one_line,
    partition_depth,
    partitions_of,
    rank_permutation,
    unrank_permutation,
)
from .scheme import (
    SchemeSpectrum,
    clique_coclique_check,
    fundamental_identity_check,
    ratio_bound,
    union_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "CliqueCertificate",
    "DegreeRangeError",
    "Family",
    "FamilyValidationError",
    "Permutation",
    "SchemeSpectrum",
    "UnsupportedConstructionError",
    "affine_clique",
    "agreements",
    "basis_check",
    "bordered_kernel_check",
    "character_table",
    "character_value",
    "class_size",
    "classify_maximum_sets",
    "clique_coclique_check",
    "compose",
    "conjugacy_classes",
    "cycle_decomposition_clique",
    "cycle_type_of_images",
    "depth_conjecture_dims",
    "derangement_count",
    "dimension",
    "equitable_quotient",
    "family",
    "fundamental_identity_check",
    "gram_check",
    "identity",
    "incidence",
    "inverse",
    "kernel_membership_check",
    "latin_clique",
    "max_independent_sets",
    "odd_n_latin_clique",
    "parse_cycles",
    "parse_one_line",
    "partition_depth",
    "partitions_of",
    "pi_ab",
    "pi_ab_submatrix",
    "rank_H_check",
    "rank_M_check",
    "rank_permutation",
    "ratio_bound",
    "read_family",
    "union_spectrum",
    "unrank_permutation",
    "validate_clique",
    "validate_family",
    "write_family",
]
