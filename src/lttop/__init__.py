"""Lawvere-Tierney topologies on finite presheaf toposes, made executable.

The package computes classifying objects of truncated (semi-)simplicial
sets, graphs, and bicolored graphs, enumerates and verifies all topologies
on them, applies the induced closure operators, classifies presheaves as
separated/complete/sheaf, and carries the parallel nucleus-based theory
for fuzzy sets over finite Heyting algebras.  Every structural claim is
backed by a brute-force oracle at small scale in the test suite.
"""

from .fincat import (
    FiniteIndexCategory,
    SimplexMorphism,
    build_index_category,
    degeneracy,
    face,
    normal_form,
)
from .lattice import (
    FiniteHeytingAlgebra,
    Nucleus,
    chain,
    diamond,
    double_negation_map,
    enumerate_nuclei,
    is_de_morgan,
    pentagon,
    verify_heyting,
    verify_nucleus,
)
from .presheaf import (
    FinitePresheaf,
    PresheafMorphism,
    Subpresheaf,
    add_degeneracies,
    boundary,
    enumerate_morphisms,
    enumerate_subpresheaves,
    ith_face,
    strip_degeneracies,
    yoneda,
)
from .omega import (
    OmegaObject,
    characteristic_function,
    classifying_object,
    pullback_of_true,
)
from .topology import (
    LTTopology,
    construct_bitstring_topology,
    degeneracy_compatible,
    enumerate_topologies,
    verify_topology,
)
from .closure import (
    classifications,
    classify,
    closure_recursive,
    closure_via_chi,
    factorization_check,
    factorization_checks,
    is_dense_by_bits,
    is_dense_via_closure,
    k_complete,
    k_exact,
    k_simple,
    presheaf_corpus,
)
from .fuzzy import (
    FuzzySet,
    FuzzySubset,
    QClosureOperator,
    classify_fuzzy,
    fuzzy_closure,
    verify_qclosure,
)

__version__ = "0.1.0"
