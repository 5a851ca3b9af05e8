"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact.  Two statements one might expect here are
mathematically false and are kept as strict expected failures, each with
the refutation in its docstring: incidence-tuple surjectivity at level 2
(impossible by cardinality) and a 3-nucleus count on the 3-chain (the
exhaustive oracle finds four).  The corrected, oracle-backed statements
are asserted green right next to them.
"""

import itertools

import pytest

from lttop.fincat import build_index_category, degeneracy, face
from lttop.lattice import (
    chain,
    diamond,
    double_negation_map,
    enumerate_nuclei,
    is_de_morgan,
    verify_heyting,
    verify_nucleus,
)
from lttop.omega import classifying_object
from lttop.presheaf import boundary, enumerate_subpresheaves, ith_face, parallel_cells
from lttop.closure import (
    classify,
    closure_recursive,
    closure_via_chi,
    factorization_check,
    k_simple,
    presheaf_corpus,
)
from lttop.fuzzy import (
    FuzzySet,
    QClosureOperator,
    classify_fuzzy,
    fuzzy_corpus,
    fuzzy_factorization_check,
    verify_qclosure,
)
from lttop.lattice import Nucleus
from lttop.topology import construct_bitstring_topology, degeneracy_compatible, enumerate_topologies

CATEGORIES = {}
OMEGAS = {}
TOPOLOGIES = {}
CORPORA = {}


def setup_module():
    for kind in ("set", "graph", "reflgraph", "bicolgraph", "semisimplex:2", "simplex:2"):
        CATEGORIES[kind] = build_index_category(kind)
        OMEGAS[kind] = classifying_object(CATEGORIES[kind])
        TOPOLOGIES[kind] = enumerate_topologies(CATEGORIES[kind])
    for kind in ("graph", "reflgraph", "semisimplex:2", "simplex:2"):
        CORPORA[kind] = presheaf_corpus(CATEGORIES[kind], 6)


def test_criterion_1_topology_counts():
    """Exhaustive, oracle-backed topology counts on all six built-ins."""
    expected = {
        "set": 2,
        "graph": 4,
        "reflgraph": 3,
        "bicolgraph": 8,
        "semisimplex:2": 8,
        "simplex:2": 4,
    }
    for kind, want in expected.items():
        category = CATEGORIES[kind]
        assert len(TOPOLOGIES[kind]) == want, kind
        methods = ["brute"]
        if category.family != "bicolgraph":
            methods.append("constrained")
        found = {
            m: {j.levels for j in enumerate_topologies(category, method=m)}
            for m in methods
        }
        for m, levels in found.items():
            assert len(levels) == want, (kind, m)
        assert len(set(map(frozenset, found.values()))) == 1, kind
    assert sorted(j.tag for j in TOPOLOGIES["reflgraph"]) == ["00", "01", "11"]
    assert sorted(j.tag for j in TOPOLOGIES["simplex:2"]) == ["000", "001", "011", "111"]
    print("criterion 1 (topology counts 2/4/3/8/8/4, methods agree): PASS")


def test_criterion_2_omega_structure(order_algebra):
    """Level sizes, Heyting laws, face-downset isomorphism, incidence collisions."""
    assert OMEGAS["graph"].level_sizes() == (2, 5)
    assert OMEGAS["reflgraph"].level_sizes() == (2, 5)
    assert OMEGAS["semisimplex:2"].level_sizes() == (2, 5, 19)
    for kind in ("graph", "reflgraph", "semisimplex:2"):
        for pos in range(len(CATEGORIES[kind].objects)):
            assert verify_heyting(order_algebra(OMEGAS[kind], pos)) is None
    # face-downset isomorphism for k <= 1
    omega = OMEGAS["semisimplex:2"]
    category = CATEGORIES["semisimplex:2"]
    for k in (0, 1):
        for i in range(k + 2):
            hat_idx = omega.sieve_index(ith_face(category, k + 1, i))
            algebra_above = order_algebra(omega, k + 1)
            algebra_below = order_algebra(omega, k)
            downset = [x for x in range(algebra_above.size) if algebra_above.leq(x, hat_idx)]
            table = omega.action_table(face(k + 1, i))
            assert sorted(table[x] for x in downset) == list(range(algebra_below.size))
            for a in downset:
                for b in downset:
                    assert algebra_above.leq(a, b) == algebra_below.leq(table[a], table[b])
    # incidence: the only collision at k <= 2 is boundary/top on the all-top tuple
    for k in (1, 2):
        lookup = parallel_cells(omega.as_presheaf(), k)
        all_top = tuple(omega.top[k - 1] for _ in range(k + 1))
        for tup, members in lookup.items():
            if tup == all_top:
                assert set(members) == {omega.sieve_index(boundary(category, k)), omega.top[k]}
            else:
                assert len(members) == 1
    # surjectivity holds at k = 1 (the corrected statement; k = 2 cannot hold)
    assert set(parallel_cells(omega.as_presheaf(), 1)) == set(itertools.product(range(2), repeat=2))
    assert len(parallel_cells(omega.as_presheaf(), 2)) == omega.level_size(2) - 1
    print("criterion 2 (omega structure, downset isomorphism, collision structure): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="refuted by cardinality: |Omega(2)| = 19 < 125 = |Omega(1)|^3, so "
    "the incidence-tuple map cannot be surjective at level 2; tuples whose "
    "entries do not share subfaces (e.g. three copies of a non-loop edge "
    "sieve) have no preimage.  Surjectivity holds at level 1 only.",
)
def test_criterion_2_incidence_surjectivity_beyond_level_one():
    """Expected failure pin: full-product surjectivity up to level 2 is false."""
    omega = OMEGAS["semisimplex:2"]
    for k in (1, 2):
        size_below = omega.level_size(k - 1)
        lookup = parallel_cells(omega.as_presheaf(), k)
        assert set(lookup) == set(itertools.product(range(size_below), repeat=k + 1))


def test_criterion_3_closure_equivalence():
    """Both closure routes agree everywhere; the double-negation formula holds."""
    checked = 0
    for kind in ("graph", "reflgraph", "semisimplex:2", "simplex:2"):
        for B in CORPORA[kind]:
            subs = enumerate_subpresheaves(B)
            for j in TOPOLOGIES[kind]:
                for sub in subs:
                    assert closure_via_chi(j, sub) == closure_recursive(j.tag, sub)
                    checked += 1
    # pointwise double-negation closure on every graph corpus instance
    j01 = next(j for j in TOPOLOGIES["graph"] if j.tag == "01")
    for B in CORPORA["graph"]:
        src = B.action_table(face(1, 1))
        tgt = B.action_table(face(1, 0))
        for sub in enumerate_subpresheaves(B):
            closed = closure_via_chi(j01, sub)
            assert closed.level_indices(0) == sub.level_indices(0)
            for e in range(len(B.carrier(1))):
                in_closure = closed.contains(1, e)
                endpoints_in = sub.contains(0, src[e]) and sub.contains(0, tgt[e])
                assert in_closure == endpoints_in
    print(f"criterion 3 (closure equivalence, {checked} instances): PASS")


def test_criterion_4_classification_theorem():
    """classify vs the factorization oracle on the representables, both
    directions: the bound-6 corpora, and every presheaf with at most four
    cells on the larger simplex categories."""
    corpora = {
        kind: (CORPORA[kind], TOPOLOGIES[kind]) for kind in ("graph", "reflgraph", "semisimplex:2")
    }
    for kind in ("simplex:2", "semisimplex:3", "simplex:3"):
        category = build_index_category(kind)
        corpora[kind] = (presheaf_corpus(category, 4), enumerate_topologies(category))
    pairs = 0
    for kind, (corpus, topologies) in corpora.items():
        for B in corpus:
            for j in topologies:
                predicted = classify(B, j.tag)
                observed = factorization_check(B, j)
                assert predicted.separated == observed.separated, (kind, B, j.tag)
                assert predicted.complete == observed.complete, (kind, B, j.tag)
                pairs += 1
    # simple graphs are exactly the corpus objects separated for bits 01
    j01 = next(j for j in TOPOLOGIES["graph"] if j.tag == "01")
    for B in CORPORA["graph"]:
        assert classify(B, "01").separated == k_simple(B, 1)
    print(f"criterion 4 (classification vs factorization oracle, {pairs} pairs): PASS")


def test_criterion_5_degeneracy_filter():
    """Compatibility bits on the graph classifier, with the exact witness."""
    omega_refl = OMEGAS["reflgraph"]
    results = {}
    witnesses = {}
    for word in ("00", "01", "10", "11"):
        j = construct_bitstring_topology(CATEGORIES["graph"], word)
        ok, witness = degeneracy_compatible(j)
        results[word] = ok
        witnesses[word] = witness
    assert results == {"00": True, "01": True, "10": False, "11": True}
    witness = witnesses["10"]
    # the failing square is the collapse map applied to the empty sieve:
    # closing first gives the whole edge, collapsing first only its boundary
    assert witness["generator"] == degeneracy(0, 0)
    assert witness["input_sieve"].size == 0
    assert witness["map_then_action"].is_full
    hollow = witness["action_then_map"]
    assert hollow == boundary(omega_refl.category, 1)
    print("criterion 5 (degeneracy filter {00,01,11} pass, 10 fails at the collapse square): PASS")


def test_criterion_6_nuclei_and_fuzzy_sets():
    """Nucleus enumeration against the raw oracle; closure axioms; sheaf tests."""

    def brute_nuclei(L):
        return [
            m
            for m in itertools.product(range(L.size), repeat=L.size)
            if verify_nucleus(L, m) is None
        ]

    two, three, four = chain(2), chain(3), diamond()
    assert [nu.mapping for nu in enumerate_nuclei(two)] == brute_nuclei(two)
    assert [nu.mapping for nu in enumerate_nuclei(three)] == brute_nuclei(three)
    assert [nu.mapping for nu in enumerate_nuclei(four)] == brute_nuclei(four)
    assert len(enumerate_nuclei(two)) == 2
    assert len(enumerate_nuclei(four)) == 4
    # the corrected 3-chain count: the stated "3" misses double negation
    assert len(enumerate_nuclei(three)) == 4
    assert double_negation_map(three) in [nu.mapping for nu in enumerate_nuclei(three)]

    five = chain(5, ("0", "1/4", "1/2", "3/4", "1"))
    for algebra in (two, three, four, five):
        for nu in enumerate_nuclei(algebra):
            assert verify_qclosure(QClosureOperator.from_nucleus(nu), algebra) is None

    # the sheaf criterion matches the factorization oracle over the corpus
    for nu in enumerate_nuclei(three):
        op = QClosureOperator.from_nucleus(nu)
        image = set(nu.mapping)
        corpus = fuzzy_corpus(three, 2)
        for B in corpus:
            separated, complete = fuzzy_factorization_check(B, op, corpus)
            assert separated
            assert (separated and complete) == all(m in image for m in B.membership)
            assert classify_fuzzy(B, op) == {
                "separated": True,
                "sheaf": separated and complete,
            }

    # join-with-one-half on the five-chain
    op = QClosureOperator.from_nucleus(Nucleus(five, tuple(max(x, 2) for x in range(5))))
    for membership in itertools.product(range(5), repeat=2):
        B = FuzzySet(five, ("a", "b"), membership)
        assert classify_fuzzy(B, op)["sheaf"] == all(m >= 2 for m in membership)
    print("criterion 6 (nuclei 2/4(+corrected 3-chain)/4, closure axioms, sheaf criterion): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the exhaustive oracle over all 27 self-maps of the 3-chain "
    "returns 4 nuclei (id, join-with-middle, double negation, top); a count "
    "of 3 would omit double negation, which the chain's De Morgan property "
    "forces to be a nucleus.",
)
def test_criterion_6_three_chain_count_of_three():
    """Expected failure pin: a 3-nucleus count on the 3-chain is one short."""
    assert len(enumerate_nuclei(chain(3))) == 3


def test_criterion_7_double_negation_nucleus():
    """Double negation is a monad everywhere and a nucleus when De Morgan holds."""
    from lttop.lattice import FiniteHeytingAlgebra

    corpus = [chain(2), chain(3), chain(4), chain(5), diamond()]
    # include two non-trivial subobject lattices from presheaf levels
    for kind, level in (("graph", 1), ("semisimplex:2", 2)):
        omega = OMEGAS[kind]
        pos = omega.category.obj_index(level)
        sieves = omega.sieves[pos]
        corpus.append(
            FiniteHeytingAlgebra.from_leq(lambda a, b: sieves[a].leq(sieves[b]), len(sieves))
        )
    de_morgan_seen = 0
    for L in corpus:
        assert verify_heyting(L) is None
        phi = double_negation_map(L)
        for a in L.elements():
            assert L.leq(a, phi[a])
            assert phi[phi[a]] == phi[a]
            for b in L.elements():
                if L.leq(a, b):
                    assert L.leq(phi[a], phi[b])
        if is_de_morgan(L):
            de_morgan_seen += 1
            assert verify_nucleus(L, phi) is None
    assert de_morgan_seen >= 5  # chains and the Boolean diamond
    print("criterion 7 (double negation: monad always, nucleus under De Morgan): PASS")
