"""Fuzzy-set closure operators: formulas, axioms, separatedness, the sheaf
criterion, and the operator/nucleus correspondence."""

import itertools

import pytest

from lttop import docio, fuzzy
from lttop.docio import NAMED_ALGEBRAS
from lttop.lattice import Nucleus, chain, diamond, enumerate_nuclei, pentagon
from lttop.fuzzy import (
    FuzzySet,
    FuzzySubset,
    QClosureOperator,
    classify_fuzzy,
    full_subset,
    fuzzy_closure,
    fuzzy_corpus,
    fuzzy_factorization_check,
    fuzzy_morphisms,
    is_dense_fuzzy,
    pullback_fuzzy,
    subobjects_of,
    verify_qclosure,
)

CHAIN3 = chain(3, ("0", "1/2", "1"))
CHAIN5 = chain(5, ("0", "1/4", "1/2", "3/4", "1"))
JOIN_HALF = Nucleus(CHAIN5, tuple(max(x, 2) for x in range(5)))


def nucleus_op(nu):
    return QClosureOperator.from_nucleus(nu)


def operator_to_nucleus_map(op, L):
    """Read a map off the closure of singletons inside the top singleton."""
    point = FuzzySet(L, ("x",), (L.top,))
    mapping = []
    for x in L.elements():
        closed = fuzzy_closure(op, FuzzySubset(point, ((0, x),)))
        mapping.append(dict(closed.members)[0])
    return tuple(mapping)


def operators_agree(op1, op2, L, max_carrier=2):
    """Extensional comparison of two closure operators over a small corpus."""
    for A in fuzzy_corpus(L, max_carrier):
        for sub in subobjects_of(A):
            if fuzzy_closure(op1, sub) != fuzzy_closure(op2, sub):
                return False
    return True


def test_identity_nucleus_keeps_memberships():
    op = nucleus_op(Nucleus(CHAIN3, (0, 1, 2)))
    A = FuzzySet(CHAIN3, ("a", "b"), (1, 2))
    sub = FuzzySubset(A, ((0, 0),))
    assert fuzzy_closure(op, sub) == sub


def test_constant_top_nucleus_restores_ambient_membership():
    op = nucleus_op(Nucleus(CHAIN3, (2, 2, 2)))
    A = FuzzySet(CHAIN3, ("a", "b"), (1, 2))
    sub = FuzzySubset(A, ((0, 0), (1, 1)))
    closed = fuzzy_closure(op, sub)
    assert closed.members == ((0, 1), (1, 2))
    assert closed.is_strong


def test_join_half_closure_value():
    # a quarter-member inside a three-quarter ambient closes to one half
    A = FuzzySet(CHAIN5, ("a",), (3,))
    sub = FuzzySubset(A, ((0, 1),))
    assert fuzzy_closure(nucleus_op(JOIN_HALF), sub).members == ((0, 2),)


def test_trivial_closure_adds_everything():
    op = QClosureOperator.trivial()
    A = FuzzySet(CHAIN3, ("a", "b"), (1, 2))
    sub = FuzzySubset(A, ((0, 0),))
    assert fuzzy_closure(op, sub) == full_subset(A)
    assert is_dense_fuzzy(op, sub)


@pytest.mark.parametrize("algebra", [chain(2), CHAIN3, diamond(), CHAIN5])
def test_every_nucleus_induces_a_closure_operator(algebra):
    for nu in enumerate_nuclei(algebra):
        assert verify_qclosure(nucleus_op(nu), algebra, max_carrier=2) is None
    assert verify_qclosure(QClosureOperator.trivial(), algebra, max_carrier=2) is None


def test_verify_qclosure_matches_the_direct_reference(verify_qclosure_reference):
    # the trivial operator and every endomap read as a "nucleus", most of
    # which break some axiom: the first violation must be the same one
    axioms = set()
    for algebra in (CHAIN3, diamond()):
        ops = [QClosureOperator.trivial()] + [
            nucleus_op(Nucleus(algebra, mapping))
            for mapping in itertools.product(algebra.elements(), repeat=algebra.size)
        ]
        # the reference walks every fuzzy set within the bounds, the check
        # only the one-element ones
        for op, max_carrier in itertools.product(ops, (2, 3)):
            got = verify_qclosure(op, algebra, max_carrier)
            want = verify_qclosure_reference(op, algebra, max_carrier)
            assert got == want, (str(op), max_carrier)
            axioms.add(None if got is None else got.axiom)
    assert axioms >= {None, "increasing", "idempotent", "monotone", "pullback-stability"}


def test_verify_qclosure_follows_the_algebra_and_the_bounds(verify_qclosure_reference):
    # calls switch the algebra or the bound between them; bound 0 visits
    # only the empty fuzzy set, where every operator passes
    L3, L4 = CHAIN3, diamond()
    maps = {
        L3: list(itertools.product(L3.elements(), repeat=L3.size)),
        # the nuclei, four maps that fail only on squares, one not increasing
        L4: [nu.mapping for nu in enumerate_nuclei(L4)]
        + [(0, 3, 2, 3), (0, 1, 3, 3), (3, 3, 2, 3), (2, 1, 2, 3), (0, 0, 0, 0)],
    }
    steps = [(L3, 2), (L3, 1), (L3, 0), (L4, 0), (L4, 2), (L4, 1), (L3, 2)]
    axioms = set()
    for L, max_carrier in steps:
        ops = [QClosureOperator.trivial()] + [nucleus_op(Nucleus(L, m)) for m in maps[L]]
        for op in ops:
            got = verify_qclosure(op, L, max_carrier)
            want = verify_qclosure_reference(op, L, max_carrier)
            assert got == want, (str(op), max_carrier)
            axioms.add(None if got is None else got.axiom)
    assert axioms >= {None, "increasing", "monotone", "pullback-stability"}


def test_verify_qclosure_matches_the_reference_on_chain4_and_the_pentagon(
    verify_qclosure_reference,
):
    # every endomap of two larger algebras, one of them not distributive,
    # at the bound where the reference walks the same one-element sets
    axioms = set()
    for algebra in (docio.NAMED_ALGEBRAS["chain4"](), pentagon()):
        ops = [QClosureOperator.trivial()] + [
            nucleus_op(Nucleus(algebra, mapping))
            for mapping in itertools.product(algebra.elements(), repeat=algebra.size)
        ]
        for op in ops:
            got = verify_qclosure(op, algebra, 1)
            assert got == verify_qclosure_reference(op, algebra, 1), str(op)
            axioms.add(None if got is None else got.axiom)
    assert axioms >= {"idempotent", "monotone", "pullback-stability"}


def test_a_passing_check_builds_no_fuzzy_subobject(monkeypatch):
    # the check runs on (membership, sub-membership) pairs; records are
    # built only for a violation's context
    calls = []
    init = FuzzySubset.__init__

    def counted_init(self, *args):
        calls.append("FuzzySubset")
        init(self, *args)

    def counted(name):
        def never(*args):
            calls.append(name)

        return never

    monkeypatch.setattr(FuzzySubset, "__init__", counted_init)
    monkeypatch.setattr(fuzzy, "fuzzy_closure", counted("fuzzy_closure"))
    monkeypatch.setattr(fuzzy, "pullback_fuzzy", counted("pullback_fuzzy"))
    ops = [QClosureOperator.trivial()] + [nucleus_op(nu) for nu in enumerate_nuclei(CHAIN5)]
    for op in ops:
        assert verify_qclosure(op, CHAIN5, max_carrier=3) is None
    assert calls == []


def test_an_operator_over_another_algebra_is_refused():
    op = nucleus_op(Nucleus(CHAIN3, (1, 1, 2)))
    with pytest.raises(ValueError, match="different algebra"):
        verify_qclosure(op, CHAIN5)
    with pytest.raises(ValueError, match="different algebra"):
        classify_fuzzy(FuzzySet(CHAIN5, ("a",), (1,)), op)
    # a copy of the algebra with other names orders the same elements
    renamed = chain(3, ("lo", "mid", "hi"))
    assert verify_qclosure(op, renamed) is None
    assert classify_fuzzy(FuzzySet(renamed, ("a",), (0,)), op) == {
        "separated": True,
        "sheaf": False,
    }


def test_corpus_names_every_element():
    corpus = fuzzy_corpus(chain(2), 5)
    assert len(corpus) == 1 + 2 + 4 + 8 + 16 + 32
    names = corpus[-1].elements
    assert names[:4] == ("a", "b", "c", "d")
    assert len(set(names)) == 5
    assert all(A.elements == names[: A.size] for A in corpus)


def test_pullback_of_a_subobject():
    A = FuzzySet(CHAIN3, ("a", "b", "c"), (2, 1, 2))
    B = FuzzySet(CHAIN3, ("x", "y"), (1, 2))
    sub = FuzzySubset(B, ((1, 2),))
    pulled = pullback_fuzzy(A, B, (1, 0, 1), sub)
    assert pulled.members == ((0, 2), (2, 2))
    # meets with the domain's own membership
    assert pullback_fuzzy(A, B, (1, 1, 1), sub).members == ((0, 2), (1, 1), (2, 2))


def test_full_carrier_corpus_for_the_named_example():
    assert verify_qclosure(nucleus_op(JOIN_HALF), CHAIN5, max_carrier=3) is None


def test_non_nucleus_map_breaks_pullback_stability():
    # monotone, increasing, idempotent, but not meet-preserving on the diamond
    L = diamond()
    bad = Nucleus(L, (0, 3, 2, 3))
    problem = verify_qclosure(nucleus_op(bad), L, max_carrier=2)
    assert problem is not None
    assert problem.axiom == "pullback-stability"
    A, B, mapping, sub = problem.context
    assert A.size == 1 and B.size == 1  # the singleton square from the proof


def test_every_fuzzy_set_is_separated_under_nucleus_operators():
    for nu in enumerate_nuclei(CHAIN3):
        op = nucleus_op(nu)
        corpus = fuzzy_corpus(CHAIN3, 2)
        for B in corpus:
            separated, _ = fuzzy_factorization_check(B, op, corpus)
            assert separated
            assert classify_fuzzy(B, op)["separated"]


def test_sheaf_criterion_matches_the_factorization_oracle():
    for nu in enumerate_nuclei(CHAIN3):
        op = nucleus_op(nu)
        image = set(nu.mapping)
        corpus = fuzzy_corpus(CHAIN3, 2)
        for B in corpus:
            separated, complete = fuzzy_factorization_check(B, op, corpus)
            assert (separated and complete) == all(m in image for m in B.membership)
            assert classify_fuzzy(B, op)["sheaf"] == (separated and complete)


def test_chain5_sheaf_examples():
    op = nucleus_op(JOIN_HALF)
    high = FuzzySet(CHAIN5, ("a", "b", "c"), (2, 3, 4))
    low = FuzzySet(CHAIN5, ("a", "b"), (1, 4))
    assert classify_fuzzy(high, op) == {"separated": True, "sheaf": True}
    assert classify_fuzzy(low, op) == {"separated": True, "sheaf": False}


def test_identity_nucleus_makes_everything_a_sheaf():
    op = nucleus_op(Nucleus(CHAIN3, (0, 1, 2)))
    for B in fuzzy_corpus(CHAIN3, 2):
        assert classify_fuzzy(B, op) == {"separated": True, "sheaf": True}


def test_trivial_topology_sheaves_are_the_top_singletons():
    # the closed form against the brute factorization oracle: separated
    # objects are the subterminal ones (at most one element, any
    # membership), and the only sheaf is the singleton at top
    op = QClosureOperator.trivial()
    for make in NAMED_ALGEBRAS.values():
        L = make()
        corpus = fuzzy_corpus(L, 2)
        for B in corpus:
            separated, complete = fuzzy_factorization_check(B, op, corpus)
            assert classify_fuzzy(B, op) == {
                "separated": separated,
                "sheaf": separated and complete,
            }
            assert separated == (B.size <= 1)
            assert (separated and complete) == (B.membership == (L.top,))


def test_dense_fuzzy_subsets_keep_the_carrier():
    op = nucleus_op(JOIN_HALF)
    A = FuzzySet(CHAIN5, ("a", "b"), (3, 4))
    for sub in subobjects_of(A):
        if is_dense_fuzzy(op, sub):
            assert sub.carrier_indices == (0, 1)
            memberships = dict(sub.members)
            for i in range(A.size):
                assert CHAIN5.leq(A.membership[i], JOIN_HALF.mapping[memberships[i]])


def test_nucleus_round_trip():
    for algebra in (CHAIN3, CHAIN5, diamond()):
        for nu in enumerate_nuclei(algebra):
            assert operator_to_nucleus_map(nucleus_op(nu), algebra) == nu.mapping


def test_trivial_operator_is_excluded_from_the_correspondence():
    # its singleton read-off is the constant-top nucleus, but the operators
    # differ extensionally: the trivial one adds elements
    read_off = operator_to_nucleus_map(QClosureOperator.trivial(), CHAIN3)
    assert read_off == (CHAIN3.top,) * 3
    induced = nucleus_op(Nucleus(CHAIN3, read_off))
    assert not operators_agree(QClosureOperator.trivial(), induced, CHAIN3)


def test_fuzzy_morphisms_raise_membership():
    A = FuzzySet(CHAIN3, ("a",), (2,))
    B = FuzzySet(CHAIN3, ("x", "y"), (1, 2))
    assert list(fuzzy_morphisms(A, B)) == [(1,)]


def test_mismatched_membership_is_rejected():
    A = FuzzySet(CHAIN3, ("a",), (1,))
    with pytest.raises(ValueError):
        FuzzySubset(A, ((0, 2),))
