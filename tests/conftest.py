"""Fixtures shared across test modules."""

import pytest

from lttop.fuzzy import (
    DEFAULT_FUZZY_CARRIER,
    QClosureViolation,
    fuzzy_closure,
    fuzzy_corpus,
    fuzzy_morphisms,
    pullback_fuzzy,
    subobjects_of,
)
from lttop.presheaf import Subpresheaf, yoneda


def _sieve_pullback(category, u, sieve):
    """The sieve { g | u o g in S } on u.source, for S a sieve on u.target,
    computed by composing morphisms: the reference for Omega's actions."""
    y_src = yoneda(category, u.source)
    y_tgt = sieve.presheaf
    sets = {}
    for l in category.objects:
        members = []
        for g in y_src.carrier(l):
            composite = category.compose(u, g)
            if sieve.contains(l, y_tgt.label_index(l, composite)):
                members.append(g)
        sets[l] = members
    return Subpresheaf.from_sets(y_src, sets)


@pytest.fixture(scope="session")
def sieve_pullback():
    return _sieve_pullback


def _verify_qclosure(op, L, max_carrier=DEFAULT_FUZZY_CARRIER, square_carrier=2):
    """The five closure-operator axioms checked directly on ``FuzzySubset``
    objects, closing both sides of every comparison: the reference for
    ``verify_qclosure``'s per-ambient tables."""
    corpus = fuzzy_corpus(L, max_carrier)
    small = [A for A in corpus if A.size <= square_carrier]
    for A in corpus:
        for sub in subobjects_of(A):
            closed = fuzzy_closure(op, sub)
            if not sub.leq(closed):
                return QClosureViolation("increasing", (A, sub))
            if fuzzy_closure(op, closed) != closed:
                return QClosureViolation("idempotent", (A, sub))
            if sub.is_strong and not closed.is_strong:
                return QClosureViolation("strongness", (A, sub))
    for A in small:
        subs = subobjects_of(A)
        for s1 in subs:
            for s2 in subs:
                if s1.leq(s2) and not fuzzy_closure(op, s1).leq(fuzzy_closure(op, s2)):
                    return QClosureViolation("monotone", (A, s1, s2))
    for B in small:
        subs_b = subobjects_of(B)
        for A in small:
            for mapping in fuzzy_morphisms(A, B):
                for sub in subs_b:
                    lhs = fuzzy_closure(op, pullback_fuzzy(A, B, mapping, sub))
                    rhs = pullback_fuzzy(A, B, mapping, fuzzy_closure(op, sub))
                    if lhs != rhs:
                        return QClosureViolation(
                            "pullback-stability", (A, B, mapping, sub)
                        )
    return None


@pytest.fixture(scope="session")
def verify_qclosure_reference():
    return _verify_qclosure
