"""Fixtures shared across test modules."""

import pytest

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
