"""Heyting algebra laws, nucleus enumeration against the raw-map oracle,
double negation, and De Morgan detection."""

import itertools

import pytest

from lttop.lattice import (
    FiniteHeytingAlgebra,
    LawViolation,
    boolean,
    chain,
    diamond,
    double_negation_map,
    enumerate_nuclei,
    is_de_morgan,
    pentagon,
    verify_heyting,
    verify_nucleus,
)


def brute_nuclei(L):
    """Oracle: all |L|^|L| maps filtered by the three axioms."""
    return sorted(
        mapping
        for mapping in itertools.product(range(L.size), repeat=L.size)
        if verify_nucleus(L, mapping) is None
    )


def test_chain_and_diamond_are_heyting():
    assert verify_heyting(chain(2)) is None
    assert verify_heyting(diamond()) is None
    assert verify_heyting(chain(5)) is None


def test_pentagon_is_not_heyting():
    problem = verify_heyting(pentagon())
    assert problem is not None
    assert problem.law in ("implication-existence", "adjunction")


def test_from_covers_computes_transitive_closure():
    L = FiniteHeytingAlgebra.from_covers(("bot", "mid", "top"), [("bot", "mid"), ("mid", "top")])
    assert L.leq(0, 2)
    assert L.bottom == 0 and L.top == 2
    assert verify_heyting(L) is None


def test_adjunction_defines_implication_and_negation():
    L = diamond()
    for a in L.elements():
        for b in L.elements():
            impl = L.implies(a, b)
            for c in L.elements():
                assert L.leq(L.meet(a, c), b) == L.leq(c, impl)
        assert L.neg(a) == L.implies(a, L.bottom)


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: chain(2), 2),
        (lambda: chain(3), 4),  # id, join-with-middle, double negation, top
        (lambda: diamond(), 4),
        (lambda: chain(4), 8),
    ],
)
def test_nucleus_enumeration_matches_brute_force(make, expected):
    L = make()
    fast = [nu.mapping for nu in enumerate_nuclei(L)]
    oracle = brute_nuclei(L)
    assert fast == oracle
    assert len(fast) == expected


def test_nucleus_bound(monkeypatch):
    from lttop import lattice

    monkeypatch.setattr(lattice, "DEFAULT_NUCLEUS_BOUND", 3)
    with pytest.raises(ValueError):
        enumerate_nuclei(boolean(2))


def join_irreducibles(L):
    """The elements that are not the join of the elements strictly below
    them (so not the bottom, the empty join), read off the order."""
    found = []
    for a in L.elements():
        below = L.bottom
        for b in L.elements():
            if b != a and L.leq(b, a):
                below = L.join(below, b)
        if below != a:
            found.append(a)
    return found


@pytest.mark.parametrize(
    "make",
    [lambda: chain(2), lambda: chain(3), lambda: chain(4), lambda: chain(5), diamond],
    ids=["chain2", "chain3", "chain4", "chain5", "diamond"],
)
def test_a_distributive_algebra_has_one_nucleus_per_set_of_join_irreducibles(make):
    # the nuclei of a finite distributive lattice L correspond to the
    # subsets of its join-irreducibles J(L): 2^(n - 1) on chain n, 4 on the
    # diamond
    L = make()
    for a, b, c in itertools.product(L.elements(), repeat=3):
        assert L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c)), (a, b, c)
    assert len(enumerate_nuclei(L)) == 2 ** len(join_irreducibles(L))


def test_verify_nucleus_examples():
    L = chain(3)
    identity = tuple(L.elements())
    assert verify_nucleus(L, identity) is None
    assert verify_nucleus(L, (L.top,) * 3) is None
    # top, middle, top: fails meet preservation at (bottom, middle)
    problem = verify_nucleus(L, (2, 1, 2))
    assert problem is not None
    assert problem.law == "meet-preservation"
    assert problem.witness in ((0, 1), (1, 0))


def test_derived_nucleus_laws():
    for L in (chain(2), chain(3), chain(4), diamond()):
        for nu in enumerate_nuclei(L):
            phi = nu.mapping
            assert phi[L.top] == L.top
            for a in L.elements():
                assert phi[phi[a]] == phi[a]
                for b in L.elements():
                    if L.leq(a, b):
                        assert L.leq(phi[a], phi[b])
                    assert L.leq(L.meet(phi[a], b), phi[L.meet(a, b)])


def test_composing_nuclei_need_not_be_one():
    # deliberately no closure property: exhibit a pair whose composite fails
    L = diamond()
    nuclei = [nu.mapping for nu in enumerate_nuclei(L)]
    composites = {
        tuple(m1[m2[a]] for a in L.elements()) for m1 in nuclei for m2 in nuclei
    }
    assert any(verify_nucleus(L, m) is not None for m in composites) or composites <= set(
        nuclei
    )


def test_double_negation():
    B = boolean(2)
    assert double_negation_map(B) == tuple(B.elements())
    L = chain(3)
    assert double_negation_map(L) == (0, 2, 2)
    assert is_de_morgan(L)
    assert verify_nucleus(L, double_negation_map(L)) is None


def test_double_negation_is_always_a_monad():
    # monotone, increasing, idempotent on every algebra, De Morgan or not
    for L in (chain(2), chain(4), diamond(), graph_edge_lattice()):
        phi = double_negation_map(L)
        for a in L.elements():
            assert L.leq(a, phi[a])
            assert phi[phi[a]] == phi[a]
            for b in L.elements():
                if L.leq(a, b):
                    assert L.leq(phi[a], phi[b])


def graph_edge_lattice():
    """The five-element sieve lattice of the one-edge graph: not De Morgan."""
    from lttop.fincat import build_index_category
    from lttop.presheaf import enumerate_subpresheaves, yoneda

    g = build_index_category("graph")
    subs = enumerate_subpresheaves(yoneda(g, 1))
    return FiniteHeytingAlgebra.from_leq(lambda a, b: subs[a].leq(subs[b]), len(subs))


def test_subobject_lattice_of_an_edge_is_not_de_morgan():
    L = graph_edge_lattice()
    assert verify_heyting(L) is None
    assert not is_de_morgan(L)
    # the guaranteed direction is one-way: De Morgan implies nucleus; here no
    # claim is made, and double negation happens to be a nucleus anyway
    phi = double_negation_map(L)
    for a in L.elements():
        assert L.leq(a, phi[a]) and phi[phi[a]] == phi[a]


def implication_reference(L):
    """a => b straight from the order: the element whose down-set is
    {c : meet(a, c) exists and is <= b}, or None when no element has it."""

    def meet(a, c):
        lower = [m for m in L.elements() if L.leq(m, a) and L.leq(m, c)]
        tops = [m for m in lower if all(L.leq(x, m) for x in lower)]
        return tops[0] if tops else None

    def down(c):
        return {x for x in L.elements() if L.leq(x, c)}

    table = []
    for a in L.elements():
        row = []
        for b in L.elements():
            wanted = set()
            for c in L.elements():
                m = meet(a, c)
                if m is not None and L.leq(m, b):
                    wanted.add(c)
            row.append(next((c for c in L.elements() if down(c) == wanted), None))
        table.append(row)
    return table


def implication_answers(L):
    """What ``implies`` and ``neg`` return, with None where they raise."""

    def attempt(fn, *args):
        try:
            return fn(*args)
        except ValueError:
            return None

    impl = [[attempt(L.implies, a, b) for b in L.elements()] for a in L.elements()]
    neg = [attempt(L.neg, a) for a in L.elements()]
    return impl, neg


# bot < a, b < c, d < top: a and b have no join
BOUNDED_BOWTIE = (
    ("bot", "a", "b", "c", "d", "top"),
    [("bot", "a"), ("bot", "b"), ("a", "c"), ("a", "d"),
     ("b", "c"), ("b", "d"), ("c", "top"), ("d", "top")],
)


def test_implication_is_derived_on_first_use_with_the_same_answers():
    from lttop.docio import NAMED_ALGEBRAS

    algebras = [make() for make in NAMED_ALGEBRAS.values()]
    algebras.append(FiniteHeytingAlgebra.from_covers(*BOUNDED_BOWTIE))
    for L in algebras:
        assert L._impl is None  # nothing cubic at construction
        expected = implication_reference(L)
        impl, neg = implication_answers(L)
        assert impl == expected
        assert neg == [expected[a][L.bottom] for a in L.elements()]
        assert L._implication_table() == expected  # None where none exists


def test_defective_orders_report_the_same_violations():
    P = pentagon()
    assert verify_heyting(P) == LawViolation("implication-existence", (2, 1))
    assert P._implication_table() == [
        [4, 4, 4, 4, 4],
        [3, 4, 4, 3, 4],
        [3, None, 4, 3, 4],
        [2, 2, 2, 4, 4],
        [0, 1, 2, 3, 4],
    ]
    with pytest.raises(ValueError, match="no implication b => a"):
        P.implies(2, 1)
    bowtie = FiniteHeytingAlgebra.from_covers(*BOUNDED_BOWTIE)
    assert verify_heyting(bowtie) == LawViolation("join-existence", (1, 2))
    assert bowtie._implication_table()[3][3:] == [None, None, None]
    unbounded = FiniteHeytingAlgebra.from_covers(
        ("a", "b", "c", "d"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    assert verify_heyting(unbounded) == LawViolation("bounds", ())


def test_same_order_ignores_names_and_compares_every_pair():
    assert chain(3).same_order(chain(3, ("lo", "mid", "hi")))
    assert not chain(3).same_order(chain(4))
    assert not chain(4).same_order(diamond())
    assert diamond().same_order(diamond())
