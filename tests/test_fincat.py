"""Index-category invariants: counts, laws, interchange identities, normal forms."""

import itertools
from math import comb

import pytest

from lttop.fincat import (
    DimensionCapExceeded,
    SimplexMorphism,
    build_index_category,
    compose_simplex,
    degeneracy,
    face,
    normal_form,
    simplex_identity,
)


def recompose(source, target, degens, faces):
    """Inverse of ``normal_form``; rebuilds the morphism from indices."""
    k = source
    result = simplex_identity(source)
    for j in reversed(degens):
        result = compose_simplex(degeneracy(k - 1, j), result)
        k -= 1
    for i in reversed(faces):
        result = compose_simplex(face(k + 1, i), result)
        k += 1
    if k != target:
        raise ValueError("index lists do not reach the target dimension")
    return result


def all_monotone(a, b, strict):
    pool = (
        itertools.combinations(range(b + 1), a + 1)
        if strict
        else itertools.combinations_with_replacement(range(b + 1), a + 1)
    )
    return [SimplexMorphism(a, b, v) for v in pool]


@pytest.mark.parametrize("kind,strict", [("semisimplex", True), ("simplex", False)])
def test_hom_sets_are_the_monotone_maps(kind, strict):
    cat = build_index_category(kind, 3)
    for a in cat.objects:
        for b in cat.objects:
            expected = sorted(all_monotone(a, b, strict))
            assert list(cat.hom(a, b)) == expected
            want = comb(b + 1, a + 1) if strict else comb(a + b + 1, a + 1)
            assert len(expected) == want


@pytest.mark.parametrize("kind", ["set", "graph", "reflgraph", "bicolgraph", "semisimplex:3", "simplex:3"])
def test_category_laws_exhaustively(kind, category_law_violation):
    cat = build_index_category(kind)
    assert category_law_violation(cat) is None


def test_graph_shape_matches_the_source_target_picture():
    g = build_index_category("graph")
    assert g.objects == (0, 1)
    # contravariant edge-to-vertex generators: the two vertex inclusions
    assert set(g.hom(0, 1)) == {face(1, 0), face(1, 1)}
    # face(1, 1) skips the target, so its action selects the source vertex
    assert face(1, 1).values == (0,)
    assert face(1, 0).values == (1,)


def test_reflgraph_has_the_collapse_and_three_endomorphisms():
    r = build_index_category("reflgraph")
    s0 = degeneracy(0, 0)
    assert s0 in r.hom(1, 0)
    for i in (0, 1):
        assert r.compose(s0, face(1, i)) == simplex_identity(0)
    assert len(r.hom(1, 1)) == 3


def test_dimension_cap_and_unknown_kind():
    with pytest.raises(DimensionCapExceeded, match="pass max_dim=5") as caught:
        build_index_category("semisimplex", 5)
    assert (caught.value.dim, caught.value.cap) == (5, 4)
    assert isinstance(caught.value, ValueError)
    build_index_category("semisimplex", 5, max_dim=5)
    with pytest.raises(ValueError, match="bad dimension 'x' in 'simplex:x'"):
        build_index_category("simplex:x")
    with pytest.raises(ValueError):
        build_index_category("dodecahedron")
    with pytest.raises(ValueError):
        build_index_category("graph", 2)
    # bicolgraph has no simplex dimension at all, not even 0
    with pytest.raises(ValueError, match="'bicolgraph:7' has no dimension"):
        build_index_category("bicolgraph:7")
    with pytest.raises(ValueError, match="'bicolgraph' has no dimension"):
        build_index_category("bicolgraph", 0)


def test_face_interchange_identity():
    # skipping j then i (i < j) equals skipping i then j-1
    for n in range(2, 5):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose_simplex(face(n, j), face(n - 1, i))
                rhs = compose_simplex(face(n, i), face(n - 1, j - 1))
                assert lhs == rhs


def test_degeneracy_interchange_identities():
    for n in range(0, 3):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = compose_simplex(degeneracy(n, j), degeneracy(n + 1, i))
                rhs = compose_simplex(degeneracy(n, i), degeneracy(n + 1, j + 1))
                assert lhs == rhs
    for n in range(0, 3):
        for j in range(n + 1):
            for i in range(n + 2):
                composite = compose_simplex(degeneracy(n, j), face(n + 1, i))
                if i < j:
                    want = compose_simplex(face(n, i), degeneracy(n - 1, j - 1))
                elif i in (j, j + 1):
                    want = simplex_identity(n)
                else:
                    want = compose_simplex(face(n, i - 1), degeneracy(n - 1, j))
                assert composite == want


def test_normal_form_round_trip_is_a_bijection():
    cat = build_index_category("simplex", 3)
    for a in cat.objects:
        for b in cat.objects:
            seen = set()
            for f in cat.hom(a, b):
                degens, faces = normal_form(f)
                assert list(degens) == sorted(degens)
                assert list(faces) == sorted(faces, reverse=True)
                assert recompose(a, b, degens, faces) == f
                seen.add((degens, faces))
            # injectivity of normal_form plus the index-pair count give a bijection:
            # q collapse positions out of a, then b - a + q skipped values out of b + 1
            assert len(seen) == len(cat.hom(a, b))
            expected = sum(
                comb(a, q) * comb(b + 1, b - a + q)
                for q in range(a + 1)
                if 0 <= b - a + q <= b + 1
            )
            assert len(cat.hom(a, b)) == expected


def test_normal_form_examples():
    assert normal_form(simplex_identity(2)) == ((), ())
    constant = SimplexMorphism(1, 0, (0, 0))
    assert normal_form(constant) == ((0,), ())
    # collapse-then-include resolves to the identity exactly when indices touch
    for j in range(2):
        for i in range(3):
            composite = compose_simplex(degeneracy(1, j), face(2, i))
            if i in (j, j + 1):
                assert composite == simplex_identity(1)
                assert normal_form(composite) == ((), ())
            else:
                assert composite != simplex_identity(1)


def test_factor_recomposes_every_morphism():
    for kind in ("semisimplex:3", "simplex:2", "bicolgraph"):
        cat = build_index_category(kind)
        for f in cat.all_morphisms():
            parts = cat.factor(f)
            rebuilt = cat.identity(f.source)
            for g in reversed(parts):
                rebuilt = cat.compose(g, rebuilt)
            if parts:
                assert rebuilt == f
            else:
                assert f.is_identity


def test_bicolgraph_shape():
    b = build_index_category("bicolgraph")
    assert b.objects == ("V", "E", "E'")
    assert len(list(b.all_morphisms())) == 7
    assert {str(g) for g in b.generators} == {"s", "t", "s'", "t'"}
    assert b.hom("E", "V") == ()
