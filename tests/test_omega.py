"""Classifying objects: level lattices, pullback actions, characteristic
functions, incidence tuples, and the face-downset isomorphism."""

import pytest

from lttop.fincat import build_index_category, face
from lttop.lattice import verify_heyting
from lttop.omega import (
    characteristic_function,
    classifying_object,
    hasse_covers,
    hasse_dot,
    pullback_of_true,
)
from lttop.presheaf import (
    FinitePresheaf,
    Subpresheaf,
    boundary,
    enumerate_morphisms,
    enumerate_subpresheaves,
    ith_face,
    parallel_cells,
)

GRAPH = build_index_category("graph")
REFL = build_index_category("reflgraph")
SEMI2 = build_index_category("semisimplex", 2)
BICOLOR = build_index_category("bicolgraph")
BUILTINS_UP_TO_DIM_3 = ["set", "graph", "reflgraph", "bicolgraph"] + [
    f"{family}:{dim}" for family in ("semisimplex", "simplex") for dim in (1, 2, 3)
]


@pytest.fixture(scope="module")
def omega_graph():
    return classifying_object(GRAPH)


@pytest.fixture(scope="module")
def omega_semi2():
    return classifying_object(SEMI2)


def test_level_sizes(omega_graph, omega_semi2):
    assert omega_graph.level_sizes() == (2, 5)
    assert classifying_object(REFL).level_sizes() == (2, 5)
    assert omega_semi2.level_sizes() == (2, 5, 19)
    assert classifying_object(BICOLOR).level_sizes() == (2, 5, 5)
    assert classifying_object(build_index_category("set")).level_sizes() == (2,)


def test_every_level_is_heyting(omega_semi2, order_algebra):
    for pos in range(len(SEMI2.objects)):
        assert verify_heyting(order_algebra(omega_semi2, pos)) is None


def test_reflgraph_levels_are_order_isomorphic_to_graph(omega_graph, order_algebra):
    om_r = classifying_object(REFL)
    from lttop.topology import degeneracy_translation

    to_full, to_semi = degeneracy_translation(omega_graph, om_r)
    for pos, _ in enumerate(GRAPH.objects):
        a_g = order_algebra(omega_graph, pos)
        a_r = order_algebra(om_r, pos)
        assert a_g.size == a_r.size
        for i in range(a_g.size):
            for j in range(a_g.size):
                assert a_g.leq(i, j) == a_r.leq(to_full[pos][i], to_full[pos][j])


def test_pullback_preserves_top_and_bottom(omega_semi2):
    for g in SEMI2.generators:
        table = omega_semi2.action_table(g)
        src = SEMI2.obj_index(g.source)
        tgt = SEMI2.obj_index(g.target)
        assert table[omega_semi2.top[tgt]] == omega_semi2.top[src]
        assert table[omega_semi2.bottom[tgt]] == omega_semi2.bottom[src]


def test_pullback_actions_preserve_meets(omega_semi2, order_algebra):
    for g in SEMI2.generators:
        table = omega_semi2.action_table(g)
        src = order_algebra(omega_semi2, SEMI2.obj_index(g.source))
        tgt = order_algebra(omega_semi2, SEMI2.obj_index(g.target))
        for a in range(tgt.size):
            for b in range(tgt.size):
                assert table[tgt.meet(a, b)] == src.meet(table[a], table[b])


def sieve_by_labels(omega, level, sets):
    yk = omega.yonedas[omega.category.obj_index(level)]
    return omega.sieve_index(Subpresheaf.from_sets(yk, sets))


def test_pullback_of_the_two_endpoints_sieve(omega_graph, sieve_pullback):
    both_endpoints = sieve_by_labels(omega_graph, 1, {0: (face(1, 1), face(1, 0)), 1: ()})
    source_map = face(1, 1)
    pulled = omega_graph.act(source_map, both_endpoints)
    assert pulled == omega_graph.top[0]
    # direct set computation agrees
    sieve = omega_graph.sieves[1][both_endpoints]
    direct = sieve_pullback(GRAPH, source_map, sieve)
    assert omega_graph.sieve_index(direct) == omega_graph.top[0]


@pytest.mark.parametrize("kind", BUILTINS_UP_TO_DIM_3)
def test_action_tables_match_the_composition_reference(kind, sieve_pullback):
    category = build_index_category(kind)
    omega = classifying_object(category)
    for f in category.all_morphisms():
        sieves = omega.sieves[category.obj_index(f.target)]
        expected = tuple(omega.sieve_index(sieve_pullback(category, f, s)) for s in sieves)
        assert omega.action_table(f) == expected, f
    assert omega.as_presheaf().functoriality_violation() is None


def one_edge_graph(labels=("u", "v"), loop=False):
    endpoints = (0, 0) if loop else (0, 1)
    return FinitePresheaf(
        GRAPH,
        {0: labels if not loop else labels[:1], 1: ("e",)},
        {face(1, 1): (endpoints[0],), face(1, 0): (endpoints[1],)},
    )


def test_characteristic_function_on_the_edge(omega_graph):
    P = one_edge_graph()
    empty_sieve = omega_graph.bottom[1]
    both = sieve_by_labels(omega_graph, 1, {0: (face(1, 1), face(1, 0)), 1: ()})
    only_source = sieve_by_labels(omega_graph, 1, {0: (face(1, 1),), 1: ()})

    # both endpoints in, edge absent
    sub = Subpresheaf.from_sets(P, {0: ("u", "v"), 1: ()})
    chi = characteristic_function(sub, omega_graph)
    assert chi.naturality_violation() is None
    assert chi.component(1, 0) == both
    # only the source in
    sub = Subpresheaf.from_sets(P, {0: ("u",), 1: ()})
    assert characteristic_function(sub, omega_graph).component(1, 0) == only_source
    # nothing in
    sub = Subpresheaf.empty(P)
    assert characteristic_function(sub, omega_graph).component(1, 0) == empty_sieve
    # everything in: constantly the full sieve
    sub = Subpresheaf.full(P)
    chi = characteristic_function(sub, omega_graph)
    for c in GRAPH.objects:
        pos = GRAPH.obj_index(c)
        assert all(v == omega_graph.top[pos] for v in chi.components[pos])


@pytest.mark.parametrize(
    "kind", ["graph", "reflgraph", "bicolgraph", "semisimplex:2", "simplex:2"]
)
def test_subobject_classifier_law(kind):
    category = build_index_category(kind)
    omega = classifying_object(category)
    from lttop.closure import presheaf_corpus

    for P in presheaf_corpus(category, 4):
        for sub in enumerate_subpresheaves(P):
            chi = characteristic_function(sub, omega)
            assert chi.naturality_violation() is None
            assert pullback_of_true(chi, omega) == sub


def test_characteristic_function_is_unique(omega_graph):
    # the classifying morphism is the only natural map with the right pullback
    P = one_edge_graph()
    omega_presheaf = omega_graph.as_presheaf()
    for sub in enumerate_subpresheaves(P):
        chi = characteristic_function(sub, omega_graph)
        matches = [
            h
            for h in enumerate_morphisms(P, omega_presheaf)
            if pullback_of_true(h, omega_graph) == sub
        ]
        assert matches == [chi]


def test_face_downset_isomorphism(omega_semi2, order_algebra):
    # Omega(k) is isomorphic to the sieves below each face of y(k+1)
    for k in (0, 1):
        below = order_algebra(omega_semi2, k)
        above = order_algebra(omega_semi2, k + 1)
        for i in range(k + 2):
            hat = ith_face(SEMI2, k + 1, i)
            hat_idx = omega_semi2.sieve_index(hat)
            downset = [x for x in range(above.size) if above.leq(x, hat_idx)]
            assert len(downset) == below.size
            # the pullback along the face restricts to an order isomorphism
            table = omega_semi2.action_table(face(k + 1, i))
            image = [table[x] for x in downset]
            assert sorted(image) == list(range(below.size))
            for a in downset:
                for b in downset:
                    assert above.leq(a, b) == below.leq(table[a], table[b])


def test_pullback_along_face_is_meet_with_the_face(omega_semi2, order_algebra):
    # transported along the downset isomorphism, the face action becomes
    # intersection with the face
    for k in (0, 1):
        algebra = order_algebra(omega_semi2, k + 1)
        for i in range(k + 2):
            hat_idx = omega_semi2.sieve_index(ith_face(SEMI2, k + 1, i))
            table = omega_semi2.action_table(face(k + 1, i))
            for x in range(algebra.size):
                meet = algebra.meet(x, hat_idx)
                assert table[meet] == table[x]
                # and the meet is the unique downset element with that image
                assert algebra.leq(meet, hat_idx)


def test_incidence_structure(omega_semi2):
    # level 1: surjective onto all pairs; level <= 2: unique collision at all-top
    lookup1 = parallel_cells(omega_semi2.as_presheaf(), 1)
    assert set(lookup1) == {
        (a, b) for a in range(2) for b in range(2)
    }
    for k in (1, 2):
        lookup = parallel_cells(omega_semi2.as_presheaf(), k)
        all_top = tuple(omega_semi2.top[k - 1] for _ in range(k + 1))
        collisions = {t: v for t, v in lookup.items() if len(v) > 1}
        assert set(collisions) == {all_top}
        assert set(collisions[all_top]) == {
            omega_semi2.sieve_index(boundary(omega_semi2.category, k)),
            omega_semi2.top[k],
        }


def test_incidence_examples(omega_semi2):
    top1 = omega_semi2.top[1]
    omega = omega_semi2.as_presheaf()
    # the top sieve and the boundary are exactly the cells over (top1,) * 3
    assert parallel_cells(omega, 2)[(top1,) * 3] == [
        omega_semi2.sieve_index(boundary(omega_semi2.category, 2)),
        omega_semi2.top[2],
    ]
    # three copies of a vertex sieve cannot bound a triangle
    vertex = next(
        i for i in range(omega_semi2.level_size(1)) if omega_semi2.sieves[1][i].size == 1
    )
    assert (vertex,) * 3 not in parallel_cells(omega, 2)


def test_incidence_of_the_source_vertex_sieve(omega_graph):
    only_source = sieve_by_labels(omega_graph, 1, {0: (face(1, 1),), 1: ()})
    incidence = (omega_graph.top[0], omega_graph.bottom[0])
    assert parallel_cells(omega_graph.as_presheaf(), 1)[incidence] == [only_source]


def test_hasse_dot_is_deterministic(omega_graph):
    first = hasse_dot(omega_graph, 1)
    assert first == hasse_dot(omega_graph, 1)
    assert first.startswith('digraph "omega_1"')
    assert first.count("->") == 5  # cover relation of the five-sieve lattice


def test_omega_size_bound_reports_the_level():
    from lttop.omega import OmegaBoundExceeded

    with pytest.raises(OmegaBoundExceeded) as err:
        classifying_object(build_index_category("semisimplex", 4))
    assert err.value.level == 4 and err.value.count == 7580 and err.value.bound == 2500


def test_face_downset_isomorphism_at_the_third_level(order_algebra):
    semi3 = build_index_category("semisimplex", 3)
    omega = classifying_object(semi3)
    k = 2
    below = order_algebra(omega, k)
    above = order_algebra(omega, k + 1)
    for i in range(k + 2):
        hat_idx = omega.sieve_index(ith_face(semi3, k + 1, i))
        downset = [x for x in range(above.size) if above.leq(x, hat_idx)]
        table = omega.action_table(face(k + 1, i))
        assert sorted(table[x] for x in downset) == list(range(below.size))
        for a in downset:
            for b in downset:
                assert above.leq(a, b) == below.leq(table[a], table[b])


def test_every_builtin_omega_level_is_heyting(order_algebra):
    # Omega does not re-prove the Heyting laws when it is built
    for kind in BUILTINS_UP_TO_DIM_3:
        omega = classifying_object(build_index_category(kind))
        for pos in range(len(omega.sieves)):
            assert verify_heyting(order_algebra(omega, pos)) is None


def test_mask_order_matches_the_order_derived_algebra(order_algebra, hasse_covers_reference):
    # inclusion, meet, join, top, bottom and covers read off the sieve
    # integers agree with the algebra derived from Subpresheaf.leq alone
    for kind in BUILTINS_UP_TO_DIM_3:
        omega = classifying_object(build_index_category(kind))
        for pos, (packed, index) in enumerate(zip(omega.packed, omega._index)):
            ref = order_algebra(omega, pos)
            assert len(packed) == ref.size
            assert (omega.top[pos], omega.bottom[pos]) == (ref.top, ref.bottom), kind
            for a, p in enumerate(packed):
                for b, q in enumerate(packed):
                    assert (p & ~q == 0) == ref.leq(a, b), (kind, pos, a, b)
                    assert index[p & q] == ref.meet(a, b), (kind, pos, a, b)
                    assert index[p | q] == ref.join(a, b), (kind, pos, a, b)
            assert hasse_covers(omega, pos) == hasse_covers_reference(ref), (kind, pos)
