"""Presheaf machinery: Yoneda objects, faces, boundaries, degeneracy moves,
subpresheaf enumeration against a brute-force oracle, morphism search."""

import itertools

import pytest

from lttop.fincat import SimplexMorphism, build_index_category, compose_simplex, degeneracy, face
from lttop.presheaf import (
    FinitePresheaf,
    FunctorialityError,
    Subpresheaf,
    add_degeneracies,
    boundary,
    enumerate_morphisms,
    enumerate_subpresheaves,
    generated_subpresheaf,
    ith_face,
    pack_lanes,
    strip_degeneracies,
    subpresheaf_bits,
    subpresheaf_lanes,
    subset_lanes,
    unpack_lanes,
    yoneda,
)

GRAPH = build_index_category("graph")
REFL = build_index_category("reflgraph")
SEMI2 = build_index_category("semisimplex", 2)
BUILTINS = ["set", "graph", "reflgraph", "bicolgraph"] + [
    f"{family}:{dim}" for family in ("semisimplex", "simplex") for dim in (1, 2, 3)
]


def brute_subpresheaves(P, level_masks):
    """Oracle: filter every level-wise subset by action-closure directly,
    sorted by per-level masks."""
    cat = P.category
    choice_lists = [
        [c for r in range(len(level) + 1) for c in itertools.combinations(range(len(level)), r)]
        for level in P.carriers
    ]
    out = []
    for choice in itertools.product(*choice_lists):
        sets = {c: choice[cat.obj_index(c)] for c in cat.objects}
        if all(
            P.act(g, x) in sets[g.source] for g in cat.generators for x in sets[g.target]
        ):
            out.append(sets)
    out.sort(key=lambda sets: level_masks(P, sets))
    return [Subpresheaf.from_indices(P, sets) for sets in out]


def test_yoneda_level_sizes():
    assert [len(l) for l in yoneda(GRAPH, 1).carriers] == [2, 1]
    assert [len(l) for l in yoneda(SEMI2, 2).carriers] == [3, 3, 1]
    assert len(yoneda(REFL, 1).carrier(1)) == 3  # one edge plus two collapsed ones


def test_yoneda_actions_are_precomposition():
    y1 = yoneda(GRAPH, 1)
    src = face(1, 1)
    edge = y1.label_index(1, GRAPH.identity(1))
    assert y1.carrier(0)[y1.act(src, edge)] == src


def test_ith_face_examples():
    # source vertex alone
    hat1 = ith_face(GRAPH, 1, 1)
    assert hat1.level_labels(0) == (face(1, 1),)
    assert hat1.level_labels(1) == ()
    # a triangle face contains the facet and its endpoints
    hat0 = ith_face(SEMI2, 2, 0)
    assert hat0.level_labels(2) == ()
    assert hat0.level_labels(1) == (face(2, 0),)
    assert len(hat0.level_labels(0)) == 2
    # with degeneracies the face of an edge also carries the collapsed loop
    refl_hat1 = ith_face(REFL, 1, 1)
    assert refl_hat1.level_labels(0) == (face(1, 1),)
    assert len(refl_hat1.level_labels(1)) == 1  # the reflexive loop on the source
    (loop,) = refl_hat1.level_labels(1)
    assert not loop.is_injective


def test_ith_face_matches_the_missing_value_description():
    for cat in (GRAPH, SEMI2, REFL):
        for k in range(1, cat.dim + 1):
            yk = yoneda(cat, k)
            for i in range(k + 1):
                sub = ith_face(cat, k, i)
                for l in cat.objects:
                    expected = tuple(
                        f for f in yk.carrier(l) if i not in set(f.values)
                    )
                    assert sub.level_labels(l) == expected


def test_ith_face_range_errors():
    with pytest.raises(ValueError):
        ith_face(GRAPH, 1, 2)
    with pytest.raises(ValueError):
        ith_face(GRAPH, 2, 0)


def test_boundary_table():
    assert boundary(GRAPH, 0).size == 0
    b1 = boundary(GRAPH, 1)
    assert len(b1.level_labels(0)) == 2 and b1.level_labels(1) == ()
    b2 = boundary(SEMI2, 2)
    assert [len(b2.level_labels(l)) for l in SEMI2.objects] == [3, 3, 0]
    # the boundary is the unique maximal proper subpresheaf of y(k)
    subs = enumerate_subpresheaves(yoneda(SEMI2, 2))
    proper = [s for s in subs if not s.is_full]
    assert all(s.leq(b2) for s in proper)


def degen_sets(sub, up_to):
    """Per level l <= up_to, the degenerate l-simplices determined by a
    sieve on a Yoneda object whose labels are simplex morphisms, by the
    recursion: degenerate every member, and every degenerate simplex,
    one level down."""
    result = {0: set()}
    for l in range(up_to):
        base = set(sub.level_labels(l)) if l <= sub.presheaf.category.dim else set()
        pool = base | result[l]
        nxt = set()
        for f in pool:
            for i in range(l + 1):
                nxt.add(compose_simplex(f, degeneracy(l, i)))
        result[l + 1] = nxt
    return result


def degen_set(sub, l):
    return degen_sets(sub, l)[l]


def test_degen_set_examples():
    y1r = yoneda(REFL, 1)
    hollow = Subpresheaf.from_sets(
        y1r, {0: tuple(y1r.carrier(0)), 1: ()}
    )
    assert degen_set(hollow, 0) == set()
    loops = degen_set(hollow, 1)
    assert loops == {
        SimplexMorphism(1, 1, (0, 0)),
        SimplexMorphism(1, 1, (1, 1)),
    }
    full = Subpresheaf.full(y1r)
    assert degen_set(full, 1) == loops


def test_degeneracy_translation_is_a_lattice_isomorphism():
    y1g = yoneda(GRAPH, 1)
    y1r = yoneda(REFL, 1)
    subs_g = enumerate_subpresheaves(y1g)
    subs_r = enumerate_subpresheaves(y1r)
    assert len(subs_g) == len(subs_r) == 5
    lifted = {s: add_degeneracies(s) for s in subs_g}
    # bijective, top-preserving, meet-preserving, inverse to stripping
    assert set(lifted.values()) == set(subs_r)
    assert lifted[Subpresheaf.full(y1g)] == Subpresheaf.full(y1r)
    for a in subs_g:
        assert strip_degeneracies(lifted[a]) == a
        for b in subs_g:
            meet_then_lift = add_degeneracies(a.meet(b))
            assert meet_then_lift == lifted[a].meet(lifted[b])
    # order isomorphism in both directions
    for a in subs_g:
        for b in subs_g:
            assert a.leq(b) == lifted[a].leq(lifted[b])


def test_add_degeneracies_commutes_with_face_actions(sieve_pullback):
    semi2 = build_index_category("semisimplex", 2)
    full2 = build_index_category("simplex", 2)
    for k in range(1, 3):
        for s in enumerate_subpresheaves(yoneda(semi2, k)):
            for i in range(k + 1):
                g = face(k, i)
                lhs = sieve_pullback(full2, g, add_degeneracies(s))
                rhs = add_degeneracies(sieve_pullback(semi2, g, s))
                assert lhs == rhs


# subobjects summed over each bound-6 corpus, counted by the brute oracle
CORPUS_SUBOBJECTS = {"graph": 2156, "reflgraph": 109, "semisimplex:2": 5821, "simplex:2": 27}


@pytest.mark.parametrize(
    "cat,k,expected",
    [(GRAPH, 0, 2), (GRAPH, 1, 5), (SEMI2, 2, 19), (REFL, 1, 5), (REFL, 0, 2)]
    + [
        pytest.param(kind, "corpus", total, id=f"corpus-{kind}")
        for kind, total in CORPUS_SUBOBJECTS.items()
    ],
)
def test_subpresheaf_counts_against_brute_force(cat, k, expected, level_masks):
    from lttop.closure import presheaf_corpus

    if k == "corpus":
        presheaves = presheaf_corpus(build_index_category(cat), 6)
    else:
        presheaves = [yoneda(cat, k)]
    found = [enumerate_subpresheaves(P) for P in presheaves]
    assert sum(len(subs) for subs in found) == expected
    for P, fast in zip(presheaves, found):
        assert list(fast) == brute_subpresheaves(P, level_masks)


@pytest.mark.parametrize("kind", BUILTINS + ["semisimplex:4", "simplex:4"])
def test_enumeration_matches_the_reference_on_yoneda_objects(kind, subpresheaves_reference):
    category = build_index_category(kind)
    for k in category.objects:
        yk = yoneda(category, k)
        assert enumerate_subpresheaves(yk) == subpresheaves_reference(yk), k


@pytest.mark.parametrize("kind", list(CORPUS_SUBOBJECTS))
def test_enumeration_matches_the_reference_on_the_corpus(kind, subpresheaves_reference):
    from lttop.closure import presheaf_corpus

    for P in presheaf_corpus(build_index_category(kind), 6):
        assert enumerate_subpresheaves(P) == subpresheaves_reference(P), P


@pytest.mark.parametrize("kind", BUILTINS)
def test_generated_subpresheaf_matches_the_reference(kind, generated_reference):
    category = build_index_category(kind)
    for k in category.objects:
        yk = yoneda(category, k)
        for cell in yk.elements():
            assert generated_subpresheaf(yk, [cell]) == generated_reference(yk, [cell]), cell
        seeds = list(yk.elements())[::2]
        assert generated_subpresheaf(yk, seeds) == generated_reference(yk, seeds)


def test_subpresheaf_integers_order_like_their_level_masks(subpresheaf_sets_reference):
    from lttop.closure import presheaf_corpus

    for P in presheaf_corpus(SEMI2, 4):
        subs = enumerate_subpresheaves(P)
        ref = subpresheaf_sets_reference(P)
        assert subs == tuple(Subpresheaf.from_indices(P, sets) for sets in ref)
        assert [s.bits for s in subs] == sorted(s.bits for s in subs)
        for s, s_sets in zip(subs, ref):
            for t, t_sets in zip(subs, ref):
                included = all(set(s_sets[c]) <= set(t_sets[c]) for c in SEMI2.objects)
                assert s.leq(t) == included == (s.bits & ~t.bits == 0)


def level_set_cases(subpresheaf_sets_reference):
    """(presheaf, per-level index sets) for every closed subset from the
    reference and for every set one cell away from one, closed or not."""
    from lttop.closure import presheaf_corpus

    presheaves = [
        P for kind in CORPUS_SUBOBJECTS for P in presheaf_corpus(build_index_category(kind), 6)
    ]
    presheaves += [
        yoneda(category, k)
        for category in map(build_index_category, BUILTINS)
        for k in category.objects
    ]
    for P in presheaves:
        for sets in subpresheaf_sets_reference(P):
            yield P, sets
            for c, x in P.elements():
                yield P, {**sets, c: sorted(set(sets[c]) ^ {x})}


def test_level_reads_match_the_per_level_reference(subpresheaf_sets_reference):
    closed_seen = set()
    for P, sets in level_set_cases(subpresheaf_sets_reference):
        cat = P.category
        sub = Subpresheaf.from_indices(P, sets)
        for c in cat.objects:
            assert sub.level_indices(c) == tuple(sets[c])
            for x in range(len(P.carrier(c))):
                assert sub.contains(c, x) == (x in sets[c])
        broken = [
            (g, x)
            for g in cat.generators
            for x in sets[g.target]
            if P.act(g, x) not in sets[g.source]
        ]
        witness = sub.closure_violation()
        assert witness == (broken[0] if broken else None), (P, sets)
        closed_seen.add(witness is None)
    assert closed_seen == {True, False}


def test_every_enumerated_subpresheaf_is_closed_and_no_double_counting(level_masks):
    P = FinitePresheaf(
        GRAPH,
        {0: ("u", "v"), 1: ("e", "f")},
        {face(1, 1): (0, 0), face(1, 0): (1, 1)},  # two parallel edges
    )
    subs = enumerate_subpresheaves(P)
    assert len(set(subs)) == len(subs)
    for s in subs:
        assert s.closure_violation() is None
    assert list(subs) == brute_subpresheaves(P, level_masks)


def test_unpacked_lanes_give_back_the_packed_subobjects():
    # the subobject lists of the bound-4 corpora and every Omega level up to
    # dimension 3, in the lane layout both closure kernels take: each lane
    # is the presheaf's size rounded up to whole bytes, at least one byte
    from lttop.closure import presheaf_corpus
    from lttop.omega import classifying_object

    lists = [
        (P, subpresheaf_bits(P))
        for kind in ("graph", "reflgraph", "semisimplex:2")
        for P in presheaf_corpus(build_index_category(kind), 4)
    ]
    empty, subs = lists[0]
    assert empty.total_size == 0 and subs == [0]
    assert pack_lanes(empty, subs) == (0, 1, 8)
    for kind in BUILTINS:
        omega = classifying_object(build_index_category(kind))
        lists += [(y, list(packed)) for y, packed in zip(omega.yonedas, omega.packed)]
    for P, subs in lists:
        bits, lanes, stride = pack_lanes(P, subs)
        assert stride % 8 == 0 and stride - 8 < max(P.total_size, 1) <= stride, P
        assert lanes == sum(1 << s * stride for s in range(len(subs))), P
        assert unpack_lanes(bits, stride, len(subs)) == subs, P


@pytest.mark.parametrize(
    "kind, bound", [("graph", 6), ("reflgraph", 6), ("semisimplex:2", 6), ("simplex:2", 5)]
)
def test_the_subpresheaf_lanes_of_all_subsets_are_the_subpresheaves(kind, bound):
    # lane s of the all-subsets layout holds the subset s, and the lanes
    # kept are exactly the enumerated subpresheaves, in order
    from lttop.closure import presheaf_corpus

    corpus = presheaf_corpus(build_index_category(kind), bound)
    empty = FinitePresheaf(corpus[0].category, {}, {g: () for g in corpus[0].category.generators})
    for P in (empty, *corpus):
        count = 1 << P.total_size
        bits, lanes, stride = subset_lanes(P)
        assert (bits, lanes, stride) == pack_lanes(P, range(count)), P
        assert unpack_lanes(bits, stride, count) == list(range(count)), P
        closed = subpresheaf_lanes(P, bits, lanes)
        assert closed & ~lanes == 0, P
        assert [s for s in range(count) if closed >> s * stride & 1] == subpresheaf_bits(P), P
    assert empty.total_size == 0
    assert subset_lanes(empty) == (0, 1, 8)
    assert subpresheaf_lanes(empty, 0, 1) == 1


def test_presheaves_from_tables_equal_those_read_from_dicts():
    # the corpus builds its presheaves from position-ordered tables; the
    # dict constructor gives the same presheaf, and both check functoriality
    from lttop.closure import presheaf_corpus

    for kind in ("graph", "reflgraph", "semisimplex:2", "simplex:2"):
        category = build_index_category(kind)
        for P in presheaf_corpus(category, 4):
            carriers = dict(zip(category.objects, P.carriers))
            tables = {g: P.action_table(g) for g in category.generators}
            assert FinitePresheaf(category, carriers, tables) == P
            rebuilt = FinitePresheaf.from_tables(
                category, P.carriers, tuple(tables[g] for g in category.generators)
            )
            assert rebuilt == P and rebuilt.total_size == P.total_size
            assert rebuilt.bit_offsets() == P.bit_offsets()
    # the collapse of v must be a loop at v, not the edge u -> v
    bad = {face(1, 1): (0,), face(1, 0): (1,), REFL.hom(1, 0)[0]: (0, 0)}
    with pytest.raises(FunctorialityError):
        FinitePresheaf.from_tables(
            REFL, (("u", "v"), ("e",)), tuple(bad[g] for g in REFL.generators)
        )


def test_the_hash_reads_the_action_tables():
    # every corpus presheaf of one size vector has the same carriers, so a
    # hash of the carriers alone would put them all in one bucket; equal
    # presheaves built apart hash alike
    from lttop.closure import presheaf_corpus

    corpus = presheaf_corpus(SEMI2, 6)
    assert len(corpus) == 362
    assert len({hash(P) for P in corpus}) == 362
    for P in corpus:
        carriers = dict(zip(SEMI2.objects, P.carriers))
        rebuilt = FinitePresheaf(SEMI2, carriers, {g: P.action_table(g) for g in SEMI2.generators})
        assert rebuilt == P and hash(rebuilt) == hash(P)
    assert len(dict.fromkeys(corpus)) == 362


def test_functoriality_validation_catches_bad_actions():
    # the collapse of v must be a loop at v, not the edge u -> v
    with pytest.raises(FunctorialityError):
        FinitePresheaf(
            REFL,
            {0: ("u", "v"), 1: ("e",)},
            {
                face(1, 1): (0,),
                face(1, 0): (1,),
                REFL.hom(1, 0)[0]: (0, 0),
            },
        )


def test_generated_subpresheaf_is_least():
    y2 = yoneda(SEMI2, 2)
    seed = (1, y2.label_index(1, face(2, 0)))
    sub = generated_subpresheaf(y2, [seed])
    assert sub.closure_violation() is None
    for other in enumerate_subpresheaves(y2):
        if other.contains(*seed):
            assert sub.leq(other)


def brute_morphisms(A, B):
    """Oracle: all component families filtered by naturality."""
    pools = [
        list(itertools.product(range(len(B.carriers[pos])), repeat=len(A.carriers[pos])))
        for pos in range(len(A.category.objects))
    ]
    found = []
    from lttop.presheaf import PresheafMorphism

    for comps in itertools.product(*pools):
        h = PresheafMorphism(A, B, tuple(comps))
        if h.naturality_violation() is None:
            found.append(comps)
    return sorted(found)


def brute_size(A, B):
    """How many component families ``brute_morphisms`` filters."""
    size = 1
    for source, target in zip(A.carriers, B.carriers):
        size *= len(target) ** len(source)
    return size


def test_enumerate_morphisms_matches_brute_force():
    from lttop.closure import presheaf_corpus

    loop = FinitePresheaf(GRAPH, {0: ("v",), 1: ("l",)}, {face(1, 1): (0,), face(1, 0): (0,)})
    path = FinitePresheaf(
        GRAPH,
        {0: ("a", "b", "c"), 1: ("ab", "bc")},
        {face(1, 1): (0, 1), face(1, 0): (1, 2)},
    )
    empty = FinitePresheaf(GRAPH, {}, {face(1, 1): (), face(1, 0): ()})
    cases = [(path, loop), (loop, path), (path, path), (empty, path), (path, empty)]
    for kind in ("graph", "reflgraph", "bicolgraph", "semisimplex:2", "simplex:2"):
        category = build_index_category(kind)
        corpus = presheaf_corpus(category, 3)
        cases += itertools.product(corpus, repeat=2)
        if kind != "graph":
            ys = [yoneda(category, k) for k in category.objects]
            cases += [(y, P) for y in ys for P in corpus]
            cases += [(P, y) for y in ys for P in corpus]
            cases += [(y, z) for y in ys for z in ys if brute_size(y, z) <= 50_000]
    assert any(brute_size(A, B) > 1000 for A, B in cases)
    for A, B in cases:
        fast = [h.components for h in enumerate_morphisms(A, B)]
        assert len(fast) == len(set(fast)), (A, B)
        assert sorted(fast) == brute_morphisms(A, B), (A, B)
    assert len(list(enumerate_morphisms(empty, path))) == 1
    assert list(enumerate_morphisms(path, empty)) == []
    # morphisms out of a Yoneda object correspond to cells of the target
    y1 = yoneda(GRAPH, 1)
    assert len(list(enumerate_morphisms(y1, path))) == len(path.carrier(1))


def test_enumeration_bound_is_enforced(monkeypatch):
    from lttop import presheaf
    from lttop.presheaf import EnumerationBoundExceeded

    y2 = yoneda(SEMI2, 2)
    monkeypatch.setattr(presheaf, "DEFAULT_ENUMERATION_BOUND", 3)
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_subpresheaves(y2)


def test_membership_transfer_through_degeneracies():
    # a cell lies in a subpresheaf exactly when all its collapses do
    from lttop.closure import presheaf_corpus

    for kind in ("reflgraph", "simplex:2"):
        category = build_index_category(kind)
        for A in presheaf_corpus(category, 4):
            for sub in enumerate_subpresheaves(A):
                for k in category.objects[:-1]:
                    collapses = [
                        g for g in category.generators
                        if g.target == k and g.source == k + 1
                    ]
                    for x in range(len(A.carrier(k))):
                        forward = sub.contains(k, x)
                        backward = all(
                            sub.contains(k + 1, A.act(g, x)) for g in collapses
                        )
                        assert forward == backward


def test_stripping_a_vertex_with_its_loop_gives_the_bare_vertex():
    y0r = yoneda(REFL, 0)
    full = Subpresheaf.full(y0r)
    assert full.size == 2  # the vertex and its collapse
    stripped = strip_degeneracies(full)
    assert stripped.size == 1 and stripped.level_labels(1) == ()
    back = add_degeneracies(stripped)
    assert back == full


def test_degeneracy_transport_keeps_the_dimension_above_the_default_cap():
    # the sibling category is built at the dimension of the given one
    semi5 = build_index_category("semisimplex", 5, max_dim=5)
    full5 = build_index_category("simplex", 5, max_dim=5)
    point = Subpresheaf.full(yoneda(semi5, 0))
    lifted = add_degeneracies(point)
    assert lifted == Subpresheaf.full(yoneda(full5, 0))
    assert lifted.size == 6  # the vertex and its degeneracy at each level
    assert strip_degeneracies(lifted) == point


def functoriality_witness(P, reference):
    """The generator check's answer, after asserting that it and the
    all-pairs reference both pass or both fail, and that a returned
    witness (f, g, g o f) really fails."""
    found = P.functoriality_violation()
    assert (found is None) == (reference(P) is None)
    if found is not None:
        f, g, gf = found
        assert gf == P.category.compose(g, f)
        assert P.action_table(gf) != tuple(P.act(f, v) for v in P.action_table(g))
    return found


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2", "simplex:2"])
def test_functoriality_check_matches_the_reference_on_the_corpus(
    kind, functoriality_reference
):
    from lttop.closure import presheaf_corpus

    for P in presheaf_corpus(build_index_category(kind), 6):
        assert functoriality_witness(P, functoriality_reference) is None


@pytest.mark.parametrize("kind", ["semisimplex:4", "simplex:4"])
def test_functoriality_check_matches_the_reference_on_yoneda_objects(
    kind, functoriality_reference
):
    category = build_index_category(kind)
    for k in category.objects:
        assert functoriality_witness(yoneda(category, k), functoriality_reference) is None


@pytest.mark.parametrize("kind", ["semisimplex:3", "simplex:3"])
def test_functoriality_check_rejects_every_mutated_yoneda_table(kind, functoriality_reference):
    # change one entry of one generator table of y(2) or y(3), in every way
    category = build_index_category(kind)
    for k in (2, 3):
        Y = yoneda(category, k)
        carriers = {c: Y.carrier(c) for c in category.objects}
        tables = {g: Y.action_table(g) for g in category.generators}
        for g, table in tables.items():
            for x, old in enumerate(table):
                for v in range(len(Y.carrier(g.source))):
                    if v == old:
                        continue
                    mutated = dict(tables)
                    mutated[g] = table[:x] + (v,) + table[x + 1 :]
                    M = FinitePresheaf(category, carriers, mutated, validate=False)
                    assert functoriality_witness(M, functoriality_reference), (g, x, v)


def plan_presheaves(category):
    """The Yoneda objects, Omega as a presheaf, and the bound-4 corpus."""
    from lttop.closure import presheaf_corpus
    from lttop.omega import classifying_object

    yield from (yoneda(category, c) for c in category.objects)
    yield classifying_object(category).as_presheaf()
    yield from presheaf_corpus(category, 4)


@pytest.mark.parametrize("kind", BUILTINS)
def test_every_action_table_is_the_generator_tables_composed_along_factor(kind, composed_table):
    category = build_index_category(kind)
    morphisms = list(category.all_morphisms())
    for P in plan_presheaves(category):
        for f in morphisms:
            table = P.action_table(f)
            assert table == composed_table(P, f), (P, f)
            assert [P.act(f, x) for x in range(len(table))] == list(table)


@pytest.mark.parametrize("kind", BUILTINS)
def test_orbit_rows_match_the_per_act_construction(kind, orbit_rows_reference):
    category = build_index_category(kind)
    for P in plan_presheaves(category):
        # same rows, in the same key order
        rows = [
            ((c, x), row)
            for c, level in zip(category.objects, P.level_orbits())
            for x, row in enumerate(level)
        ]
        assert rows == list(orbit_rows_reference(P).items()), P


@pytest.mark.parametrize("kind", BUILTINS)
def test_the_morphism_plan_numbers_every_morphism_once(kind):
    from lttop.fincat import morphism_plan

    category = build_index_category(kind)
    plan = morphism_plan(category)
    assert plan is morphism_plan(category)
    assert plan.morphisms == tuple(category.all_morphisms())
    assert all(plan.index[f] == p for p, f in enumerate(plan.morphisms))
    named = plan.morphisms.__getitem__
    assert [named(p) for p in plan.identities] == [category.identity(c) for c in category.objects]
    level = category.obj_index
    assert [(named(p), src, tgt) for p, src, tgt in plan.generators] == [
        (g, level(g.source), level(g.target)) for g in category.generators
    ]
    for p, word in plan.words:
        assert [named(q) for q in word] == list(category.factor(named(p)))
    for f, g, gf in plan.composites:
        assert named(gf) == category.compose(named(g), named(f))
    assert len(plan.composites) == sum(
        len(category.hom(a, g.source)) for g in category.generators for a in category.objects
    )


def test_action_tables_keep_their_length_and_range_messages():
    with pytest.raises(FunctorialityError, match="has the wrong length"):
        FinitePresheaf(GRAPH, {0: ("v",), 1: ("e",)}, {face(1, 1): (0, 0), face(1, 0): (0,)})
    with pytest.raises(FunctorialityError, match="is out of range"):
        FinitePresheaf(GRAPH, {0: ("v",), 1: ("e",)}, {face(1, 1): (1,), face(1, 0): (0,)})
    with pytest.raises(FunctorialityError, match="is out of range"):
        FinitePresheaf(GRAPH, {0: ("v",), 1: ("e",)}, {face(1, 1): (0,), face(1, 0): (-1,)})


def test_labels_are_indexed_on_first_use():
    P = yoneda(SEMI2, 2)
    carriers = {c: P.carrier(c) for c in SEMI2.objects}
    fresh = FinitePresheaf(SEMI2, carriers, {g: P.action_table(g) for g in SEMI2.generators})
    assert fresh._label_index is None
    assert fresh.label_index(1, face(2, 0)) == P.label_index(1, face(2, 0))
    assert fresh._label_index is not None
