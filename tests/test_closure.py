"""Closure operators: the two computation routes, density, cell-count
classification, the closure axioms, and the factorization oracle."""

import itertools
import random

import pytest

from lttop.fincat import FAMILY_BICOLOR, build_index_category, degeneracy, face
from lttop.omega import characteristic_function, classifying_object, pullback_of_true
from lttop.presheaf import (
    FinitePresheaf,
    PresheafMorphism,
    Subpresheaf,
    enumerate_morphisms,
    _principal,
    enumerate_subpresheaves,
    pack_lanes,
    subpresheaf_bits,
    yoneda,
)
from lttop import closure
from lttop.closure import (
    CorpusTooLarge,
    boundary_tuples,
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
from lttop.topology import (
    _closed_bits,
    _closures_bits,
    _generator_positions,
    construct_bitstring_topology,
    enumerate_topologies,
    least_covering_sieves,
)

GRAPH = build_index_category("graph")
REFL = build_index_category("reflgraph")
SEMI2 = build_index_category("semisimplex", 2)
BUILTINS_UP_TO_DIM_3 = ["set", "graph", "reflgraph", "bicolgraph"] + [
    f"{family}:{dim}" for family in ("semisimplex", "simplex") for dim in (0, 1, 2, 3)
]


def graph_presheaf(vertices, edges):
    """edges: mapping name -> (source index, target index)."""
    names = tuple(edges)
    return FinitePresheaf(
        GRAPH,
        {0: tuple(vertices), 1: names},
        {
            face(1, 1): tuple(edges[e][0] for e in names),
            face(1, 0): tuple(edges[e][1] for e in names),
        },
    )


PATH = graph_presheaf("abc", {"ab": (0, 1), "bc": (1, 2)})
PARALLEL = graph_presheaf("uv", {"e1": (0, 1), "e2": (0, 1)})
LOOP = graph_presheaf("v", {"l": (0, 0)})
COMPLETE2 = graph_presheaf("uv", {"uu": (0, 0), "uv": (0, 1), "vu": (1, 0), "vv": (1, 1)})


def test_discrete_closure_changes_nothing():
    j = construct_bitstring_topology(GRAPH, "00")
    for sub in enumerate_subpresheaves(PATH):
        assert closure_via_chi(j, sub) == sub


def test_closure_rejects_a_subobject_over_another_category():
    j = construct_bitstring_topology(REFL, "01")
    with pytest.raises(ValueError, match="different categories"):
        closure_via_chi(j, Subpresheaf.empty(PATH))


def test_trivial_closure_fills_everything():
    j = construct_bitstring_topology(GRAPH, "11")
    sub = Subpresheaf.empty(PATH)
    assert closure_via_chi(j, sub).is_full


def test_double_negation_closure_formula():
    # closure adds exactly the edges with both endpoints already in
    j = construct_bitstring_topology(GRAPH, "01")
    for A in (PATH, PARALLEL, LOOP, COMPLETE2):
        for sub in enumerate_subpresheaves(A):
            closed = closure_via_chi(j, sub)
            assert closed.level_indices(0) == sub.level_indices(0)
            src = A.action_table(face(1, 1))
            tgt = A.action_table(face(1, 0))
            for e in range(len(A.carrier(1))):
                expected = sub.contains(0, src[e]) and sub.contains(0, tgt[e])
                assert closed.contains(1, e) == expected


def test_vertex_filling_closure():
    # bit pattern 10 adds the vertices but never the edge
    j = construct_bitstring_topology(GRAPH, "10")
    edge = graph_presheaf("uv", {"e": (0, 1)})
    closed = closure_via_chi(j, Subpresheaf.empty(edge))
    assert closed.level_indices(0) == (0, 1)
    assert closed.level_indices(1) == ()


def test_recursive_closure_fills_a_triangle():
    y2 = yoneda(SEMI2, 2)
    vertices_only = Subpresheaf.from_indices(
        y2, {0: range(3), 1: (), 2: ()}
    )
    assert closure_recursive("011", vertices_only).is_full
    assert closure_via_chi(construct_bitstring_topology(SEMI2, "011"), vertices_only).is_full
    assert closure_recursive("000", vertices_only) == vertices_only


@pytest.mark.parametrize("word", ["x2", "zz", "0", "011", "1 "])
def test_bit_string_routes_reject_malformed_words(word):
    # two letters over 0/1 for graph, checked before any level is read
    empty = Subpresheaf.empty(yoneda(GRAPH, 1))
    with pytest.raises(ValueError, match="expected a bit string of length 2"):
        closure_recursive(word, empty)
    with pytest.raises(ValueError, match="expected a bit string of length 2"):
        is_dense_by_bits(word, empty)


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2", "simplex:2"])
def test_the_two_closure_routes_agree(kind):
    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    for P in presheaf_corpus(category, 4):
        for sub in enumerate_subpresheaves(P):
            for j in topologies:
                assert closure_via_chi(j, sub) == closure_recursive(j.tag, sub)


@pytest.mark.parametrize(
    "kind", ["graph", "reflgraph", "semisimplex:2", "simplex:2", "bicolgraph"]
)
def test_each_lane_of_a_batched_closure_is_the_one_lane_closure(kind):
    # every subobject of a corpus presheaf is one lane of a single integer,
    # as the closures suite lays them out, and in the reverse order; the
    # corpus starts with the empty presheaf, whose lanes are 0 bits wide
    category = build_index_category(kind)
    simplex = category.family != FAMILY_BICOLOR
    topologies = enumerate_topologies(category)
    corpus = presheaf_corpus(category, 5)
    assert corpus[0].total_size == 0
    batches = [(P, enumerate_subpresheaves(P)) for P in corpus]
    for P, subs in batches + [(P, subs[::-1]) for P, subs in batches]:
        stride = P.total_size
        bits = lanes = 0
        for s, sub in enumerate(subs):
            bits |= sub.bits << s * stride
            lanes |= 1 << s * stride
        lane = (1 << stride) - 1
        for j in topologies:
            (chi,) = _closures_bits([least_covering_sieves(j)], P, bits, lanes)
            assert not chi >> len(subs) * stride, (P, j.tag)
            rec = _closed_bits(j.tag, P, bits, lanes) if simplex else 0
            assert not rec >> len(subs) * stride, (P, j.tag)
            for s, sub in enumerate(subs):
                assert chi >> s * stride & lane == closure_via_chi(j, sub).bits, (P, sub, j.tag)
                if simplex:
                    one = closure_recursive(j.tag, sub).bits
                    assert rec >> s * stride & lane == one, (P, sub, j.tag)


@pytest.mark.parametrize("kind", BUILTINS_UP_TO_DIM_3)
def test_chi_route_is_the_pullback_of_true_along_j_after_chi(kind):
    # every sieve S of every y(c): the closure kernel against j o chi_S,
    # composed here cell by cell and pulled back along true
    category = build_index_category(kind)
    omega = classifying_object(category)
    for j in enumerate_topologies(category):
        for sieves in omega.sieves:
            for S in sieves:
                chi = characteristic_function(S, omega)
                composite = PresheafMorphism(
                    chi.source,
                    chi.target,
                    tuple(
                        tuple(mapping[x] for x in component)
                        for mapping, component in zip(j.levels, chi.components)
                    ),
                )
                assert closure_via_chi(j, S) == pullback_of_true(composite, omega), (j.tag, S)


def test_density():
    full = Subpresheaf.full(PATH)
    for word in ("00", "01", "10", "11"):
        j = construct_bitstring_topology(GRAPH, word)
        assert is_dense_via_closure(j, full)
        for sub in enumerate_subpresheaves(PATH):
            assert is_dense_via_closure(j, sub) == is_dense_by_bits(word, sub)
        if word == "11":
            assert all(
                is_dense_via_closure(j, sub) for sub in enumerate_subpresheaves(PATH)
            )


def test_hollow_inclusion_is_dense_iff_the_bit_is_one():
    from lttop.presheaf import boundary

    for k in (0, 1, 2):
        hollow = boundary(SEMI2, k)
        for bits in itertools.product("01", repeat=3):
            word = "".join(bits)
            j = construct_bitstring_topology(SEMI2, word)
            assert is_dense_via_closure(j, hollow) == (word[k] == "1")


def test_cell_count_predicates():
    assert k_simple(PATH, 1) and not k_complete(PATH, 1)
    assert not k_simple(PARALLEL, 1)
    assert k_complete(COMPLETE2, 1) and k_exact(COMPLETE2, 1)
    assert k_simple(LOOP, 0) and k_complete(LOOP, 0)
    assert k_exact(LOOP, 1)  # one vertex, one loop: complete graph on a point


def test_boundary_tuples_at_dimension_one_are_all_pairs():
    tuples = boundary_tuples(PATH, 1)
    assert tuples == set(itertools.product(range(3), repeat=2))


def test_unrealizable_tuples_are_recognized(boundary_tuples_reference):
    _, is_boundary_tuple = boundary_tuples_reference
    # an edge between distinct vertices cannot bound a triangle three times
    B = FinitePresheaf(
        SEMI2,
        {0: ("u", "v"), 1: ("e",), 2: ()},
        {face(1, 1): (0,), face(1, 0): (1,), face(2, 0): (), face(2, 1): (), face(2, 2): ()},
    )
    assert not is_boundary_tuple(B, 2, (0, 0, 0))
    assert boundary_tuples(B, 2) == set()
    # so B is 2-complete even though it has no triangles at all
    assert k_complete(B, 2)
    assert classify(B, "001").complete


def ordered_complex(category, simplices):
    """The presheaf of an ordered simplicial complex given by its maximal
    simplices: level l holds the (l+1)-tuples of vertices that span a face,
    increasing in the semi-simplicial form and non-decreasing (so with the
    degenerate cells) in the simplicial form."""
    faces = {
        frozenset(c)
        for s in simplices
        for r in range(1, len(s) + 1)
        for c in itertools.combinations(s, r)
    }
    vertices = sorted(set().union(*simplices))
    tuples = (
        itertools.combinations
        if category.family == "semisimplex"
        else itertools.combinations_with_replacement
    )
    carriers = {
        l: tuple(t for t in tuples(vertices, l + 1) if frozenset(t) in faces)
        for l in category.objects
    }
    index = {l: {t: i for i, t in enumerate(level)} for l, level in carriers.items()}
    actions = {
        g: tuple(index[g.source][tuple(t[v] for v in g.values)] for t in carriers[g.target])
        for g in category.generators
    }
    return FinitePresheaf(category, carriers, actions)


def random_complex(category, seed, vertices=9):
    rng = random.Random(seed)
    pool = range(vertices)
    triangles = [tuple(sorted(rng.sample(pool, 3))) for _ in range(8)]
    edges = [tuple(sorted(rng.sample(pool, 2))) for _ in range(6)]
    return ordered_complex(category, triangles + edges + [(v,) for v in pool])


def reflexive_multigraph():
    """Four vertices; parallel edges, extra loops, and the identity loops."""
    edges = [(v, v) for v in range(4)] + [(0, 1), (0, 1), (1, 2), (1, 1), (1, 1), (2, 0), (3, 3)]
    return FinitePresheaf(
        REFL,
        {0: tuple("abcd"), 1: tuple(range(len(edges)))},
        {
            face(1, 1): tuple(src for src, _ in edges),
            face(1, 0): tuple(tgt for _, tgt in edges),
            degeneracy(0, 0): (0, 1, 2, 3),
        },
    )


def test_boundary_tuples_match_the_morphism_enumeration(boundary_tuples_reference):
    reference, _ = boundary_tuples_reference
    cases = []
    for kind, bound in [
        ("set", 6), ("graph", 6), ("reflgraph", 6), ("semisimplex:2", 6),
        ("simplex:2", 6), ("semisimplex:3", 5), ("simplex:3", 5),
    ]:
        cases += presheaf_corpus(build_index_category(kind), bound)
    for kind in ("semisimplex:3", "simplex:3"):
        category = build_index_category(kind)
        cases += [yoneda(category, k) for k in category.objects]
    for kind in ("semisimplex:2", "simplex:2"):
        cases += [random_complex(build_index_category(kind), seed) for seed in (1, 2)]
    cases.append(reflexive_multigraph())
    realized = 0
    for B in cases:
        for k in range(1, B.category.dim + 1):
            tuples = boundary_tuples(B, k)
            assert tuples == reference(B, k), (B, k)
            realized += k >= 2 and bool(tuples)
    assert realized > 100


def test_boundary_tuples_need_simplex_faces():
    bicolor = build_index_category("bicolgraph")
    B = yoneda(bicolor, bicolor.objects[-1])
    with pytest.raises(ValueError, match="has no simplex faces"):
        boundary_tuples(B, 1)
    for check in (k_simple, k_complete, k_exact):
        for k in (0, 1):
            with pytest.raises(ValueError, match="bicolgraph has no simplex faces"):
                check(B, k)


def test_classify_examples():
    assert classify(PARALLEL, "00").sheaf  # discrete: everything is a sheaf
    assert classify(PATH, "01").separated
    report = classify(PARALLEL, "01")
    assert not report.separated
    assert report.witnesses[0][:2] == (1, "simple")
    # terminal graph under the trivial topology
    assert classify(LOOP, "11").sheaf
    # empty presheaf under the trivial topology: separated but not complete
    empty = FinitePresheaf(GRAPH, {0: (), 1: ()}, {face(1, 1): (), face(1, 0): ()})
    report = classify(empty, "11")
    assert report.separated and not report.complete


def test_empty_set_is_separated_not_sheaf_for_the_trivial_topology():
    # decided by the factorization oracle, not only by cell counts
    one = build_index_category("set")
    j = construct_bitstring_topology(one, "1")
    empty = FinitePresheaf(one, {0: ()}, {})
    singleton = FinitePresheaf(one, {0: ("x",)}, {})
    report = factorization_check(empty, j)
    assert report.separated and not report.complete
    assert classify(empty, "1").separated and not classify(empty, "1").complete
    # the singleton is the terminal object and therefore a sheaf
    report = factorization_check(singleton, j)
    assert report.separated and report.complete


def pullback_subobject(h, sub):
    """Pullback of a subobject of the target of h along h, levelwise preimage."""
    A = h.source
    sets = {}
    for c in A.category.objects:
        sets[c] = [x for x in range(len(A.carrier(c))) if sub.contains(c, h.component(c, x))]
    return Subpresheaf.from_indices(A, sets)


def closure_axiom_violation(j, presheaves, morphisms=()):
    """None if the closure of j is increasing, idempotent and monotone on
    every subobject of ``presheaves`` and stable under pullback along
    ``morphisms``, else (axiom, context).  (Strongness preservation is
    vacuous here: every presheaf mono is strong.)"""
    for A in presheaves:
        subs = enumerate_subpresheaves(A)
        closed = {s: closure_via_chi(j, s) for s in subs}
        for s in subs:
            if not s.leq(closed[s]):
                return ("increasing", (A, s))
            if closure_via_chi(j, closed[s]) != closed[s]:
                return ("idempotent", (A, s))
        for s in subs:
            for t in subs:
                if s.leq(t) and not closed[s].leq(closed[t]):
                    return ("monotone", (A, s, t))
    for h in morphisms:
        for s in enumerate_subpresheaves(h.target):
            lhs = closure_via_chi(j, pullback_subobject(h, s))
            rhs = pullback_subobject(h, closure_via_chi(j, s))
            if lhs != rhs:
                return ("pullback-stability", (h, s))
    return None


def test_closure_axioms_on_corpus_instances():
    corpus = presheaf_corpus(GRAPH, 3)
    morphisms = [h for A in corpus for B in corpus for h in enumerate_morphisms(A, B)]
    for j in enumerate_topologies(GRAPH):
        assert closure_axiom_violation(j, corpus, morphisms) is None


def test_pullback_subobject_is_levelwise_preimage():
    h = next(enumerate_morphisms(PATH, LOOP))
    full = Subpresheaf.full(LOOP)
    assert pullback_subobject(h, full).is_full
    empty = Subpresheaf.empty(LOOP)
    assert pullback_subobject(h, empty).size == 0


def test_factorization_oracle_finds_the_parallel_edge_pair():
    j = construct_bitstring_topology(GRAPH, "01")
    report = factorization_check(PARALLEL, j)
    assert not report.separated
    ambient, sub, _, pair = report.separated_witness
    assert ambient == yoneda(GRAPH, 1)  # the walking edge
    assert sub.level_indices(1) == ()  # its hollow inclusion
    assert len(pair) == 2
    # a simple but incomplete graph admits a morphism with no extension
    report = factorization_check(PATH, j)
    assert report.separated and not report.complete


@pytest.mark.parametrize("kind,corpus_bound", [
    ("graph", 4),
    ("reflgraph", 5),
    ("semisimplex:2", 4),
    ("simplex:2", 4),
    ("semisimplex:3", 4),
    ("simplex:3", 4),
])
def test_classifier_agrees_with_the_factorization_oracle(kind, corpus_bound):
    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    for B in presheaf_corpus(category, corpus_bound):
        for j in topologies:
            predicted = classify(B, j.tag)
            observed = factorization_check(B, j)
            assert predicted.separated == observed.separated, (B, j.tag)
            assert predicted.complete == observed.complete, (B, j.tag)


def restriction_to(g, sub):
    """g's components read at the cells of ``sub``, level by level."""
    return tuple(
        tuple(component[x] for x in sub.level_indices(c))
        for c, component in zip(sub.presheaf.category.objects, g.components)
    )


@pytest.mark.parametrize("kind,corpus_bound,ambient_bound", [
    ("graph", 6, 4),
    ("reflgraph", 6, 4),
    ("semisimplex:2", 4, 2),
    ("simplex:2", 5, 3),
    ("bicolgraph", 5, 3),
])
def test_factorization_check_matches_the_reference(
    kind, corpus_bound, ambient_bound, factorization_reference, reference_ambients
):
    # the oracle reads only the representables; the reference also tries
    # every presheaf with at most ``ambient_bound`` elements as an ambient
    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    representables = [yoneda(category, c) for c in category.objects]
    ambients = reference_ambients(category, ambient_bound)
    for B in presheaf_corpus(category, corpus_bound):
        for j in topologies:
            report = factorization_check(B, j)
            expected = factorization_reference(B, j, ambients)
            assert (report.separated, report.complete) == (
                expected.separated,
                expected.complete,
            ), (B, j.tag)
            if report.separated_witness is not None:
                A, sub, f, (g1, g2) = report.separated_witness
                assert A in representables and sub.presheaf == A and not sub.is_full
                assert is_dense_via_closure(j, sub)
                for g in (g1, g2):
                    assert (g.source, g.target) == (A, B)
                    assert g.naturality_violation() is None
                    assert restriction_to(g, sub) == f
                assert g1.components != g2.components
            if report.complete_witness is not None:
                A, sub, f = report.complete_witness
                assert A in representables and sub.presheaf == A and not sub.is_full
                assert is_dense_via_closure(j, sub)
                assert all(restriction_to(g, sub) != f for g in enumerate_morphisms(A, B))


def test_factorization_budget_is_read_at_call_time(monkeypatch):
    j = construct_bitstring_topology(GRAPH, "01")
    monkeypatch.setattr(closure, "DEFAULT_SEARCH_BUDGET", 3)
    with pytest.raises(CorpusTooLarge, match="more than 3 morphisms") as caught:
        factorization_check(COMPLETE2, j)
    assert caught.value.bound == 3 and caught.value.count > 3


def test_an_exceeded_search_budget_builds_no_witness(monkeypatch):
    # the budget counts the maps a scan reaches, failing or not, and the
    # scan that exceeds it builds no witness on the way
    built = []
    components_of = closure.components_of

    def counted(*args):
        built.append(args)
        return components_of(*args)

    monkeypatch.setattr(closure, "components_of", counted)
    monkeypatch.setattr(closure, "DEFAULT_SEARCH_BUDGET", 3)
    topologies = enumerate_topologies(GRAPH)
    with pytest.raises(CorpusTooLarge, match="more than 3 morphisms") as caught:
        factorization_checks(COMPLETE2, topologies)
    assert (caught.value.count, caught.value.bound) == (4, 3)
    raised = 0
    for B in presheaf_corpus(GRAPH, 5):
        try:
            factorization_checks(B, topologies)
        except CorpusTooLarge as exc:
            assert (exc.count, exc.bound) == (4, 3), B
            raised += 1
    assert raised and built == []


@pytest.mark.parametrize("kind,corpus_bound", [
    ("graph", 6),
    ("reflgraph", 6),
    ("semisimplex:2", 5),
    ("simplex:2", 5),
    ("bicolgraph", 5),
    ("semisimplex:3", 4),
    ("simplex:3", 4),
])
def test_shared_factorization_checks_match_the_extension_search(
    kind, corpus_bound, extension_factorization_reference
):
    category = build_index_category(kind)
    topologies = enumerate_topologies(category)
    for B in presheaf_corpus(category, corpus_bound):
        for j, report in zip(topologies, factorization_checks(B, topologies)):
            expected = extension_factorization_reference(B, j)
            assert (report.separated, report.complete) == (
                expected.separated,
                expected.complete,
            ), (B, j.tag)
            assert report.complete_witness == expected.complete_witness, (B, j.tag)
            if report.separated_witness is None:
                assert expected.separated_witness is None, (B, j.tag)
                continue
            A, sub, f, pair = report.separated_witness
            assert (A, sub, f) == expected.separated_witness[:3], (B, j.tag)
            # by Yoneda a map y(c) -> B is the cell it sends the identity to
            c = next(c for c in category.objects if yoneda(category, c) is A)
            identity = A.label_index(c, category.identity(c))
            maps = sorted(enumerate_morphisms(A, B), key=lambda g: g.component(c, identity))
            lowest = [g for g in maps if restriction_to(g, sub) == f][:2]
            assert len(lowest) == 2 and pair == tuple(lowest), (B, j.tag)


def test_shared_factorization_checks_exceed_the_budget_where_the_reference_does(
    monkeypatch, extension_factorization_reference
):
    # the shared call on the first t + 1 topologies raises iff the reference
    # first raises on topology t, with the same message, at budget + 1 maps
    topologies = enumerate_topologies(GRAPH)
    corpus = presheaf_corpus(GRAPH, 5)
    raised = 0
    for budget in range(1, 41):
        monkeypatch.setattr(closure, "DEFAULT_SEARCH_BUDGET", budget)
        for B in corpus:
            expected, error = [], None
            for j in topologies:
                try:
                    expected.append(extension_factorization_reference(B, j))
                except CorpusTooLarge as exc:
                    error = exc
                    break
            observed = factorization_checks(B, topologies[: len(expected)])
            assert [(r.separated, r.complete) for r in observed] == [
                (r.separated, r.complete) for r in expected
            ], (budget, B)
            if error is not None:
                raised += 1
                with pytest.raises(CorpusTooLarge) as caught:
                    factorization_checks(B, topologies[: len(expected) + 1])
                assert str(caught.value) == str(error), (budget, B)
                assert caught.value.count == error.count == budget + 1, (budget, B)
                assert caught.value.bound == budget, (budget, B)
    assert raised  # the budgets reach both outcomes


def chosen_cells(category, pos, m):
    """The principal sieves of y(c)'s cells at the chosen orbit positions
    of m, c the object at ``pos``."""
    yc = yoneda(category, category.objects[pos])
    top = yc.total_size - 1
    offsets = yc.bit_offsets()
    principal = {
        offsets[yc.obj_index(l)] + x: _principal(orbit)
        for (l, x), orbit in yc.sieve_orbits().items()
    }
    return [principal[top - i] for i in _generator_positions(category, pos, m)]


@pytest.mark.parametrize("kind", BUILTINS_UP_TO_DIM_3)
def test_each_least_covering_sieve_is_the_join_of_its_chosen_principal_sieves(kind):
    category = build_index_category(kind)
    for j in enumerate_topologies(category):
        for pos, m in enumerate(least_covering_sieves(j)):
            chosen = chosen_cells(category, pos, m)
            joined = 0
            for principal in chosen:
                assert principal & ~m == 0, (kind, j.tag, pos)
                joined |= principal
            assert joined == m, (kind, j.tag, pos)
            if m == (1 << yoneda(category, category.objects[pos]).total_size) - 1:
                # the largest principal sieve first: the identity alone
                assert chosen == [m], (kind, j.tag, pos)


def test_cells_that_generate_each_other_keep_one_generator():
    # on reflgraph, each vertex of y(1) and the degenerate loop on it
    # generate the same sieve, so dropping every cell that lies in another
    # cell's principal sieve would drop both of each pair
    y1 = yoneda(REFL, 1)
    principals = [_principal(orbit) for orbit in y1.sieve_orbits().values()]
    pairs = [p for p in set(principals) if principals.count(p) == 2]
    assert len(pairs) == 2 and len(set(principals)) == 3
    for p in pairs:
        assert chosen_cells(REFL, 1, p) == [p]
    # topology 01 covers at 1 exactly when both vertices are in the sieve
    (m,) = {least_covering_sieves(j)[1] for j in enumerate_topologies(REFL) if j.tag == "01"}
    assert m == pairs[0] | pairs[1]
    assert sorted(chosen_cells(REFL, 1, m)) == sorted(pairs)


@pytest.mark.parametrize("kind,corpus_bound", [
    ("bicolgraph", 5),
    ("semisimplex:3", 4),
    ("simplex:3", 4),
])
def test_the_shared_chi_kernel_matches_the_all_positions_kernel(
    kind, corpus_bound, closure_bits_reference
):
    # every subobject of each corpus presheaf is one lane of a single integer
    category = build_index_category(kind)
    leasts = [least_covering_sieves(j) for j in enumerate_topologies(category)]
    for P in presheaf_corpus(category, corpus_bound):
        stride = P.total_size
        bits = lanes = 0
        for s, sub_bits in enumerate(subpresheaf_bits(P)):
            bits |= sub_bits << s * stride
            lanes |= 1 << s * stride
        expected = [closure_bits_reference(least, P, bits, lanes) for least in leasts]
        assert _closures_bits(leasts, P, bits, lanes) == expected, P


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2"])
def test_the_chi_kernel_answers_in_the_callers_order(kind, closure_bits_reference):
    # the plan is cached per (category, leasts): a permuted, repeated or
    # single list of topologies reads its own plan, so a stale or
    # mis-keyed entry would close some lane under the wrong topology
    category = build_index_category(kind)
    leasts = [least_covering_sieves(j) for j in enumerate_topologies(category)]
    orders = [
        leasts,
        leasts[::-1],
        leasts[1:] + leasts[:1],
        leasts + leasts[:2],
        [leasts[-1], leasts[0], leasts[-1]],
        *([least] for least in leasts),
    ]
    for P in presheaf_corpus(category, 4):
        bits, lanes, _ = pack_lanes(P, subpresheaf_bits(P))
        expected = {least: closure_bits_reference(least, P, bits, lanes) for least in leasts}
        for order in orders:
            got = _closures_bits(order, P, bits, lanes)
            assert got == [expected[least] for least in order], (P, order)


def test_corpus_is_deduplicated_and_valid():
    corpus = presheaf_corpus(GRAPH, 3)
    # by hand: empty, 1-3 vertices, loop, loop+vertex, two loops? no: sizes
    # (1,2) means one vertex with two loops; (2,1) has two classes
    assert len(corpus) == 8
    for P in corpus:
        assert P.functoriality_violation() is None
        assert P.total_size <= 3
    keys = {tuple(len(l) for l in P.carriers) for P in corpus}
    assert (2, 1) in keys and (1, 2) in keys


def test_corpus_counts_without_iso_rejection_are_larger(raw_corpus):
    assert len(raw_corpus(GRAPH, 3)) > len(presheaf_corpus(GRAPH, 3))


@pytest.mark.parametrize("kind,count", [("graph", 107), ("reflgraph", 16), ("semisimplex:2", 362)])
def test_corpus_counts_at_bound_6(kind, count):
    # the counts ``verify --corpus-bound 6`` reports
    assert len(presheaf_corpus(build_index_category(kind), 6)) == count


@pytest.mark.parametrize("kind,bound,count", [
    ("graph", 7, 287),
    ("graph", 8, 817),
    ("semisimplex:2", 7, 1899),
    ("reflgraph", 7, 29),
    ("simplex:1", 7, 29),
])
def test_corpus_counts_at_larger_bounds(kind, bound, count):
    # the counts the canonical-key route gives
    assert len(presheaf_corpus(build_index_category(kind), bound)) == count


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2"])
def test_least_table_tuples_have_only_least_prefixes(kind, raw_corpus):
    # the invariant that lets presheaf_corpus prune at every table prefix
    category = build_index_category(kind)
    least = 0
    for P in raw_corpus(category, 4):
        sizes = tuple(len(level) for level in P.carriers)
        tables = tuple(P.action_table(g) for g in category.generators)
        if closure._is_least(category, sizes, tables):
            least += 1
            for pos in range(len(tables)):
                assert closure._is_least(category, sizes, tables[:pos]), (P, pos)
    assert least == len(presheaf_corpus(category, 4))


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "semisimplex:2", "bicolgraph"])
def test_tie_states_give_the_whole_search_verdict_on_every_prefix(
    kind, raw_corpus, is_least_reference
):
    # _is_least carries a prefix's tie states from table to table; the
    # reference reruns the whole renaming search from the empty naming
    category = build_index_category(kind)
    for P in raw_corpus(category, 4):
        sizes = tuple(len(level) for level in P.carriers)
        tables = tuple(P.action_table(g) for g in category.generators)
        for pos in range(len(tables) + 1):
            expected = is_least_reference(category, sizes, tables[:pos])
            assert closure._is_least(category, sizes, tables[:pos]) == expected, (P, pos)


def test_every_presheaf_has_its_class_in_the_deduplicated_corpus(canonical_key, raw_corpus):
    kept = [canonical_key(P) for P in presheaf_corpus(GRAPH, 4)]
    assert len(set(kept)) == len(kept)
    assert {canonical_key(P) for P in raw_corpus(GRAPH, 4)} == set(kept)


@pytest.mark.parametrize("kind,top", [
    ("set", 6), ("graph", 6), ("reflgraph", 6), ("bicolgraph", 6), ("semisimplex:2", 6),
    ("simplex:2", 5), ("semisimplex:3", 5), ("simplex:3", 5),
])
def test_corpus_matches_the_canonical_key_reference(kind, top, corpus_reference):
    # the same member of each class, table for table, in the same order
    category = build_index_category(kind)
    keyed = corpus_reference(category, top)
    for bound in range(top + 1):
        expected = tuple(P for P in keyed if P.total_size <= bound)
        assert presheaf_corpus(category, bound) == expected, bound


# Per generator (by its printed name), the pair checks that become
# decidable once its table is assigned: the entry filters as (A's word, R's
# word), the checks still run per table as (g1, g2, canonical path), and
# how many were dropped for having the same word on both sides.  On
# reflgraph the degeneracy (0,0) is a section of both faces, so its entries
# are filtered by (1)[t[i]] == i and (0)[t[i]] == i, while the checks of
# (1) o (0,0) and (0) o (0,0), whose canonical words are themselves, drop.
SORTED_CHECKS = {
    "reflgraph": {
        "(0,0)": ([(("(1)",), ()), (("(0)",), ())], [], 2),
    },
    "semisimplex:2": {
        "(0,2)": ([(("(1)",), ("(1,2)", "(1)"))], [], 1),
        "(0,1)": ([(("(1)",), ("(1,2)", "(0)")), (("(0)",), ("(0,2)", "(0)"))], [], 2),
    },
    "simplex:2": {
        "(0,2)": ([(("(1)",), ("(1,2)", "(1)"))], [], 1),
        "(0,1)": ([(("(1)",), ("(1,2)", "(0)")), (("(0)",), ("(0,2)", "(0)"))], [], 2),
        "(0,0)": ([(("(1)",), ()), (("(0)",), ())], [], 2),
        "(0,0,1)": ([(("(1,2)",), ()), (("(0,2)",), ()), (("(0,1)",), ("(0)", "(0,0)"))], [], 3),
        # the new table is applied last on the path of (0,0) o (0,0,1)
        "(0,1,1)": (
            [(("(1,2)",), ("(1)", "(0,0)")), (("(0,2)",), ()), (("(0,1)",), ())],
            [("(0,0,1)", "(0,0)", ("(0,0)", "(0,1,1)"))],
            4,
        ),
    },
}


@pytest.mark.parametrize("kind", sorted(SORTED_CHECKS))
def test_pair_checks_sort_into_entry_filters_and_table_checks(kind):
    category = build_index_category(kind)
    names = [str(g) for g in category.generators]

    def word(positions):
        return tuple(names[p] for p in positions)

    found = {}
    for pos, (checks, (filters, rest)) in enumerate(
        zip(closure._pair_checks(category), closure._sorted_checks(category))
    ):
        if checks:
            found[names[pos]] = (
                [(word(apply), word(expect)) for apply, expect in filters],
                [(names[pos1], names[pos2], word(path)) for pos1, pos2, path, _ in rest],
                len(checks) - len(filters) - len(rest),
            )
        assert set(rest) <= set(checks), names[pos]
    assert found == SORTED_CHECKS[kind]


def test_entry_filters_shrink_the_corpus_search():
    # simplex:2 at bound 6 needs 2841 steps with the entry filters (6540
    # when every table was tried), and reflgraph at bound 9 fits the
    # default corpus budget
    category = build_index_category("simplex:2")
    assert closure._presheaf_corpus(category, 6, 3000) == presheaf_corpus(category, 6)
    refl = build_index_category("reflgraph")
    assert len(closure._presheaf_corpus(refl, 9, closure.DEFAULT_CORPUS_BUDGET)) == 122


@pytest.mark.parametrize(
    "kind", ["graph", "reflgraph", "semisimplex:2", "simplex:2", "semisimplex:3"]
)
def test_recursive_closure_matches_the_reference(kind, closure_recursive_reference):
    category = build_index_category(kind)
    words = ["".join(bits) for bits in itertools.product("01", repeat=category.dim + 1)]
    for P in presheaf_corpus(category, 5):
        for sub in enumerate_subpresheaves(P):
            for word in words:
                expected = closure_recursive_reference(word, sub)
                assert closure_recursive(word, sub) == expected, (P, sub, word)


@pytest.mark.parametrize("kind,word", [
    ("bicolgraph", "01"),
    ("graph", "x2"), ("graph", "011"), ("graph", "1 "), ("semisimplex:2", "01"),
])
def test_recursive_closure_errors_match_the_reference(kind, word, closure_recursive_reference):
    category = build_index_category(kind)
    empty = Subpresheaf.empty(yoneda(category, category.objects[-1]))
    with pytest.raises(ValueError) as got:
        closure_recursive(word, empty)
    with pytest.raises(ValueError) as expected:
        closure_recursive_reference(word, empty)
    assert str(got.value) == str(expected.value)


SIMPLEX_BUILTINS = ["set", "graph", "reflgraph"] + [
    f"{family}:{dim}" for family in ("semisimplex", "simplex") for dim in (2, 3, 4)
]


@pytest.mark.parametrize("kind", SIMPLEX_BUILTINS)
def test_classifications_are_one_classify_per_word(kind):
    from lttop.closure import classifications
    from lttop.fincat import FAMILY_FULL

    category = build_index_category(kind)
    words = ["".join(bits) for bits in itertools.product("01", repeat=category.dim + 1)]
    if category.family == FAMILY_FULL:
        words = [w for w in words if "10" not in w]
    for B in presheaf_corpus(category, 5):
        assert classifications(B, words) == [classify(B, w) for w in words], B


def test_classifications_reject_a_bad_word_before_any_level_is_read(monkeypatch):
    from lttop.closure import classifications
    from lttop.topology import DegeneracyIncompatible

    def unreachable(B, k):
        raise AssertionError("no level is read for a rejected word")

    monkeypatch.setattr(closure, "_shared_cells", unreachable)
    B = presheaf_corpus(REFL, 4)[-1]
    with pytest.raises(DegeneracyIncompatible):
        classifications(B, ["11", "10"])
    with pytest.raises(ValueError, match="expected a bit string"):
        classifications(B, ["11", "1"])


def test_factorization_witnesses_are_shared_by_the_topologies_that_report_them():
    # every topology that reaches a map reports the same witness object
    category = REFL
    topologies = enumerate_topologies(category)
    shared = 0
    for B in presheaf_corpus(category, 5):
        reports = factorization_checks(B, topologies)
        for field in ("separated_witness", "complete_witness"):
            witnesses = [getattr(r, field) for r in reports if getattr(r, field) is not None]
            for w in witnesses[1:]:
                if w == witnesses[0]:
                    assert w is witnesses[0]
                    shared += 1
    assert shared
