"""Topology verification, the constructive bit-string family, enumeration by
two independent methods, degeneracy compatibility, truncation coherence."""

import itertools

import pytest

from lttop.fincat import build_index_category, degeneracy
from lttop.omega import classifying_object
from lttop.presheaf import Subpresheaf
from lttop.topology import (
    DegeneracyIncompatible,
    LTTopology,
    _bitstring_levels,
    _covering_map,
    _transitive_at,
    construct_bitstring_topology,
    degeneracy_compatible,
    enumerate_topologies,
    tag_topology,
    topology_by_tag,
    verify_topology,
)

GRAPH = build_index_category("graph")
REFL = build_index_category("reflgraph")


@pytest.fixture(scope="module")
def omega_graph():
    return classifying_object(GRAPH)


def identity_topology(omega):
    return LTTopology(omega, tuple(tuple(range(n)) for n in omega.level_sizes()))


def constant_top_topology(omega):
    return LTTopology(omega, tuple((top,) * n for top, n in zip(omega.top, omega.level_sizes())))


@pytest.mark.parametrize("kind", ["set", "graph", "reflgraph", "bicolgraph", "semisimplex:2"])
def test_discrete_and_trivial_always_verify(kind):
    omega = classifying_object(build_index_category(kind))
    assert verify_topology(identity_topology(omega)) is None
    assert verify_topology(constant_top_topology(omega)) is None


def test_verify_reports_each_axiom(omega_graph):
    broken = list(identity_topology(omega_graph).levels)
    # move the top somewhere else at level 0
    broken[0] = (0, 0)
    problem = verify_topology(LTTopology(omega_graph, tuple(broken)))
    assert problem is not None and problem.kind == "true"
    # a non-idempotent candidate at level 1: swap two incomparable sieves
    levels = list(identity_topology(omega_graph).levels)
    swapped = list(levels[1])
    swapped[1], swapped[2] = swapped[2], swapped[1]
    problem = verify_topology(LTTopology(omega_graph, (levels[0], tuple(swapped))))
    assert problem is not None and problem.kind == "idempotent"
    # idempotent and top-fixing, but not the map its covering sieves
    # determine: one vertex covers the edge, the other vertex does not
    assert omega_graph.sieves[1][1].size == 1
    covered = list(levels[1])
    covered[1] = omega_graph.top[1]
    problem = verify_topology(LTTopology(omega_graph, (levels[0], tuple(covered))))
    assert problem is not None and problem.kind == "covering"


def test_all_zero_word_gives_the_identity(omega_graph):
    j = construct_bitstring_topology(GRAPH, "00")
    assert j.levels == identity_topology(omega_graph).levels
    semi2 = build_index_category("semisimplex", 2)
    j2 = construct_bitstring_topology(semi2, "000")
    assert j2.levels == identity_topology(classifying_object(semi2)).levels


def test_all_one_word_gives_constant_top(omega_graph):
    j = construct_bitstring_topology(GRAPH, "11")
    assert j.levels == constant_top_topology(omega_graph).levels


def test_word_validation():
    with pytest.raises(ValueError):
        construct_bitstring_topology(GRAPH, "0")
    with pytest.raises(ValueError):
        construct_bitstring_topology(GRAPH, "02")
    with pytest.raises(ValueError):
        construct_bitstring_topology(build_index_category("bicolgraph"), "00")


def test_boundary_goes_to_top_exactly_on_one_bits():
    semi2 = build_index_category("semisimplex", 2)
    omega = classifying_object(semi2)
    for word in ("".join(bits) for bits in itertools.product("01", repeat=3)):
        j = construct_bitstring_topology(semi2, word)
        for k in semi2.objects:
            pos = semi2.obj_index(k)
            bnd = omega.boundary_index(k)
            expected = omega.top[pos] if word[k] == "1" else bnd
            assert j.levels[pos][bnd] == expected


def test_counts_and_method_agreement():
    expected = {"set": 2, "graph": 4, "reflgraph": 3}
    for kind, count in expected.items():
        category = build_index_category(kind)
        brute = enumerate_topologies(category, method="brute")
        constrained = enumerate_topologies(category, method="constrained")
        assert len(brute) == count
        assert {j.levels for j in brute} == {j.levels for j in constrained}
        # the constructive family covers everything the oracle finds
        family = {construct_bitstring_topology(category, j.tag).levels for j in brute}
        assert family == {j.levels for j in brute}


def test_bicolor_eight_topologies():
    category = build_index_category("bicolgraph")
    topologies = enumerate_topologies(category, method="brute")
    assert len(topologies) == 8
    assert sorted(j.tag for j in topologies) == [
        "00", "01", "02", "03", "10", "11", "12", "13",
    ]


def test_simplex_counts():
    semi2 = build_index_category("semisimplex", 2)
    assert len(enumerate_topologies(semi2, method="constrained")) == 8
    sset2 = build_index_category("simplex", 2)
    tags = sorted(j.tag for j in enumerate_topologies(sset2, method="constrained"))
    assert tags == ["000", "001", "011", "111"]


def raw_endomap_candidates(omega, order_algebra):
    """Every tuple of per-level endomaps that fix top, are idempotent and
    preserve meets, read off the order-derived algebra of each level."""
    algebras = [order_algebra(omega, pos) for pos in range(len(omega.sieves))]
    levels = [
        [
            mapping
            for mapping in itertools.product(range(a.size), repeat=a.size)
            if mapping[a.top] == a.top
            and all(mapping[mapping[x]] == mapping[x] for x in range(a.size))
            and all(
                mapping[a.meet(x, y)] == a.meet(mapping[x], mapping[y])
                for x in range(a.size)
                for y in range(a.size)
            )
        ]
        for a in algebras
    ]
    return [LTTopology(omega, choice) for choice in itertools.product(*levels)]


RAW_ENDOMAP_KINDS = ["set", "graph", "reflgraph", "bicolgraph", "semisimplex:1", "simplex:1"]


@pytest.mark.parametrize("kind", RAW_ENDOMAP_KINDS)
def test_brute_matches_the_raw_endomap_filter(kind, verify_topology_reference, order_algebra):
    """Reference oracle: the raw endomap filter, then naturality."""
    category = build_index_category(kind)
    omega = classifying_object(category)
    assert max(omega.level_sizes()) <= 5
    brute = enumerate_topologies(category, method="brute")
    raw = raw_endomap_candidates(omega, order_algebra)
    assert {j.levels for j in brute} == {
        j.levels for j in raw if verify_topology_reference(j) is None
    }


@pytest.mark.parametrize("family, count", [("semisimplex", 16), ("simplex", 5)])
def test_brute_matches_constrained_in_dimension_three(family, count):
    category = build_index_category(family, 3)
    brute = enumerate_topologies(category, method="brute")
    constrained = enumerate_topologies(category, method="constrained")
    assert len(brute) == count
    assert [(j.levels, j.tag) for j in brute] == [(j.levels, j.tag) for j in constrained]


BUILT_INS = [
    "set", "graph", "reflgraph", "bicolgraph", "semisimplex:1", "simplex:1",
    "semisimplex:2", "simplex:2", "semisimplex:3", "simplex:3",
]


def covering_sieve_maps(omega, order_algebra):
    """(m, j_m) for every stable choice m of one sieve index per level,
    transitive or not: j_c(S) = {f: l -> c | f*S >= m_l}, pulling S back
    along each cell and comparing in the order-derived algebra."""
    cat = omega.category
    algebras = [order_algebra(omega, p) for p in range(len(cat.objects))]
    leq = [a.leq for a in algebras]
    pos = cat.obj_index
    maps = []
    for m in itertools.product(*(range(a.size) for a in algebras)):
        if not all(
            leq[pos(g.source)](m[pos(g.source)], omega.act(g, m[pos(g.target)]))
            for g in cat.generators
        ):
            continue
        levels = []
        for c, y in zip(cat.objects, omega.yonedas):
            level = []
            for s in range(omega.level_size(c)):
                sets = {
                    l: [f for f in y.carrier(l) if leq[pos(l)](m[pos(l)], omega.act(f, s))]
                    for l in cat.objects
                }
                level.append(omega.sieve_index(Subpresheaf.from_sets(y, sets)))
            levels.append(tuple(level))
        maps.append((m, LTTopology(omega, tuple(levels))))
    return maps


def single_entry_mutations(j):
    for pos, mapping in enumerate(j.levels):
        for x, value in enumerate(mapping):
            for other in range(len(mapping)):
                if other != value:
                    levels = list(j.levels)
                    levels[pos] = mapping[:x] + (other,) + mapping[x + 1 :]
                    yield LTTopology(j.omega, tuple(levels))


def verification_candidates(order_algebra):
    """(source, candidate) pairs for the cross-check with the reference."""
    for family, dim in itertools.product(("semisimplex", "simplex"), range(4)):
        category = build_index_category(family, dim)
        omega = classifying_object(category)
        for bits in itertools.product("01", repeat=dim + 1):
            word = "".join(bits)
            levels = _bitstring_levels(omega, word)
            yield f"word {word} on {category.kind}", LTTopology(omega, levels)
    for kind in BUILT_INS:
        category = build_index_category(kind)
        methods = ["brute"] if kind == "bicolgraph" else ["brute", "constrained"]
        for method in methods:
            for j in enumerate_topologies(category, method=method):
                yield f"{method} {j.tag} on {kind}", j
                if category.dim is None or category.dim <= 2:
                    for mutated in single_entry_mutations(j):
                        yield f"mutation of {method} {j.tag} on {kind}", mutated
        if category.dim is None or category.dim <= 2:
            for _, j in covering_sieve_maps(classifying_object(category), order_algebra):
                yield f"covering-sieve map on {kind}", j
    for kind in RAW_ENDOMAP_KINDS:
        for j in raw_endomap_candidates(classifying_object(build_index_category(kind)), order_algebra):
            yield f"raw endomaps on {kind}", j


def test_verify_matches_the_axiom_by_axiom_reference(verify_topology_reference, order_algebra):
    reached = set()
    for source, j in verification_candidates(order_algebra):
        problem = verify_topology(j)
        expected = verify_topology_reference(j)
        assert (problem is None) == (expected is None), (source, j.levels, problem, expected)
        reached.add(expected and expected.kind)
    # every axiom of the reference is reached, and some candidates pass
    assert reached == {None, "true", "idempotent", "meet", "naturality"}


def test_transitivity_prune_matches_the_reference(verify_topology_reference, order_algebra):
    # a stable m is transitive, m_c <= m_c.m at every level, exactly when
    # its covering-sieve map j_m is a topology
    verdicts = set()
    for kind in BUILT_INS:
        category = build_index_category(kind)
        if category.dim is not None and category.dim > 2:
            continue
        omega = classifying_object(category)
        for m, j in covering_sieve_maps(omega, order_algebra):
            masks = [omega.packed[pos][least] for pos, least in enumerate(m)]
            transitive = all(_transitive_at(omega, masks, c) for c in range(len(m)))
            accepted = verify_topology_reference(j) is None
            assert transitive == accepted, (kind, m)
            verdicts.add(accepted)
    # some stable candidates are not transitive, so the prune is exercised
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "kind, dim, misses", [("semisimplex", 3, 64), ("simplex", 3, 20), ("bicolgraph", None, 24)]
)
def test_brute_route_builds_level_maps_only_for_topologies(kind, dim, misses):
    # stability and transitivity prune every choice that is not a topology,
    # so each level map is built once per topology and level, and the
    # final check reads them back from the cache
    category = build_index_category(kind, dim)
    _covering_map.cache_clear()
    found = enumerate_topologies(category, "brute")
    assert len(found) * len(category.objects) == misses
    assert _covering_map.cache_info().misses == misses


def test_reflgraph_word_10_is_rejected_with_a_witness():
    with pytest.raises(DegeneracyIncompatible) as err:
        construct_bitstring_topology(REFL, "10")
    assert "10" in str(err.value)
    assert "naturality" in str(err.value)


def test_degeneracy_compatibility_matches_the_word_pattern():
    for word in ("00", "01", "10", "11"):
        j = construct_bitstring_topology(GRAPH, word)
        ok, witness = degeneracy_compatible(j)
        assert ok == ("10" not in word)
        if ok:
            assert witness is None


def test_degeneracy_compatibility_witness_is_the_collapse_square():
    j = construct_bitstring_topology(GRAPH, "10")
    ok, witness = degeneracy_compatible(j)
    assert not ok
    assert witness["generator"] == degeneracy(0, 0)
    # input is the empty sieve at vertex level
    assert witness["input_sieve"].size == 0
    # one route gives the hollow edge (with its collapsed loops), the other
    # the whole edge
    hollow = witness["action_then_map"]
    full = witness["map_then_action"]
    assert full.is_full
    assert not hollow.is_full
    assert len(hollow.level_labels(0)) == 2
    assert all(not l.is_injective for l in hollow.level_labels(1))


def test_degeneracy_compatibility_on_two_dimensions():
    semi2 = build_index_category("semisimplex", 2)
    for bits in itertools.product("01", repeat=3):
        word = "".join(bits)
        j = construct_bitstring_topology(semi2, word)
        ok, _ = degeneracy_compatible(j)
        assert ok == ("10" not in word)


def test_truncation_coherence():
    # dropping the top level of a valid topology gives the lower topology
    for family in ("semisimplex", "simplex"):
        big = build_index_category(family, 3)
        small = build_index_category(family, 2)
        omega_small = classifying_object(small)
        for j in enumerate_topologies(big, method="constrained"):
            lower = construct_bitstring_topology(small, j.tag[:3])
            assert j.levels[:3] == lower.levels
            restricted = LTTopology(omega_small, j.levels[:3])
            assert verify_topology(restricted) is None


def test_equality_is_extensional_and_ignores_tags(omega_graph):
    a = construct_bitstring_topology(GRAPH, "01")
    b = LTTopology(omega_graph, a.levels, tag=None)
    assert a == b
    assert hash(a) == hash(b)
    retagged = tag_topology(b)
    assert retagged.tag == "01"


def test_topology_by_tag_and_serialization():
    j = topology_by_tag(GRAPH, "01")
    assert j == construct_bitstring_topology(GRAPH, "01") and j.tag == "01"
    bic = build_index_category("bicolgraph")
    j12 = topology_by_tag(bic, "12")
    assert j12.tag == "12"
    with pytest.raises(ValueError):
        topology_by_tag(bic, "21")


def test_bicolor_level_maps_match_the_two_tables(order_algebra):
    category = build_index_category("bicolgraph")
    omega = classifying_object(category)
    by_tag = {j.tag: j for j in enumerate_topologies(category, method="brute")}
    e_pos = category.obj_index("E")
    v_pos = category.obj_index("V")
    y_e = omega.yonedas[e_pos]
    empty_e = omega.sieve_index(Subpresheaf.empty(y_e))
    hollow_e = omega.sieve_index(Subpresheaf.from_sets(y_e, {"V": y_e.carrier("V")}))
    top_e = omega.top[e_pos]
    empty_v = omega.sieve_index(Subpresheaf.empty(omega.yonedas[v_pos]))
    top_v = omega.top[v_pos]
    # vertex-preserving labels: the hollow edge may stay or fill
    assert by_tag["00"].levels[e_pos][hollow_e] == hollow_e
    assert by_tag["01"].levels[e_pos][hollow_e] == top_e
    assert by_tag["02"].levels[e_pos][hollow_e] == hollow_e
    for tag in ("00", "01", "02", "03"):
        assert by_tag[tag].levels[v_pos][empty_v] == empty_v
        assert by_tag[tag].levels[e_pos][empty_e] == empty_e
    # vertex-filling labels: the empty edge sieve lands on a loop shape
    assert by_tag["10"].levels[e_pos][empty_e] == hollow_e
    assert by_tag["11"].levels[e_pos][empty_e] == top_e
    for tag in ("10", "11", "12", "13"):
        assert by_tag[tag].levels[v_pos][empty_v] == top_v
    # filling the vertices forces every edge sieve at least to the hollow edge
    assert all(
        order_algebra(omega, e_pos).leq(hollow_e, v)
        for v in by_tag["10"].levels[e_pos]
    )


def test_sixteen_topologies_in_dimension_three():
    semi3 = build_index_category("semisimplex", 3)
    topologies = enumerate_topologies(semi3, method="constrained")
    assert len(topologies) == 16
    assert sorted(j.tag for j in topologies) == sorted(
        "".join(bits) for bits in itertools.product("01", repeat=4)
    )
    sset3 = build_index_category("simplex", 3)
    tags = sorted(j.tag for j in enumerate_topologies(sset3, method="constrained"))
    assert tags == ["0000", "0001", "0011", "0111", "1111"]
