"""Topology verification, the constructive bit-string family, enumeration by
two independent methods, degeneracy compatibility, truncation coherence."""

import itertools

import pytest

from lttop.fincat import build_index_category, degeneracy
from lttop.omega import classifying_object
from lttop.topology import (
    DegeneracyIncompatible,
    LTTopology,
    construct_bitstring_topology,
    degeneracy_compatible,
    enumerate_topologies,
    tag_topology,
    topology_by_tag,
    topology_from_doc,
    topology_to_doc,
    verify_topology,
)

GRAPH = build_index_category("graph")
REFL = build_index_category("reflgraph")


@pytest.fixture(scope="module")
def omega_graph():
    return classifying_object(GRAPH)


def identity_topology(omega):
    return LTTopology(omega, tuple(tuple(range(a.size)) for a in omega.algebras))


def constant_top_topology(omega):
    return LTTopology(omega, tuple((a.top,) * a.size for a in omega.algebras))


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
    assert problem is not None


def test_all_zero_word_gives_the_identity(omega_graph):
    j = construct_bitstring_topology(GRAPH, "00")
    assert j.levels == identity_topology(omega_graph).levels
    semi2 = build_index_category("semisimplex", 2)
    j2 = construct_bitstring_topology(semi2, "000")
    assert j2.levels == tuple(tuple(range(a.size)) for a in classifying_object(semi2).algebras)


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


def raw_endomap_topologies(omega):
    """Reference oracle: filter every tuple of per-level endomaps."""
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
        for a in omega.algebras
    ]
    candidates = (LTTopology(omega, choice) for choice in itertools.product(*levels))
    return {j.levels for j in candidates if verify_topology(j) is None}


@pytest.mark.parametrize(
    "kind", ["set", "graph", "reflgraph", "bicolgraph", "semisimplex:1", "simplex:1"]
)
def test_brute_matches_the_raw_endomap_filter(kind):
    category = build_index_category(kind)
    omega = classifying_object(category)
    assert max(omega.level_sizes()) <= 5
    brute = enumerate_topologies(category, method="brute")
    assert {j.levels for j in brute} == raw_endomap_topologies(omega)


@pytest.mark.parametrize("family, count", [("semisimplex", 16), ("simplex", 5)])
def test_brute_matches_constrained_in_dimension_three(family, count):
    category = build_index_category(family, 3)
    brute = enumerate_topologies(category, method="brute")
    constrained = enumerate_topologies(category, method="constrained")
    assert len(brute) == count
    assert [(j.levels, j.tag) for j in brute] == [(j.levels, j.tag) for j in constrained]


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
    doc = topology_to_doc(j)
    back = topology_from_doc(doc)
    assert back == j and back.tag == "01"
    bic = build_index_category("bicolgraph")
    j12 = topology_by_tag(bic, "12")
    assert j12.tag == "12"
    doc = topology_to_doc(j12)
    assert topology_from_doc(doc) == j12
    with pytest.raises(ValueError):
        topology_by_tag(bic, "21")


def test_bicolor_level_maps_match_the_two_tables():
    category = build_index_category("bicolgraph")
    omega = classifying_object(category)
    by_tag = {j.tag: j for j in enumerate_topologies(category, method="brute")}
    empty_e = omega.index_of_masks("E", (0, 0, 0))
    hollow_e = omega.index_of_masks("E", (3, 0, 0))
    top_e = omega.top[category.obj_index("E")]
    empty_v = omega.index_of_masks("V", (0, 0, 0))
    top_v = omega.top[category.obj_index("V")]
    e_pos = category.obj_index("E")
    v_pos = category.obj_index("V")
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
        omega.algebras[e_pos].leq(hollow_e, v)
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
