"""Topology verification, the constructive bit-string family, enumeration by
two independent methods, degeneracy compatibility, truncation coherence."""

import itertools

import pytest

from lttop import omega as omega_module
from lttop import topology as topology_module
from lttop.closure import is_dense_by_bits
from lttop.fincat import FAMILY_BICOLOR, FAMILY_FULL, build_index_category, degeneracy
from lttop.omega import characteristic_function, classifying_object
from lttop.presheaf import Subpresheaf, boundary
from lttop.topology import (
    BICOLOR_LABELS,
    DegeneracyIncompatible,
    LTTopology,
    _bitstring_levels,
    _closures_bits,
    _naturality_violation,
    _transitive_at,
    construct_bitstring_topology,
    degeneracy_compatible,
    enumerate_topologies,
    least_covering_sieves,
    least_sieves,
    tag_topology,
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
            bnd = omega.sieve_index(boundary(semi2, k))
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


def verification_candidates(order_algebra, bitstring_levels_reference):
    """(source, candidate) pairs for the cross-check with the reference.
    The words are built by the incidence-tuple reference, which also gives
    the non-natural maps of the words with "10" on the degeneracy side."""
    for family, dim in itertools.product(("semisimplex", "simplex"), range(4)):
        category = build_index_category(family, dim)
        omega = classifying_object(category)
        for bits in itertools.product("01", repeat=dim + 1):
            word = "".join(bits)
            levels = bitstring_levels_reference(omega, word)
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


def test_verify_matches_the_axiom_by_axiom_reference(
    verify_topology_reference, order_algebra, bitstring_levels_reference
):
    reached = set()
    for source, j in verification_candidates(order_algebra, bitstring_levels_reference):
        problem = verify_topology(j)
        expected = verify_topology_reference(j)
        assert (problem is None) == (expected is None), (source, j.levels, problem, expected)
        reached.add(expected and expected.kind)
    # every axiom of the reference is reached, and some candidates pass
    assert reached == {None, "true", "idempotent", "meet", "naturality"}


def test_transitivity_prune_matches_the_reference(
    verify_topology_reference, order_algebra, covering_sieves
):
    # a stable m is transitive, m_c <= m_c.m at every level, exactly when
    # its covering-sieve map j_m is a topology; and chi of J = up(m) is j_m,
    # level map for level map
    verdicts = set()
    for kind in BUILT_INS:
        category = build_index_category(kind)
        if category.dim is not None and category.dim > 2:
            continue
        omega = classifying_object(category)
        for m, j in covering_sieve_maps(omega, order_algebra):
            masks = [omega.packed[pos][least] for pos, least in enumerate(m)]
            J = covering_sieves(omega, masks)
            assert J.closure_violation() is None, (kind, m)
            assert characteristic_function(J, omega).components == j.levels, (kind, m)
            transitive = all(_transitive_at(omega, masks, c) for c in range(len(m)))
            accepted = verify_topology_reference(j) is None
            assert transitive == accepted, (kind, m)
            verdicts.add(accepted)
    # some stable candidates are not transitive, so the prune is exercised
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", ["semisimplex:3", "simplex:3"])
def test_covering_sieves_of_each_topology_classify_its_level_maps(kind, covering_sieves):
    # at dimension 3: the least covering sieves of each brute topology give
    # back its covering sieves, and chi of those gives back its level maps
    category = build_index_category(kind)
    omega = classifying_object(category)
    for j in enumerate_topologies(category, "brute"):
        covered = {
            c: [x for x, v in enumerate(j.level_map(c)) if v == omega.top_at(c)]
            for c in category.objects
        }
        # a filter's meet is its sieve with the least integer
        least = [omega.packed[pos][min(covered[c])] for pos, c in enumerate(category.objects)]
        J = covering_sieves(omega, least)
        assert J == Subpresheaf.from_indices(omega.as_presheaf(), covered), (kind, j.tag)
        assert characteristic_function(J, omega).components == j.levels, (kind, j.tag)


def test_unstable_covering_sieves_are_reported_with_the_failing_generator(omega_graph):
    # the vertex level covers only with the full sieve, the edge level with
    # the empty one: pulling the empty edge sieve back gives an uncovered
    # vertex sieve
    levels = (tuple(range(2)), (omega_graph.top[1],) * omega_graph.level_size(1))
    problem = verify_topology(LTTopology(omega_graph, levels))
    assert problem is not None and problem.kind == "covering"
    x, g = problem.witness
    assert problem.level == g.target == 1 and g in GRAPH.generators
    assert omega_graph.act(g, x) != omega_graph.top[0]


def boundary_tag(j):
    """The tag read off j's level maps at the boundary sieves: on a simplex
    category bit k says whether j_k sends the boundary of y(k) to top; on
    bicolored graphs the V bit says whether j_V sends the empty sieve to top
    and the digit adds 1 (2) when j_E (j_E') sends the hollow edge to top."""
    omega = j.omega
    cat = omega.category

    def covers(c, sieve):
        pos = cat.obj_index(c)
        return j.levels[pos][omega.sieve_index(sieve)] == omega.top[pos]

    if cat.family != FAMILY_BICOLOR:
        return "".join("1" if covers(c, boundary(cat, c)) else "0" for c in cat.objects)
    vertex = covers("V", Subpresheaf.empty(omega.yonedas[cat.obj_index("V")]))
    hollow = [
        covers(c, Subpresheaf.from_indices(omega.yonedas[cat.obj_index(c)], {"V": (0, 1)}))
        for c in ("E", "E'")
    ]
    return f"{vertex:d}{hollow[0] + 2 * hollow[1]}"


@pytest.mark.parametrize("kind", [k for k in BUILT_INS if k != "bicolgraph"])
def test_least_covering_sieves_are_the_density_criterion(kind):
    # a sieve S of y(k) covers under the word exactly when it is dense by
    # the bits: S >= m_k iff S is full at every dimension whose bit is 0
    category = build_index_category(kind)
    omega = classifying_object(category)
    for word in bit_strings(category):
        if category.family == FAMILY_FULL and "10" in word:
            continue
        least = least_covering_sieves(construct_bitstring_topology(category, word))
        for sieves, m in zip(omega.sieves, least):
            for S in sieves:
                assert (S.bits & m == m) == is_dense_by_bits(word, S), (kind, word, S)


@pytest.mark.parametrize("kind", BUILT_INS)
def test_least_sieves_decode_every_tag(kind):
    # the sieves read off a tag, with no Omega, are the least covering
    # sieves of the topology it tags, by both routes
    category = build_index_category(kind)
    methods = ["brute"] if category.family == FAMILY_BICOLOR else ["brute", "constrained"]
    for method in methods:
        for j in enumerate_topologies(category, method):
            assert least_sieves(category, j.tag) == least_covering_sieves(j), (method, j.tag)


@pytest.mark.parametrize("kind", BUILT_INS)
def test_every_topology_carries_its_least_covering_sieves(kind, monkeypatch):
    # a word's topology carries the decoder's m, a brute one the choice its
    # search made, and tagging keeps it: no route reads m off the level maps
    category = build_index_category(kind)
    methods = ["brute"] if category.family == FAMILY_BICOLOR else ["brute", "constrained"]
    found = {}
    with monkeypatch.context() as patch:
        patch.setattr(topology_module, "least_covering_sieves", None)
        for method in methods:
            found[method] = enumerate_topologies(category, method)
    for method, topologies in found.items():
        for j in topologies:
            assert j.least == least_sieves(category, j.tag) == least_covering_sieves(j), (
                method,
                j.tag,
            )
            assert tag_topology(j).least is j.least


@pytest.mark.parametrize("kind", ["graph", "reflgraph", "bicolgraph", "semisimplex:2", "simplex:2"])
def test_verify_reports_a_wrong_least_as_a_covering_violation(kind):
    # j_c must send exactly the sieves above m_c to top, so any other
    # sieve in place of one level of m fails at that level
    category = build_index_category(kind)
    omega = classifying_object(category)
    for j in enumerate_topologies(category):
        assert verify_topology(j) is None
        for pos, packed in enumerate(omega.packed):
            for sieve in packed:
                if sieve == j.least[pos]:
                    continue
                wrong = j.least[:pos] + (sieve,) + j.least[pos + 1 :]
                problem = verify_topology(LTTopology(omega, j.levels, j.tag, wrong))
                assert problem is not None, (j.tag, pos, sieve)
                assert (problem.kind, problem.level) == ("covering", category.objects[pos])
                x, image = problem.witness
                assert (packed[x] & sieve == sieve) != (image == omega.top[pos])


def test_least_sieves_reject_a_tag_that_names_no_topology():
    with pytest.raises(ValueError) as err:
        least_sieves(GRAPH, "0x")
    assert str(err.value) == "expected a bit string of length 2 over 0/1, got '0x'"
    bic = build_index_category("bicolgraph")
    for label in ("011", "21"):
        with pytest.raises(ValueError) as err:
            least_sieves(bic, label)
        assert str(err.value) == (
            f"no topology labelled {label!r}; known labels: "
            "('00', '01', '02', '03', '10', '11', '12', '13')"
        )
    # "10" on the degeneracy side: the error construction raises, square and all
    with pytest.raises(DegeneracyIncompatible) as decoded:
        least_sieves(REFL, "10")
    with pytest.raises(DegeneracyIncompatible) as built:
        construct_bitstring_topology(REFL, "10")
    assert decoded.value.witness is not None
    assert str(decoded.value) == str(built.value)
    assert "naturality square for (0,0) fails" in str(decoded.value)


def test_least_covering_sieves_of_the_bicolored_labels():
    # label vd, read off the level maps: m_V is empty iff v = 1, and m_E
    # (m_E') is proper iff the E (E') bit of d is set
    category = build_index_category("bicolgraph")
    omega = classifying_object(category)
    full = {c: omega.packed[pos][-1] for pos, c in enumerate(category.objects)}
    found = enumerate_topologies(category)
    assert sorted(boundary_tag(j) for j in found) == sorted(BICOLOR_LABELS)
    for j in found:
        m = dict(zip(category.objects, least_covering_sieves(j)))
        label = boundary_tag(j)
        v, d = int(label[0]), int(label[1])
        assert (m["V"] == 0) == (v == 1), label
        assert (m["E"] != full["E"]) == bool(d & 1), label
        assert (m["E'"] != full["E'"]) == bool(d & 2), label


@pytest.mark.parametrize("kind", BUILT_INS)
def test_tags_read_off_m_match_the_boundary_reading(kind):
    for j in enumerate_topologies(build_index_category(kind), "brute"):
        untagged = LTTopology(j.omega, j.levels)
        assert tag_topology(untagged).tag == boundary_tag(j), (kind, j.levels)


@pytest.mark.parametrize(
    "kind, dim, calls", [("semisimplex", 3, 16), ("simplex", 3, 5), ("bicolgraph", None, 8)]
)
def test_brute_route_builds_level_maps_only_for_topologies(kind, dim, calls, monkeypatch):
    # stability and transitivity prune every choice that is not a topology,
    # so the chi kernel reads the level maps of every complete choice in one
    # call per level, and each choice gets one check, which passes and reads
    # Omega's tables only
    category = build_index_category(kind, dim)
    kernel = []
    verified = []

    def counting_closures(leasts, A, bits, lanes=1):
        kernel.append(len(leasts))
        return _closures_bits(leasts, A, bits, lanes)

    def counting_verify(j):
        verified.append(j)
        return verify_topology(j)

    monkeypatch.setattr(topology_module, "_closures_bits", counting_closures)
    monkeypatch.setattr(topology_module, "verify_topology", counting_verify)
    found = enumerate_topologies(category, "brute")
    assert kernel == [len(found)] * len(category.objects)
    assert len(verified) == len(found) == calls


def bit_strings(category):
    return ["".join(bits) for bits in itertools.product("01", repeat=category.dim + 1)]


def test_closed_sieves_match_the_incidence_tuple_reference(bitstring_levels_reference):
    # the level maps read off the recursive closure equal the ones forced
    # through Omega's incidence tuples on every word that is a topology
    for family, dim in itertools.product(("semisimplex", "simplex"), range(4)):
        category = build_index_category(family, dim)
        omega = classifying_object(category)
        for word in bit_strings(category):
            if family == "simplex" and "10" in word:
                continue
            assert _bitstring_levels(omega, word) == bitstring_levels_reference(omega, word), (
                category.kind, word,
            )
    # the words with "10" are rejected with the square the reference maps fail
    checked = 0
    for kind in ("reflgraph", "simplex:2", "simplex:3"):
        category = build_index_category(kind)
        omega = classifying_object(category)
        for word in bit_strings(category):
            if "10" not in word:
                continue
            reference = bitstring_levels_reference(omega, word)
            square = _naturality_violation(omega, reference, category.generators)
            with pytest.raises(DegeneracyIncompatible) as err:
                construct_bitstring_topology(category, word)
            assert square is not None
            assert err.value.witness == square, (kind, word)
            assert str(err.value) == str(DegeneracyIncompatible(word, square))
            checked += 1
    assert checked == 1 + 4 + 11


@pytest.mark.parametrize("kind, words", [("reflgraph", 1), ("simplex:2", 4), ("simplex:3", 11)])
def test_verify_names_the_degeneracy_square_of_each_10_word(
    kind, words, bitstring_levels_reference
):
    # the reference maps of a word with "10" fail naturality, and the check
    # names the generator and input sieve of the rejection's witness
    category = build_index_category(kind)
    omega = classifying_object(category)
    rejected = [w for w in bit_strings(category) if "10" in w]
    for word in rejected:
        problem = verify_topology(LTTopology(omega, bitstring_levels_reference(omega, word)))
        with pytest.raises(DegeneracyIncompatible) as err:
            construct_bitstring_topology(category, word)
        square = err.value.witness
        assert problem is not None and problem.kind == "covering", (kind, word, problem)
        x, g = problem.witness
        assert problem.level == g.target and g == square["generator"], (kind, word)
        assert omega.sieves[category.obj_index(g.target)][x] == square["input_sieve"], (kind, word)
    assert len(rejected) == words


def omega_orbit_tables(method, kinds):
    """The categories among ``kinds`` whose Omega gets an orbit table when
    their topologies are enumerated by ``method`` from a cold Omega cache."""
    classifying_object.cache_clear()
    built = []
    for kind in kinds:
        category = build_index_category(kind)
        enumerate_topologies(category, method)
        if classifying_object(category).as_presheaf()._orbit_cache is not None:
            built.append(kind)
    return built


SIMPLEX_UP_TO_3 = [f"{family}:{dim}" for family in ("semisimplex", "simplex") for dim in range(4)]


def test_constrained_route_builds_no_omega_orbit_table():
    # the check reads Omega's generator tables, never its orbit table
    assert omega_orbit_tables("constrained", SIMPLEX_UP_TO_3) == []


def test_brute_route_builds_no_omega_orbit_table():
    # the level maps are read through the chi kernel on the representables,
    # not as chi of up(m) over Omega's orbit table
    assert omega_orbit_tables("brute", SIMPLEX_UP_TO_3 + ["bicolgraph"]) == []


@pytest.fixture
def lifted_sieve_bound(monkeypatch):
    """Lifts the sieve bound so Omega builds at dimension 4, and drops every
    cached Omega afterwards, with the tables it holds, so no later test
    meets a dimension-4 Omega that was built past the bound."""
    monkeypatch.setattr(omega_module, "DEFAULT_SIEVE_BOUND", 7580)
    yield
    classifying_object.cache_clear()


@pytest.mark.parametrize("family, words", [("semisimplex", 32), ("simplex", 6)])
def test_closed_sieves_match_the_reference_in_dimension_four(
    family, words, lifted_sieve_bound, bitstring_levels_reference
):
    category = build_index_category(family, 4)
    omega = classifying_object(category)
    assert omega.level_sizes() == (2, 5, 19, 167, 7580)
    valid = [w for w in bit_strings(category) if family == "semisimplex" or "10" not in w]
    assert len(valid) == words
    for word in valid:
        assert _bitstring_levels(omega, word) == bitstring_levels_reference(omega, word), word


def test_dimension_four_topologies_verify_and_brute_agrees(lifted_sieve_bound):
    # every constrained topology passes, a one-entry change at level 4
    # fails, and the brute route finds the same maps and tags
    for kind, count in (("semisimplex:4", 32), ("simplex:4", 6)):
        category = build_index_category(kind)
        omega = classifying_object(category)
        top = omega.top[4]
        found = enumerate_topologies(category, "constrained")
        assert len(found) == count
        for j in found:
            assert verify_topology(j) is None, (kind, j.tag)
            level = list(j.levels[4])
            level[0] = 0 if level[0] == top else top
            mutated = LTTopology(omega, j.levels[:4] + (tuple(level),))
            assert verify_topology(mutated) is not None, (kind, j.tag)
        brute = enumerate_topologies(category, "brute")
        assert [j.levels for j in brute] == [j.levels for j in found], kind
        assert [j.tag for j in brute] == [j.tag for j in found], kind
        for j in (*found, *brute):
            least = least_sieves(category, j.tag)
            assert j.least == least == least_covering_sieves(j), (kind, j.tag)


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


def test_equal_topologies_over_different_categories_hash_alike():
    # Omega of set and of simplex:0 is the same two-element chain, so their
    # identity topologies have equal level maps and compare equal
    a = identity_topology(classifying_object(build_index_category("set")))
    c = identity_topology(classifying_object(build_index_category("simplex:0")))
    assert a.omega is not c.omega
    assert a == c and hash(a) == hash(c)
    assert len({a, c}) == 1


def test_topology_by_tag_and_serialization():
    # a tag names its topology: the sieves decoded from it are the ones
    # read off that topology's level maps
    j = construct_bitstring_topology(GRAPH, "01")
    assert j.tag == "01"
    assert least_sieves(GRAPH, "01") == least_covering_sieves(j)
    bic = build_index_category("bicolgraph")
    (j12,) = [j for j in enumerate_topologies(bic) if j.tag == "12"]
    assert least_sieves(bic, "12") == least_covering_sieves(j12)


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
