"""Fixtures shared across test modules."""

import itertools
from functools import lru_cache

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
from lttop.closure import FactorizationReport, is_dense_via_closure
from lttop.fincat import face
from lttop.lattice import FiniteHeytingAlgebra
from lttop.presheaf import (
    EnumerationBoundExceeded,
    FinitePresheaf,
    Subpresheaf,
    boundary,
    enumerate_morphisms,
    enumerate_subpresheaves,
    morphism_search,
    yoneda,
)
from lttop.topology import TopologyViolation


def _sieve_pullback(category, u, sieve):
    """The sieve { g | u o g in S } on u.source, for S a sieve on u.target,
    computed by composing morphisms: the reference for Omega's actions."""
    y_src = yoneda(category, u.source)
    sets = {}
    for l in category.objects:
        members = set(sieve.level_labels(l))
        sets[l] = [
            i for i, g in enumerate(y_src.carrier(l)) if category.compose(u, g) in members
        ]
    return Subpresheaf.from_indices(y_src, sets)


@pytest.fixture(scope="session")
def sieve_pullback():
    return _sieve_pullback


def _verify_qclosure(op, L, max_carrier=DEFAULT_FUZZY_CARRIER):
    """The five closure-operator axioms checked directly on ``FuzzySubset``
    objects over every fuzzy set with at most ``max_carrier`` elements
    (pairs and squares on at most two): the reference for
    ``verify_qclosure``, which visits the one-element sets only."""
    corpus = fuzzy_corpus(L, max_carrier)
    small = [A for A in corpus if A.size <= 2]
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


def _boundary_tuples(B, k):
    """Incidence tuples (x_k, ..., x_0) of every morphism from the hollow
    k-simplex into B, found by the morphism search over the boundary's
    cells in y(k): the reference for ``closure.boundary_tuples``."""
    hollow = boundary(B.category, k)
    yk = hollow.presheaf
    pos = B.category.obj_index(k - 1)
    facets = [yk.bit_offsets()[pos] + yk.label_index(k - 1, face(k, i)) for i in range(k, -1, -1)]
    offset = B.bit_offsets()[pos]
    image = [None] * yk.total_size
    tuples = set()
    for _ in morphism_search(yk, B, hollow.bits)(image):
        tuples.add(tuple(image[p] - offset for p in facets))
    return tuples


def _is_boundary_tuple(B, k, tup):
    """Whether some morphism from the hollow k-simplex sends its i-th facet
    to the entry of ``tup`` for x_i."""
    return tup in _boundary_tuples(B, k)


@pytest.fixture(scope="session")
def boundary_tuples_reference():
    """(all tuples, membership test) by boundary-morphism enumeration."""
    return _boundary_tuples, _is_boundary_tuple


def _restricted_presheaf(sub):
    """A subpresheaf materialized as a presheaf on its own cells, in
    ``level_indices`` order."""
    ambient = sub.presheaf
    cat = ambient.category
    chosen = {c: sub.level_indices(c) for c in cat.objects}
    new_index = {c: {x: i for i, x in enumerate(chosen[c])} for c in cat.objects}
    carriers = {c: tuple(ambient.carrier(c)[x] for x in chosen[c]) for c in cat.objects}
    gen_actions = {
        g: tuple(new_index[g.source][ambient.act(g, x)] for x in chosen[g.target])
        for g in cat.generators
    }
    return FinitePresheaf(cat, carriers, gen_actions, validate=False)


def _factorization_check(B, j, ambients):
    """Separated and complete by listing every morphism A -> B, keying it
    by its restriction to each dense proper subobject s, and looking up
    every morphism out of s materialized as a presheaf: the reference for
    ``closure.factorization_check``, which extends maps out of s."""
    sep_witness = None
    comp_witness = None
    for A in ambients:
        dense = [
            (s, tuple(s.level_indices(c) for c in A.category.objects))
            for s in enumerate_subpresheaves(A)
            if not s.is_full and is_dense_via_closure(j, s)
        ]
        if not dense:
            continue
        extensions = {}
        for g in enumerate_morphisms(A, B):
            for s, kept in dense:
                key = tuple(
                    tuple(map(component.__getitem__, cells))
                    for component, cells in zip(g.components, kept)
                )
                extensions.setdefault(s.bits, {}).setdefault(key, []).append(g)
        for s, _ in dense:
            table = extensions.get(s.bits, {})
            if sep_witness is None:
                for key, gs in table.items():
                    if len(gs) > 1:
                        sep_witness = (A, s, key, tuple(gs[:2]))
                        break
            if comp_witness is None:
                for f in enumerate_morphisms(_restricted_presheaf(s), B):
                    if f.components not in table:
                        comp_witness = (A, s, f.components)
                        break
        if sep_witness is not None and comp_witness is not None:
            break
    return FactorizationReport(
        separated=sep_witness is None,
        complete=comp_witness is None,
        separated_witness=sep_witness,
        complete_witness=comp_witness,
    )


@pytest.fixture(scope="session")
def factorization_reference():
    return _factorization_check


def _composable_pairs(category):
    """Every (f, g) with f: a -> b and g: b -> c."""
    objects = category.objects
    for a, b, c in itertools.product(objects, repeat=3):
        for f in category.hom(a, b):
            for g in category.hom(b, c):
                yield f, g


def _law_violation(category):
    """None if identities, closure under composition and associativity
    hold for every composable pair (and triple), else a witness."""
    for a, b in itertools.product(category.objects, repeat=2):
        for f in category.hom(a, b):
            if category.compose(f, category.identity(a)) != f:
                return ("identity", f)
            if category.compose(category.identity(b), f) != f:
                return ("identity", f)
    for f, g in _composable_pairs(category):
        gf = category.compose(g, f)
        if gf not in category.hom(f.source, g.target):
            return ("closure", (f, g))
        for d in category.objects:
            for h in category.hom(g.target, d):
                if category.compose(h, gf) != category.compose(category.compose(h, g), f):
                    return ("associativity", (f, g, h))
    return None


@pytest.fixture(scope="session")
def category_law_violation():
    return _law_violation


@lru_cache(maxsize=None)
def _composable_triples(category):
    return tuple((f, g, category.compose(g, f)) for f, g in _composable_pairs(category))


def _functoriality_violation(P):
    """X(g o f) = X(f) . X(g) over every composable pair (f, g) of the
    category, composites computed once per category: the reference for
    ``FinitePresheaf.functoriality_violation``, which checks generators."""
    for f, g, gf in _composable_triples(P.category):
        table_f = P.action_table(f)
        if P.action_table(gf) != tuple(map(table_f.__getitem__, P.action_table(g))):
            return (f, g, gf)
    return None


@pytest.fixture(scope="session")
def functoriality_reference():
    return _functoriality_violation


@lru_cache(maxsize=None)
def _order_algebra(omega, pos):
    """The sieves of level ``pos`` of Omega as a FiniteHeytingAlgebra whose
    order is ``Subpresheaf.leq``, with meet, join and implication derived
    from that order alone: the reference for the packed-mask lattice
    operations of ``OmegaObject``."""
    level = omega.sieves[pos]
    return FiniteHeytingAlgebra.from_leq(lambda a, b: level[a].leq(level[b]), len(level))


@pytest.fixture(scope="session")
def order_algebra():
    return _order_algebra


def _hasse_covers(algebra):
    """Sorted (lower, upper) pairs with nothing strictly between, found by
    testing every third element: the O(n^3) reference for
    ``omega.hasse_covers``."""
    covers = []
    for a in algebra.elements():
        for b in algebra.elements():
            if a == b or not algebra.leq(a, b):
                continue
            if any(
                c not in (a, b) and algebra.leq(a, c) and algebra.leq(c, b)
                for c in algebra.elements()
            ):
                continue
            covers.append((a, b))
    return sorted(covers)


@pytest.fixture(scope="session")
def hasse_covers_reference():
    return _hasse_covers


def _level_masks(presheaf, sets):
    """Per-level index sets as a tuple of per-level masks, level 0 first:
    the order ``enumerate_subpresheaves`` must list subpresheaves in, which
    fixes the sieve numbering of Omega."""
    return tuple(sum(1 << i for i in set(sets.get(c, ()))) for c in presheaf.category.objects)


def _subpresheaf_sets(presheaf, bound=300):
    """All action-closed level-wise subsets as {object: sorted indices},
    sorted by their per-level masks, by branch-and-propagate over the
    element inclusion constraints: choosing an element forces its whole
    generator orbit in, excluding one forces everything mapping onto it
    out."""
    total = presheaf.total_size
    if total > bound:
        raise EnumerationBoundExceeded(total, bound)
    cat = presheaf.category
    elements = []
    position = {}
    for c, i in presheaf.elements():
        position[(c, i)] = len(elements)
        elements.append((c, i))
    succ = [set() for _ in elements]
    pred = [set() for _ in elements]
    for g in cat.generators:
        table = presheaf.action_table(g)
        for x in range(len(presheaf.carrier(g.target))):
            e = position[(g.target, x)]
            e2 = position[(g.source, table[x])]
            if e != e2:
                succ[e].add(e2)
                pred[e2].add(e)

    UNDECIDED, IN, OUT = 0, 1, 2
    results = []

    def propagate(state, seed, value):
        stack = [seed]
        trail = []
        while stack:
            e = stack.pop()
            if state[e] == value:
                continue
            if state[e] != UNDECIDED:
                for t in trail:
                    state[t] = UNDECIDED
                return None
            state[e] = value
            trail.append(e)
            stack.extend(succ[e] if value == IN else pred[e])
        return trail

    def undo(state, trail):
        for e in trail:
            state[e] = UNDECIDED

    def search(state, cursor):
        while cursor < len(elements) and state[cursor] != UNDECIDED:
            cursor += 1
        if cursor == len(elements):
            results.append(tuple(state))
            return
        for value in (OUT, IN):
            trail = propagate(state, cursor, value)
            if trail is not None:
                search(state, cursor + 1)
                undo(state, trail)

    search([UNDECIDED] * len(elements), 0)

    found = []
    for state in results:
        sets = {c: [] for c in cat.objects}
        for e, (c, i) in enumerate(elements):
            if state[e] == IN:
                sets[c].append(i)
        found.append(sets)
    found.sort(key=lambda sets: _level_masks(presheaf, sets))
    return found


def _subpresheaves(presheaf, bound=300):
    """The subpresheaves of ``_subpresheaf_sets``, made at the end through
    ``from_indices``: the reference for ``enumerate_subpresheaves``, which
    joins principal subpresheaves."""
    return tuple(
        Subpresheaf.from_indices(presheaf, sets) for sets in _subpresheaf_sets(presheaf, bound)
    )


@pytest.fixture(scope="session")
def subpresheaves_reference():
    return _subpresheaves


@pytest.fixture(scope="session")
def subpresheaf_sets_reference():
    return _subpresheaf_sets


@pytest.fixture(scope="session")
def level_masks():
    return _level_masks


def _generated(presheaf, seeds):
    """Least subpresheaf containing ``seeds``, by a depth-first walk along
    generator actions: the reference for ``generated_subpresheaf``."""
    cat = presheaf.category
    sets = {c: set() for c in cat.objects}
    stack = list(seeds)
    while stack:
        c, x = stack.pop()
        if x in sets[c]:
            continue
        sets[c].add(x)
        for g in cat.generators:
            if g.target == c:
                stack.append((g.source, presheaf.act(g, x)))
    return Subpresheaf.from_indices(presheaf, sets)


@pytest.fixture(scope="session")
def generated_reference():
    return _generated


def _verify_topology(j):
    """The three axioms plus naturality checked one by one: top is fixed,
    each level map is idempotent and preserves every meet, and every
    generator square commutes.  The reference for ``verify_topology``,
    which reads topologies off their least covering sieves."""
    omega = j.omega
    cat = omega.category
    for c in cat.objects:
        pos = cat.obj_index(c)
        mapping = j.levels[pos]
        algebra = _order_algebra(omega, pos)
        if mapping[algebra.top] != algebra.top:
            return TopologyViolation("true", c, (algebra.top, mapping[algebra.top]))
        for x in range(algebra.size):
            if mapping[mapping[x]] != mapping[x]:
                return TopologyViolation("idempotent", c, (x,))
        for x in range(algebra.size):
            for y in range(algebra.size):
                lhs = mapping[algebra.meet(x, y)]
                rhs = algebra.meet(mapping[x], mapping[y])
                if lhs != rhs:
                    return TopologyViolation("meet", c, (x, y, lhs, rhs))
    for g in cat.generators:
        src = cat.obj_index(g.source)
        tgt = cat.obj_index(g.target)
        table = omega.action_table(g)
        for x in range(len(table)):
            lhs = j.levels[src][table[x]]
            rhs = table[j.levels[tgt][x]]
            if lhs != rhs:
                return TopologyViolation("naturality", g, (x, lhs, rhs))
    return None


@pytest.fixture(scope="session")
def verify_topology_reference():
    return _verify_topology
