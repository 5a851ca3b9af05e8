"""Fixtures shared across test modules."""

import itertools
from contextlib import closing
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
from lttop import closure
from lttop.closure import (
    CorpusTooLarge,
    FactorizationReport,
    is_dense_via_closure,
    presheaf_corpus,
)
from lttop.fincat import FAMILY_FULL, FAMILY_SEMI, face
from lttop.lattice import FiniteHeytingAlgebra
from lttop.presheaf import (
    EnumerationBoundExceeded,
    FinitePresheaf,
    FunctorialityError,
    PresheafMorphism,
    Subpresheaf,
    boundary,
    components_of,
    enumerate_morphisms,
    enumerate_subpresheaves,
    morphism_search,
    parallel_cells,
    yoneda,
)
from lttop.topology import TopologyViolation, _check_word, least_covering_sieves


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
    """Separated and complete by listing every morphism A -> B, for every
    ambient A, keying it by its restriction to each dense proper subobject
    s, and looking up every morphism out of s materialized as a presheaf:
    the reference for ``closure.factorization_check``, which extends maps
    out of the dense sieves of the representables alone."""
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


def _extension_factorization_check(B, j):
    """Separated and complete by extending every map out of each dense
    proper sieve S on c along S -> y(c) with a second Yoneda search, over
    y(c)'s cells outside S, stopping at two extensions: the reference for
    ``closure.factorization_checks``, which looks the extensions up among
    the cells of B(c) keyed by their restriction to S.  Its separated pair
    is the first two extensions that search finds."""
    budget = closure.DEFAULT_SEARCH_BUDGET
    omega = j.omega
    sep_witness = None
    comp_witness = None
    for yc, sieves, packed, m in zip(
        omega.yonedas, omega.sieves, omega.packed, least_covering_sieves(j)
    ):
        count = 0
        full = packed[-1]
        for S, bits in zip(sieves[:-1], packed):
            if bits & m != m:
                continue
            restrict = morphism_search(yc, B, bits)
            extend = morphism_search(yc, B, full & ~bits)
            image = [None] * yc.total_size
            for _ in restrict(image):
                count += 1
                if count > budget:
                    message = f"more than {budget} morphisms from dense sieves of {yc} to {B}"
                    raise CorpusTooLarge(message, count, budget)
                with closing(extend(image)) as search:
                    extensions = [tuple(image) for _ in itertools.islice(search, 2)]
                if len(extensions) == 1:
                    continue
                if not extensions and comp_witness is None:
                    comp_witness = (yc, S, components_of(yc, B, image, bits))
                elif len(extensions) == 2 and sep_witness is None:
                    g1, g2 = (
                        PresheafMorphism(yc, B, components_of(yc, B, g, full)) for g in extensions
                    )
                    sep_witness = (yc, S, components_of(yc, B, image, bits), (g1, g2))
                if sep_witness is not None and comp_witness is not None:
                    return FactorizationReport(False, False, sep_witness, comp_witness)
    return FactorizationReport(
        separated=sep_witness is None,
        complete=comp_witness is None,
        separated_witness=sep_witness,
        complete_witness=comp_witness,
    )


@pytest.fixture(scope="session")
def extension_factorization_reference():
    return _extension_factorization_check


def _closure_bits(least, A, bits, lanes=1):
    """The closures of subobjects of A, one per lane, ANDing over every
    orbit position of m_c: the reference for ``topology._closures_bits``,
    which ANDs over the positions of a generating set of m_c only."""
    closed = 0
    for rows, offset, m in zip(A.level_orbits(), A.bit_offsets(), least):
        for x, orbit in enumerate(rows):
            if not x:
                # the orbit lists y(c)'s cells from its highest bit down
                top = len(orbit) - 1
                chosen = [top - b for b in range(m.bit_length()) if m >> b & 1]
            keep = lanes
            for i in chosen:
                keep &= bits >> orbit[i]
            closed |= keep << offset + x
    return closed


@pytest.fixture(scope="session")
def closure_bits_reference():
    return _closure_bits


def _covering_sieves(omega, least):
    """J = up(m) as a subobject of Omega: every sieve above its level's
    least covering sieve m_c, given each m_c as an integer."""
    Omega = omega.as_presheaf()
    bits = 0
    for offset, packed, m in zip(Omega.bit_offsets(), omega.packed, least):
        for s, sieve in enumerate(packed):
            if sieve & m == m:
                bits |= 1 << offset + s
    return Subpresheaf(Omega, bits)


@pytest.fixture(scope="session")
def covering_sieves():
    """J = up(m) as a subobject of Omega, whose chi is the reference for the
    level maps the brute route reads through ``topology._closures_bits``."""
    return _covering_sieves


def _canonical_key(category, sizes, tables):
    """The sizes and the least generator-table tuple over every product of
    per-level permutations: the isomorphism-class key that the orderly
    ``closure._is_least`` replaces."""
    perms = [list(itertools.permutations(range(s))) for s in sizes]
    best = None
    for combo in itertools.product(*perms):
        renamed = []
        for g, table in zip(category.generators, tables):
            src = category.obj_index(g.source)
            tgt = category.obj_index(g.target)
            inv_tgt = combo[tgt]
            new = [None] * len(table)
            for x, v in enumerate(table):
                new[inv_tgt[x]] = combo[src][v]
            renamed.append(tuple(new))
        key = tuple(renamed)
        if best is None or key < best:
            best = key
    return sizes, best


def _presheaf_key(P):
    sizes = tuple(len(level) for level in P.carriers)
    tables = tuple(P.action_table(g) for g in P.category.generators)
    return _canonical_key(P.category, sizes, tables)


@pytest.fixture(scope="session")
def canonical_key():
    """The canonical key of a presheaf's generator tables."""
    return _presheaf_key


@lru_cache(maxsize=None)
def _raw_corpus(category, max_total):
    """Every presheaf with at most ``max_total`` elements, isomorphs
    included: every product of generator tables per size vector, kept when
    ``FinitePresheaf`` validates it.  Ordered like ``presheaf_corpus``: by
    total size and size vector, then tables in lexicographic order."""
    corpus = []
    for sizes in itertools.product(range(max_total + 1), repeat=len(category.objects)):
        if sum(sizes) > max_total:
            continue
        carriers = {c: tuple(range(n)) for c, n in zip(category.objects, sizes)}
        choices = [
            itertools.product(
                range(sizes[category.obj_index(g.source)]),
                repeat=sizes[category.obj_index(g.target)],
            )
            for g in category.generators
        ]
        for tables in itertools.product(*choices):
            try:
                corpus.append(
                    FinitePresheaf(category, carriers, dict(zip(category.generators, tables)))
                )
            except FunctorialityError:
                pass
    corpus.sort(key=lambda P: (P.total_size, tuple(len(l) for l in P.carriers)))
    return tuple(corpus)


@pytest.fixture(scope="session")
def raw_corpus():
    return _raw_corpus


@lru_cache(maxsize=None)
def _keyed_corpus(category, max_total):
    """The raw corpus, keeping the first presheaf of each canonical key:
    the reference for ``presheaf_corpus``, whose orderly test keeps the
    same member of each class in the same order."""
    seen = set()
    corpus = []
    for P in _raw_corpus(category, max_total):
        key = _presheaf_key(P)
        if key not in seen:
            seen.add(key)
            corpus.append(P)
    return tuple(corpus)


@pytest.fixture(scope="session")
def corpus_reference():
    return _keyed_corpus


def _is_least_reference(category, sizes, tables):
    """Whether no per-level renaming sends ``tables`` to a table tuple that
    sorts before it.

    Renaming level c by a permutation p_c sends the table t of a generator
    g: a -> b to t' with t'[p_b[x]] = p_a[t[x]].  The search fixes a
    renaming one entry of t' at a time, in the order the tuple sorts by:
    for position i of b it tries each cell x not yet named (unless one
    already holds name i), and names t[x] with the least name still free on
    a if it has none, since any other would sort later.  It stops at the
    first entry below the candidate's and drops a branch at the first entry
    above it, so only renamings that tie so far are extended.

    The whole search reruns from the empty naming on each call: the
    reference for ``closure._is_least``, which folds the per-table step of
    the orderly corpus search over the tables.
    """
    ends = [
        (category.obj_index(g.source), category.obj_index(g.target)) for g in category.generators
    ]
    name = [[None] * n for n in sizes]  # per level: cell -> new name
    cell = [[None] * n for n in sizes]  # per level: new name -> cell
    given = [0] * len(sizes)  # per level: names 0 .. given - 1 are taken

    def take(level, x):
        name[level][x] = given[level]
        cell[level][given[level]] = x
        given[level] += 1

    def drop(level, x):
        given[level] -= 1
        cell[level][given[level]] = name[level][x] = None

    def beaten(pos, i):
        # entries before position i of table pos tie with the candidate's
        while pos < len(tables) and i == len(tables[pos]):
            pos, i = pos + 1, 0
        if pos == len(tables):
            return False
        tgt = ends[pos][1]
        if cell[tgt][i] is not None:
            return lands(pos, i, cell[tgt][i])
        for x in range(sizes[tgt]):
            if name[tgt][x] is None:
                take(tgt, x)  # names are taken in order, so x gets name i
                hit = lands(pos, i, x)
                drop(tgt, x)
                if hit:
                    return True
        return False

    def lands(pos, i, x):
        # entry i of the renamed table pos, with cell x on position i
        src = ends[pos][0]
        y = tables[pos][x]
        want = tables[pos][i]
        new = name[src][y]
        if new is None:
            new = given[src]
            if new != want:
                return new < want
            take(src, y)
            hit = beaten(pos, i + 1)
            drop(src, y)
            return hit
        return new < want if new != want else beaten(pos, i + 1)

    return not beaten(0, 0)


@pytest.fixture(scope="session")
def is_least_reference():
    return _is_least_reference


def _reference_ambients(category, max_total):
    """The corpus up to ``max_total`` elements plus every Yoneda object: the
    ambients of the key-table factorization reference."""
    ambients = list(presheaf_corpus(category, max_total))
    for c in category.objects:
        yc = yoneda(category, c)
        if yc not in ambients:
            ambients.append(yc)
    return tuple(ambients)


@pytest.fixture(scope="session")
def reference_ambients():
    return _reference_ambients


def _closure_recursive(word, sub):
    """Copy a level on bit 0; on bit 1 fill every cell whose k + 1 faces,
    read off the face tables, lie in the closed level below: the reference
    for ``closure_recursive``, which reads each level's coface masks."""
    A = sub.presheaf
    cat = A.category
    if cat.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError("the recursive closure needs a simplex category")
    _check_word(cat, word)
    offsets = A.bit_offsets()
    bits = sub.bits
    for k in cat.objects:
        if word[k] == "0":
            continue
        size = len(A.carrier(k))
        filled = (1 << size) - 1  # level 0 fills completely
        if k > 0:
            tables = [A.action_table(face(k, i)) for i in range(k + 1)]
            below = offsets[k - 1]
            filled = 0
            for x in range(size):
                if all(bits >> below + t[x] & 1 for t in tables):
                    filled |= 1 << x
        bits = bits & ~((1 << size) - 1 << offsets[k]) | filled << offsets[k]
    return Subpresheaf(A, bits)


@pytest.fixture(scope="session")
def closure_recursive_reference():
    return _closure_recursive


def _base_level_map(omega, bit):
    size = len(omega.sieves[0])
    if size != 2:
        raise RuntimeError("level 0 of Omega should always be the two-element chain")
    if bit:
        return (omega.top[0],) * size
    return tuple(range(size))


def _extend_level_map(omega, k, lower, bit):
    """The unique level-k map extending ``lower`` with the given bit."""
    pos = omega.category.obj_index(k)
    size = omega.level_size(k)
    top = omega.top[pos]
    bnd = omega.sieve_index(boundary(omega.category, k))
    top_below = omega.top[omega.category.obj_index(k - 1)]
    all_top = tuple(top_below for _ in range(k + 1))
    tables = [omega.action_table(face(k, i)) for i in range(k, -1, -1)]
    parallel = parallel_cells(omega.as_presheaf(), k)
    out = []
    for x in range(size):
        if x == top:
            out.append(top)
            continue
        z = tuple(lower[t[x]] for t in tables)
        if z == all_top:
            out.append(top if bit else bnd)
        else:
            matches = parallel.get(z, ())
            if len(matches) != 1:
                raise RuntimeError(
                    f"incidence tuple {z} at level {k} has {len(matches)} preimages"
                )
            out.append(matches[0])
    return tuple(out)


def _bitstring_levels(omega, word):
    levels = [_base_level_map(omega, word[0] == "1")]
    for k in range(1, len(word)):
        levels.append(_extend_level_map(omega, k, levels[-1], word[k] == "1"))
    return tuple(levels)


@pytest.fixture(scope="session")
def bitstring_levels_reference():
    """Level maps of a bit string built through Omega instead of by closing
    sieves: level 0 is the identity or the constant-top map, and each
    higher level is forced by the incidence tuple of the image except on
    the all-top fiber, where the bit decides between the boundary and the
    whole simplex.  Defined for every word, "10" on the degeneracy side
    included, where the maps fail naturality: the reference for
    ``topology._bitstring_levels``."""
    return _bitstring_levels


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


def _composed_table(P, f):
    """X(f), composed here from P's generator tables along
    ``category.factor(f)``: X(g1 o ... o gm) sends x to
    X(gm)(... X(g1)(x) ...), and an identity fixes every cell.  The
    reference for ``FinitePresheaf.action_table``, which reads f's table
    off the category's numbering."""
    generators = set(P.category.generators)
    out = list(range(len(P.carrier(f.target))))
    if f.is_identity:
        return tuple(out)
    for g in P.category.factor(f):
        assert g in generators, (f, g)
        table = P.action_table(g)
        out = [table[x] for x in out]
    return tuple(out)


def _orbit_rows(P):
    """The orbit table built one ``act`` per (cell, morphism): for each
    cell (c, x), the bits of X(f)(x) over y(c)'s cells f, from y(c)'s
    highest bit down.  The reference for ``FinitePresheaf.level_orbits``,
    which reads the rows across one shifted table per morphism."""
    cat = P.category
    offsets = P.bit_offsets()
    return {
        (c, x): tuple(
            offsets[pos] + P.act(f, x)
            for pos, l in enumerate(cat.objects)
            for f in reversed(cat.hom(l, c))
        )
        for c in cat.objects
        for x in range(len(P.carrier(c)))
    }


@pytest.fixture(scope="session")
def composed_table():
    return _composed_table


@pytest.fixture(scope="session")
def orbit_rows_reference():
    return _orbit_rows


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
