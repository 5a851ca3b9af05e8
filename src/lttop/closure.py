"""Closure operators, density, and the separated/complete/sheaf classifier.

Two closure routes: ``closure_via_chi`` reads the closure off the
composite of a topology with a characteristic function, while
``closure_recursive`` runs the per-dimension recursion driven by the bit
string (copy a level, or fill every cell whose faces already lie in the
closed level below).  A topology's covering sieves at c are the sieves
above its least covering sieve m_c, so the chi route keeps a cell x of
level c iff chi(x) = x*A' >= m_c, that is, iff x.g lies in A' for every g
of a generating set of m_c (A' is action-closed), and looks nothing up in
Omega once m is read.  ``closure_via_chi`` and the dense sieves here read
m off a topology's ``least`` field; the ``closure`` command and the
closures suite read it off the word or label (``topology.least_sieves``),
and build no Omega at all.  Both kernels live in ``topology``,
``_closures_bits`` (chi) and ``_closed_bits`` (recursive), and close many
subobjects of one presheaf at once, one per lane of a single integer
(``presheaf.pack_lanes``): every subobject shares the presheaf's orbit
rows and face tables.  Both kernels take every topology of the closures
suite at once, so each runs once per corpus presheaf.  A topology acts on
level c only through m_c, so the chi kernel computes each (level, m_c)
part once per presheaf, reading which topologies share it off a plan built
once per category and topology list (``topology._chi_plan``); the
recursive kernel reads each level's coface masks once per presheaf, for
every word that fills it.  The level maps of the two enumeration routes
are the same kernels run on the sieves of the representables, so comparing
the closure routes (the closures suite) checks that the recursion commutes
with pullback on every corpus presheaf, and the constrained enumeration
agreeing with the brute one checks it on the representables.

The classifier decides separated/complete/sheaf from cell counts over
incidence tuples; ``factorization_checks`` is its counterpart from the
definition: for every level c and every dense proper sieve S on c
(S >= m_c) it lists the maps f: S -> B through the Yoneda search of
``presheaf.morphism_search`` and counts the cells of B(c) whose
restriction to S is f, which by Yoneda are the extensions of f along
S -> y(c) (at most one for separated, exactly one for a sheaf).  Each
(level, dense sieve) is searched once and shared by every topology that
reaches it; the search keeps the number of maps f and the first f with no
extension and the first with two or more, which is all a topology's scan
reads.  A report builds the witness of such an f only when its witness
field is read, so a caller that reads only the flags, as the criteria
suite of ``verify`` does, builds none.  The representables suffice, so no
corpus of ambient presheaves and no size bound is involved.
"""

import itertools
from contextlib import closing
from functools import lru_cache

from .fincat import FAMILY_FULL, FAMILY_SEMI, Record
from .presheaf import (
    BoundExceeded,
    FinitePresheaf,
    FunctorialityError,
    PresheafMorphism,
    Subpresheaf,
    _simplex_faces,
    components_of,
    morphism_search,
    parallel_cells,
    search_plan,
)
from .topology import (
    DegeneracyIncompatible,
    _check_word,
    _closed_bits,
    _closures_bits,
)

DEFAULT_SEARCH_BUDGET = 200_000
DEFAULT_CORPUS_BUDGET = 200_000


class CorpusTooLarge(BoundExceeded):
    """More morphisms into a presheaf than the search budget allows, or
    more search steps for a corpus than the corpus budget allows."""


def closure_via_chi(j, sub):
    """The subobject classified by the topology composed with chi: the
    cells x of each level c with chi(x) = x*sub >= m_c, by the one-lane,
    one-topology call of ``topology._closures_bits``."""
    if sub.presheaf.category is not j.omega.category:
        raise ValueError("subobject and topology live over different categories")
    A = sub.presheaf
    return Subpresheaf(A, _closures_bits([j.least], A, sub.bits)[0])


def closure_recursive(word, sub):
    """Dimension-by-dimension closure: copy on bit 0, fill by faces on bit 1.

    A level fills as every cell outside the coface masks of the absent
    cells one level down, by the one-word, one-lane call of
    ``topology._closed_bits``.
    """
    A = sub.presheaf
    _check_recursive_word(A.category, word)
    return Subpresheaf(A, _closed_bits([word], A, sub.bits)[0])


@lru_cache(maxsize=None)
def _check_recursive_word(category, word):
    # A rejected pair raises and is not cached, so the cache holds at most
    # the 2 ** (dim + 1) valid words of each simplex category.
    if category.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError("the recursive closure needs a simplex category")
    _check_word(category, word)


def is_dense_via_closure(j, sub):
    return closure_via_chi(j, sub).is_full


def is_dense_by_bits(word, sub):
    """Density criterion: full at every dimension whose bit is 0."""
    A = sub.presheaf
    _check_word(A.category, word)
    return all(
        sub.level_mask(k) == (1 << len(A.carrier(k))) - 1
        for k in A.category.objects
        if word[k] == "0"
    )


# -- cell-count predicates ------------------------------------------------


def k_simple(B, k):
    """At most one level-k cell per incidence tuple.

    Quantifying over all of B(k-1)^(k+1) or only over boundary-realizable
    tuples makes no difference here: unrealizable tuples have no cells.
    """
    _simplex_faces(B.category)
    return _shared_cells(B, k) is None


def _shared_cells(B, k):
    """The first incidence tuple with more than one level-k cell, with
    those cells, or None; at k = 0, every vertex when there are two or
    more."""
    if k == 0:
        vertices = len(B.carrier(0))
        return tuple(range(vertices)) if vertices > 1 else None
    for tup, cells in parallel_cells(B, k).items():
        if len(cells) > 1:
            return tup, tuple(cells)
    return None


def boundary_tuples(B, k):
    """All boundary-realizable incidence tuples (x_k, ..., x_0), k >= 1.

    A map from the hollow k-simplex into B is a family of level-(k-1)
    cells x_0, ..., x_k, the images of its facets, with
    d_i x_j = d_{j-1} x_i for every i < j (Goerss & Jardine, Simplicial
    Homotopy Theory, I.1), for truncated and semi-simplicial B alike.  At
    k = 1 that is every pair of vertices; from k = 2 on, tuples like
    (e, e, e) for a non-loop edge e are unrealizable and vacuously filled.
    Each x_j is drawn from the cells whose d_0 face is d_{j-1} x_0, then
    checked against the remaining identities.
    """
    cat = B.category
    _simplex_faces(cat)
    if not 1 <= k <= cat.dim:
        raise ValueError(f"boundary dimension {k} out of range")
    n = len(B.carrier(k - 1))
    if k == 1:
        return set(itertools.product(range(n), repeat=2))
    d = B.face_tables(k - 1)
    by_d0 = {}
    for x in range(n):
        by_d0.setdefault(d[0][x], []).append(x)
    tuples = set()
    xs = []

    def extend(j):
        if j > k:
            tuples.add(tuple(reversed(xs)))
            return
        for x in by_d0.get(d[j - 1][xs[0]], ()):
            if all(d[i][x] == d[j - 1][xs[i]] for i in range(1, j)):
                xs.append(x)
                extend(j + 1)
                xs.pop()

    for x0 in range(n):
        xs.append(x0)
        extend(1)
        xs.pop()
    return tuples


def k_complete(B, k):
    """At least one level-k cell over every boundary-realizable tuple.

    Restricting to realizable tuples (rather than all of B(k-1)^(k+1)) is
    what the factorization oracle validates: a dense mono can only ask for
    fillers over boundaries that map into B.
    """
    _simplex_faces(B.category)
    return _unfilled_boundary(B, k) is None


def _unfilled_boundary(B, k):
    """The least boundary-realizable tuple with no level-k cell, or None;
    at k = 0, the empty tuple when there is no vertex."""
    if k == 0:
        return None if B.carrier(0) else ()
    missing = boundary_tuples(B, k) - parallel_cells(B, k).keys()
    return min(missing) if missing else None


def k_exact(B, k):
    return k_simple(B, k) and k_complete(B, k)


class ClassifyReport(Record):
    __slots__ = ("separated", "complete", "witnesses")  # witnesses: (k, "simple"|"complete", data)

    @property
    def sheaf(self):
        return self.separated and self.complete


def classify(B, word):
    """Separated/complete/sheaf flags for the bit-string topology: the
    one-word call of ``classifications``."""
    return classifications(B, [word])[0]


def classifications(B, words):
    """One ``ClassifyReport`` per bit string in ``words``.

    A word is checked at each level k whose bit is 1, for two cells over
    one incidence tuple (``_shared_cells``) and for a boundary with none
    (``_unfilled_boundary``).  Each level's witnesses are found once and
    shared by every word that checks that level.
    """
    cat = B.category
    for word in words:
        _check_word(cat, word)
        if cat.family == FAMILY_FULL and "10" in word:
            raise DegeneracyIncompatible(word)  # rejected without building Omega
    found = {}

    def witnesses_at(k):
        if k not in found:
            found[k] = [
                (k, kind, data)
                for kind, witness in (("simple", _shared_cells), ("complete", _unfilled_boundary))
                for data in [witness(B, k)]
                if data is not None
            ]
        return found[k]

    reports = []
    for word in words:
        witnesses = tuple(
            w for k, bit in zip(cat.objects, word) if bit == "1" for w in witnesses_at(k)
        )
        kinds = {kind for _, kind, _ in witnesses}
        reports.append(ClassifyReport("simple" not in kinds, "complete" not in kinds, witnesses))
    return reports


# -- corpus generation -----------------------------------------------------


def _size_vectors(category, max_total):
    sizes = []
    n = len(category.objects)

    def rec(prefix, remaining):
        if len(prefix) == n:
            sizes.append(tuple(prefix))
            return
        for s in range(remaining + 1):
            rec(prefix + [s], remaining - s)

    rec([], max_total)
    return sizes


def _is_least(category, sizes, tables):
    """Whether no per-level renaming sends ``tables`` to a table tuple that
    sorts before it: ``_next_ties`` folded over the tables, from the empty
    naming."""
    ends = _generator_ends(category)
    offsets = _level_offsets(sizes)
    states = [_empty_naming(sizes)]
    for (src, tgt), table in zip(ends, tables):
        states = _next_ties(states, table, src, tgt, offsets, sizes)
        if states is None:
            return False
    return True


def _generator_ends(category):
    # per generator g: a -> b, the level indices of a and b
    return [
        (category.obj_index(g.source), category.obj_index(g.target)) for g in category.generators
    ]


def _level_offsets(sizes):
    # level c's cells sit at offsets[c] .. offsets[c] + sizes[c] - 1 of a flat naming
    return [sum(sizes[:c]) for c in range(len(sizes))]


def _empty_naming(sizes):
    unnamed = (None,) * sum(sizes)
    return unnamed, unnamed, (0,) * len(sizes)


def _next_ties(states, table, src, tgt, offsets, sizes, room=None):
    """The tie states of a table prefix extended by ``table``, or None when
    some renaming sorts the extended prefix lower; ``_OutOfRoom`` once
    there are more than ``room`` of them, when it is given.

    A tie state of a prefix is a partial per-level renaming under which the
    renamed prefix equals the prefix.  It is three tuples over one flat
    layout of every level's cells, indexed by level offset plus cell:
    ``name`` (cell -> new name), ``cell`` (new name -> cell), and
    ``given`` (per level, names 0 .. given - 1 are taken).  ``table``
    belongs to a generator g: a -> b with a at level ``src`` and b at level
    ``tgt``; each state is extended over its positions only (``_tie``).
    """
    if not table:
        return states
    so, to, n = offsets[src], offsets[tgt], sizes[tgt]
    ties = []
    for name, cell, given in states:
        if _tie(table, 0, src, tgt, so, to, n, list(name), list(cell), list(given), ties, room):
            return None
    return ties


class _OutOfRoom(Exception):
    """More tie states than the corpus budget has room for."""


def _tie(table, i, src, tgt, so, to, n, name, cell, given, ties, room):
    """Whether some extension of the naming sorts ``table`` lower from
    position i on; each extension that ties the whole table is appended to
    ``ties``.

    Renaming level c by a permutation p_c sends the table t of a generator
    g: a -> b to t' with t'[p_b[x]] = p_a[t[x]].  The search fixes a
    renaming one entry of t' at a time, in the order the tuple sorts by:
    for position i of b it tries each cell x not yet named (unless one
    already holds name i), and names t[x] with the least name still free on
    a if it has none, since any other would sort later.  It stops at the
    first entry below the candidate's and drops a branch at the first entry
    above it, so only renamings that tie so far are extended.  A branch
    that stops early leaves the naming changed; the caller drops it.
    """
    if i == n:
        if room is not None and len(ties) == room:
            raise _OutOfRoom
        ties.append((tuple(name), tuple(cell), tuple(given)))
        return False
    want = table[i]
    held = cell[to + i]
    fresh = held is None
    # positions 0 .. i - 1 hold names 0 .. i - 1, so a fresh x gets name i
    for x in [x for x in range(n) if name[to + x] is None] if fresh else (held,):
        if fresh:
            name[to + x] = i
            cell[to + i] = x
            given[tgt] = i + 1
        y = so + table[x]
        new = name[y]
        if new is None:
            new = given[src]
            if new < want:
                return True
            if new == want:
                name[y] = new
                cell[so + new] = y - so
                given[src] = new + 1
                if _tie(table, i + 1, src, tgt, so, to, n, name, cell, given, ties, room):
                    return True
                given[src] = new
                cell[so + new] = name[y] = None
        elif new < want:
            return True
        elif new == want and _tie(table, i + 1, src, tgt, so, to, n, name, cell, given, ties, room):
            return True
        if fresh:
            given[tgt] = i
            cell[to + i] = name[to + x] = None
    return False


def _pair_checks(category):
    """Per-generator-prefix relation checks for backtracking generation.

    For composable generators g1: a -> b, g2: b -> c, the composite action
    must agree with the composite's canonical factorization.  Returns, for
    each position in the generator order, the checks that become decidable
    once that generator's table is assigned, each as (position of g1,
    position of g2, positions along the canonical path, index of c).
    """
    gens = list(category.generators)
    order = {g: n for n, g in enumerate(gens)}
    checks = [[] for _ in gens]
    for g1 in gens:
        for g2 in gens:
            if g1.target != g2.source:
                continue
            path = tuple(order[h] for h in category.factor(category.compose(g2, g1)))
            check = (order[g1], order[g2], path, category.obj_index(g2.target))
            checks[max(check[0], check[1], *path)].append(check)
    return checks


def _sorted_checks(category):
    """Per position in the generator order, its pair checks (``_pair_checks``)
    sorted into entry filters and checks that run per table.

    A check whose two sides are the same word holds for every table and is
    dropped.  A check in which the position's new table t appears once, as
    the first map applied on one side, reads A[t[i]] == R[i] for each entry
    i on its own, A and R composed from tables already assigned; it is kept
    as the filter (A's word, R's word), each the positions of the tables
    applied, in order.  Every other check runs per table as a whole.
    Returns (filters, checks) per position.
    """
    sorted_checks = []
    for pos, checks in enumerate(_pair_checks(category)):
        filters, rest = [], []
        for check in checks:
            pos1, pos2, path, _ = check
            if path == (pos2, pos1):
                continue
            if pos2 == pos and pos not in (pos1, *path):
                filters.append(((pos1,), path))
            elif path[:1] == (pos,) and pos not in (pos1, pos2, *path[1:]):
                filters.append((path[1:], (pos2, pos1)))
            else:
                rest.append(check)
        sorted_checks.append((tuple(filters), tuple(rest)))
    return sorted_checks


def _composed(tables, word, n):
    # the tables at the positions of ``word``, applied in order to 0 .. n - 1
    out = range(n)
    for h in word:
        out = map(tables[h].__getitem__, out)
    return tuple(out)


def _entry_choices(tables, filters, n_src, n_tgt):
    """Per entry i of a new table with ``n_tgt`` entries over ``n_src``
    values, the values v, ascending, with A[v] == R[i] for every filter
    (A's word, R's word) of ``_sorted_checks``."""
    choices = [range(n_src)] * n_tgt
    for apply, expect in filters:
        A = _composed(tables, apply, n_src)
        R = _composed(tables, expect, n_tgt)
        choices = [[v for v in values if A[v] == r] for values, r in zip(choices, R)]
    return choices


def _run_pair_check(tables, check, sizes):
    # X(g2 o g1) = X(g1) o X(g2); the left side comes from the canonical path
    pos1, pos2, path, target = check
    n = sizes[target]
    return _composed(tables, path, n) == _composed(tables, (pos2, pos1), n)


def presheaf_corpus(category, max_total):
    """Every presheaf with at most ``max_total`` elements, one per iso class.

    Generator tables are assigned one at a time, pruning with every
    relation that becomes decidable (``_sorted_checks``): a relation that
    fixes each entry of the new table on its own narrows that entry to its
    allowed values before the tables are enumerated, and the rest are
    checked per table.  The product of ascending per-entry value lists
    visits the accepted tables in the same lexicographic order as the
    product of all tables would.  Isomorphs are rejected orderly
    (Read 1978; McKay, J. Algorithms 1998), before any presheaf is built:
    for each size vector the tables are visited in lexicographic order of
    their tuple, and the pair checks and functoriality are invariant under
    per-level renaming, so the first member of a class that is reached is
    the least of its orbit.  A candidate is kept exactly when it is that
    least member (``_is_least``), and then gets the full functoriality
    check.

    The test runs on every prefix of tables, and only a least prefix is
    extended.  That is exact: every table of a size vector has a fixed
    length, so a renaming that sorts a prefix lower sorts each completion
    of it lower too, and a least tuple has only least prefixes.  Each least
    prefix carries its tie states forward (``_next_ties``), and a new table
    is compared only under the renamings that tie the prefix.  That is
    exact too: a renaming that sorts a completion lower either sorts the
    prefix lower, which the prefix's own test has ruled out, or ties on it,
    and the search reaches it from a tie state.  The last prefix is the
    whole tuple, so the same presheaves come out in the same order.  Built
    once per (category, max_total); categories are cached singletons.

    The search takes at most ``DEFAULT_CORPUS_BUDGET`` steps, each a table
    tried (one that passes the entry filters) or a tie state carried
    forward, and raises ``CorpusTooLarge`` past it.  Tie states count
    because they can outgrow the tables: n loops at one vertex try 2
    tables but carry n! tie states.  Every bound up to 8 fits on the
    corpus categories of ``verify`` (at most 128 098 steps, on
    semisimplex:2), and so does reflgraph at bound 9 (167 899 steps); the
    steps grow about fivefold with each step of the bound.
    """
    return _presheaf_corpus(category, max_total, DEFAULT_CORPUS_BUDGET)


@lru_cache(maxsize=None)
def _presheaf_corpus(category, max_total, budget):
    gens = list(category.generators)
    ends = _generator_ends(category)
    checks = _sorted_checks(category)
    corpus = []
    spent = 0
    for sizes in _size_vectors(category, max_total):
        if any(sizes[tgt] > 0 and sizes[src] == 0 for src, tgt in ends):
            continue
        offsets = _level_offsets(sizes)
        carriers = {c: tuple(range(n)) for c, n in zip(category.objects, sizes)}
        tables = [None] * len(gens)

        def assign(pos, states):
            nonlocal spent
            if pos == len(gens):
                try:
                    corpus.append(FinitePresheaf(category, carriers, dict(zip(gens, tables))))
                except FunctorialityError:
                    pass
                return
            src, tgt = ends[pos]
            filters, rest = checks[pos]
            choices = _entry_choices(tables, filters, sizes[src], sizes[tgt])
            for table in itertools.product(*choices):
                spent += 1
                if spent > budget:
                    raise _OutOfRoom
                tables[pos] = table
                if all(_run_pair_check(tables, check, sizes) for check in rest):
                    ties = _next_ties(states, table, src, tgt, offsets, sizes, budget - spent)
                    if ties is not None:
                        spent += len(ties)
                        assign(pos + 1, ties)

        try:
            assign(0, [_empty_naming(sizes)])
        except _OutOfRoom:
            message = (
                f"the {category.kind} corpus at bound {max_total} needs more than "
                f"{budget} search steps, the corpus budget"
            )
            raise CorpusTooLarge(message, budget + 1, budget) from None
    corpus.sort(key=lambda P: (P.total_size, tuple(len(l) for l in P.carriers)))
    return tuple(corpus)


# -- factorization oracle: maps out of dense sieves, by restriction -------


class FactorizationReport(Record):
    __slots__ = ("separated", "complete", "separated_witness", "complete_witness")


class _BuiltOnRead:
    """A report field that holds a witness or a call that builds it
    (``_witness``), and reads the call as the witness it builds."""

    __slots__ = ("slot",)

    def __init__(self, slot):
        self.slot = slot

    def __get__(self, report, owner=None):
        if report is None:
            return self
        value = self.slot.__get__(report, owner)
        return value() if callable(value) else value

    def __set__(self, report, value):
        self.slot.__set__(report, value)


FactorizationReport.separated_witness = _BuiltOnRead(FactorizationReport.separated_witness)
FactorizationReport.complete_witness = _BuiltOnRead(FactorizationReport.complete_witness)


def factorization_check(B, j):
    """Decide separated and complete by extending maps along dense sieves:
    the one-topology call of ``factorization_checks``."""
    return factorization_checks(B, [j])[0]


def factorization_checks(B, topologies):
    """One ``FactorizationReport`` per topology: separated and complete,
    decided by extending maps along dense sieves.

    For the Grothendieck topology J of j, B is separated (a sheaf) iff
    every map S -> B out of a covering sieve S on c extends at most once
    (exactly once) along S -> y(c) (Mac Lane & Moerdijk, Sheaves in
    Geometry and Logic, III.4 and V.3-V.4).  The covering sieves are the
    dense ones, S >= m_c (m the topology's ``least``); the top sieve needs
    no check.  By Yoneda the maps y(c) -> B are the cells b of B(c), so
    the extensions of f are the cells whose restriction b|S is f: one
    Yoneda search (``presheaf.morphism_search``) lists the maps f out of
    S, and each is looked up among the cells of B(c) keyed by their
    restriction: B's orbit rows (``level_orbits``) read at the positions of
    S's cells in the search's plan (``presheaf.search_plan``), which is
    built once per category.  No cell means B is not complete, two or more
    that it is not separated.  A topology acts on
    level c only through m_c, so each (level, dense sieve) that some
    topology reaches is searched and keyed once, and the topologies share
    it.

    Complete on its own needs only the representables too, in these
    categories.  Every cell is a degeneracy of a unique nondegenerate cell
    (Eilenberg-Zilber; trivially so in the semi-simplicial and bicolored
    categories), so a map out of a dense A' of A extends one nondegenerate
    level-k cell x at a time, in order of level, from A'' = A' plus the
    cells already added.  Each step extends along the sieve x*(A'') on k,
    which is dense as a pullback of a dense subobject.  It contains every
    non-surjective h, since x.h is then a degeneracy of a cell of lower
    level, and the surjective h outside it have distinct images x.h, so a
    map on the sieve extends to A'' plus x exactly as it extends to y(k).

    Each topology scans its dense sieves level by level, in sieve order,
    and stops once it has both witnesses.  A search keeps only what that
    scan reads: the number of maps f, and the first with no extension and
    the first with two or more, so a topology steps once per dense sieve,
    not once per map.  Witnesses are (y(c), S, f) and (y(c), S, f,
    (g1, g2)), with f given by its components on S's cells and g1 != g2
    the maps y(c) -> B of the two lowest-indexed cells of B(c) whose
    restriction to S is f.  A report builds each witness when its field is
    first read, once per call: the topologies that report one map share
    one witness object.  More than ``DEFAULT_SEARCH_BUDGET`` maps f out of
    one topology's dense sieves on one c raise ``CorpusTooLarge``.
    """
    budget = DEFAULT_SEARCH_BUDGET
    rows = B.level_orbits()
    memo = {}

    def maps_out_of(pos, yc, S, bits):
        # the first f with no extension and the first with two or more,
        # each as its position among the maps f: S -> B and its witness, or
        # None, and the number of maps, up to budget + 1 or up to the one
        # that completes both, where every scan that reaches S stops
        if (pos, bits) not in memo:
            # a map f and each cell b of B(c) are keyed by what they send
            # S's cells to: the map y(c) -> B of b sends y(c)'s bit p to
            # row[top - p]
            _, inside = search_plan(yc, bits)
            top = yc.total_size - 1
            at = [top - p for p in inside]
            extensions = {}
            for row in rows[pos]:
                extensions.setdefault(tuple(map(row.__getitem__, at)), []).append(row)
            count = 0
            missing = shared = None
            image = [None] * yc.total_size
            with closing(morphism_search(yc, B, bits)(image)) as search:
                for count, _ in enumerate(itertools.islice(search, budget + 1), 1):
                    cells = extensions.get(tuple(map(image.__getitem__, inside)), ())
                    if len(cells) == 1:
                        continue
                    f = tuple(image)
                    if not cells:
                        if missing is None:
                            missing = count - 1, _witness(B, yc, S, bits, f, cells)
                    elif shared is None:
                        shared = count - 1, _witness(B, yc, S, bits, f, cells)
                    if missing is not None and shared is not None:
                        break
            memo[pos, bits] = count, missing, shared
        return memo[pos, bits]

    return [_factorization_report(B, j, maps_out_of, budget) for j in topologies]


def _witness(B, yc, S, bits, f, cells):
    """A call that builds, once, the witness of a map f: S -> B with the
    orbit rows ``cells`` of the cells of B(c) that restrict to it: (y(c),
    S, f) when there is none, else (y(c), S, f, (g1, g2)) for the maps
    y(c) -> B of the first two."""
    built = []

    def witness():
        if not built:
            restricted = components_of(yc, B, f, bits)
            if not cells:
                built.append((yc, S, restricted))
            else:
                full = (1 << yc.total_size) - 1
                pair = tuple(
                    PresheafMorphism(yc, B, components_of(yc, B, row[::-1], full))
                    for row in cells[:2]
                )
                built.append((yc, S, restricted, pair))
        return built[0]

    return witness


def _factorization_report(B, j, maps_out_of, budget):
    omega = j.omega
    sep_witness = None
    comp_witness = None
    for pos, (yc, sieves, packed, m) in enumerate(
        zip(omega.yonedas, omega.sieves, omega.packed, j.least)
    ):
        count = 0
        for S, bits in zip(sieves[:-1], packed):
            if bits & m != m:
                continue
            total, missing, shared = maps_out_of(pos, yc, S, bits)
            # positions of the maps that give this topology a new witness
            found = []
            if comp_witness is None and missing is not None:
                found.append(missing[0])
                comp_witness = missing[1]
            if sep_witness is None and shared is not None:
                found.append(shared[0])
                sep_witness = shared[1]
            done = sep_witness is not None and comp_witness is not None
            # the scan reads every map of S, or stops at its second witness
            count += max(found) + 1 if done else total
            if count > budget:
                message = f"more than {budget} morphisms from dense sieves of {yc} to {B}"
                raise CorpusTooLarge(message, budget + 1, budget)
            if done:
                return FactorizationReport(False, False, sep_witness, comp_witness)
    return FactorizationReport(sep_witness is None, comp_witness is None, sep_witness, comp_witness)
