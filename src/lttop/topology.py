"""Lawvere-Tierney topologies on the built-in presheaf toposes.

A topology is read through its covering sieves (Mac Lane and Moerdijk,
Sheaves in Geometry and Logic, III.2 and V.1): J(c) = j^-1(top) is a
principal filter up(m_c) of Omega(c), J is a subpresheaf of Omega, and j
is its characteristic map, j_c(S) = {f: l -> c | f*S >= m_l}.  m is one
sieve integer per level, and its readers test ``S & m == m`` on plain
integers.  ``least_sieves`` reads m off a bit string or bicolored label
with no Omega: m_c is generated by the cells of y(c) at the levels whose
bit is 0.  The ``closure`` command and the closures suite of ``verify``
read it there.  Every ``LTTopology`` carries its m as the field
``least``: a word's from ``least_sieves``, the brute route's from the
choice its search made, and a topology built by hand without it from
``least_covering_sieves``, which reads m off the level maps.  The tags
here (the bit at level c says whether m_c is a proper sieve), and the chi
closure and dense sieves of a topology in ``closure``, read the field.
``verify_topology`` checks the axioms on Omega's own tables: j fixes top,
is idempotent, sends to top exactly up(m) for the field m, and commutes
with every generator action.

For any topology, j_c(S) is the closure of S as a subobject of y(c)
(Mac Lane and Moerdijk, V.1-V.2), so both routes below read the level
maps of all their topologies through a closure kernel on y(c), one call
per level: every sieve of y(c) is one lane of a single integer
(``presheaf.pack_lanes``), and the kernel takes every topology at once.
The kernels,
``_closures_bits`` (chi) and ``_closed_bits`` (recursive), are the ones
the closures of ``closure`` run, and comparing the two routes compares
the two kernels on every representable.  Two independent routes produce
topologies:

* ``enumerate_topologies(..., method="brute")`` searches exhaustively over
  least covering sieves, keeping a stable, transitive choice of one sieve
  per level; the chi kernel reads the level maps of every complete choice
  at once, f in j_c(S) iff f*S >= m_(dom f), and ``verify_topology``
  checks each.  It runs on every category at every dimension, knows
  nothing about the constructive family, and serves as the oracle.
* ``construct_bitstring_topology`` / ``method="constrained"`` build the
  per-dimension family indexed by a bit string: each level map is the
  recursive closure of each sieve S of y(k) under the word, copy a level
  on bit 0, fill it by faces on bit 1.  The constrained route reads every
  word's level maps in one pass.

On a degeneracy-carrying category a word containing "10" has no
topology: its semi-simplicial topology is transported along the
add/strip-degeneracies bijections, and the failing degeneracy square is
the witness.  Equality of topologies is extensional on the level maps;
the bit-string tag is metadata only.
"""

import itertools
from functools import lru_cache, partial, reduce
from operator import and_, or_

from .fincat import (
    FAMILY_BICOLOR,
    FAMILY_FULL,
    FAMILY_SEMI,
    Record,
    build_index_category,
    morphism_plan,
)
from .omega import OmegaBoundExceeded, classifying_object
from .presheaf import _principal, add_degeneracies, pack_lanes, unpack_lanes, yoneda

BICOLOR_LABELS = ("00", "01", "02", "03", "10", "11", "12", "13")


class DegeneracyIncompatible(ValueError):
    """A bit string whose topology cannot commute with the degeneracies."""

    def __init__(self, word, witness=None):
        self.word = word
        self.witness = witness
        square = ""
        if witness is not None:
            square = (
                f" (naturality square for {witness['generator']} fails at sieve "
                f"{witness['input_sieve']}: level map then action gives "
                f"{witness['map_then_action']} but action then level map gives "
                f"{witness['action_then_map']})"
            )
        super().__init__(
            f"bit string {word!r} contains '10'; no topology with this closure "
            f"pattern commutes with the degeneracy actions{square}"
        )


class TopologyViolation(Record):
    # kind: "true" (witness (top, j(top))) | "idempotent" (x,) | "covering":
    # (x, j(x)) for a sieve x >= m_c that j_c misses, or (x, g) for the
    # first sieve x on g's target whose naturality square fails
    __slots__ = ("kind", "level", "witness")

    def __str__(self):
        return f"{self.kind} fails at level {self.level}, witness {self.witness}"


class LTTopology(Record):
    """Per-level endomap of Omega, optionally tagged by its bit string, with
    its least covering sieves ``least`` (m, one sieve integer per level).

    Equality reads ``levels`` only; ``omega``, ``tag`` and ``least`` are
    context.  A topology built without ``least`` reads it off its level
    maps (``least_covering_sieves``); ``verify_topology`` checks it against
    them.
    """

    __slots__ = ("omega", "levels", "tag", "least")
    _defaults = {"tag": None, "least": None}
    _compare = ("levels",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.least is None:
            object.__setattr__(self, "least", least_covering_sieves(self))

    def level_map(self, c):
        return self.levels[self.omega.category.obj_index(c)]

    def __str__(self):
        name = self.tag if self.tag is not None else "untagged"
        return f"LTTopology[{name}] on {self.omega.category.kind}"


def verify_topology(j):
    """None if j is a Lawvere-Tierney topology, else a witness.

    A topology is a natural j: Omega -> Omega that fixes top, is idempotent
    and preserves meets (Mac Lane and Moerdijk, V.1).  The check reads only
    Omega's tables: j fixes top, j is idempotent, j_c^-1(top) is exactly
    up(m_c) for the least covering sieves m that j carries (``j.least``),
    and j_d(g*S) = g*(j_c(S)) for every generator g: d -> c.  That is exact:
    for f: l -> c, f is in j_c(S) iff f*(j_c(S)) = top iff (naturality)
    j_l(f*S) = top iff f*S >= m_l, so j is the characteristic map of
    up(m), and it preserves meets because f*(S & T) >= m_l iff both
    f*S >= m_l and f*T >= m_l.  Conversely a topology is natural, and its
    covering sieves form a filter, so up(m) is all of them, and m is the
    ``least_covering_sieves`` of j.  The first sieve x with x >= m_c but
    j_c(x) != top, or j_c(x) = top but not x >= m_c, is reported as
    (x, j(x)), so a wrong m is a covering violation; a failing square as
    (x, g), x the first failing sieve on g's target.
    """
    omega = j.omega
    cat = omega.category
    for c, mapping, top in zip(cat.objects, j.levels, omega.top):
        if mapping[top] != top:
            return TopologyViolation("true", c, (top, mapping[top]))
        for x in range(len(mapping)):
            if mapping[mapping[x]] != mapping[x]:
                return TopologyViolation("idempotent", c, (x,))
    for c, mapping, top, packed, m in zip(cat.objects, j.levels, omega.top, omega.packed, j.least):
        for x, sieve in enumerate(packed):
            if (sieve & m == m) != (mapping[x] == top):
                return TopologyViolation("covering", c, (x, mapping[x]))
    square = _naturality_violation(omega, j.levels, cat.generators)
    if square is not None:
        g = square["generator"]
        return TopologyViolation("covering", g.target, (square["input_index"], g))
    return None


def least_covering_sieves(j):
    """Per level, the least covering sieve m_c as an integer, read off
    j's level maps: the AND of the sieves j_c sends to top, starting from
    the full sieve.  For a topology J(c) = up(m_c), so the closure of A'
    in A holds the cells x of level c with x*A' >= m_c.  ``least_sieves``
    reads the same m off a tag, with no Omega.  Read once, when a topology
    is built without its ``least``."""
    omega = j.omega
    return tuple(
        reduce(and_, (packed[s] for s, v in enumerate(mapping) if v == top), packed[top])
        for mapping, top, packed in zip(j.levels, omega.top, omega.packed)
    )


def _naturality_violation(omega, levels, generators):
    """The first failing square j_d . g* = g* . j_c over the given
    generators g: d -> c, as a dict of sieves and the input sieve's index,
    or None."""
    cat = omega.category
    for g in generators:
        src = cat.obj_index(g.source)
        tgt = cat.obj_index(g.target)
        table = omega.action_table(g)
        for x, pulled in enumerate(table):
            lhs = levels[src][pulled]
            rhs = table[levels[tgt][x]]
            if lhs != rhs:
                return {
                    "generator": g,
                    "input_level": g.target,
                    "input_index": x,
                    "input_sieve": omega.sieves[tgt][x],
                    "map_then_action": omega.sieves[src][rhs],
                    "action_then_map": omega.sieves[src][lhs],
                }
    return None


# -- the constructive per-dimension family ------------------------------


def _check_word(category, word):
    if category.family == FAMILY_BICOLOR:
        raise ValueError("bit strings index simplex topologies; bicolored graphs use labels")
    if len(word) != category.dim + 1 or any(ch not in "01" for ch in word):
        raise ValueError(
            f"expected a bit string of length {category.dim + 1} over 0/1, got {word!r}"
        )


def _check_tag(category, tag):
    """Reject a tag that names no topology on the category: a bicolored
    label outside ``BICOLOR_LABELS``, a malformed bit string, or a word
    containing "10" on a degeneracy-carrying category.  Such a word's
    semi-simplicial topology fails naturality with a degeneracy action
    once transported along ``degeneracy_compatible``, and the failing
    square is the raised error's witness; when the semi-simplicial Omega is
    over its sieve bound, the error has no witness."""
    if category.family != FAMILY_BICOLOR:
        _check_word(category, tag)
    elif tag not in BICOLOR_LABELS:
        raise ValueError(f"no topology labelled {tag!r}; known labels: {BICOLOR_LABELS}")
    if category.family == FAMILY_FULL and "10" in tag:
        semi = build_index_category("semisimplex", category.dim, max_dim=category.dim)
        try:
            _, square = degeneracy_compatible(construct_bitstring_topology(semi, tag))
        except OmegaBoundExceeded:
            square = None
        raise DegeneracyIncompatible(tag, square)


def least_sieves(category, tag):
    """The least covering sieves m of the topology a bit string or
    bicolored label names, one sieve integer of y(c) per level c, read off
    the tag with no Omega.

    A tag's 0 bits are the set T of levels whose m is full, and m_c is the
    sieve of y(c) generated by its cells at the levels in T: the OR of
    their principal sieves.  J = up(m) is then a Grothendieck topology,
    and every topology on these categories is one of them (Johnstone,
    Sketches of an Elephant, C2.2).  A bicolored label is read as the V
    bit, then E = bit 0 of its digit and E' = bit 1, the mapping
    ``tag_topology`` reads in reverse.
    """
    _check_tag(category, tag)
    if category.family == FAMILY_BICOLOR:
        tag = tag[0] + f"{int(tag[1]):02b}"[::-1]  # the bits of V, E and E'
    covered = [bit == "0" for bit in tag]
    return tuple(
        reduce(or_, itertools.compress(levels, covered), 0) for levels in _level_sieves(category)
    )


@lru_cache(maxsize=None)
def _level_sieves(category):
    """Per object c and level l, the sieve of y(c) generated by its cells
    at level l: the OR of their principal sieves.  Categories are cached
    singletons, so it is built once per category."""
    return tuple(
        tuple(reduce(or_, map(_principal, rows), 0) for rows in yoneda(category, c).level_orbits())
        for c in category.objects
    )


def _closed_bits(words, A, bits, lanes=1):
    """For each bit string in ``words``, the closures of subobjects of a
    simplex presheaf A under that word, one per lane as
    ``presheaf.pack_lanes`` lays them out (one subobject is one lane, with
    ``lanes`` = 1): copy a level on bit 0, and on bit 1 keep every cell
    outside the coface masks of the absent cells one level down; level 0
    fills completely.  A bit-1 level reads which lanes lack each cell y one
    level down; when no lane lacks any, the level fills completely, as
    level 1 does after a filled level 0.  Otherwise it walks every such y
    and clears y's coface mask in exactly the lanes that lack y.  Each
    level's coface masks (``_coface_masks``) are read once per call, for
    every word that fills it.
    """
    filled_levels = {k for word in words for k, bit in enumerate(word) if bit == "1"}
    cofaces = {k: _coface_masks(A, k) for k in filled_levels}
    offsets = A.bit_offsets()
    sizes = [len(level) for level in A.carriers]
    closed = []
    for word in words:
        out = bits
        for k, bit in enumerate(word):
            if bit == "0":
                continue
            full = ((1 << sizes[k]) - 1) * lanes
            filled = full
            if k:
                below = ((1 << sizes[k - 1]) - 1) * lanes
                missing = ~out >> offsets[k - 1] & below
                if missing:
                    for y, coface in enumerate(cofaces[k]):
                        filled &= ~(coface * (missing >> y & lanes))
            out = out & ~(full << offsets[k]) | filled << offsets[k]
        closed.append(out)
    return closed


def _coface_masks(A, k):
    """Per level-(k - 1) cell y of a simplex presheaf A, the mask of the
    level-k cells that have y as a face, read off A's face tables; none at
    level 0.  A level-k cell has all its faces in a set of level-(k - 1)
    cells exactly when it is in none of the masks of the cells outside it.
    """
    if not k:
        return []
    masks = [0] * len(A.carriers[k - 1])
    for table in A.face_tables(k):
        for x, y in enumerate(table):
            masks[y] |= 1 << x
    return masks


def _closures_bits(leasts, A, bits, lanes=1):
    """For each tuple of least covering sieves in ``leasts``, the closures
    of subobjects of A under that topology, one per lane as in
    ``_closed_bits``.

    A cell x of level c stays in a lane iff x.f lies in that lane for every
    f in m_c.  Every lane is action-closed, x.(g o h) = (x.g).h, so it is
    enough that x.g lies in it for each g of a generating set of m_c
    (``_generator_positions``): the AND of ``bits >> p`` over the bits p of
    those x.g, read off each g's action table.  Two parts need no loop over
    the cells: m_c = top is generated by the identity, x.1 = x, so the part
    is the lanes' own level-c cells, and m_c empty keeps the whole level.
    A topology acts on level c only through m_c, so each (level, m_c) part
    is computed once and shared by the topologies with that m_c.  The
    generating sets, and which topologies share each part, are read off the
    plan of the category and ``leasts`` (``_chi_plan``), built once for
    every presheaf they close.
    """
    plan = _chi_plan(A.category, tuple(leasts))
    identities = morphism_plan(A.category).identities
    tables = A.tables
    offsets = A.bit_offsets()
    closed = [0] * len(leasts)
    for pos, (level, offset, groups) in enumerate(zip(A.carriers, offsets, plan)):
        n = len(level)
        full = ((1 << n) - 1) * lanes << offset
        top = ((pos, identities[pos]),)
        for chosen, shared_by in groups:
            if not chosen:
                part = full
            elif chosen == top:
                part = bits & full
            else:
                reads = [(offsets[l], tables[p]) for l, p in chosen]
                part = 0
                for x in range(n):
                    keep = lanes
                    for base, table in reads:
                        keep &= bits >> base + table[x]
                    part |= keep << offset + x
            for t in shared_by:
                closed[t] |= part
    return closed


@lru_cache(maxsize=None)
def _chi_plan(category, leasts):
    """Per level c, one pair per distinct m_c among the tuples of least
    covering sieves ``leasts``: the columns (level l, morphism position;
    ``MorphismPlan.columns``) of a generating set of m_c
    (``_generator_positions``), the identity alone for the top sieve and
    none for the empty one, and the positions in ``leasts`` of the tuples
    with that m_c, in order of first appearance.  Categories are cached
    singletons, so a plan is built once per category and list."""
    columns = morphism_plan(category).columns
    plan = []
    for pos in range(len(category.objects)):
        shared_by = {}
        for t, least in enumerate(leasts):
            shared_by.setdefault(least[pos], []).append(t)
        plan.append(
            tuple(
                (tuple(columns[pos][i] for i in _generator_positions(category, pos, m)), tuple(ts))
                for m, ts in shared_by.items()
            )
        )
    return tuple(plan)


@lru_cache(maxsize=None)
def _generator_positions(category, pos, m):
    """The orbit positions (``FinitePresheaf.level_orbits``) of a set of
    cells of y(c), c the object at ``pos``, whose principal sieves join to
    the sieve m.

    Chosen greedily: the cells of m by decreasing principal sieve, each
    skipped when an earlier choice already covers it.  Dropping every cell
    that lies in another cell's principal sieve would be wrong: two cells
    can generate each other (on reflgraph, s and s.r), and both would go.
    """
    yc = yoneda(category, category.objects[pos])
    # the orbit lists y(c)'s cells from its highest bit down
    top = yc.total_size - 1
    principals = [
        (offset + x, _principal(orbit))
        for offset, rows in zip(yc.bit_offsets(), yc.level_orbits())
        for x, orbit in enumerate(rows)
        if m >> offset + x & 1
    ]
    principals.sort(key=lambda cell: -cell[1].bit_count())
    covered = 0
    chosen = []
    for b, principal in principals:
        if not covered >> b & 1:
            covered |= principal
            chosen.append(top - b)
    assert covered == m, (category.kind, pos, m)
    return tuple(chosen)


def _level_maps(omega, kernel):
    """Level maps for one or more topologies: j_c(S) is the closure of the
    sieve S as a subobject of y(c).  Every sieve of a level is one lane of
    a single integer (``pack_lanes``), and ``kernel(y, bits, lanes)``
    closes them all, one integer per topology; returns one tuple of level
    maps per topology."""
    levels = []
    for y, packed, index in zip(omega.yonedas, omega.packed, omega._index):
        bits, lanes, stride = pack_lanes(y, packed)
        levels.append(
            [
                tuple(map(index.__getitem__, unpack_lanes(closed, stride, len(packed))))
                for closed in kernel(y, bits, lanes)
            ]
        )
    return list(zip(*levels))


def _bitstring_levels(omega, words):
    """Per bit string in ``words``, its level maps: j_k(S) is the closure of
    S as a subobject of y(k) under the word, for every sieve S of every
    level k, by one ``_closed_bits`` call per level for all the words."""
    return _level_maps(omega, partial(_closed_bits, words))


def construct_bitstring_topology(category, word):
    """Build the topology whose closure fills exactly the dimensions with bit 1.

    On a degeneracy-carrying category a word containing "10" is rejected
    with the failing degeneracy square as its witness (``_check_tag``).
    """
    _check_word(category, word)  # a bicolored label is no bit string
    return _bitstring_topologies(category, [word])[0]


def _bitstring_topologies(category, words):
    """The topologies of the bit strings in ``words``, each checked by
    ``verify_topology``, with their level maps read in one pass
    (``_bitstring_levels``).  Every word's tag is checked (``least_sieves``)
    before Omega is built."""
    leasts = [least_sieves(category, word) for word in words]
    omega = classifying_object(category)
    found = []
    for word, levels, least in zip(words, _bitstring_levels(omega, words), leasts):
        j = LTTopology(omega, levels, word, least)
        problem = verify_topology(j)
        if problem is not None:
            raise RuntimeError(f"constructed map is not a topology: {problem}")
        found.append(j)
    return found


# -- tagging -------------------------------------------------------------


def tag_topology(j):
    """Attach the closure-pattern tag read off the least covering sieves.

    The bit of level c is 1 iff j_c sends some proper sieve to top, that
    is, iff m_c is not the full sieve.  On y(k) every proper sieve lies in
    the boundary (a sieve holding a surjection holds its composite with a
    section, the identity), and on y(E) and y(E') in the hollow edge, so
    the bit says whether j_c closes the boundary.  A bicolored label is the
    V bit followed by the digit E + 2 E'.
    """
    omega = j.omega
    proper = [m != packed[-1] for m, packed in zip(j.least, omega.packed)]
    if omega.category.family == FAMILY_BICOLOR:
        v, e, e2 = proper  # the levels V, E, E'
        tag = f"{v:d}{e + 2 * e2}"
    else:
        tag = "".join(f"{p:d}" for p in proper)
    return LTTopology(omega, j.levels, tag, j.least)


# -- enumeration ---------------------------------------------------------


def _transitive_at(omega, m, c):
    """Whether m_c <= m_c.m = {f o g | f in m_c, g in m_(dom f)}, with m
    the packed least covering sieves.  The orbit row of a cell f: l -> c
    of y(c) holds the bit of f o g for every cell g of y(l), from y(l)'s
    highest bit down, so g at bit b of y(l) is entry len(row) - 1 - b.
    Rows are read from the highest level down: those cells reach the
    most, so the loop can stop early."""
    y = omega.yonedas[c]
    offsets = y.bit_offsets()
    mc = m[c]
    reach = 0
    orbits = y.level_orbits()
    for l in reversed(range(len(orbits))):
        rows = orbits[l]
        for f in reversed(range(len(rows))):
            if not mc & ~reach:
                return True
            if mc >> offsets[l] + f & 1:
                ml = m[l]
                row = rows[f]
                top = len(row) - 1
                while ml:
                    g = ml.bit_length() - 1
                    reach |= 1 << row[top - g]
                    ml ^= 1 << g
    return not mc & ~reach


def _enumerate_covering(omega):
    """Topologies from their least covering sieves (the Grothendieck route).

    J(c) = j^-1(top) is a filter in the finite lattice Omega(c), hence
    principal: J(c) = up(m_c).  Choose m_c level by level and keep a choice
    only if f*m_c >= m_d for every generator f: d -> c (stability) and
    m_c <= m_c.m = {f o g | f in m_c, g in m_(dom f)} (transitivity:
    m_c.m is the least sieve R with f*R >= m_(dom f) for every f in m_c,
    and it must contain m_c).
    Both tests read the sieve integers.  The level maps of every complete
    choice are then read through the chi kernel ``_closures_bits``, one
    call per level for all the choices: j_c(S) holds the cells f of y(c)
    with f*S >= m_(dom f), the closure of S in y(c).  ``verify_topology``
    checks each.  Knows nothing of the bit strings.
    """
    cat = omega.category
    n = len(cat.objects)
    packed = omega.packed
    # transitivity at c can be tested once every level l with a cell l -> c is chosen
    ready_at = [max(l for l, rows in enumerate(y.level_orbits()) if rows) for y in omega.yonedas]
    gens = [(cat.obj_index(g.source), cat.obj_index(g.target), omega.action_table(g)) for g in cat.generators]
    m = [None] * n  # sieve indices
    bits = [None] * n  # and their integers
    choices = []

    def choose(pos):
        if pos == n:
            choices.append(tuple(bits))
            return
        stability = [(d, c, t) for d, c, t in gens if max(d, c) == pos]
        ready = [c for c in range(n) if ready_at[c] == pos]
        for index, sieve in enumerate(packed[pos]):
            m[pos] = index
            bits[pos] = sieve
            if any(bits[d] & ~packed[d][t[m[c]]] for d, c, t in stability):
                continue
            if all(_transitive_at(omega, bits, c) for c in ready):
                choose(pos + 1)

    choose(0)
    maps = _level_maps(omega, partial(_closures_bits, choices))
    found = (LTTopology(omega, levels, None, least) for levels, least in zip(maps, choices))
    return [j for j in found if verify_topology(j) is None]


def _enumerate_constrained(omega):
    """One topology per bit string, skipping the words with "10" on a
    degeneracy-carrying category, with every word's level maps read in one
    pass."""
    cat = omega.category
    if cat.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError("constrained enumeration needs a simplex category")
    words = ("".join(bits) for bits in itertools.product("01", repeat=cat.dim + 1))
    valid = [word for word in words if cat.family == FAMILY_SEMI or "10" not in word]
    return _bitstring_topologies(cat, valid)


def enumerate_topologies(category, method="auto"):
    """All topologies on the category, complete and duplicate-free.

    ``method`` is "brute" (least covering sieves; every category, and
    independent of the bit-string family), "constrained" (the recursive
    closure of each sieve; simplex categories only), or "auto" (constrained on
    simplex categories, brute on bicolored graphs).
    """
    omega = classifying_object(category)
    if method == "auto":
        method = "brute" if category.family == FAMILY_BICOLOR else "constrained"
    if method == "brute":
        found = _enumerate_covering(omega)
    elif method == "constrained":
        found = _enumerate_constrained(omega)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    tagged = [tag_topology(j) if j.tag is None else j for j in found]
    tagged.sort(key=lambda j: j.levels)
    return tuple(tagged)


# -- compatibility with the degeneracies ---------------------------------


def degeneracy_translation(omega_semi, omega_full):
    """Per-level index bijections between semi and full sieve lattices.

    Returns (to_full, to_semi): tuples of index tuples, one per level.
    """
    semi_cat = omega_semi.category
    to_full = []
    to_semi = []
    for c in semi_cat.objects:
        pos = semi_cat.obj_index(c)
        fwd = []
        for s in omega_semi.sieves[pos]:
            fwd.append(omega_full.sieve_index(add_degeneracies(s)))
        to_full.append(tuple(fwd))
        back = [None] * omega_full.level_size(c)
        for i, target in enumerate(fwd):
            back[target] = i
        if any(v is None for v in back):
            raise RuntimeError(f"degeneracy translation at level {c} is not a bijection")
        to_semi.append(tuple(back))
    return tuple(to_full), tuple(to_semi)


def degeneracy_compatible(j):
    """Whether a semi-simplex topology transports to the degeneracy-carrying side.

    Transports the level maps along the add/strip-degeneracies bijections
    and checks naturality with every degeneracy action.  Returns
    ``(True, None)`` or ``(False, witness)`` where the witness records the
    failing square.
    """
    omega_semi = j.omega
    category = omega_semi.category
    if category.family != FAMILY_SEMI:
        raise ValueError("expected a topology over a semi-simplex category")
    full_cat = build_index_category("simplex", category.dim, max_dim=category.dim)
    omega_full = classifying_object(full_cat)
    to_full, to_semi = degeneracy_translation(omega_semi, omega_full)
    transported = []
    for pos in range(len(category.objects)):
        mapping = j.levels[pos]
        transported.append(
            tuple(to_full[pos][mapping[to_semi[pos][x]]] for x in range(omega_full.level_size(category.objects[pos])))
        )
    degeneracies = [g for g in full_cat.generators if g.source > g.target]
    witness = _naturality_violation(omega_full, transported, degeneracies)
    return witness is None, witness
