"""Lawvere-Tierney topologies on the built-in presheaf toposes.

A topology is read through its covering sieves (Mac Lane and Moerdijk,
Sheaves in Geometry and Logic, III.2 and V.1): J(c) = j^-1(top) is a
principal filter up(m_c) of Omega(c), J is a subpresheaf of Omega, and j
is its characteristic map, j_c(S) = {f: l -> c | f*S >= m_l}.
``least_covering_sieves`` reads m off a topology, one sieve integer per
level, and every consumer tests ``S & m == m`` on plain integers: the
closures and the dense sieves of ``closure``, and the tags here, whose bit
at level c says whether m_c is a proper sieve.  ``verify_topology`` checks
the axioms on Omega's own tables: j fixes top, is idempotent, sends to top
exactly up(m), and commutes with every generator action.

For any topology, j_c(S) is the closure of S as a subobject of y(c)
(Mac Lane and Moerdijk, V.1-V.2), so both routes below read a level map
through a closure kernel on y(c), one call per level: every sieve of y(c)
is one lane of a single integer (``presheaf.pack_lanes``).  The kernels,
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
  on bit 0, fill it by faces on bit 1.

On a degeneracy-carrying category a word containing "10" has no
topology: its semi-simplicial topology is transported along the
add/strip-degeneracies bijections, and the failing degeneracy square is
the witness.  Equality of topologies is extensional on the level maps;
the bit-string tag is metadata only.
"""

import itertools
from functools import lru_cache, partial, reduce
from operator import and_

from .fincat import FAMILY_BICOLOR, FAMILY_FULL, FAMILY_SEMI, Record, build_index_category
from .omega import classifying_object
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
    """Per-level endomap of Omega, optionally tagged by its bit string.

    Equality reads ``levels`` only; ``omega`` and ``tag`` are context.  The
    private ``_least`` slot keeps ``least_covering_sieves`` once read; it
    is not a field, so equality, hashing and pickling do not see it.
    """

    __slots__ = ("omega", "levels", "tag", "_least")
    _defaults = {"tag": None}
    _compare = ("levels",)

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
    up(m_c) for the least covering sieves m (``least_covering_sieves``), and
    j_d(g*S) = g*(j_c(S)) for every generator g: d -> c.  That is exact:
    for f: l -> c, f is in j_c(S) iff f*(j_c(S)) = top iff (naturality)
    j_l(f*S) = top iff f*S >= m_l, so j is the characteristic map of
    up(m), and it preserves meets because f*(S & T) >= m_l iff both
    f*S >= m_l and f*T >= m_l.  Conversely a topology is natural, and its
    covering sieves form a filter, so up(m) is all of them.  A sieve
    x >= m_c with j_c(x) != top is reported as (x, j(x)); a failing square
    as (x, g), x the first failing sieve on g's target.
    """
    omega = j.omega
    cat = omega.category
    for c, mapping, top in zip(cat.objects, j.levels, omega.top):
        if mapping[top] != top:
            return TopologyViolation("true", c, (top, mapping[top]))
        for x in range(len(mapping)):
            if mapping[mapping[x]] != mapping[x]:
                return TopologyViolation("idempotent", c, (x,))
    least = least_covering_sieves(j)
    for c, mapping, top, packed, m in zip(cat.objects, j.levels, omega.top, omega.packed, least):
        for x, sieve in enumerate(packed):
            if sieve & m == m and mapping[x] != top:
                return TopologyViolation("covering", c, (x, mapping[x]))
    square = _naturality_violation(omega, j.levels, cat.generators)
    if square is not None:
        g = square["generator"]
        return TopologyViolation("covering", g.target, (square["input_index"], g))
    return None


def least_covering_sieves(j):
    """Per level, the least covering sieve m_c as an integer: the AND of
    the sieves j_c sends to top, starting from the full sieve.  For a
    topology J(c) = up(m_c), so the closure of A' in A holds the cells x
    of level c with x*A' >= m_c.  Read once per topology and kept in
    its ``_least`` slot."""
    least = getattr(j, "_least", None)
    if least is None:
        omega = j.omega
        least = tuple(
            reduce(and_, (packed[s] for s, v in enumerate(mapping) if v == top), packed[top])
            for mapping, top, packed in zip(j.levels, omega.top, omega.packed)
        )
        object.__setattr__(j, "_least", least)
    return least


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


def _closed_bits(word, A, bits, lanes=1):
    """The closures of subobjects of a simplex presheaf A under the word,
    one per lane as ``presheaf.pack_lanes`` lays them out (one subobject is
    one lane, with ``lanes`` = 1): copy a level on bit 0, and on bit 1 keep
    every cell outside the coface masks of the absent cells one level down
    (``FinitePresheaf.closure_plan``); level 0 fills completely.  A bit-1
    level walks every cell y one level down and clears y's coface mask in
    exactly the lanes that lack y.
    """
    for bit, (offset, full, below, cofaces) in zip(word, A.closure_plan()):
        if bit == "0":
            continue
        missing = ~bits >> below
        full *= lanes
        filled = full
        for y, coface in enumerate(cofaces):
            filled &= ~(coface * (missing >> y & lanes))
        bits = bits & ~(full << offset) | filled << offset
    return bits


def _closures_bits(leasts, A, bits, lanes=1):
    """For each tuple of least covering sieves in ``leasts``, the closures
    of subobjects of A under that topology, one per lane as in
    ``_closed_bits``.

    A cell x of level c stays in a lane iff x.f lies in that lane for every
    f in m_c.  Every lane is action-closed, x.(g o h) = (x.g).h, so it is
    enough that x.g lies in it for each g of a generating set of m_c
    (``_generator_positions``): the AND of ``bits >> p`` over those orbit
    positions p of x (``FinitePresheaf.sieve_orbits``).  A topology acts on
    level c only through m_c, so each (level, m_c) part is computed once
    and shared by the topologies with that m_c.  The generating sets, and
    which topologies share each part, are read off the plan of the
    category and ``leasts`` (``_chi_plan``), built once for every presheaf
    they close.
    """
    # the orbit table is keyed by every cell of A, in level order
    orbits = tuple(A.sieve_orbits().values())
    plan = _chi_plan(A.category, tuple(leasts))
    closed = [0] * len(leasts)
    start = 0
    for level, offset, groups in zip(A.carriers, A.bit_offsets(), plan):
        cells = orbits[start : start + len(level)]
        start += len(level)
        for chosen, shared_by in groups:
            part = 0
            for x, orbit in enumerate(cells):
                keep = lanes
                for i in chosen:
                    keep &= bits >> orbit[i]
                part |= keep << offset + x
            for t in shared_by:
                closed[t] |= part
    return closed


@lru_cache(maxsize=None)
def _chi_plan(category, leasts):
    """Per level c, one pair per distinct m_c among the tuples of least
    covering sieves ``leasts``: the orbit positions of a generating set of
    m_c (``_generator_positions``) and the positions in ``leasts`` of the
    tuples with that m_c, in order of first appearance.  Categories are
    cached singletons, so a plan is built once per category and list."""
    plan = []
    for pos in range(len(category.objects)):
        shared_by = {}
        for t, least in enumerate(leasts):
            shared_by.setdefault(least[pos], []).append(t)
        plan.append(
            tuple((_generator_positions(category, pos, m), tuple(ts)) for m, ts in shared_by.items())
        )
    return tuple(plan)


@lru_cache(maxsize=None)
def _generator_positions(category, pos, m):
    """The orbit positions (``FinitePresheaf.sieve_orbits``) of a set of
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
    offsets = yc.bit_offsets()
    principals = [
        (offsets[yc.obj_index(l)] + x, _principal(orbit))
        for (l, x), orbit in yc.sieve_orbits().items()
    ]
    principals = [(b, p) for b, p in principals if m >> b & 1]
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


def _bitstring_levels(omega, word):
    """j_k(S) is the closure of S as a subobject of y(k) under the word, for
    every sieve S of every level k, one ``_closed_bits`` call per level."""
    (levels,) = _level_maps(omega, lambda y, bits, lanes: [_closed_bits(word, y, bits, lanes)])
    return levels


def construct_bitstring_topology(category, word):
    """Build the topology whose closure fills exactly the dimensions with bit 1.

    On a degeneracy-carrying category a word containing "10" is rejected:
    the semi-simplicial topology of the word fails naturality with a
    degeneracy action once transported along ``degeneracy_compatible``, and
    the failing square is attached to the raised error as a witness.
    """
    _check_word(category, word)
    if category.family == FAMILY_FULL and "10" in word:
        semi = build_index_category("semisimplex", category.dim, max_dim=category.dim)
        _, square = degeneracy_compatible(construct_bitstring_topology(semi, word))
        raise DegeneracyIncompatible(word, square)
    omega = classifying_object(category)
    j = LTTopology(omega, _bitstring_levels(omega, word), tag=word)
    problem = verify_topology(j)
    if problem is not None:
        raise RuntimeError(f"constructed map is not a topology: {problem}")
    return j


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
    proper = [m != packed[-1] for m, packed in zip(least_covering_sieves(j), omega.packed)]
    if omega.category.family == FAMILY_BICOLOR:
        v, e, e2 = proper  # the levels V, E, E'
        tag = f"{v:d}{e + 2 * e2}"
    else:
        tag = "".join(f"{p:d}" for p in proper)
    return LTTopology(omega, j.levels, tag=tag)


# -- enumeration ---------------------------------------------------------


def _transitive_at(omega, m, c):
    """Whether m_c <= m_c.m = {f o g | f in m_c, g in m_(dom f)}, with m
    the packed least covering sieves.  The orbit row of a cell f: l -> c
    of y(c) holds the bit of f o g for every cell g of y(l), from y(l)'s
    highest bit down, so g at bit b of y(l) is entry len(row) - 1 - b.
    Rows are read from the highest level down: those cells reach the
    most, so the loop can stop early."""
    y = omega.yonedas[c]
    obj_index = omega.category.obj_index
    offsets = y.bit_offsets()
    mc = m[c]
    reach = 0
    for (level, f), row in reversed(y.sieve_orbits().items()):
        if not mc & ~reach:
            break
        l = obj_index(level)
        if mc >> offsets[l] + f & 1:
            ml = m[l]
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
    ready_at = [max(cat.obj_index(l) for l, _ in y.sieve_orbits()) for y in omega.yonedas]
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
    found = (LTTopology(omega, levels) for levels in maps)
    return [j for j in found if verify_topology(j) is None]


def _enumerate_constrained(omega):
    """One topology per bit string, skipping the words with "10" on a
    degeneracy-carrying category."""
    cat = omega.category
    if cat.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError("constrained enumeration needs a simplex category")
    words = ("".join(bits) for bits in itertools.product("01", repeat=cat.dim + 1))
    return [
        construct_bitstring_topology(cat, word)
        for word in words
        if cat.family == FAMILY_SEMI or "10" not in word
    ]


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


def topology_by_tag(category, tag):
    """Fetch one topology by its bit string or bicolored label."""
    if category.family == FAMILY_BICOLOR:
        for j in enumerate_topologies(category):
            if j.tag == tag:
                return j
        raise ValueError(f"no topology labelled {tag!r}; known labels: {BICOLOR_LABELS}")
    return construct_bitstring_topology(category, tag)


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
