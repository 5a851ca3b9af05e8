"""Lawvere-Tierney topologies on the built-in presheaf toposes.

A topology is read through its covering sieves (Mac Lane and Moerdijk,
Sheaves in Geometry and Logic, III.2 and V.1): J(c) = j^-1(top) is a
principal filter up(m_c) of Omega(c), and j_c(S) = {f: l -> c | f*S >= m_l}.
``verify_topology`` checks a candidate that way: each level map fixes top,
is idempotent, and equals the map its own least covering sieves determine,
which preserves meets and is natural by construction.

Two independent routes produce topologies:

* ``enumerate_topologies(..., method="brute")`` searches exhaustively over
  least covering sieves, keeping a stable, transitive choice of one sieve
  per level and reading the level maps back with the same kernel
  (``_covering_map``) the check uses.  It runs on every category at every
  dimension, knows nothing about the constructive family, and serves as
  the oracle.
* ``construct_bitstring_topology`` / ``method="constrained"`` build the
  per-dimension family indexed by a bit string: level 0 is the identity or
  the constant-top map, and each higher level is forced by the incidence
  tuple of the image except on the all-top fiber, where the bit decides
  between the boundary and the whole simplex.

Naturality is checked directly only for the degeneracies, whose failing
square is the witness of a bit string containing "10".  Equality of
topologies is extensional on the level maps; the bit-string tag is
metadata only.
"""

import itertools
from functools import lru_cache, reduce
from operator import and_

from .fincat import FAMILY_BICOLOR, FAMILY_FULL, FAMILY_SEMI, Record, build_index_category, face
from .omega import classifying_object
from .presheaf import Subpresheaf, add_degeneracies, parallel_cells

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
    __slots__ = ("kind", "level", "witness")  # kind: "true" | "idempotent" | "covering"

    def __str__(self):
        return f"{self.kind} fails at level {self.level}, witness {self.witness}"


class LTTopology(Record):
    """Per-level endomap of Omega, optionally tagged by its bit string.

    Equality reads ``levels`` only; ``omega`` and ``tag`` are context.
    """

    __slots__ = ("omega", "levels", "tag")
    _defaults = {"tag": None}
    _compare = ("levels",)

    def level_map(self, c):
        return self.levels[self.omega.category.obj_index(c)]

    def __hash__(self):
        return hash((self.omega.category.kind, self.levels))

    def __str__(self):
        name = self.tag if self.tag is not None else "untagged"
        return f"LTTopology[{name}] on {self.omega.category.kind}"


def verify_topology(j):
    """None if j is a Lawvere-Tierney topology, else a witness.

    Each level map must fix top, be idempotent, and equal the map its own
    least covering sieves determine: with m_c the meet of j_c^-1(top),
    j_c(S) = {f: l -> c | f*S >= m_l}.  Such a map preserves meets and is
    natural for any m, so the three checks are complete.
    """
    omega = j.omega
    cat = omega.category
    least = []
    for c, mapping, top, packed, index in zip(
        cat.objects, j.levels, omega.top, omega.packed, omega._index
    ):
        if mapping[top] != top:
            return TopologyViolation("true", c, (top, mapping[top]))
        for x in range(len(packed)):
            if mapping[mapping[x]] != mapping[x]:
                return TopologyViolation("idempotent", c, (x,))
        least.append(index[reduce(and_, (packed[s] for s, v in enumerate(mapping) if v == top))])
    least = tuple(least)
    for pos, (c, mapping) in enumerate(zip(cat.objects, j.levels)):
        for x, want in enumerate(_covering_map(omega, least, pos)):
            if mapping[x] != want:
                return TopologyViolation("covering", c, (x, mapping[x], want))
    return None


@lru_cache(maxsize=None)
def _cell_tables(omega):
    """Per level c: (l, pullback table of f) for every cell f: l -> c of
    y(c), from y(c)'s highest bit down."""
    return tuple(
        tuple(
            (l, omega.action_table(f))
            for l, cells in enumerate(y.carriers)
            for f in reversed(cells)
        )
        for y in omega.yonedas
    )


@lru_cache(maxsize=128)
def _covering_map(omega, least, c):
    """j_c(S) = {f: l -> c | f*S >= m_l} for every sieve S on level c, as
    sieve indices, given the tuple of indices m_l of each level's least
    covering sieve; None where those cells are not a sieve.  Reads m_l only
    for the levels l with a cell l -> c.  Memoised because the brute route
    builds a complete choice's maps and ``verify_topology`` reads them back
    at once; the bound keeps a process that verifies many candidates from
    holding every map it ever built."""
    cells = _cell_tables(omega)[c]
    above = {}  # per level l: the sieves S >= m_l, as a bitmask over their indices
    for l, _ in cells:
        if l not in above:
            m = omega.packed[l][least[l]]
            above[l] = sum(1 << s for s, p in enumerate(omega.packed[l]) if p & m == m)
    index = omega._index[c]
    out = []
    for s in range(len(omega.sieves[c])):
        sieve = 0
        for l, table in cells:
            sieve = sieve << 1 | above[l] >> table[s] & 1
        out.append(index.get(sieve))
    return tuple(out)


def _naturality_violation(omega, levels, generators):
    """The first failing square j_d . g* = g* . j_c over the given
    generators g: d -> c, as a dict of sieves, or None."""
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
    bnd = omega.boundary_index(k)
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


def construct_bitstring_topology(category, word):
    """Build the topology whose closure fills exactly the dimensions with bit 1.

    On a degeneracy-carrying category a word containing "10" is rejected:
    the constructed maps fail naturality with a degeneracy action, and the
    failing square is attached to the raised error as a witness.
    """
    _check_word(category, word)
    omega = classifying_object(category)
    j = LTTopology(omega, _bitstring_levels(omega, word), tag=word)
    problem = verify_topology(j)
    if problem is None:
        return j
    if category.family == FAMILY_FULL and "10" in word:
        square = _naturality_violation(omega, j.levels, category.generators)
        raise DegeneracyIncompatible(word, square)
    raise RuntimeError(f"constructed map is not a topology: {problem}")


# -- tagging -------------------------------------------------------------


def _simplex_tag(omega, levels):
    bits = []
    for c in omega.category.objects:
        pos = omega.category.obj_index(c)
        bnd = omega.boundary_index(c)
        bits.append("1" if levels[pos][bnd] == omega.top[pos] else "0")
    return "".join(bits)


def _bicolor_tag(omega, levels):
    cat = omega.category
    v_pos, e_pos, e2_pos = (cat.obj_index(c) for c in ("V", "E", "E'"))
    vertex_bit = 1 if levels[v_pos][omega.bottom[v_pos]] == omega.top[v_pos] else 0
    # the hollow edge: both vertices of the edge and nothing else
    hollow_e, hollow_e2 = (
        omega.sieve_index(Subpresheaf.from_indices(omega.yonedas[pos], {"V": (0, 1)}))
        for pos in (e_pos, e2_pos)
    )
    edge_digit = (1 if levels[e_pos][hollow_e] == omega.top[e_pos] else 0) + (
        2 if levels[e2_pos][hollow_e2] == omega.top[e2_pos] else 0
    )
    return f"{vertex_bit}{edge_digit}"


def tag_topology(j):
    """Attach the closure-pattern tag read off from the level maps."""
    omega = j.omega
    if omega.category.family == FAMILY_BICOLOR:
        tag = _bicolor_tag(omega, j.levels)
    else:
        tag = _simplex_tag(omega, j.levels)
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
    Both tests read the sieve integers; the level maps
    j_c(S) = {f: l -> c | f*S >= m_l} are built only for a complete choice,
    once, and ``verify_topology`` then checks them.  Knows nothing of the
    bit strings.
    """
    cat = omega.category
    n = len(cat.objects)
    packed = omega.packed
    # transitivity at c can be tested once every level l with a cell l -> c is chosen
    ready_at = [max(cat.obj_index(l) for l, _ in y.sieve_orbits()) for y in omega.yonedas]
    gens = [(cat.obj_index(g.source), cat.obj_index(g.target), omega.action_table(g)) for g in cat.generators]
    m = [None] * n  # sieve indices
    bits = [None] * n  # and their integers
    results = []

    def choose(pos):
        if pos == n:
            least = tuple(m)
            j = LTTopology(omega, tuple(_covering_map(omega, least, c) for c in range(n)))
            if verify_topology(j) is None:
                results.append(j)
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
    return results


def _enumerate_constrained(omega):
    cat = omega.category
    if cat.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError("constrained enumeration needs a simplex category")
    results = []
    for bits in itertools.product("01", repeat=cat.dim + 1):
        word = "".join(bits)
        j = LTTopology(omega, _bitstring_levels(omega, word), tag=word)
        if verify_topology(j) is None:
            results.append(j)
    return results


def enumerate_topologies(category, method="auto"):
    """All topologies on the category, complete and duplicate-free.

    ``method`` is "brute" (least covering sieves; every category, and
    independent of the bit-string family), "constrained" (incidence
    propagation; simplex categories only), or "auto" (constrained on
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
    full_cat = build_index_category("simplex", category.dim)
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
