"""Lawvere-Tierney topologies on the built-in presheaf toposes.

Two independent routes produce them:

* ``enumerate_topologies(..., method="brute")`` searches exhaustively over
  least covering sieves: J(c) = j^-1(top) is a principal filter up(m_c) of
  Omega(c), so a topology is a stable, transitive choice of one sieve per
  level (Mac Lane and Moerdijk, Sheaves in Geometry and Logic, III and V).
  It runs on every category at every dimension, knows nothing about the
  constructive family, and serves as the oracle.
* ``construct_bitstring_topology`` / ``method="constrained"`` build the
  per-dimension family indexed by a bit string: level 0 is the identity or
  the constant-top map, and each higher level is forced by the incidence
  tuple of the image except on the all-top fiber, where the bit decides
  between the boundary and the whole simplex.

Equality of topologies is extensional on the level maps; the bit-string
tag is metadata only.
"""

import itertools
from .fincat import FAMILY_BICOLOR, FAMILY_FULL, FAMILY_SEMI, Record, build_index_category, face
from .omega import classifying_object
from .presheaf import add_degeneracies, parallel_cells

BICOLOR_LABELS = ("00", "01", "02", "03", "10", "11", "12", "13")


class DegeneracyIncompatible(ValueError):
    """A bit string whose topology cannot commute with the degeneracies."""

    def __init__(self, word, witness=None):
        self.word = word
        self.witness = witness
        super().__init__(
            f"bit string {word!r} contains '10'; no topology with this closure "
            f"pattern commutes with the degeneracy actions"
            + (f" ({witness})" if witness is not None else "")
        )


class TopologyViolation(Record):
    __slots__ = ("kind", "level", "witness")  # kind: "true" | "idempotent" | "meet" | "naturality"

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
    """None if j satisfies the three axioms plus naturality, else a witness."""
    omega = j.omega
    cat = omega.category
    for c in cat.objects:
        pos = cat.obj_index(c)
        mapping = j.levels[pos]
        algebra = omega.algebras[pos]
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


# -- the constructive per-dimension family ------------------------------


def _check_word(category, word):
    if category.family == FAMILY_BICOLOR:
        raise ValueError("bit strings index simplex topologies; bicolored graphs use labels")
    if len(word) != category.dim + 1 or any(ch not in "01" for ch in word):
        raise ValueError(
            f"expected a bit string of length {category.dim + 1} over 0/1, got {word!r}"
        )


def _base_level_map(omega, bit):
    algebra = omega.algebras[0]
    if algebra.size != 2:
        raise RuntimeError("level 0 of Omega should always be the two-element chain")
    if bit:
        return tuple(algebra.top for _ in range(algebra.size))
    return tuple(range(algebra.size))


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
        raise DegeneracyIncompatible(word, _describe_violation(omega, problem))
    raise RuntimeError(f"constructed map is not a topology: {problem}")


def _describe_violation(omega, violation):
    if violation.kind != "naturality":
        return str(violation)
    g = violation.level
    x, lhs, rhs = violation.witness
    tgt = omega.category.obj_index(g.target)
    src = omega.category.obj_index(g.source)
    return (
        f"naturality square for {g} fails at sieve "
        f"{omega.sieves[tgt][x]}: level map then action gives "
        f"{omega.sieves[src][rhs]} but action then level map gives "
        f"{omega.sieves[src][lhs]}"
    )


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
    hollow_e = omega.index_of_masks("E", (3, 0, 0))
    hollow_e2 = omega.index_of_masks("E'", (3, 0, 0))
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


def _enumerate_covering(omega):
    """Topologies from their least covering sieves (the Grothendieck route).

    J(c) = j^-1(top) is a filter in the finite lattice Omega(c), hence
    principal: J(c) = up(m_c).  Choose m_c level by level, keep a choice
    only if f*m_c >= m_d for every generator f: d -> c (stability), and
    read the topology back as j_c(S) = {f: l -> c | f*S >= m_l}; that map
    must be idempotent (transitivity).  Knows nothing of the bit strings.
    """
    cat = omega.category
    n = len(cat.objects)
    leq = [a.leq for a in omega.algebras]
    # per level c and level l: pullback tables of the cells l -> c of y(c)
    cells = [
        [[omega.action_table(f) for f in y.carrier(l)] for l in cat.objects] for y in omega.yonedas
    ]
    # j_c can be built once the highest level l with a cell l -> c is chosen
    ready_at = [max(l for l in range(n) if row[l]) for row in cells]
    gens = [(cat.obj_index(g.source), cat.obj_index(g.target), omega.action_table(g)) for g in cat.generators]
    m = [None] * n
    maps = [None] * n
    results = []

    def level_map(c):
        out = []
        for s in range(len(omega.sieves[c])):
            masks = tuple(
                sum(1 << bit for bit, t in enumerate(tables) if leq[l](m[l], t[s]))
                for l, tables in enumerate(cells[c])
            )
            out.append(omega.index_of_masks(cat.objects[c], masks))
        return tuple(out)

    def choose(pos):
        if pos == n:
            j = LTTopology(omega, tuple(maps))
            if verify_topology(j) is None:
                results.append(j)
            return
        stability = [(d, c, t) for d, c, t in gens if max(d, c) == pos]
        ready = [c for c in range(n) if ready_at[c] == pos]
        for least in range(len(omega.sieves[pos])):
            m[pos] = least
            if any(not leq[d](m[d], t[m[c]]) for d, c, t in stability):
                continue
            for c in ready:
                maps[c] = level_map(c)
            # idempotent: each level map fixes its own image
            if all(maps[c][y] == y for c in ready for y in maps[c]):
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
            lifted = add_degeneracies(s)
            fwd.append(omega_full.index_of_masks(c, lifted.masks))
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
    for g in full_cat.generators:
        if g.source <= g.target:
            continue  # only the degeneracy generators, which raise dimension
        src = full_cat.obj_index(g.source)
        tgt = full_cat.obj_index(g.target)
        table = omega_full.action_table(g)
        for x in range(len(table)):
            lhs = transported[src][table[x]]
            rhs = table[transported[tgt][x]]
            if lhs != rhs:
                witness = {
                    "generator": g,
                    "input_level": g.target,
                    "input_sieve": omega_full.sieves[tgt][x],
                    "map_then_action": omega_full.sieves[src][rhs],
                    "action_then_map": omega_full.sieves[src][lhs],
                }
                return False, witness
    return True, None


# -- serialization --------------------------------------------------------


def topology_to_doc(j):
    cat = j.omega.category
    doc = {
        "category": cat.kind,
        "levels": {str(c): list(j.levels[cat.obj_index(c)]) for c in cat.objects},
    }
    if j.tag is not None:
        doc["tag"] = j.tag
    return doc


def topology_from_doc(doc):
    category = build_index_category(doc["category"])
    omega = classifying_object(category)
    levels = []
    for c in category.objects:
        levels.append(tuple(doc["levels"][str(c)]))
    j = LTTopology(omega, tuple(levels), tag=doc.get("tag"))
    problem = verify_topology(j)
    if problem is not None:
        raise ValueError(f"document does not describe a topology: {problem}")
    return j
