"""Finite presheaves, subpresheaves, and natural transformations.

A presheaf stores one finite carrier per object of the index category and
one action table per morphism, indexed by the morphism's position in the
category's numbering (``fincat.morphism_plan``).  The generator tables
are given; every other table is composed from them along the morphism's
factorization, and functoriality is checked along generators (which
implies it for every composable pair).  The package reads tables by
position; ``act`` and ``action_table`` look a morphism's position up.  A
subpresheaf is one integer over the presheaf's cells
(``FinitePresheaf.bit_offsets``: level 0 in the highest bits), so meets
and joins are AND and OR, S <= T is ``S & ~T == 0``, and sorting the
integers sorts by level 0 first.  Every subpresheaf is a join of
principal ones, the orbits of its cells, and both enumeration and
generation are read off the cached orbit table.
"""

from functools import lru_cache

from .fincat import (
    FAMILY_FULL,
    FAMILY_SEMI,
    Record,
    build_index_category,
    face,
    morphism_plan,
)

DEFAULT_ENUMERATION_BOUND = 300


class FunctorialityError(ValueError):
    """Generator actions that do not assemble into a functor."""


class BoundExceeded(RuntimeError):
    """A size bound was exceeded; ``count`` is how far the computation got."""

    def __init__(self, message, count, bound):
        super().__init__(message)
        self.count = count
        self.bound = bound


class EnumerationBoundExceeded(BoundExceeded):
    def __init__(self, total, bound):
        super().__init__(f"carrier has {total} elements, enumeration bound is {bound}", total, bound)


class FinitePresheaf:
    """A finite presheaf over a built-in index category.

    ``carriers`` maps each object to an ordered tuple of element labels;
    ``gen_actions`` maps each generator f in hom(a, b) to an index tuple
    sending positions of carrier(b) to positions of carrier(a).  The
    actions along every morphism are kept as one tuple of tables in the
    category's numbering (``fincat.morphism_plan``): the identities, the
    generator tables as given, and every other action composed from them
    along the morphism's factorization.  Instances are immutable after
    construction; three derived tables are built on first use and kept:
    the label index (``label_index``), the orbit rows per level
    (``level_orbits``, in ``_level_rows``), the one incidence table the
    package reads, and the source sides of Yoneda searches out of the
    presheaf (``search_plan``, in ``_search_plans``).
    """

    def __init__(self, category, carriers, gen_actions, validate=True):
        self.category = category
        self.carriers = tuple(tuple(carriers.get(c, ())) for c in category.objects)
        sizes = [len(level) for level in self.carriers]
        self._offsets = tuple(sum(sizes[pos + 1 :]) for pos in range(len(sizes)))
        self.total_size = sum(sizes)
        plan = morphism_plan(category)
        self._index = plan.index
        tables = [None] * len(plan.morphisms)
        for p, n in zip(plan.identities, sizes):
            tables[p] = tuple(range(n))
        for g, (p, src, tgt) in zip(category.generators, plan.generators):
            table = tables[p] = tuple(gen_actions[g])
            if len(table) != sizes[tgt]:
                raise FunctorialityError(f"action table for {g} has the wrong length")
            if table and (min(table) < 0 or max(table) >= sizes[src]):
                raise FunctorialityError(f"action table for {g} is out of range")
        for p, word in plan.words:
            # X(g1 o ... o gm) = X(gm) o ... o X(g1)
            out = tables[word[0]]
            for q in word[1:]:
                out = tuple(map(tables[q].__getitem__, out))
            tables[p] = out
        self._tables = tuple(tables)
        self._label_index = None
        self._level_rows = None
        self._search_plans = None
        if validate:
            problem = self.functoriality_violation()
            if problem is not None:
                raise FunctorialityError(str(problem))

    def functoriality_violation(self):
        """None if X(g o f) = X(f) . X(g) for every generator g and every f
        into its source, else a witness (f, g, g o f).

        That suffices for every composable pair: the action of a composite
        is composed from generator tables along ``factor``, so by induction
        on the length of a word the composed table of any generator word is
        X of its composite, and X(h o f) = X(f) . X(h) follows from
        concatenating the words of h and f.
        """
        plan = morphism_plan(self.category)
        tables = self._tables
        for f, g, gf in plan.composites:
            table_f = tables[f]
            if tables[gf] != tuple(map(table_f.__getitem__, tables[g])):
                return tuple(map(plan.morphisms.__getitem__, (f, g, gf)))
        return None

    # -- basic access -------------------------------------------------

    def obj_index(self, c):
        return self.category.obj_index(c)

    def carrier(self, c):
        return self.carriers[self.category.obj_index(c)]

    def label_index(self, c, label):
        if self._label_index is None:
            self._label_index = tuple(
                {x: i for i, x in enumerate(level)} for level in self.carriers
            )
        return self._label_index[self.category.obj_index(c)][label]

    def act(self, f, x):
        """Index of X(f)(x) for f in hom(a, b) and x an index into X(b)."""
        return self._tables[self._index[f]][x]

    def action_table(self, f):
        return self._tables[self._index[f]]

    def face_tables(self, k):
        """The actions of face(k, 0), ..., face(k, k); simplex categories
        only, k >= 1."""
        return [self._tables[p] for p in morphism_plan(self.category).faces[k]]

    def elements(self):
        for c in self.category.objects:
            for i in range(len(self.carrier(c))):
                yield c, i

    def __eq__(self, other):
        if not isinstance(other, FinitePresheaf):
            return NotImplemented
        return (
            self.category is other.category
            and self.carriers == other.carriers
            and self._tables == other._tables
        )

    def __hash__(self):
        return hash((id(self.category), self.carriers))

    def __repr__(self):
        sizes = ",".join(str(len(level)) for level in self.carriers)
        return f"FinitePresheaf({self.category.kind}; sizes={sizes})"

    # -- bit layout and orbits ------------------------------------------

    def bit_offsets(self):
        """Per level, the bit of its cell 0: cell x of level c is bit
        ``bit_offsets()[obj_index(c)] + x``."""
        return self._offsets

    def level_orbits(self):
        """Per level, for each cell x in cell order: the bits of act(f, x)
        over the cells f of y(c), from y(c)'s highest bit down.

        Cached, and read by level position and cell index,
        ``level_orbits()[pos][x]``.  The principal subpresheaf of a cell is
        the OR of its orbit, so subpresheaf enumeration and generation are
        joins of these rows, and a characteristic function reads the sieve
        of a cell off its orbit one bit at a time.  A level's rows are its columns
        (``MorphismPlan.columns``), one shifted action table per morphism,
        read across.
        """
        if self._level_rows is None:
            plan = morphism_plan(self.category)
            tables = self._tables
            offsets = self._offsets
            self._level_rows = tuple(
                tuple(zip(*(map(offsets[l].__add__, tables[p]) for l, p in columns)))
                for columns in plan.columns
            )
        return self._level_rows


class Subpresheaf(Record):
    """An action-closed choice of subsets, stored as one integer in the
    presheaf's ``bit_offsets`` layout."""

    __slots__ = ("presheaf", "bits")

    def __init__(self, presheaf, bits):
        object.__setattr__(self, "presheaf", presheaf)
        object.__setattr__(self, "bits", bits)

    @staticmethod
    def from_sets(presheaf, sets):
        return Subpresheaf.from_indices(
            presheaf,
            {c: [presheaf.label_index(c, label) for label in labels] for c, labels in sets.items()},
        )

    @staticmethod
    def from_indices(presheaf, index_sets):
        bits = 0
        for c, offset in zip(presheaf.category.objects, presheaf.bit_offsets()):
            for i in index_sets.get(c, ()):
                bits |= 1 << offset + i
        return Subpresheaf(presheaf, bits)

    @staticmethod
    def full(presheaf):
        return Subpresheaf(presheaf, (1 << presheaf.total_size) - 1)

    @staticmethod
    def empty(presheaf):
        return Subpresheaf(presheaf, 0)

    def contains(self, c, x):
        return bool(self.level_mask(c) >> x & 1)

    def level_mask(self, c):
        """The cells of level c as a mask over that level's positions."""
        P = self.presheaf
        pos = P.obj_index(c)
        return self.bits >> P.bit_offsets()[pos] & (1 << len(P.carriers[pos])) - 1

    def level_indices(self, c):
        mask = self.level_mask(c)
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    def level_labels(self, c):
        level = self.presheaf.carrier(c)
        return tuple(level[i] for i in self.level_indices(c))

    def meet(self, other):
        return Subpresheaf(self.presheaf, self.bits & other.bits)

    def join(self, other):
        return Subpresheaf(self.presheaf, self.bits | other.bits)

    def leq(self, other):
        return not self.bits & ~other.bits

    @property
    def size(self):
        return bin(self.bits).count("1")

    @property
    def is_full(self):
        return self.bits == (1 << self.presheaf.total_size) - 1

    def closure_violation(self):
        """None if closed under every generator action, else a witness."""
        A = self.presheaf
        bits = self.bits
        offsets = A.bit_offsets()
        for g in A.category.generators:
            src = offsets[A.obj_index(g.source)]
            tgt = offsets[A.obj_index(g.target)]
            for x, y in enumerate(A.action_table(g)):
                if bits >> tgt + x & 1 and not bits >> src + y & 1:
                    return (g, x)
        return None

    def __str__(self):
        parts = []
        for c in self.presheaf.category.objects:
            labels = ",".join(str(l) for l in self.level_labels(c))
            parts.append(f"{c}:{{{labels}}}")
        return " ".join(parts)


def _principal(orbit):
    """The principal subpresheaf of one cell, the OR of its orbit's bits."""
    bits = 0
    for p in orbit:
        bits |= 1 << p
    return bits


def generated_subpresheaf(presheaf, seeds):
    """Least subpresheaf containing ``seeds``, a set of (object, index)
    pairs: the join of their principal subpresheaves."""
    rows = presheaf.level_orbits()
    bits = 0
    for c, x in seeds:
        bits |= _principal(rows[presheaf.obj_index(c)][x])
    return Subpresheaf(presheaf, bits)


def subpresheaf_bits(presheaf):
    """The integers of all action-closed level-wise subsets, sorted.

    A subpresheaf is the union of the principal subpresheaves of its cells,
    so closing {empty} under joins with each distinct principal lists every
    one exactly once.
    """
    total = presheaf.total_size
    if total > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundExceeded(total, DEFAULT_ENUMERATION_BOUND)
    principals = dict.fromkeys(
        _principal(orbit) for rows in presheaf.level_orbits() for orbit in rows
    )
    found = {0}
    for p in principals:
        found |= {s | p for s in found}
    return sorted(found)


def pack_lanes(presheaf, subs):
    """Subobject integers of a presheaf as the lanes of one integer, the
    form both closure kernels take (``topology._closed_bits`` and
    ``topology._closures_bits``).

    Returns (bits, lanes, stride): lane s holds ``subs[s]`` at bits
    s * stride to s * stride + stride - 1, and ``lanes`` has a 1 at each
    lane's base.  The stride is the presheaf's size rounded up to whole
    bytes, at least one byte (so the empty presheaf packs too), and the
    lanes are joined as bytes, in time linear in the packed size.
    """
    width = (presheaf.total_size + 7) // 8 or 1
    bits = int.from_bytes(b"".join(s.to_bytes(width, "little") for s in subs), "little")
    lanes = int.from_bytes((b"\1" + bytes(width - 1)) * len(subs), "little")
    return bits, lanes, 8 * width


def unpack_lanes(bits, stride, count):
    """The ``count`` lane integers of ``bits`` laid out by ``pack_lanes``
    with that ``stride``."""
    width = stride // 8
    data = bits.to_bytes(width * count, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def enumerate_subpresheaves(presheaf):
    """All subpresheaves, sorted by their integers (``subpresheaf_bits``)."""
    return tuple(Subpresheaf(presheaf, s) for s in subpresheaf_bits(presheaf))


# -- Yoneda objects, faces, boundaries ---------------------------------


@lru_cache(maxsize=None)
def yoneda(category, k):
    """The representable presheaf y(k): level l carries hom(l, k).

    Built once per (category, k); categories are cached singletons.
    """
    if k not in category.objects:
        raise ValueError(f"{k!r} is not an object of {category.kind}")
    carriers = {l: tuple(sorted(category.hom(l, k))) for l in category.objects}
    gen_actions = {}
    for g in category.generators:
        level = carriers[g.target]
        lookup = {m: i for i, m in enumerate(carriers[g.source])}
        gen_actions[g] = tuple(lookup[category.compose(m, g)] for m in level)
    return FinitePresheaf(category, carriers, gen_actions)


def _simplex_faces(category):
    if category.family not in (FAMILY_SEMI, FAMILY_FULL):
        raise ValueError(f"{category.kind} has no simplex faces")


def ith_face(category, k, i):
    """The least subpresheaf of y(k) containing the i-th face generator."""
    _simplex_faces(category)
    if not (1 <= k <= category.dim and 0 <= i <= k):
        raise ValueError(f"face index ({k}, {i}) out of range")
    yk = yoneda(category, k)
    seed = yk.label_index(k - 1, face(k, i))
    return generated_subpresheaf(yk, [(k - 1, seed)])


def boundary(category, k):
    """The join of all faces of y(k); empty when k = 0."""
    _simplex_faces(category)
    result = Subpresheaf.empty(yoneda(category, k))
    if k == 0:
        return result
    for i in range(k + 1):
        result = result.join(ith_face(category, k, i))
    return result


# -- incidence tuples ----------------------------------------------------


def parallel_cells(B, k):
    """Map incidence tuple (faces d_k .. d_0) -> list of level-k cells sharing it."""
    tables = B.face_tables(k)[::-1]
    table = {}
    for x, incidence in enumerate(zip(*tables)):
        table.setdefault(incidence, []).append(x)
    return table


# -- degeneracy bookkeeping between the semi and full variants ---------


def add_degeneracies(sub_plus):
    """Transport a semi-simplex sieve to the full-simplex side (adds degeneracies)."""
    semi = sub_plus.presheaf.category
    if semi.family != FAMILY_SEMI:
        raise ValueError("expected a subpresheaf over a semi-simplex category")
    full_category = build_index_category("simplex", semi.dim, max_dim=semi.dim)
    full_yoneda = yoneda(full_category, _yoneda_dimension(sub_plus.presheaf))
    seeds = []
    for l in semi.objects:
        for label in sub_plus.level_labels(l):
            seeds.append((l, full_yoneda.label_index(l, label)))
    return generated_subpresheaf(full_yoneda, seeds)


def strip_degeneracies(sub):
    """Transport a full-simplex sieve to the semi side (drops degeneracies)."""
    full = sub.presheaf.category
    if full.family != FAMILY_FULL:
        raise ValueError("expected a subpresheaf over a simplex category")
    semi_category = build_index_category("semisimplex", full.dim, max_dim=full.dim)
    semi_yoneda = yoneda(semi_category, _yoneda_dimension(sub.presheaf))
    sets = {}
    for l in full.objects:
        sets[l] = tuple(label for label in sub.level_labels(l) if label.is_injective)
    return Subpresheaf.from_sets(semi_yoneda, sets)


def _yoneda_dimension(yk):
    # a Yoneda object y(k) carries the identity at its own level k
    for c in reversed(yk.category.objects):
        for label in yk.carrier(c):
            if label.is_identity:
                return c
    raise ValueError("presheaf is not a Yoneda object")


# -- natural transformations -------------------------------------------


class PresheafMorphism(Record):
    """A natural transformation, stored as per-level index maps."""

    __slots__ = ("source", "target", "components")

    def component(self, c, x):
        return self.components[self.source.obj_index(c)][x]

    def naturality_violation(self):
        for g in self.source.category.generators:
            for x in range(len(self.source.carrier(g.target))):
                lhs = self.target.act(g, self.component(g.target, x))
                rhs = self.component(g.source, self.source.act(g, x))
                if lhs != rhs:
                    return (g, x)
        return None


def search_plan(source, bits):
    """The source side of the Yoneda search over the cells in ``bits``:
    (steps, positions), one step (bit, orbit, level position) per cell,
    lowest bit (last level) first, and ``positions`` those cells' bits in
    the same order.

    Cached on the source per ``bits`` (``_build_search_plan``).  Yoneda
    objects are cached singletons, so the plan of a sieve of y(c) is built
    once per category, whatever presheaves the search maps into.
    """
    plans = source._search_plans
    if plans is None:
        plans = source._search_plans = {}
    if bits not in plans:
        plans[bits] = _build_search_plan(source, bits)
    return plans[bits]


def _build_search_plan(source, bits):
    rows = source.level_orbits()
    offsets = source.bit_offsets()
    steps = []
    for pos in reversed(range(len(rows))):
        offset = offsets[pos]
        steps += (
            (offset + x, row, pos) for x, row in enumerate(rows[pos]) if bits >> offset + x & 1
        )
    return tuple(steps), tuple(bit for bit, _, _ in steps)


def morphism_search(source, target, bits):
    """The Yoneda search for natural maps source -> target over the source
    cells whose bits are set in ``bits``, in the order of their
    ``search_plan``.

    Returns ``extend(image)``, a generator that yields each time ``image``
    has been extended to a natural map on those cells.  ``image`` holds,
    per source bit, the target bit it is sent to or None; what it already
    holds must be natural and closed under the source's actions.

    Sending a cell x of level c to a cell y of target(c) sends act(f, x)
    to act(f, y) for every f into c (Yoneda), so x's orbit is paired with
    y's bit for bit: ``level_orbits`` lists both in y(c)'s order.  A cell
    that an earlier orbit reached is forced; every other cell branches
    over target(c)'s rows (``level_orbits``), keeping each y whose orbit
    agrees with the image so far.  Each branch undoes its writes in
    ``finally``, so the shared image is restored even when the caller
    abandons the search.
    """
    steps, _ = search_plan(source, bits)
    rows = target.level_orbits()

    def extend(image, n=0):
        while n < len(steps) and image[steps[n][0]] is not None:
            n += 1
        if n == len(steps):
            yield
            return
        _, orbit, pos = steps[n]
        for paired in rows[pos]:
            written = []
            try:
                for a, b in zip(orbit, paired):
                    if image[a] is None:
                        image[a] = b
                        written.append(a)
                    elif image[a] != b:
                        break
                else:
                    yield from extend(image, n + 1)
            finally:
                for a in written:
                    image[a] = None

    return extend


def components_of(source, target, image, bits):
    """Per level, the target indices ``image`` gives the source cells in
    ``bits``, in index order."""
    return tuple(
        tuple(image[offset + x] - t_offset for x in range(len(level)) if bits >> offset + x & 1)
        for level, offset, t_offset in zip(
            source.carriers, source.bit_offsets(), target.bit_offsets()
        )
    )


def enumerate_morphisms(source, target):
    """Yield every natural transformation source -> target: the Yoneda
    search of ``morphism_search`` over all of the source's cells."""
    full = (1 << source.total_size) - 1
    image = [None] * source.total_size
    for _ in morphism_search(source, target, full)(image):
        yield PresheafMorphism(source, target, components_of(source, target, image, full))
