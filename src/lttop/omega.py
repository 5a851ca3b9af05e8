"""Classifying objects: the presheaf of sieve lattices Sub(y(-)).

Each level Omega(c) is the lattice of subpresheaves of y(c), the down-sets
of its cells, so it is a finite distributive (hence Heyting) lattice.  A
sieve is the integer of its ``Subpresheaf``, and the sieves of a level are
numbered in the order of those integers, so the empty sieve is first and
the full one last.  The order is read off the integers: S <= T is
``S & ~T == 0``, meet is AND, join is OR, and T covers S iff T adds to S
one class of cells with the same principal sieve.  The Heyting
laws are checked in the tests against an order-derived algebra, not on
every build.  The action along a generator g: d -> c is read off the
characteristic maps, chi_S(g) = g*S for a sieve S on c, so one kernel
serves both; ``FinitePresheaf`` composes every other action from the
generator tables, as it does for any presheaf.  Omega is built once per
category.
"""

from functools import lru_cache

from .presheaf import (
    DEFAULT_ENUMERATION_BOUND,
    BoundExceeded,
    EnumerationBoundExceeded,
    FinitePresheaf,
    PresheafMorphism,
    Subpresheaf,
    _principal,
    _yoneda_dimension,
    enumerate_subpresheaves,
    yoneda,
)

DEFAULT_SIEVE_BOUND = 2500


class OmegaBoundExceeded(BoundExceeded):
    def __init__(self, level, count, bound):
        super().__init__(
            f"level {level} has {count} sieves, which exceeds the bound {bound}", count, bound
        )
        self.level = level


class OmegaObject:
    """Sub(y(-)): per-level sieves, their integers, and pullback actions."""

    def __init__(self, category):
        self.category = category
        yonedas = []
        sieves = []
        for c in category.objects:
            # y(c) has a cell per morphism into c: check the enumeration
            # bound before building it, so an oversized level fails fast
            cells = sum(len(category.hom(l, c)) for l in category.objects)
            if cells > DEFAULT_ENUMERATION_BOUND:
                raise EnumerationBoundExceeded(cells, DEFAULT_ENUMERATION_BOUND)
            yk = yoneda(category, c)
            level = enumerate_subpresheaves(yk)
            if len(level) > DEFAULT_SIEVE_BOUND:
                raise OmegaBoundExceeded(c, len(level), DEFAULT_SIEVE_BOUND)
            yonedas.append(yk)
            sieves.append(level)
        self.yonedas = tuple(yonedas)
        self.sieves = tuple(sieves)
        self.packed = tuple(tuple(s.bits for s in level) for level in self.sieves)
        self._index = tuple({p: i for i, p in enumerate(level)} for level in self.packed)
        # the empty sieve is the integer 0 and the full one the largest
        self.top = tuple(len(level) - 1 for level in self.sieves)
        self.bottom = (0,) * len(self.sieves)
        carriers = {c: tuple(range(len(level))) for c, level in zip(category.objects, self.sieves)}
        gen_actions = {}
        for c, yc, packed in zip(category.objects, self.yonedas, self.packed):
            # Omega(g)(S) = g*S is chi_S at the cell g: d -> c of y(c)
            gens = [g for g in category.generators if g.target == c]
            rows = yc.level_orbits()
            orbits = [rows[category.obj_index(g.source)][yc.label_index(g.source, g)] for g in gens]
            pulled = [_chi_at(s, orbits) for s in packed]
            for n, g in enumerate(gens):
                index = self._index[category.obj_index(g.source)]
                gen_actions[g] = tuple(index[row[n]] for row in pulled)
        self._presheaf = FinitePresheaf(category, carriers, gen_actions, validate=False)

    # -- lookups --------------------------------------------------------

    def level_size(self, c):
        return len(self.sieves[self.category.obj_index(c)])

    def level_sizes(self):
        return tuple(len(level) for level in self.sieves)

    def sieve_index(self, sub):
        pos = sub.presheaf.category.obj_index(_yoneda_dimension(sub.presheaf))
        return self._index[pos][sub.bits]

    def act(self, f, i):
        """Sieve pullback along f in hom(a, b): level b index -> level a index."""
        return self._presheaf.act(f, i)

    def action_table(self, f):
        return self._presheaf.action_table(f)

    def top_at(self, c):
        return self.top[self.category.obj_index(c)]

    # -- the classifying presheaf itself ---------------------------------

    def as_presheaf(self):
        """Omega as a FinitePresheaf whose level-k elements are sieve indices.

        It holds the generator tables; every other action is composed from
        them.  Functoriality holds by construction; the tests check it.
        """
        return self._presheaf


@lru_cache(maxsize=None)
def classifying_object(category):
    """Omega for one of the built-in categories, built once per category."""
    return OmegaObject(category)


# -- characteristic functions ------------------------------------------


def _chi_at(bits, orbits):
    """chi of the subpresheaf with integer ``bits`` at the cells with the
    given orbit rows (``FinitePresheaf.level_orbits``): for each cell x of
    level c, the sieve x*bits as an integer in y(c)'s bit layout."""
    out = []
    for orbit in orbits:
        sieve = 0
        for p in orbit:
            sieve = sieve << 1 | bits >> p & 1
        out.append(sieve)
    return out


def characteristic_function(sub, omega):
    """The natural map A -> Omega classifying a subpresheaf A' of A.

    Each element maps to the sieve of morphisms pulling it into A'.
    """
    A = sub.presheaf
    if A.category is not omega.category:
        raise ValueError("subpresheaf and classifying object live over different categories")
    components = tuple(
        tuple(map(index.__getitem__, _chi_at(sub.bits, rows)))
        for rows, index in zip(A.level_orbits(), omega._index)
    )
    return PresheafMorphism(A, omega.as_presheaf(), components)


def pullback_of_true(chi, omega):
    """The subpresheaf classified by a morphism into Omega."""
    A = chi.source
    sets = {}
    for c in A.category.objects:
        top = omega.top_at(c)
        sets[c] = [x for x in range(len(A.carrier(c))) if chi.component(c, x) == top]
    return Subpresheaf.from_indices(A, sets)


# -- rendering ----------------------------------------------------------


def sieve_label(sub):
    """Short human-readable summary of a sieve, hiding degenerate cells."""
    parts = []
    for c in sub.presheaf.category.objects:
        labels = [str(l) for l in sub.level_labels(c) if getattr(l, "is_injective", True)]
        if labels:
            parts.append(f"{c}:" + "".join(labels))
    return " ".join(parts) if parts else "(empty)"


def hasse_covers(omega, pos):
    """The cover relation of level ``pos`` as sorted (lower, upper) pairs.

    T covers S iff T = S | P_x for a cell x whose principal sieve P_x adds
    to S exactly the class of x: the cells with the same principal.
    """
    y = omega.yonedas[pos]
    classes = {}  # each principal sieve -> the cells that generate it
    for offset, rows in zip(y.bit_offsets(), y.level_orbits()):
        for x, orbit in enumerate(rows):
            principal = _principal(orbit)
            classes[principal] = classes.get(principal, 0) | 1 << offset + x
    index = omega._index[pos]
    return sorted(
        (i, index[s | principal])
        for principal, cls in classes.items()
        for i, s in enumerate(omega.packed[pos])
        if principal & ~s == cls
    )


def hasse_dot(omega, level):
    """Deterministic DOT rendering of one level's Hasse diagram."""
    pos = omega.category.obj_index(level)
    lines = [f'digraph "omega_{level}" {{', "  rankdir=BT;"]
    for i, sieve in enumerate(omega.sieves[pos]):
        lines.append(f'  n{i} [label="{sieve_label(sieve)}"];')
    for a, b in hasse_covers(omega, pos):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
