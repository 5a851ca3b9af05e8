"""Classifying objects: the presheaf of sieve lattices Sub(y(-)).

Each level is the Heyting algebra of subpresheaves of the Yoneda object at
that level, ordered by inclusion; the lattice structure is recomputed from
inclusion rather than hard-coded.  Sieves are the action-closed sets of
cells, so each level is Heyting by construction and the laws are checked
in the tests, not on every build.  The action along a generator g: d -> c
is read off the characteristic maps, chi_S(g) = g*S for a sieve S on c, so
one mask kernel serves both; ``FinitePresheaf`` composes every other
action from the generator tables, as it does for any presheaf.  Omega is
built once per category.
"""

from functools import lru_cache

from .fincat import FAMILY_BICOLOR
from .lattice import FiniteHeytingAlgebra
from .presheaf import (
    BoundExceeded,
    FinitePresheaf,
    PresheafMorphism,
    Subpresheaf,
    _yoneda_dimension,
    boundary,
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
    """Sub(y(-)) with per-level Heyting algebras and pullback actions."""

    def __init__(self, category):
        self.category = category
        self.yonedas = tuple(yoneda(category, c) for c in category.objects)
        sieves = []
        for c, yk in zip(category.objects, self.yonedas):
            level = enumerate_subpresheaves(yk)
            if len(level) > DEFAULT_SIEVE_BOUND:
                raise OmegaBoundExceeded(c, len(level), DEFAULT_SIEVE_BOUND)
            sieves.append(level)
        self.sieves = tuple(sieves)
        self._index = tuple({s.masks: i for i, s in enumerate(level)} for level in self.sieves)
        self.algebras = tuple(_inclusion_algebra(level) for level in self.sieves)
        self.top = tuple(alg.top for alg in self.algebras)
        self.bottom = tuple(alg.bottom for alg in self.algebras)
        self._boundary = None
        carriers = {c: tuple(range(len(level))) for c, level in zip(category.objects, self.sieves)}
        gen_actions = {}
        for c, yc, level in zip(category.objects, self.yonedas, self.sieves):
            # Omega(g)(S) = g*S is chi_S at the cell g: d -> c of y(c)
            gens = [g for g in category.generators if g.target == c]
            cells = [(g.source, yc.label_index(g.source, g)) for g in gens]
            pulled = [_chi_at(s, self._index, cells) for s in level]
            for n, g in enumerate(gens):
                gen_actions[g] = tuple(row[n] for row in pulled)
        self._presheaf = FinitePresheaf(category, carriers, gen_actions, validate=False)

    # -- lookups --------------------------------------------------------

    def level_size(self, c):
        return len(self.sieves[self.category.obj_index(c)])

    def level_sizes(self):
        return tuple(len(level) for level in self.sieves)

    def sieve_index(self, sub):
        pos = sub.presheaf.category.obj_index(_yoneda_dimension(sub.presheaf))
        return self._index[pos][sub.masks]

    def index_of_masks(self, c, masks):
        return self._index[self.category.obj_index(c)][masks]

    def act(self, f, i):
        """Sieve pullback along f in hom(a, b): level b index -> level a index."""
        return self._presheaf.act(f, i)

    def action_table(self, f):
        return self._presheaf.action_table(f)

    def top_at(self, c):
        return self.top[self.category.obj_index(c)]

    def boundary_index(self, k):
        """Index of the boundary sieve at a simplex level k >= 0."""
        if self.category.family == FAMILY_BICOLOR:
            raise ValueError("boundaries only exist over simplex categories")
        if self._boundary is None:
            self._boundary = tuple(
                self._index[pos][boundary(self.category, c).masks]
                for pos, c in enumerate(self.category.objects)
            )
        return self._boundary[self.category.obj_index(k)]

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


def _inclusion_algebra(level):
    """The sieves of one level ordered by inclusion, read off their packed
    masks: S <= T is a single ``S & ~T == 0``."""
    pack = level[0].presheaf.pack
    packed = [pack(s.masks) for s in level]
    pairs = [
        (i, j) for i, p in enumerate(packed) for j, q in enumerate(packed) if p & ~q == 0
    ]
    return FiniteHeytingAlgebra(pairs, len(level))


# -- characteristic functions ------------------------------------------


def _chi_at(sub, index, cells):
    """Sieve indices of chi_sub at the given (level, position) cells of its
    presheaf; ``index`` maps each level's masks to sieve indices."""
    A = sub.presheaf
    orbits = A.sieve_orbits()
    obj_index = A.category.obj_index
    sub_masks = sub.masks
    out = []
    for c, x in cells:
        masks = []
        for sub_mask, targets in zip(sub_masks, orbits[(c, x)]):
            mask = 0
            for bit, target in enumerate(targets):
                if sub_mask >> target & 1:
                    mask |= 1 << bit
            masks.append(mask)
        out.append(index[obj_index(c)][tuple(masks)])
    return out


def characteristic_function(sub, omega):
    """The natural map A -> Omega classifying a subpresheaf A' of A.

    Each element maps to the sieve of morphisms pulling it into A'.
    """
    A = sub.presheaf
    if A.category is not omega.category:
        raise ValueError("subpresheaf and classifying object live over different categories")
    # the orbit table is keyed by every cell of A, in level order
    flat = _chi_at(sub, omega._index, A.sieve_orbits())
    components = []
    end = 0
    for level in A.carriers:
        start, end = end, end + len(level)
        components.append(tuple(flat[start:end]))
    return PresheafMorphism(A, omega.as_presheaf(), tuple(components))


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


def hasse_covers(algebra):
    """The cover relation of a finite poset as sorted (lower, upper) pairs.

    b covers a iff the interval up(a) & down(b) is exactly {a, b}; both
    masks are kept by the algebra.
    """
    up, down = algebra._up, algebra._down
    return [
        (a, b)
        for a in algebra.elements()
        for b in algebra.elements()
        if a != b and up[a] & down[b] == (1 << a) | (1 << b)
    ]


def hasse_dot(omega, level):
    """Deterministic DOT rendering of one level's Hasse diagram."""
    pos = omega.category.obj_index(level)
    algebra = omega.algebras[pos]
    lines = [f'digraph "omega_{level}" {{', "  rankdir=BT;"]
    for i in range(algebra.size):
        label = sieve_label(omega.sieves[pos][i])
        lines.append(f'  n{i} [label="{label}"];')
    for a, b in hasse_covers(algebra):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
