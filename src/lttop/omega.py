"""Classifying objects: the presheaf of sieve lattices Sub(y(-)).

Each level is the Heyting algebra of subpresheaves of the Yoneda object at
that level, ordered by inclusion; the lattice structure is recomputed from
inclusion rather than hard-coded.  Sieves are the action-closed sets of
cells, so each level is Heyting by construction and the laws are checked
in the tests, not on every build.  Actions between levels are sieve
pullbacks.  Incidence tuples (the ordered tuple of face pullbacks) drive
both the constructive topology family and the constrained enumerator.
"""

from .fincat import FAMILY_BICOLOR, face
from .lattice import FiniteHeytingAlgebra
from .presheaf import (
    DEFAULT_ENUMERATION_BOUND,
    FinitePresheaf,
    PresheafMorphism,
    Subpresheaf,
    _yoneda_dimension,
    boundary,
    enumerate_subpresheaves,
    yoneda,
)

DEFAULT_SIEVE_BOUND = 2500


class OmegaBoundExceeded(RuntimeError):
    def __init__(self, level, count, bound):
        super().__init__(
            f"level {level} has {count} sieves, which exceeds the bound {bound}"
        )
        self.level = level
        self.count = count
        self.bound = bound


def sieve_pullback(category, u, sieve, y_source=None):
    """The sieve { g | u o g in S } on u.source, for S a sieve on u.target.

    ``sieve`` is a subpresheaf of y(u.target); the result is a subpresheaf
    of y(u.source).
    """
    y_src = y_source if y_source is not None else yoneda(category, u.source)
    y_tgt = sieve.presheaf
    sets = {}
    for l in category.objects:
        members = []
        for g in y_src.carrier(l):
            composite = category.compose(u, g)
            if sieve.contains(l, y_tgt.label_index(l, composite)):
                members.append(g)
        sets[l] = members
    return Subpresheaf.from_sets(y_src, sets)


class OmegaObject:
    """Sub(y(-)) with per-level Heyting algebras and pullback actions."""

    def __init__(self, category, sieve_bound=DEFAULT_SIEVE_BOUND, enumeration_bound=DEFAULT_ENUMERATION_BOUND):
        self.category = category
        self.yonedas = tuple(yoneda(category, c) for c in category.objects)
        sieves = []
        for c, yk in zip(category.objects, self.yonedas):
            level = enumerate_subpresheaves(yk, bound=enumeration_bound)
            if len(level) > sieve_bound:
                raise OmegaBoundExceeded(c, len(level), sieve_bound)
            sieves.append(level)
        self.sieves = tuple(sieves)
        self._index = tuple({s.masks: i for i, s in enumerate(level)} for level in self.sieves)
        self.algebras = tuple(
            FiniteHeytingAlgebra.from_leq(
                lambda i, j, lv=level: lv[i].leq(lv[j]), len(level)
            )
            for level in self.sieves
        )
        self.top = tuple(alg.top for alg in self.algebras)
        self.bottom = tuple(alg.bottom for alg in self.algebras)
        self._actions = {}
        for f in category.all_morphisms():
            src_pos = category.obj_index(f.source)
            tgt_pos = category.obj_index(f.target)
            y_src = self.yonedas[src_pos]
            y_tgt = self.yonedas[tgt_pos]
            # where precomposition with f sends each cell of y(f.source)
            composed = [
                tuple(
                    y_tgt.label_index(l, category.compose(f, g))
                    for g in y_src.carrier(l)
                )
                for l in category.objects
            ]
            table = []
            for s in self.sieves[tgt_pos]:
                masks = []
                for l_pos, mapping in enumerate(composed):
                    sieve_mask = s.masks[l_pos]
                    mask = 0
                    for bit, into in enumerate(mapping):
                        if sieve_mask >> into & 1:
                            mask |= 1 << bit
                    masks.append(mask)
                table.append(self._index[src_pos][tuple(masks)])
            self._actions[f] = tuple(table)
        self._boundary = None
        self._incidence = None
        self._presheaf = None

    # -- lookups --------------------------------------------------------

    def level_size(self, c):
        return len(self.sieves[self.category.obj_index(c)])

    def level_sizes(self):
        return tuple(len(level) for level in self.sieves)

    def sieve(self, c, i):
        return self.sieves[self.category.obj_index(c)][i]

    def sieve_index(self, sub):
        pos = sub.presheaf.category.obj_index(_yoneda_dimension(sub.presheaf))
        return self._index[pos][sub.masks]

    def index_of_masks(self, c, masks):
        return self._index[self.category.obj_index(c)][masks]

    def algebra(self, c):
        return self.algebras[self.category.obj_index(c)]

    def act(self, f, i):
        """Sieve pullback along f in hom(a, b): level b index -> level a index."""
        return self._actions[f][i]

    def action_table(self, f):
        return self._actions[f]

    def top_at(self, c):
        return self.top[self.category.obj_index(c)]

    def boundary_index(self, k):
        """Index of the boundary sieve at a simplex level k >= 0."""
        if self.category.family == FAMILY_BICOLOR:
            raise ValueError("boundaries only exist over simplex categories")
        if self._boundary is None:
            out = []
            for c in self.category.objects:
                pos = self.category.obj_index(c)
                if c == 0:
                    out.append(self.bottom[pos])
                else:
                    b = boundary(self.category, c, yk=self.yonedas[pos])
                    out.append(self._index[pos][b.masks])
            self._boundary = tuple(out)
        return self._boundary[self.category.obj_index(k)]

    # -- the classifying presheaf itself ---------------------------------

    def as_presheaf(self):
        """Omega as a FinitePresheaf whose level-k elements are sieve indices."""
        if self._presheaf is None:
            carriers = {
                c: tuple(range(self.level_size(c))) for c in self.category.objects
            }
            gen_actions = {g: self._actions[g] for g in self.category.generators}
            self._presheaf = FinitePresheaf(self.category, carriers, gen_actions)
        return self._presheaf

    # -- incidence tuples -------------------------------------------------

    def incidence_tuple(self, k, i):
        """The tuple of face pullbacks (d_k, ..., d_0) of sieve i at level k."""
        if k == 0:
            raise ValueError("incidence tuples start at level 1")
        return tuple(self.act(face(k, j), i) for j in range(k, -1, -1))

    def incidence_lookup(self, k):
        """dict incidence tuple -> tuple of sieve indices at level k."""
        if self._incidence is None:
            self._incidence = {}
        if k not in self._incidence:
            table = {}
            for i in range(self.level_size(k)):
                table.setdefault(self.incidence_tuple(k, i), []).append(i)
            self._incidence[k] = {t: tuple(v) for t, v in table.items()}
        return self._incidence[k]

    def sieves_with_incidence(self, k, tup):
        """All sieves at level k with the given incidence tuple (possibly none)."""
        return self.incidence_lookup(k).get(tup, ())

    def unique_with_incidence(self, k, tup):
        """Resolve an incidence tuple to ("unique", sieve index) or
        ("ambiguous", (boundary index, top index)); KeyError when no sieve
        has the tuple (entries that do not share subfaces)."""
        matches = self.sieves_with_incidence(k, tup)
        if not matches:
            raise KeyError(f"no sieve at level {k} has incidence tuple {tup}")
        if len(matches) == 1:
            return ("unique", matches[0])
        return ("ambiguous", (self.boundary_index(k), self.top[self.category.obj_index(k)]))


def classifying_object(category, sieve_bound=DEFAULT_SIEVE_BOUND):
    """Compute Omega for one of the built-in categories."""
    return OmegaObject(category, sieve_bound=sieve_bound)


# -- characteristic functions ------------------------------------------


def characteristic_function(sub, omega):
    """The natural map A -> Omega classifying a subpresheaf A' of A.

    Each element maps to the sieve of morphisms pulling it into A'.
    """
    A = sub.presheaf
    cat = A.category
    if cat is not omega.category:
        raise ValueError("subpresheaf and classifying object live over different categories")
    orbits = A.sieve_orbits()
    components = []
    for c in cat.objects:
        pos = cat.obj_index(c)
        level = []
        for x in range(len(A.carrier(c))):
            per_level = orbits[(c, x)]
            masks = []
            for l in cat.objects:
                l_pos = cat.obj_index(l)
                mask = 0
                sub_mask = sub.masks[l_pos]
                for bit, target in enumerate(per_level[l_pos]):
                    if sub_mask >> target & 1:
                        mask |= 1 << bit
                masks.append(mask)
            level.append(omega.index_of_masks(c, tuple(masks)))
        components.append(tuple(level))
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


def sieve_label(sub, hide_degenerate=True):
    """Short human-readable summary of a sieve, hiding degenerate cells."""
    parts = []
    for c in sub.presheaf.category.objects:
        labels = [
            str(l)
            for l in sub.level_labels(c)
            if not hide_degenerate or getattr(l, "is_injective", True)
        ]
        if labels:
            parts.append(f"{c}:" + "".join(labels))
    return " ".join(parts) if parts else "(empty)"


def hasse_covers(algebra):
    """The cover relation of a finite poset as sorted (lower, upper) pairs."""
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
