"""Finite index categories underlying the presheaf toposes we compute in.

Variance convention, fixed once and used by every other module: for a
category C built here, ``hom(a, b)`` is the set of C-morphisms a -> b, and
a presheaf X assigns to each f in hom(a, b) an action X(f): X(b) -> X(a)
(contravariant).  Morphisms of the simplex categories are stored as the
monotone maps themselves, so the face/degeneracy interchange laws hold by
function composition instead of by word rewriting.

Generators of the truncated simplex categories:

* ``face(k, i)`` in hom(k-1, k): the strictly monotone map that skips the
  value i.  Its action X(k) -> X(k-1) selects the i-th face, so the source
  of an edge (v0, v1) is its 1st face and the target its 0th.
* ``degeneracy(k, i)`` in hom(k+1, k): the monotone surjection repeating
  the value i.  Its action X(k) -> X(k+1) produces degenerate simplices.

Every morphism carries explicit source/target dimensions; nothing is
inferred from index ranges.
"""

import itertools
from functools import lru_cache
from operator import attrgetter

DEFAULT_MAX_DIM = 4

FAMILY_SEMI = "semisimplex"
FAMILY_FULL = "simplex"
FAMILY_BICOLOR = "bicolgraph"

#: friendly kind -> (family, forced dimension or None)
KIND_ALIASES = {
    "set": (FAMILY_SEMI, 0),
    "graph": (FAMILY_SEMI, 1),
    "reflgraph": (FAMILY_FULL, 1),
    "bicolgraph": (FAMILY_BICOLOR, None),
    "semisimplex": (FAMILY_SEMI, None),
    "simplex": (FAMILY_FULL, None),
}


class Record:
    """An immutable value with named fields.

    A subclass lists its fields, in constructor order, in ``__slots__``;
    slot names that start with ``_`` are private and are not fields.  It
    may give trailing fields defaults in ``_defaults`` and restrict the
    fields that equality and hashing read to ``_compare``.  Records
    compare and hash as the tuple of those fields (the value, for a single
    compared field), return NotImplemented
    against other classes, print as ``Name(field=value, ...)`` and refuse
    assignment.  Every lttop process imports this module: the standard
    library's generated record classes would import ``inspect`` and
    compile methods per class on every start, which costs more than
    importing the rest of the package.
    """

    __slots__ = ()
    _defaults = {}
    _compare = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        compared = cls._compare or cls._fields
        if compared:
            cls._key = attrgetter(*compared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def _bind(self, args, kwargs):
        """Every field's value for a call that uses keywords or defaults."""
        fields = self._fields
        values = {**self._defaults, **kwargs}
        values.update(zip(fields, args))
        if (
            len(args) > len(fields)
            or any(name in kwargs for name in fields[: len(args)])
            or values.keys() != set(fields)
        ):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {fields}; got "
                f"{len(args)} positional and the keywords {tuple(kwargs)}"
            )
        return [values[name] for name in fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class OrderedRecord(Record):
    """A record that also orders as the tuple of its compared fields."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) <= self._key(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) > self._key(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) >= self._key(other)
        return NotImplemented


class SimplexMorphism(OrderedRecord):
    """A monotone map {0..source} -> {0..target} between simplex objects."""

    __slots__ = ("source", "target", "values", "_hash")

    def __init__(self, source, target, values):
        if len(values) != source + 1:
            raise ValueError(f"expected {source + 1} values, got {values}")
        if values and (min(values) < 0 or max(values) > target):
            raise ValueError(f"values {values} out of range 0..{target}")
        if list(values) != sorted(values):
            raise ValueError(f"values {values} are not monotone")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((source, target, values)))

    def __hash__(self):
        return self._hash

    @property
    def is_identity(self):
        return self.source == self.target and self.values == tuple(range(self.source + 1))

    @property
    def is_injective(self):
        return len(set(self.values)) == self.source + 1

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + ")"


class NamedMorphism(OrderedRecord):
    """A morphism of an explicitly tabulated category, identified by name."""

    __slots__ = ("source", "target", "name")

    @property
    def is_identity(self):
        return self.name == "id"

    @property
    def is_injective(self):
        return True

    def __str__(self):
        return self.name


def simplex_identity(k):
    return SimplexMorphism(k, k, tuple(range(k + 1)))


@lru_cache(maxsize=None)
def face(k, i):
    """The injection {0..k-1} -> {0..k} skipping i, i.e. hom(k-1, k)."""
    if not (1 <= k and 0 <= i <= k):
        raise ValueError(f"face({k}, {i}) out of range")
    return SimplexMorphism(k - 1, k, tuple(v for v in range(k + 1) if v != i))


@lru_cache(maxsize=None)
def degeneracy(k, i):
    """The surjection {0..k+1} -> {0..k} repeating i, i.e. hom(k+1, k)."""
    if not (0 <= i <= k):
        raise ValueError(f"degeneracy({k}, {i}) out of range")
    values = list(range(i + 1)) + list(range(i, k + 1))
    return SimplexMorphism(k + 1, k, tuple(values))


def compose_simplex(g, f):
    """g after f for f: a -> b, g: b -> c."""
    if f.target != g.source:
        raise ValueError(f"cannot compose {g} after {f}")
    return SimplexMorphism(f.source, g.target, tuple(g.values[v] for v in f.values))


def normal_form(f):
    """Split a simplex morphism into (degeneracy indices, face indices).

    Returns ``(degens, faces)`` where ``degens`` is the strictly increasing
    tuple of positions j with f(j) = f(j+1) and ``faces`` is the strictly
    decreasing tuple of values missing from the image.  Recomposition:

        f = face(b, faces[0]) o ... o face(s+1, faces[-1])
              o degeneracy(s, degens[0]) o ... o degeneracy(a-1, degens[-1])

    where a = f.source, b = f.target, s = a - len(degens).  The pair is a
    bijection between morphisms and index tuples with these orderings.
    """
    degens = tuple(j for j in range(f.source) if f.values[j] == f.values[j + 1])
    image = set(f.values)
    faces = tuple(v for v in range(f.target, -1, -1) if v not in image)
    return degens, faces


class FiniteIndexCategory:
    """A finite category given by objects, hom sets, and composition.

    Instances are immutable after construction and safe to share between
    concurrent workers.
    """

    def __init__(self, kind, family, dim, objects, hom, generators, compose_fn, identity_fn, factor_fn):
        self.kind = kind
        self.family = family
        self.dim = dim
        self.objects = tuple(objects)
        self.generators = tuple(generators)
        self._identities = {c: identity_fn(c) for c in self.objects}
        # the hom sets hold the generator and identity objects themselves, so
        # a table keyed by one finds the other without calling __eq__
        own = {f: f for f in (*self.generators, *self._identities.values())}
        self._hom = {pair: tuple(own.get(f, f) for f in ms) for pair, ms in hom.items()}
        self._compose = compose_fn
        self._factor = factor_fn
        self._obj_index = {c: i for i, c in enumerate(self.objects)}

    def __repr__(self):
        return f"FiniteIndexCategory({self.kind!r})"

    def obj_index(self, c):
        return self._obj_index[c]

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def identity(self, c):
        return self._identities[c]

    def compose(self, g, f):
        """g after f for f: a -> b, g: b -> c."""
        return self._compose(g, f)

    def factor(self, f):
        """A generator list [g1, ..., gm] with f = g1 o g2 o ... o gm."""
        return self._factor(f)

    def all_morphisms(self):
        for pair in sorted(self._hom, key=lambda p: (self._obj_index[p[0]], self._obj_index[p[1]])):
            yield from self._hom[pair]


class MorphismPlan:
    """A category's morphisms numbered once, in ``all_morphisms()`` order,
    with everything a presheaf reads by position: ``tables[index[f]]`` is
    the action of f.

    * ``identities``: per object, the position of its identity;
    * ``generators``: per generator, (position, level of its source, level
      of its target), in ``category.generators`` order;
    * ``words``: (position of f, positions of ``factor(f)``) for every f
      that is neither an identity nor a generator, so X(f) composes the
      generator tables along the word;
    * ``composites``: (f, g, g o f) as positions, for every generator g and
      every f into its source: the squares functoriality is checked on;
    * ``columns``: per level c, the (level l, position of f) pairs over
      l in object order and f in ``reversed(hom(l, c))``, the order of an
      orbit row (``FinitePresheaf.level_orbits``);
    * ``faces``: over a simplex category, per level k the positions of
      ``face(k, 0)`` ... ``face(k, k)`` (none at level 0); empty otherwise.

    Built once per category (``morphism_plan``).
    """

    __slots__ = (
        "morphisms",
        "index",
        "identities",
        "generators",
        "words",
        "composites",
        "columns",
        "faces",
    )

    def __init__(self, category):
        objects = category.objects
        level = category.obj_index
        self.morphisms = tuple(category.all_morphisms())
        index = self.index = {f: p for p, f in enumerate(self.morphisms)}
        self.identities = tuple(index[category.identity(c)] for c in objects)
        self.generators = tuple(
            (index[g], level(g.source), level(g.target)) for g in category.generators
        )
        given = {*self.identities, *(p for p, _, _ in self.generators)}
        self.words = tuple(
            (p, tuple(index[g] for g in category.factor(f)))
            for p, f in enumerate(self.morphisms)
            if p not in given
        )
        self.composites = tuple(
            (index[f], index[g], index[category.compose(g, f)])
            for g in category.generators
            for a in objects
            for f in category.hom(a, g.source)
        )
        self.columns = tuple(
            tuple(
                (l, index[f]) for l, a in enumerate(objects) for f in reversed(category.hom(a, c))
            )
            for c in objects
        )
        self.faces = ()
        if category.family in (FAMILY_SEMI, FAMILY_FULL):
            self.faces = tuple(
                tuple(index[face(k, i)] for i in range(k + 1)) if k else () for k in objects
            )


@lru_cache(maxsize=None)
def morphism_plan(category):
    """The category's ``MorphismPlan``; categories are cached singletons."""
    return MorphismPlan(category)


def _build_simplex_category(kind, family, dim):
    strict = family == FAMILY_SEMI
    objects = tuple(range(dim + 1))
    hom = {}
    for a in objects:
        for b in objects:
            if strict:
                maps = itertools.combinations(range(b + 1), a + 1)
            else:
                maps = itertools.combinations_with_replacement(range(b + 1), a + 1)
            ms = tuple(sorted(SimplexMorphism(a, b, values) for values in maps))
            if ms:
                hom[(a, b)] = ms
    generators = [face(k, i) for k in range(1, dim + 1) for i in range(k + 1)]
    if not strict:
        generators += [degeneracy(k, i) for k in range(dim) for i in range(k + 1)]

    def factor_fn(f):
        degens, faces = normal_form(f)
        out = []
        k = f.target
        for i in faces:
            out.append(face(k, i))
            k -= 1
        s = k
        for pos, j in enumerate(degens):
            out.append(degeneracy(s + pos, j))
        return out

    return FiniteIndexCategory(
        kind,
        family,
        dim,
        objects,
        hom,
        generators,
        compose_simplex,
        simplex_identity,
        factor_fn,
    )


def _build_bicolor_category():
    objects = ("V", "E", "E'")
    gens = (
        NamedMorphism("V", "E", "s"),
        NamedMorphism("V", "E", "t"),
        NamedMorphism("V", "E'", "s'"),
        NamedMorphism("V", "E'", "t'"),
    )
    hom = {(c, c): (NamedMorphism(c, c, "id"),) for c in objects}
    hom[("V", "E")] = gens[:2]
    hom[("V", "E'")] = gens[2:]

    def compose_fn(g, f):
        if f.target != g.source:
            raise ValueError(f"cannot compose {g} after {f}")
        if f.is_identity:
            return g
        if g.is_identity:
            return f
        raise ValueError(f"no composite of {g} after {f}")

    def identity_fn(c):
        return NamedMorphism(c, c, "id")

    def factor_fn(f):
        return [] if f.is_identity else [f]

    return FiniteIndexCategory(
        "bicolgraph",
        FAMILY_BICOLOR,
        None,
        objects,
        hom,
        gens,
        compose_fn,
        identity_fn,
        factor_fn,
    )


@lru_cache(maxsize=None)
def _cached_category(family, dim):
    if family == FAMILY_BICOLOR:
        return _build_bicolor_category()
    kind = {(FAMILY_SEMI, 0): "set", (FAMILY_SEMI, 1): "graph", (FAMILY_FULL, 1): "reflgraph"}.get(
        (family, dim), f"{family}:{dim}"
    )
    return _build_simplex_category(kind, family, dim)


class DimensionCapExceeded(ValueError):
    """A dimension above the cap that ``build_index_category`` enforces."""

    def __init__(self, dim, cap):
        super().__init__(f"dimension {dim} exceeds the cap {cap}; pass max_dim={dim} to override")
        self.dim = dim
        self.cap = cap


def build_index_category(kind, dim=None, max_dim=DEFAULT_MAX_DIM):
    """Build one of the five built-in index categories.

    ``kind`` is one of ``set``, ``graph``, ``reflgraph``, ``bicolgraph``,
    ``semisimplex`` or ``simplex``; the latter two require ``dim``, and
    ``bicolgraph`` refuses one.  The dimension is refused above
    ``max_dim`` (subobject lattices explode).
    """
    key = kind.strip().lower()
    if ":" in key:
        key, _, tail = key.partition(":")
        if dim is None:
            try:
                dim = int(tail)
            except ValueError:
                raise ValueError(f"bad dimension {tail!r} in {kind!r}") from None
    if key not in KIND_ALIASES:
        raise ValueError(f"unknown category kind {kind!r}")
    family, forced_dim = KIND_ALIASES[key]
    if forced_dim is not None:
        if dim is not None and dim != forced_dim:
            raise ValueError(f"{kind!r} has fixed dimension {forced_dim}")
        dim = forced_dim
    if family == FAMILY_BICOLOR:
        if dim is not None:
            raise ValueError(f"{kind!r} has no dimension")
        return _cached_category(family, None)
    if dim is None:
        raise ValueError(f"{kind!r} needs a dimension")
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    if dim > max_dim:
        raise DimensionCapExceeded(dim, max_dim)
    return _cached_category(family, dim)
