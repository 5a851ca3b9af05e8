"""JSON document schemas for presheaves, subobjects, algebras, fuzzy sets.

One object per file, with no keys beyond its schema's.  Names (of
elements, carriers, memberships and map values) are strings, and
referenced names must resolve; the resulting values are validated by
their modules' own invariants (functoriality, closure, order laws) before
they are returned.
"""

from . import lattice
from .fincat import (
    DEFAULT_MAX_DIM,
    FAMILY_BICOLOR,
    DimensionCapExceeded,
    build_index_category,
    normal_form,
)
from .fuzzy import FuzzySet
from .lattice import FiniteHeytingAlgebra
from .presheaf import FinitePresheaf, Subpresheaf


class DocumentError(ValueError):
    """A document that fails schema or cross-reference validation."""


def _require(doc, key, kind):
    if not isinstance(doc, dict):
        raise DocumentError(f"expected an object with key {key!r}")
    if key not in doc:
        raise DocumentError(f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        wanted = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise DocumentError(f"key {key!r} should be {wanted}")
    return value


def _known_keys(doc, keys):
    stray = doc.keys() - set(keys)
    if stray:
        raise DocumentError(f"unknown key {min(stray)!r}; expected {', '.join(map(repr, keys))}")


def _name(value, what):
    if not isinstance(value, str):
        raise DocumentError(f"{what} should be a string, got {value!r}")
    return value


def _names(value, what):
    if not isinstance(value, list):
        raise DocumentError(f"{what} should be a list of names")
    for name in value:
        _name(name, f"a name in {what}")
    return value


def generator_name(category, g):
    if category.family == FAMILY_BICOLOR:
        return g.name
    degens, faces = normal_form(g)
    if len(faces) == 1 and not degens:
        return f"d{g.target}_{faces[0]}"
    if len(degens) == 1 and not faces:
        return f"s{g.target}_{degens[0]}"
    raise ValueError(f"{g} is not a generator")


def _generator_by_name(category, name):
    for g in category.generators:
        if generator_name(category, g) == name:
            return g
    raise DocumentError(f"unknown generator {name!r} for {category.kind}")


def _object_by_name(category, name):
    for c in category.objects:
        if str(c) == name:
            return c
    raise DocumentError(f"unknown object {name!r} for {category.kind}")


def load_json(path):
    """The JSON value in the file at ``path``; ``json`` is imported on the
    first call, so only a command that reads a document loads it."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise DocumentError(f"{path}: nested too deeply to read ({exc})") from exc


def presheaf_from_doc(doc, max_dim=DEFAULT_MAX_DIM):
    """{"category": kind, "levels": {obj: [names]}, "actions": {gen: {elem: image}}}

    A category above the cap ``max_dim`` raises ``DimensionCapExceeded``.
    """
    kind = _require(doc, "category", str)
    _known_keys(doc, ("category", "levels", "actions"))
    try:
        category = build_index_category(kind, max_dim=max_dim)
    except DimensionCapExceeded:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    levels = _require(doc, "levels", dict)
    for name in levels:
        _object_by_name(category, name)
    carriers = {}
    for c in category.objects:
        carriers[c] = tuple(_names(levels.get(str(c), []), f"level {c}"))
        if len(set(carriers[c])) != len(carriers[c]):
            raise DocumentError(f"duplicate element names at level {c}")
    actions_doc = _require(doc, "actions", dict)
    tables_doc = {_generator_by_name(category, name): t for name, t in actions_doc.items()}
    gen_actions = {}
    for g in category.generators:
        name = generator_name(category, g)
        table_doc = tables_doc.get(g)
        if table_doc is None:
            if carriers[g.target]:
                raise DocumentError(f"missing action table for generator {name!r}")
            table_doc = {}
        if not isinstance(table_doc, dict):
            raise DocumentError(f"action table for generator {name!r} should be an object")
        stray = table_doc.keys() - set(carriers[g.target])
        if stray:
            raise DocumentError(
                f"generator {name!r} maps {min(stray)!r}, which is not at level {g.target}"
            )
        index_src = {x: i for i, x in enumerate(carriers[g.source])}
        table = []
        for x in carriers[g.target]:
            if x not in table_doc:
                raise DocumentError(f"generator {name!r} has no image for element {x!r}")
            image = _name(table_doc[x], f"the image of {x!r} under {name!r}")
            if image not in index_src:
                raise DocumentError(
                    f"generator {name!r} sends {x!r} to unknown element {image!r}"
                )
            table.append(index_src[image])
        gen_actions[g] = tuple(table)
    try:
        return FinitePresheaf(category, carriers, gen_actions)
    except ValueError as exc:
        raise DocumentError(f"not a presheaf: {exc}") from exc


def presheaf_to_doc(P):
    category = P.category
    doc = {
        "category": category.kind,
        "levels": {str(c): [str(x) for x in P.carrier(c)] for c in category.objects},
        "actions": {},
    }
    for g in category.generators:
        name = generator_name(category, g)
        table = P.action_table(g)
        doc["actions"][name] = {
            str(P.carrier(g.target)[x]): str(P.carrier(g.source)[table[x]])
            for x in range(len(P.carrier(g.target)))
        }
    return doc


def subobject_from_doc(doc, P):
    """{"of": label, "levels": {obj: [names]}} resolved against a presheaf.

    The optional ``"of"`` is a free label naming the presheaf; it is not
    resolved.
    """
    levels = _require(doc, "levels", dict)
    _known_keys(doc, ("of", "levels"))
    if "of" in doc:
        _require(doc, "of", str)
    for name in levels:
        _object_by_name(P.category, name)
    sets = {}
    for c in P.category.objects:
        names = _names(levels.get(str(c), []), f"level {c}")
        carrier = {str(x): x for x in P.carrier(c)}
        members = []
        for name in names:
            if name not in carrier:
                raise DocumentError(f"unknown element {name!r} at level {c}")
            members.append(carrier[name])
        sets[c] = members
    sub = Subpresheaf.from_sets(P, sets)
    problem = sub.closure_violation()
    if problem is not None:
        g, x = problem
        raise DocumentError(
            f"levels are not action-closed: element {P.carrier(g.target)[x]} "
            f"needs its image under {generator_name(P.category, g)}"
        )
    return sub


NAMED_ALGEBRAS = {
    "chain2": lambda: lattice.chain(2, ("0", "1")),
    "chain3": lambda: lattice.chain(3, ("0", "1/2", "1")),
    "chain4": lambda: lattice.chain(4, ("0", "1/3", "2/3", "1")),
    "chain5": lambda: lattice.chain(5, ("0", "1/4", "1/2", "3/4", "1")),
    "diamond": lambda: lattice.diamond(),
    "pentagon": lambda: lattice.pentagon(),
}


def heyting_from_doc(doc):
    """{"elements": [names], "covers": [[lower, upper], ...]} or a named algebra."""
    if isinstance(doc, str):
        if doc not in NAMED_ALGEBRAS:
            raise DocumentError(
                f"unknown algebra {doc!r}; known: {sorted(NAMED_ALGEBRAS)}"
            )
        return NAMED_ALGEBRAS[doc]()
    elements = _names(_require(doc, "elements", list), "elements")
    _known_keys(doc, ("elements", "covers"))
    covers = _require(doc, "covers", list)
    if len(set(elements)) != len(elements):
        raise DocumentError("duplicate element names")
    for pair in covers:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DocumentError(f"cover {pair!r} should be [lower, upper]")
        for name in pair:
            if name not in elements:
                raise DocumentError(f"cover mentions unknown element {name!r}")
    return FiniteHeytingAlgebra.from_covers(tuple(elements), [tuple(p) for p in covers])


def fuzzyset_from_doc(doc):
    """{"algebra": doc-or-name, "carrier": [names], "membership": {name: element}}"""
    algebra = heyting_from_doc(_require(doc, "algebra", (str, dict)))
    _known_keys(doc, ("algebra", "carrier", "membership"))
    problem = lattice.verify_heyting(algebra)
    if problem is not None:
        raise DocumentError(f"membership algebra is not Heyting: {problem}")
    carrier = _names(_require(doc, "carrier", list), "carrier")
    if len(set(carrier)) != len(carrier):
        raise DocumentError("duplicate carrier names")
    membership_doc = _require(doc, "membership", dict)
    stray = membership_doc.keys() - set(carrier)
    if stray:
        raise DocumentError(f"membership names {min(stray)!r}, which is not in the carrier")
    name_index = {n: i for i, n in enumerate(algebra.names)}
    membership = []
    for x in carrier:
        if x not in membership_doc:
            raise DocumentError(f"element {x!r} has no membership value")
        value = _name(membership_doc[x], f"the membership of {x!r}")
        if value not in name_index:
            raise DocumentError(f"unknown algebra element {value!r}")
        membership.append(name_index[value])
    return FuzzySet(algebra, tuple(carrier), tuple(membership))


def nucleus_from_doc(doc):
    """{"algebra": doc-or-name, "map": {element: element}}"""
    algebra = heyting_from_doc(_require(doc, "algebra", (str, dict)))
    _known_keys(doc, ("algebra", "map"))
    map_doc = _require(doc, "map", dict)
    name_index = {n: i for i, n in enumerate(algebra.names)}
    stray = map_doc.keys() - name_index.keys()
    if stray:
        raise DocumentError(f"map names {min(stray)!r}, which is not an algebra element")
    mapping = []
    for name in algebra.names:
        if name not in map_doc:
            raise DocumentError(f"map has no value for {name!r}")
        value = _name(map_doc[name], f"the image of {name!r}")
        if value not in name_index:
            raise DocumentError(f"unknown algebra element {value!r}")
        mapping.append(name_index[value])
    return algebra, tuple(mapping)
