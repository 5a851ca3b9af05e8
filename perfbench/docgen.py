"""Seeded input documents for the ``documents`` workload, with expected answers.

Every request's expected output is computed here from the generated data
alone, never by calling ``lttop``:

* closure: the cells the closure adds and density, by the bit-string
  recursion (bit 0 keeps a level, bit 1 fills every cell whose faces lie in
  the closed level below; level 0 with bit 1 becomes full);
* classify --topology: separated and complete from incidence tuples and
  hollow-boundary realizability, including the witness lines;
* classify --nucleus: separated is always true, and the sheaf flag is
  "every membership lies in the nucleus image".

Presheaves are ordered simplicial complexes (cells are strictly increasing
vertex tuples) written as ``semisimplex:2`` documents, the same complexes
with their degenerate cells (repeated vertices) as ``simplex:2`` documents,
and random directed (``graph``) or reflexive (``reflgraph``) multigraphs.
Some complexes get duplicated cells, so that separation can fail.
"""

import itertools
import json
import os
import random

# Element names of lttop's named algebras, by index.  Chains are listed
# bottom to top; the diamond is the four-element Boolean algebra, its
# elements named by their bit strings (so join is bitwise or).
CHAINS = {
    "chain2": ("0", "1"),
    "chain3": ("0", "1/2", "1"),
    "chain4": ("0", "1/3", "2/3", "1"),
    "chain5": ("0", "1/4", "1/2", "3/4", "1"),
}
DIAMOND = ("00", "01", "10", "11")

# Topology words per category.  On simplex categories (with degeneracies)
# the topologies are the words without a "10" substring; on the semisimplex
# ones every word is a topology.
WORDS = {
    "graph": ("00", "01", "10", "11"),
    "reflgraph": ("00", "01", "11"),
    "semisimplex:2": ("000", "001", "010", "011", "100", "101", "110", "111"),
    "simplex:2": ("000", "001", "011", "111"),
}


class Cells:
    """A finite presheaf under construction: named cells with face tables.

    ``faces[k][x]`` lists the faces (d_0 x, ..., d_k x) of the level-k cell
    ``x`` as level-(k-1) indices; ``degens[k][x]`` lists (s_0 x, ..., s_k x)
    as level-(k+1) indices, for simplex categories only.
    """

    def __init__(self, category, dim):
        self.category = category
        self.dim = dim
        self.names = [[] for _ in range(dim + 1)]
        self.faces = [[] for _ in range(dim + 1)]
        self.degens = [[] for _ in range(dim + 1)]

    def add(self, k, name, faces=()):
        self.names[k].append(name)
        self.faces[k].append(tuple(faces))
        self.degens[k].append(None)
        return len(self.names[k]) - 1

    def incidence(self, k, x):
        """The incidence tuple (d_k x, ..., d_0 x), as lttop orders it."""
        return tuple(reversed(self.faces[k][x]))

    def to_doc(self):
        levels = {str(k): list(self.names[k]) for k in range(self.dim + 1)}
        actions = {}
        for k in range(1, self.dim + 1):
            for i in range(k + 1):
                actions[f"d{k}_{i}"] = {
                    self.names[k][x]: self.names[k - 1][f[i]]
                    for x, f in enumerate(self.faces[k])
                }
        if self.category.startswith("simplex") or self.category == "reflgraph":
            for k in range(self.dim):
                for i in range(k + 1):
                    actions[f"s{k}_{i}"] = {
                        self.names[k][x]: self.names[k + 1][s[i]]
                        for x, s in enumerate(self.degens[k])
                    }
        return {"category": self.category, "levels": levels, "actions": actions}


# -- presheaf generators -----------------------------------------------------


def random_complex(rng, n_vertices, n_triangles, n_edges):
    """An ordered simplicial complex with exactly these counts: vertex count,
    sorted edges, sorted triangles.  Triangles are redrawn until their edges
    number at most ``n_edges``; random extra edges make up the rest."""
    triples = list(itertools.combinations(range(n_vertices), 3))
    while True:
        triangles = sorted(rng.sample(triples, n_triangles))
        edges = {(a, b) for a, b, c in triangles} | {(a, c) for a, b, c in triangles}
        edges |= {(b, c) for a, b, c in triangles}
        if len(edges) <= n_edges:
            break
    pairs = [p for p in itertools.combinations(range(n_vertices), 2) if p not in edges]
    edges |= set(rng.sample(pairs, n_edges - len(edges)))
    return n_vertices, sorted(edges), triangles


def semisimplicial(complex_, duplicates=0, rng=None):
    """The complex as a semisimplex:2 presheaf, optionally with parallel cells."""
    n, edges, triangles = complex_
    cells = Cells("semisimplex:2", 2)
    for v in range(n):
        cells.add(0, f"v{v}")
    edge_index = {}
    for a, b in edges:
        # faces (d_0, d_1) = (target, source)
        edge_index[(a, b)] = cells.add(1, f"e{a}_{b}", (b, a))
    for a, b, c in triangles:
        cells.add(2, f"t{a}_{b}_{c}", (edge_index[(b, c)], edge_index[(a, c)], edge_index[(a, b)]))
    _duplicate(cells, duplicates, rng)
    return cells


def _duplicate(cells, count, rng):
    """Add ``count`` copies of random top-level or level-1 cells (same faces)."""
    for n in range(count):
        k = 2 if cells.names[2] and rng.random() < 0.5 else 1
        if not cells.names[k]:
            continue
        x = rng.randrange(len(cells.names[k]))
        cells.add(k, f"{cells.names[k][x]}'{n}", cells.faces[k][x])


def simplicial(complex_):
    """The complex with every degenerate cell: non-decreasing vertex tuples."""
    n, edges, triangles = complex_
    cells = Cells("simplex:2", 2)
    simplices = set(edges) | set(triangles)

    def is_cell(tup):
        distinct = tuple(sorted(set(tup)))
        return len(distinct) == 1 or distinct in simplices

    index = [{} for _ in range(3)]
    for k in range(3):
        for tup in itertools.combinations_with_replacement(range(n), k + 1):
            if not is_cell(tup):
                continue
            name = ("v", "e", "t")[k] + "_".join(map(str, tup))
            faces = ()
            if k:
                faces = tuple(index[k - 1][tup[:i] + tup[i + 1 :]] for i in range(k + 1))
            index[k][tup] = cells.add(k, name, faces)
    for k in range(2):
        for tup, x in index[k].items():
            cells.degens[k][x] = tuple(
                index[k + 1][tup[: i + 1] + tup[i:]] for i in range(k + 1)
            )
    return cells


def random_graph(rng, n_vertices, n_edges, reflexive):
    """A directed multigraph; loops and parallel edges allowed."""
    cells = Cells("reflgraph" if reflexive else "graph", 1)
    for v in range(n_vertices):
        cells.add(0, f"v{v}")
    if reflexive:
        for v in range(n_vertices):
            cells.degens[0][v] = (cells.add(1, f"id{v}", (v, v)),)
    for e in range(n_edges):
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        cells.add(1, f"e{e}", (b, a))
    return cells


def random_subobject(rng, cells, keep):
    """An action-closed subset: keep each cell with probability ``keep``
    when all its faces are kept; degenerate cells follow their base cell."""
    chosen = [set() for _ in range(cells.dim + 1)]
    forced = [set() for _ in range(cells.dim + 1)]
    for k in range(cells.dim + 1):
        for x in range(len(cells.names[k])):
            if x in forced[k] or (
                all(f in chosen[k - 1] for f in cells.faces[k][x]) and rng.random() < keep
            ):
                chosen[k].add(x)
                if k < cells.dim and cells.degens[k][x] is not None:
                    forced[k + 1].update(cells.degens[k][x])
    return chosen


# -- expected answers --------------------------------------------------------


def expected_closure(cells, sub, word):
    """Output lines of ``lttop closure`` by the bit-string recursion."""
    closed = []
    for k in range(cells.dim + 1):
        size = len(cells.names[k])
        if word[k] == "0":
            level = set(sub[k])
        elif k == 0:
            level = set(range(size))
        else:
            below = closed[k - 1]
            level = {x for x in range(size) if all(f in below for f in cells.faces[k][x])}
        closed.append(level)
    lines = []
    for k in range(cells.dim + 1):
        added = sorted(closed[k] - set(sub[k]))
        lines.append(f"level {k}: added [{', '.join(cells.names[k][x] for x in added)}]")
    full = all(len(closed[k]) == len(cells.names[k]) for k in range(cells.dim + 1))
    lines.append("dense" if full else "not dense")
    return lines


def realizable_tuples(cells, k):
    """Incidence tuples (x_k, ..., x_0) of maps from the hollow k-simplex.

    At k = 1 every pair of vertices is realizable.  At k = 2 the three edges
    (e01, e02, e12) = (x_2, x_1, x_0) must share their vertices: the source
    of e01 and e02 agree, the target of e01 is the source of e12, and the
    targets of e02 and e12 agree.
    """
    if k == 1:
        return set(itertools.product(range(len(cells.names[0])), repeat=2))
    src = [f[1] for f in cells.faces[1]]
    tgt = [f[0] for f in cells.faces[1]]
    by_src = {}
    for e in range(len(src)):
        by_src.setdefault(src[e], []).append(e)
    out = set()
    for e01 in range(len(src)):
        for e02 in by_src.get(src[e01], ()):
            for e12 in by_src.get(tgt[e01], ()):
                if tgt[e12] == tgt[e02]:
                    out.add((e01, e02, e12))
    return out


def expected_classify(cells, word):
    """Output lines of ``lttop classify --topology`` from cell counts."""
    separated = complete = True
    witnesses = []
    for k in range(cells.dim + 1):
        if word[k] != "1":
            continue
        if k == 0:
            n = len(cells.names[0])
            if n > 1:
                separated = False
                witnesses.append(f"witness: level 0 not simple: {tuple(range(n))}")
            if n < 1:
                complete = False
                witnesses.append("witness: level 0 not complete: ()")
            continue
        parallel = {}
        for x in range(len(cells.names[k])):
            parallel.setdefault(cells.incidence(k, x), []).append(x)
        for tup, xs in parallel.items():
            if len(xs) > 1:
                separated = False
                witnesses.append(f"witness: level {k} not simple: {(tup, tuple(xs))}")
                break
        missing = sorted(realizable_tuples(cells, k) - set(parallel))
        if missing:
            complete = False
            witnesses.append(f"witness: level {k} not complete: {missing[0]}")
    return [
        f"separated: {separated}",
        f"complete: {complete}",
        f"sheaf: {separated and complete}",
        *witnesses,
    ]


# -- fuzzy sets and nuclei ---------------------------------------------------


def random_nucleus(rng, algebra):
    """A nucleus as a list of element indices, drawn from the closed forms.

    On a chain every closure operator preserves meets, so nuclei are the
    maps a -> least element of an image set that contains the top.  On the
    diamond (a Boolean algebra) the nuclei are a -> a or c, for a fixed c.
    """
    if algebra in CHAINS:
        n = len(CHAINS[algebra])
        image = sorted({n - 1} | {a for a in range(n - 1) if rng.random() < 0.5})
        return [min(b for b in image if b >= a) for a in range(n)]
    c = rng.randrange(4)
    return [a | c for a in range(4)]


def fuzzy_docs(rng, algebra, carrier_size):
    names = CHAINS.get(algebra, DIAMOND)
    mapping = random_nucleus(rng, algebra)
    image = set(mapping)
    carrier = [f"x{i}" for i in range(carrier_size)]
    # lean towards the image, so that both sheaf answers occur
    membership = [
        rng.choice(sorted(image)) if rng.random() < 0.8 else rng.randrange(len(names))
        for _ in carrier
    ]
    nucleus = {"algebra": algebra, "map": {names[a]: names[mapping[a]] for a in range(len(names))}}
    fuzzy = {
        "algebra": algebra,
        "carrier": carrier,
        "membership": {x: names[m] for x, m in zip(carrier, membership)},
    }
    sheaf = all(m in image for m in membership)
    return nucleus, fuzzy, ["separated: True", f"sheaf: {sheaf}"]


# -- the request list --------------------------------------------------------

# (request class, count).  The counts are fixed so that every seed draws the
# same mix; the seed only changes the structure inside a class.  The one
# heavy class, large simplex:2 classify requests, is a fifth of the list, so
# req_p90_s falls inside it rather than on a class boundary.
MIX = (
    ("fuzzy", 24),
    ("closure-graph", 8),
    ("closure-reflgraph", 8),
    ("closure-semisimplex", 8),
    ("closure-simplex", 8),
    ("classify-graph", 8),
    ("classify-reflgraph", 8),
    ("classify-semisimplex", 8),
    ("classify-large", 20),
)


def _presheaf(rng, shape, large):
    if shape == "graph":
        return random_graph(rng, rng.randint(8, 14), rng.randint(20, 40), reflexive=False)
    if shape == "reflgraph":
        return random_graph(rng, rng.randint(8, 14), rng.randint(20, 40), reflexive=True)
    if large:
        # a fixed edge count keeps the boundary search, and so the cost,
        # similar across the class
        complex_ = random_complex(rng, 11, 20, 45)
    else:
        n = rng.randint(7, 10)
        complex_ = random_complex(rng, n, rng.randint(4, 8), rng.randint(n + 8, 2 * n + 4))
    if shape == "semisimplex":
        return semisimplicial(complex_, duplicates=rng.choice((0, 0, 1, 2)), rng=rng)
    return simplicial(complex_)


def build_requests(seed, directory):
    """Write the documents under ``directory`` and return the request list.

    Each request is a dict with ``key`` (a stable name), ``argv`` (the CLI
    arguments after ``lttop``) and ``expect`` (the exact stdout lines).
    """
    rng = random.Random(f"documents:{seed}")
    os.makedirs(directory, exist_ok=True)
    requests = []
    for kind, count in MIX:
        for n in range(count):
            key = f"{kind}-{n}"
            path = os.path.join(directory, key)
            if kind == "fuzzy":
                algebra = rng.choice(sorted(CHAINS) + ["diamond"])
                nucleus, fuzzy, expect = fuzzy_docs(rng, algebra, rng.randint(1, 8))
                _write(path + ".nucleus.json", nucleus)
                _write(path + ".json", fuzzy)
                argv = ["classify", "--nucleus", path + ".nucleus.json", "--input", path + ".json"]
                requests.append({"key": key, "argv": argv, "expect": expect})
                continue
            verb, shape = kind.split("-")
            large = shape == "large"
            shape = "simplex" if large else shape
            category = {"semisimplex": "semisimplex:2", "simplex": "simplex:2"}.get(shape, shape)
            cells = _presheaf(rng, shape, large)
            word = rng.choice(WORDS[category])
            if large:
                # search the level-2 boundaries; a word ending in 1 still has
                # no "10" substring
                word = word[:2] + "1"
            _write(path + ".json", cells.to_doc())
            if verb == "closure":
                sub = random_subobject(rng, cells, keep=0.6)
                levels = {str(k): [cells.names[k][x] for x in sorted(sub[k])] for k in range(cells.dim + 1)}
                _write(path + ".sub.json", {"of": key, "levels": levels})
                argv = ["closure", "--topology", word, "--input", path + ".json", "--sub", path + ".sub.json"]
                expect = expected_closure(cells, sub, word)
            else:
                argv = ["classify", "--topology", word, "--input", path + ".json"]
                expect = expected_classify(cells, word)
            requests.append({"key": key, "argv": argv, "expect": expect})
    rng.shuffle(requests)
    return requests


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
