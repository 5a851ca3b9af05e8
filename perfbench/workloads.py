"""The four workloads: their request lists and the check on every output.

A request is one process: a fresh ``python -m lttop.cli ...`` for the CLI
workloads, or one library session for ``fuzzy``.  ``check`` returns None
when the output is right and a one-line reason when it is not; a wrong
output counts as a failed request and fails the run.
"""

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import docgen

HERE = os.path.dirname(os.path.abspath(__file__))

# Every accepted category up to dimension 3, with its topology count.
TOPOLOGY_COUNTS = {
    "set": 2,
    "graph": 4,
    "reflgraph": 3,
    "bicolgraph": 8,
    "semisimplex:1": 4,
    "semisimplex:2": 8,
    "semisimplex:3": 16,
    "simplex:1": 3,
    "simplex:2": 4,
    "simplex:3": 5,
}
OMEGA_SIZES_DIM3 = "levels: 2, 5, 19, 167"
DOT_EXPORTS = 3

VERIFY_ARGV = ["verify", "--suite", "all", "--corpus-bound", "6", "--ambient-bound", "4"]
COUNTS_LINE = (
    "counts suite: set:2 graph:4 reflgraph:3 bicolgraph:8 semisimplex:2:8 simplex:2:4 — PASS"
)

ALGEBRAS = ("chain2", "chain3", "chain4", "chain5", "diamond", "pentagon")
NUCLEUS_COUNTS = {"chain2": 2, "chain3": 4, "diamond": 4}


@dataclass
class Request:
    key: str
    kind: str  # "cli" or "session"
    args: list  # CLI arguments, or the session's algebra order
    check: Callable[[str, int], "str | None"]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def catalog_key(argv):
    return " ".join(argv)


def catalog_argvs(rng, digests):
    """omega and topologies on every category, plus seeded DOT exports."""
    argvs = [
        [command, "--category", kind]
        for kind in TOPOLOGY_COUNTS
        for command in ("omega", "topologies")
    ]
    dots = sorted(key for key in digests if key.endswith(" --dot"))
    argvs += [key.split(" ") for key in rng.sample(dots, DOT_EXPORTS)]
    return argvs


def check_catalog(argv, digests):
    want = digests[catalog_key(argv)]
    kind = argv[2]

    def check(out, code):
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if argv[0] == "topologies":
            head = f"{TOPOLOGY_COUNTS[kind]} topologies on "
            if not lines or not lines[0].startswith(head):
                return f"expected {head!r}..., got {lines[:1]}"
        elif "--dot" not in argv and kind.endswith(":3") and lines[:1] != [OMEGA_SIZES_DIM3]:
            return f"expected {OMEGA_SIZES_DIM3!r}, got {lines[:1]}"
        if digest(out) != want:
            return "stdout differs from the recorded digest"
        return None

    return check


def check_verify(out, code):
    lines = out.splitlines()
    if code != 0 or not lines or lines[-1] != "verification: PASS":
        return f"exit code {code}, last line {lines[-1:]}"
    if COUNTS_LINE not in lines:
        return "topology counts line missing or different"
    return None


def check_lines(expect):
    def check(out, code):
        if code != 0:
            return f"exit code {code}"
        if out.splitlines() != expect:
            return f"expected {expect}, got {out.splitlines()}"
        return None

    return check


# -- fuzzy -------------------------------------------------------------------


def brute_nuclei(name):
    """Every endomap of the named algebra that lttop's verify_nucleus accepts,
    with the algebra's top element and size."""
    from lttop import docio, lattice

    L = docio.NAMED_ALGEBRAS[name]()
    maps = itertools.product(range(L.size), repeat=L.size)
    return L.top, L.size, sorted(list(m) for m in maps if lattice.verify_nucleus(L, m) is None)


def membership_corpus(size):
    """Every membership tuple of length 0, 1 and 2 over an algebra of this
    size, in the session's order: 1 + size + size^2 fuzzy sets."""
    return [list(m) for n in range(3) for m in itertools.product(range(size), repeat=n)]


def chain_nuclei(n):
    """Nuclei on the n-chain: a -> least element >= a of an image set
    that contains the top; there are 2^(n-1) of them."""
    out = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        image = [a for a in range(n - 1) if bits[a]] + [n - 1]
        out.append([min(b for b in image if b >= a) for a in range(n)])
    return sorted(out)


def fuzzy_expectations():
    """Per algebra: top element, nuclei by the brute verify_nucleus filter,
    cross-checked against the closed forms where they are known, and the
    memberships of the fuzzy sets the session must classify."""
    out = {}
    for name in ALGEBRAS:
        top, size, nuclei = brute_nuclei(name)
        if name.startswith("chain") and nuclei != chain_nuclei(int(name[5:])):
            raise RuntimeError(f"brute nuclei on {name} disagree with the chain closed form")
        if name in NUCLEUS_COUNTS and len(nuclei) != NUCLEUS_COUNTS[name]:
            raise RuntimeError(f"{name} has {len(nuclei)} nuclei by brute force")
        out[name] = (top, nuclei, membership_corpus(size))
    return out


def check_fuzzy(expected):
    """Nuclei as the brute filter finds them; every closure axiom holds;
    the classified corpus is every fuzzy set with at most two elements;
    classify flags as the closed forms give them: under a nucleus every set
    is separated and a sheaf iff its memberships lie in the nucleus image;
    under the trivial operator a set is separated iff it has at most one
    element and a sheaf iff it is one element of membership top."""

    def check(out, code):
        if code != 0:
            return f"exit code {code}"
        try:
            results = json.loads(out)
        except json.JSONDecodeError:
            return "session output is not JSON"
        if sorted(results) != sorted(expected):
            return f"algebras {sorted(results)}"
        for name, (top, nuclei, corpus) in expected.items():
            got = results[name]
            if sorted(got["nuclei"]) != nuclei:
                return f"{name}: nuclei {got['nuclei']} != brute {nuclei}"
            if got["corpus"] != corpus:
                return f"{name}: classified {len(got['corpus'])} fuzzy sets, not the {len(corpus)} expected"
            failing = {k: v for k, v in got["qclosure"].items() if v is not None}
            if failing or len(got["qclosure"]) != len(nuclei) + 1:
                return f"{name}: closure axioms {failing or got['qclosure']}"
            for key, flags in got["classify"].items():
                image = None if key == "trivial" else set(map(int, key.split(",")))
                want = ""
                for B in corpus:
                    if image is None:
                        want += "TF"[len(B) > 1] + "TF"[not (len(B) == 1 and B[0] == top)]
                    else:
                        want += "T" + "TF"[not all(m in image for m in B)]
                if flags != want:
                    return f"{name}: classify flags under {key}"
        return None

    return check


# -- the request lists -------------------------------------------------------


def build(workload, seed, workdir):
    """The workload's fixed request list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        digests = load_digests()
        argvs = catalog_argvs(rng, digests)
        rng.shuffle(argvs)
        return [
            Request(catalog_key(argv), "cli", argv, check_catalog(argv, digests))
            for argv in argvs
        ]
    if workload == "verify":
        return [Request("verify", "cli", VERIFY_ARGV, check_verify)]
    if workload == "fuzzy":
        order = list(ALGEBRAS)
        rng.shuffle(order)
        return [Request("session", "session", order, check_fuzzy(fuzzy_expectations()))]
    if workload == "documents":
        return [
            Request(r["key"], "cli", r["argv"], check_lines(r["expect"]))
            for r in docgen.build_requests(seed, os.path.join(workdir, "docs"))
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("catalog", "verify", "fuzzy", "documents")
