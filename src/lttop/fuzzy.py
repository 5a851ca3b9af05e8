"""Fuzzy sets over a finite Heyting algebra and their closure operators.

A fuzzy set is a finite carrier with a membership function into the
algebra; morphisms may only increase membership.  Closure operators come
in exactly two flavours: the trivial one (add everything, take ambient
memberships) and the nucleus-induced ones, which keep the carrier and
replace the membership of a subobject by (nucleus of the small membership)
meet (ambient membership).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lattice import FiniteHeytingAlgebra, Nucleus

DEFAULT_FUZZY_CARRIER = 3
_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class FuzzySet:
    algebra: FiniteHeytingAlgebra
    elements: tuple
    membership: tuple  # per element, an algebra index

    def __post_init__(self):
        if len(self.elements) != len(self.membership):
            raise ValueError("one membership value per element")

    @property
    def size(self):
        return len(self.elements)

    def __str__(self):
        L = self.algebra
        inner = ", ".join(
            f"{e}^{L.names[m]}" for e, m in zip(self.elements, self.membership)
        )
        return "{" + inner + "}"


@dataclass(frozen=True)
class FuzzySubset:
    """A subobject: chosen elements with (possibly lowered) memberships."""

    ambient: FuzzySet
    members: tuple  # sorted (element index, membership index) pairs

    def __post_init__(self):
        L = self.ambient.algebra
        for idx, memb in self.members:
            if not L.leq(memb, self.ambient.membership[idx]):
                raise ValueError("subobject membership must sit below the ambient one")

    @property
    def carrier_indices(self):
        return tuple(idx for idx, _ in self.members)

    def membership_of(self, idx):
        for i, m in self.members:
            if i == idx:
                return m
        raise KeyError(idx)

    @property
    def is_strong(self):
        return all(m == self.ambient.membership[i] for i, m in self.members)

    def leq(self, other):
        theirs = dict(other.members)
        L = self.ambient.algebra
        return all(i in theirs and L.leq(m, theirs[i]) for i, m in self.members)


def full_subset(A):
    return FuzzySubset(A, tuple(enumerate(A.membership)))


def is_fuzzy_morphism(A, B, mapping):
    """Whether a carrier map preserves-or-raises membership."""
    L = A.algebra
    return all(L.leq(A.membership[i], B.membership[mapping[i]]) for i in range(A.size))


def fuzzy_morphisms(A, B):
    for mapping in itertools.product(range(B.size), repeat=A.size):
        if is_fuzzy_morphism(A, B, mapping):
            yield mapping


@dataclass(frozen=True)
class QClosureOperator:
    """Trivial, or induced by a nucleus on the membership algebra."""

    kind: str  # "trivial" | "nucleus"
    nucleus: Nucleus | None = None

    @staticmethod
    def trivial():
        return QClosureOperator("trivial")

    @staticmethod
    def from_nucleus(nu):
        return QClosureOperator("nucleus", nu)

    def __str__(self):
        return "trivial" if self.kind == "trivial" else f"nucleus {self.nucleus}"


def fuzzy_closure(op, sub):
    """Apply a closure operator to a fuzzy subobject."""
    A = sub.ambient
    if op.kind == "trivial":
        return full_subset(A)
    L = A.algebra
    phi = op.nucleus.mapping
    members = tuple(
        (i, L.meet(phi[m], A.membership[i])) for i, m in sub.members
    )
    return FuzzySubset(A, members)


def is_dense_fuzzy(op, sub):
    return fuzzy_closure(op, sub) == full_subset(sub.ambient)


# -- corpus -----------------------------------------------------------------


def fuzzy_corpus(L, max_carrier=DEFAULT_FUZZY_CARRIER):
    """Every fuzzy set over L with carrier a prefix of a, b, c, ..."""
    out = []
    for n in range(max_carrier + 1):
        names = _NAMES[:n]
        for membership in itertools.product(range(L.size), repeat=n):
            out.append(FuzzySet(L, names, membership))
    return tuple(out)


def subobjects_of(A):
    """All fuzzy subobjects of A: subsets with pointwise-lowered memberships."""
    L = A.algebra
    down = [
        [m for m in L.elements() if L.leq(m, A.membership[i])] for i in range(A.size)
    ]
    out = []
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(range(A.size), r) for r in range(A.size + 1)
    ):
        for membs in itertools.product(*(down[i] for i in chosen)):
            out.append(FuzzySubset(A, tuple(zip(chosen, membs))))
    return tuple(out)


def pullback_fuzzy(A, B, mapping, sub):
    """Pullback of a subobject of B along a morphism mapping: A -> B."""
    L = A.algebra
    chosen = dict(sub.members)
    members = []
    for i in range(A.size):
        j = mapping[i]
        if j in chosen:
            members.append((i, L.meet(A.membership[i], chosen[j])))
    return FuzzySubset(A, tuple(members))


@dataclass(frozen=True)
class QClosureViolation:
    axiom: str
    context: tuple

    def __str__(self):
        return f"quasitopos closure axiom {self.axiom} fails: {self.context}"


def verify_qclosure(op, L, max_carrier=DEFAULT_FUZZY_CARRIER, square_carrier=2):
    """Check the five closure-operator axioms over the fuzzy corpus.

    Increasing, idempotence, and strongness preservation run over carriers
    up to ``max_carrier``; monotonicity and pullback stability, which need
    pairs and genuine squares, over carriers up to ``square_carrier``.
    Returns None or the first violation found.
    """
    corpus = fuzzy_corpus(L, max_carrier)
    small = [A for A in corpus if A.size <= square_carrier]
    for A in corpus:
        for sub in subobjects_of(A):
            closed = fuzzy_closure(op, sub)
            if not sub.leq(closed):
                return QClosureViolation("increasing", (A, sub))
            if fuzzy_closure(op, closed) != closed:
                return QClosureViolation("idempotent", (A, sub))
            if sub.is_strong and not closed.is_strong:
                return QClosureViolation("strongness", (A, sub))
    for A in small:
        subs = subobjects_of(A)
        for s1 in subs:
            for s2 in subs:
                if s1.leq(s2) and not fuzzy_closure(op, s1).leq(fuzzy_closure(op, s2)):
                    return QClosureViolation("monotone", (A, s1, s2))
    for B in small:
        subs_b = subobjects_of(B)
        for A in small:
            for mapping in fuzzy_morphisms(A, B):
                for sub in subs_b:
                    lhs = fuzzy_closure(op, pullback_fuzzy(A, B, mapping, sub))
                    rhs = pullback_fuzzy(A, B, mapping, fuzzy_closure(op, sub))
                    if lhs != rhs:
                        return QClosureViolation(
                            "pullback-stability", (A, B, mapping, sub)
                        )
    return None


# -- separated / sheaf ------------------------------------------------------


def classify_fuzzy(B, op):
    """Separated/sheaf flags for a fuzzy set under a closure operator.

    Both operator kinds admit a closed form.  Under a nucleus everything is
    separated, and sheaves are exactly the fuzzy sets whose memberships
    land in the image of the nucleus.  Under the trivial operator every
    subobject is dense, so the separated sets are those with at most one
    element and the only sheaf is the one-element set at top.
    ``fuzzy_factorization_check`` is the brute-force reference for both.
    """
    if op.kind == "nucleus":
        image = set(op.nucleus.mapping)
        return {
            "separated": True,
            "sheaf": all(m in image for m in B.membership),
        }
    return {
        "separated": B.size <= 1,
        "sheaf": B.membership == (B.algebra.top,),
    }


def fuzzy_factorization_check(B, op, ambients):
    """Brute factorization counts through dense subobjects.

    Returns (separated, complete): at most one / at least one extension of
    every morphism from a dense subobject of every ambient.
    """
    separated = True
    complete = True
    for A in ambients:
        for sub in subobjects_of(A):
            if not is_dense_fuzzy(op, sub):
                continue
            chosen = sub.carrier_indices
            sub_set = FuzzySet(
                A.algebra,
                tuple(A.elements[i] for i in chosen),
                tuple(m for _, m in sub.members),
            )
            for f in fuzzy_morphisms(sub_set, B):
                extensions = 0
                for g in fuzzy_morphisms(A, B):
                    if all(g[i] == f[pos] for pos, i in enumerate(chosen)):
                        extensions += 1
                        if extensions > 1:
                            break
                if extensions == 0:
                    complete = False
                if extensions > 1:
                    separated = False
                if not separated and not complete:
                    return False, False
    return separated, complete


# -- the correspondence between operators and nuclei ------------------------


def operator_to_nucleus_map(op, L):
    """Read a map off the closure of singletons inside the top singleton."""
    point = FuzzySet(L, ("x",), (L.top,))
    mapping = []
    for x in L.elements():
        sub = FuzzySubset(point, ((0, x),))
        closed = fuzzy_closure(op, sub)
        mapping.append(closed.membership_of(0))
    return tuple(mapping)


def operators_agree(op1, op2, L, max_carrier=2):
    """Extensional comparison of two closure operators over a small corpus."""
    for A in fuzzy_corpus(L, max_carrier):
        for sub in subobjects_of(A):
            if fuzzy_closure(op1, sub) != fuzzy_closure(op2, sub):
                return False
    return True
