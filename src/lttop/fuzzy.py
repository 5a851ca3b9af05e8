"""Fuzzy sets over a finite Heyting algebra and their closure operators.

A fuzzy set is a finite carrier with a membership function into the
algebra; morphisms may only increase membership.  Closure operators come
in exactly two flavours: the trivial one (add everything, take ambient
memberships) and the nucleus-induced ones, which keep the carrier and
replace the membership of a subobject by (nucleus of the small membership)
meet (ambient membership).
"""

import itertools
from functools import lru_cache

from .fincat import Record

DEFAULT_FUZZY_CARRIER = 3
_NAMES = ("a", "b", "c", "d")


class FuzzySet(Record):
    __slots__ = ("algebra", "elements", "membership")  # membership: per element, an algebra index

    def __init__(self, algebra, elements, membership):
        if len(elements) != len(membership):
            raise ValueError("one membership value per element")
        super().__init__(algebra, elements, membership)

    @property
    def size(self):
        return len(self.elements)

    def __str__(self):
        L = self.algebra
        inner = ", ".join(
            f"{e}^{L.names[m]}" for e, m in zip(self.elements, self.membership)
        )
        return "{" + inner + "}"


class FuzzySubset(Record):
    """A subobject: chosen elements with (possibly lowered) memberships."""

    __slots__ = ("ambient", "members")  # members: sorted (element index, membership index) pairs

    def __init__(self, ambient, members):
        L = ambient.algebra
        for idx, memb in members:
            if not L.leq(memb, ambient.membership[idx]):
                raise ValueError("subobject membership must sit below the ambient one")
        super().__init__(ambient, members)

    @property
    def carrier_indices(self):
        return tuple(idx for idx, _ in self.members)

    def as_tuple(self):
        """Per ambient element, its membership in the subobject or None."""
        out = [None] * self.ambient.size
        for i, m in self.members:
            out[i] = m
        return tuple(out)

    @staticmethod
    def from_tuple(ambient, memberships):
        """The inverse of ``as_tuple``."""
        return FuzzySubset(
            ambient, tuple((i, m) for i, m in enumerate(memberships) if m is not None)
        )

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


class QClosureOperator(Record):
    """Trivial, or induced by a nucleus on the membership algebra."""

    __slots__ = ("kind", "nucleus")  # kind: "trivial" | "nucleus"
    _defaults = {"nucleus": None}

    @staticmethod
    def trivial():
        return QClosureOperator("trivial")

    @staticmethod
    def from_nucleus(nu):
        return QClosureOperator("nucleus", nu)

    def __str__(self):
        return "trivial" if self.kind == "trivial" else f"nucleus {self.nucleus}"


# Subobjects of an ambient with memberships ``ambient`` are written, inside
# the kernels below, as per-element tuples of membership-or-None; ``meet`` is
# the algebra's meet table.


def _close(op, meet, ambient, sub):
    """The closure of a subobject: every element at its ambient membership
    (trivial), or the nucleus of the membership met with the ambient one."""
    if op.kind == "trivial":
        return ambient
    phi = op.nucleus.mapping
    return tuple(None if m is None else meet[phi[m]][a] for m, a in zip(sub, ambient))


def _pull(meet, ambient, mapping, sub):
    """The pullback of a subobject of the codomain along ``mapping``."""
    return tuple(
        None if sub[j] is None else meet[a][sub[j]] for a, j in zip(ambient, mapping)
    )


def fuzzy_closure(op, sub):
    """Apply a closure operator to a fuzzy subobject."""
    A = sub.ambient
    closed = _close(op, A.algebra.meet_table(), A.membership, sub.as_tuple())
    return FuzzySubset.from_tuple(A, closed)


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


def _subobject_tuples(L, ambient):
    """Every subobject of an ambient, by chosen carrier (smaller carriers
    first, then lexicographically), then by lowered memberships."""
    down = [[m for m in L.elements() if L.leq(m, a)] for a in ambient]
    out = []
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(range(len(ambient)), r) for r in range(len(ambient) + 1)
    ):
        for membs in itertools.product(*(down[i] for i in chosen)):
            sub = [None] * len(ambient)
            for i, m in zip(chosen, membs):
                sub[i] = m
            out.append(tuple(sub))
    return out


def subobjects_of(A):
    """All fuzzy subobjects of A: subsets with pointwise-lowered memberships."""
    return tuple(
        FuzzySubset.from_tuple(A, sub) for sub in _subobject_tuples(A.algebra, A.membership)
    )


def pullback_fuzzy(A, B, mapping, sub):
    """Pullback of a subobject of B along a morphism mapping: A -> B."""
    pulled = _pull(A.algebra.meet_table(), A.membership, mapping, sub.as_tuple())
    return FuzzySubset.from_tuple(A, pulled)


class QClosureViolation(Record):
    __slots__ = ("axiom", "context")

    def __str__(self):
        return f"quasitopos closure axiom {self.axiom} fails: {self.context}"


@lru_cache(maxsize=1)
def _qclosure_tables(L, max_carrier, square_carrier):
    """What ``verify_qclosure`` reads that does not depend on the operator.

    Returns (meet, below, ambients, comparable, squares):

    * ``below(s, t)``: the order on per-element subobject tuples;
    * ``ambients``: per fuzzy set of the corpus, in corpus order,
      (A, subs, index, strong): its ``_subobject_tuples``, the subobject ->
      position index, and whether each subobject is strong;
    * ``comparable``: per small ambient, in corpus order, its corpus
      position, the pairs (p, q) with subs[p] <= subs[q] in (p, q) order,
      and each position's up-set as a bitmask;
    * ``squares``: per (B, A, mapping) with B and A small, in that loop
      order, B's and A's corpus positions, the mapping, and the position
      among A's subobjects of each of B's subobjects pulled back.

    Only the latest (algebra, bounds) is kept; algebras are keyed by
    identity.
    """
    meet = L.meet_table()
    leq = [[L.leq(a, b) for b in L.elements()] for a in L.elements()]

    def below(s, t):
        return all(a is None or (b is not None and leq[a][b]) for a, b in zip(s, t))

    corpus = fuzzy_corpus(L, max_carrier)
    ambients = []
    for A in corpus:
        ambient = A.membership
        subs = _subobject_tuples(L, ambient)
        index = {sub: pos for pos, sub in enumerate(subs)}
        strong = [all(m is None or m == a for m, a in zip(sub, ambient)) for sub in subs]
        ambients.append((A, subs, index, strong))
    small = [pos for pos, A in enumerate(corpus) if A.size <= square_carrier]
    comparable = []
    for a in small:
        subs = ambients[a][1]
        pairs = [
            (p, q)
            for p, s1 in enumerate(subs)
            for q, s2 in enumerate(subs)
            if below(s1, s2)
        ]
        up = [0] * len(subs)
        for p, q in pairs:
            up[p] |= 1 << q
        comparable.append((a, pairs, up))
    squares = []
    for b in small:
        subs_b = ambients[b][1]
        for a in small:
            A, _, index_a, _ = ambients[a]
            for mapping in fuzzy_morphisms(A, corpus[b]):
                pulled = [index_a[_pull(meet, A.membership, mapping, sub)] for sub in subs_b]
                squares.append((b, a, mapping, pulled))
    return meet, below, ambients, comparable, squares


def verify_qclosure(op, L, max_carrier=DEFAULT_FUZZY_CARRIER, square_carrier=2):
    """Check the five closure-operator axioms over the fuzzy corpus.

    Increasing, idempotence, and strongness preservation run over carriers
    up to ``max_carrier``; monotonicity and pullback stability, which need
    pairs and genuine squares, over carriers up to ``square_carrier``.
    Returns None or the first violation found.

    Everything that does not depend on the operator is built once per
    algebra and bounds by ``_qclosure_tables``: each ambient's subobjects
    as per-element tuples of membership-or-None with a subobject ->
    position index, the comparable pairs, and the positions of pulled-back
    subobjects.  A call computes only the closures and their positions.
    This works because a closure is again a subobject of the same ambient,
    and so is a pullback along a morphism into it: idempotence,
    strongness, monotonicity and pullback stability compare positions.
    The loops and their order are those of the direct check on
    ``FuzzySubset`` objects, so the first violation is the same; such
    objects are built only for a violation's context.
    """
    meet, below, ambients, comparable, squares = _qclosure_tables(
        L, max_carrier, square_carrier
    )
    closed_ats = []
    for A, subs, index, strong in ambients:
        ambient = A.membership
        closures = [_close(op, meet, ambient, sub) for sub in subs]
        closed_at = [index[closed] for closed in closures]
        for p, (sub, closed, pos) in enumerate(zip(subs, closures, closed_at)):
            if not below(sub, closed):
                return QClosureViolation("increasing", (A, FuzzySubset.from_tuple(A, sub)))
            if closed_at[pos] != pos:
                return QClosureViolation("idempotent", (A, FuzzySubset.from_tuple(A, sub)))
            if strong[p] and not strong[pos]:
                return QClosureViolation("strongness", (A, FuzzySubset.from_tuple(A, sub)))
        closed_ats.append(closed_at)
    for a, pairs, up in comparable:
        closed_at = closed_ats[a]
        for p, q in pairs:
            if not up[closed_at[p]] >> closed_at[q] & 1:
                A, subs = ambients[a][:2]
                return QClosureViolation(
                    "monotone",
                    (A, FuzzySubset.from_tuple(A, subs[p]), FuzzySubset.from_tuple(A, subs[q])),
                )
    for b, a, mapping, pulled in squares:
        # the closure of B's sub k pulls back to pulled[closed_at_b[k]]
        closed_at_a = closed_ats[a]
        lhs = [closed_at_a[pos] for pos in pulled]
        rhs = [pulled[pos] for pos in closed_ats[b]]
        if lhs != rhs:
            k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            A, B = ambients[a][0], ambients[b][0]
            return QClosureViolation(
                "pullback-stability",
                (A, B, mapping, FuzzySubset.from_tuple(B, ambients[b][1][k])),
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
        candidates = list(fuzzy_morphisms(A, B))
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
                for g in candidates:
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
