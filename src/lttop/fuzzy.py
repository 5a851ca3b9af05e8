"""Fuzzy sets over a finite Heyting algebra and their closure operators.

A fuzzy set is a finite carrier with a membership function into the
algebra; morphisms may only increase membership.  Closure operators come
in exactly two flavours: the trivial one (add everything, take ambient
memberships) and the nucleus-induced ones, which keep the carrier and
replace the membership of a subobject by (nucleus of the small membership)
meet (ambient membership).
"""

import itertools

from .fincat import Record

DEFAULT_FUZZY_CARRIER = 3


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


def _closed_at(op, L, a, s):
    """The closure at one element of ambient membership a whose subobject
    membership is s, or None where the subobject leaves it out: a under the
    trivial operator, else (nucleus of s) meet a, and None stays None."""
    if op.kind == "trivial":
        return a
    return None if s is None else L.meet(op.nucleus.mapping[s], a)


def fuzzy_closure(op, sub):
    """Apply a closure operator to a fuzzy subobject: every element at its
    ambient membership (trivial), or the nucleus of the membership met with
    the ambient one."""
    A = sub.ambient
    L = A.algebra
    theirs = dict(sub.members)
    closed = ((i, _closed_at(op, L, a, theirs.get(i))) for i, a in enumerate(A.membership))
    return FuzzySubset(A, tuple((i, c) for i, c in closed if c is not None))


def is_dense_fuzzy(op, sub):
    return fuzzy_closure(op, sub) == full_subset(sub.ambient)


# -- corpus -----------------------------------------------------------------


def fuzzy_corpus(L, max_carrier=DEFAULT_FUZZY_CARRIER):
    """Every fuzzy set over L with carrier a prefix of a, b, c, ..."""
    out = []
    for n in range(max_carrier + 1):
        names = tuple(chr(ord("a") + i) if i < 26 else f"a{i}" for i in range(n))
        for membership in itertools.product(range(L.size), repeat=n):
            out.append(FuzzySet(L, names, membership))
    return tuple(out)


def subobjects_of(A):
    """All fuzzy subobjects of A: subsets with pointwise-lowered memberships,
    by chosen carrier (smaller carriers first, then lexicographically), then
    by lowered memberships."""
    L = A.algebra
    down = [[m for m in L.elements() if L.leq(m, a)] for a in A.membership]
    return tuple(
        FuzzySubset(A, tuple(zip(chosen, membs)))
        for r in range(A.size + 1)
        for chosen in itertools.combinations(range(A.size), r)
        for membs in itertools.product(*(down[i] for i in chosen))
    )


def pullback_fuzzy(A, B, mapping, sub):
    """Pullback of a subobject of B along a morphism mapping: A -> B."""
    L = A.algebra
    theirs = dict(sub.members)
    return FuzzySubset(
        A,
        tuple(
            (i, L.meet(A.membership[i], theirs[j]))
            for i, j in enumerate(mapping)
            if j in theirs
        ),
    )


class QClosureViolation(Record):
    __slots__ = ("axiom", "context")

    def __str__(self):
        return f"quasitopos closure axiom {self.axiom} fails: {self.context}"


def _require_algebra(op, L):
    """Refuse an operator whose nucleus orders its indices unlike L does."""
    if op.kind == "nucleus" and not op.nucleus.algebra.same_order(L):
        raise ValueError("the closure operator's nucleus lives over a different algebra")


def _one_element(L, a):
    """The one-element fuzzy set at membership a and its subobjects, as
    ``fuzzy_corpus`` and ``subobjects_of`` list them."""
    A = fuzzy_corpus(L, 1)[1 + a]
    return A, subobjects_of(A)


def verify_qclosure(op, L, max_carrier=1):
    """Check the five closure-operator axioms on the fuzzy sets over L with
    at most one element.  Returns None or the first violation found.

    Increasing, idempotence and strongness preservation are checked on
    every subobject of each of those sets; monotonicity and pullback
    stability on every pair of their subobjects and every square between
    them.  ``max_carrier`` is accepted for callers that bound the corpus,
    but it is clamped to 1: any bound of 1 or more visits the same sets, 0
    only the empty fuzzy set.

    This is exact because every operator kind acts element by element: the
    trivial and the nucleus-induced closure of a subobject at an element
    depend only on that element's membership and ambient membership.
    Pullbacks, the subobject order and strongness are element-wise too, so
    a violation on a larger fuzzy set reappears, for the same axiom, on the
    one-element fuzzy set of the offending element alone.  The corpus lists
    those before any larger set, so the first violation is the one a larger
    bound would find, with the same context.

    The check runs on pairs (a, s) of algebra indices: a is the element's
    ambient membership and s its membership in the subobject, None when the
    subobject leaves the element out, else some s <= a.  These pairs are
    exactly the subobjects of the one-element set, listed in
    ``subobjects_of`` order, and every axiom reads off them exactly:
    closure is ``_closed_at``; s is below t when s is None, or t is not and
    s <= t; a subobject is strong when s is None or s = a; and the one
    carrier map from a' into b, which exists iff a' <= b, pulls s back to
    a' meet s.  The empty fuzzy set is skipped: its one subobject passes
    every axiom, and a square that involves it compares two subobjects of
    the empty set, which are equal.  Fuzzy-set and subobject records are
    built only for a violation's context, from the same positions of
    ``fuzzy_corpus`` and ``subobjects_of``.
    """
    _require_algebra(op, L)
    memberships = L.elements() if max_carrier >= 1 else ()
    subs = [[None, *(s for s in L.elements() if L.leq(s, a))] for a in memberships]
    closed = []

    def below(s, t):
        return s is None or (t is not None and L.leq(s, t))

    for a in memberships:
        closed.append([])
        for k, s in enumerate(subs[a]):
            c = _closed_at(op, L, a, s)
            closed[a].append(c)
            axiom = None
            if not below(s, c):
                axiom = "increasing"
            elif _closed_at(op, L, a, c) != c:
                axiom = "idempotent"
            elif s in (None, a) and c not in (None, a):
                axiom = "strongness"
            if axiom is not None:
                A, subs_a = _one_element(L, a)
                return QClosureViolation(axiom, (A, subs_a[k]))
    for a in memberships:
        pairs = list(zip(subs[a], closed[a]))
        for k1, (s1, c1) in enumerate(pairs):
            for k2, (s2, c2) in enumerate(pairs):
                if below(s1, s2) and not below(c1, c2):
                    A, subs_a = _one_element(L, a)
                    return QClosureViolation("monotone", (A, subs_a[k1], subs_a[k2]))
    for b in memberships:
        for a in memberships:
            if not L.leq(a, b):
                continue
            for k, (s, c) in enumerate(zip(subs[b], closed[b])):
                lhs = _closed_at(op, L, a, None if s is None else L.meet(a, s))
                rhs = None if c is None else L.meet(a, c)
                if lhs != rhs:
                    A, _ = _one_element(L, a)
                    B, subs_b = _one_element(L, b)
                    return QClosureViolation("pullback-stability", (A, B, (0,), subs_b[k]))
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
    _require_algebra(op, B.algebra)
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
