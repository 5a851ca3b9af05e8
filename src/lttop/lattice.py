"""Finite Heyting algebras and their nuclei.

Algebras are input as order relations only; meet, join, implication and
negation tables are always derived from the order, never user-supplied.
Construction is permissive so that defective candidates (a non-lattice
order, a failed adjunction) can be handed to :func:`verify_heyting` to get
a concrete counterexample instead of an exception.
"""

from .fincat import Record

DEFAULT_NUCLEUS_BOUND = 8


class LawViolation(Record):
    __slots__ = ("law", "witness")

    def __str__(self):
        return f"{self.law} fails at {self.witness}"


class FiniteHeytingAlgebra:
    """A finite poset with derived lattice and implication tables.

    Elements are the indices 0..size-1; ``leq(a, b)`` is the order.  Meet
    and join tables are derived on construction, the implication table on
    first use.  Entries that do not exist (missing meets, joins, or
    implications) are stored as None and reported by :func:`verify_heyting`.
    """

    def __init__(self, leq_pairs, size, names=None):
        self.size = size
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(size))
        self._up = [0] * size  # bitmask of {b : a <= b}
        for a, b in leq_pairs:
            self._up[a] |= 1 << b
        self._meet = None
        self._join = None
        self._impl = None  # built on first use by _implication_table
        self.bottom = None
        self.top = None
        self._derive()

    @staticmethod
    def from_leq(leq, size, names=None):
        pairs = [(a, b) for a in range(size) for b in range(size) if leq(a, b)]
        return FiniteHeytingAlgebra(pairs, size, names)

    @staticmethod
    def from_covers(names, covers):
        """Build from Hasse edges [(lower, upper), ...] over named elements."""
        index = {n: i for i, n in enumerate(names)}
        size = len(names)
        up = [1 << i for i in range(size)]
        adjacency = [[] for _ in range(size)]
        for lo, hi in covers:
            adjacency[index[lo]].append(index[hi])
        # transitive closure by repeated relaxation
        changed = True
        while changed:
            changed = False
            for a in range(size):
                acc = up[a]
                for b in range(size):
                    if up[a] >> b & 1:
                        acc |= up[b]
                for b in adjacency[a]:
                    acc |= up[b]
                if acc != up[a]:
                    up[a] = acc
                    changed = True
        pairs = [(a, b) for a in range(size) for b in range(size) if up[a] >> b & 1]
        return FiniteHeytingAlgebra(pairs, size, names)

    # -- order and derived tables --------------------------------------

    def leq(self, a, b):
        return bool(self._up[a] >> b & 1)

    def same_order(self, other):
        """Whether ``other`` has the same elements in the same order; names
        are not compared."""
        return self._up == other._up

    def _derive(self):
        # the meet of a and b, when it exists, is the unique element whose
        # down-set equals down(a) & down(b); dually for joins via up-sets
        n = self.size
        up = self._up
        down = [0] * n
        for a in range(n):
            mask = up[a]
            for b in range(n):
                if mask >> b & 1:
                    down[b] |= 1 << a
        self._down = down
        down_index = {}
        up_index = {}
        for c in range(n):
            down_index.setdefault(down[c], c)
            up_index.setdefault(up[c], c)
        meet = [[down_index.get(down[a] & down[b]) for b in range(n)] for a in range(n)]
        join = [[up_index.get(up[a] & up[b]) for b in range(n)] for a in range(n)]
        self._meet = meet
        self._join = join
        self._down_index = down_index
        full = (1 << n) - 1
        self.bottom = up_index.get(full)
        self.top = down_index.get(full)

    def _implication_table(self):
        """``a => b`` for every pair, None where it does not exist.

        Cubic in the size, so it is built on the first use of
        :meth:`implies`, :meth:`neg` or :func:`verify_heyting`, then kept.
        """
        if self._impl is not None:
            return self._impl
        n = self.size
        down = self._down
        down_index = self._down_index
        impl = [[None] * n for _ in range(n)]
        for a in range(n):
            row = self._meet[a]
            for b in range(n):
                down_b = down[b]
                # {c : a /\ c <= b} is a down-set; its maximum, if any, is a => b
                candidates = 0
                for c in range(n):
                    m = row[c]
                    if m is not None and down_b >> m & 1:
                        candidates |= 1 << c
                impl[a][b] = down_index.get(candidates)
        self._impl = impl
        return impl

    def meet(self, a, b):
        v = self._meet[a][b]
        if v is None:
            raise ValueError(f"no meet of {self.names[a]} and {self.names[b]}")
        return v

    def join(self, a, b):
        v = self._join[a][b]
        if v is None:
            raise ValueError(f"no join of {self.names[a]} and {self.names[b]}")
        return v

    def implies(self, a, b):
        impl = self._impl
        if impl is None:
            impl = self._implication_table()
        v = impl[a][b]
        if v is None:
            raise ValueError(f"no implication {self.names[a]} => {self.names[b]}")
        return v

    def neg(self, a):
        return self.implies(a, self.bottom)

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"FiniteHeytingAlgebra(size={self.size})"


def verify_heyting(L):
    """None if L is a Heyting algebra, else a LawViolation witness."""
    n = L.size
    for a in range(n):
        if not L.leq(a, a):
            return LawViolation("reflexivity", (a,))
    for a in range(n):
        for b in range(n):
            if a != b and L.leq(a, b) and L.leq(b, a):
                return LawViolation("antisymmetry", (a, b))
            for c in range(n):
                if L.leq(a, b) and L.leq(b, c) and not L.leq(a, c):
                    return LawViolation("transitivity", (a, b, c))
    if L.bottom is None or L.top is None:
        return LawViolation("bounds", ())
    impl = L._implication_table()
    for a in range(n):
        for b in range(n):
            if L._meet[a][b] is None:
                return LawViolation("meet-existence", (a, b))
            if L._join[a][b] is None:
                return LawViolation("join-existence", (a, b))
            if impl[a][b] is None:
                return LawViolation("implication-existence", (a, b))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                adjunction = L.leq(L.meet(a, b), c) == L.leq(a, L.implies(b, c))
                if not adjunction:
                    return LawViolation("adjunction", (a, b, c))
    return None


# -- standard algebras ---------------------------------------------------


def chain(n, names=None):
    """The n-element chain 0 < 1 < ... < n-1."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a <= b]
    return FiniteHeytingAlgebra(pairs, n, names)


def boolean(atoms):
    """The powerset algebra on ``atoms`` generators (2^atoms elements)."""
    n = 1 << atoms
    pairs = [(a, b) for a in range(n) for b in range(n) if a & ~b == 0]
    names = [format(a, f"0{atoms}b") if atoms else "1" for a in range(n)]
    return FiniteHeytingAlgebra(pairs, n, names)


def diamond():
    """The four-element Boolean algebra bottom < a, b < top."""
    return boolean(2)


def pentagon():
    """The non-distributive lattice N5; not a Heyting algebra."""
    names = ("bot", "a", "b", "c", "top")
    # bot < a < b < top and bot < c < top, with a, b incomparable to c
    covers = [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]
    return FiniteHeytingAlgebra.from_covers(names, covers)


# -- nuclei ---------------------------------------------------------------


class Nucleus(Record):
    """A meet-preserving, increasing, weakly idempotent endomap of L."""

    __slots__ = ("algebra", "mapping")

    def __call__(self, a):
        return self.mapping[a]

    def __str__(self):
        L = self.algebra
        return "{" + ", ".join(f"{L.names[a]}->{L.names[self(a)]}" for a in L.elements()) + "}"


def verify_nucleus(L, mapping):
    """None if the map satisfies the three nucleus axioms, else a witness."""
    for a in L.elements():
        for b in L.elements():
            if mapping[L.meet(a, b)] != L.meet(mapping[a], mapping[b]):
                return LawViolation("meet-preservation", (a, b))
    for a in L.elements():
        if not L.leq(a, mapping[a]):
            return LawViolation("increasing", (a,))
    for a in L.elements():
        if not L.leq(mapping[mapping[a]], mapping[a]):
            return LawViolation("weak-idempotence", (a,))
    return None


def enumerate_nuclei(L):
    """All nuclei on L, each exactly once, in lexicographic mapping order.

    Searches only monotone increasing maps fixing the top element (all
    derivable consequences of the axioms), then filters by the axioms.
    """
    bound = DEFAULT_NUCLEUS_BOUND
    if L.size > bound:
        raise ValueError(f"|L| = {L.size} exceeds the nucleus enumeration bound {bound}")
    rank = {a: sum(1 for b in L.elements() if L.leq(b, a)) for a in L.elements()}
    order = sorted(L.elements(), key=lambda a: (rank[a], a))
    mapping = [None] * L.size
    found = []

    def assign(pos):
        if pos == len(order):
            candidate = tuple(mapping)
            if verify_nucleus(L, candidate) is None:
                found.append(Nucleus(L, candidate))
            return
        a = order[pos]
        if a == L.top:
            choices = [L.top]
        else:
            choices = [v for v in L.elements() if L.leq(a, v)]
        for v in choices:
            ok = True
            for b in order[:pos]:
                if L.leq(b, a) and not L.leq(mapping[b], v):
                    ok = False
                    break
                if L.leq(a, b) and not L.leq(v, mapping[b]):
                    ok = False
                    break
            if ok:
                mapping[a] = v
                assign(pos + 1)
                mapping[a] = None

    assign(0)
    found.sort(key=lambda nu: nu.mapping)
    return tuple(found)


def double_negation_map(L):
    """The map a -> ((a => bot) => bot), derived from the implication table."""
    return tuple(L.neg(L.neg(a)) for a in L.elements())


def is_de_morgan(L):
    """Whether both De Morgan laws hold for every pair."""
    for a in L.elements():
        for b in L.elements():
            if L.neg(L.meet(a, b)) != L.join(L.neg(a), L.neg(b)):
                return False
            if L.neg(L.join(a, b)) != L.meet(L.neg(a), L.neg(b)):
                return False
    return True
