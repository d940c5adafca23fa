"""Finite groups as multiplication tables, with homomorphisms and actions.

Elements are indices 0..n-1 and constructors always put the identity at
index 0.  All axioms are checked by exhaustive loops, which is the point:
groups here are desk scale (symmetric() is capped at n = 4).
"""

from __future__ import annotations

from itertools import permutations

from .errors import NotNormalError, ShapeMismatchError
from .record import Record
from .report import Report, given


def _indices(rows, length, bound) -> bool:
    """Whether each row holds `length` element indices 0..bound-1."""
    return all(len(row) == length and all(0 <= v < bound for v in row) for row in rows)


class FiniteGroup(Record, eq=True):
    """Multiplication table over 0..n-1 (table[a][b] = ab), identity index, inverse indices."""

    __slots__ = ("table", "identity", "inverses")

    def __post_init__(self):
        n = len(self.table)
        if not _indices(self.table, n, n):
            raise ShapeMismatchError("multiplication table is not order x order element indices")
        if not 0 <= self.identity < n or not _indices((self.inverses,), n, n):
            raise ShapeMismatchError("identity or inverse index out of range")

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, x: int, a: int) -> int:
        """x a x^-1."""
        return self.mul(self.mul(x, a), self.inv(x))

    @staticmethod
    def from_table(table) -> "FiniteGroup":
        """Build from a bare table, locating identity and inverses.

        The result may violate the group axioms; run validate_group to find out.
        """
        n = len(table)
        table = tuple(tuple(int(x) for x in row) for row in table)
        identity = 0
        for e in range(n):
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                identity = e
                break
        inverses = []
        for a in range(n):
            inv = a
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    inv = b
                    break
            inverses.append(inv)
        return FiniteGroup(table, identity, tuple(inverses))


def validate_group(g: FiniteGroup) -> Report:
    """Exhaustively check identity, inverses, and associativity."""
    rep = Report("group")
    n, e = g.order, g.identity
    rep.identity("identity", (
        ("{}*{} = {} != {}", (x, y, g.mul(x, y), a), given, (g.mul(x, y), a))
        for a in range(n) for x, y in ((e, a), (a, e))
    ))
    rep.identity("inverses", (
        ("{0}*{1} = {2}, {1}*{0} = {3}, expected {4}", (a, b, g.mul(a, b), g.mul(b, a), e),
         given, ((g.mul(a, b), g.mul(b, a)), (e, e)))
        for a, b in enumerate(g.inverses)
    ))
    rep.identity("associativity", (
        ("({0}*{1})*{2} != {0}*({1}*{2})", (a, b, c), given,
         (g.mul(g.mul(a, b), c), g.mul(a, g.mul(b, c))))
        for a in range(n) for b in range(n) for c in range(n)
    ))
    return rep


# -- constructors --------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(table, 0, tuple((-a) % n for a in range(n)))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Pairs (a, b) indexed a * |h| + b; identity stays at 0."""
    m = h.order
    n = g.order * m

    def idx(a, b):
        return a * m + b

    table = [[0] * n for _ in range(n)]
    for a1 in g.elements():
        for b1 in h.elements():
            for a2 in g.elements():
                for b2 in h.elements():
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g.mul(a1, a2), h.mul(b1, b2))
    inverses = tuple(idx(g.inv(a), h.inv(b)) for a in g.elements() for b in h.elements())
    return FiniteGroup(tuple(tuple(r) for r in table), 0, inverses)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters from permutation composition, n <= 4.

    Permutations are enumerated in lexicographic order, so the identity
    permutation sits at index 0.
    """
    if not 1 <= n <= 4:
        raise ValueError("symmetric(n) supports 1 <= n <= 4")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p . q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(n))

    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    inverses = []
    for p in perms:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverses.append(index[tuple(inv)])
    return FiniteGroup(table, 0, tuple(inverses))


# -- homomorphisms ------------------------------------------------------------


class GroupHom(Record, eq=True):
    __slots__ = ("source", "target", "map")

    def __post_init__(self):
        if not _indices((self.map,), self.source.order, self.target.order):
            raise ShapeMismatchError("map does not give one target index per source element")

    def __call__(self, a: int) -> int:
        return self.map[a]

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(g.elements()))


def validate_hom(f: GroupHom) -> Report:
    """Multiplicativity, exhaustively.  map(1) = 1 follows, given the group checks of source
    and target: the case (1, 1) reads map(1) = map(1*1) = map(1)*map(1); cancel in the target."""
    rep = Report("group hom")
    g, h = f.source, f.target
    rep.identity("multiplicative", (
        ("map({0}*{1}) != map({0})*map({1})", (a, b), given,
         (f.map[g.mul(a, b)], h.mul(f.map[a], f.map[b])))
        for a in g.elements() for b in g.elements()
    ))
    return rep


def is_injective(f: GroupHom) -> bool:
    return len(set(f.map)) == f.source.order


# -- actions -------------------------------------------------------------------


class GroupAction(Record, eq=True):
    """Left action of `actor` on the group `space` by automorphisms: act[x][e]."""

    __slots__ = ("actor", "space", "table")

    def __post_init__(self):
        n = self.space.order
        if len(self.table) != self.actor.order or not _indices(self.table, n, n):
            raise ShapeMismatchError("action table is not one row of space indices per actor element")

    def act(self, x: int, e: int) -> int:
        return self.table[x][e]

    @staticmethod
    def trivial(actor: FiniteGroup, space: FiniteGroup) -> "GroupAction":
        row = tuple(space.elements())
        return GroupAction(actor, space, tuple(row for _ in actor.elements()))


def validate_action(a: GroupAction) -> Report:
    """The action laws, and each act[x] multiplicative.  Each act[x] is then a bijection, so
    an automorphism: act(x^-1, act(x, e)) = act(x^-1 x, e) = act(1, e) = e, by the first two
    checks and the inverse law of the actor, which the group checks give."""
    rep = Report("group action")
    h, e_grp = a.actor, a.space
    es = e_grp.elements()
    rep.identity("identity acts trivially", (
        ("act(1, {}) = {}", (e, a.act(h.identity, e)), given, (a.act(h.identity, e), e))
        for e in es
    ))
    rep.identity("action is multiplicative in the actor", (
        ("act({0}, act({1}, {2})) != act({0}*{1}, {2})", (x, y, e), given,
         (a.act(x, a.act(y, e)), a.act(h.mul(x, y), e)))
        for x in h.elements() for y in h.elements() for e in es
    ))
    rep.identity("each actor element acts by an automorphism", (
        ("act({}, {}*{}) is not multiplicative", (x, e, f), given,
         (a.act(x, e_grp.mul(e, f)), e_grp.mul(a.act(x, e), a.act(x, f))))
        for x in h.elements() for e in es for f in es
    ))
    return rep


def conjugation_action(h: FiniteGroup, embedding: GroupHom) -> GroupAction:
    """Action of h on the embedded subgroup by conjugation.

    The embedding must be injective with normal image; otherwise some
    conjugate has no preimage and NotNormalError is raised.
    """
    if embedding.target is not h and embedding.target != h:
        raise ValueError("embedding target differs from the acting group")
    if not is_injective(embedding):
        raise ValueError("embedding is not injective")
    e_grp = embedding.source
    preimage = {embedding(e): e for e in e_grp.elements()}
    table = []
    for x in h.elements():
        row = []
        for e in e_grp.elements():
            c = h.conj(x, embedding(e))
            if c not in preimage:
                raise NotNormalError(
                    f"conjugate {x}.{embedding(e)}.{x}^-1 = {c} is outside the image"
                )
            row.append(preimage[c])
        table.append(tuple(row))
    return GroupAction(h, e_grp, tuple(table))
