"""Finite groups as multiplication tables, with homomorphisms and actions.

Elements are indices 0..n-1 and constructors always put the identity at
index 0.  All axioms are checked by exhaustive loops, which is the point:
groups here are desk scale (symmetric() is capped at n = 4).
"""

from __future__ import annotations

from itertools import permutations

from .errors import NotNormalError
from .record import Record
from .report import Report


class FiniteGroup(Record, eq=True):
    """Multiplication table over 0..n-1 (table[a][b] = ab), identity index, inverse indices."""

    __slots__ = ("table", "identity", "inverses")

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

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in self.elements()
            for b in self.elements()
        )

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

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
    """Exhaustively check closure, associativity, identity, and inverses."""
    rep = Report("group")
    n = g.order

    closure = rep.check("closure")
    for a in range(n):
        for b in range(n):
            v = g.table[a][b]
            if not 0 <= v < n:
                closure.add(f"table[{a}][{b}] = {v} out of range")
    if not closure.ok:
        return rep

    ident = rep.check("identity")
    e = g.identity
    if not 0 <= e < n:
        ident.add(f"identity index {e} out of range")
        return rep
    for a in range(n):
        if g.table[e][a] != a:
            ident.add(f"{e}*{a} = {g.table[e][a]} != {a}")
        if g.table[a][e] != a:
            ident.add(f"{a}*{e} = {g.table[a][e]} != {a}")

    invs = rep.check("inverses")
    for a in range(n):
        b = g.inverses[a]
        if not 0 <= b < n:
            invs.add(f"inverse[{a}] = {b} out of range")
            continue
        if g.table[a][b] != e or g.table[b][a] != e:
            invs.add(f"{a}*{b} = {g.table[a][b]}, {b}*{a} = {g.table[b][a]}, expected {e}")

    rep.identity("associativity", (
        (f"({a}*{b})*{c} != {a}*({b}*{c})", g.mul(g.mul(a, b), c), g.mul(a, g.mul(b, c)))
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

    def __call__(self, a: int) -> int:
        return self.map[a]

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(g.elements()))


def validate_hom(f: GroupHom) -> Report:
    rep = Report("group hom")
    g, h = f.source, f.target
    rng = rep.check("range")
    if len(f.map) != g.order:
        rng.add(f"map length {len(f.map)} != |source| {g.order}")
        return rep
    for a in g.elements():
        if not 0 <= f.map[a] < h.order:
            rng.add(f"map[{a}] = {f.map[a]} out of range")
    if not rng.ok:
        return rep

    rep.identity("preserves identity", [
        (f"map(1) = {f.map[g.identity]} != {h.identity}", f.map[g.identity], h.identity),
    ])
    rep.identity("multiplicative", (
        (f"map({a}*{b}) != map({a})*map({b})", f.map[g.mul(a, b)], h.mul(f.map[a], f.map[b]))
        for a in g.elements() for b in g.elements()
    ))
    return rep


def is_injective(f: GroupHom) -> bool:
    return len(set(f.map)) == f.source.order


# -- actions -------------------------------------------------------------------


class GroupAction(Record, eq=True):
    """Left action of `actor` on the group `space` by automorphisms: act[x][e]."""

    __slots__ = ("actor", "space", "table")

    def act(self, x: int, e: int) -> int:
        return self.table[x][e]

    @staticmethod
    def trivial(actor: FiniteGroup, space: FiniteGroup) -> "GroupAction":
        row = tuple(space.elements())
        return GroupAction(actor, space, tuple(row for _ in actor.elements()))


def validate_action(a: GroupAction) -> Report:
    rep = Report("group action")
    h, e_grp = a.actor, a.space

    shape = rep.check("shape")
    if len(a.table) != h.order or any(len(r) != e_grp.order for r in a.table):
        shape.add("action table shape mismatch")
        return rep
    for x in h.elements():
        for e in e_grp.elements():
            if not 0 <= a.table[x][e] < e_grp.order:
                shape.add(f"act[{x}][{e}] out of range")
    if not shape.ok:
        return rep

    rep.identity("identity acts trivially", (
        (f"act(1, {e}) = {a.act(h.identity, e)}", a.act(h.identity, e), e)
        for e in e_grp.elements()
    ))
    rep.identity("action is multiplicative in the actor", (
        (f"act({x}, act({y}, {e})) != act({x}*{y}, {e})",
         a.act(x, a.act(y, e)), a.act(h.mul(x, y), e))
        for x in h.elements() for y in h.elements() for e in e_grp.elements()
    ))

    auto = rep.check("each actor element acts by an automorphism")
    for x in h.elements():
        if len(set(a.table[x])) != e_grp.order:
            auto.add(f"act[{x}] is not a bijection")
            continue
        for e in e_grp.elements():
            for f in e_grp.elements():
                if a.act(x, e_grp.mul(e, f)) != e_grp.mul(a.act(x, e), a.act(x, f)):
                    auto.add(f"act({x}, {e}*{f}) is not multiplicative")
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
