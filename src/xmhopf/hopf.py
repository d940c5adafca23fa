"""Group-graded coalgebras, bicoalgebras, and Hopf coalgebras over an exact field.

A graded Hopf coalgebra is a family of structure-constant algebras A_x
indexed by a finite group H, a coproduct family Delta_{x,y}: A_{xy} ->
A_x (x) A_y, a counit on A_1, and an antipode family S_x: A_{x^-1} -> A_x.
All structure maps are stored as exact matrices, whose shapes a structure
checks once, when it is built; every axiom is an exact matrix identity
checked with witnesses.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (
    MissingAntipodeError,
    NotGrouplikeError,
    SearchBudgetError,
    ShapeMismatchError,
)
from .groups import FiniteGroup, cyclic
from .linalg import Field, Matrix
from .record import Record
from .report import Report, given


def vec_kron(field: Field, u: Sequence, v: Sequence) -> tuple:
    """Coordinates of u (x) v in the left-major flattening."""
    return tuple(field.mul(a, b) for a in u for b in v)


class ComponentAlgebra(Record, eq=True):
    """Finite-dimensional unital algebra given by structure constants.

    mul is the multiplication as a matrix A (x) A -> A (dim x dim^2),
    column index i*dim + j for e_i e_j; unit is the coordinate vector of 1.
    """

    __slots__ = ("field", "dim", "mul", "unit", "_unit_col")

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("component algebras must be nonzero")
        if self.mul.rows != self.dim or self.mul.cols != self.dim * self.dim:
            raise ShapeMismatchError("multiplication tensor has wrong shape")
        if len(self.unit) != self.dim:
            raise ShapeMismatchError("unit vector has wrong length")

    @staticmethod
    def from_structure_constants(field: Field, c, unit) -> "ComponentAlgebra":
        """c[i][j][k] is the coefficient of e_k in e_i e_j."""
        dim = len(c)
        products = Matrix(field, [e_ij for c_i in c for e_ij in c_i], dim * dim, dim)
        return ComponentAlgebra(field, dim, products.T, tuple(unit))

    def structure_constants(self):
        products, d = self.mul.T.data, self.dim
        return [[list(products[i * d + j]) for j in range(d)] for i in range(d)]

    def unit_col(self) -> Matrix:
        """The unit as a dim x 1 column, built on the first call."""
        col = getattr(self, "_unit_col", None)
        if col is None:
            col = Matrix.col(self.field, self.unit)
            object.__setattr__(self, "_unit_col", col)
        return col

    def multiply(self, u: Sequence, v: Sequence) -> tuple:
        return self.mul.apply(vec_kron(self.field, u, v))


class GradedHopfCoalgebra(Record, eq=True):
    """Family {A_x} with coproduct, counit, and optional antipode.

    components[x] is A_x; coproduct[(x, y)] is Delta_{x,y}: A_{xy} -> A_x (x) A_y
    as a (dim_x * dim_y) x dim_xy matrix; counit is 1 x dim_1; antipode[x] is
    S_x: A_{x^-1} -> A_x, or antipode is None until computed.
    """

    __slots__ = ("field", "H", "components", "coproduct", "counit", "antipode")
    _defaults = {"antipode": lambda: None}

    def dim(self, x: int) -> int:
        return self.components[x].dim

    def delta(self, x: int, y: int) -> Matrix:
        return self.coproduct[(x, y)]

    def S(self, x: int) -> Matrix:
        if self.antipode is None:
            raise MissingAntipodeError("antipode has not been computed")
        return self.antipode[x]

    def with_antipode(self, antipode: Sequence[Matrix]) -> "GradedHopfCoalgebra":
        return GradedHopfCoalgebra(
            self.field, self.H, self.components, self.coproduct, self.counit, tuple(antipode)
        )

    def __post_init__(self):
        H = self.H
        if len(self.components) != H.order:
            raise ShapeMismatchError("one component algebra per group element required")
        for x in H.elements():
            for y in H.elements():
                if (x, y) not in self.coproduct:
                    raise ShapeMismatchError(f"missing coproduct component ({x},{y})")
                d = self.coproduct[(x, y)]
                if d.rows != self.dim(x) * self.dim(y) or d.cols != self.dim(H.mul(x, y)):
                    raise ShapeMismatchError(f"coproduct ({x},{y}) has wrong shape")
        if self.counit.rows != 1 or self.counit.cols != self.dim(H.identity):
            raise ShapeMismatchError("counit has wrong shape")
        if self.antipode is not None:
            if len(self.antipode) != H.order:
                raise ShapeMismatchError("one antipode component per group element required")
            for x in H.elements():
                s = self.antipode[x]
                if s.rows != self.dim(x) or s.cols != self.dim(H.inv(x)):
                    raise ShapeMismatchError(f"antipode component {x} has wrong shape")


# -- validators ------------------------------------------------------------------


def validate_bicoalgebra(a: GradedHopfCoalgebra) -> Report:
    """The bialgebra identities of `a` that its regular Hopf module does not check.

    Read as a Hopf module over itself (hopfmod.regular_hopf_module), `a` gets associativity,
    the left unit, coassociativity, the left counit law and the multiplicativity of Delta
    from validate_hopf_xi_module; a module has no unit, counit or right action, so these
    are the rest: the right unit and counit laws, Delta preserving units and eps
    multiplicative.  eps(1_1) = 1 follows: the left counit law at x = 1 and Delta_{1,1}(1_1)
    = 1_1 (x) 1_1 give 1_1 = eps(1_1) 1_1, and 1_1 != 0 by the left unit law, as dim A_1 >= 1.
    """
    rep = Report("graded bicoalgebra")
    H, f, comps = a.H, a.field, a.components
    xs, one = H.elements(), H.identity
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]

    def right_unit(mul_x, id_x, unit_x):
        return mul_x.matmul_kron(id_x, unit_x), id_x

    def right_counit(id_x, delta_x1):
        return id_x.kron_matmul(a.counit, delta_x1), id_x

    def preserves_units(delta_xy, unit_xy, unit_x, unit_y):
        return delta_xy @ unit_xy, unit_x.kron(unit_y)

    rep.identity("right unit", (
        ("x={}", (x,), right_unit, (comps[x].mul, ident[x], comps[x].unit_col())) for x in xs
    ))
    rep.identity("right counit", (
        ("x={}", (x,), right_counit, (ident[x], a.delta(x, one))) for x in xs
    ))
    rep.identity("coproduct preserves units", (
        ("(x,y)=({},{})", (x, y), preserves_units,
         (a.delta(x, y), comps[H.mul(x, y)].unit_col(), comps[x].unit_col(), comps[y].unit_col()))
        for x in xs for y in xs
    ))
    rep.identity("counit is an algebra map", [
        ("eps mu_1 != eps (x) eps", (), given,
         (a.counit @ comps[one].mul, a.counit.kron(a.counit))),
    ])
    return rep


def antipode_solve_details(a: GradedHopfCoalgebra, x: int):
    """Solve the left antipode identity for S_x; returns (matrix or None, unique flag).

    The unknown S_x: A_{x^-1} -> A_x enters mu_x (S_x (x) id) Delta_{x^-1,x}
    = eta_x eps linearly.  With S_x and both sides flattened row-major, the
    system is (mu_x (x) id_{A_1}) (id_{A_x} (x) D^T) for D = Delta_{x^-1,x}
    reshaped to dim A_{x^-1} x (dim A_x dim A_1); it is solved by exact
    elimination.
    """
    H, f = a.H, a.field
    xinv = H.inv(x)
    dx, dxi, d1 = a.dim(x), a.dim(xinv), a.dim(H.identity)
    d = a.delta(xinv, x).reshape(dxi, dx * d1)
    system = a.components[x].mul.kron_matmul(Matrix.identity(f, d1),
                                             Matrix.identity(f, dx).kron(d.T))
    target = a.components[x].unit_col() @ a.counit
    solved = system.solve(target.reshape(1, dx * d1).data[0])
    if solved is None:
        return None, False
    flat, unique = solved
    return Matrix.row(f, flat).reshape(dx, dxi), unique


def compute_antipode(a: GradedHopfCoalgebra) -> tuple[Matrix, ...] | None:
    """Convolution inverse of the identity, or None when it does not exist.

    Solves the left identity per component, then accepts the solution only
    if validate_antipode passes; any failure means the bicoalgebra is not Hopf.
    """
    out = []
    for x in a.H.elements():
        s, _unique = antipode_solve_details(a, x)
        if s is None:
            return None
        out.append(s)
    return tuple(out) if validate_antipode(a.with_antipode(out)).ok else None


def validate_antipode(a: GradedHopfCoalgebra) -> Report:
    """Both defining convolution identities plus bijectivity."""
    if a.antipode is None:
        raise MissingAntipodeError("validate_antipode needs an antipode")
    rep = Report("antipode axioms")
    H, f, comps = a.H, a.field, a.components
    xs = H.elements()
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]

    def left_identity(mul_x, s_x, id_x, delta, unit_x):
        return mul_x @ s_x.kron_matmul(id_x, delta), unit_x @ a.counit

    def right_identity(mul_x, id_x, s_x, delta, unit_x):
        return mul_x @ id_x.kron_matmul(s_x, delta), unit_x @ a.counit

    def bijective(s_x):
        return s_x.is_invertible(), True

    rep.identity("left identity mu (S (x) id) Delta = eta eps", (
        ("x={}", (x,), left_identity,
         (comps[x].mul, a.S(x), ident[x], a.delta(H.inv(x), x), comps[x].unit_col()))
        for x in xs
    ))
    rep.identity("right identity mu (id (x) S) Delta = eta eps", (
        ("x={}", (x,), right_identity,
         (comps[x].mul, ident[x], a.S(x), a.delta(x, H.inv(x)), comps[x].unit_col()))
        for x in xs
    ))
    rep.identity("bijectivity", (("x={}", (x,), bijective, (a.S(x),)) for x in xs))
    return rep


# -- grouplike machinery ------------------------------------------------------------


GrouplikeFamily = tuple  # tuple of per-component coordinate tuples


def _counit_of(a: GradedHopfCoalgebra, G):
    """eps(G_1), which the counit normalization asks to be 1."""
    return a.counit.apply(G[a.H.identity])[0]


def _coproduct(f: Field, delta_xy: Matrix, g_xy, g_x, g_y) -> tuple:
    """Delta_{x,y}(G_xy) and G_x (x) G_y, the two sides of the coproduct condition at (x, y)."""
    return delta_xy.apply(g_xy), vec_kron(f, g_x, g_y)


def _coproduct_holds(a: GradedHopfCoalgebra, G, x: int, y: int) -> bool:
    """Delta_{x,y}(G_xy) = G_x (x) G_y; reads only the components of degree x, y and xy."""
    lhs, rhs = _coproduct(a.field, a.delta(x, y), G[a.H.mul(x, y)], G[x], G[y])
    return lhs == rhs


def grouplike_report(a: GradedHopfCoalgebra, G: GrouplikeFamily) -> Report:
    """The grouplike conditions on a candidate family G, one identity each, with witnesses.

    A G not shaped like the components raises ShapeMismatchError; docio checks a document's.
    A G given as lists is read as tuples, since its entries are case operands.
    """
    H, f = a.H, a.field
    G = tuple(map(tuple, G))
    if len(G) != H.order or any(len(G[x]) != a.dim(x) for x in H.elements()):
        raise ShapeMismatchError("family has wrong component dimensions")
    rep = Report("grouplike candidate")
    eps = _counit_of(a, G)
    rep.identity("counit normalization eps(G_1) = 1",
                 [("eps(G_1) = {}", (f.show(eps),), given, (eps, f.one))])
    rep.identity("Delta_{x,y}(G_xy) = G_x (x) G_y", (
        ("(x,y)=({},{})", (x, y), _coproduct, (f, a.delta(x, y), G[H.mul(x, y)], G[x], G[y]))
        for x in H.elements() for y in H.elements()
    ))
    return rep


def is_grouplike(a: GradedHopfCoalgebra, G: GrouplikeFamily) -> bool:
    return grouplike_report(a, G).ok


def grouplike_product(a: GradedHopfCoalgebra, G1: GrouplikeFamily, G2: GrouplikeFamily):
    return tuple(a.components[x].multiply(G1[x], G2[x]) for x in a.H.elements())


def grouplike_inverse(a: GradedHopfCoalgebra, G: GrouplikeFamily) -> GrouplikeFamily:
    """Pointwise inverse G_x^-1 = S_x(G_{x^-1}) of a grouplike family G; a G that is not
    grouplike raises NotGrouplikeError.

    That it is an inverse is not checked: Delta_{x^-1,x}(G_1) = G_{x^-1} (x) G_x and
    eps(G_1) = 1, so the left antipode identity at x, applied to G_1, gives
    S_x(G_{x^-1}) G_x = 1_x, and the right identity, through Delta_{x,x^-1}, gives
    G_x S_x(G_{x^-1}) = 1_x.  validate_antipode checks both identities in the same
    full_validation_report; tests/oracles.py keeps the check this function used to run.
    """
    if not is_grouplike(a, G):
        raise NotGrouplikeError("grouplike_inverse: family is not grouplike")
    H = a.H
    return tuple(a.S(x).apply(G[H.inv(x)]) for x in H.elements())


# The most partial families enumerate_grouplikes may visit, since the search is
# exponential in the worst case: the trivial structure over Z/100 takes 396 visits,
# and k[S3] twisted by conjugation over id: S3 -> S3 (dimension 6 over GF(5)) 948.
GROUPLIKE_VISIT_BUDGET = 10_000


def enumerate_grouplikes(a: GradedHopfCoalgebra) -> list[GrouplikeFamily]:
    """All grouplike families supported on +-basis vectors.

    Grouplike enumeration in general is a polynomial-variety problem; this
    deliberately searches only sign-scaled basis vectors, which covers every
    example in this package's scope.

    The search is depth first: it assigns G_0, G_1, ... in index order, trying
    e_0, -e_0, e_1, -e_1, ... in each component, so families come out in that
    lexicographic order.  A partial family is dropped at the first condition
    whose degrees are all assigned and which fails: the counit normalization
    once G_1 is set, and Delta_{x,y}(G_xy) = G_x (x) G_y once G_max(x,y,xy) is.
    Every complete family is still accepted only through is_grouplike.  Trying
    one candidate in one component is one visit; a search that would make more
    than GROUPLIKE_VISIT_BUDGET visits raises SearchBudgetError.
    """
    H, f = a.H, a.field
    per_component = []
    for x in H.elements():
        cands = []
        for v in Matrix.identity(f, a.dim(x)).data:
            cands.append(v)
            neg = tuple(f.neg(c) for c in v)
            if neg != v:
                cands.append(neg)
        per_component.append(cands)
    due = [[] for _ in H.elements()]  # due[d]: the (x, y) decided once G_d is assigned
    for x in H.elements():
        for y in H.elements():
            due[max(x, y, H.mul(x, y))].append((x, y))

    found, partial, visits = [], [], 0

    def search(d):
        nonlocal visits
        for cand in per_component[d]:
            visits += 1
            if visits > GROUPLIKE_VISIT_BUDGET:
                raise SearchBudgetError(
                    f"grouplike search visited more than {GROUPLIKE_VISIT_BUDGET} partial families"
                )
            partial.append(cand)
            if (d != H.identity or _counit_of(a, partial) == f.one) and all(
                _coproduct_holds(a, partial, x, y) for x, y in due[d]
            ):
                if d + 1 < H.order:
                    search(d + 1)
                elif is_grouplike(a, tuple(partial)):
                    found.append(tuple(partial))
            partial.pop()

    search(0)
    return found


def is_pivotal_element(a: GradedHopfCoalgebra, G: GrouplikeFamily) -> Report:
    """Check S_x S_{x^-1}(v) = G_x v G_x^-1 on every basis vector; a G that is not grouplike
    raises NotGrouplikeError from grouplike_inverse."""
    return _pivotal_report(a, G, grouplike_inverse(a, G))


def _pivotal_report(a: GradedHopfCoalgebra, G: GrouplikeFamily, ginv) -> Report:
    """is_pivotal_element's report for a grouplike G with inverse ginv = grouplike_inverse(a, G)."""
    H, f = a.H, a.field

    def cases():
        for x in H.elements():
            comp = a.components[x]
            ss = a.S(x) @ a.S(H.inv(x))
            for i, basis in enumerate(Matrix.identity(f, comp.dim).data):
                conjugated = comp.multiply(comp.multiply(G[x], basis), ginv[x])
                yield "x={} basis={}", (x, i), given, (ss.apply(basis), conjugated)

    rep = Report("pivotal element")
    rep.identity("S_x S_{x^-1} equals conjugation by G", cases())
    return rep


# -- small constructors ---------------------------------------------------------------


def classical_hopf(
    field: Field,
    algebra: ComponentAlgebra,
    delta: Matrix,
    counit: Matrix,
    antipode: Matrix | None = None,
) -> GradedHopfCoalgebra:
    """A classical Hopf algebra as a coalgebra graded by the trivial group."""
    return GradedHopfCoalgebra(
        field,
        cyclic(1),
        (algebra,),
        {(0, 0): delta},
        counit,
        (antipode,) if antipode is not None else None,
    )


def group_algebra(field: Field, g: FiniteGroup) -> GradedHopfCoalgebra:
    """k[G]: basis indexed by group elements, Delta(g) = g (x) g, S(g) = g^-1."""
    n, els = g.order, g.elements()
    e = Matrix.identity(field, n).data  # e[i]: the basis vector of element i
    # each map is given by its columns, the images of the basis vectors
    mul = Matrix(field, [e[g.mul(i, j)] for i in els for j in els], n * n, n).T
    delta = Matrix(field, [vec_kron(field, e[i], e[i]) for i in els], n, n * n).T
    antipode = Matrix(field, [e[g.inv(i)] for i in els], n, n).T
    algebra = ComponentAlgebra(field, n, mul, e[g.identity])
    return classical_hopf(field, algebra, delta, Matrix.row(field, [field.one] * n), antipode)


def component_hopf_at_identity(a: GradedHopfCoalgebra) -> GradedHopfCoalgebra:
    """The classical Hopf algebra (A_1, Delta_{1,1}, eps, S_1) sitting inside a."""
    one = a.H.identity
    return classical_hopf(
        a.field,
        a.components[one],
        a.delta(one, one),
        a.counit,
        a.S(one) if a.antipode is not None else None,
    )
