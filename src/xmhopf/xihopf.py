"""Crossed-module actions on graded Hopf coalgebras, and the dual algebra notion.

A crossed-module action on a graded bicoalgebra is a coherent family of
algebra isomorphisms phi_{x,e}: A_x -> A_{xi(e)x}; a graded Hopf coalgebra
carrying one is the central object of this package.  This module also
houses every example constructor, the grouplike pairing, and finite-type
duality.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .crossed import (
    CrossedModule,
    abelian_to_point,
    kernel_image_cokernel,
    validate_components,
    validate_crossed_module,
)
from .errors import DefiningIdentityFailedError, NotGrouplikeError, ShapeMismatchError
from .groups import FiniteGroup
from .hopf import (
    ComponentAlgebra,
    GradedHopfCoalgebra,
    GrouplikeFamily,
    group_algebra,
    is_grouplike,
    validate_antipode,
    validate_bicoalgebra,
)
from .linalg import Field, Matrix
from .record import Record
from .report import Report


class HopfXiCoalgebra(Record, eq=True):
    """A graded Hopf coalgebra `base` over cm.H equipped with a crossed-module action.

    action[(x, e)] is phi_{x,e}: A_x -> A_{xi(e)x}.
    """

    __slots__ = ("cm", "base", "action")

    @property
    def field(self) -> Field:
        return self.base.field

    @property
    def H(self) -> FiniteGroup:
        return self.cm.H

    @property
    def E(self) -> FiniteGroup:
        return self.cm.E

    def dim(self, x: int) -> int:
        return self.base.dim(x)

    def delta(self, x: int, y: int) -> Matrix:
        return self.base.delta(x, y)

    @property
    def counit(self) -> Matrix:
        return self.base.counit

    def S(self, x: int) -> Matrix:
        return self.base.S(x)

    def component(self, x: int) -> ComponentAlgebra:
        return self.base.components[x]

    def phi(self, x: int, e: int) -> Matrix:
        return self.action[(x, e)]

    def __post_init__(self):
        if self.base.H != self.cm.H:
            raise ShapeMismatchError("base coalgebra is graded by a different group")
        for x in self.H.elements():
            for e in self.E.elements():
                if (x, e) not in self.action:
                    raise ShapeMismatchError(f"missing action component ({x},{e})")
                m = self.action[(x, e)]
                tgt = self.H.mul(self.cm.xi_of(e), x)
                if m.rows != self.dim(tgt) or m.cols != self.dim(x):
                    raise ShapeMismatchError(f"action component ({x},{e}) has wrong shape")


def full_validation_report(a: HopfXiCoalgebra) -> Report:
    """The axioms, in order: groups and crossed module, `a` as its own regular Hopf module,
    the bicoalgebra identities a module does not have, the antipode.

    The regular Hopf module (hopfmod.regular_hopf_module) has r = mu, rho = Delta and
    psi = phi, so validate_hopf_xi_module checks on it associativity, the left unit,
    coassociativity, the left counit, Delta multiplicative, and phi's unit, composition,
    multiplicativity and coproduct compatibility laws; its reduced check (d) rests on
    phi_{x,1} = id and the crossed-module identities, which this report checks first.

    No lemma of the axioms is checked again; each follows from checks of this same report.
    - Antipode lemmas: S_x is anti-multiplicative, S_x(1) = 1, Delta_{x,y} S_xy =
      (S_x (x) S_y) flip Delta_{y^-1,x^-1} and eps S_1 = eps.  The convolution-inverse
      argument gives them from coassociativity, the counit laws, Delta and eps being algebra
      maps, Delta preserving units, and both antipode identities.
    - Antipode/action lemma: phi_{x,e} S_x = S_y phi_{x^-1,e'} with y = xi(e)x and
      e' = x^-1 > e^-1.  Coproduct compatibility at (x^-1, x, e', e), which
      validate_hopf_xi_module's docstring derives from the cases it checks, has label
      x^-1 > (e^-1 e) = 1, so Delta_{y^-1,y} = (phi_{x^-1,e'} (x) phi_{x,e}) Delta_{x^-1,x}.
      phi_{x^-1,e'} is invertible by the unit and composition laws, and each phi is a unital
      algebra map, so phi_{x,e} S_x phi_{x^-1,e'}^-1 satisfies the left antipode identity
      at y; a left convolution inverse equals the two-sided one, S_y.
    - phi_{x,e}(1) = 1: phi_{x,e} is multiplicative (the action compatibility cases of (d))
      and bijective, with inverse phi_{xi(e)x,e^-1} by the composition and unit laws and xi a
      homomorphism.  So phi(1) b = phi(1 phi^-1(b)) = b for every b by the left unit law,
      and the right unit law gives phi(1) = phi(1) 1 = 1.
    """
    from .hopfmod import regular_hopf_module, validate_hopf_xi_module  # hopfmod imports this

    rep = Report("Hopf crossed-module coalgebra")
    rep.merge(validate_components(a.cm))
    rep.merge(validate_crossed_module(a.cm))
    regular = validate_hopf_xi_module(a, regular_hopf_module(a))
    regular.title = "regular Hopf module"
    rep.merge(regular)
    rep.merge(validate_bicoalgebra(a.base))
    if a.base.antipode is None:
        rep.settle("antipode", False, "antipode missing and not computable")
    else:
        rep.merge(validate_antipode(a.base))
    return rep


# -- grouplike pairing ---------------------------------------------------------------


def grouplike_pairing(a: HopfXiCoalgebra, G: GrouplikeFamily) -> dict:
    """The pairing <G, e> = eps(phi_{xi(e^-1), e}(G_{xi(e^-1)})), one value per e, of a
    family G that is grouplike (is_grouplike); its callers have decided that already.

    The identity phi_{x,e}(G_x) = <G,e> G_{xi(e)x} is verified for every
    (x, e); failure means the input is not a valid structure.
    """
    cm, f, H, E = a.cm, a.field, a.H, a.E
    pairing = {}
    for e in E.elements():
        src = cm.xi_of(E.inv(e))
        val = a.counit.apply(a.phi(src, e).apply(G[src]))[0]
        pairing[e] = val
    for x in H.elements():
        for e in E.elements():
            tgt = H.mul(cm.xi_of(e), x)
            expect = tuple(f.mul(pairing[e], c) for c in G[tgt])
            if a.phi(x, e).apply(G[x]) != expect:
                raise DefiningIdentityFailedError(
                    f"phi_({x},{e})(G_{x}) != <G,e> G_({tgt})"
                )
    return pairing


def is_xi_grouplike(a: HopfXiCoalgebra, G: GrouplikeFamily) -> bool:
    """Whether G pairs to 1 with every e; NotGrouplikeError where G is not grouplike."""
    if not is_grouplike(a.base, G):
        raise NotGrouplikeError("pairing needs a grouplike family")
    pairing = grouplike_pairing(a, G)
    return all(v == a.field.one for v in pairing.values())


# -- constructors ---------------------------------------------------------------------
# Each checks only what its construction needs: shapes, an antipode to twist with, a base
# graded by the cokernel.  No law of its data is checked here: each law restates an axiom
# of the result, which full_validation_report checks with witnesses (see each docstring).


def mk_trivial(cm: CrossedModule, field: Field) -> HopfXiCoalgebra:
    """Every component is k; all structure maps are the identity."""
    one = Matrix(field, [[field.one]])
    comp = ComponentAlgebra(field, 1, one, (field.one,))
    H, E = cm.H, cm.E
    base = GradedHopfCoalgebra(
        field,
        H,
        tuple(comp for _ in H.elements()),
        {(x, y): one for x in H.elements() for y in H.elements()},
        one,
        tuple(one for _ in H.elements()),
    )
    action = {(x, e): one for x in H.elements() for e in E.elements()}
    return HopfXiCoalgebra(cm, base, action)


def mk_bicharacter_group_algebra(
    field: Field,
    e_group: FiniteGroup,
    g_group: FiniteGroup,
    omega: Sequence | Callable,
) -> HopfXiCoalgebra:
    """k^omega[G]: the group algebra k[G] acted on through a bicharacter.

    omega is indexed omega[e][g] (or callable) and phi_{0,e} is diag(omega(e, .)), over
    the crossed module E -> 1.  Only the table's shape is checked here.  The laws of a
    bicharacter are axioms of the result, which full_validation_report checks on A as
    its own regular Hopf module: omega(1,.) = 1 is phi's unit law and multiplicativity in
    E its composition law, both in `(d) psi equivariance laws`; multiplicativity in G is
    phi being multiplicative, the action compatibility cases of (d).  Nonzero values follow
    from the unit and composition laws, omega(e,g) omega(e^-1,g) = omega(1,g) = 1, then
    omega(.,1) = 1 from omega(e,1) = omega(e,1)^2, and E abelian is the Peiffer identity of
    E -> 1 (abelian_to_point).
    """
    if callable(omega):
        table = [[omega(e, g) for g in g_group.elements()] for e in e_group.elements()]
    else:
        table = [list(row) for row in omega]
    if len(table) != e_group.order or any(len(r) != g_group.order for r in table):
        raise ShapeMismatchError("bicharacter table has wrong shape")

    f = field
    cm = abelian_to_point(e_group)
    base = group_algebra(field, g_group)
    n = g_group.order
    action = {}
    for e in e_group.elements():
        rows = [[f.zero] * n for _ in range(n)]
        for g in range(n):
            rows[g][g] = table[e][g]
        action[(0, e)] = Matrix(field, rows)
    return HopfXiCoalgebra(cm, base, action)


def mk_from_h_action(
    cm: CrossedModule,
    classical: GradedHopfCoalgebra,
    rho: Sequence[Matrix],
) -> HopfXiCoalgebra:
    """Constant family A_x = A twisted by a homomorphism rho: H -> Aut_alg(A).

    Coproduct (rho_x (x) rho_y) delta rho_{(xy)^-1}, antipode rho_x s rho_x,
    action phi_{x,e} = rho_{xi(e)}.  Only shapes and A's antipode are checked here.
    rho a homomorphism into Aut_alg(A) is sufficient for the action laws but not
    necessary, and not sufficient for the rest (rho need not preserve the coproduct of
    A).  full_validation_report checks the axioms of the result, on A as its own regular
    Hopf module: rho(1) = id on Im(xi) is phi's unit law and rho multiplicative on Im(xi)
    its composition law, both in `(d) psi equivariance laws`, which make each phi
    invertible; each rho_{xi(e)} multiplicative is the action compatibility cases of (d),
    and unital follows (full_validation_report derives it); the twisted coproduct is checked
    by (b), (c), coproduct compatibility in (d) and the bicoalgebra and antipode checks.
    """
    if classical.H.order != 1:
        raise ShapeMismatchError("classical Hopf algebra data must be graded by the trivial group")
    if classical.antipode is None:
        raise ShapeMismatchError("classical Hopf algebra data needs its antipode")
    alg = classical.components[0]
    delta, counit, s = classical.delta(0, 0), classical.counit, classical.S(0)
    H, E, f = cm.H, cm.E, classical.field

    if len(rho) != H.order:
        raise ShapeMismatchError("rho must give one automorphism per element of H")
    for x in H.elements():
        if rho[x].rows != alg.dim or rho[x].cols != alg.dim:
            raise ShapeMismatchError(f"rho[{x}] has wrong shape")

    coproduct = {}
    for x in H.elements():
        for y in H.elements():
            xy_inv = H.inv(H.mul(x, y))
            coproduct[(x, y)] = rho[x].kron_matmul(rho[y], delta) @ rho[xy_inv]
    antipode = tuple(rho[x] @ s @ rho[x] for x in H.elements())
    action = {
        (x, e): rho[cm.xi_of(e)] for x in H.elements() for e in E.elements()
    }
    base = GradedHopfCoalgebra(
        f, H, tuple(alg for _ in H.elements()), coproduct, counit, antipode
    )
    return HopfXiCoalgebra(cm, base, action)


def mk_from_pi_coalgebra(cm: CrossedModule, b: GradedHopfCoalgebra) -> HopfXiCoalgebra:
    """Inflate a Hopf coalgebra graded by Coker(xi) to a trivial-action structure.

    A_x = B_{p(x)} along the canonical projection p: H -> Coker(xi).
    """
    kic = kernel_image_cokernel(cm)
    if b.H != kic.cokernel:
        raise ShapeMismatchError("b must be graded by the cokernel of the crossed module")
    if b.antipode is None:
        raise ShapeMismatchError("b needs its antipode")
    p = kic.projection
    H, E, f = cm.H, cm.E, b.field
    components = tuple(b.components[p[x]] for x in H.elements())
    coproduct = {
        (x, y): b.delta(p[x], p[y]) for x in H.elements() for y in H.elements()
    }
    antipode = tuple(b.S(p[x]) for x in H.elements())
    action = {
        (x, e): Matrix.identity(f, b.dim(p[x]))
        for x in H.elements()
        for e in E.elements()
    }
    base = GradedHopfCoalgebra(f, H, components, coproduct, b.counit, antipode)
    return HopfXiCoalgebra(cm, base, action)


def extract_pi_coalgebra(
    a: HopfXiCoalgebra, section: Sequence[int] | None = None
) -> GradedHopfCoalgebra:
    """Deflate a trivial-action structure back to a Coker(xi)-graded one.

    Any set-theoretic section of the projection gives the same answer; the
    default takes the least H-element of each coset.
    """
    kic = kernel_image_cokernel(a.cm)
    f = a.field
    for x in a.H.elements():
        for e in a.E.elements():
            if a.phi(x, e) != Matrix.identity(f, a.dim(x)):
                raise ValueError("extraction needs a trivial crossed-module action")
    if section is None:
        section = kic.section
    coker = kic.cokernel
    if len(section) != coker.order or any(
        kic.projection[section[c]] != c for c in range(coker.order)
    ):
        raise ValueError("not a section of the canonical projection")
    components = tuple(a.component(section[c]) for c in range(coker.order))
    coproduct = {
        (c, d): a.delta(section[c], section[d])
        for c in range(coker.order)
        for d in range(coker.order)
    }
    antipode = tuple(a.S(section[c]) for c in range(coker.order))
    return GradedHopfCoalgebra(f, coker, components, coproduct, a.counit, antipode)


# -- the dual notion -----------------------------------------------------------------


class HopfXiAlgebra(Record):
    """Graded algebra with per-component coalgebras; the finite-type dual notion.

    dims[x] = dim A_x; mul[(x, y)]: A_x (x) A_y -> A_{xy}; delta[x]: A_x -> A_x (x) A_x;
    eps[x]: A_x -> k; unit lives in A_1; antipode[x]: A_x -> A_{x^-1};
    action[(x, e)]: A_x -> A_{xi(e)x} by coalgebra isomorphisms.
    """

    __slots__ = ("cm", "field", "dims", "mul", "unit", "delta", "eps", "antipode", "action")

    @property
    def H(self) -> FiniteGroup:
        return self.cm.H

    @property
    def E(self) -> FiniteGroup:
        return self.cm.E

    def dim(self, x: int) -> int:
        return self.dims[x]

    def __post_init__(self):
        # dualize_algebra checks every size; a transpose cannot show a missing key or extra eps rows
        H, E = self.H, self.E
        if any(len(t) != H.order for t in (self.dims, self.delta, self.eps, self.antipode)):
            raise ShapeMismatchError("one dimension and component map per group element required")
        for x in H.elements():
            if self.eps[x].rows != 1:
                raise ShapeMismatchError(f"component counit {x} has wrong shape")
            for y in H.elements():
                if (x, y) not in self.mul:
                    raise ShapeMismatchError(f"missing product component ({x},{y})")
            for e in E.elements():
                if (x, e) not in self.action:
                    raise ShapeMismatchError(f"missing action component ({x},{e})")


def validate_hopf_xi_algebra(b: HopfXiAlgebra) -> Report:
    """All axioms of the dual notion: the coalgebra stack on the transposed structure.

    In finite type each axiom of a Hopf crossed-module algebra is the
    transpose of an axiom of the coalgebra notion, and dualize_algebra maps
    one structure onto the other exactly, so the checks are those of
    full_validation_report(dualize_algebra(b)), named as there.
    """
    rep = full_validation_report(dualize_algebra(b))
    rep.title = "Hopf crossed-module algebra"
    return rep


def dualize(a: HopfXiCoalgebra) -> HopfXiAlgebra:
    """Finite-type dual: transpose every structure map (action via its inverse)."""
    cm, f, H, E = a.cm, a.field, a.H, a.E
    dims = tuple(a.dim(x) for x in H.elements())
    mul = {
        (x, y): a.delta(x, y).T for x in H.elements() for y in H.elements()
    }
    unit = tuple(a.counit.data[0])
    delta = tuple(a.component(x).mul.T for x in H.elements())
    eps = tuple(a.component(x).unit_col().T for x in H.elements())
    antipode = tuple(a.S(x).T for x in H.elements())
    action = {}
    for x in H.elements():
        for e in E.elements():
            tgt = H.mul(cm.xi_of(e), x)
            action[(x, e)] = a.phi(tgt, E.inv(e)).T
    return HopfXiAlgebra(cm, f, dims, mul, unit, delta, eps, antipode, action)


def dualize_algebra(b: HopfXiAlgebra) -> HopfXiCoalgebra:
    """Finite-type dual in the other direction, inverse of dualize on the nose; checks b's sizes."""
    cm, f, H, E = b.cm, b.field, b.H, b.E
    components = tuple(
        ComponentAlgebra(f, b.dim(x), b.delta[x].T, tuple(b.eps[x].data[0]))
        for x in H.elements()
    )
    coproduct = {
        (x, y): b.mul[(x, y)].T for x in H.elements() for y in H.elements()
    }
    counit = Matrix.row(f, b.unit)
    antipode = tuple(b.antipode[x].T for x in H.elements())
    action = {}
    for x in H.elements():
        for e in E.elements():
            tgt = H.mul(cm.xi_of(e), x)
            action[(x, e)] = b.action[(tgt, E.inv(e))].T
    base = GradedHopfCoalgebra(f, H, components, coproduct, counit, antipode)
    return HopfXiCoalgebra(cm, base, action)
