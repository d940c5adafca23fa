"""Hopf modules over a Hopf crossed-module coalgebra, integrals, coinvariants.

The structure theorem (every Hopf module is trivial) is implemented with
its explicit quasi-inverse and checked exactly; the integral solver stacks
all coproduct and action conditions into one linear system; the module of
functionals {A*_{x^-1}} carries a Hopf module structure whose coinvariants
are exactly the right integrals, which yields the one-dimensionality of
the integral space for finite-type structures over a field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AxiomCheckFailedError,
    DefiningIdentityFailedError,
    NotIntegralError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .hopf import is_grouplike
from .linalg import Matrix
from .report import Report, holds
from .xihopf import HopfXiCoalgebra, is_xi_grouplike


@dataclass(frozen=True, eq=False)
class HopfXiModule:
    """Graded family with action r, coaction rho, and equivariance maps psi.

    r[x]: A_x (x) M_x -> M_x;  rho[(x,y)]: M_{xy} -> A_x (x) M_y;
    psi[(x,e)]: M_x -> M_{xi(e)x}.
    """

    algebra: HopfXiCoalgebra
    dims: tuple[int, ...]
    r: tuple[Matrix, ...]
    rho: dict
    psi: dict

    def dim(self, x: int) -> int:
        return self.dims[x]

    def check_shapes(self) -> None:
        a = self.algebra
        H, E = a.H, a.E
        if len(self.dims) != H.order or len(self.r) != H.order:
            raise ShapeMismatchError("one dimension and action per group element required")
        for x in H.elements():
            if self.r[x].rows != self.dim(x) or self.r[x].cols != a.dim(x) * self.dim(x):
                raise ShapeMismatchError(f"action at x={x} has wrong shape")
            for y in H.elements():
                m = self.rho[(x, y)]
                if m.rows != a.dim(x) * self.dim(y) or m.cols != self.dim(H.mul(x, y)):
                    raise ShapeMismatchError(f"coaction at ({x},{y}) has wrong shape")
            for e in E.elements():
                m = self.psi[(x, e)]
                tgt = H.mul(a.cm.xi_of(e), x)
                if m.rows != self.dim(tgt) or m.cols != self.dim(x):
                    raise ShapeMismatchError(f"psi at ({x},{e}) has wrong shape")


def validate_hopf_xi_module(a: HopfXiCoalgebra, m: HopfXiModule) -> Report:
    """The four axiom groups, exact, with witnesses."""
    m.check_shapes()
    rep = Report("Hopf crossed-module module")
    f, H, E, cm = a.field, a.H, a.E, a.cm
    xs, es, one = H.elements(), E.elements(), H.identity
    ident_a = [Matrix.identity(f, a.dim(x)) for x in xs]
    ident_m = [Matrix.identity(f, m.dim(x)) for x in xs]

    def tgt(x, e):
        return H.mul(cm.xi_of(e), x)

    def module_cases():
        for x in xs:
            comp = a.component(x)
            yield (f"associativity at x={x}",
                   m.r[x] @ comp.mul.kron(ident_m[x]), m.r[x] @ ident_a[x].kron(m.r[x]))
            yield f"unitality at x={x}", m.r[x] @ comp.unit_col().kron(ident_m[x]), ident_m[x]

    def comodule_cases():
        for x in xs:
            for y in xs:
                for z in xs:
                    yield (f"coassociativity at (x,y,z)=({x},{y},{z})",
                           a.delta(x, y).kron(ident_m[z]) @ m.rho[(H.mul(x, y), z)],
                           ident_a[x].kron(m.rho[(y, z)]) @ m.rho[(x, H.mul(y, z))])
        for x in xs:
            yield f"counitality at x={x}", a.counit.kron(ident_m[x]) @ m.rho[(one, x)], ident_m[x]

    def equivariance_cases():
        for x in xs:
            yield f"psi_(x,1) != id at x={x}", m.psi[(x, E.identity)], ident_m[x]
            for e in es:
                for g in es:
                    yield (f"composition at x={x} e={e} f={g}",
                           m.psi[(tgt(x, e), g)] @ m.psi[(x, e)], m.psi[(x, E.mul(g, e))])
                yield (f"action compatibility at x={x} e={e}",
                       m.psi[(x, e)] @ m.r[x], m.r[tgt(x, e)] @ a.phi(x, e).kron(m.psi[(x, e)]))
            for y in xs:
                for e in es:
                    for g in es:
                        label = E.mul(e, cm.act(x, g))
                        yield (f"coaction compatibility at x={x} y={y} e={e} f={g}",
                               a.phi(x, e).kron(m.psi[(y, g)]) @ m.rho[(x, y)],
                               m.rho[(tgt(x, e), tgt(y, g))] @ m.psi[(H.mul(x, y), label)])

    rep.identity("(a) each M_x is an A_x-module", module_cases())
    rep.identity("(b) (M, rho) is a comodule", comodule_cases())
    rep.identity("(c) action and coaction intertwine", (
        (f"(x,y)=({x},{y})",
         m.rho[(x, y)] @ m.r[H.mul(x, y)],
         a.component(x).mul.kron(m.r[y]).flip_cols(a.dim(x), a.dim(y), a.dim(x), m.dim(y))
         @ a.delta(x, y).kron(m.rho[(x, y)]))
        for x in xs for y in xs
    ))
    rep.identity("(d) psi equivariance laws", equivariance_cases())
    return rep


def trivial_hopf_module(a: HopfXiCoalgebra, v_dim: int) -> HopfXiModule:
    """A (x) V with the structure maps tensored by the identity of V."""
    if v_dim < 0:
        raise ValueError("v_dim must be nonnegative")
    f, H, E = a.field, a.H, a.E
    iv = Matrix.identity(f, v_dim)
    dims = tuple(a.dim(x) * v_dim for x in H.elements())
    r = []
    for x in H.elements():
        r.append(a.component(x).mul.kron(iv))
    rho = {}
    for x in H.elements():
        for y in H.elements():
            rho[(x, y)] = a.delta(x, y).kron(iv)
    psi = {}
    for x in H.elements():
        for e in E.elements():
            psi[(x, e)] = a.phi(x, e).kron(iv)
    return HopfXiModule(a, dims, tuple(r), rho, psi)


# -- coinvariants -------------------------------------------------------------------------


def _family_offsets(dims):
    offsets = []
    pos = 0
    for d in dims:
        offsets.append(pos)
        pos += d
    return offsets, pos


def coinvariants(a: HopfXiCoalgebra, m: HopfXiModule) -> list[tuple]:
    """Deterministic basis of the coinvariants M^{co A}.

    A family (m_x) is coinvariant when rho_{x,y}(m_{xy}) = 1_x (x) m_y and
    psi_{x,e}(m_x) = m_{xi(e)x}; both conditions stack into one kernel
    computation over the concatenated coordinates.
    """
    f, H, E = a.field, a.H, a.E
    offsets, total = _family_offsets(m.dims)
    rows = []
    for x in H.elements():
        unit_x = a.component(x).unit
        for y in H.elements():
            xy = H.mul(x, y)
            rho = m.rho[(x, y)]
            for i in range(a.dim(x)):
                for j in range(m.dim(y)):
                    row = [f.zero] * total
                    for k in range(m.dim(xy)):
                        row[offsets[xy] + k] = rho[i * m.dim(y) + j, k]
                    row[offsets[y] + j] = f.sub(row[offsets[y] + j], f.mul(unit_x[i], f.one))
                    rows.append(row)
        for e in E.elements():
            tgt = H.mul(a.cm.xi_of(e), x)
            psi = m.psi[(x, e)]
            for i in range(m.dim(tgt)):
                row = [f.zero] * total
                for j in range(m.dim(x)):
                    row[offsets[x] + j] = psi[i, j]
                row[offsets[tgt] + i] = f.sub(row[offsets[tgt] + i], f.one)
                rows.append(row)
    system = Matrix(f, rows, len(rows), total)
    basis = system.kernel_basis()
    out = []
    for v in basis:
        out.append(tuple(tuple(v[offsets[x] + i] for i in range(m.dim(x))) for x in H.elements()))
    return out


def _coordinates_in_span(field, basis_vectors, target):
    """Coordinates of target in the span of basis_vectors, or None."""
    if not basis_vectors:
        return None if any(t != field.zero for t in target) else ()
    cols = Matrix(field, [[v[i] for v in basis_vectors] for i in range(len(target))],
                  len(target), len(basis_vectors))
    solved = cols.solve(target)
    return None if solved is None else solved[0]


def structure_iso(a: HopfXiCoalgebra, m: HopfXiModule):
    """The mutually inverse pair of the structure theorem.

    Returns (eps_maps, nu_maps, coinvariant_basis) with
    eps[x]: A_x (x) M^{co} -> M_x and nu[x] its exact inverse; raises
    NotInvertibleError with a witness component when a composite is not
    the identity (which would mean the input is not a valid Hopf module).
    """
    f, H = a.field, a.H
    coinv = coinvariants(a, m)
    k = len(coinv)
    one = H.identity

    eps_maps = []
    for x in H.elements():
        dx, mx = a.dim(x), m.dim(x)
        cols = []
        for i in range(dx):
            basis = tuple(f.one if j == i else f.zero for j in range(dx))
            for c in coinv:
                # column (i, c): r_x(e_i (x) c_x)
                vec = tuple(f.mul(basis[p // mx], c[x][p % mx]) for p in range(dx * mx))
                cols.append(m.r[x].apply(vec))
        rows = [[cols[j][i] for j in range(dx * k)] for i in range(mx)]
        eps_maps.append(Matrix(f, rows, mx, dx * k))

    # pi: M_1 -> M^{co A},  pi(m) = (r_x (S_x (x) id) rho_{x^-1,x}(m))_x,
    # expressed in coordinates of the computed coinvariant basis.
    offsets, total = _family_offsets(m.dims)
    pi_cols = []
    for j in range(m.dim(one)):
        basis = tuple(f.one if i == j else f.zero for i in range(m.dim(one)))
        stacked = [f.zero] * total
        for x in H.elements():
            xinv = H.inv(x)
            v = m.rho[(xinv, x)].apply(basis)
            v = a.S(x).kron(Matrix.identity(f, m.dim(x))).apply(v)
            v = m.r[x].apply(v)
            for i, val in enumerate(v):
                stacked[offsets[x] + i] = val
        coords = _coordinates_in_span(f, [
            tuple(c[x][i] for x in H.elements() for i in range(m.dim(x)))
            for c in coinv
        ], tuple(stacked))
        if coords is None:
            raise NotInvertibleError("pi does not land in the coinvariants")
        pi_cols.append(coords)
    pi = Matrix(f, [[pi_cols[j][i] for j in range(m.dim(one))] for i in range(k)],
                k, m.dim(one))

    nu_maps = []
    for x in H.elements():
        nu_maps.append(Matrix.identity(f, a.dim(x)).kron(pi) @ m.rho[(x, one)])

    for x in H.elements():
        dx, mx = a.dim(x), m.dim(x)
        if eps_maps[x] @ nu_maps[x] != Matrix.identity(f, mx):
            raise NotInvertibleError(f"eps nu != id at component {x}")
        if nu_maps[x] @ eps_maps[x] != Matrix.identity(f, dx * k):
            raise NotInvertibleError(f"nu eps != id at component {x}")
    return eps_maps, nu_maps, coinv


# -- integrals ------------------------------------------------------------------------------


def integral_space(a: HopfXiCoalgebra, side: str) -> list[tuple]:
    """Deterministic basis of the left or right integral space.

    An integral is a family of covectors (lambda_x) satisfying the
    coproduct condition on every (x, y) and invariance under the action;
    the stacked system is solved by one exact kernel computation.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    f, H, E = a.field, a.H, a.E
    dims = [a.dim(x) for x in H.elements()]
    offsets, total = _family_offsets(dims)
    rows = []
    for x in H.elements():
        for y in H.elements():
            xy = H.mul(x, y)
            delta = a.delta(x, y)
            dx, dy, dxy = a.dim(x), a.dim(y), a.dim(xy)
            if side == "left":
                unit_x = a.component(x).unit
                for i in range(dx):
                    for j in range(dxy):
                        row = [f.zero] * total
                        for t in range(dy):
                            row[offsets[y] + t] = f.add(row[offsets[y] + t], delta[i * dy + t, j])
                        row[offsets[xy] + j] = f.sub(row[offsets[xy] + j], unit_x[i])
                        rows.append(row)
            else:
                unit_y = a.component(y).unit
                for i in range(dy):
                    for j in range(dxy):
                        row = [f.zero] * total
                        for s in range(dx):
                            row[offsets[x] + s] = f.add(row[offsets[x] + s], delta[s * dy + i, j])
                        row[offsets[xy] + j] = f.sub(row[offsets[xy] + j], unit_y[i])
                        rows.append(row)
        for e in E.elements():
            tgt = H.mul(a.cm.xi_of(e), x)
            phi = a.phi(x, e)
            for j in range(a.dim(x)):
                row = [f.zero] * total
                for i in range(a.dim(tgt)):
                    row[offsets[tgt] + i] = f.add(row[offsets[tgt] + i], phi[i, j])
                row[offsets[x] + j] = f.sub(row[offsets[x] + j], f.one)
                rows.append(row)
    system = Matrix(f, rows, len(rows), total)
    return [
        tuple(tuple(v[offsets[x] + i] for i in range(a.dim(x))) for x in H.elements())
        for v in system.kernel_basis()
    ]


def _integral_violations(a: HopfXiCoalgebra, lam: tuple, side: str):
    """(check name, witness) pairs of the side-integral conditions, in report order."""
    f, H, E = a.field, a.H, a.E
    yield "shape", None
    if len(lam) != H.order or any(len(lam[x]) != a.dim(x) for x in H.elements()):
        yield "shape", "family has wrong component dimensions"
        return
    yield "coproduct condition", None
    for x in H.elements():
        for y in H.elements():
            lam_row = Matrix.row(f, lam[H.mul(x, y)])
            if side == "left":
                lhs = Matrix.identity(f, a.dim(x)).kron(Matrix.row(f, lam[y])) @ a.delta(x, y)
                rhs = a.component(x).unit_col() @ lam_row
            else:
                lhs = Matrix.row(f, lam[x]).kron(Matrix.identity(f, a.dim(y))) @ a.delta(x, y)
                rhs = a.component(y).unit_col() @ lam_row
            if lhs != rhs:
                yield "coproduct condition", f"(x,y)=({x},{y})"
    yield "action invariance", None
    for x in H.elements():
        for e in E.elements():
            tgt = H.mul(a.cm.xi_of(e), x)
            if Matrix.row(f, lam[tgt]) @ a.phi(x, e) != Matrix.row(f, lam[x]):
                yield "action invariance", f"(x,e)=({x},{e})"


def is_integral(a: HopfXiCoalgebra, lam: tuple, side: str) -> bool:
    return holds(_integral_violations(a, lam, side))


def integral_report(a: HopfXiCoalgebra, lam: tuple, side: str) -> Report:
    """Witness-reporting version of is_integral for candidate families."""
    return Report(f"{side} integral candidate").collect(_integral_violations(a, lam, side))


def antipode_transport(a: HopfXiCoalgebra, lam: tuple) -> tuple:
    """Left integral -> right integral via lambda^S_x = lambda_{x^-1} S_{x^-1}."""
    f, H = a.field, a.H
    if not is_integral(a, lam, "left"):
        raise NotIntegralError("antipode_transport needs a left integral")
    out = tuple(
        tuple((Matrix.row(f, lam[H.inv(x)]) @ a.S(H.inv(x))).data[0])
        for x in H.elements()
    )
    if not is_integral(a, out, "right"):
        raise NotIntegralError("transported family fails the right-integral conditions")
    return out


def distinguished_grouplike(a: HopfXiCoalgebra) -> tuple:
    """The unique crossed-module grouplike g with (id (x) lambda_y) Delta = g_x lambda_{xy}.

    Computed from a right integral by normalizing at y = 1, then verified
    against the defining identity for all (x, y), against grouplikeness,
    and against invariance under the action.
    """
    f, H = a.field, a.H
    basis = integral_space(a, "right")
    if len(basis) != 1:
        raise DefiningIdentityFailedError(
            f"right integral space has dimension {len(basis)}, expected 1"
        )
    lam = basis[0]
    one = H.identity
    g = []
    for x in H.elements():
        j = next((j for j in range(a.dim(x)) if lam[x][j] != f.zero), None)
        if j is None:
            raise DefiningIdentityFailedError(f"lambda_{x} vanishes on a nonzero component")
        w = Matrix.identity(f, a.dim(x)).kron(Matrix.row(f, lam[one])) @ a.delta(x, one)
        scale = f.inv(lam[x][j])
        g.append(tuple(f.mul(scale, w[i, j]) for i in range(a.dim(x))))
    g = tuple(g)

    for x in H.elements():
        for y in H.elements():
            xy = H.mul(x, y)
            lhs = Matrix.identity(f, a.dim(x)).kron(Matrix.row(f, lam[y])) @ a.delta(x, y)
            rhs = Matrix.col(f, g[x]) @ Matrix.row(f, lam[xy])
            if lhs != rhs:
                raise DefiningIdentityFailedError(f"defining identity fails at ({x},{y})")
    if not is_grouplike(a.base, g):
        raise DefiningIdentityFailedError("computed family is not grouplike")
    if not is_xi_grouplike(a, g):
        raise DefiningIdentityFailedError("computed family is not action-invariant")
    return g


# -- the dual Hopf module ----------------------------------------------------------------------


def dual_hopf_module(a: HopfXiCoalgebra) -> HopfXiModule:
    """The Hopf module structure on the duals M_x = A*_{x^-1}.

    Structure maps (in dual-basis coordinates):
      r_x(h (x) m)   = m(S_{x^-1}(h) . -)          twisted left regular action,
      rho_{x,y}(m)   = sum_i b_i (x) (m * b_i^*)   convolution with a dual basis of A_x,
      psi_{x,e}(m)   = m . phi_{(xi(e)x)^-1, (x^-1)>e}  transposed action.

    The construction is self-verifying: the module axioms must pass and the
    coinvariants must match the right integrals under lambda -> (lambda_{x^-1});
    a failure raises AxiomCheckFailedError since it can only mean a bug.
    """
    f, H, E, cm = a.field, a.H, a.E, a.cm
    dims = tuple(a.dim(H.inv(x)) for x in H.elements())

    r = []
    for x in H.elements():
        xinv = H.inv(x)
        dx, mx = a.dim(x), dims[x]
        comp = a.component(xinv)
        rows = [[f.zero] * (dx * mx) for _ in range(mx)]
        for i in range(dx):
            basis = tuple(f.one if t == i else f.zero for t in range(dx))
            lmat = comp.left_mult_matrix(a.S(xinv).apply(basis)).T
            for ri in range(mx):
                for cj in range(mx):
                    rows[ri][i * mx + cj] = lmat[ri, cj]
        r.append(Matrix(f, rows, mx, dx * mx))

    rho = {}
    for x in H.elements():
        for y in H.elements():
            xy = H.mul(x, y)
            dx = a.dim(x)
            my, mxy = dims[y], dims[xy]
            delta = a.delta(H.inv(xy), x)  # A_{y^-1} -> A_{(xy)^-1} (x) A_x
            rows = [[f.zero] * mxy for _ in range(dx * my)]
            for i in range(dx):
                for t in range(my):
                    for j in range(mxy):
                        rows[i * my + t][j] = delta[j * dx + i, t]
            rho[(x, y)] = Matrix(f, rows, dx * my, mxy)

    psi = {}
    for x in H.elements():
        for e in E.elements():
            tgt = H.mul(cm.xi_of(e), x)
            label = cm.act(H.inv(x), e)
            psi[(x, e)] = a.phi(H.inv(tgt), label).T

    m = HopfXiModule(a, dims, tuple(r), rho, psi)

    rep = validate_hopf_xi_module(a, m)
    if not rep.ok:
        raise AxiomCheckFailedError("dual Hopf module fails the module axioms", rep)

    # gate: coinvariants correspond to right integrals via lambda -> (lambda_{x^-1})
    coinv = coinvariants(a, m)
    integrals = integral_space(a, "right")
    if len(coinv) != len(integrals):
        raise AxiomCheckFailedError(
            f"coinvariants dim {len(coinv)} != right integrals dim {len(integrals)}"
        )
    flat_coinv = [
        tuple(c[x][i] for x in H.elements() for i in range(m.dim(x))) for c in coinv
    ]
    for lam in integrals:
        image = tuple(
            lam[H.inv(x)][i] for x in H.elements() for i in range(m.dim(x))
        )
        if _coordinates_in_span(f, flat_coinv, image) is None:
            raise AxiomCheckFailedError("reindexed integral is not coinvariant")
    return m
