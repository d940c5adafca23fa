"""Graded modules over a Hopf crossed-module coalgebra.

Objects are finite-support graded families M = {M_x} of exact vector
spaces with one action matrix per component; morphisms carry a degree e
and one block M_x -> N_{xi(e)x} per component.  Hom spaces are computed as
deterministic kernel bases, and hom_is_linear evaluates the rows that
hom_space eliminates; the category itself is never materialized.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    NonComposableError,
    NotHomogeneousError,
    NotPivotalError,
    ShapeMismatchError,
)
from .hopf import _pivotal_report, grouplike_inverse
from .linalg import Matrix
from .record import Record
from .report import Report, given
from .xihopf import HopfXiCoalgebra


class AModule(Record):
    """Graded left module over `algebra`: dims per degree and actions r_x: A_x (x) M_x -> M_x."""

    __slots__ = ("algebra", "dims", "actions")

    def dim(self, x: int) -> int:
        return self.dims[x]

    def r(self, x: int) -> Matrix:
        return self.actions[x]

    def support(self) -> list[int]:
        return [x for x in self.algebra.H.elements() if self.dims[x] > 0]

    def degree(self) -> int:
        """Degree of a homogeneous module (exactly one nonzero component)."""
        sup = self.support()
        if len(sup) != 1:
            raise NotHomogeneousError(f"support {sup} is not a single degree")
        return sup[0]

    def __post_init__(self):
        a = self.algebra
        if len(self.dims) != a.H.order or len(self.actions) != a.H.order:
            raise ShapeMismatchError("one dimension and action per group element required")
        for x in a.H.elements():
            r = self.actions[x]
            if r.rows != self.dims[x] or r.cols != a.dim(x) * self.dims[x]:
                raise ShapeMismatchError(f"action at x={x} has wrong shape")


class GradedHom(Record):
    """Morphism of `degree` e: one block M_x -> N_{xi(e)x} per component."""

    __slots__ = ("degree", "blocks")

    def block(self, x: int) -> Matrix:
        return self.blocks[x]


def validate_module(a: HopfXiCoalgebra, m: AModule) -> Report:
    rep = Report("graded module")
    f, xs = a.field, a.H.elements()
    ident_a = [Matrix.identity(f, a.dim(x)) for x in xs]
    ident_m = [Matrix.identity(f, d) for d in m.dims]

    def associativity(r_x, mul_x, id_m, id_a):
        return r_x.matmul_kron(mul_x, id_m), r_x.matmul_kron(id_a, r_x)

    def unitality(r_x, unit_x, id_m):
        return r_x.matmul_kron(unit_x, id_m), id_m

    rep.identity("action is associative", (
        ("x={}", (x,), associativity, (m.r(x), a.component(x).mul, ident_m[x], ident_a[x]))
        for x in xs
    ))
    rep.identity("action is unital", (
        ("x={}", (x,), unitality, (m.r(x), a.component(x).unit_col(), ident_m[x])) for x in xs
    ))
    return rep


# -- basic objects -------------------------------------------------------------------


def _concentrated(a: HopfXiCoalgebra, x: int, dim: int, action: Matrix) -> AModule:
    """The module whose only component is `dim`-dimensional, in degree x, acted on by `action`."""
    f, H = a.field, a.H
    dims = tuple(dim if y == x else 0 for y in H.elements())
    actions = tuple(action if y == x else Matrix.zeros(f, 0, 0) for y in H.elements())
    return AModule(a, dims, actions)


def unit_module(a: HopfXiCoalgebra) -> AModule:
    """k in degree 1 with action through the counit."""
    return _concentrated(a, a.H.identity, 1, a.counit)


def zero_module(a: HopfXiCoalgebra) -> AModule:
    return _concentrated(a, a.H.identity, 0, Matrix.zeros(a.field, 0, 0))


def line_module(a: HopfXiCoalgebra, x: int, character: Matrix) -> AModule:
    """1-dimensional module in degree x; character is a 1 x dim(A_x) algebra map."""
    return _concentrated(a, x, 1, character)


def regular_module(a: HopfXiCoalgebra, x: int) -> AModule:
    """A_x acting on itself by left multiplication, concentrated in degree x."""
    return _concentrated(a, x, a.dim(x), a.component(x).mul)


# -- direct sums and duals of actions ---------------------------------------------------


def _direct_sum_action(f, du: int, parts) -> Matrix:
    """Action of a du-dimensional A_u on the direct sum of modules with actions `parts`.

    The summands are stacked in order; column alpha*total + offset + j is
    a_alpha (x) m_j of the summand at that offset.  Reshaped to (total du) x
    total, the action is block diagonal, each summand's action reshaped alike."""
    total = sum(r.rows for r in parts)
    blocks, offset = [], 0
    for r in parts:
        s = r.rows
        blocks.append((offset * du, offset, r.reshape(s * du, s)))
        offset += s
    return Matrix.place(f, total * du, total, blocks).reshape(total, du * total)


def _contragredient(a: HopfXiCoalgebra, x: int, r: Matrix) -> Matrix:
    """Action h.phi = phi(S(h) . -) of A_{x^-1} on the dual of an A_x-module with action r.

    Column i*d + j carries h_i (x) phi_j, for d = dim of the module."""
    f, d = a.field, r.rows
    n = a.dim(a.H.inv(x))
    acts = r.matmul_kron(a.S(x), Matrix.identity(f, d))  # column i*d + c: S(h_i) . m_c
    # row j, column c*n + i of the reshaped transpose: phi_j(S(h_i) . m_c)
    return acts.reshape(d * n, d).flip_rows(1, d, n, 1).T


# -- tensor product -------------------------------------------------------------------


def tensor_layout(a: HopfXiCoalgebra, m: AModule, n: AModule, u: int):
    """Blocks of (M (x) N)_u: (y, z) with yz = u, ordered by ascending y.

    Returns a list of (y, z, offset, size)."""
    H = a.H
    layout = []
    offset = 0
    for y in H.elements():
        z = H.mul(H.inv(y), u)
        size = m.dim(y) * n.dim(z)
        layout.append((y, z, offset, size))
        offset += size
    return layout


def _layout_dim(layout) -> int:
    """Total dimension of a tensor_layout."""
    _, _, offset, size = layout[-1]
    return offset + size


def tensor_modules(a: HopfXiCoalgebra, m: AModule, n: AModule) -> AModule:
    """(M (x) N)_u = sum over yz = u of M_y (x) N_z, with action through Delta."""
    f = a.field
    actions = tuple(
        _direct_sum_action(f, a.dim(u), [
            m.r(y).kron_matmul(n.r(z), a.delta(y, z).kron(Matrix.identity(f, size))
                               .flip_rows(a.dim(y), a.dim(z), m.dim(y), n.dim(z)))
            for (y, z, _, size) in tensor_layout(a, m, n, u) if size
        ])
        for u in a.H.elements()
    )
    return AModule(a, tuple(r.rows for r in actions), actions)


# -- pullbacks and hom spaces ----------------------------------------------------------


def pullback_phi_e(a: HopfXiCoalgebra, n: AModule, e: int) -> AModule:
    """phi_e^*(N)_x = N_{xi(e)x} with the action precomposed by phi_{x,e}."""
    f, H = a.field, a.H
    xi_e = a.cm.xi_of(e)
    dims = []
    actions = []
    for x in H.elements():
        tgt = H.mul(xi_e, x)
        dims.append(n.dim(tgt))
        actions.append(n.r(tgt).matmul_kron(a.phi(x, e), Matrix.identity(f, n.dim(tgt))))
    return AModule(a, tuple(dims), tuple(actions))


def hom_block_shapes(a: HopfXiCoalgebra, m: AModule, n: AModule, e: int):
    H = a.H
    xi_e = a.cm.xi_of(e)
    return [(n.dim(H.mul(xi_e, x)), m.dim(x)) for x in H.elements()]


def _flatten(family) -> tuple:
    """The coordinates of a graded family (one vector per component), concatenated."""
    return tuple(v for component in family for v in component)


def _graded_kernel(f, dims, block_rows) -> list[tuple]:
    """Kernel basis of the system whose block rows are lists of (x, B): B multiplies the
    component of degree x of an unknown graded family with component dimensions dims; each
    basis vector is returned as such a family."""
    offsets = list(accumulate(dims, initial=0))
    blocks, r0 = [], 0
    for row in block_rows:
        blocks += [(r0, offsets[x], b) for x, b in row]
        r0 += row[0][1].rows
    system = Matrix.place(f, r0, offsets[-1], blocks)
    return [tuple(v[o:o + d] for o, d in zip(offsets, dims)) for v in system.kernel_basis()]


def _vanishes(row, family) -> bool:
    """Whether the block row [(x, B), ...] of a _graded_kernel system vanishes on the graded
    family: the sum of each B applied to the component of degree x is zero."""
    f = row[0][1].field
    total = [f.zero] * row[0][1].rows
    for x, b in row:
        total = [f.add(s, t) for s, t in zip(total, b.apply(family[x]))]
    return not any(total)


def _hom_rows(a: HopfXiCoalgebra, m: AModule, n: AModule, e: int) -> list:
    """A-linearity of the blocks alpha_x: M_x -> N_{xi(e)x} of a degree-e morphism into the
    pullback along phi_{x,e}, as _graded_kernel block rows on alpha_x flattened row-major: for
    alpha_x of shape r x c, I_r (x) r_M(x)^T - P (x) I_c, for P the pullback's action reshaped
    to (r dim A_x) x r; the two terms sit at one offset, where place adds them."""
    f = a.field
    pulled = pullback_phi_e(a, n, e)
    minus = f.of(-1)
    return [
        [(x, Matrix.identity(f, r).kron(m.r(x).T)),
         (x, pulled.r(x).reshape(r * a.dim(x), r).kron(Matrix.identity(f, c)).scale(minus))]
        for x, (r, c) in enumerate(hom_block_shapes(a, m, n, e))
    ]


def hom_space(a: HopfXiCoalgebra, m: AModule, n: AModule, e: int) -> list[GradedHom]:
    """Deterministic basis of the degree-e morphism space M -> N: one exact kernel
    computation of the rows of _hom_rows, whose blocks sit on the system's diagonal."""
    f, shapes = a.field, hom_block_shapes(a, m, n, e)
    return [
        GradedHom(e, tuple(Matrix.row(f, v).reshape(r, c) for v, (r, c) in zip(fam, shapes)))
        for fam in _graded_kernel(f, [r * c for r, c in shapes], _hom_rows(a, m, n, e))
    ]


def hom_is_linear(a: HopfXiCoalgebra, m: AModule, n: AModule, h: GradedHom) -> bool:
    """Whether every row of hom_space's system vanishes on h's blocks, flattened row-major."""
    family = [_flatten(b.data) for b in h.blocks]
    return all(_vanishes(row, family) for row in _hom_rows(a, m, n, h.degree))


def identity_hom(a: HopfXiCoalgebra, m: AModule) -> GradedHom:
    f = a.field
    return GradedHom(
        a.E.identity, tuple(Matrix.identity(f, m.dim(x)) for x in a.H.elements())
    )


def compose_homs(a: HopfXiCoalgebra, after: GradedHom, before: GradedHom) -> GradedHom:
    """after . before; the composite degree is the product of the degrees."""
    H, E = a.H, a.E
    xi_before = a.cm.xi_of(before.degree)
    blocks = []
    for x in H.elements():
        mid = H.mul(xi_before, x)
        g, f_blk = after.block(mid), before.block(x)
        if g.cols != f_blk.rows:
            raise NonComposableError(f"blocks at x={x} do not compose")
        blocks.append(g @ f_blk)
    return GradedHom(E.mul(after.degree, before.degree), tuple(blocks))


def hom_add(a: HopfXiCoalgebra, h1: GradedHom, h2: GradedHom) -> GradedHom:
    if h1.degree != h2.degree:
        raise NonComposableError("sum of homs of different degrees")
    return GradedHom(h1.degree, tuple(b1 + b2 for b1, b2 in zip(h1.blocks, h2.blocks)))


def tensor_homs(
    a: HopfXiCoalgebra,
    alpha: GradedHom,
    beta: GradedHom,
    m: AModule,
    n: AModule,
    p: AModule,
    q: AModule,
) -> GradedHom:
    """Monoidal product of alpha: M -> N and beta: P -> Q.

    Needs M homogeneous; the degree of the result is |alpha| . (|M| > |beta|).
    """
    f, H, E, cm = a.field, a.H, a.E, a.cm
    x0 = m.degree()  # raises NotHomogeneousError otherwise
    e, g = alpha.degree, beta.degree
    deg = E.mul(e, cm.act(x0, g))
    ty = H.mul(cm.xi_of(e), x0)

    # only the summand M_x0 (x) P_z of (M (x) P)_u is nonzero; it lands on N_ty (x) Q_xi(g)z
    blocks = []
    for u in H.elements():
        src = tensor_layout(a, m, p, u)
        tgt = tensor_layout(a, n, q, H.mul(cm.xi_of(deg), u))
        z = src[x0][1]
        piece = alpha.block(x0).kron(beta.block(z))
        blocks.append(Matrix.place(f, _layout_dim(tgt), _layout_dim(src),
                                   [(tgt[ty][2], src[x0][2], piece)]))
    return GradedHom(deg, tuple(blocks))


# -- duals (pivotal) ---------------------------------------------------------------------


class DualData(Record):
    """The dual `module` M* and, on its single nonzero block, the maps left_ev: M* (x) M -> k,
    left_coev: k -> M (x) M*, right_ev: M (x) M* -> k and right_coev: k -> M* (x) M."""

    __slots__ = ("module", "left_ev", "left_coev", "right_ev", "right_coev")


def dual_module(a: HopfXiCoalgebra, m: AModule, piv: tuple) -> DualData:
    """Pivotal dual of a homogeneous module, with its four (co)evaluations.

    The dual of M in degree x lives in degree x^-1 and carries the action
    transposed through the antipode; the right (co)evaluations twist by the
    pivotal element.
    """
    f, H = a.field, a.H
    x = m.degree()
    piv_inv = grouplike_inverse(a.base, piv)
    if not _pivotal_report(a.base, piv, piv_inv).ok:
        raise NotPivotalError("family is not a pivotal element")
    md = m.dim(x)
    dual = _concentrated(a, H.inv(x), md, _contragredient(a, x, m.r(x)))

    ident = Matrix.identity(f, md)
    g_mult = m.r(x).matmul_kron(Matrix.col(f, piv[x]), ident)
    ginv_mult = m.r(x).matmul_kron(Matrix.col(f, piv_inv[x]), ident)
    return DualData(dual, ident.reshape(1, md * md), ident.reshape(md * md, 1),
                    g_mult.T.reshape(1, md * md), ginv_mult.T.reshape(md * md, 1))


def dual_zigzag_report(a: HopfXiCoalgebra, m: AModule, piv: tuple) -> Report:
    """The four duality identities for the pivotal dual, checked exactly."""
    f = a.field
    rep = Report("duality zig-zags")
    dd = dual_module(a, m, piv)
    md = m.dim(m.degree())
    ident = Matrix.identity(f, md)

    rep.identity("left duality", [
        ("(lev (x) id)(id (x) lcoev) != id on M*", (), given,
         (dd.left_ev.kron_matmul(ident, ident.kron(dd.left_coev)), ident)),
        ("(id (x) lev)(lcoev (x) id) != id on M", (), given,
         (ident.kron_matmul(dd.left_ev, dd.left_coev.kron(ident)), ident)),
    ])
    rep.identity("right duality", [
        ("(rev (x) id)(id (x) rcoev) != id on M", (), given,
         (dd.right_ev.kron_matmul(ident, ident.kron(dd.right_coev)), ident)),
        ("(id (x) rev)(rcoev (x) id) != id on M*", (), given,
         (ident.kron_matmul(dd.right_ev, dd.right_coev.kron(ident)), ident)),
    ])
    return rep


def ev_coev_as_homs(a: HopfXiCoalgebra, m: AModule, piv: tuple):
    """The four (co)evaluations as degree-1 graded homs between tensor modules.

    Returns (lev, lcoev, rev, rcoev) together with their source/target
    modules, so A-linearity can be checked with hom_is_linear, on the rows of hom_space.
    """
    f, H, E = a.field, a.H, a.E
    x, one = m.degree(), H.identity
    dd = dual_module(a, m, piv)
    one_mod = unit_module(a)
    ds_m = tensor_modules(a, dd.module, m)  # M* (x) M
    md_s = tensor_modules(a, m, dd.module)  # M (x) M*
    # in degree 1 the pairings sit on the summands M*_{x^-1} (x) M_x and M_x (x) M*_{x^-1}
    ds_off = tensor_layout(a, dd.module, m, one)[H.inv(x)][2]
    md_off = tensor_layout(a, m, dd.module, one)[x][2]

    def hom(src: AModule, tgt: AModule, r0: int, c0: int, piece: Matrix):
        return GradedHom(E.identity, tuple(
            Matrix.place(f, tgt.dim(u), src.dim(u), [(r0, c0, piece)] if u == one else [])
            for u in H.elements()
        ))

    return {
        "lev": (hom(ds_m, one_mod, 0, ds_off, dd.left_ev), ds_m, one_mod),
        "lcoev": (hom(one_mod, md_s, md_off, 0, dd.left_coev), one_mod, md_s),
        "rev": (hom(md_s, one_mod, 0, md_off, dd.right_ev), md_s, one_mod),
        "rcoev": (hom(one_mod, ds_m, ds_off, 0, dd.right_coev), one_mod, ds_m),
    }


# -- e-direct sums ----------------------------------------------------------------------


def e_direct_sum(a: HopfXiCoalgebra, modules: list[AModule], e: int):
    """The e-direct sum with its injections (degree e) and projections (degree e^-1).

    Computed as the ordinary direct sum of the pullbacks along phi_{e^-1}.
    Returns (D, injections, projections).
    """
    f, H, E = a.field, a.H, a.E
    e_inv = E.inv(e)
    pulled = [pullback_phi_e(a, m, e_inv) for m in modules]
    xi_e = a.cm.xi_of(e)
    actions = tuple(
        _direct_sum_action(f, a.dim(x), [p.r(x) for p in pulled]) for x in H.elements()
    )
    d = AModule(a, tuple(r.rows for r in actions), actions)

    def projection(idx: int, x: int) -> Matrix:
        """D_x -> phi_{e^-1}^*(M_idx)_x, the identity on its summand."""
        sizes = [p.dim(x) for p in pulled]
        ident = Matrix.identity(f, sizes[idx])
        return Matrix.place(f, sizes[idx], d.dim(x), [(0, sum(sizes[:idx]), ident)])

    injections = [
        GradedHom(e, tuple(projection(idx, H.mul(xi_e, x)).T for x in H.elements()))
        for idx in range(len(modules))
    ]
    projections = [
        GradedHom(e_inv, tuple(projection(idx, x) for x in H.elements()))
        for idx in range(len(modules))
    ]
    return d, injections, projections
