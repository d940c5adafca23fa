"""Graded modules over a Hopf crossed-module coalgebra.

Objects are finite-support graded families M = {M_x} of exact vector
spaces with one action matrix per component; morphisms carry a degree e
and one block M_x -> N_{xi(e)x} per component.  Hom spaces are computed as
deterministic kernel bases; the category itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NonComposableError,
    NotHomogeneousError,
    NotPivotalError,
    ShapeMismatchError,
)
from .hopf import is_pivotal_element
from .linalg import Matrix, linear_map_matrix
from .report import Report
from .xihopf import HopfXiCoalgebra


@dataclass(frozen=True, eq=False)
class AModule:
    """Graded left module: dims per degree and action matrices r_x: A_x (x) M_x -> M_x."""

    algebra: HopfXiCoalgebra
    dims: tuple[int, ...]
    actions: tuple[Matrix, ...]

    def dim(self, x: int) -> int:
        return self.dims[x]

    def r(self, x: int) -> Matrix:
        return self.actions[x]

    def total_dim(self) -> int:
        return sum(self.dims)

    def support(self) -> list[int]:
        return [x for x in self.algebra.H.elements() if self.dims[x] > 0]

    def degree(self) -> int:
        """Degree of a homogeneous module (exactly one nonzero component)."""
        sup = self.support()
        if len(sup) != 1:
            raise NotHomogeneousError(f"support {sup} is not a single degree")
        return sup[0]

    def check_shapes(self) -> None:
        a = self.algebra
        if len(self.dims) != a.H.order or len(self.actions) != a.H.order:
            raise ShapeMismatchError("one dimension and action per group element required")
        for x in a.H.elements():
            r = self.actions[x]
            if r.rows != self.dims[x] or r.cols != a.dim(x) * self.dims[x]:
                raise ShapeMismatchError(f"action at x={x} has wrong shape")


@dataclass(frozen=True, eq=False)
class GradedHom:
    """Degree-e morphism: one block M_x -> N_{xi(e)x} per component."""

    degree: int
    blocks: tuple[Matrix, ...]

    def block(self, x: int) -> Matrix:
        return self.blocks[x]


def validate_module(a: HopfXiCoalgebra, m: AModule) -> Report:
    m.check_shapes()
    rep = Report("graded module")
    f, xs = a.field, a.H.elements()
    ident_m = [Matrix.identity(f, m.dim(x)) for x in xs]
    rep.identity("action is associative", (
        (f"x={x}",
         m.r(x) @ a.component(x).mul.kron(ident_m[x]),
         m.r(x) @ Matrix.identity(f, a.dim(x)).kron(m.r(x)))
        for x in xs
    ))
    rep.identity("action is unital", (
        (f"x={x}", m.r(x) @ a.component(x).unit_col().kron(ident_m[x]), ident_m[x]) for x in xs
    ))
    return rep


# -- basic objects -------------------------------------------------------------------


def unit_module(a: HopfXiCoalgebra) -> AModule:
    """k in degree 1 with action through the counit."""
    f, H = a.field, a.H
    dims = tuple(1 if x == H.identity else 0 for x in H.elements())
    actions = tuple(
        a.counit if x == H.identity else Matrix.zeros(f, 0, 0) for x in H.elements()
    )
    return AModule(a, dims, actions)


def zero_module(a: HopfXiCoalgebra) -> AModule:
    f = a.field
    return AModule(
        a,
        tuple(0 for _ in a.H.elements()),
        tuple(Matrix.zeros(f, 0, 0) for _ in a.H.elements()),
    )


def line_module(a: HopfXiCoalgebra, x: int, character: Matrix) -> AModule:
    """1-dimensional module in degree x; character is a 1 x dim(A_x) algebra map."""
    f = a.field
    dims = tuple(1 if y == x else 0 for y in a.H.elements())
    actions = tuple(
        character if y == x else Matrix.zeros(f, 0, 0) for y in a.H.elements()
    )
    return AModule(a, dims, actions)


def regular_module(a: HopfXiCoalgebra, x: int) -> AModule:
    """A_x acting on itself by left multiplication, concentrated in degree x."""
    f = a.field
    dims = tuple(a.dim(x) if y == x else 0 for y in a.H.elements())
    actions = tuple(
        a.component(x).mul if y == x else Matrix.zeros(f, 0, 0) for y in a.H.elements()
    )
    return AModule(a, dims, actions)


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


def tensor_modules(a: HopfXiCoalgebra, m: AModule, n: AModule) -> AModule:
    """(M (x) N)_u = sum over yz = u of M_y (x) N_z, with action through Delta."""
    f, H = a.field, a.H
    dims = []
    actions = []
    for u in H.elements():
        layout = tensor_layout(a, m, n, u)
        total = sum(size for (_, _, _, size) in layout)
        dims.append(total)
        du = a.dim(u)
        rows = [[f.zero] * (du * total) for _ in range(total)]
        for (y, z, offset, size) in layout:
            if size == 0:
                continue
            my, nz = m.dim(y), n.dim(z)
            block = (
                m.r(y).kron(n.r(z)).flip_cols(a.dim(y), a.dim(z), my, nz)
                @ a.delta(y, z).kron(Matrix.identity(f, size))
            )
            for i in range(size):
                for alpha in range(du):
                    for j in range(size):
                        v = block[i, alpha * size + j]
                        if v != f.zero:
                            rows[offset + i][alpha * total + offset + j] = v
        actions.append(Matrix(f, rows, total, du * total))
    return AModule(a, tuple(dims), tuple(actions))


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
        actions.append(n.r(tgt) @ a.phi(x, e).kron(Matrix.identity(f, n.dim(tgt))))
    return AModule(a, tuple(dims), tuple(actions))


def hom_block_shapes(a: HopfXiCoalgebra, m: AModule, n: AModule, e: int):
    H = a.H
    xi_e = a.cm.xi_of(e)
    return [(n.dim(H.mul(xi_e, x)), m.dim(x)) for x in H.elements()]


def hom_space(a: HopfXiCoalgebra, m: AModule, n: AModule, e: int) -> list[GradedHom]:
    """Deterministic basis of the degree-e morphism space M -> N.

    A degree-e morphism is a family of blocks alpha_x: M_x -> N_{xi(e)x},
    each A_x-linear into the pullback along phi_{x,e}; the linearity
    constraints over all x form one exact linear system.
    """
    f, H = a.field, a.H
    shapes = hom_block_shapes(a, m, n, e)
    sizes = [r * c for (r, c) in shapes]
    total = sum(sizes)
    pulled = pullback_phi_e(a, n, e)

    def unflatten(flat):
        blocks = []
        pos = 0
        for (r, c) in shapes:
            data = [flat[pos + i * c:pos + (i + 1) * c] for i in range(r)]
            blocks.append(Matrix(f, data, r, c))
            pos += r * c
        return blocks

    def residual(flat):
        blocks = unflatten(flat)
        out = []
        for x in H.elements():
            alpha = blocks[x]
            lhs = alpha @ m.r(x)
            rhs = pulled.r(x) @ Matrix.identity(f, a.dim(x)).kron(alpha)
            diff = lhs - rhs
            out.extend(diff[i, j] for i in range(diff.rows) for j in range(diff.cols))
        return out

    system = linear_map_matrix(f, total, residual)
    return [GradedHom(e, tuple(unflatten(v))) for v in system.kernel_basis()]


def hom_is_linear(a: HopfXiCoalgebra, m: AModule, n: AModule, h: GradedHom) -> bool:
    f, H = a.field, a.H
    pulled = pullback_phi_e(a, n, h.degree)
    for x in H.elements():
        alpha = h.block(x)
        if alpha @ m.r(x) != pulled.r(x) @ Matrix.identity(f, a.dim(x)).kron(alpha):
            return False
    return True


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
    xi_e, xi_g, xi_deg = cm.xi_of(e), cm.xi_of(g), cm.xi_of(deg)

    blocks = []
    for u in H.elements():
        src_layout = tensor_layout(a, m, p, u)
        tgt_u = H.mul(xi_deg, u)
        tgt_layout = tensor_layout(a, n, q, tgt_u)
        tgt_offsets = {(y, z): (off, size) for (y, z, off, size) in tgt_layout}
        src_total = sum(s for (_, _, _, s) in src_layout)
        tgt_total = sum(s for (_, _, _, s) in tgt_layout)
        rows = [[f.zero] * src_total for _ in range(tgt_total)]
        for (y, z, off, size) in src_layout:
            if size == 0 or y != x0:
                continue
            ty, tz = H.mul(xi_e, y), H.mul(xi_g, z)
            toff, tsize = tgt_offsets[(ty, tz)]
            piece = alpha.block(y).kron(beta.block(z))
            for i in range(tsize):
                for j in range(size):
                    v = piece[i, j]
                    if v != f.zero:
                        rows[toff + i][off + j] = v
        blocks.append(Matrix(f, rows, tgt_total, src_total))
    return GradedHom(deg, tuple(blocks))


# -- duals (pivotal) ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualData:
    module: AModule
    left_ev: Matrix  # M* (x) M -> k, on the single nonzero block
    left_coev: Matrix  # k -> M (x) M*
    right_ev: Matrix  # M (x) M* -> k
    right_coev: Matrix  # k -> M* (x) M


def dual_module(a: HopfXiCoalgebra, m: AModule, piv: tuple) -> DualData:
    """Pivotal dual of a homogeneous module, with its four (co)evaluations.

    The dual of M in degree x lives in degree x^-1 and carries the action
    transposed through the antipode; the right (co)evaluations twist by the
    pivotal element.
    """
    f, H = a.field, a.H
    x = m.degree()
    if not is_pivotal_element(a.base, piv).ok:
        raise NotPivotalError("family is not a pivotal element")
    from .hopf import grouplike_inverse

    piv_inv = grouplike_inverse(a.base, piv)
    xinv = H.inv(x)
    md = m.dim(x)
    comp_xinv = a.component(xinv)

    rows = [[f.zero] * (comp_xinv.dim * md) for _ in range(md)]
    for i in range(comp_xinv.dim):
        basis = tuple(f.one if j == i else f.zero for j in range(comp_xinv.dim))
        sa = a.S(x).apply(basis)  # S_x(a) in A_x
        left_mult = m.r(x) @ Matrix.col(f, sa).kron(Matrix.identity(f, md))
        lt = left_mult.T
        for r_i in range(md):
            for c in range(md):
                rows[r_i][i * md + c] = lt[r_i, c]
    dual_dims = tuple(md if y == xinv else 0 for y in H.elements())
    dual_actions = tuple(
        Matrix(f, rows, md, comp_xinv.dim * md) if y == xinv else Matrix.zeros(f, 0, 0)
        for y in H.elements()
    )
    dual = AModule(a, dual_dims, dual_actions)

    ident = Matrix.identity(f, md)
    g_mult = m.r(x) @ Matrix.col(f, piv[x]).kron(ident)
    ginv_mult = m.r(x) @ Matrix.col(f, piv_inv[x]).kron(ident)

    left_ev = Matrix(f, [[ident[j, i] for i in range(md) for j in range(md)]], 1, md * md)
    left_coev = Matrix(f, [[ident[i, j]] for i in range(md) for j in range(md)], md * md, 1)
    right_ev = Matrix(
        f, [[g_mult[i, j] for j in range(md) for i in range(md)]], 1, md * md
    )
    right_coev = Matrix(
        f, [[ginv_mult[j, i]] for i in range(md) for j in range(md)], md * md, 1
    )
    return DualData(dual, left_ev, left_coev, right_ev, right_coev)


def dual_zigzag_report(a: HopfXiCoalgebra, m: AModule, piv: tuple) -> Report:
    """The four duality identities for the pivotal dual, checked exactly."""
    f = a.field
    rep = Report("duality zig-zags")
    dd = dual_module(a, m, piv)
    md = m.dim(m.degree())
    ident = Matrix.identity(f, md)

    rep.identity("left duality", [
        ("(lev (x) id)(id (x) lcoev) != id on M*",
         dd.left_ev.kron(ident) @ ident.kron(dd.left_coev), ident),
        ("(id (x) lev)(lcoev (x) id) != id on M",
         ident.kron(dd.left_ev) @ dd.left_coev.kron(ident), ident),
    ])
    rep.identity("right duality", [
        ("(rev (x) id)(id (x) rcoev) != id on M",
         dd.right_ev.kron(ident) @ ident.kron(dd.right_coev), ident),
        ("(id (x) rev)(rcoev (x) id) != id on M*",
         ident.kron(dd.right_ev) @ dd.right_coev.kron(ident), ident),
    ])
    return rep


def ev_coev_as_homs(a: HopfXiCoalgebra, m: AModule, piv: tuple):
    """The four (co)evaluations as degree-1 graded homs between tensor modules.

    Returns (lev, lcoev, rev, rcoev) together with their source/target
    modules, so A-linearity can be checked with hom_is_linear.
    """
    f, H, E = a.field, a.H, a.E
    x = m.degree()
    xinv = H.inv(x)
    dd = dual_module(a, m, piv)
    dual = dd.module
    one_mod = unit_module(a)

    ds_m = tensor_modules(a, dual, m)  # M* (x) M
    md_s = tensor_modules(a, m, dual)  # M (x) M*

    def place_row(vec: Matrix, layout, key, total):
        row = [f.zero] * total
        for (y, z, off, size) in layout:
            if (y, z) == key:
                for j in range(size):
                    row[off + j] = vec[0, j]
        return Matrix(f, [row], 1, total)

    def place_col(vec: Matrix, layout, key, total):
        col = [[f.zero] for _ in range(total)]
        for (y, z, off, size) in layout:
            if (y, z) == key:
                for i in range(size):
                    col[off + i][0] = vec[i, 0]
        return Matrix(f, col, total, 1)

    one = H.identity
    lev_blocks = []
    rev_blocks = []
    lcoev_blocks = []
    rcoev_blocks = []
    for u in H.elements():
        ds_layout = tensor_layout(a, dual, m, u)
        md_layout = tensor_layout(a, m, dual, u)
        ds_total = sum(s for (_, _, _, s) in ds_layout)
        md_total = sum(s for (_, _, _, s) in md_layout)
        tgt = one_mod.dim(u)
        if u == one:
            lev_blocks.append(place_row(dd.left_ev, ds_layout, (xinv, x), ds_total))
            rev_blocks.append(place_row(dd.right_ev, md_layout, (x, xinv), md_total))
            lcoev_blocks.append(place_col(dd.left_coev, md_layout, (x, xinv), md_total))
            rcoev_blocks.append(place_col(dd.right_coev, ds_layout, (xinv, x), ds_total))
        else:
            lev_blocks.append(Matrix.zeros(f, tgt, ds_total))
            rev_blocks.append(Matrix.zeros(f, tgt, md_total))
            lcoev_blocks.append(Matrix.zeros(f, md_total, tgt))
            rcoev_blocks.append(Matrix.zeros(f, ds_total, tgt))
    e1 = E.identity
    return {
        "lev": (GradedHom(e1, tuple(lev_blocks)), ds_m, one_mod),
        "lcoev": (GradedHom(e1, tuple(lcoev_blocks)), one_mod, md_s),
        "rev": (GradedHom(e1, tuple(rev_blocks)), md_s, one_mod),
        "rcoev": (GradedHom(e1, tuple(rcoev_blocks)), one_mod, ds_m),
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

    dims = []
    actions = []
    for x in H.elements():
        sizes = [p.dim(x) for p in pulled]
        total = sum(sizes)
        dims.append(total)
        du = a.dim(x)
        rows = [[f.zero] * (du * total) for _ in range(total)]
        off = 0
        for p in pulled:
            size = p.dim(x)
            r = p.r(x)
            for i in range(size):
                for alpha in range(du):
                    for j in range(size):
                        v = r[i, alpha * size + j]
                        if v != f.zero:
                            rows[off + i][alpha * total + off + j] = v
            off += size
        actions.append(Matrix(f, rows, total, du * total))
    d = AModule(a, tuple(dims), tuple(actions))

    injections = []
    projections = []
    for idx, m in enumerate(modules):
        inj_blocks = []
        for x in H.elements():
            tgt = H.mul(xi_e, x)
            # block index within D_{tgt}: pullbacks evaluated at tgt give M_x
            sizes = [p.dim(tgt) for p in pulled]
            total = sum(sizes)
            off = sum(sizes[:idx])
            rows = [[f.zero] * m.dim(x) for _ in range(total)]
            for i in range(m.dim(x)):
                rows[off + i][i] = f.one
            inj_blocks.append(Matrix(f, rows, total, m.dim(x)))
        injections.append(GradedHom(e, tuple(inj_blocks)))

        proj_blocks = []
        for x in H.elements():
            tgt = H.mul(a.cm.xi_of(e_inv), x)
            sizes = [p.dim(x) for p in pulled]
            total = sum(sizes)
            off = sum(sizes[:idx])
            rows = [[f.zero] * total for _ in range(m.dim(tgt))]
            for i in range(m.dim(tgt)):
                rows[i][off + i] = f.one
            proj_blocks.append(Matrix(f, rows, m.dim(tgt), total))
        projections.append(GradedHom(e_inv, tuple(proj_blocks)))
    return d, injections, projections
