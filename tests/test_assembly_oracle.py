"""The assembled linear systems and reindexed maps against naive oracles.

`antipode_solve_details`, `integral_space`, `coinvariants` and `hom_space` build
their systems from Kronecker products, transposes, reshapes and block
placement.  The oracle below builds each system the slow way: it writes every
unknown as a structure map or family, evaluates the defining identity on each
standard basis vector and reads the residual off entry by entry.  Both must
give the same kernel basis or solution, bit for bit.  `structure_iso` reads the
coinvariant coordinates of pi off the kernel basis; its oracle solves one
system per basis vector of M_1.  The contragredient and direct-sum actions and
the dual Hopf module's coaction are reshapes, flips and placements too; their
oracles copy entries one index at a time.
"""

import pytest

from tests.conftest import GF5, QQ, fixture_structures, make_unequal_dims
from tests.oracles import EXAMPLES, build
from xmhopf.errors import NotInvertibleError
from xmhopf.hopf import antipode_solve_details
from xmhopf.hopfmod import (
    coinvariants,
    dual_hopf_module,
    integral_space,
    structure_iso,
    trivial_hopf_module,
)
from xmhopf.linalg import Matrix
from xmhopf.repcat import (
    _contragredient,
    _direct_sum_action,
    hom_block_shapes,
    hom_space,
    line_module,
    pullback_phi_e,
    regular_module,
    unit_module,
)

# -- the oracle ------------------------------------------------------------------------


def linear_map_matrix(field, n_unknowns, apply_fn):
    """Matrix of the linear map k^n -> k^m whose value on each standard basis vector
    (a tuple) is the sequence apply_fn returns."""
    cols = []
    for i in range(n_unknowns):
        e = tuple(field.one if j == i else field.zero for j in range(n_unknowns))
        cols.append(tuple(apply_fn(e)))
    if not cols:
        return Matrix.zeros(field, 0, 0)
    rows = len(cols[0])
    return Matrix(field, [[cols[j][i] for j in range(n_unknowns)] for i in range(rows)],
                  rows, n_unknowns)


def entries(m):
    return [m[i, j] for i in range(m.rows) for j in range(m.cols)]


def unflatten(flat, dims):
    out, pos = [], 0
    for d in dims:
        out.append(tuple(flat[pos:pos + d]))
        pos += d
    return tuple(out)


def oracle_antipode(a, x):
    """(S_x or None, unique flag) from mu_x (S_x (x) id) Delta_{x^-1,x} = eta_x eps."""
    H, f = a.H, a.field
    xinv = H.inv(x)
    dx, dxi = a.dim(x), a.dim(xinv)
    delta = a.delta(xinv, x)
    mul = a.components[x].mul
    target = a.components[x].unit_col() @ a.counit

    def image_of(flat):
        s = Matrix(f, [flat[r * dxi:(r + 1) * dxi] for r in range(dx)], dx, dxi)
        return entries(mul @ s.kron(Matrix.identity(f, dx)) @ delta)

    solved = linear_map_matrix(f, dx * dxi, image_of).solve(tuple(entries(target)))
    if solved is None:
        return None, False
    flat, unique = solved
    return Matrix(f, [flat[r * dxi:(r + 1) * dxi] for r in range(dx)], dx, dxi), unique


def oracle_integrals(a, side):
    f, H, E = a.field, a.H, a.E
    dims = [a.dim(x) for x in H.elements()]

    def residual(flat):
        lam = [Matrix.row(f, v) for v in unflatten(flat, dims)]
        out = []
        for x in H.elements():
            for y in H.elements():
                xy = H.mul(x, y)
                if side == "left":
                    lhs = Matrix.identity(f, a.dim(x)).kron(lam[y]) @ a.delta(x, y)
                    rhs = a.component(x).unit_col() @ lam[xy]
                else:
                    lhs = lam[x].kron(Matrix.identity(f, a.dim(y))) @ a.delta(x, y)
                    rhs = a.component(y).unit_col() @ lam[xy]
                out += entries(lhs - rhs)
            for e in E.elements():
                out += entries(lam[H.mul(a.cm.xi_of(e), x)] @ a.phi(x, e) - lam[x])
        return out

    system = linear_map_matrix(f, sum(dims), residual)
    return [unflatten(v, dims) for v in system.kernel_basis()]


def oracle_coinvariants(a, m):
    f, H, E = a.field, a.H, a.E

    def residual(flat):
        fam = [Matrix.col(f, v) for v in unflatten(flat, m.dims)]
        out = []
        for x in H.elements():
            unit_x = a.component(x).unit_col()
            for y in H.elements():
                out += entries(m.rho[(x, y)] @ fam[H.mul(x, y)] - unit_x.kron(fam[y]))
            for e in E.elements():
                out += entries(m.psi[(x, e)] @ fam[x] - fam[H.mul(a.cm.xi_of(e), x)])
        return out

    system = linear_map_matrix(f, sum(m.dims), residual)
    return [unflatten(v, m.dims) for v in system.kernel_basis()]


def oracle_hom_space(a, m, n, e):
    """Bases of the degree-e homs as tuples of blocks alpha_x: M_x -> N_{xi(e)x}."""
    f = a.field
    shapes = hom_block_shapes(a, m, n, e)
    pulled = pullback_phi_e(a, n, e)

    def blocks_of(flat):
        blocks, pos = [], 0
        for r, c in shapes:
            blocks.append(Matrix(f, [flat[pos + i * c:pos + (i + 1) * c] for i in range(r)], r, c))
            pos += r * c
        return blocks

    def residual(flat):
        out = []
        for x, alpha in enumerate(blocks_of(flat)):
            out += entries(alpha @ m.r(x)
                           - pulled.r(x) @ Matrix.identity(f, a.dim(x)).kron(alpha))
        return out

    system = linear_map_matrix(f, sum(r * c for r, c in shapes), residual)
    return [tuple(blocks_of(v)) for v in system.kernel_basis()]


def oracle_structure_iso(a, m, coinv):
    """(eps_maps, nu_maps) with pi built one column at a time: the image of each basis vector
    of M_1, solved for in the flat coinvariant basis; raises NotInvertibleError alike."""
    f, H = a.field, a.H
    k, one = len(coinv), H.identity
    eps = [m.r[x] @ Matrix.identity(f, a.dim(x)).kron(
               Matrix(f, [c[x] for c in coinv], k, m.dim(x)).T) for x in H.elements()]
    flat = [[v for comp in c for v in comp] for c in coinv]
    pi_cols = []
    for j in range(m.dim(one)):
        image = [v for x in H.elements()
                 for v in m.r[x].apply(a.S(x).kron(Matrix.identity(f, m.dim(x)))
                                       .apply(m.rho[(H.inv(x), x)].column(j)))]
        if flat:
            solved = Matrix(f, flat, k, len(image)).T.solve(image)
        else:
            solved = None if any(image) else ((), True)
        if solved is None:
            raise NotInvertibleError("pi does not land in the coinvariants")
        pi_cols.append(solved[0])
    pi = Matrix(f, pi_cols, m.dim(one), k).T
    nu = [Matrix.identity(f, a.dim(x)).kron(pi) @ m.rho[(x, one)] for x in H.elements()]
    for x in H.elements():
        if eps[x] @ nu[x] != Matrix.identity(f, m.dim(x)):
            raise NotInvertibleError(f"eps nu != id at component {x}")
        if nu[x] @ eps[x] != Matrix.identity(f, a.dim(x) * k):
            raise NotInvertibleError(f"nu eps != id at component {x}")
    return eps, nu


def entry_loop_contragredient(a, x, r):
    """Entry (j, i*d + c) is entry (c, i*d + j) of r (S_x (x) id), for d = r.rows."""
    f, d = a.field, r.rows
    n = a.dim(a.H.inv(x))
    acts = r @ a.S(x).kron(Matrix.identity(f, d))
    return Matrix(f, [[acts[c, i * d + j] for i in range(n) for c in range(d)] for j in range(d)],
                  d, n * d)


def entry_loop_direct_sum_action(f, du, parts):
    """Entry (o + i, alpha*total + o + j) is entry (i, alpha*s + j) of the part of size s at o."""
    total = sum(r.rows for r in parts)
    out = [[f.zero] * (du * total) for _ in range(total)]
    offset = 0
    for r in parts:
        s = r.rows
        for alpha in range(du):
            for i in range(s):
                for j in range(s):
                    out[offset + i][alpha * total + offset + j] = r[i, alpha * s + j]
        offset += s
    return Matrix(f, out, total, du * total)


def entry_loop_dual_coaction(a, x, y):
    """Entry (i*m_y + t, j) of rho_{x,y} is entry (j*dim A_x + i, t) of Delta_{(xy)^-1,x}."""
    H, f = a.H, a.field
    dx, my, mxy = a.dim(x), a.dim(H.inv(y)), a.dim(H.inv(H.mul(x, y)))
    delta = a.delta(H.inv(H.mul(x, y)), x)
    rows = [[delta[j * dx + i, t] for j in range(mxy)] for i in range(dx) for t in range(my)]
    return Matrix(f, rows, dx * my, mxy)


# -- the structures ----------------------------------------------------------------------


STRUCTURES = EXAMPLES + [(name, None, None) for name, _ in fixture_structures()]


@pytest.fixture(scope="module", params=STRUCTURES, ids=[s[0] for s in STRUCTURES])
def structure(request):
    name, make, field = request.param
    return dict(fixture_structures())[name] if make is None else build(make, field)


def test_antipode_system_matches_oracle(structure):
    a = structure.base
    for x in a.H.elements():
        assert antipode_solve_details(a, x) == oracle_antipode(a, x)


@pytest.mark.parametrize("side", ["left", "right"])
def test_integral_system_matches_oracle(structure, side):
    assert integral_space(structure, side) == oracle_integrals(structure, side)


@pytest.mark.parametrize("field", [QQ, GF5], ids=repr)
@pytest.mark.parametrize("side", ["left", "right"])
def test_integral_system_over_components_of_unequal_dimension_matches_oracle(field, side):
    # dim A_0 = 2 and dim A_1 = 3, so that a flip with dx and dy swapped moves entries; the
    # evaluations at 0 are an integral, so a wrong system shows as a different kernel
    a = make_unequal_dims(field)
    basis = integral_space(a, side)
    assert basis == oracle_integrals(a, side)
    assert basis == [((field.one, field.zero), (field.one, field.zero, field.zero))]


def test_coinvariant_system_matches_oracle(structure):
    for m in (dual_hopf_module(structure), trivial_hopf_module(structure, 2)):
        assert coinvariants(structure, m) == oracle_coinvariants(structure, m)


def test_structure_iso_matches_per_column_oracle(structure):
    # every one of these Hopf modules is trivial, so neither side raises
    modules = [trivial_hopf_module(structure, v) for v in (0, 1, 2)]
    for m in modules + [dual_hopf_module(structure)]:
        coinv = coinvariants(structure, m)
        assert structure_iso(structure, m, coinv) == oracle_structure_iso(structure, m, coinv)


def test_hom_system_matches_oracle(structure):
    # the line module in the last degree acts through the sum of coordinates: a character
    # on a group algebra; the system is the same linear algebra where it is not one
    a, f = structure, structure.field
    last = a.H.order - 1
    line = line_module(a, last, Matrix.row(f, (f.one,) * a.dim(last)))
    reg = regular_module(a, a.H.identity)
    for m, n in [(reg, reg), (unit_module(a), reg), (line, line), (line, reg)]:
        for e in a.E.elements():
            assert [h.blocks for h in hom_space(a, m, n, e)] == oracle_hom_space(a, m, n, e)


def test_reindexed_maps_match_entry_loops(structure):
    # the action of A (x) k^2 has twice the dimension of A_x, so the contragredient's
    # flip is not its own transpose there
    a, f = structure, structure.field
    fibre_2 = trivial_hopf_module(a, 2)
    for x in a.H.elements():
        actions = [a.component(x).mul, fibre_2.r[x], Matrix.zeros(f, 0, 0)]
        for r in actions[:2]:
            assert _contragredient(a, x, r) == entry_loop_contragredient(a, x, r)
        for parts in (actions, actions[::-1], actions[1:2]):
            got = _direct_sum_action(f, a.dim(x), parts)
            assert got == entry_loop_direct_sum_action(f, a.dim(x), parts)
    for (x, y), rho in dual_hopf_module(a).rho.items():
        assert rho == entry_loop_dual_coaction(a, x, y)
