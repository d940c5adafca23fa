import pytest

from tests.conftest import GF5, QQ, make_k_h_z2, make_unequal_dims
from tests.oracles import bumped, oracle_hom_is_linear
from xmhopf import hopf, repcat
from xmhopf.errors import NotHomogeneousError
from xmhopf.linalg import Matrix
from xmhopf.repcat import (
    AModule,
    GradedHom,
    compose_homs,
    dual_module,
    dual_zigzag_report,
    e_direct_sum,
    ev_coev_as_homs,
    hom_add,
    hom_is_linear,
    hom_space,
    identity_hom,
    line_module,
    pullback_phi_e,
    regular_module,
    tensor_homs,
    tensor_layout,
    tensor_modules,
    unit_module,
    validate_module,
    zero_module,
)


def trivial_char(a, x):
    return line_module(a, x, Matrix.row(a.field, tuple(a.field.one for _ in range(a.dim(x)))))


def k_line(a, x):
    # over structures with one-dimensional components the character is (1)
    return line_module(a, x, Matrix.row(a.field, (a.field.one,) * a.dim(x)))


def linear(a, m, n, h) -> bool:
    """hom_is_linear(a, m, n, h), checked against its product-identity oracle on h, and on h
    with 1 added to the first entry of its first nonempty block; returns the verdict on h."""
    verdict = hom_is_linear(a, m, n, h)
    assert verdict == oracle_hom_is_linear(a, m, n, h)
    x = next((x for x, b in enumerate(h.blocks) if b.rows and b.cols), None)
    if x is not None:
        blocks = list(h.blocks)
        blocks[x] = bumped(blocks[x], 0, 0)
        p = GradedHom(h.degree, tuple(blocks))
        assert hom_is_linear(a, m, n, p) == oracle_hom_is_linear(a, m, n, p)
    return verdict


def test_unit_module_valid(k_xi_z2):
    assert validate_module(k_xi_z2, unit_module(k_xi_z2)).ok


def test_regular_module_valid(bichar_z2):
    assert validate_module(bichar_z2, regular_module(bichar_z2, 0)).ok


def test_scaled_action_fails_unitality(k_xi_z2):
    m = k_line(k_xi_z2, 0)
    doubled = AModule(
        k_xi_z2,
        m.dims,
        tuple(r.scale(QQ.of(2)) for r in m.actions),
    )
    rep = validate_module(k_xi_z2, doubled)
    assert not rep.ok
    assert any(c.name == "action is unital" for c in rep.checks if not c.ok)


def test_unit_tensor_is_identity(k_xi_z2):
    m = k_line(k_xi_z2, 1)
    t = tensor_modules(k_xi_z2, unit_module(k_xi_z2), m)
    assert t.dims == m.dims
    assert t.actions == m.actions  # counit law makes the identification exact
    t2 = tensor_modules(k_xi_z2, m, unit_module(k_xi_z2))
    assert t2.dims == m.dims and t2.actions == m.actions


def test_line_tensor_multiplies_degrees(k_xi_z2):
    # k_x (x) k_y = k_xy in the graded-line category
    H = k_xi_z2.H
    for x in H.elements():
        for y in H.elements():
            t = tensor_modules(k_xi_z2, k_line(k_xi_z2, x), k_line(k_xi_z2, y))
            assert t.dims == tuple(1 if u == H.mul(x, y) else 0 for u in H.elements())
            assert validate_module(k_xi_z2, t).ok


def test_tensor_of_regulars_valid(bichar_z2):
    m = regular_module(bichar_z2, 0)
    t = tensor_modules(bichar_z2, m, m)
    assert t.dims == (4,)
    assert validate_module(bichar_z2, t).ok


def naive_tensor_action(a, m, n, u):
    """The action of A_u on (M (x) N)_u entry by entry: a_i . (m_j (x) n_k) sums
    c (a_s . m_j) (x) (b_t . n_k) over the entries c of Delta_{y,z}(a_i) at a_s (x) b_t."""
    f = a.field
    layout = tensor_layout(a, m, n, u)
    total, du = sum(size for *_, size in layout), a.dim(u)
    out = [[f.zero] * (du * total) for _ in range(total)]
    for y, z, off, _ in layout:
        delta, rm, rn, dz, my, nz = a.delta(y, z), m.r(y), n.r(z), a.dim(z), m.dim(y), n.dim(z)
        for i in range(du):
            for s in range(a.dim(y)):
                for t in range(dz):
                    c = delta[s * dz + t, i]
                    for j in range(my):
                        for k in range(nz):
                            col = i * total + off + j * nz + k
                            for j2 in range(my):
                                for k2 in range(nz):
                                    v = f.mul(c, f.mul(rm[j2, s * my + j], rn[k2, t * nz + k]))
                                    row = off + j2 * nz + k2
                                    out[row][col] = f.add(out[row][col], v)
    return Matrix(f, out, total, du * total)


def assert_tensor_actions_match_naive_oracle(a):
    mods = [unit_module(a)] + [regular_module(a, x) for x in a.H.elements()]
    for m in mods:
        for n in mods:
            t = tensor_modules(a, m, n)
            for u in a.H.elements():
                assert t.r(u) == naive_tensor_action(a, m, n, u)


def test_tensor_action_matches_naive_oracle(rho_z2, bichar_z2):
    # modules of unequal dimensions, so that a flip with M's and N's dimensions swapped differs
    for a in (rho_z2, bichar_z2):
        assert_tensor_actions_match_naive_oracle(a)


@pytest.mark.parametrize("field", [QQ, GF5], ids=repr)
def test_tensor_action_of_unequal_components_matches_naive_oracle(field):
    # dim A_0 = 2 and dim A_1 = 3, so that a flip with A_y's and A_z's dimensions swapped
    # differs
    assert_tensor_actions_match_naive_oracle(make_unequal_dims(field))


def _flat_positions_left(a, m, n, p, u):
    """Positions of basis triples in ((M (x) N) (x) P)_u, keyed (x,y,z,i,j,k)."""
    mn = tensor_modules(a, m, n)
    H = a.H
    pos = {}
    for (w, z, off, size) in tensor_layout(a, mn, p, u):
        if size == 0:
            continue
        inner = tensor_layout(a, m, n, w)
        for (x, y, ioff, isize) in inner:
            if isize == 0:
                continue
            ny = n.dim(y)
            for i in range(m.dim(x)):
                for j in range(ny):
                    for k in range(p.dim(z)):
                        pos[(x, y, z, i, j, k)] = off + (ioff + i * ny + j) * p.dim(z) + k
    return pos, sum(s for (_, _, _, s) in tensor_layout(a, mn, p, u))


def _flat_positions_right(a, m, n, p, u):
    np_ = tensor_modules(a, n, p)
    pos = {}
    for (x, v, off, size) in tensor_layout(a, m, np_, u):
        if size == 0:
            continue
        inner = tensor_layout(a, n, p, v)
        vdim = np_.dim(v)
        for (y, z, ioff, isize) in inner:
            if isize == 0:
                continue
            pz = p.dim(z)
            for i in range(m.dim(x)):
                for j in range(n.dim(y)):
                    for k in range(pz):
                        pos[(x, y, z, i, j, k)] = off + i * vdim + ioff + j * pz + k
    return pos, sum(s for (_, _, _, s) in tensor_layout(a, m, np_, u))


def test_tensor_associativity_conjugate_actions(k_xi_z2):
    a = k_xi_z2
    m, n, p = k_line(a, 1), k_line(a, 1), k_line(a, 0)
    left = tensor_modules(a, tensor_modules(a, m, n), p)
    right = tensor_modules(a, m, tensor_modules(a, n, p))
    assert left.dims == right.dims
    f = a.field
    for u in a.H.elements():
        lpos, total = _flat_positions_left(a, m, n, p, u)
        rpos, total_r = _flat_positions_right(a, m, n, p, u)
        assert total == total_r and set(lpos) == set(rpos)
        perm = Matrix.zeros(f, total, total)
        rows = [[f.zero] * total for _ in range(total)]
        for key, lp in lpos.items():
            rows[rpos[key]][lp] = f.one
        perm = Matrix(f, rows, total, total)
        conj = perm @ left.r(u) @ Matrix.identity(f, a.dim(u)).kron(perm.T)
        assert conj == right.r(u)


def test_pullback_identity_degree(k_xi_z2):
    m = k_line(k_xi_z2, 1)
    p = pullback_phi_e(k_xi_z2, m, 0)
    assert p.dims == m.dims and p.actions == m.actions


def test_pullback_shifts_degree(k_xi_z2):
    # over the identity crossed module on Z/2, pulling k_h back along the
    # nontrivial element lands in degree 1 * h = 1
    m = k_line(k_xi_z2, 1)
    p = pullback_phi_e(k_xi_z2, m, 1)
    assert p.dims == (1, 0)


def test_pullback_composes(k_xi_z2):
    a = k_xi_z2
    m = k_line(a, 1)
    for e in a.E.elements():
        for f_el in a.E.elements():
            lhs = pullback_phi_e(a, pullback_phi_e(a, m, e), f_el)
            rhs = pullback_phi_e(a, m, a.E.mul(e, f_el))
            assert lhs.dims == rhs.dims and lhs.actions == rhs.actions


def test_hom_space_graded_lines(k_xi_z2):
    a = k_xi_z2
    H, E = a.H, a.E
    for x in H.elements():
        for y in H.elements():
            for e in E.elements():
                basis = hom_space(a, k_line(a, x), k_line(a, y), e)
                expected = 1 if H.mul(a.cm.xi_of(e), x) == y else 0
                assert len(basis) == expected
                for h in basis:
                    assert linear(a, k_line(a, x), k_line(a, y), h)


def test_hom_space_contains_identity(k_xi_z2, bichar_z2):
    for a, m in (
        (k_xi_z2, k_line(k_xi_z2, 1)),
        (bichar_z2, regular_module(bichar_z2, 0)),
    ):
        ident = identity_hom(a, m)
        assert linear(a, m, m, ident)
        basis = hom_space(a, m, m, a.E.identity)
        assert len(basis) >= 1
        # the identity must be a linear combination of the basis: solve
        f = a.field
        cols = []
        target = []
        for x in a.H.elements():
            for i in range(m.dim(x)):
                for j in range(m.dim(x)):
                    cols.append([h.block(x)[i, j] for h in basis])
                    target.append(ident.block(x)[i, j])
        system = Matrix(f, cols, len(cols), len(basis))
        assert system.solve(tuple(target)) is not None


def test_hom_space_bicharacter_sign_rep(bichar_z2):
    a = bichar_z2
    one = QQ.one
    sign = line_module(a, 0, Matrix.row(QQ, (one, QQ.of(-1))))
    triv = line_module(a, 0, Matrix.row(QQ, (one, one)))
    # alpha(g.m) = omega(e,g) g.alpha(m): for e = 1 the sign twist moves
    # sign <-> trivial and kills the endomorphisms
    assert len(hom_space(a, sign, sign, 0)) == 1
    assert len(hom_space(a, sign, sign, 1)) == 0
    assert len(hom_space(a, sign, triv, 1)) == 1
    assert len(hom_space(a, triv, sign, 1)) == 1
    assert len(hom_space(a, sign, triv, 0)) == 0


def test_hom_degree_forces_target_degree(k_xi_z2):
    a = k_xi_z2
    H = a.H
    for x in H.elements():
        for y in H.elements():
            for e in a.E.elements():
                if hom_space(a, k_line(a, x), k_line(a, y), e):
                    assert y == H.mul(a.cm.xi_of(e), x)


def universe(a):
    k1, kh = k_line(a, 0), k_line(a, 1)
    return [
        ("k1", k1),
        ("kh", kh),
        ("k1xkh", tensor_modules(a, k1, kh)),
        ("khxkh", tensor_modules(a, kh, kh)),
    ]


def test_composition_degree_law_exhaustive(k_xi_z2):
    a = k_xi_z2
    E = a.E
    objs = universe(a)
    for _, m in objs:
        for _, n in objs:
            for e in E.elements():
                for h1 in hom_space(a, m, n, e):
                    for _, p in objs:
                        for f_el in E.elements():
                            for h2 in hom_space(a, n, p, f_el):
                                comp = compose_homs(a, h2, h1)
                                assert comp.degree == E.mul(f_el, e)
                                assert linear(a, m, p, comp)


def test_identity_composition(k_xi_z2):
    # the degree-e arrow k_1 -> k_h composed with the degree-e^-1 arrow
    # back is exactly the identity in degree 1
    a = k_xi_z2
    m, n = k_line(a, 0), k_line(a, 1)
    (f_hom,) = hom_space(a, m, n, 1)
    (g_hom,) = hom_space(a, n, m, 1)
    ident = compose_homs(a, g_hom, f_hom)
    assert ident.degree == a.E.identity
    assert ident.blocks == identity_hom(a, m).blocks


def test_tensor_hom_degree_law(k_xi_z2):
    a = k_xi_z2
    E, cm = a.E, a.cm
    objs = universe(a)
    homog = [(name, m) for name, m in objs if len(m.support()) == 1]
    for _, m in homog:
        x0 = m.degree()
        for _, n in objs:
            for e in E.elements():
                for alpha in hom_space(a, m, n, e):
                    for _, p in homog:
                        for _, q in objs:
                            for f_el in E.elements():
                                for beta in hom_space(a, p, q, f_el):
                                    t = tensor_homs(a, alpha, beta, m, n, p, q)
                                    assert t.degree == E.mul(e, cm.act(x0, f_el))
                                    assert linear(
                                        a,
                                        tensor_modules(a, m, p),
                                        tensor_modules(a, n, q),
                                        t,
                                    )


def test_tensor_hom_requires_homogeneous_source(k_xi_z2):
    a = k_xi_z2
    mixed = AModule(
        a,
        (1, 1),
        (Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)),
    )
    ident = identity_hom(a, mixed)
    with pytest.raises(NotHomogeneousError):
        tensor_homs(a, ident, ident, mixed, mixed, mixed, mixed)


def test_dual_of_unit_is_unit(k_xi_z2):
    a = k_xi_z2
    piv = ((QQ.one,), (QQ.one,))
    dd = dual_module(a, unit_module(a), piv)
    assert dd.module.dims == unit_module(a).dims
    assert dd.left_ev == Matrix(QQ, [[QQ.one]])
    assert dd.right_ev == Matrix(QQ, [[QQ.one]])
    assert dual_zigzag_report(a, unit_module(a), piv).ok


def test_dual_module_decides_its_pivotal_family_grouplike_once(monkeypatch):
    # the family's inverse is computed once, and it decides that the family is grouplike
    a, calls = make_k_h_z2(), {"grouplike_report": 0, "grouplike_inverse": 0}

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(hopf, "grouplike_report", counted(hopf, "grouplike_report"))
    inverse = counted(hopf, "grouplike_inverse")
    monkeypatch.setattr(hopf, "grouplike_inverse", inverse)
    monkeypatch.setattr(repcat, "grouplike_inverse", inverse)
    piv = tuple(a.component(x).unit for x in a.H.elements())
    dual_module(a, unit_module(a), piv)
    assert calls == {"grouplike_report": 1, "grouplike_inverse": 1}


def test_dual_regular_module_zigzags(bichar_z2):
    a = bichar_z2
    piv = ((QQ.one, QQ.zero),)
    m = regular_module(a, 0)
    assert dual_zigzag_report(a, m, piv).ok
    dd = dual_module(a, m, piv)
    assert validate_module(a, dd.module).ok


def test_dual_line_degree_arithmetic(k_xi_z2):
    a = k_xi_z2
    piv = ((QQ.one,), (QQ.one,))
    dd = dual_module(a, k_line(a, 1), piv)
    assert dd.module.dims == (0, 1)  # h^-1 = h in Z/2
    assert dual_zigzag_report(a, k_line(a, 1), piv).ok


def test_ev_coev_are_morphisms(k_xi_z2, bichar_z2):
    for a, m in (
        (k_xi_z2, k_line(k_xi_z2, 1)),
        (bichar_z2, regular_module(bichar_z2, 0)),
    ):
        piv = tuple(a.component(x).unit for x in a.H.elements())
        homs = ev_coev_as_homs(a, m, piv)
        for name, (h, src, tgt) in homs.items():
            assert linear(a, src, tgt, h), name


def test_e_direct_sum_ordinary(k_xi_z2):
    a = k_xi_z2
    u = unit_module(a)
    d, injs, projs = e_direct_sum(a, [u, u], a.E.identity)
    assert d.dims == (2, 0)
    assert validate_module(a, d).ok
    _check_biproduct_identities(a, [u, u], d, injs, projs)


def test_e_direct_sum_shifted(k_xi_z2):
    a = k_xi_z2
    e = 1
    k1 = k_line(a, 0)
    d, injs, projs = e_direct_sum(a, [k1], e)
    # the e-direct sum of {k_1} is the line in degree xi(e)
    assert d.dims == tuple(1 if x == a.cm.xi_of(e) else 0 for x in a.H.elements())
    _check_biproduct_identities(a, [k1], d, injs, projs)
    # hom degree check: a degree-e isomorphism k_1 -> D exists
    assert len(hom_space(a, k1, d, e)) == 1


def test_e_direct_sum_empty_is_zero(k_xi_z2):
    d, injs, projs = e_direct_sum(k_xi_z2, [], 1)
    assert d.dims == zero_module(k_xi_z2).dims
    assert injs == [] and projs == []


def _check_biproduct_identities(a, modules, d, injs, projs):
    E = a.E
    for i, m in enumerate(modules):
        assert linear(a, m, d, injs[i])
        assert linear(a, d, m, projs[i])
        for j, n in enumerate(modules):
            comp = compose_homs(a, projs[i], injs[j])
            assert comp.degree == E.identity
            expect = identity_hom(a, m).blocks if i == j else tuple(
                Matrix.zeros(a.field, m.dim(x), n.dim(x)) for x in a.H.elements()
            )
            assert comp.blocks == expect
    if modules:
        total = compose_homs(a, injs[0], projs[0])
        for i in range(1, len(modules)):
            total = hom_add(a, total, compose_homs(a, injs[i], projs[i]))
        assert total.blocks == identity_hom(a, d).blocks
    return True


def test_direct_sum_hom_dimension_formula(k_xi_z2):
    # dim Hom^d(sum^e X_a, sum^f Y_b) = sum dim Hom^{f^-1 d e}(X_a, Y_b)
    a = k_xi_z2
    E = a.E
    xs = [k_line(a, 0), k_line(a, 1)]
    ys = [k_line(a, 0)]
    for e in E.elements():
        for f_el in E.elements():
            dx, _, _ = e_direct_sum(a, xs, e)
            dy, _, _ = e_direct_sum(a, ys, f_el)
            for d_deg in E.elements():
                lhs = len(hom_space(a, dx, dy, d_deg))
                rhs = sum(
                    len(hom_space(a, x, y, E.mul(E.mul(E.inv(f_el), d_deg), e)))
                    for x in xs
                    for y in ys
                )
                assert lhs == rhs
