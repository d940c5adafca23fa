"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Everything is exact arithmetic; there are no tolerances.
"""

import json
import pathlib

from tests.conftest import (
    GF5,
    QQ,
    make_bichar_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    run_cli,
    sign_flip_rho,
    z3_in_s3,
)
from tests.oracles import oracle_antipode_action_compat
from xmhopf.crossed import abelian_to_point, identity_cm, inclusion, kernel_image_cokernel, trivial_over
from xmhopf.groups import cyclic, symmetric
from xmhopf.hopf import enumerate_grouplikes, group_algebra, grouplike_product
from xmhopf.hopfmod import (
    coinvariants,
    distinguished_grouplike,
    dual_hopf_module,
    integral_space,
    structure_iso,
    validate_hopf_xi_module,
)
from xmhopf.linalg import Matrix
from xmhopf.repcat import (
    compose_homs,
    dual_zigzag_report,
    e_direct_sum,
    hom_is_linear,
    hom_space,
    line_module,
    tensor_homs,
    tensor_modules,
)
from xmhopf.xihopf import (
    dualize,
    dualize_algebra,
    full_validation_report,
    grouplike_pairing,
    is_xi_grouplike,
    mk_from_h_action,
    mk_from_pi_coalgebra,
    mk_trivial,
    validate_hopf_xi_algebra,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def report_line(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def the_four_crossed_modules():
    return [
        ("1 -> Z/2", trivial_over(cyclic(2))),
        ("id: Z/2 -> Z/2", identity_cm(cyclic(2))),
        ("Z/2 -> 1", abelian_to_point(cyclic(2))),
        ("Z/3 normal in S3", inclusion(z3_in_s3())),
    ]


def perm_parity_flip_rho(field):
    """rho on S3 valued in Aut(k[Z/2]): odd permutations negate g."""
    s3 = symmetric(3)
    flip = sign_flip_rho(field)[1]
    ident = Matrix.identity(field, 2)

    def parity(idx):
        # count inversions of the permutation with lexicographic index idx
        from itertools import permutations

        p = sorted(permutations(range(3)))[idx]
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return inv % 2

    return [flip if parity(x) else ident for x in s3.elements()]


def standard_examples(field):
    return [
        ("k_xi over id Z/2", make_k_xi_z2(field)),
        ("k_omega[Z/2]", make_bichar_z2(field)),
        ("k_xi over Z/3 in S3", make_k_xi_s3(field)),
        ("twisted constant family", make_rho_z2(field)),
    ]


def test_criterion_1_axiom_suite():
    ok = True
    for field in (QQ, GF5):
        for label, cm in the_four_crossed_modules():
            ok = ok and full_validation_report(mk_trivial(cm, field)).ok

        ok = ok and full_validation_report(make_bichar_z2(field)).ok

        kz2 = group_algebra(field, cyclic(2))
        h_action_cases = [
            (identity_cm(cyclic(2)), sign_flip_rho(field)),
            (trivial_over(cyclic(2)), sign_flip_rho(field)),
            (abelian_to_point(cyclic(2)), [Matrix.identity(field, 2)]),
            (inclusion(z3_in_s3()), perm_parity_flip_rho(field)),
        ]
        for cm, rho in h_action_cases:
            ok = ok and full_validation_report(mk_from_h_action(cm, kz2, rho)).ok

        for label, cm in the_four_crossed_modules():
            coker = kernel_image_cokernel(cm).cokernel
            b = mk_trivial(trivial_over(coker), field).base
            ok = ok and full_validation_report(mk_from_pi_coalgebra(cm, b)).ok
    report_line("1 (constructor axiom suite, Q and GF(5))", ok)


def test_criterion_2_integral_dimensions():
    ok = True
    for field in (QQ, GF5):
        for label, a in standard_examples(field):
            for side in ("left", "right"):
                ok = ok and len(integral_space(a, side)) == 1
    report_line("2 (integral spaces are one-dimensional on both sides)", ok)


def test_criterion_3_structure_theorem():
    ok = True
    for label, a in standard_examples(QQ):
        m = dual_hopf_module(a)
        ok = ok and validate_hopf_xi_module(a, m).ok
        coinv = coinvariants(a, m)
        eps, nu = structure_iso(a, m, coinv)
        ok = ok and len(coinv) == 1
        f = a.field
        for x in a.H.elements():
            ok = ok and eps[x] @ nu[x] == Matrix.identity(f, m.dim(x))
            ok = ok and nu[x] @ eps[x] == Matrix.identity(f, a.dim(x) * len(coinv))
        # coinvariants match right integrals under lambda -> (lambda_{x^-1})
        (lam,) = integral_space(a, "right")
        image = [v for x in a.H.elements() for v in lam[a.H.inv(x)]]
        flat_coinv = [[v for comp in c for v in comp] for c in coinv]
        cols = Matrix(f, [[fc[i] for fc in flat_coinv] for i in range(len(image))],
                      len(image), len(flat_coinv))
        ok = ok and cols.solve(tuple(image)) is not None
        ok = ok and any(v != f.zero for v in image)
    report_line("3 (structure theorem with explicit quasi-inverse)", ok)


def test_criterion_4_lemma_checks():
    ok = True
    for label, a in standard_examples(QQ):
        ok = ok and oracle_antipode_action_compat(a).ok
        fams = enumerate_grouplikes(a.base)
        pairings = {}
        for fam in fams:
            pairings[fam] = grouplike_pairing(a, fam)  # verifies the identity internally
        for f1 in fams:
            for f2 in fams:
                prod = grouplike_product(a.base, f1, f2)
                ok = ok and prod in pairings
                for e in a.E.elements():
                    ok = ok and pairings[prod][e] == a.field.mul(pairings[f1][e], pairings[f2][e])
            for e1 in a.E.elements():
                for e2 in a.E.elements():
                    ok = ok and pairings[f1][a.E.mul(e1, e2)] == a.field.mul(
                        pairings[f1][e1], pairings[f1][e2]
                    )
    b = make_bichar_z2()
    g_fam = ((QQ.zero, QQ.one),)
    unit_fam = ((QQ.one, QQ.zero),)
    ok = ok and grouplike_pairing(b, g_fam)[1] == QQ.of(-1)
    fams = enumerate_grouplikes(b.base)
    xi_fams = [f for f in fams if is_xi_grouplike(b, f)]
    ok = ok and sorted(fams) == sorted([unit_fam, g_fam]) and xi_fams == [unit_fam]
    report_line("4 (compatibility lemma and grouplike pairing)", ok)


def test_criterion_5_duality():
    ok = True
    for field in (QQ, GF5):
        for label, a in standard_examples(field):
            dual = dualize(a)
            ok = ok and validate_hopf_xi_algebra(dual).ok
            back = dualize_algebra(dual)
            for x in a.H.elements():
                ok = ok and back.component(x).mul == a.component(x).mul
                ok = ok and back.component(x).unit == a.component(x).unit
                ok = ok and back.S(x) == a.S(x)
                for y in a.H.elements():
                    ok = ok and back.delta(x, y) == a.delta(x, y)
                for e in a.E.elements():
                    ok = ok and back.phi(x, e) == a.phi(x, e)
            ok = ok and back.counit == a.counit
    report_line("5 (finite-type duality is involutive)", ok)


def test_criterion_6_representation_category():
    a = make_k_xi_z2()
    E, H, cm = a.E, a.H, a.cm
    one = QQ.one

    def k_line(x):
        return line_module(a, x, Matrix.row(QQ, (one,)))

    k1, kh = k_line(0), k_line(1)
    objects = [k1, kh, tensor_modules(a, k1, kh), tensor_modules(a, kh, kh)]

    ok = True
    # (i) hom dimensions between graded lines
    for x in H.elements():
        for y in H.elements():
            for e in E.elements():
                dim = len(hom_space(a, k_line(x), k_line(y), e))
                ok = ok and dim == (1 if H.mul(cm.xi_of(e), x) == y else 0)

    # (ii) composition and tensor degree laws for all basis morphisms
    homog = [m for m in objects if len(m.support()) == 1]
    for m in objects:
        for n in objects:
            for e in E.elements():
                for h1 in hom_space(a, m, n, e):
                    ok = ok and hom_is_linear(a, m, n, h1)
                    for p in objects:
                        for f_el in E.elements():
                            for h2 in hom_space(a, n, p, f_el):
                                comp = compose_homs(a, h2, h1)
                                ok = ok and comp.degree == E.mul(f_el, e)
                                ok = ok and hom_is_linear(a, m, p, comp)
    for m in homog:
        x0 = m.degree()
        for n in objects:
            for e in E.elements():
                for alpha in hom_space(a, m, n, e):
                    for p in homog:
                        for q in objects:
                            for f_el in E.elements():
                                for beta in hom_space(a, p, q, f_el):
                                    t = tensor_homs(a, alpha, beta, m, n, p, q)
                                    ok = ok and t.degree == E.mul(e, cm.act(x0, f_el))
                                    ok = ok and hom_is_linear(
                                        a, tensor_modules(a, m, p), tensor_modules(a, n, q), t
                                    )

    # (iii) direct-sum hom dimension count
    xs, ys = [k1, kh], [k1]
    for e in E.elements():
        for f_el in E.elements():
            dx, _, _ = e_direct_sum(a, xs, e)
            dy, _, _ = e_direct_sum(a, ys, f_el)
            for d in E.elements():
                lhs = len(hom_space(a, dx, dy, d))
                rhs = sum(
                    len(hom_space(a, x, y, E.mul(E.mul(E.inv(f_el), d), e)))
                    for x in xs
                    for y in ys
                )
                ok = ok and lhs == rhs

    # (iv) pivotal duals satisfy the zig-zag identities exactly
    piv = ((one,), (one,))
    for m in homog:
        ok = ok and dual_zigzag_report(a, m, piv).ok
    report_line("6 (graded representation category over the line structure)", ok)


def test_criterion_7_distinguished_grouplike():
    ok = True
    for field in (QQ, GF5):
        for label, a in standard_examples(field):
            (lam,) = integral_space(a, "right")
            g = distinguished_grouplike(a, [lam])
            ok = ok and g == tuple(a.component(x).unit for x in a.H.elements())
            ok = ok and is_xi_grouplike(a, g)
            # classical identity in the identity component
            f = a.field
            one_el = a.H.identity
            lhs = (
                Matrix.identity(f, a.dim(one_el)).kron(Matrix.row(f, lam[one_el]))
                @ a.delta(one_el, one_el)
            )
            rhs = Matrix.col(f, g[one_el]) @ Matrix.row(f, lam[one_el])
            ok = ok and lhs == rhs
    report_line("7 (distinguished grouplike element)", ok)


def test_criterion_8_mutation_sensitivity():
    manifest = json.loads((FIXTURES / "mutations" / "manifest.json").read_text())
    ok = len(manifest) == 10
    for entry in manifest:
        proc = run_cli("verify", str(FIXTURES / "mutations" / entry["file"]), entry["verify"])
        ok = ok and proc.returncode == 1 and "witness:" in proc.stdout
    report_line("8 (ten shipped mutations each fail with a witness)", ok)


def test_criterion_9_determinism(determinism_pair):
    first, second = determinism_pair
    ok = first == second and all(out for (_, _, _, _, _, out) in first)
    report_line("9 (byte-identical reports across runs)", ok)
