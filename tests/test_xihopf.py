import pytest

from tests.conftest import (
    FIXTURES,
    GF5,
    QQ,
    make_bichar_z2,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    sign_flip_rho,
    spans,
    z3_in_s3,
)
from tests.oracles import (
    bumped,
    oracle_action_laws,
    oracle_antipode_action_compat,
    oracle_hopf_xi_module,
    oracle_phi_preserves_unit,
    oracle_xi_action,
    perturbed_duals,
)
from xmhopf.crossed import identity_cm, inclusion, kernel_image_cokernel, trivial_over
from xmhopf.errors import NotGrouplikeError
from xmhopf.groups import cyclic
from xmhopf.hopf import enumerate_grouplikes, group_algebra, grouplike_product
from xmhopf.hopfmod import trivial_hopf_module, validate_hopf_xi_module
from xmhopf.linalg import Matrix
from xmhopf.xihopf import (
    HopfXiAlgebra,
    HopfXiCoalgebra,
    dualize,
    dualize_algebra,
    extract_pi_coalgebra,
    full_validation_report,
    grouplike_pairing,
    is_xi_grouplike,
    mk_bicharacter_group_algebra,
    mk_from_h_action,
    mk_from_pi_coalgebra,
    mk_trivial,
    validate_hopf_xi_algebra,
)

ALL_EXAMPLES = [make_k_xi_z2, make_k_h_z2, make_k_xi_s3, make_bichar_z2, make_rho_z2]


def with_phi(a: HopfXiCoalgebra, key, matrix) -> HopfXiCoalgebra:
    action = dict(a.action)
    action[key] = matrix
    return HopfXiCoalgebra(a.cm, a.base, action)


def test_xi_action_valid_examples():
    assert oracle_action_laws(make_k_xi_z2()).ok
    assert oracle_action_laws(make_bichar_z2()).ok


def test_xi_action_mutation_witnesses():
    a = make_k_xi_z2()
    doubled = Matrix(QQ, [[QQ.of(2)]])
    rep = oracle_action_laws(with_phi(a, (0, 1), doubled))
    assert not rep.ok
    failing = {c.name for c in rep.checks if not c.ok}
    assert any("phi_{xi(e)x,f} phi_{x,e}" in n or "phi_{x,1}" in n for n in failing)


def test_full_stack_on_all_constructors():
    for build in ALL_EXAMPLES:
        for field in (QQ, GF5):
            assert full_validation_report(build(field)).ok


def test_characteristic_two_grouplike_enumeration():
    # over GF(2) the sign candidates collapse, so enumeration must dedup
    from xmhopf import Field

    gf2 = Field.prime(2)
    a = make_k_xi_z2(gf2)
    assert full_validation_report(a).ok
    fams = enumerate_grouplikes(a.base)
    assert fams == [((gf2.one,), (gf2.one,))]


def test_antipode_action_compatibility_lemma():
    # a consequence of the axioms: must hold for every valid structure
    for build in ALL_EXAMPLES:
        assert oracle_antipode_action_compat(build()).ok


def test_pairing_bicharacter_example():
    a = make_bichar_z2()
    one = QQ.one
    g_fam = ((QQ.zero, one),)
    unit_fam = ((one, QQ.zero),)
    pairing = grouplike_pairing(a, g_fam)
    assert pairing == {0: one, 1: QQ.of(-1)}
    assert not is_xi_grouplike(a, g_fam)
    assert is_xi_grouplike(a, unit_fam)
    # G_H = {1, g} strictly contains G_Xi = {1}
    fams = enumerate_grouplikes(a.base)
    xi_fams = [f for f in fams if is_xi_grouplike(a, f)]
    assert len(fams) == 2 and xi_fams == [unit_fam]


def test_is_xi_grouplike_refuses_a_family_that_is_not_grouplike():
    # grouplike_pairing takes a family that its caller has decided is grouplike; the public
    # predicate is where an unchecked family arrives, and oracle_distinguished_grouplike
    # counts on it raising
    a = make_bichar_z2()
    with pytest.raises(NotGrouplikeError, match="^pairing needs a grouplike family$"):
        is_xi_grouplike(a, ((QQ.one, QQ.one),))


@pytest.mark.parametrize("command, name", [("grouplikes", "bichar_z2"), ("report", "bichar_z2"),
                                           ("verify", "g_family")])
def test_cli_decides_grouplikeness_once(command, name, monkeypatch, capsys):
    # report and grouplikes pair the families enumerate_grouplikes accepted, and verify of a
    # grouplikes object pairs it once grouplike_report passes: no pairing decides it again
    import xmhopf.cli as cli
    import xmhopf.xihopf as xihopf

    def refused(*args):
        raise AssertionError("grouplikeness decided again")

    monkeypatch.setattr(xihopf, "is_grouplike", refused)
    assert cli.main([command, str(FIXTURES / "bichar_z2.json"), name]) == 0
    assert "xi_grouplike" in capsys.readouterr().out


def test_pairing_trivial_family_over_z2():
    # the family (1, -1) in the trivial structure over the identity crossed
    # module pairs to -1 against the nontrivial element
    a = make_k_xi_z2()
    fam = ((QQ.one,), (QQ.of(-1),))
    pairing = grouplike_pairing(a, fam)
    assert pairing == {0: QQ.one, 1: QQ.of(-1)}
    assert not is_xi_grouplike(a, fam)
    # cross-check the defining identity by hand at x = 1 and x = h:
    # phi is the identity, so phi(G_x) = G_x must equal <G,e> G_{xi(e)x}
    assert a.phi(0, 1).apply(fam[0]) == tuple(QQ.mul(QQ.of(-1), c) for c in fam[1])


def test_pairing_bimultiplicative_on_enumerated_grouplikes():
    for build in (make_k_xi_z2, make_bichar_z2, make_rho_z2):
        a = build()
        E = a.E
        fams = enumerate_grouplikes(a.base)
        pairings = {f: grouplike_pairing(a, f) for f in fams}
        for f1 in fams:
            for f2 in fams:
                prod = grouplike_product(a.base, f1, f2)
                assert prod in pairings
                for e in E.elements():
                    assert pairings[prod][e] == a.field.mul(pairings[f1][e], pairings[f2][e])
        for f1 in fams:
            for e1 in E.elements():
                for e2 in E.elements():
                    assert pairings[f1][E.mul(e1, e2)] == a.field.mul(
                        pairings[f1][e1], pairings[f1][e2]
                    )


def test_xi_grouplikes_form_subgroup():
    for build in (make_k_xi_z2, make_bichar_z2):
        a = build()
        fams = enumerate_grouplikes(a.base)
        xi_fams = [f for f in fams if is_xi_grouplike(a, f)]
        for f1 in xi_fams:
            for f2 in xi_fams:
                assert grouplike_product(a.base, f1, f2) in xi_fams


def test_mk_trivial_shapes():
    a = make_k_h_z2()
    assert all(a.dim(x) == 1 for x in a.H.elements())
    assert all(a.phi(x, 0) == Matrix.identity(QQ, 1) for x in a.H.elements())
    s3 = make_k_xi_s3()
    assert s3.H.order == 6 and len(s3.base.components) == 6


def test_full_stack_nonabelian_label_group():
    # id: S3 -> S3 with conjugation: the label calculus e . (x > f) is
    # genuinely noncommutative here, so this exercises every index identity
    from xmhopf.groups import symmetric
    from xmhopf.hopfmod import (
        coinvariants,
        dual_hopf_module,
        integral_space,
        validate_hopf_xi_module,
    )

    a = mk_trivial(identity_cm(symmetric(3)), QQ)
    assert full_validation_report(a).ok
    assert len(integral_space(a, "left")) == 1
    right = integral_space(a, "right")
    assert len(right) == 1
    m = dual_hopf_module(a)
    assert validate_hopf_xi_module(a, m).ok
    coinv = [[v for comp in c for v in comp] for c in coinvariants(a, m)]
    image = [v for x in a.H.elements() for v in right[0][a.H.inv(x)]]
    assert len(coinv) == 1 and spans(QQ, coinv, image)


def failing(rep) -> dict:
    """{check name: (violations, first witness)} of the checks of `rep` that fail."""
    return {c.name: (c.violations, c.witnesses[0]) for c in rep.checks if not c.ok}


def test_broken_bicharacter_builds_and_fails_its_report():
    # omega = 2 breaks phi's unit and composition laws, and so unit preservation, which the
    # stack derives and the oracle checks; omega = 0 keeps composition (0 * 0 = 0) but not
    # the unit laws
    z2 = cyclic(2)
    unit_preservation = {"each phi_{x,e} preserves the unit": (2, "x=0 e=0")}
    twos = mk_bicharacter_group_algebra(QQ, z2, z2, lambda e, g: QQ.of(2))
    assert failing(full_validation_report(twos)) == {
        "regular Hopf module: (d) psi equivariance laws": (5, "unit law at x=0"),
    }
    assert failing(oracle_phi_preserves_unit(twos)) == unit_preservation
    zeros = mk_bicharacter_group_algebra(QQ, z2, z2, lambda e, g: QQ.zero)
    assert failing(full_validation_report(zeros)) == {
        "regular Hopf module: (d) psi equivariance laws": (1, "unit law at x=0"),
    }
    assert failing(oracle_phi_preserves_unit(zeros)) == unit_preservation


def test_bicharacter_structure_by_basis_expansion():
    # direct expansion on the basis {1, g}: Delta(1) = 1 (x) 1, Delta(g) = g (x) g,
    # eps = (1, 1), S swaps nothing since g = g^-1
    a = make_bichar_z2()
    one, zero = QQ.one, QQ.zero
    assert a.delta(0, 0).column(0) == (one, zero, zero, zero)
    assert a.delta(0, 0).column(1) == (zero, zero, zero, one)
    assert a.counit == Matrix.row(QQ, (one, one))
    assert a.S(0) == Matrix.identity(QQ, 2)
    assert a.phi(0, 1) == Matrix(QQ, [[one, zero], [zero, QQ.of(-1)]])


def test_bicharacter_trivial_omega_gives_trivial_action():
    z2 = cyclic(2)
    a = mk_bicharacter_group_algebra(QQ, z2, z2, lambda e, g: QQ.one)
    assert all(a.phi(0, e) == Matrix.identity(QQ, 2) for e in z2.elements())


def test_from_h_action_coproduct_hand_expansion():
    # Delta_{x,y} = (rho_x (x) rho_y) delta rho_{(xy)^-1}; on the grouplike
    # basis vector g the signs cancel: rho_h(g) = -g, delta(-g) = -(g (x) g),
    # and the final rho_x (x) rho_y contributes the opposite sign again,
    # so Delta_{x,y}(g) = g (x) g for all (x, y).
    a = make_rho_z2()
    gg = tuple(
        QQ.one if i == 3 else QQ.zero for i in range(4)
    )  # coordinates of g (x) g
    for x in (0, 1):
        for y in (0, 1):
            assert a.delta(x, y).column(1) == gg


def test_from_h_action_trivial_rho():
    cm = identity_cm(cyclic(2))
    kz2 = group_algebra(QQ, cyclic(2))
    rho = [Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)]
    a = mk_from_h_action(cm, kz2, rho)
    for x in (0, 1):
        for y in (0, 1):
            assert a.delta(x, y) == kz2.delta(0, 0)


def test_from_h_action_non_automorphism_fails_its_report():
    cm = identity_cm(cyclic(2))
    kz2 = group_algebra(QQ, cyclic(2))
    shear = Matrix(QQ, [[QQ.one, QQ.one], [QQ.zero, QQ.one]])  # g -> g + 1
    a = mk_from_h_action(cm, kz2, [Matrix.identity(QQ, 2), shear])
    fails = failing(full_validation_report(a))
    # rho_g is unital but not multiplicative: phi_{x,g} breaks composition first, the
    # twisted coproduct is neither coassociative nor counital at x = 1
    assert fails["regular Hopf module: (d) psi equivariance laws"] == (
        10, "composition at x=0 e=1 f=1")
    assert fails["regular Hopf module: (b) (M, rho) is a comodule"] == (
        7, "coassociativity at (x,y,z)=(0,0,1)")
    assert fails["graded bicoalgebra: right counit"] == (1, "x=1")
    assert oracle_phi_preserves_unit(a).ok


def test_from_h_action_non_homomorphism_fails_its_report():
    cm = identity_cm(cyclic(2))
    kz2 = group_algebra(QQ, cyclic(2))
    # each entry is an algebra automorphism, but rho(1) != id: phi_{x,1} = rho(1) breaks
    # phi's unit law, and the twisted coproduct its counit laws
    flip = sign_flip_rho(QQ)[1]
    a = mk_from_h_action(cm, kz2, [flip, Matrix.identity(QQ, 2)])
    fails = failing(full_validation_report(a))
    assert fails["regular Hopf module: (d) psi equivariance laws"] == (12, "unit law at x=0")
    assert fails["regular Hopf module: (b) (M, rho) is a comodule"] == (2, "counitality at x=0")
    assert oracle_phi_preserves_unit(a).ok


def test_from_pi_coalgebra_inflation_and_extraction():
    cm = inclusion(z3_in_s3())
    kic = kernel_image_cokernel(cm)
    b = mk_trivial(trivial_over(kic.cokernel), QQ).base
    a = mk_from_pi_coalgebra(cm, b)
    assert full_validation_report(a).ok
    assert all(a.dim(x) == 1 for x in a.H.elements())

    back = extract_pi_coalgebra(a)
    assert all(
        back.delta(c, d) == b.delta(c, d)
        for c in range(kic.cokernel.order)
        for d in range(kic.cokernel.order)
    )


def test_from_pi_coalgebra_identity_cm_constant_family():
    cm = identity_cm(cyclic(2))  # surjective, so the cokernel is trivial
    kic = kernel_image_cokernel(cm)
    assert kic.cokernel.order == 1
    b = group_algebra(QQ, cyclic(2))
    a = mk_from_pi_coalgebra(cm, b)
    for x in cm.H.elements():
        assert a.component(x).mul == b.components[0].mul
        for y in cm.H.elements():
            assert a.delta(x, y) == b.delta(0, 0)


def test_extraction_independent_of_section():
    cm = inclusion(z3_in_s3())
    kic = kernel_image_cokernel(cm)
    b = mk_trivial(trivial_over(kic.cokernel), QQ).base
    a = mk_from_pi_coalgebra(cm, b)
    default = extract_pi_coalgebra(a)
    # another section: pick different coset representatives
    other = []
    for c in range(kic.cokernel.order):
        reps = [x for x in cm.H.elements() if kic.projection[x] == c]
        other.append(reps[-1])
    alt = extract_pi_coalgebra(a, tuple(other))
    for c in range(kic.cokernel.order):
        for d in range(kic.cokernel.order):
            assert default.delta(c, d) == alt.delta(c, d)
        assert default.S(c) == alt.S(c)
        assert default.components[c].mul == alt.components[c].mul


def test_dualize_round_trip_everywhere():
    for build in ALL_EXAMPLES:
        a = build()
        b = dualize(a)
        assert validate_hopf_xi_algebra(b).ok
        back = dualize_algebra(b)
        for x in a.H.elements():
            assert back.component(x).mul == a.component(x).mul
            assert back.component(x).unit == a.component(x).unit
            assert back.S(x) == a.S(x)
            for y in a.H.elements():
                assert back.delta(x, y) == a.delta(x, y)
            for e in a.E.elements():
                assert back.phi(x, e) == a.phi(x, e)
        assert back.counit == a.counit


def test_dual_of_trivial_graded_algebra():
    # the dual of the componentwise-k graded algebra is again trivial
    a = make_k_xi_z2()
    b = dualize(a)
    assert all(b.dim(x) == 1 for x in b.H.elements())
    assert all(m == Matrix.identity(QQ, 1) for m in b.delta)
    back = dualize_algebra(b)
    assert all(back.delta(x, y) == Matrix.identity(QQ, 1) for x in (0, 1) for y in (0, 1))


def test_dual_algebra_mutation_witness():
    b = dualize(make_bichar_z2())
    mul = dict(b.mul)
    mul[(0, 0)] = bumped(mul[(0, 0)], 0, 0)
    mutated = HopfXiAlgebra(
        b.cm, b.field, b.dims, mul, b.unit, b.delta, b.eps, b.antipode, b.action
    )
    rep = validate_hopf_xi_algebra(mutated)
    assert not rep.ok
    # mu_{x,y} is the transpose of Delta_{x,y}, so the derived report names the coalgebra check:
    # Delta multiplicative is check (c) of the regular Hopf module
    failing = {c.name for c in rep.checks if not c.ok}
    assert "regular Hopf module: (c) action and coaction intertwine" in failing


# Sweedler's algebra (168 perturbations) is left out to keep the suite fast.
@pytest.mark.parametrize("name", ["mul", "unit", "delta", "eps", "antipode", "action"])
@pytest.mark.parametrize("build", ALL_EXAMPLES, ids=lambda build: build.__name__[5:])
def test_dual_validator_rejects_every_single_entry_perturbation(build, name):
    perturbed = list(perturbed_duals(dualize(build()), name))
    assert perturbed
    assert not any(validate_hopf_xi_algebra(p).ok for p in perturbed)


def test_nonabelian_action_pins_factor_order(conj_s3):
    # the label e(x > f) of the coproduct compatibility is not (x > f)e here; the two agree
    # where e = 1 or f = 1, the only cases oracle_action_laws and check (d) of a Hopf module
    # check, so the order is pinned on the full case set: that of the oracle, and the full
    # check (d) of the trivial Hopf module with V = k, whose coaction cases are those of the
    # oracle's compatibility check
    a = conj_s3
    E, cm = a.E, a.cm
    assert any(
        a.phi(x, E.mul(e, cm.act(x, g))) != a.phi(x, E.mul(cm.act(x, g), e))
        for x in a.H.elements() for e in E.elements() for g in E.elements()
    )
    assert oracle_action_laws(a).ok
    assert oracle_xi_action(a).ok
    assert not oracle_xi_action(a, lambda x, e, g: E.mul(cm.act(x, g), e)).ok
    m = trivial_hopf_module(a, 1)
    assert m.rho == a.base.coproduct and m.psi == a.action
    assert validate_hopf_xi_module(a, m).ok and oracle_hopf_xi_module(a, m).ok
