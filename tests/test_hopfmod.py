import pytest

from tests.conftest import (
    FIXTURES,
    GF5,
    QQ,
    fixture_structures,
    make_bichar_z2,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    make_sweedler,
    make_sweedler_z4,
    make_unequal_dims,
    spans,
)
from tests.oracles import (
    EXAMPLES,
    Tally,
    build,
    oracle_distinguished_grouplike,
    oracle_integral_report,
    reference_gate,
    swept_structures,
)
from xmhopf.docio import parse
from xmhopf.errors import NotIntegralError, NotInvertibleError, ShapeMismatchError
from xmhopf.hopfmod import (
    HopfXiModule,
    antipode_transport,
    coinvariants,
    distinguished_grouplike,
    dual_hopf_module,
    integral_report,
    integral_space,
    is_integral,
    structure_iso,
    trivial_hopf_module,
    validate_hopf_xi_module,
)
from xmhopf.linalg import Matrix
from xmhopf.report import Report
from xmhopf.xihopf import is_xi_grouplike

ALL = [make_k_xi_z2, make_bichar_z2, make_k_xi_s3, make_rho_z2]


def test_trivial_hopf_module_valid():
    for build in ALL:
        a = build()
        m = trivial_hopf_module(a, 1)
        assert validate_hopf_xi_module(a, m).ok


def test_trivial_hopf_module_over_nonabelian_action(conj_s3):
    # check (d) runs coaction compatibility where exactly one of e and f is 1, where
    # e(x > f) = (x > f)e; test_xihopf pins the factor order on the full case set
    assert validate_hopf_xi_module(conj_s3, trivial_hopf_module(conj_s3, 1)).ok


def test_trivial_hopf_module_zero_dim():
    a = make_k_xi_z2()
    m = trivial_hopf_module(a, 0)
    assert all(d == 0 for d in m.dims)
    assert validate_hopf_xi_module(a, m).ok
    assert coinvariants(a, m) == []


def test_dual_hopf_module_passes_validator(conj_s3):
    # the module axioms, and coinvariants that are exactly the right integrals reindexed
    # by lambda -> (lambda_{x^-1})
    examples = [(build.__name__, build())
                for build in ALL + [make_k_h_z2, make_sweedler, make_sweedler_z4]]
    examples += [("conj_s3", conj_s3)] + fixture_structures()
    for where, a in examples:
        f, H = a.field, a.H
        m = dual_hopf_module(a)
        assert validate_hopf_xi_module(a, m).ok, where
        assert m.dims == tuple(a.dim(H.inv(x)) for x in H.elements()), where
        coinv = [[v for comp in c for v in comp] for c in coinvariants(a, m)]
        right = integral_space(a, "right")
        assert len(coinv) == len(right) == 1, where
        image = [v for x in H.elements() for v in right[0][H.inv(x)]]
        assert any(v != f.zero for v in image) and spans(f, coinv, image), where


# per example and map: (perturbations, of which the dual module fails its axioms); no
# perturbation leaves A valid, so each one breaks the dual module too
ORACLE_COUNTS = {
    "k_xi_z2": {"delta": (4, 4), "phi": (4, 4), "S": (2, 2), "mu": (2, 2), "eps": (1, 1)},
    "k_h_z2": {"delta": (4, 4), "phi": (2, 2), "S": (2, 2), "mu": (2, 2), "eps": (1, 1)},
    "k_xi_s3": {"delta": (9, 9), "phi": (4, 4), "S": (2, 2), "mu": (1, 1), "eps": (1, 1)},
    "bichar_z2": {"delta": (8, 8), "phi": (8, 8), "S": (4, 4), "mu": (8, 8), "eps": (2, 2)},
    "rho_z2": {"delta": (32, 32), "phi": (16, 16), "S": (8, 8), "mu": (16, 16), "eps": (2, 2)},
    "sweedler": {"delta": (21, 21), "phi": (6, 6), "S": (5, 5), "mu": (21, 21), "eps": (2, 2)},
    "conj_s3": {"phi": (1, 1)},
    "sweedler_z4": {"delta": (3, 3), "phi": (1, 1), "mu": (1, 1)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_dual_hopf_module_checks_restate_the_structure_checks(name, make, field):
    # report validates A and solves its right integrals but not its dual Hopf module:
    # the coinvariant half of the gate agrees with the right integrals on every
    # perturbation, and where the module axioms fail, A's validator stack fails too
    a, swept = swept_structures(name)
    assert reference_gate(a, dual_hopf_module(a), integral_space(a, "right")) is None
    example = name.split()[0]
    counts = Tally()
    for kind, p, report_ok, right in swept:
        m = dual_hopf_module(p)
        assert reference_gate(p, m, right) is None, kind
        module_ok = validate_hopf_xi_module(p, m).ok
        if not module_ok:
            assert not report_ok, kind
        counts.add(kind, not module_ok)
    assert counts.counts() == ORACLE_COUNTS[example]


def test_mutated_psi_reports_axiom_d():
    a = make_bichar_z2()
    m = dual_hopf_module(a)
    psi = dict(m.psi)
    psi[(0, 1)] = Matrix.zeros(QQ, m.dim(0), m.dim(0))
    mutated = HopfXiModule(a, m.dims, m.r, m.rho, psi)
    rep = validate_hopf_xi_module(a, mutated)
    assert not rep.ok
    assert any(c.name.startswith("(d)") for c in rep.checks if not c.ok)


# the cases of check (d) by law: |H| unit law cases, |H|(|E| - 1)^2 composition,
# |H|(|E| - 1) action compatibility and 2|H|^2 (|E| - 1) coaction compatibility cases
CHECK_D_CASES = {
    "k_xi_s3": {"unit law": 6, "composition": 24, "action compatibility": 12,
                "coaction compatibility": 144},
    "k_h_z2": {"unit law": 2},
}


@pytest.mark.parametrize("make", [make_k_xi_s3, make_k_h_z2], ids=list(CHECK_D_CASES))
def test_check_d_draws_only_the_cases_the_unit_laws_leave_open(monkeypatch, make):
    counts = {}
    identity = Report.identity

    def counting(rep, name, cases):
        if name == "(d) psi equivariance laws":
            cases = list(cases)
            for _, _, kind, _ in cases:  # each law is one case kind, named after it
                law = kind.__name__.strip("_").replace("_", " ")
                counts[law] = counts.get(law, 0) + 1
        identity(rep, name, cases)

    monkeypatch.setattr(Report, "identity", counting)
    a = make()
    assert validate_hopf_xi_module(a, trivial_hopf_module(a, 2)).ok
    assert counts == CHECK_D_CASES[make.__name__[5:]]


def test_coinvariants_of_trivial_modules():
    a = make_k_xi_z2()
    for v_dim in (1, 3):
        m = trivial_hopf_module(a, v_dim)
        basis = coinvariants(a, m)
        assert len(basis) == v_dim
        # the explicit coinvariants (1_x (x) v_i) span the solution space
        f = a.field
        for i in range(v_dim):
            family = tuple(
                tuple(
                    f.mul(a.component(x).unit[p // v_dim], f.one if p % v_dim == i else f.zero)
                    for p in range(a.dim(x) * v_dim)
                )
                for x in a.H.elements()
            )
            flat = [v for comp in family for v in comp]
            cols = Matrix(
                f,
                [[b[x][k] for b in basis] for x in a.H.elements() for k in range(m.dim(x))],
                len(flat),
                len(basis),
            )
            assert cols.solve(tuple(flat)) is not None

    b = make_bichar_z2()
    assert len(coinvariants(b, trivial_hopf_module(b, 2))) == 2


def test_coinvariants_shrink_under_mutation():
    a = make_bichar_z2()
    m = trivial_hopf_module(a, 1)
    before = len(coinvariants(a, m))
    psi = dict(m.psi)
    psi[(0, 1)] = Matrix.zeros(QQ, m.dim(0), m.dim(0))
    mutated = HopfXiModule(a, m.dims, m.r, m.rho, psi)
    after = len(coinvariants(a, mutated))
    assert after < before


def test_structure_iso_trivial_module():
    a = make_k_xi_z2()
    m = trivial_hopf_module(a, 1)
    coinv = coinvariants(a, m)
    eps, nu = structure_iso(a, m, coinv)
    assert len(coinv) == 1
    for x in a.H.elements():
        ident = Matrix.identity(QQ, eps[x].rows)
        assert eps[x] == ident or eps[x] @ nu[x] == ident


def test_structure_iso_dual_modules():
    for build in ALL:
        a = build()
        m = dual_hopf_module(a)
        coinv = coinvariants(a, m)
        eps, nu = structure_iso(a, m, coinv)
        assert len(coinv) == 1
        f = a.field
        for x in a.H.elements():
            assert (eps[x] @ nu[x]) == Matrix.identity(f, m.dim(x))
            assert (nu[x] @ eps[x]) == Matrix.identity(f, a.dim(x) * len(coinv))


def test_structure_iso_witnesses_pi_outside_the_coinvariants():
    # mut03_antipode.json breaks one antipode entry of k_xi_z2; its dual Hopf module still
    # passes the module axioms, but pi does not land in its coinvariants
    doc = parse((FIXTURES / "mutations" / "mut03_antipode.json").read_bytes())
    a, (_, m) = doc.hopf["k_xi_z2"], doc.hopf_modules["dual_mod"]
    assert validate_hopf_xi_module(a, m).ok
    coinv = coinvariants(a, m)
    with pytest.raises(NotInvertibleError, match="^pi does not land in the coinvariants$"):
        structure_iso(a, m, coinv)


def test_integral_dimensions_are_one():
    for build in ALL:
        for field in (QQ, GF5):
            a = build(field)
            for side in ("left", "right"):
                assert len(integral_space(a, side)) == 1


def test_integral_basis_satisfies_pointwise_checker():
    # is_integral evaluates the rows the kernel computation eliminates; the oracle checks the
    # defining identities as products instead
    for build in ALL:
        a = build()
        for side in ("left", "right"):
            for lam in integral_space(a, side):
                assert is_integral(a, lam, side)
                assert oracle_integral_report(a, lam, side).ok


def integral_candidates(a):
    """The basis integrals of both sides, each also with 1 added to one entry, every entry."""
    f = a.field
    for side in ("left", "right"):
        for lam in integral_space(a, side):
            yield lam
            for x in a.H.elements():
                for i in range(a.dim(x)):
                    comp = list(lam[x])
                    comp[i] = f.add(comp[i], f.one)
                    yield lam[:x] + (tuple(comp),) + lam[x + 1:]


def test_integral_predicate_agrees_with_report():
    # the basis integrals and every single-entry perturbation of them, on both sides
    verdicts = set()
    for label, a in fixture_structures():
        for fam in integral_candidates(a):
            for checked in ("left", "right"):
                verdict = is_integral(a, fam, checked)
                assert verdict == integral_report(a, fam, checked).ok, (label, fam)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_integral_report_matches_its_product_identity_oracle():
    # integral_report evaluates the rows that integral_space eliminates, so its agreement
    # with is_integral above shows nothing about those rows; the oracle states each
    # condition as a product identity.  make_unequal_dims has dim A_x varying with x, which
    # a flip with two A-dimensions swapped needs to show.
    structures = fixture_structures() + [(label, build(make, field)) for label, make, field
                                         in EXAMPLES]
    structures += [(f"unequal_dims over {f!r}", make_unequal_dims(f)) for f in (QQ, GF5)]
    failing = set()
    for label, a in structures:
        for fam in integral_candidates(a):
            for side in ("left", "right"):
                got = integral_report(a, fam, side)
                assert got == oracle_integral_report(a, fam, side), (label, side, fam)
                failing.update((a.field, c.name) for c in got.checks if not c.ok)
    assert failing == {(f, name) for f in (QQ, GF5)
                       for name in ("coproduct condition", "action invariance")}


def test_integral_report_raises_on_a_wrong_shape():
    # docio checks a document's families; a library caller gets the error, not a check
    for _, a in fixture_structures():
        (lam,) = integral_space(a, "left")
        short = lam[:-1] + (lam[-1][:-1],)
        for fam in ((), short):
            for side in ("left", "right"):
                with pytest.raises(ShapeMismatchError):
                    integral_report(a, fam, side)
                with pytest.raises(ShapeMismatchError):
                    is_integral(a, fam, side)


def test_integral_bichar_is_delta_at_identity():
    a = make_bichar_z2()
    (lam,) = integral_space(a, "left")
    assert lam == (((QQ.one, QQ.zero)),)
    (lam_r,) = integral_space(a, "right")
    assert lam_r == lam


def test_integral_trivial_structure_is_constant_family():
    a = make_k_xi_z2()
    (lam,) = integral_space(a, "left")
    assert lam == ((QQ.one,), (QQ.one,))


def test_nonzero_integral_is_nonzero_on_every_component():
    for build in ALL:
        a = build()
        for side in ("left", "right"):
            for lam in integral_space(a, side):
                for x in a.H.elements():
                    assert any(v != a.field.zero for v in lam[x])


def test_antipode_transport():
    a = make_k_xi_z2()
    (lam,) = integral_space(a, "left")
    assert antipode_transport(a, lam) == lam  # S is the identity here

    b = make_bichar_z2()
    (lam_b,) = integral_space(b, "left")
    assert antipode_transport(b, lam_b) == lam_b  # S permutes the basis fixing 1

    c = make_rho_z2()
    (lam_c,) = integral_space(c, "left")
    out = antipode_transport(c, lam_c)
    assert is_integral(c, out, "right")

    with pytest.raises(NotIntegralError):
        antipode_transport(a, ((QQ.one,), (QQ.zero,)))


def test_transport_is_injective():
    # a nonzero left integral transports to a nonzero right integral
    for build in ALL:
        a = build()
        (lam,) = integral_space(a, "left")
        out = antipode_transport(a, lam)
        assert any(v != a.field.zero for comp in out for v in comp)


def test_distinguished_grouplike_unimodular_examples():
    for build in ALL:
        for field in (QQ, GF5):
            a = build(field)
            g = distinguished_grouplike(a, integral_space(a, "right"))
            assert g == tuple(a.component(x).unit for x in a.H.elements())
            assert is_xi_grouplike(a, g)


def test_distinguished_grouplike_classical_identity():
    # at the identity component the defining identity is the classical one:
    # (id (x) lambda) Delta_{1,1} = g_1 lambda_1
    for build in (make_bichar_z2, make_rho_z2):
        a = build()
        (lam,) = integral_space(a, "right")
        g = distinguished_grouplike(a, [lam])
        f = a.field
        one = a.H.identity
        lhs = Matrix.identity(f, a.dim(one)).kron(Matrix.row(f, lam[one])) @ a.delta(one, one)
        rhs = Matrix.col(f, g[one]) @ Matrix.row(f, lam[one])
        assert lhs == rhs


def test_distinguished_grouplike_unique_as_linear_solution():
    # treat the family (g_x) as unknowns: the defining identity pins it
    for build in (make_k_xi_z2, make_bichar_z2):
        a = build()
        (lam,) = integral_space(a, "right")
        f, H = a.field, a.H
        g = distinguished_grouplike(a, [lam])
        for x in H.elements():
            rows = []
            rhs_entries = []
            w = {}
            for y in H.elements():
                xy = H.mul(x, y)
                lhs = Matrix.identity(f, a.dim(x)).kron(Matrix.row(f, lam[y])) @ a.delta(x, y)
                for i in range(a.dim(x)):
                    for j in range(a.dim(xy)):
                        row = [f.zero] * a.dim(x)
                        row[i] = lam[xy][j]
                        rows.append(row)
                        rhs_entries.append(lhs[i, j])
            system = Matrix(f, rows, len(rows), a.dim(x))
            solved = system.solve(tuple(rhs_entries))
            assert solved is not None
            sol, unique = solved
            assert unique and sol == g[x]


# per example and map: (perturbations, of which distinguished_grouplike raises, of which
# the defining identity fails, g is not grouplike, g is not action-invariant); the same
# over Q and GF(5)
GROUPLIKE_COUNTS = {
    "k_xi_z2": {"delta": (4, 4, 0, 0, 0), "phi": (4, 4, 0, 0, 0), "S": (2, 0, 0, 0, 0),
                "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 1)},
    "k_h_z2": {"delta": (4, 4, 0, 0, 0), "phi": (2, 2, 0, 0, 0), "S": (2, 0, 0, 0, 0),
               "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 1)},
    "k_xi_s3": {"delta": (9, 9, 0, 0, 0), "phi": (4, 4, 0, 0, 0), "S": (2, 0, 0, 0, 0),
                "mu": (1, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 1)},
    "bichar_z2": {"delta": (8, 4, 1, 2, 2), "phi": (8, 4, 0, 0, 2), "S": (4, 0, 0, 0, 0),
                  "mu": (8, 0, 0, 0, 0), "eps": (2, 0, 0, 1, 1)},
    "rho_z2": {"delta": (32, 16, 8, 8, 8), "phi": (16, 8, 0, 0, 4), "S": (8, 0, 0, 0, 0),
               "mu": (16, 0, 0, 0, 0), "eps": (2, 0, 0, 1, 1)},
    "sweedler": {"delta": (21, 4, 4, 5, 5), "phi": (6, 2, 0, 0, 1), "S": (5, 0, 0, 0, 0),
                 "mu": (21, 0, 0, 0, 0), "eps": (2, 0, 0, 0, 0)},
    "conj_s3": {"phi": (1, 0, 0, 0, 0)},
    "sweedler_z4": {"delta": (3, 0, 0, 0, 0), "phi": (1, 0, 0, 0, 0), "mu": (1, 0, 0, 0, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_report_fails_wherever_the_distinguished_grouplike_oracle_fails(name, make, field):
    # distinguished_grouplike checks only what computing g needs; its docstring derives
    # the defining identity, grouplikeness and action invariance from A's axioms
    a, swept = swept_structures(name)
    assert oracle_distinguished_grouplike(a, integral_space(a, "right")).ok
    counts = Tally()
    for kind, p, report_ok, right in swept:
        oracle = oracle_distinguished_grouplike(p, right)
        if oracle is None:
            counts.add(kind, True, False, False, False)
            continue
        if not oracle.ok:
            assert not report_ok, kind
        counts.add(kind, False, *(not check.ok for check in oracle.checks))
    assert counts.counts() == GROUPLIKE_COUNTS[name.split()[0]]


def test_dual_module_coinvariants_match_right_integrals():
    for build in ALL:
        a = build()
        m = dual_hopf_module(a)
        coinv = coinvariants(a, m)
        integrals = integral_space(a, "right")
        assert len(coinv) == len(integrals) == 1
        lam = integrals[0]
        image = tuple(lam[a.H.inv(x)] for x in a.H.elements())
        # the reindexed integral must span the same line
        f = a.field
        flat_c = [v for comp in coinv[0] for v in comp]
        flat_i = [v for comp in image for v in comp]
        ratio = None
        for ci, ii in zip(flat_c, flat_i):
            if ci == f.zero and ii == f.zero:
                continue
            assert ci != f.zero and ii != f.zero
            r = f.mul(ii, f.inv(ci))
            assert ratio is None or r == ratio
            ratio = r
        assert ratio is not None
