import itertools

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
)
from tests.oracles import bumped, oracle_antipode_properties, oracle_bicoalgebra, oracle_h_coalgebra
from xmhopf import hopf
from xmhopf.crossed import identity_cm
from xmhopf.errors import (
    MissingAntipodeError,
    NotGrouplikeError,
    SearchBudgetError,
    ShapeMismatchError,
)
from xmhopf.groups import cyclic
from xmhopf.hopf import (
    ComponentAlgebra,
    GradedHopfCoalgebra,
    antipode_solve_details,
    classical_hopf,
    component_hopf_at_identity,
    compute_antipode,
    enumerate_grouplikes,
    group_algebra,
    grouplike_inverse,
    grouplike_product,
    grouplike_report,
    is_grouplike,
    is_pivotal_element,
    validate_antipode,
    validate_bicoalgebra,
)
from xmhopf.linalg import Matrix
from xmhopf.xihopf import mk_trivial


def with_delta(a: GradedHopfCoalgebra, key, matrix) -> GradedHopfCoalgebra:
    cop = dict(a.coproduct)
    cop[key] = matrix
    return GradedHopfCoalgebra(a.field, a.H, a.components, cop, a.counit, a.antipode)


def divided_power_algebra():
    """k[x]/(x^2) with primitive x: Delta(x) = x (x) 1 + 1 (x) x, eps(x) = 0."""
    f = QQ
    c = [
        [[f.one, f.zero], [f.zero, f.one]],
        [[f.zero, f.one], [f.zero, f.zero]],
    ]
    alg = ComponentAlgebra.from_structure_constants(f, c, (f.one, f.zero))
    delta = Matrix(f, [[f.one, f.zero], [f.zero, f.one], [f.zero, f.one], [f.zero, f.zero]])
    counit = Matrix.row(f, (f.one, f.zero))
    return classical_hopf(f, alg, delta, counit)


def test_a_component_builds_its_unit_column_once():
    f = QQ
    c = [[[f.one, f.zero], [f.zero, f.one]], [[f.zero, f.one], [f.one, f.zero]]]
    alg, twin = (ComponentAlgebra.from_structure_constants(f, c, (f.one, f.zero)) for _ in "ab")
    col = alg.unit_col()
    assert col is alg.unit_col() and col == Matrix.col(f, (f.one, f.zero))
    # the kept column is no field: not compared, hashed, printed or given to the constructor
    assert alg == twin and hash(alg) == hash(twin) and repr(alg) == repr(twin)
    assert ComponentAlgebra(f, alg.dim, alg.mul, alg.unit) == alg
    with pytest.raises(TypeError, match="takes the fields field, dim, mul, unit$"):
        ComponentAlgebra(f, alg.dim, alg.mul, alg.unit, col)


def test_trivial_family_is_coalgebra():
    a = make_k_h_z2().base
    assert oracle_h_coalgebra(a).ok
    assert oracle_bicoalgebra(a).ok


def test_group_algebra_is_coalgebra():
    a = group_algebra(QQ, cyclic(2))
    assert oracle_h_coalgebra(a).ok
    assert oracle_bicoalgebra(a).ok


def test_perturbed_coproduct_reports_coassociativity():
    a = group_algebra(QQ, cyclic(2))
    rep = oracle_h_coalgebra(with_delta(a, (0, 0), bumped(a.delta(0, 0), 0, 1)))
    assert not rep.ok
    assert any(c.name == "coassociativity" for c in rep.checks if not c.ok)


def test_scaled_coproduct_fails_unit_preservation():
    a = make_k_h_z2().base
    rep = validate_bicoalgebra(with_delta(a, (0, 1), Matrix(QQ, [[QQ.of(2)]])))
    assert not rep.ok
    assert any("unit" in c.name for c in rep.checks if not c.ok)


def test_antipode_group_algebra_z2():
    # g = g^-1, so S is the identity matrix on the basis {1, g}
    a = group_algebra(QQ, cyclic(2))
    s = compute_antipode(a)
    assert s is not None and s[0] == Matrix.identity(QQ, 2)


def test_antipode_trivial_family():
    a = make_k_h_z2().base
    s = compute_antipode(a)
    assert s is not None
    assert all(m == Matrix.identity(QQ, 1) for m in s)


def test_antipode_divided_power_hand_oracle():
    # by hand: S(1) = 1 and S(x) + x = eps(x) 1 = 0, so S(x) = -x.
    # Over Q the coproduct is not multiplicative (Delta(x)^2 = 2 x (x) x != 0),
    # so only the convolution system itself is exercised here; over GF(2) the
    # same data is an honest bicoalgebra.
    a = divided_power_algebra()
    s = compute_antipode(a)
    assert s is not None
    assert s[0] == Matrix(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.of(-1)]])

    gf2 = __import__("xmhopf").Field.prime(2)
    c = [
        [[gf2.one, gf2.zero], [gf2.zero, gf2.one]],
        [[gf2.zero, gf2.one], [gf2.zero, gf2.zero]],
    ]
    alg2 = ComponentAlgebra.from_structure_constants(gf2, c, (gf2.one, gf2.zero))
    delta2 = Matrix(gf2, [[1, 0], [0, 1], [0, 1], [0, 0]])
    a2 = classical_hopf(gf2, alg2, delta2, Matrix.row(gf2, (1, 0)))
    assert oracle_bicoalgebra(a2).ok
    s2 = compute_antipode(a2)
    assert s2 is not None and s2[0] == Matrix.identity(gf2, 2)


def test_antipode_solution_is_unique():
    for a in (group_algebra(QQ, cyclic(2)), divided_power_algebra(), make_k_h_z2().base):
        for x in a.H.elements():
            s, unique = antipode_solve_details(a, x)
            assert s is not None and unique


def test_antipode_validators_pass_on_computed_output():
    for a in (group_algebra(QQ, cyclic(3)), divided_power_algebra(), make_k_h_z2().base):
        s = compute_antipode(a)
        b = a.with_antipode(s)
        assert validate_antipode(b).ok
        assert oracle_antipode_properties(b).ok


def test_missing_antipode_raises():
    a = divided_power_algebra()
    with pytest.raises(MissingAntipodeError):
        validate_antipode(a)


def test_no_antipode_when_not_hopf():
    # the 2-dimensional bicoalgebra with Delta(e_i) = e_i (x) e_i and
    # eps = (1, 1) over the *monoid* algebra where the second idempotent
    # absorbs: e1 has no convolution inverse
    f = QQ
    c = [
        [[f.one, f.zero], [f.zero, f.one]],
        [[f.zero, f.one], [f.zero, f.one]],
    ]
    alg = ComponentAlgebra.from_structure_constants(f, c, (f.one, f.zero))
    delta = Matrix(f, [[f.one, f.zero], [f.zero, f.zero], [f.zero, f.zero], [f.zero, f.one]])
    counit = Matrix.row(f, (f.one, f.one))
    a = classical_hopf(f, alg, delta, counit)
    assert oracle_bicoalgebra(a).ok
    assert compute_antipode(a) is None


def test_no_antipode_when_only_the_left_identity_solves():
    # k[x]/(x^2) with Delta(1) = 1 (x) 1 and Delta(x) = x (x) 1: the left identity
    # forces S(1) = 1 and S(x) = 0, and then mu (id (x) S) Delta(x) = x != eps(x) 1
    f = QQ
    c = [
        [[f.one, f.zero], [f.zero, f.one]],
        [[f.zero, f.one], [f.zero, f.zero]],
    ]
    alg = ComponentAlgebra.from_structure_constants(f, c, (f.one, f.zero))
    delta = Matrix(f, [[f.one, f.zero], [f.zero, f.zero], [f.zero, f.one], [f.zero, f.zero]])
    a = classical_hopf(f, alg, delta, Matrix.row(f, (f.one, f.zero)))
    s, unique = antipode_solve_details(a, 0)
    assert unique and s == Matrix(f, [[f.one, f.zero], [f.zero, f.zero]])
    rep = validate_antipode(a.with_antipode((s,)))
    failed = {c.name for c in rep.checks if not c.ok}
    assert failed == {"right identity mu (id (x) S) Delta = eta eps", "bijectivity"}
    assert compute_antipode(a) is None


def test_grouplike_families_trivial_structure():
    a = make_k_h_z2().base
    one = QQ.one
    unit_family = ((one,), (one,))
    sign_family = ((one,), (QQ.of(-1),))
    zero_family = ((one,), (QQ.zero,))
    assert is_grouplike(a, unit_family)
    assert is_grouplike(a, sign_family)
    assert not is_grouplike(a, zero_family)
    assert grouplike_inverse(a, unit_family) == unit_family
    assert grouplike_inverse(a, sign_family) == sign_family
    with pytest.raises(NotGrouplikeError):
        grouplike_inverse(a, zero_family)
    assert enumerate_grouplikes(a) == [unit_family, sign_family]


def test_grouplike_report_witnesses():
    a = make_k_h_z2().base
    rep = grouplike_report(a, ((QQ.one,), (QQ.zero,)))
    assert not rep.ok


def sign_basis_families(a):
    """Every family with one +-basis vector per component: the grouplike search space.

    Components are taken in index order, each trying e_0, -e_0, e_1, -e_1, ...
    """
    f = a.field
    per_component = []
    for x in a.H.elements():
        d = a.dim(x)
        cands = []
        for i in range(d):
            v = tuple(f.one if j == i else f.zero for j in range(d))
            cands.extend(dict.fromkeys((v, tuple(f.neg(c) for c in v))))
        per_component.append(cands)
    return itertools.product(*per_component)


def naive_grouplikes(a):
    """The exhaustive search that enumerate_grouplikes replaced: test every candidate."""
    return [fam for fam in sign_basis_families(a) if is_grouplike(a, fam)]


def test_grouplike_predicate_agrees_with_report():
    for label, a in fixture_structures():
        verdicts = set()
        for fam in sign_basis_families(a.base):
            verdict = is_grouplike(a.base, fam)
            assert verdict == grouplike_report(a.base, fam).ok, (label, fam)
            verdicts.add(verdict)
        assert verdicts == {True, False}, label


def test_grouplike_report_raises_on_a_wrong_shape():
    # docio checks a document's families; a library caller gets the error, not a check
    for _, a in fixture_structures():
        unit = tuple(a.base.components[x].unit for x in a.H.elements())
        short = unit[:-1] + (unit[-1][:-1],)
        for fam in ((), short):
            with pytest.raises(ShapeMismatchError):
                grouplike_report(a.base, fam)
            with pytest.raises(ShapeMismatchError):
                is_grouplike(a.base, fam)


def test_a_family_given_as_lists_is_read_as_the_same_tuples():
    # a family's entries are case operands, which Report.identity keys by value
    for label, a in fixture_structures():
        b = a.base
        grouplikes = enumerate_grouplikes(b)
        for fam in [*grouplikes, *itertools.islice(sign_basis_families(b), 4)]:
            listed = [list(v) for v in fam]
            assert grouplike_report(b, listed) == grouplike_report(b, fam), (label, fam)
            assert is_grouplike(b, listed) == is_grouplike(b, fam)
        for fam in grouplikes:
            listed = [list(v) for v in fam]
            assert grouplike_inverse(b, listed) == grouplike_inverse(b, fam)
            assert is_pivotal_element(b, listed) == is_pivotal_element(b, fam), (label, fam)


def test_group_algebra_grouplikes_are_group_elements():
    a = group_algebra(QQ, cyclic(2))
    fams = enumerate_grouplikes(a)
    assert [f[0] for f in fams] == [(QQ.one, QQ.zero), (QQ.zero, QQ.one)]


def test_grouplikes_closed_under_product_and_inverse():
    for a in (make_k_h_z2().base, group_algebra(QQ, cyclic(3)), make_bichar_z2().base):
        fams = enumerate_grouplikes(a)
        assert fams
        for g1 in fams:
            assert grouplike_inverse(a, g1) in fams
            for g2 in fams:
                assert grouplike_product(a, g1, g2) in fams


def test_pivotal_elements():
    a = make_k_h_z2().base
    one = QQ.one
    assert is_pivotal_element(a, ((one,), (one,))).ok
    assert is_pivotal_element(a, ((one,), (QQ.of(-1),))).ok
    b = group_algebra(QQ, cyclic(2))
    assert is_pivotal_element(b, ((one, QQ.zero),)).ok
    with pytest.raises(NotGrouplikeError):
        is_pivotal_element(a, ((one,), (QQ.zero,)))


def test_identity_component_is_classical_hopf_algebra():
    for a in (make_k_h_z2(), make_bichar_z2()):
        h1 = component_hopf_at_identity(a.base)
        assert oracle_h_coalgebra(h1).ok
        assert oracle_bicoalgebra(h1).ok
        assert validate_antipode(h1).ok
        assert oracle_antipode_properties(h1).ok


# every conftest example but conj_s3, whose 12^6 candidate families the oracle cannot try
EXAMPLES = [make_k_xi_z2, make_k_h_z2, make_k_xi_s3, make_bichar_z2, make_rho_z2, make_sweedler]


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF5"])
@pytest.mark.parametrize("make", EXAMPLES, ids=[m.__name__ for m in EXAMPLES])
def test_grouplike_search_matches_exhaustive_oracle(make, field):
    a = make(field).base
    assert enumerate_grouplikes(a) == naive_grouplikes(a)


def mutated_structures():
    """(file:name, structure) for every Hopf structure in the shipped mutation documents."""
    from xmhopf.docio import parse

    for path in sorted((FIXTURES / "mutations").glob("mut*.json")):
        doc = parse(path.read_bytes())
        yield from ((f"{path.name}:{name}", a) for name, a in sorted(doc.hopf.items()))


def test_grouplike_search_matches_oracle_on_fixtures_and_mutations():
    for label, a in [*fixture_structures(), *mutated_structures()]:
        assert enumerate_grouplikes(a.base) == naive_grouplikes(a.base), label


def test_grouplike_search_prunes_every_failing_family(monkeypatch):
    # pruning decides every condition, so the final is_grouplike only confirms: a
    # counit that fails while every coproduct condition holds (mut02) must be pruned too
    calls = []
    original = hopf.is_grouplike

    def counting(a, fam):
        calls.append(original(a, fam))
        return calls[-1]

    monkeypatch.setattr(hopf, "is_grouplike", counting)
    for label, a in [*fixture_structures(), *mutated_structures()]:
        calls.clear()
        found = enumerate_grouplikes(a.base)
        assert calls == [True] * len(found), label


def test_grouplike_search_is_linear_on_the_trivial_structure(monkeypatch):
    # the exhaustive search tried 2^16 families here; pruning makes 60 visits
    a = mk_trivial(identity_cm(cyclic(16)), QQ).base
    monkeypatch.setattr(hopf, "GROUPLIKE_VISIT_BUDGET", 4 * 16)
    assert enumerate_grouplikes(a) == [
        tuple((QQ.one,) for x in range(16)),
        tuple((QQ.one if x % 2 == 0 else QQ.of(-1),) for x in range(16)),
    ]


def test_grouplike_search_over_budget_raises(monkeypatch):
    monkeypatch.setattr(hopf, "GROUPLIKE_VISIT_BUDGET", 3)
    with pytest.raises(SearchBudgetError, match="more than 3 partial families"):
        enumerate_grouplikes(mk_trivial(identity_cm(cyclic(16)), QQ).base)
