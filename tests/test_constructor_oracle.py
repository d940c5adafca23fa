"""The law checks that the directive constructors no longer run, kept as oracles.

A constructor checks only what its construction needs; each law of its data restates an
axiom of the result, which `full_validation_report` (or `validate_crossed_module`) checks
with witnesses.  The oracles, in tests/oracles.py, are the checks the constructors ran
before:
- `oracle_bicharacter`: omega nonzero, multiplicative in E and in G, omega(1,.) = 1 and
  omega(.,1) = 1 (mk_bicharacter_group_algebra);
- `oracle_h_action`: each rho_x an algebra automorphism of A (invertible, multiplicative,
  unital) and rho a homomorphism, rho(1) = id (mk_from_h_action);
- `oracle_abelian`: E abelian (abelian_to_point).

The bicharacter laws are exactly the axioms of k^omega[G], so the report fails exactly
where the oracle does.  The rho laws are sufficient for the twisted structure's action
laws, not necessary: wherever the oracle passes, the report passes, and a rho that fails
it may still give a valid structure (a character of H times id, over 1 -> H).  For E -> 1
the Peiffer identity is abelianness.
"""

import itertools

import pytest

from tests.conftest import (
    GF5,
    QQ,
    conjugation_rho,
    make_sweedler,
    sign_bicharacter,
    sign_flip_rho,
    sweedler_rho,
)
from tests.oracles import (
    bumped,
    oracle_abelian,
    oracle_bicharacter,
    oracle_h_action,
    perturbed_scalar_tables,
)
from xmhopf.crossed import abelian_to_point, identity_cm, trivial_over, validate_crossed_module
from xmhopf.groups import cyclic, direct_product, symmetric
from xmhopf.hopf import group_algebra
from xmhopf.linalg import Field, Matrix
from xmhopf.xihopf import full_validation_report, mk_bicharacter_group_algebra, mk_from_h_action


def power_bicharacter(f: Field, n: int, m: int, root: int):
    """omega(e, g) = root^(e g) on Z/n x Z/m; a bicharacter when root^n = root^m = 1."""
    return [[f.of(root ** (e * g)) for g in range(m)] for e in range(n)]


GF3 = Field.prime(3)
# (name, field, |E|, |G|, a bicharacter table on Z/|E| x Z/|G|)
BICHARACTERS = [
    ("sign Z/2 x Z/2 over Q", QQ, 2, 2,
     [[sign_bicharacter(QQ)(e, g) for g in range(2)] for e in range(2)]),
    ("sign Z/2 x Z/2 over GF(5)", GF5, 2, 2,
     [[sign_bicharacter(GF5)(e, g) for g in range(2)] for e in range(2)]),
    ("(-1)^(eg) on Z/2 x Z/4 over Q", QQ, 2, 4, power_bicharacter(QQ, 2, 4, -1)),
    ("2^(eg) on Z/4 x Z/4 over GF(5)", GF5, 4, 4, power_bicharacter(GF5, 4, 4, 2)),
]


@pytest.mark.parametrize("name, f, n, m, table", BICHARACTERS, ids=[b[0] for b in BICHARACTERS])
def test_report_fails_exactly_where_the_bicharacter_oracle_fails(name, f, n, m, table):
    e_group, g_group = cyclic(n), cyclic(m)
    tables = [table, *perturbed_scalar_tables(f, table)]
    verdicts = [
        (oracle_bicharacter(f, e_group, g_group, t).ok,
         full_validation_report(mk_bicharacter_group_algebra(f, e_group, g_group, t)).ok)
        for t in tables
    ]
    assert all(oracle == report for oracle, report in verdicts)
    # no single-entry change of a bicharacter is one: only the unperturbed table passes
    assert verdicts[0] == (True, True)
    assert (len(verdicts), sum(ok for ok, _ in verdicts)) == (1 + 2 * n * m, 1)


def test_report_fails_exactly_where_the_bicharacter_oracle_fails_on_every_table():
    # every omega on Z/2 x Z/2 over GF(3), zeros included: the two with omega(1,g) = 1,
    # omega(e,1) = 1 and omega(1,1) = +-1 are the bicharacters
    z2 = cyclic(2)
    passing = []
    for values in itertools.product(range(3), repeat=4):
        t = [[GF3.of(values[0]), GF3.of(values[1])], [GF3.of(values[2]), GF3.of(values[3])]]
        oracle = oracle_bicharacter(GF3, z2, z2, t).ok
        assert full_validation_report(mk_bicharacter_group_algebra(GF3, z2, z2, t)).ok == oracle
        if oracle:
            passing.append(values)
    assert passing == [(1, 1, 1, 1), (1, 1, 1, 2)]


def twisted_examples():
    """(name, crossed module, classical Hopf algebra, rho, stride) for the conftest examples."""
    z2, s3 = cyclic(2), symmetric(3)
    yield "rho_z2 over Q", identity_cm(z2), group_algebra(QQ, z2), sign_flip_rho(QQ), 1
    yield "rho_z2 over GF(5)", identity_cm(z2), group_algebra(GF5, z2), sign_flip_rho(GF5), 1
    yield ("sweedler_z4", identity_cm(cyclic(4)), make_sweedler(GF5).base,
           [sweedler_rho(k) for k in range(4)], 4)
    # a report on conj_s3 costs about 0.3 s, so only every 54th of its 216 entries
    yield ("conj_s3", identity_cm(s3), group_algebra(GF5, s3), conjugation_rho(GF5, s3), 54)


# per example: (perturbations, of which the oracle passes, of which the report passes)
RHO_COUNTS = {"rho_z2 over Q": (8, 0, 0), "rho_z2 over GF(5)": (8, 0, 0),
              "sweedler_z4": (16, 0, 0), "conj_s3": (4, 0, 0)}


@pytest.mark.parametrize("name, cm, classical, rho, stride", list(twisted_examples()),
                         ids=list(RHO_COUNTS))
def test_report_passes_wherever_the_h_action_oracle_passes(name, cm, classical, rho, stride):
    assert oracle_h_action(classical, cm.H, rho).ok
    assert full_validation_report(mk_from_h_action(cm, classical, rho)).ok
    dim = classical.dim(0)
    entries = [(x, i, j) for x in cm.H.elements() for i in range(dim) for j in range(dim)]
    oracle_passes = report_passes = 0
    refused_but_valid = []
    for x, i, j in entries[stride // 2::stride]:
        perturbed = list(rho)
        perturbed[x] = bumped(rho[x], i, j)
        oracle = oracle_h_action(classical, cm.H, perturbed).ok
        report = full_validation_report(mk_from_h_action(cm, classical, perturbed)).ok
        assert report or not oracle, (x, i, j)
        oracle_passes += oracle
        report_passes += report
        if report and not oracle:
            refused_but_valid.append((x, i, j))
    assert (len(entries[stride // 2::stride]), oracle_passes, report_passes) == RHO_COUNTS[name]
    # no +1 perturbation fails the oracle and still gives a valid structure
    assert refused_but_valid == []


def test_a_rho_that_fails_the_oracle_can_give_a_valid_structure():
    # over 1 -> Z/2, rho = (id, -id) is a homomorphism into GL(k[Z/2]) but rho(g) is not
    # unital.  The action is rho(1) = id, and the twisted coproduct
    # (rho_x (x) rho_y) delta rho_{(xy)^-1} = sign(x) sign(y) sign(xy) delta = delta, so the
    # result is k[Z/2] with the constant grading, which the constructor used to refuse
    z2 = cyclic(2)
    kz2 = group_algebra(QQ, z2)
    rho = [Matrix.identity(QQ, 2), Matrix(QQ, [[QQ.of(-1), QQ.zero], [QQ.zero, QQ.of(-1)]])]
    oracle = oracle_h_action(kz2, z2, rho)
    assert [c.name for c in oracle.checks if not c.ok] == ["multiplicative", "unital"]
    assert full_validation_report(mk_from_h_action(trivial_over(z2), kz2, rho)).ok


POINT_GROUPS = {
    "Z/1": cyclic(1), "Z/2": cyclic(2), "Z/3": cyclic(3), "Z/4": cyclic(4), "Z/6": cyclic(6),
    "Z/2 x Z/2": direct_product(cyclic(2), cyclic(2)),
    "Z/2 x Z/4": direct_product(cyclic(2), cyclic(4)),
    "Z/3 x Z/3": direct_product(cyclic(3), cyclic(3)),
    "S3": symmetric(3), "S4": symmetric(4),
    "S3 x Z/2": direct_product(symmetric(3), cyclic(2)),
}


def test_peiffer_fails_exactly_where_e_to_the_point_is_not_abelian():
    verdicts = {name: (oracle_abelian(e), validate_crossed_module(abelian_to_point(e)).ok)
                for name, e in POINT_GROUPS.items()}
    assert all(oracle == report for oracle, report in verdicts.values())
    assert sorted(name for name, (ok, _) in verdicts.items() if not ok) == [
        "S3", "S3 x Z/2", "S4"]
