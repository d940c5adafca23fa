"""The validators that A's regular Hopf module replaced, and the full check (d), as oracles.

`full_validation_report` checks A as a Hopf module over itself (r = mu, rho = Delta,
psi = phi) with `validate_hopf_xi_module`, and then only the identities that A has and a
module does not.  The oracles (tests/oracles.py) are the validators it ran before:
`oracle_h_coalgebra`, `oracle_bicoalgebra` (its components' `oracle_component_algebra`,
then Delta and eps algebra maps) and `oracle_action_laws`.
On single-entry perturbations of Delta, phi, S, mu and eps of every example (the list that
test_hopfmod's dual-module sweep walks, with ORACLE_STRIDE), `full_validation_report` gives
the verdict of the stack of oracles: it fails wherever one of them fails, and nowhere else.

Check (d) of `validate_hopf_xi_module` checks psi's unit law on every x, and each other law
only where the unit laws leave it open: composition where e != 1 and f != 1, action
compatibility where e != 1, and coaction compatibility where exactly one of e and f is 1.
Its docstring derives the other cases from psi's unit and composition laws, A's
phi_{x,1} = id and the crossed-module identities (`validate_module_premises`).
`oracle_hopf_xi_module` is the module validator with every case of each law.  On
single-entry perturbations of rho and psi of explicit trivial (dim V = 2) and dual Hopf
modules of the examples, the reduced report fails wherever the full one does.  Those
perturbations break psi's unit or composition law, or (b) and (c), as well, so both
reports fail on every one of them; the premises of the derivation hold only on the
perturbations psi'_{x,e} = T_{xi(e)x} psi_{x,e} T_x^-1, for a graded automorphism T of M,
with r and rho left alone.  On those too the reduced report fails wherever the full one
does, and some of them fail check (d) on most examples.

`verify` of a `trivial: v` Hopf module and `structure-theorem` on one check and trivialise
A (x) V as it is parsed from the document.  The oracle is the library on A (x) V built
apart, `validate_hopf_xi_module(a, trivial_hopf_module(a, v))` after
`validate_module_premises(a)`, then `coinvariants` and `structure_iso` on it: on every Hopf
structure of every fixture and mutation and v = 0, 1, 2 and 3, the CLI's checks equal it in
names, counts and witnesses, and its coinvariant basis is the oracle's.  No CLI digest
covers v = 1.
"""

import json

import pytest

from tests.conftest import FIXTURES, GF5, QQ, make_sweedler, make_unequal_dims
from tests.oracles import (
    EXAMPLES,
    MODULE_EXAMPLES,
    MODULE_STRIDE,
    Tally,
    build,
    conjugated_psi_perturbations,
    oracle_hopf_xi_module,
    oracle_stack,
    perturbed_modules,
    swept_structures,
)
from xmhopf.cli import main
from xmhopf.crossed import abelian_to_point
from xmhopf.docio import parse
from xmhopf.errors import XmhopfError
from xmhopf.groups import cyclic
from xmhopf.hopfmod import (
    coinvariants,
    dual_hopf_module,
    regular_hopf_module,
    structure_iso,
    trivial_hopf_module,
    validate_hopf_xi_module,
    validate_module_premises,
)
from xmhopf.linalg import Matrix
from xmhopf.report import Report
from xmhopf.xihopf import HopfXiCoalgebra, full_validation_report

# per example and map: (perturbations, of which oracle_h_coalgebra fails, of which
# oracle_bicoalgebra fails, of which oracle_action_laws fails); the same over Q and GF(5)
STACK_COUNTS = {
    "k_xi_z2": {"delta": (4, 3, 4, 4), "phi": (4, 0, 0, 4), "S": (2, 0, 0, 0),
                "mu": (2, 0, 2, 2), "eps": (1, 1, 1, 0)},
    "k_h_z2": {"delta": (4, 3, 4, 0), "phi": (2, 0, 0, 2), "S": (2, 0, 0, 0),
               "mu": (2, 0, 2, 0), "eps": (1, 1, 1, 0)},
    "k_xi_s3": {"delta": (9, 9, 9, 9), "phi": (4, 0, 0, 4), "S": (2, 0, 0, 0),
                "mu": (1, 0, 1, 1), "eps": (1, 1, 1, 0)},
    "bichar_z2": {"delta": (8, 8, 8, 6), "phi": (8, 0, 0, 8), "S": (4, 0, 0, 0),
                  "mu": (8, 0, 8, 4), "eps": (2, 2, 2, 0)},
    "rho_z2": {"delta": (32, 30, 32, 32), "phi": (16, 0, 0, 16), "S": (8, 0, 0, 0),
               "mu": (16, 0, 16, 16), "eps": (2, 2, 2, 0)},
    "sweedler": {"delta": (21, 21, 21, 0), "phi": (6, 0, 0, 6), "S": (5, 0, 0, 0),
                 "mu": (21, 0, 21, 0), "eps": (2, 2, 2, 0)},
    "conj_s3": {"phi": (1, 0, 0, 1)},
    "sweedler_z4": {"delta": (3, 3, 3, 3), "phi": (1, 0, 0, 1), "mu": (1, 0, 1, 1)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_stack_gives_the_verdict_of_the_validators_it_replaced(name, make, field):
    a, swept = swept_structures(name)
    assert oracle_stack(a) == (True, True, True, True)
    example = name.split()[0]
    counts = Tally()
    for kind, p, report_ok, _ in swept:
        stack, coalgebra, bicoalgebra, action = oracle_stack(p)
        assert report_ok == stack, kind
        counts.add(kind, not coalgebra, not bicoalgebra, not action)
    assert counts.counts() == STACK_COUNTS[example]


# per example, module and map: (perturbations, of which the full report fails, of which
# the reduced one fails); the same over Q and GF(5).  No perturbation passes either report.
MODULE_COUNTS = {
    "k_xi_z2": {"trivial rho": (16, 16, 16), "trivial psi": (16, 16, 16),
                "dual rho": (4, 4, 4), "dual psi": (4, 4, 4)},
    "k_h_z2": {"trivial rho": (16, 16, 16), "trivial psi": (8, 8, 8),
               "dual rho": (4, 4, 4), "dual psi": (2, 2, 2)},
    "k_xi_s3": {"trivial rho": (36, 36, 36), "trivial psi": (18, 18, 18),
                "dual rho": (9, 9, 9), "dual psi": (4, 4, 4)},
    "bichar_z2": {"trivial rho": (32, 32, 32), "trivial psi": (32, 32, 32),
                  "dual rho": (8, 8, 8), "dual psi": (8, 8, 8)},
    "rho_z2": {"trivial rho": (128, 128, 128), "trivial psi": (64, 64, 64),
               "dual rho": (32, 32, 32), "dual psi": (16, 16, 16)},
    "sweedler": {"trivial rho": (85, 85, 85), "trivial psi": (21, 21, 21),
                 "dual rho": (21, 21, 21), "dual psi": (5, 5, 5)},
    "sweedler_z4": {"trivial rho": (13, 13, 13), "trivial psi": (3, 3, 3),
                    "dual rho": (3, 3, 3), "dual psi": (1, 1, 1)},
}


@pytest.mark.parametrize("name, make, field", MODULE_EXAMPLES,
                         ids=[e[0] for e in MODULE_EXAMPLES])
def test_reduced_module_report_fails_wherever_the_full_one_fails(name, make, field):
    a = build(make, field)
    assert validate_module_premises(a).ok  # so the reduced report is the module's own
    example = name.split()[0]
    counts = Tally()
    for module, m in (("trivial", trivial_hopf_module(a, 2)), ("dual", dual_hopf_module(a))):
        assert validate_hopf_xi_module(a, m).ok and oracle_hopf_xi_module(a, m).ok
        for kind, p in perturbed_modules(m, MODULE_STRIDE.get(example, 1)):
            full = oracle_hopf_xi_module(a, p).ok
            reduced = validate_hopf_xi_module(a, p).ok
            assert full or not reduced, (module, kind)
            counts.add(f"{module} {kind}", not full, not reduced)
    assert counts.counts() == MODULE_COUNTS[example]


# per example, module and kind of T: (perturbations, of which the full report fails, of
# which the reduced one fails); the same over Q and GF(5).  Each failure is one of (d) alone.
CONJUGATED_COUNTS = {
    "k_xi_z2": {"trivial scale": (2, 2, 2), "trivial shear": (2, 2, 2), "trivial signs": (1, 1, 1),
                "dual scale": (2, 2, 2), "dual signs": (1, 1, 1)},
    "k_h_z2": {"trivial scale": (2, 0, 0), "trivial shear": (2, 0, 0), "trivial signs": (1, 0, 0),
               "dual scale": (2, 0, 0), "dual signs": (1, 0, 0)},
    "k_xi_s3": {"trivial scale": (6, 6, 6), "trivial shear": (6, 6, 6),
                "trivial signs": (31, 30, 30), "dual scale": (6, 6, 6), "dual signs": (31, 30, 30)},
    "bichar_z2": {"trivial scale": (1, 0, 0), "trivial shear": (1, 0, 0), "dual scale": (1, 0, 0),
                  "dual shear": (1, 1, 1)},
    "rho_z2": {"trivial scale": (2, 2, 2), "trivial shear": (2, 2, 2), "trivial signs": (1, 1, 1),
               "dual scale": (2, 2, 2), "dual shear": (2, 2, 2), "dual signs": (1, 1, 1)},
    "sweedler": {"trivial scale": (1, 0, 0), "trivial shear": (1, 0, 0), "dual scale": (1, 0, 0),
                 "dual shear": (1, 0, 0)},
    "sweedler_z4": {"trivial scale": (4, 4, 4), "trivial shear": (4, 4, 4),
                    "trivial signs": (7, 7, 7), "dual scale": (4, 4, 4), "dual shear": (4, 4, 4),
                    "dual signs": (7, 7, 7)},
}


@pytest.mark.parametrize("name, make, field", MODULE_EXAMPLES,
                         ids=[e[0] for e in MODULE_EXAMPLES])
def test_reduced_module_report_fails_wherever_the_full_one_fails_on_conjugated_psi(
        name, make, field):
    a = build(make, field)
    counts = Tally()
    for module, m in (("trivial", trivial_hopf_module(a, 2)), ("dual", dual_hopf_module(a))):
        for kind, p in conjugated_psi_perturbations(m):
            full = oracle_hopf_xi_module(a, p)
            reduced = validate_hopf_xi_module(a, p).ok
            assert full.ok or not reduced, (module, kind)
            assert all(check.ok or check.name.startswith("(d)") for check in full.checks)
            counts.add(f"{module} {kind.split()[0]}", not full.ok, not reduced)
    assert counts.counts() == CONJUGATED_COUNTS[name.split()[0]]


# on Sweedler's basis (1, g, x, gx), right translation a -> chi(a_1) a_2 by the character
# chi(g) = -1, chi(x) = 0
SWEEDLER_RIGHT_TRANSLATION = (1, -1, 1, -1)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF(5)"])
def test_reduced_check_d_keeps_the_cases_e_1_of_a_structure(field):
    # Sweedler's algebra over Z/2 -> 1, the generator acting by right translation by chi:
    # phi is a unital algebra involution and (phi (x) id) Delta = Delta phi, so every case
    # f = 1 of coproduct compatibility and every premise hold, but
    # (id (x) phi) Delta(x) = 1 (x) x - x (x) g != Delta(phi(x)): only the cases e = 1,
    # f != 1 of C fail, which check (d) of A's regular Hopf module must keep
    f = field
    sweedler = make_sweedler(f)
    phi = Matrix(f, [[f.of(v) if i == j else f.zero for j in range(4)]
                     for i, v in enumerate(SWEEDLER_RIGHT_TRANSLATION)])
    a = HopfXiCoalgebra(abelian_to_point(cyclic(2)), sweedler.base,
                        {(0, 0): Matrix.identity(f, 4), (0, 1): phi})
    failing = [(c.name, c.violations, c.witnesses) for c in full_validation_report(a).checks
               if not c.ok]
    assert failing == [("regular Hopf module: (d) psi equivariance laws", 1,
                        ["coaction compatibility at x=0 y=0 e=0 f=1"])]
    full = oracle_hopf_xi_module(a, regular_hopf_module(a))
    assert [(c.name, c.violations) for c in full.checks if not c.ok] == [
        ("(d) psi equivariance laws", 2)]


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "GF(5)"])
def test_check_c_over_components_of_unequal_dimension_is_the_oracles(field):
    # dim A_0 = 2 and dim A_1 = 3, so that a flip with dx and dy swapped moves entries: every
    # case of A's regular Hopf module holds, and perturbations of rho fail some
    a = make_unequal_dims(field)

    def check_c(rep):
        (c,) = [c for c in rep.checks if c.name.startswith("(c)")]
        return c.violations, c.witnesses

    m = regular_hopf_module(a)
    assert check_c(validate_hopf_xi_module(a, m)) == check_c(oracle_hopf_xi_module(a, m)) == (
        0, [])
    counts = Tally()
    for kind, p in perturbed_modules(m):
        got = check_c(validate_hopf_xi_module(a, p))
        assert got == check_c(oracle_hopf_xi_module(a, p)), kind
        counts.add(kind, got[0] > 0)
    assert counts.counts() == {"rho": (62, 37), "psi": (25, 0)}  # the same over Q and GF(5)


# (document, Hopf structure) for every Hopf structure of every fixture and mutation
TRIVIAL_OVER = [
    (path.relative_to(FIXTURES).as_posix(), over)
    for path in sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("mutations/mut*.json"))
    for over in sorted(json.loads(path.read_text())["hopf"])
]


@pytest.mark.parametrize("v", [0, 1, 2, 3])
@pytest.mark.parametrize("rel,over", TRIVIAL_OVER, ids=[f"{r}:{o}" for r, o in TRIVIAL_OVER])
def test_cli_checks_a_trivial_module_as_its_oracle_does(rel, over, v, tmp_path, capsys):
    doc = json.loads((FIXTURES / rel).read_text())
    doc["hopf_modules"] = dict(doc.get("hopf_modules", {}), oracle_trivial={"over": over,
                                                                            "trivial": v})
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    a = parse(path.read_bytes()).hopf[over]
    m = trivial_hopf_module(a, v)
    oracle = Report("oracle")
    oracle.merge(validate_module_premises(a))
    oracle.merge(validate_hopf_xi_module(a, m))
    code = main(["verify", str(path), "oracle_trivial", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == (0 if oracle.ok else 1)
    assert [(c["name"], c["violations"], c["witnesses"]) for c in checks] == [
        (c.name, c.violations, c.witnesses) for c in oracle.checks]
    coinv = coinvariants(a, m)
    trivialised = Report("structure theorem")
    try:
        structure_iso(a, m, coinv)
        trivialised.settle("trivialization maps are exact two-sided inverses", True)
    except XmhopfError as exc:
        trivialised.settle("trivialization maps are exact two-sided inverses", False, str(exc))
    oracle.merge(trivialised)
    main(["structure-theorem", str(path), over, "oracle_trivial", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (payload["outputs"], [(c["name"], c["violations"], c["witnesses"])
                                 for c in payload["checks"]]) == (
        {"coinvariants_dimension": len(coinv),
         "coinvariants_basis": [[[a.field.show(x) for x in cx] for cx in c] for c in coinv]},
        [(c.name, c.violations, c.witnesses) for c in oracle.checks])
