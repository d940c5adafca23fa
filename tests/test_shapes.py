"""Structures are well-shaped by construction: each checks the shapes of its maps when built."""

import pathlib

import pytest

import xmhopf

from tests.conftest import QQ, make_k_xi_z2
from xmhopf.crossed import CrossedModule
from xmhopf.errors import ShapeMismatchError
from xmhopf.groups import GroupAction, GroupHom, cyclic
from xmhopf.hopfmod import trivial_hopf_module
from xmhopf.linalg import Matrix
from xmhopf.repcat import unit_module
from xmhopf.xihopf import dualize, validate_hopf_xi_algebra

A = make_k_xi_z2()  # every component and every map of every structure below is 1 x 1
WRONG = Matrix.zeros(QQ, 2, 1)


def without(table, key):
    return {k: v for k, v in table.items() if k != key}


def rebuilt(obj, **changes):
    """The constructor of obj's class called on obj's fields, with `changes` in place."""
    cls = type(obj)
    return lambda: cls(*(changes.get(name, getattr(obj, name)) for name in cls.__slots__))


Z2, Z3 = cyclic(2), cyclic(3)
TRIVIAL = GroupAction.trivial(Z2, Z3)
M = trivial_hopf_module(A, 1)
B = dualize(A)
UNIT = unit_module(A)

# name -> (construction, expected message)
BROKEN = {
    "group-table-entry": (rebuilt(Z2, table=((0, 1), (1, 2))), r"table is not order x order"),
    "group-table-row": (rebuilt(Z2, table=((0, 1), (1,))), r"table is not order x order"),
    "group-identity": (rebuilt(Z2, identity=2), r"identity or inverse index out of range"),
    "group-inverse": (rebuilt(Z2, inverses=(0, -1)), r"identity or inverse index out of range"),
    "hom-map-length": (rebuilt(GroupHom.identity(Z3), map=(0, 1)), r"map does not give one target"),
    "hom-map-entry": (rebuilt(GroupHom.identity(Z3), map=(0, 1, 3)), r"map does not give one target"),
    "action-rows": (rebuilt(TRIVIAL, table=TRIVIAL.table[:1]), r"action table is not one row"),
    "action-entry": (rebuilt(TRIVIAL, table=((0, 1, 2), (0, 1, 3))), r"action table is not one row"),
    # xi and the action must fit E and H; a misfit used to raise IndexError from the validator
    "crossed-module-xi": (
        lambda: CrossedModule(Z3, Z2, GroupHom(Z2, Z2, (0, 1)), GroupAction.trivial(Z2, Z2)),
        r"xi must map E to H",
    ),
    "crossed-module-action": (
        rebuilt(A.cm, action=GroupAction.trivial(Z2, Z3)), r"the action must be one of H on E",
    ),
    "coalgebra-coproduct-size": (
        rebuilt(A.base, coproduct={**A.base.coproduct, (0, 1): WRONG}),
        r"coproduct \(0,1\) has wrong shape",
    ),
    "coalgebra-coproduct-missing": (
        rebuilt(A.base, coproduct=without(A.base.coproduct, (1, 1))),
        r"missing coproduct component \(1,1\)",
    ),
    "xi-coalgebra-action-size": (
        rebuilt(A, action={**A.action, (1, 0): WRONG}),
        r"action component \(1,0\) has wrong shape",
    ),
    "xi-coalgebra-action-missing": (
        rebuilt(A, action=without(A.action, (1, 1))),
        r"missing action component \(1,1\)",
    ),
    "module-action-size": (
        rebuilt(UNIT, actions=(Matrix.zeros(QQ, 1, 2),) + UNIT.actions[1:]),
        r"action at x=0 has wrong shape",
    ),
    "module-action-missing": (
        rebuilt(UNIT, actions=UNIT.actions[:1]),
        r"one dimension and action per group element required",
    ),
    "hopf-module-psi-size": (
        rebuilt(M, psi={**M.psi, (0, 1): WRONG}),
        r"psi at \(0,1\) has wrong shape",
    ),
    # a missing coaction entry used to surface as KeyError from the validator
    "hopf-module-rho-missing": (
        rebuilt(M, rho=without(M.rho, (1, 1))),
        r"missing coaction component \(1,1\)",
    ),
    "xi-algebra-counit-rows": (
        rebuilt(B, eps=(Matrix.zeros(QQ, 2, 1),) + B.eps[1:]),
        r"component counit 0 has wrong shape",
    ),
    "xi-algebra-product-missing": (
        rebuilt(B, mul=without(B.mul, (1, 1))),
        r"missing product component \(1,1\)",
    ),
}


@pytest.mark.parametrize("build, message", BROKEN.values(), ids=list(BROKEN))
def test_wrong_shape_or_missing_key_fails_construction(build, message):
    with pytest.raises(ShapeMismatchError, match=message):
        build()


def test_dual_algebra_sizes_are_checked_on_the_transposed_coalgebra():
    b = rebuilt(B, mul={**B.mul, (0, 1): WRONG})()  # a transpose shows this size
    with pytest.raises(ShapeMismatchError, match=r"coproduct \(0,1\) has wrong shape"):
        validate_hopf_xi_algebra(b)


def test_only_the_report_module_opens_a_check():
    # a validator states identities (Report.identity) and verdicts (Report.settle); with
    # shapes checked when a structure is built, no other module opens a check by hand
    for path in sorted(pathlib.Path(xmhopf.__file__).parent.glob("*.py")):
        if path.name != "report.py":
            text = path.read_text()
            assert "Check(" not in text and ".check(" not in text, path.name
