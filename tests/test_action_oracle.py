"""The reduced action checks against the full case set they replaced.

`oracle_action_laws` is the action validator that `full_validation_report` ran before it
checked A as its own regular Hopf module, whose check (d) runs these cases less those that
the unit laws decide: it checks coproduct compatibility C(x, y, e, f) only where e = 1 or
f = 1, and states no inverse law: given the unit and composition laws, which it checks on
every case, and the crossed-module identities, which `validate_components` and
`validate_crossed_module` check in the same `full_validation_report`, those cases imply
the rest.
`oracle_xi_action` is the validator that checked all |H|^2 |E|^2 cases of C and the
inverse law phi_{xi(e)x,e^-1} phi_{x,e} = id.

On single-entry perturbations of each Delta_{x,y} and each phi_{x,e} of every example,
the stack must give the same verdict with either validator.  The stack's verdict is
the conjunction of its checks, and the two validators differ only in those checks, so
the verdicts agree wherever the two validators do; where they do not, some other check
of `full_validation_report` must fail.  Where the premises (the unit and composition
laws) pass, the two compatibility checks must agree; the tests count those cases.
"""

import pytest

from tests.conftest import (
    GF5,
    QQ,
    make_bichar_z2,
    make_conj_s3,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    make_sweedler,
    make_sweedler_z4,
)
from xmhopf.hopf import GradedHopfCoalgebra
from xmhopf.crossed import validate_components, validate_crossed_module
from xmhopf.linalg import Matrix
from xmhopf.report import Report
from xmhopf.xihopf import HopfXiCoalgebra, full_validation_report

COMPATIBILITY = "(phi (x) phi) Delta = Delta phi (coproduct compatibility)"
PREMISES = ("phi_{x,1} = id", "phi_{xi(e)x,f} phi_{x,e} = phi_{x,fe}")


def oracle_action_laws(a: HopfXiCoalgebra) -> Report:
    """phi_{x,1} = id, composition, C where e = 1 or f = 1, and algebra morphisms."""
    rep = Report("crossed-module action")
    cm, f, H, E = a.cm, a.field, a.H, a.E
    xs, es, one = H.elements(), E.elements(), E.identity
    tgt = {(x, e): H.mul(cm.xi_of(e), x) for x in xs for e in es}
    rep.identity("phi_{x,1} = id", ((f"x={x}", a.phi(x, one), Matrix.identity(f, a.dim(x)))
                                    for x in xs))
    rep.identity("phi_{xi(e)x,f} phi_{x,e} = phi_{x,fe}", (
        (f"x={x} e={e} f={g}", a.phi(tgt[x, e], g) @ a.phi(x, e), a.phi(x, E.mul(g, e)))
        for x in xs for e in es for g in es
    ))
    rep.identity(COMPATIBILITY, (
        (f"x={x} y={y} e={e} f={g}",
         a.phi(x, e).kron(a.phi(y, g)) @ a.delta(x, y),
         a.delta(tgt[x, e], tgt[y, g]) @ a.phi(H.mul(x, y), E.mul(e, cm.act(x, g))))
        for x in xs for y in xs for e in es for g in es if e == one or g == one
    ))

    def morphism_cases():
        for x in xs:
            for e in es:
                p, src, dst = a.phi(x, e), a.component(x), a.component(tgt[x, e])
                yield f"x={x} e={e}: multiplication", p @ src.mul, dst.mul @ p.kron(p)
                yield f"x={x} e={e}: unit", p @ src.unit_col(), dst.unit_col()

    rep.identity("each phi_{x,e} is an algebra morphism", morphism_cases())
    return rep


def oracle_xi_action(a: HopfXiCoalgebra, label=None) -> Report:
    """Every action case: C on all (x, y, e, f), and the inverse law.

    label(x, e, f) is the E-element that C's right-hand side acts by on A_{xy};
    the paper's e(x > f) by default.
    """
    rep = Report("crossed-module action")
    cm, f, H, E = a.cm, a.field, a.H, a.E
    xs, es = H.elements(), E.elements()
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]
    label = label or (lambda x, e, g: E.mul(e, cm.act(x, g)))

    def tgt(x, e):
        return H.mul(cm.xi_of(e), x)

    rep.identity("phi_{x,1} = id", ((f"x={x}", a.phi(x, E.identity), ident[x]) for x in xs))
    rep.identity("phi_{xi(e)x,f} phi_{x,e} = phi_{x,fe}", (
        (f"x={x} e={e} f={g}", a.phi(tgt(x, e), g) @ a.phi(x, e), a.phi(x, E.mul(g, e)))
        for x in xs for e in es for g in es
    ))
    rep.identity(COMPATIBILITY, (
        (f"x={x} y={y} e={e} f={g}",
         a.phi(x, e).kron(a.phi(y, g)) @ a.delta(x, y),
         a.delta(tgt(x, e), tgt(y, g)) @ a.phi(H.mul(x, y), label(x, e, g)))
        for x in xs for y in xs for e in es for g in es
    ))

    def morphism_cases():
        for x in xs:
            for e in es:
                p, src, dst = a.phi(x, e), a.component(x), a.component(tgt(x, e))
                yield f"x={x} e={e}: multiplication", p @ src.mul, dst.mul @ p.kron(p)
                yield f"x={x} e={e}: unit", p @ src.unit_col(), dst.unit_col()

    rep.identity("each phi_{x,e} is an algebra morphism", morphism_cases())
    rep.identity("phi_{x,e}^-1 = phi_{xi(e)x,e^-1}", (
        (f"x={x} e={e}", a.phi(tgt(x, e), E.inv(e)) @ a.phi(x, e), ident[x])
        for x in xs for e in es
    ))
    return rep


def bumped(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.data]
    rows[i][j] = m.field.add(rows[i][j], m.field.one)
    return Matrix(m.field, rows, m.rows, m.cols)


def perturbations(a: HopfXiCoalgebra, stride: int):
    """(map, a with 1 added to one entry of it): every stride-th entry from entry stride // 2
    of the Delta_{x,y}, then of the phi_{x,e}, each map's entries in row-major order."""
    b = a.base
    for name, table in (("delta", b.coproduct), ("phi", a.action)):
        entries = [(key, i, j) for key, m in table.items()
                   for i in range(m.rows) for j in range(m.cols)]
        for key, i, j in entries[stride // 2::stride]:
            changed = dict(table)
            changed[key] = bumped(table[key], i, j)
            if name == "delta":
                base = GradedHopfCoalgebra(b.field, b.H, b.components, changed, b.counit,
                                           b.antipode)
                yield name, HopfXiCoalgebra(a.cm, base, a.action)
            else:
                yield name, HopfXiCoalgebra(a.cm, b, changed)


MAKERS = (make_k_xi_z2, make_k_h_z2, make_k_xi_s3, make_bichar_z2, make_rho_z2, make_sweedler,
          make_conj_s3)
EXAMPLES = (
    [(f"{make.__name__[5:]} over {field!r}", make, field) for field in (QQ, GF5) for make in MAKERS]
    + [("sweedler_z4 over GF(5)", make_sweedler_z4, None)]
)
# each perturbation costs about 0.4 s on conj_s3 (7,776 Delta and 1,296 phi entries) and
# 37 ms on sweedler_z4 (1,024 and 256), so those two take every 1999th and every 20th entry
STRIDE = {"conj_s3": 1999, "sweedler_z4": 20}
# per example and map: (perturbations, of which the premises pass); only bichar_z2 keeps
# them on a phi perturbation, where phi_{0,1} = diag(1, -1) gains the entry (0, 1) and
# still squares to the identity
COUNTS = {
    "k_xi_z2": {"delta": (4, 4), "phi": (4, 0)},
    "k_h_z2": {"delta": (4, 4), "phi": (2, 0)},
    "k_xi_s3": {"delta": (36, 36), "phi": (18, 0)},
    "bichar_z2": {"delta": (8, 8), "phi": (8, 2)},
    "rho_z2": {"delta": (32, 32), "phi": (16, 0)},
    "sweedler": {"delta": (64, 64), "phi": (16, 0)},
    "conj_s3": {"delta": (4, 4), "phi": (1, 0)},
    "sweedler_z4": {"delta": (51, 51), "phi": (13, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_reduced_action_checks_give_the_oracle_verdicts(name, make, field):
    a = make() if field is None else make(field)
    assert validate_components(a.cm).ok and validate_crossed_module(a.cm).ok
    assert oracle_action_laws(a).ok and oracle_xi_action(a).ok
    example = name.split()[0]
    counts = {"delta": [0, 0], "phi": [0, 0]}
    for kind, p in perturbations(a, STRIDE.get(example, 1)):
        new, old = oracle_action_laws(p), oracle_xi_action(p)
        if new.ok != old.ok:  # then the stack's verdict is the same only if it fails elsewhere
            assert not full_validation_report(p).ok
        new_ok = {c.name: c.ok for c in new.checks}
        counts[kind][0] += 1
        if all(new_ok[premise] for premise in PREMISES):
            counts[kind][1] += 1
            assert new_ok[COMPATIBILITY] == {c.name: c.ok for c in old.checks}[COMPATIBILITY]
    assert {kind: tuple(c) for kind, c in counts.items()} == COUNTS[example]
