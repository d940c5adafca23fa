"""The validators that A's regular Hopf module replaced, and the full check (d), as oracles.

`full_validation_report` checks A as a Hopf module over itself (r = mu, rho = Delta,
psi = phi) with `validate_hopf_xi_module`, and then only the identities that A has and a
module does not.  The oracles are the validators it ran before:
- `oracle_component_algebra`: associativity and the two-sided unit of one component;
- `oracle_h_coalgebra`: coassociativity and both counit laws;
- `oracle_bicoalgebra`: the components, Delta multiplicative, Delta preserving units and
  eps an algebra map;
- `tests.test_action_oracle.oracle_action_laws`: the action laws, with coproduct
  compatibility on the cases where e = 1 or f = 1.
On single-entry perturbations of Delta, phi, S, mu and eps of every example (test_hopfmod's
dual-module oracle examples, with its strides), `full_validation_report` gives the verdict
of the stack of oracles: it fails wherever one of them fails, and nowhere else.

Check (d) of `validate_hopf_xi_module` checks coaction compatibility only where e = 1 or
f = 1; its docstring derives the other cases from psi's unit and composition laws, A's
phi_{x,1} = id and the crossed-module identities (`validate_module_premises`).
`oracle_hopf_xi_module` is the module validator with all |H|^2 |E|^2 cases.  On
single-entry perturbations of rho and psi of explicit trivial (dim V = 2) and dual Hopf
modules of the examples, the reduced report fails wherever the full one does.  Those
perturbations break psi's unit or composition law, or (b) and (c), as well, so both
reports fail on every one of them; the premises of the derivation hold only on the
perturbations psi'_{x,e} = T_{xi(e)x} psi_{x,e} T_x^-1, for a graded automorphism T of M,
with r and rho left alone.  On those too the reduced report fails wherever the full one
does, and some of them fail check (d) on most examples.
"""

import itertools

import pytest

from tests.conftest import (
    GF5,
    QQ,
    make_bichar_z2,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    make_sweedler,
    make_sweedler_z4,
)
from tests.test_action_oracle import bumped, oracle_action_laws
from tests.test_hopfmod import ORACLE_EXAMPLES, ORACLE_STRIDE, structure_perturbations
from xmhopf.crossed import validate_components, validate_crossed_module
from xmhopf.hopf import ComponentAlgebra, GradedHopfCoalgebra, validate_antipode
from xmhopf.hopfmod import (
    HopfXiModule,
    dual_hopf_module,
    trivial_hopf_module,
    validate_hopf_xi_module,
    validate_module_premises,
)
from xmhopf.linalg import Field, Matrix
from xmhopf.repcat import AModule, validate_module
from xmhopf.report import Report
from xmhopf.xihopf import HopfXiCoalgebra, full_validation_report


def oracle_component_algebra(comp: ComponentAlgebra) -> Report:
    """Associativity, column by column, and the two-sided unit."""
    rep = Report("component algebra")
    ident = Matrix.identity(comp.field, comp.dim)
    lhs = comp.mul @ comp.mul.kron(ident)
    rhs = comp.mul @ ident.kron(comp.mul)
    rep.identity("associativity", (
        (f"basis triple index {j}", lhs.column(j), rhs.column(j)) for j in range(lhs.cols)
    ))
    rep.identity("two-sided unit", [
        ("1 . v != v", comp.mul @ comp.unit_col().kron(ident), ident),
        ("v . 1 != v", comp.mul @ ident.kron(comp.unit_col()), ident),
    ])
    return rep


def oracle_h_coalgebra(a: GradedHopfCoalgebra) -> Report:
    """Coassociativity and counit laws, exact, for all index triples."""
    rep = Report("graded coalgebra")
    H, f = a.H, a.field
    xs, one = H.elements(), H.identity
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]
    rep.identity("coassociativity", (
        (f"(x,y,z)=({x},{y},{z})",
         a.delta(x, y).kron(ident[z]) @ a.delta(H.mul(x, y), z),
         ident[x].kron(a.delta(y, z)) @ a.delta(x, H.mul(y, z)))
        for x in xs for y in xs for z in xs
    ))
    rep.identity("counit laws", (
        case for x in xs for case in (
            (f"(id (x) eps) Delta_({x},1) != id",
             ident[x].kron(a.counit) @ a.delta(x, one), ident[x]),
            (f"(eps (x) id) Delta_(1,{x}) != id",
             a.counit.kron(ident[x]) @ a.delta(one, x), ident[x]),
        )
    ))
    return rep


def oracle_bicoalgebra(a: GradedHopfCoalgebra) -> Report:
    """Each component is an algebra and Delta, eps are algebra maps."""
    rep = Report("graded bicoalgebra")
    H, f, comps = a.H, a.field, a.components
    xs = H.elements()
    for x in xs:
        comp_rep = oracle_component_algebra(comps[x])
        comp_rep.title = f"component {x}"
        rep.merge(comp_rep)
    rep.identity("coproduct is multiplicative", (
        (f"(x,y)=({x},{y})",
         a.delta(x, y) @ comps[H.mul(x, y)].mul,
         comps[x].mul.kron(comps[y].mul).flip_cols(a.dim(x), a.dim(y), a.dim(x), a.dim(y))
         @ a.delta(x, y).kron(a.delta(x, y)))
        for x in xs for y in xs
    ))
    rep.identity("coproduct preserves units", (
        (f"(x,y)=({x},{y})",
         a.delta(x, y) @ comps[H.mul(x, y)].unit_col(),
         comps[x].unit_col().kron(comps[y].unit_col()))
        for x in xs for y in xs
    ))
    one = comps[H.identity]
    rep.identity("counit is an algebra map", [
        ("eps mu_1 != eps (x) eps", a.counit @ one.mul, a.counit.kron(a.counit)),
        ("eps(1_1) != 1", a.counit @ one.unit_col(), Matrix(f, [[f.one]])),
    ])
    return rep


def oracle_stack(a: HopfXiCoalgebra) -> tuple[bool, bool, bool, bool]:
    """(the verdict of the validator stack the oracles made up, and whether each of
    oracle_h_coalgebra, oracle_bicoalgebra and oracle_action_laws passes)."""
    coalgebra, bicoalgebra = oracle_h_coalgebra(a.base).ok, oracle_bicoalgebra(a.base).ok
    action = oracle_action_laws(a).ok
    stack = (validate_components(a.cm).ok and validate_crossed_module(a.cm).ok and coalgebra
             and bicoalgebra and validate_antipode(a.base).ok and action)
    return stack, coalgebra, bicoalgebra, action


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


@pytest.mark.parametrize("name, make, field", ORACLE_EXAMPLES, ids=[e[0] for e in ORACLE_EXAMPLES])
def test_stack_gives_the_verdict_of_the_validators_it_replaced(name, make, field):
    a = make() if field is None else make(field)
    assert oracle_stack(a) == (True, True, True, True)
    example = name.split()[0]
    counts = {}
    for kind, p in structure_perturbations(a, ORACLE_STRIDE.get(example, 1)):
        stack, coalgebra, bicoalgebra, action = oracle_stack(p)
        assert full_validation_report(p).ok == stack, kind
        c = counts.setdefault(kind, [0, 0, 0, 0])
        c[0] += 1
        c[1] += not coalgebra
        c[2] += not bicoalgebra
        c[3] += not action
    assert {kind: tuple(c) for kind, c in counts.items()} == STACK_COUNTS[example]


def oracle_hopf_xi_module(a: HopfXiCoalgebra, m: HopfXiModule) -> Report:
    """validate_hopf_xi_module with every coaction case of check (d)."""
    rep = Report("Hopf crossed-module module")
    f, H, E, cm = a.field, a.H, a.E, a.cm
    xs, es, one = H.elements(), E.elements(), H.identity
    ident_a = [Matrix.identity(f, a.dim(x)) for x in xs]
    ident_m = [Matrix.identity(f, m.dim(x)) for x in xs]

    def tgt(x, e):
        return H.mul(cm.xi_of(e), x)

    def comodule_cases():
        for x in xs:
            for y in xs:
                for z in xs:
                    yield (f"coassociativity at (x,y,z)=({x},{y},{z})",
                           a.delta(x, y).kron(ident_m[z]) @ m.rho[(H.mul(x, y), z)],
                           ident_a[x].kron(m.rho[(y, z)]) @ m.rho[(x, H.mul(y, z))])
        for x in xs:
            yield f"counitality at x={x}", a.counit.kron(ident_m[x]) @ m.rho[(one, x)], ident_m[x]

    def equivariance_cases():
        for x in xs:
            yield f"psi_(x,1) != id at x={x}", m.psi[(x, E.identity)], ident_m[x]
            for e in es:
                for g in es:
                    yield (f"composition at x={x} e={e} f={g}",
                           m.psi[(tgt(x, e), g)] @ m.psi[(x, e)], m.psi[(x, E.mul(g, e))])
                yield (f"action compatibility at x={x} e={e}",
                       m.psi[(x, e)] @ m.r[x], m.r[tgt(x, e)] @ a.phi(x, e).kron(m.psi[(x, e)]))
            for y in xs:
                for e in es:
                    for g in es:
                        label = E.mul(e, cm.act(x, g))
                        yield (f"coaction compatibility at x={x} y={y} e={e} f={g}",
                               a.phi(x, e).kron(m.psi[(y, g)]) @ m.rho[(x, y)],
                               m.rho[(tgt(x, e), tgt(y, g))] @ m.psi[(H.mul(x, y), label)])

    rep.merge(validate_module(a, AModule(a, m.dims, m.r)))
    rep.identity("(b) (M, rho) is a comodule", comodule_cases())
    rep.identity("(c) action and coaction intertwine", (
        (f"(x,y)=({x},{y})",
         m.rho[(x, y)] @ m.r[H.mul(x, y)],
         a.component(x).mul.kron(m.r[y]).flip_cols(a.dim(x), a.dim(y), a.dim(x), m.dim(y))
         @ a.delta(x, y).kron(m.rho[(x, y)]))
        for x in xs for y in xs
    ))
    rep.identity("(d) psi equivariance laws", equivariance_cases())
    return rep


def module_perturbations(m: HopfXiModule, stride: int):
    """(map, m with 1 added to one entry of it): every stride-th entry from entry stride // 2
    of the rho_{x,y}, then of the psi_{x,e}, each map's entries in row-major order."""
    for name, table in (("rho", m.rho), ("psi", m.psi)):
        entries = [(key, i, j) for key, t in table.items()
                   for i in range(t.rows) for j in range(t.cols)]
        for key, i, j in entries[stride // 2::stride]:
            changed = dict(table)
            changed[key] = bumped(table[key], i, j)
            rho, psi = (changed, m.psi) if name == "rho" else (m.rho, changed)
            yield name, HopfXiModule(m.algebra, m.dims, m.r, rho, psi)


# conj_s3 is left out: one validation of its trivial module takes about 1.2 s
MODULE_MAKERS = (make_k_xi_z2, make_k_h_z2, make_k_xi_s3, make_bichar_z2, make_rho_z2,
                 make_sweedler)
MODULE_EXAMPLES = (
    [(f"{make.__name__[5:]} over {field!r}", make, field)
     for field in (QQ, GF5) for make in MODULE_MAKERS]
    + [("sweedler_z4 over GF(5)", make_sweedler_z4, None)]
)
# test_hopfmod's strides; a perturbation of the trivial module costs about 0.13 s on
# sweedler_z4 (5,120 entries of rho and psi) and 10-20 ms on k_xi_s3 and sweedler
MODULE_STRIDE = ORACLE_STRIDE
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
    a = make() if field is None else make(field)
    assert validate_module_premises(a).ok  # so the reduced report is the module's own
    example = name.split()[0]
    counts = {}
    for module, m in (("trivial", trivial_hopf_module(a, 2)), ("dual", dual_hopf_module(a))):
        assert validate_hopf_xi_module(a, m).ok and oracle_hopf_xi_module(a, m).ok
        for kind, p in module_perturbations(m, MODULE_STRIDE.get(example, 1)):
            full = oracle_hopf_xi_module(a, p).ok
            reduced = validate_hopf_xi_module(a, p).ok
            assert full or not reduced, (module, kind)
            c = counts.setdefault(f"{module} {kind}", [0, 0, 0])
            c[0] += 1
            c[1] += not full
            c[2] += not reduced
    assert {kind: tuple(c) for kind, c in counts.items()} == MODULE_COUNTS[example]


def elementary(f: Field, n: int, j: int, v) -> Matrix:
    """The n x n identity with entry (0, j) set to v."""
    rows = [[f.one if k == l else f.zero for l in range(n)] for k in range(n)]
    rows[0][j] = v
    return Matrix(f, rows, n, n)


def graded_automorphisms(m: HopfXiModule):
    """(name, {x: (T_x, T_x^-1) where T_x != id}) for the graded automorphisms T of M that
    scale the first basis vector of one M_x by 2, that add the second coordinate of one M_x
    to the first, and that are sign(x) id on every M_x, for each sign: H -> {1, -1} with
    sign(1) = 1 that is not constant.  Where sign is a character of H, psi' keeps every
    coaction case with e = 1, so a check (d) without the cases f = 1 misses its failures."""
    f, H = m.algebra.field, m.algebra.H
    two, half, minus_one = f.of(2), f.inv(f.of(2)), f.of(-1)
    for x in H.elements():
        n = m.dim(x)
        if n:
            yield f"scale M_{x}", {x: (elementary(f, n, 0, two), elementary(f, n, 0, half))}
        if n > 1:
            yield f"shear M_{x}", {x: (elementary(f, n, 1, f.one), elementary(f, n, 1, minus_one))}
    others = [x for x in H.elements() if x != H.identity]
    for signs in itertools.product((1, -1), repeat=len(others)):
        minus = [x for x, sign in zip(others, signs) if sign == -1 and m.dim(x)]
        if minus:
            yield f"signs {signs}", {
                x: (Matrix.identity(f, m.dim(x)).scale(minus_one),) * 2 for x in minus}


def conjugated_psi_perturbations(m: HopfXiModule):
    """(name, m with psi'_{y,e} = T_{xi(e)y} psi_{y,e} T_y^-1) for each T of
    graded_automorphisms.  psi' keeps psi's unit and composition laws, and r and rho are
    m's own, so only (d)'s compatibilities can fail."""
    a = m.algebra
    for name, t in graded_automorphisms(m):
        psi = {}
        for (y, e), p in m.psi.items():
            p = p @ t[y][1] if y in t else p
            target = a.H.mul(a.cm.xi_of(e), y)
            psi[(y, e)] = t[target][0] @ p if target in t else p
        yield name, HopfXiModule(a, m.dims, m.r, m.rho, psi)


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
    a = make() if field is None else make(field)
    counts = {}
    for module, m in (("trivial", trivial_hopf_module(a, 2)), ("dual", dual_hopf_module(a))):
        for kind, p in conjugated_psi_perturbations(m):
            c = counts.setdefault(f"{module} {kind.split()[0]}", [0, 0, 0])
            full = oracle_hopf_xi_module(a, p)
            reduced = validate_hopf_xi_module(a, p).ok
            assert full.ok or not reduced, (module, kind)
            assert all(check.ok or check.name.startswith("(d)") for check in full.checks)
            c[0] += 1
            c[1] += not full.ok
            c[2] += not reduced
    assert {module: tuple(c) for module, c in counts.items()} == CONJUGATED_COUNTS[name.split()[0]]
