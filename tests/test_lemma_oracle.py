"""The lemmas that the validator stack derives instead of checking, kept as oracles.

`full_validation_report` checks the axioms of a Hopf crossed-module coalgebra and no lemma
of them; its docstring, and those of `validate_hom`, `validate_action` and
`validate_bicoalgebra`, derive each lemma from checks of the same report.  Likewise
`kernel_image_cokernel` checks nothing, and `verify` of a crossed module relies on
`validate_components` and `validate_crossed_module` for the facts its docstring derives.
The oracles are the checks that the stack no longer runs:
- `oracle_antipode_properties`: the antipode lemma of Hopf group-coalgebras (S is
  anti-multiplicative and anti-comultiplicative, S(1) = 1, eps S_1 = eps);
- `oracle_antipode_action_compat`: phi_{x,e} S_x = S_{xi(e)x} phi_{x^-1, x^-1 > e^-1};
- `oracle_kernel_image_cokernel`: Ker(xi) is central in E, Im(xi) is normal in H, and the
  projection onto Coker(xi) is a homomorphism;
- `oracle_hom_preserves_identity`: xi(1) = 1;
- `oracle_action_rows_bijective`: each act[x] is a bijection;
- `oracle_counit_preserves_unit`: eps(1_1) = 1;
- `oracle_phi_preserves_unit`: phi_{x,e}(1) = 1.

On single-entry perturbations of every example (test_action_oracle's, with its strides on
conj_s3 and sweedler_z4) and of every table of their crossed modules, wherever an oracle
fails, the checks that imply it fail too.  The tests count the perturbations and the oracle
failures.  A perturbation of xi(1) leaves H's identity outside its coset Im(xi) 1, which
kernel_image_cokernel must still name without raising.
"""

import pytest

from tests.conftest import (
    make_bichar_z2,
    make_conj_s3,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_sweedler_z4,
)
from tests.test_action_oracle import EXAMPLES, STRIDE
from tests.test_hopfmod import structure_perturbations
from xmhopf.crossed import (
    CrossedModule,
    kernel_image_cokernel,
    validate_components,
    validate_crossed_module,
)
from xmhopf.groups import FiniteGroup, GroupAction, GroupHom
from xmhopf.hopf import GradedHopfCoalgebra
from xmhopf.linalg import Matrix
from xmhopf.report import Report
from xmhopf.xihopf import HopfXiCoalgebra, full_validation_report


def oracle_antipode_properties(a: GradedHopfCoalgebra) -> Report:
    """Anti-multiplicativity, unit preservation, anti-comultiplicativity, eps S_1 = eps."""
    rep = Report("antipode properties")
    H, comps = a.H, a.components
    xs = H.elements()
    rep.identity("anti-multiplicativity", (
        (f"x={x}",
         a.S(x) @ comps[H.inv(x)].mul,
         comps[x].mul.flip_cols(1, a.dim(x), a.dim(x), 1) @ a.S(x).kron(a.S(x)))
        for x in xs
    ))
    rep.identity("unit preservation", (
        (f"x={x}", a.S(x) @ comps[H.inv(x)].unit_col(), comps[x].unit_col()) for x in xs
    ))
    rep.identity("anti-comultiplicativity", (
        (f"(x,y)=({x},{y})",
         a.delta(x, y) @ a.S(H.mul(x, y)),
         a.S(x).kron(a.S(y)).flip_cols(1, a.dim(H.inv(y)), a.dim(H.inv(x)), 1)
         @ a.delta(H.inv(y), H.inv(x)))
        for x in xs for y in xs
    ))
    rep.identity("counit compatibility", [
        ("eps S_1 != eps", a.counit @ a.S(H.identity), a.counit),
    ])
    return rep


def oracle_antipode_action_compat(a: HopfXiCoalgebra) -> Report:
    """phi_{x,e} S_x = S_{xi(e)x} phi_{x^-1, (x^-1)>(e^-1)} for all (x, e)."""
    rep = Report("antipode/action compatibility")
    cm, H, E = a.cm, a.H, a.E
    rep.identity("phi S = S phi'", (
        (f"x={x} e={e}",
         a.phi(x, e) @ a.S(x),
         a.S(H.mul(cm.xi_of(e), x)) @ a.phi(H.inv(x), cm.act(H.inv(x), E.inv(e))))
        for x in H.elements() for e in E.elements()
    ))
    return rep


def oracle_kernel_image_cokernel(cm: CrossedModule) -> Report:
    """Ker(xi) central in E, Im(xi) normal in H, the projection onto Coker(xi) a homomorphism."""
    E, H = cm.E, cm.H
    kic = kernel_image_cokernel(cm)
    rep = Report("kernel/image/cokernel")
    rep.identity("kernel is central in E", (
        (f"k={k} e={e}", E.mul(k, e), E.mul(e, k)) for k in kic.kernel for e in E.elements()
    ))
    image = set(kic.image)
    rep.identity("image is normal in H", (
        (f"x={x} i={i}", H.conj(x, i) in image, True) for x in H.elements() for i in kic.image
    ))
    p, coker = kic.projection, kic.cokernel
    rep.identity("projection is a homomorphism", (
        (f"x={x} y={y}", p[H.mul(x, y)], coker.mul(p[x], p[y]))
        for x in H.elements() for y in H.elements()
    ))
    return rep


def oracle_hom_preserves_identity(f: GroupHom) -> Report:
    """map(1) = 1."""
    rep = Report("group hom")
    g, h = f.source, f.target
    rep.identity("preserves identity", [
        (f"map(1) = {f.map[g.identity]} != {h.identity}", f.map[g.identity], h.identity),
    ])
    return rep


def oracle_action_rows_bijective(a: GroupAction) -> Report:
    """Each act[x] is a bijection of the space."""
    rep = Report("group action")
    n = a.space.order
    rep.identity("each actor element acts bijectively", (
        (f"act[{x}] is not a bijection", len(set(a.table[x])), n) for x in a.actor.elements()
    ))
    return rep


def oracle_counit_preserves_unit(a: GradedHopfCoalgebra) -> Report:
    """eps(1_1) = 1."""
    rep = Report("graded bicoalgebra")
    f = a.field
    rep.identity("counit preserves the unit", [
        ("eps(1_1) != 1", a.counit @ a.components[a.H.identity].unit_col(), Matrix(f, [[f.one]])),
    ])
    return rep


def oracle_phi_preserves_unit(a: HopfXiCoalgebra) -> Report:
    """phi_{x,e}(1_x) = 1_{xi(e)x} for all (x, e)."""
    rep = Report("crossed-module action")
    cm, H = a.cm, a.H
    rep.identity("each phi_{x,e} preserves the unit", (
        (f"x={x} e={e}", a.phi(x, e) @ a.component(x).unit_col(),
         a.component(H.mul(cm.xi_of(e), x)).unit_col())
        for x in H.elements() for e in a.E.elements()
    ))
    return rep


def lemma_oracles(a: HopfXiCoalgebra) -> tuple[bool, bool, bool, bool]:
    """Whether the antipode lemmas, the antipode/action lemma, eps(1_1) = 1 and
    phi_{x,e}(1) = 1 hold."""
    return (oracle_antipode_properties(a.base).ok, oracle_antipode_action_compat(a).ok,
            oracle_counit_preserves_unit(a.base).ok, oracle_phi_preserves_unit(a).ok)


# per example and map: (perturbations, of which the antipode lemmas fail, of which the
# antipode/action lemma fails, of which eps(1_1) = 1 fails, of which phi_{x,e}(1) = 1
# fails); the same over Q and GF(5)
LEMMA_COUNTS = {
    "k_xi_z2": {"delta": (4, 2, 0, 0, 0), "phi": (4, 0, 0, 0, 4), "S": (2, 2, 2, 0, 0),
                "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "k_h_z2": {"delta": (4, 2, 0, 0, 0), "phi": (2, 0, 0, 0, 2), "S": (2, 2, 0, 0, 0),
               "mu": (2, 0, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "k_xi_s3": {"delta": (36, 30, 0, 0, 0), "phi": (18, 0, 8, 0, 18), "S": (6, 6, 6, 0, 0),
                "mu": (6, 2, 0, 0, 0), "eps": (1, 0, 0, 1, 0)},
    "bichar_z2": {"delta": (8, 4, 0, 0, 0), "phi": (8, 0, 0, 0, 4), "S": (4, 4, 2, 0, 0),
                  "mu": (8, 4, 0, 0, 0), "eps": (2, 0, 0, 1, 0)},
    "rho_z2": {"delta": (32, 24, 0, 0, 0), "phi": (16, 0, 0, 0, 8), "S": (8, 8, 8, 0, 0),
               "mu": (16, 8, 0, 0, 0), "eps": (2, 0, 0, 1, 0)},
    "sweedler": {"delta": (64, 60, 0, 0, 0), "phi": (16, 0, 12, 0, 4), "S": (16, 16, 0, 0, 0),
                 "mu": (64, 60, 0, 0, 0), "eps": (4, 2, 0, 1, 0)},
    "conj_s3": {"delta": (4, 4, 0, 0, 0), "phi": (1, 0, 0, 0, 0)},
    "sweedler_z4": {"delta": (51, 51, 0, 0, 0), "phi": (13, 0, 13, 0, 0), "S": (3, 3, 3, 0, 0),
                    "mu": (13, 13, 0, 0, 0)},
}


@pytest.mark.parametrize("name, make, field", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_stack_fails_wherever_a_lemma_fails(name, make, field):
    a = make() if field is None else make(field)
    assert all(lemma_oracles(a))
    example = name.split()[0]
    counts = {}
    for kind, p in structure_perturbations(a, STRIDE.get(example, 1)):
        lemmas = lemma_oracles(p)
        if not all(lemmas):
            assert not full_validation_report(p).ok, kind
        c = counts.setdefault(kind, [0] * 5)
        c[0] += 1
        for i, ok in enumerate(lemmas, 1):
            c[i] += not ok
    assert {kind: tuple(c) for kind, c in counts.items()} == LEMMA_COUNTS[example]


def crossed_module_perturbations(cm: CrossedModule):
    """(table, cm with one entry of it moved to the next element): every entry of xi, of the
    action, and of the multiplication tables of E and of H, each table in row-major order."""
    E, H = cm.E, cm.H

    def moved(rows, i, j, n):
        out = [list(r) for r in rows]
        out[i][j] = (out[i][j] + 1) % n
        return tuple(map(tuple, out))

    def rebuilt(e_grp, h_grp, xi_map, action):
        return CrossedModule(e_grp, h_grp, GroupHom(e_grp, h_grp, xi_map),
                             GroupAction(h_grp, e_grp, action))

    xi, action = cm.xi.map, cm.action.table
    if H.order > 1:
        for j in E.elements():
            yield "xi", rebuilt(E, H, moved((xi,), 0, j, H.order)[0], action)
    if E.order > 1:
        for i in H.elements():
            for j in E.elements():
                yield "action", rebuilt(E, H, xi, moved(action, i, j, E.order))
    for kind, g in (("E", E), ("H", H)):
        if g.order == 1:
            continue
        for i in g.elements():
            for j in g.elements():
                g2 = FiniteGroup(moved(g.table, i, j, g.order), g.identity, g.inverses)
                yield kind, rebuilt(g2 if kind == "E" else E, g2 if kind == "H" else H, xi, action)


# the distinct crossed modules of the examples: rho_z2's is k_xi_z2's, and sweedler's
# 1 -> 1 has no entry to move
CROSSED = {"k_xi_z2": make_k_xi_z2, "k_h_z2": make_k_h_z2, "k_xi_s3": make_k_xi_s3,
           "bichar_z2": make_bichar_z2, "conj_s3": make_conj_s3, "sweedler_z4": make_sweedler_z4}
# per crossed module and table: (perturbations, of which the cokernel identities fail, of
# which xi(1) = 1 fails, of which some act[x] is not a bijection)
COKERNEL_COUNTS = {
    "k_xi_z2": {"xi": (2, 0, 1, 0), "action": (4, 0, 0, 4), "E": (4, 2, 0, 0), "H": (4, 0, 0, 0)},
    "k_h_z2": {"xi": (1, 0, 1, 0), "H": (4, 3, 0, 0)},
    "k_xi_s3": {"xi": (3, 3, 1, 0), "action": (18, 0, 0, 18), "E": (9, 4, 0, 0),
                "H": (36, 24, 0, 0)},
    "bichar_z2": {"action": (2, 0, 0, 2), "E": (4, 2, 0, 0)},
    "conj_s3": {"xi": (6, 5, 1, 0), "action": (36, 0, 0, 36), "E": (36, 10, 0, 0),
                "H": (36, 0, 0, 0)},
    "sweedler_z4": {"xi": (4, 1, 1, 0), "action": (16, 0, 0, 16), "E": (16, 6, 0, 0),
                    "H": (16, 0, 0, 0)},
}


def crossed_module_oracles(cm: CrossedModule) -> tuple[bool, bool, bool]:
    """Whether the cokernel identities, xi(1) = 1 and the bijectivity of each act[x] hold."""
    return (oracle_kernel_image_cokernel(cm).ok, oracle_hom_preserves_identity(cm.xi).ok,
            oracle_action_rows_bijective(cm.action).ok)


@pytest.mark.parametrize("example", list(CROSSED))
def test_crossed_module_checks_fail_wherever_a_cokernel_identity_fails(example):
    cm = CROSSED[example]().cm
    assert all(crossed_module_oracles(cm))
    counts = {}
    for kind, p in crossed_module_perturbations(cm):
        lemmas = crossed_module_oracles(p)
        if not all(lemmas):
            assert not (validate_components(p).ok and validate_crossed_module(p).ok), kind
        c = counts.setdefault(kind, [0] * 4)
        c[0] += 1
        for i, ok in enumerate(lemmas, 1):
            c[i] += not ok
    assert {kind: tuple(c) for kind, c in counts.items()} == COKERNEL_COUNTS[example]
