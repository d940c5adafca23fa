"""The checks that the library derives instead of running, kept as test oracles.

The validators check the axioms of a Hopf crossed-module coalgebra and nothing that follows
from them: each check they no longer run, whether a lemma, a restated validator or a
constructor law, is derived in a docstring and kept here, grouped by what replaced it.  The
`tests/test_*_oracle.py` sweeps, and `test_hopfmod`'s, run the oracles on single-entry
perturbations of the examples below and pin how often each fails; pytest does not collect
this module.  Each kind of object has one single-entry generator, `perturbed_*`, and
`conjugated_psi_perturbations` conjugates psi instead of changing one entry.

`PYTHONPATH=src python -m tests.oracles` runs every structure oracle on every single-entry
perturbation (stride 1) of each Hopf structure of `fixtures/*.json`, prints how often each
fails, and exits 1 if `full_validation_report` passes a perturbation on which one fails.
Its stdout is committed as `tests/oracle_sweep.txt`, so a change that moves a count must
come with the regenerated file.
"""

import functools
import itertools

from tests.conftest import (
    GF5,
    QQ,
    fixture_structures,
    make_bichar_z2,
    make_conj_s3,
    make_k_h_z2,
    make_k_xi_s3,
    make_k_xi_z2,
    make_rho_z2,
    make_sweedler,
    make_sweedler_z4,
)
from xmhopf.crossed import (
    CrossedModule,
    kernel_image_cokernel,
    validate_components,
    validate_crossed_module,
)
from xmhopf.errors import DefiningIdentityFailedError, XmhopfError
from xmhopf.groups import FiniteGroup, GroupAction, GroupHom
from xmhopf.hopf import (
    ComponentAlgebra,
    GradedHopfCoalgebra,
    compute_antipode,
    grouplike_inverse,
    is_grouplike,
    validate_antipode,
)
from xmhopf.hopfmod import (
    HopfXiModule,
    _span_coordinates,
    antipode_transport,
    coinvariants,
    distinguished_grouplike,
    dual_hopf_module,
    integral_space,
    is_integral,
    validate_hopf_xi_module,
)
from xmhopf.linalg import Field, Matrix
from xmhopf.repcat import AModule, GradedHom, _flatten, pullback_phi_e, validate_module
from xmhopf.report import Report, given
from xmhopf.xihopf import HopfXiAlgebra, HopfXiCoalgebra, full_validation_report, is_xi_grouplike

# -- examples ----------------------------------------------------------------------------------

MAKERS = (make_k_xi_z2, make_k_h_z2, make_k_xi_s3, make_bichar_z2, make_rho_z2, make_sweedler,
          make_conj_s3)
EXAMPLES = (
    [(f"{make.__name__[5:]} over {field!r}", make, field) for field in (QQ, GF5) for make in MAKERS]
    + [("sweedler_z4 over GF(5)", make_sweedler_z4, None)]
)
# each perturbation costs about 0.4 s on conj_s3 (7,776 Delta and 1,296 phi entries) and
# 37 ms on sweedler_z4 (1,024 and 256), so the action and lemma sweeps take every 1999th
# and every 20th entry of those two
STRIDE = {"conj_s3": 1999, "sweedler_z4": 20}
# a full report costs about 1.2 s on conj_s3 (10,590 entries), 0.1 s on sweedler_z4
# (1,604) and 5-20 ms on k_xi_s3 (67) and sweedler (164), so the stack, dual-module and
# distinguished-grouplike sweeps take every ORACLE_STRIDE-th entry; on conj_s3 that is
# one entry of phi per field
ORACLE_STRIDE = {"conj_s3": 16000, "sweedler_z4": 320, "k_xi_s3": 4, "sweedler": 3}
# conj_s3 is left out of the module sweeps: one validation of its trivial module takes
# about 1.2 s.  A perturbation of the trivial module costs about 0.13 s on sweedler_z4
# (5,120 entries of rho and psi) and 10-20 ms on k_xi_s3 and sweedler.
MODULE_EXAMPLES = [e for e in EXAMPLES if e[1] is not make_conj_s3]
MODULE_STRIDE = ORACLE_STRIDE


def build(make, field):
    return make() if field is None else make(field)


# -- single-entry generators -------------------------------------------------------------------


def bumped(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.data]
    rows[i][j] = m.field.add(rows[i][j], m.field.one)
    return Matrix(m.field, rows, m.rows, m.cols)


def _bumps(tables, stride: int, per_kind: bool):
    """(kind, table with 1 added to one entry of one of its matrices): every stride-th entry
    from entry stride // 2 of the (kind, {key: matrix}) `tables` in order, each matrix's
    entries in row-major order, counted across all tables or, when per_kind, within each."""
    groups = [[(kind, table, key, i, j) for key, m in table.items()
               for i in range(m.rows) for j in range(m.cols)] for kind, table in tables]
    if not per_kind:
        groups = [list(itertools.chain.from_iterable(groups))]
    for entries in groups:
        for kind, table, key, i, j in entries[stride // 2::stride]:
            changed = dict(table)
            changed[key] = bumped(table[key], i, j)
            yield kind, changed


STRUCTURE_MAPS = ("delta", "phi", "S", "mu", "eps")


def perturbed_structures(a: HopfXiCoalgebra, stride: int = 1, kinds=STRUCTURE_MAPS,
                         per_kind: bool = False):
    """(map, a with 1 added to one entry of it): every stride-th entry from entry stride // 2
    of the Delta_{x,y}, phi_{x,e}, S_x, mu_x and eps among `kinds`, in that order, each map's
    entries in row-major order, counted across all of them or, when per_kind, within each."""
    b, f = a.base, a.field
    tables = {"delta": b.coproduct, "phi": a.action, "S": dict(enumerate(b.antipode or ())),
              "mu": {x: c.mul for x, c in enumerate(b.components)}, "eps": {0: b.counit}}
    for kind, t in _bumps([(kind, tables[kind]) for kind in kinds], stride, per_kind):
        if kind == "phi":
            yield kind, HopfXiCoalgebra(a.cm, b, t)
            continue
        components = b.components if kind != "mu" else tuple(
            ComponentAlgebra(f, c.dim, t[x], c.unit) for x, c in enumerate(b.components))
        base = GradedHopfCoalgebra(f, b.H, components,
                                   t if kind == "delta" else b.coproduct,
                                   t[0] if kind == "eps" else b.counit,
                                   tuple(t.values()) if kind == "S" else b.antipode)
        yield kind, HopfXiCoalgebra(a.cm, base, a.action)


def perturbed_modules(m: HopfXiModule, stride: int = 1):
    """(map, m with 1 added to one entry of it): every stride-th entry from entry stride // 2
    of the rho_{x,y}, then of the psi_{x,e}, each counted on its own, each map's entries in
    row-major order."""
    for kind, t in _bumps([("rho", m.rho), ("psi", m.psi)], stride, per_kind=True):
        rho, psi = (t, m.psi) if kind == "rho" else (m.rho, t)
        yield kind, HopfXiModule(m.algebra, m.dims, m.r, rho, psi)


def perturbed_rows(rows: tuple, bound: int, next_only: bool = False):
    """((i, j, w), rows with entry (i, j) changed to w) for every entry and every index
    w < bound other than it, or only w = entry + 1 mod bound when next_only; rows is a
    tuple of tuples, walked in row-major order."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            for w in ((v + 1) % bound,) if next_only else range(bound):
                if w != v:
                    yield (i, j, w), rows[:i] + (row[:j] + (w,) + row[j + 1:],) + rows[i + 1:]


def perturbed_crossed_modules(cm: CrossedModule):
    """(table, cm with one entry of it moved to the next element): every entry of xi, of the
    action, and of the multiplication tables of E and of H, each table in row-major order;
    a table over a group of order 1 has no entry to move."""
    E, H, xi, action = cm.E, cm.H, cm.xi.map, cm.action.table

    def rebuilt(e=E, h=H, xi_map=xi, act=action):
        return CrossedModule(e, h, GroupHom(e, h, xi_map), GroupAction(h, e, act))

    for _, (changed,) in perturbed_rows((xi,), H.order, next_only=True):
        yield "xi", rebuilt(xi_map=changed)
    for _, changed in perturbed_rows(action, E.order, next_only=True):
        yield "action", rebuilt(act=changed)
    for _, table in perturbed_rows(E.table, E.order, next_only=True):
        yield "E", rebuilt(e=FiniteGroup(table, E.identity, E.inverses))
    for _, table in perturbed_rows(H.table, H.order, next_only=True):
        yield "H", rebuilt(h=FiniteGroup(table, H.identity, H.inverses))


def perturbed_scalar_tables(f: Field, table):
    """Every table with one entry raised by 1 or set to 0, in row-major order."""
    for e, row in enumerate(table):
        for g, v in enumerate(row):
            for new in (f.add(v, f.one), f.zero):
                yield [[new if (i, j) == (e, g) else w for j, w in enumerate(r)]
                       for i, r in enumerate(table)]


def perturbed_duals(b: HopfXiAlgebra, name: str):
    """b with 1 added to one entry of its structure map or unit `name`, once per entry."""
    f, maps = b.field, getattr(b, name)
    if name == "unit":
        values = (maps[:i] + (f.add(maps[i], f.one),) + maps[i + 1:] for i in range(len(maps)))
    else:
        keyed = maps if isinstance(maps, dict) else dict(enumerate(maps))
        values = (t if isinstance(maps, dict) else tuple(t.values())
                  for _, t in _bumps([(name, keyed)], 1, per_kind=False))
    for value in values:  # the constructor on b's fields, with `name` set to value
        yield HopfXiAlgebra(*(value if n == name else getattr(b, n)
                              for n in HopfXiAlgebra.__slots__))


# -- the action laws: full_validation_report checks A as its own regular Hopf module -----------

COMPATIBILITY = "(phi (x) phi) Delta = Delta phi (coproduct compatibility)"
PREMISES = ("phi_{x,1} = id", "phi_{xi(e)x,f} phi_{x,e} = phi_{x,fe}")


def oracle_xi_action(a: HopfXiCoalgebra, label=None, reduced: bool = False) -> Report:
    """Every action case: C on all (x, y, e, f), and the inverse law; when reduced, C only
    where e = 1 or f = 1 and no inverse law (oracle_action_laws).

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

    rep.identity("phi_{x,1} = id", (
        ("x={}", (x,), given, (a.phi(x, E.identity), ident[x])) for x in xs))
    rep.identity("phi_{xi(e)x,f} phi_{x,e} = phi_{x,fe}", (
        ("x={} e={} f={}", (x, e, g), given,
         (a.phi(tgt(x, e), g) @ a.phi(x, e), a.phi(x, E.mul(g, e))))
        for x in xs for e in es for g in es
    ))
    rep.identity(COMPATIBILITY, (
        ("x={} y={} e={} f={}", (x, y, e, g), given,
         (a.phi(x, e).kron(a.phi(y, g)) @ a.delta(x, y),
          a.delta(tgt(x, e), tgt(y, g)) @ a.phi(H.mul(x, y), label(x, e, g))))
        for x in xs for y in xs for e in es for g in es
        if not reduced or e == E.identity or g == E.identity
    ))

    def morphism_cases():
        for x in xs:
            for e in es:
                p, src, dst = a.phi(x, e), a.component(x), a.component(tgt(x, e))
                yield "x={} e={}: multiplication", (x, e), given, (p @ src.mul, dst.mul @ p.kron(p))
                yield "x={} e={}: unit", (x, e), given, (p @ src.unit_col(), dst.unit_col())

    rep.identity("each phi_{x,e} is an algebra morphism", morphism_cases())
    if not reduced:
        rep.identity("phi_{x,e}^-1 = phi_{xi(e)x,e^-1}", (
            ("x={} e={}", (x, e), given, (a.phi(tgt(x, e), E.inv(e)) @ a.phi(x, e), ident[x]))
            for x in xs for e in es
        ))
    return rep


def oracle_action_laws(a: HopfXiCoalgebra) -> Report:
    """phi_{x,1} = id, composition, C where e = 1 or f = 1, and algebra morphisms: the action
    validator that full_validation_report ran before A was its own regular Hopf module."""
    return oracle_xi_action(a, reduced=True)


# -- the lemmas of the axioms (full_validation_report's docstring) -----------------------------


def oracle_antipode_properties(a: GradedHopfCoalgebra) -> Report:
    """Anti-multiplicativity, unit preservation, anti-comultiplicativity, eps S_1 = eps."""
    rep = Report("antipode properties")
    H, comps = a.H, a.components
    xs = H.elements()
    rep.identity("anti-multiplicativity", (
        ("x={}", (x,), given,
         (a.S(x) @ comps[H.inv(x)].mul,
          comps[x].mul @ a.S(x).kron(a.S(x)).flip_rows(1, a.dim(x), a.dim(x), 1)))
        for x in xs
    ))
    rep.identity("unit preservation", (
        ("x={}", (x,), given, (a.S(x) @ comps[H.inv(x)].unit_col(), comps[x].unit_col()))
        for x in xs
    ))
    rep.identity("anti-comultiplicativity", (
        ("(x,y)=({},{})", (x, y), given,
         (a.delta(x, y) @ a.S(H.mul(x, y)),
          a.S(x).kron(a.S(y))
          @ a.delta(H.inv(y), H.inv(x)).flip_rows(1, a.dim(H.inv(y)), a.dim(H.inv(x)), 1)))
        for x in xs for y in xs
    ))
    rep.identity("counit compatibility", [
        ("eps S_1 != eps", (), given, (a.counit @ a.S(H.identity), a.counit)),
    ])
    return rep


def oracle_antipode_action_compat(a: HopfXiCoalgebra) -> Report:
    """phi_{x,e} S_x = S_{xi(e)x} phi_{x^-1, (x^-1)>(e^-1)} for all (x, e)."""
    rep = Report("antipode/action compatibility")
    cm, H, E = a.cm, a.H, a.E
    rep.identity("phi S = S phi'", (
        ("x={} e={}", (x, e), given,
         (a.phi(x, e) @ a.S(x),
          a.S(H.mul(cm.xi_of(e), x)) @ a.phi(H.inv(x), cm.act(H.inv(x), E.inv(e)))))
        for x in H.elements() for e in E.elements()
    ))
    return rep


def oracle_counit_preserves_unit(a: GradedHopfCoalgebra) -> Report:
    """eps(1_1) = 1."""
    rep = Report("graded bicoalgebra")
    f = a.field
    rep.identity("counit preserves the unit", [
        ("eps(1_1) != 1", (), given,
         (a.counit @ a.components[a.H.identity].unit_col(), Matrix(f, [[f.one]]))),
    ])
    return rep


def oracle_phi_preserves_unit(a: HopfXiCoalgebra) -> Report:
    """phi_{x,e}(1_x) = 1_{xi(e)x} for all (x, e)."""
    rep = Report("crossed-module action")
    cm, H = a.cm, a.H
    rep.identity("each phi_{x,e} preserves the unit", (
        ("x={} e={}", (x, e), given,
         (a.phi(x, e) @ a.component(x).unit_col(), a.component(H.mul(cm.xi_of(e), x)).unit_col()))
        for x in H.elements() for e in a.E.elements()
    ))
    return rep


def lemma_oracles(a: HopfXiCoalgebra) -> tuple[bool, bool, bool, bool]:
    """Whether the antipode lemmas, the antipode/action lemma, eps(1_1) = 1 and
    phi_{x,e}(1) = 1 hold."""
    return (oracle_antipode_properties(a.base).ok, oracle_antipode_action_compat(a).ok,
            oracle_counit_preserves_unit(a.base).ok, oracle_phi_preserves_unit(a).ok)


# -- the crossed-module lemmas (validate_hom, validate_action, kernel_image_cokernel) ----------


def oracle_kernel_image_cokernel(cm: CrossedModule) -> Report:
    """Ker(xi) central in E, Im(xi) normal in H, the projection onto Coker(xi) a homomorphism."""
    E, H = cm.E, cm.H
    kic = kernel_image_cokernel(cm)
    rep = Report("kernel/image/cokernel")
    rep.identity("kernel is central in E", (
        ("k={} e={}", (k, e), given, (E.mul(k, e), E.mul(e, k)))
        for k in kic.kernel for e in E.elements()
    ))
    image = set(kic.image)
    rep.identity("image is normal in H", (
        ("x={} i={}", (x, i), given, (H.conj(x, i) in image, True))
        for x in H.elements() for i in kic.image
    ))
    p, coker = kic.projection, kic.cokernel
    rep.identity("projection is a homomorphism", (
        ("x={} y={}", (x, y), given, (p[H.mul(x, y)], coker.mul(p[x], p[y])))
        for x in H.elements() for y in H.elements()
    ))
    return rep


def oracle_hom_preserves_identity(f: GroupHom) -> Report:
    """map(1) = 1."""
    rep = Report("group hom")
    g, h = f.source, f.target
    rep.identity("preserves identity", [
        ("map(1) = {} != {}", (f.map[g.identity], h.identity), given,
         (f.map[g.identity], h.identity)),
    ])
    return rep


def oracle_action_rows_bijective(a: GroupAction) -> Report:
    """Each act[x] is a bijection of the space."""
    rep = Report("group action")
    n = a.space.order
    rep.identity("each actor element acts bijectively", (
        ("act[{}] is not a bijection", (x,), given, (len(set(a.table[x])), n))
        for x in a.actor.elements()
    ))
    return rep


def crossed_module_oracles(cm: CrossedModule) -> tuple[bool, bool, bool]:
    """Whether the cokernel identities, xi(1) = 1 and the bijectivity of each act[x] hold."""
    return (oracle_kernel_image_cokernel(cm).ok, oracle_hom_preserves_identity(cm.xi).ok,
            oracle_action_rows_bijective(cm.action).ok)


# -- what the library computations derive (coker_action_on_kernel, grouplike_inverse, -----------
# antipode_transport)


def oracle_coker_action_on_kernel(cm: CrossedModule) -> Report:
    """Ker(xi) stable under the H-action, and the action on it constant on each coset of
    Im(xi): the checks coker_action_on_kernel no longer runs."""
    kic = kernel_image_cokernel(cm)
    rep = Report("cokernel action on kernel")
    kernel = set(kic.kernel)
    rep.identity("kernel is stable under the H-action", (
        ("x={} k={}", (x, k), given, (cm.act(x, k) in kernel, True))
        for x in cm.H.elements() for k in kic.kernel
    ))
    rep.identity("action factors through the cokernel", (
        ("coset {}: x={} vs rep {} on k={}", (c, x, rep_x, k), given,
         (cm.act(x, k), cm.act(rep_x, k)))
        for c, rep_x in enumerate(kic.section)
        for x in cm.H.elements()
        if kic.projection[x] == c
        for k in kic.kernel
    ))
    return rep


def oracle_grouplike_inverse(a: GradedHopfCoalgebra, G) -> bool:
    """Whether grouplike_inverse(a, G) is a two-sided inverse of G in every component: the
    check it no longer runs."""
    inv = grouplike_inverse(a, G)
    return all(c.multiply(G[x], inv[x]) == c.unit == c.multiply(inv[x], G[x])
               for x, c in enumerate(a.components))


def oracle_antipode_transport(a: HopfXiCoalgebra, lam: tuple) -> bool:
    """Whether antipode_transport(a, lam) is a right integral: the check it no longer runs."""
    return is_integral(a, antipode_transport(a, lam), "right")


def oracle_compute_antipode(a: GradedHopfCoalgebra):
    """compute_antipode's answer where validate_antipode passes on it, and None elsewhere: the
    acceptance rule it no longer applies."""
    s = compute_antipode(a)
    return s if s is not None and validate_antipode(a.with_antipode(s)).ok else None


def transport_oracles(a: HopfXiCoalgebra, fams) -> tuple[list, list]:
    """Whether oracle_grouplike_inverse holds for each family of `fams` that is grouplike on
    `a`, and whether oracle_antipode_transport holds for each left integral of `a`."""
    inverses = [oracle_grouplike_inverse(a.base, g) for g in fams if is_grouplike(a.base, g)]
    transports = [oracle_antipode_transport(a, lam) for lam in integral_space(a, "left")]
    return inverses, transports


# -- the validators that A's regular Hopf module replaced --------------------------------------


def oracle_component_algebra(comp: ComponentAlgebra) -> Report:
    """Associativity, column by column, and the two-sided unit."""
    rep = Report("component algebra")
    ident = Matrix.identity(comp.field, comp.dim)
    lhs = comp.mul @ comp.mul.kron(ident)
    rhs = comp.mul @ ident.kron(comp.mul)
    rep.identity("associativity", (
        ("basis triple index {}", (j,), given, (lhs.column(j), rhs.column(j)))
        for j in range(lhs.cols)
    ))
    rep.identity("two-sided unit", [
        ("1 . v != v", (), given, (comp.mul @ comp.unit_col().kron(ident), ident)),
        ("v . 1 != v", (), given, (comp.mul @ ident.kron(comp.unit_col()), ident)),
    ])
    return rep


def oracle_h_coalgebra(a: GradedHopfCoalgebra) -> Report:
    """Coassociativity and counit laws, exact, for all index triples."""
    rep = Report("graded coalgebra")
    H, f = a.H, a.field
    xs, one = H.elements(), H.identity
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]
    rep.identity("coassociativity", (
        ("(x,y,z)=({},{},{})", (x, y, z), given,
         (a.delta(x, y).kron(ident[z]) @ a.delta(H.mul(x, y), z),
          ident[x].kron(a.delta(y, z)) @ a.delta(x, H.mul(y, z))))
        for x in xs for y in xs for z in xs
    ))
    rep.identity("counit laws", (
        case for x in xs for case in (
            ("(id (x) eps) Delta_({},1) != id", (x,), given,
             (ident[x].kron(a.counit) @ a.delta(x, one), ident[x])),
            ("(eps (x) id) Delta_(1,{}) != id", (x,), given,
             (a.counit.kron(ident[x]) @ a.delta(one, x), ident[x])),
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
        ("(x,y)=({},{})", (x, y), given,
         (a.delta(x, y) @ comps[H.mul(x, y)].mul,
          comps[x].mul.kron(comps[y].mul)
          @ a.delta(x, y).kron(a.delta(x, y)).flip_rows(a.dim(x), a.dim(y), a.dim(x), a.dim(y))))
        for x in xs for y in xs
    ))
    rep.identity("coproduct preserves units", (
        ("(x,y)=({},{})", (x, y), given,
         (a.delta(x, y) @ comps[H.mul(x, y)].unit_col(),
          comps[x].unit_col().kron(comps[y].unit_col())))
        for x in xs for y in xs
    ))
    one = comps[H.identity]
    rep.identity("counit is an algebra map", [
        ("eps mu_1 != eps (x) eps", (), given, (a.counit @ one.mul, a.counit.kron(a.counit))),
        ("eps(1_1) != 1", (), given, (a.counit @ one.unit_col(), Matrix(f, [[f.one]]))),
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


# -- check (d) of a Hopf module on every case --------------------------------------------------


def oracle_hopf_xi_module(a: HopfXiCoalgebra, m: HopfXiModule) -> Report:
    """validate_hopf_xi_module with every case of each law of check (d)."""
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
                    yield ("coassociativity at (x,y,z)=({},{},{})", (x, y, z), given,
                           (a.delta(x, y).kron(ident_m[z]) @ m.rho[(H.mul(x, y), z)],
                            ident_a[x].kron(m.rho[(y, z)]) @ m.rho[(x, H.mul(y, z))]))
        for x in xs:
            yield ("counitality at x={}", (x,), given,
                   (a.counit.kron(ident_m[x]) @ m.rho[(one, x)], ident_m[x]))

    def equivariance_cases():
        for x in xs:
            yield "psi_(x,1) != id at x={}", (x,), given, (m.psi[(x, E.identity)], ident_m[x])
            for e in es:
                for g in es:
                    yield ("composition at x={} e={} f={}", (x, e, g), given,
                           (m.psi[(tgt(x, e), g)] @ m.psi[(x, e)], m.psi[(x, E.mul(g, e))]))
                yield ("action compatibility at x={} e={}", (x, e), given,
                       (m.psi[(x, e)] @ m.r[x], m.r[tgt(x, e)] @ a.phi(x, e).kron(m.psi[(x, e)])))
            for y in xs:
                for e in es:
                    for g in es:
                        label = E.mul(e, cm.act(x, g))
                        yield ("coaction compatibility at x={} y={} e={} f={}", (x, y, e, g), given,
                               (a.phi(x, e).kron(m.psi[(y, g)]) @ m.rho[(x, y)],
                                m.rho[(tgt(x, e), tgt(y, g))] @ m.psi[(H.mul(x, y), label)]))

    rep.merge(validate_module(a, AModule(a, m.dims, m.r)))
    rep.identity("(b) (M, rho) is a comodule", comodule_cases())
    rep.identity("(c) action and coaction intertwine", (
        ("(x,y)=({},{})", (x, y), given,
         (m.rho[(x, y)] @ m.r[H.mul(x, y)],
          a.component(x).mul.kron(m.r[y])
          @ a.delta(x, y).kron(m.rho[(x, y)]).flip_rows(a.dim(x), a.dim(y), a.dim(x), m.dim(y))))
        for x in xs for y in xs
    ))
    rep.identity("(d) psi equivariance laws", equivariance_cases())
    return rep


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


# -- the laws the directive constructors no longer check ---------------------------------------


def oracle_bicharacter(f: Field, e_group: FiniteGroup, g_group: FiniteGroup, table) -> Report:
    """omega nonzero, omega(1,.) = omega(.,1) = 1, and multiplicative in both arguments."""
    es, gs = e_group.elements(), g_group.elements()
    rep = Report("bicharacter")
    rep.identity("nonzero", (("omega({},{})", (e, g), given, (table[e][g] == f.zero, False))
                             for e in es for g in gs))
    rep.identity("omega(1,g) = 1", (
        ("g={}", (g,), given, (table[e_group.identity][g], f.one)) for g in gs))
    rep.identity("omega(e,1) = 1", (
        ("e={}", (e,), given, (table[e][g_group.identity], f.one)) for e in es))
    rep.identity("multiplicative in E", (
        ("({},{},{})", (a, b, g), given,
         (table[e_group.mul(a, b)][g], f.mul(table[a][g], table[b][g])))
        for a in es for b in es for g in gs
    ))
    rep.identity("multiplicative in G", (
        ("({},{},{})", (e, g, h), given,
         (table[e][g_group.mul(g, h)], f.mul(table[e][g], table[e][h])))
        for e in es for g in gs for h in gs
    ))
    return rep


def oracle_h_action(classical: GradedHopfCoalgebra, H: FiniteGroup, rho) -> Report:
    """Each rho_x an algebra automorphism of A, and rho: H -> Aut_alg(A) a homomorphism."""
    alg, f, xs = classical.components[0], classical.field, H.elements()
    rep = Report("homomorphism into Aut_alg(A)")
    rep.identity("invertible", (("x={}", (x,), given, (rho[x].is_invertible(), True)) for x in xs))
    rep.identity("multiplicative", (
        ("x={}", (x,), given, (rho[x] @ alg.mul, alg.mul @ rho[x].kron(rho[x]))) for x in xs))
    rep.identity("unital", (
        ("x={}", (x,), given, (rho[x] @ alg.unit_col(), alg.unit_col())) for x in xs))
    rep.identity("rho(1) = id", [("x=1", (), given, (rho[H.identity], Matrix.identity(f, alg.dim)))])
    rep.identity("homomorphism", (("({},{})", (x, y), given, (rho[x] @ rho[y], rho[H.mul(x, y)]))
                                  for x in xs for y in xs))
    return rep


def oracle_abelian(e: FiniteGroup) -> bool:
    return all(e.mul(a, b) == e.mul(b, a) for a in e.elements() for b in e.elements())


# -- what `report` derives about A's dual Hopf module and distinguished grouplike --------------


def reference_gate(a, m, right) -> str | None:
    """Why the coinvariants of m = dual_hopf_module(a) are not the right integrals
    `right`, reindexed by lambda -> (lambda_{x^-1}), or None: the coinvariant half of
    the gate that `report` no longer runs (hopfmod's docstring)."""
    f, H = a.field, a.H
    coinv = coinvariants(a, m)
    if len(coinv) != len(right):
        return f"coinvariants dim {len(coinv)} != right integrals dim {len(right)}"
    reindexed = [_flatten(lam[H.inv(x)] for x in H.elements()) for lam in right]
    if _span_coordinates(f, coinv, Matrix(f, reindexed, len(right), sum(m.dims)).T) is None:
        return "reindexed integral is not coinvariant"
    return None


def oracle_distinguished_grouplike(a: HopfXiCoalgebra, right: list) -> Report | None:
    """The checks distinguished_grouplike no longer runs on the g it computes from the right
    integrals `right`, or None where it raises (a failure that `report` keeps): the defining
    identity (id (x) lambda_y) Delta_{x,y} = g_x lambda_{xy} at every (x, y), g grouplike,
    and g action-invariant (is_xi_grouplike)."""
    try:
        g = distinguished_grouplike(a, right)
    except DefiningIdentityFailedError:
        return None
    (lam,), f, H = right, a.field, a.H
    rep = Report("distinguished grouplike")
    rep.identity("defining identity", (
        ("({},{})", (x, y), given,
         (Matrix.identity(f, a.dim(x)).kron_matmul(Matrix.row(f, lam[y]), a.delta(x, y)),
          Matrix.col(f, g[x]) @ Matrix.row(f, lam[H.mul(x, y)])))
        for x in H.elements() for y in H.elements()
    ))
    rep.settle("grouplike", is_grouplike(a.base, g))
    try:
        invariant = is_xi_grouplike(a, g)
    except XmhopfError:  # g is not grouplike, or phi_{x,e}(g_x) is no multiple of g_{xi(e)x}
        invariant = False
    rep.settle("action-invariant", invariant)
    return rep


# -- the candidate checks: integral_report and hom_is_linear evaluate their solvers' rows -------


def oracle_integral_report(a: HopfXiCoalgebra, lam: tuple, side: str) -> Report:
    """integral_report as product identities, its form before it evaluated the rows that
    integral_space eliminates: (id (x) lambda_y) Delta_{x,y} = 1_x lambda_xy on the left, or
    (lambda_x (x) id) Delta_{x,y} = 1_y lambda_xy on the right, at each (x, y), and
    lambda_{xi(e)x} phi_{x,e} = lambda_x at each (x, e); same checks, labels and order."""
    f, H, E = a.field, a.H, a.E
    xs = H.elements()
    ident = [Matrix.identity(f, a.dim(x)) for x in xs]
    rows = [Matrix.row(f, v) for v in lam]

    def coproduct_condition(left, right, delta_xy, unit, lam_xy):
        return left.kron_matmul(right, delta_xy), unit @ lam_xy

    def action_invariance(lam_tgt, phi_xe, lam_x):
        return lam_tgt @ phi_xe, lam_x

    def coproduct_cases():
        for x in xs:
            for y in xs:
                lam_xy = rows[H.mul(x, y)]
                if side == "left":
                    operands = (ident[x], rows[y], a.delta(x, y), a.component(x).unit_col(), lam_xy)
                else:
                    operands = (rows[x], ident[y], a.delta(x, y), a.component(y).unit_col(), lam_xy)
                yield "(x,y)=({},{})", (x, y), coproduct_condition, operands

    rep = Report(f"{side} integral candidate")
    rep.identity("coproduct condition", coproduct_cases())
    rep.identity("action invariance", (
        ("(x,e)=({},{})", (x, e), action_invariance,
         (rows[H.mul(a.cm.xi_of(e), x)], a.phi(x, e), rows[x]))
        for x in xs for e in E.elements()
    ))
    return rep


def oracle_hom_is_linear(a: HopfXiCoalgebra, m: AModule, n: AModule, h: GradedHom) -> bool:
    """hom_is_linear as a product identity, its form before it evaluated the rows that
    hom_space eliminates: alpha_x r_M(x) = r_{phi_e^*N}(x) (id (x) alpha_x) for each block
    alpha_x of h."""
    pulled = pullback_phi_e(a, n, h.degree)
    return all(
        h.block(x) @ m.r(x)
        == pulled.r(x).matmul_kron(Matrix.identity(a.field, a.dim(x)), h.block(x))
        for x in a.H.elements()
    )


# -- sweeps ------------------------------------------------------------------------------------


class Tally(dict):
    """kind -> [objects, then how many raised each flag]: the counts that the sweeps pin."""

    def add(self, kind, *flags):
        c = self.setdefault(kind, [0] * (1 + len(flags)))
        c[0] += 1
        for i, flag in enumerate(flags, 1):
            c[i] += bool(flag)

    def counts(self) -> dict:
        return {kind: tuple(c) for kind, c in self.items()}


@functools.cache
def swept_structures(name: str):
    """(a, [(map, perturbation, whether full_validation_report passes it, its right
    integrals)]) for the example `name` of EXAMPLES, over perturbed_structures with
    ORACLE_STRIDE: built once a session, for the stack, dual-module and distinguished
    grouplike sweeps."""
    _, make, field = next(e for e in EXAMPLES if e[0] == name)
    a = build(make, field)
    stride = ORACLE_STRIDE.get(name.split()[0], 1)
    return a, [(kind, p, full_validation_report(p).ok, integral_space(p, "right"))
               for kind, p in perturbed_structures(a, stride)]


def structure_oracles(a: HopfXiCoalgebra) -> dict:
    """{oracle: whether it holds on a} for every oracle of a Hopf structure."""
    stack, coalgebra, bicoalgebra, action = oracle_stack(a)
    lemmas = lemma_oracles(a)
    right = integral_space(a, "right")
    dual = dual_hopf_module(a)
    grouplike = oracle_distinguished_grouplike(a, right)
    return {
        "graded coalgebra": coalgebra,
        "graded bicoalgebra": bicoalgebra,
        "action laws": action,
        "every action case": oracle_xi_action(a).ok,
        "validator stack": stack,
        "antipode lemmas": lemmas[0],
        "antipode/action lemma": lemmas[1],
        "eps(1_1) = 1": lemmas[2],
        "phi_{x,e}(1) = 1": lemmas[3],
        "dual Hopf module axioms": validate_hopf_xi_module(a, dual).ok,
        "dual Hopf module coinvariants": reference_gate(a, dual, right) is None,
        "distinguished grouplike": grouplike is None or grouplike.ok,
    }


def exhaustive_sweep() -> int:
    """Every structure oracle on every single-entry perturbation of every fixture structure:
    print the counts, and return 1 if the report passes anywhere an oracle fails."""
    structures = fixture_structures()
    total = report_fails = 0
    fails, missed = {}, []
    for label, a in structures:
        for kind, p in perturbed_structures(a):
            ok = full_validation_report(p).ok
            total += 1
            report_fails += not ok
            for oracle, holds in structure_oracles(p).items():
                fails[oracle] = fails.get(oracle, 0) + (not holds)
                if ok and not holds:
                    missed.append(f"{label} {kind} #{total}: {oracle}")
    print(f"{total} single-entry perturbations of {len(structures)} Hopf structures; "
          f"full_validation_report fails on {report_fails}")
    for oracle, n in fails.items():
        print(f"{oracle}: fails on {n}")
    for line in missed:
        print(f"the report passes where an oracle fails: {line}")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(exhaustive_sweep())
