import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
# the deeper run of the kernel oracles, chosen with `pytest --hypothesis-profile deep`, which
# hypothesis's plugin loads after this file's default
settings.register_profile("deep", derandomize=True, max_examples=500, deadline=None)
settings.load_profile("ci")

from xmhopf import (  # noqa: E402
    Field,
    GroupHom,
    cyclic,
    group_algebra,
    identity_cm,
    inclusion,
    mk_bicharacter_group_algebra,
    mk_from_h_action,
    mk_trivial,
    symmetric,
    trivial_over,
)
from xmhopf.linalg import Matrix  # noqa: E402

QQ = Field.rational()
GF5 = Field.prime(5)
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def fixture_structures():
    """(file:name, structure) for every Hopf structure in the shipped fixture documents."""
    from xmhopf.docio import parse

    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse(path.read_bytes())
        out.extend((f"{path.name}:{name}", a) for name, a in sorted(doc.hopf.items()))
    return out


def spans(f, vectors, target) -> bool:
    """Whether target is a linear combination of vectors."""
    cols = Matrix(f, [[v[i] for v in vectors] for i in range(len(target))],
                  len(target), len(vectors))
    return cols.solve(tuple(target)) is not None


def z3_in_s3():
    """The normal subgroup of 3-cycles: generator (1,2,0) has index 3."""
    return GroupHom(cyclic(3), symmetric(3), (0, 3, 4))


def sign_bicharacter(field):
    """omega(e, g) = (-1)^(e g) on Z/2 x Z/2."""
    minus_one = field.of(-1)

    def omega(e, g):
        return minus_one if (e == 1 and g == 1) else field.one

    return omega


def make_k_xi_z2(field=QQ):
    return mk_trivial(identity_cm(cyclic(2)), field)


def make_k_h_z2(field=QQ):
    return mk_trivial(trivial_over(cyclic(2)), field)


def make_k_xi_s3(field=QQ):
    return mk_trivial(inclusion(z3_in_s3()), field)


def make_bichar_z2(field=QQ):
    z2 = cyclic(2)
    return mk_bicharacter_group_algebra(field, z2, z2, sign_bicharacter(field))


def sign_flip_rho(field):
    """rho_h on k[Z/2]: fixes 1, negates g."""
    return [
        Matrix.identity(field, 2),
        Matrix(field, [[field.one, field.zero], [field.zero, field.of(-1)]]),
    ]


def make_rho_z2(field=QQ):
    cm = identity_cm(cyclic(2))
    return mk_from_h_action(cm, group_algebra(field, cyclic(2)), sign_flip_rho(field))


def conjugation_rho(field, g):
    """rho_h on k[G]: the algebra automorphism g -> h g h^-1."""
    return [
        Matrix(field, [[field.one if i == g.mul(g.mul(h, j), g.inv(h)) else field.zero
                        for j in g.elements()] for i in g.elements()])
        for h in g.elements()
    ]


def make_conj_s3(field=GF5):
    """k[S3] over id: S3 -> S3, twisted by conjugation.

    The action phi_{x,e} = rho_e has image Inn(S3), which is nonabelian, so
    this structure tells e(x > f) from (x > f)e in the compatibility axioms;
    every other example acts trivially or through an abelian image.
    """
    s3 = symmetric(3)
    return mk_from_h_action(identity_cm(s3), group_algebra(field, s3), conjugation_rho(field, s3))


def make_sweedler(field=QQ):
    """The 4-dimensional non-unimodular Hopf algebra, over the point.

    Basis (1, g, x, gx) with g^2 = 1, x^2 = 0, xg = -gx; the coproduct is
    Delta(g) = g (x) g, Delta(x) = 1 (x) x + x (x) g.  Wrapped as a
    crossed-module structure over 1 -> 1.
    """
    from xmhopf.crossed import trivial_over
    from xmhopf.hopf import ComponentAlgebra, GradedHopfCoalgebra, compute_antipode
    from xmhopf.xihopf import HopfXiCoalgebra

    f = field
    o, z = f.one, f.zero
    n = f.of(-1)
    zero4 = [z, z, z, z]

    def vec(**coords):
        out = list(zero4)
        for key, val in coords.items():
            out[{"one": 0, "g": 1, "x": 2, "gx": 3}[key]] = val
        return out

    c = [
        [vec(one=o), vec(g=o), vec(x=o), vec(gx=o)],          # 1 . -
        [vec(g=o), vec(one=o), vec(gx=o), vec(x=o)],          # g . -
        [vec(x=o), vec(gx=n), zero4, zero4],                  # x . -
        [vec(gx=o), vec(x=n), zero4, zero4],                  # gx . -
    ]
    alg = ComponentAlgebra.from_structure_constants(f, c, tuple(vec(one=o)))

    from xmhopf.linalg import Matrix

    delta_cols = {
        0: {(0, 0): o},                 # Delta(1) = 1 (x) 1
        1: {(1, 1): o},                 # Delta(g) = g (x) g
        2: {(0, 2): o, (2, 1): o},      # Delta(x) = 1 (x) x + x (x) g
        3: {(1, 3): o, (3, 0): o},      # Delta(gx) = g (x) gx + gx (x) 1
    }
    rows = [[z] * 4 for _ in range(16)]
    for j, entries in delta_cols.items():
        for (u, v), val in entries.items():
            rows[u * 4 + v][j] = val
    delta = Matrix(f, rows)
    counit = Matrix.row(f, (o, o, z, z))

    cm = trivial_over(cyclic(1))
    base = GradedHopfCoalgebra(f, cm.H, (alg,), {(0, 0): delta}, counit)
    base = base.with_antipode(compute_antipode(base))
    return HopfXiCoalgebra(cm, base, {(0, 0): Matrix.identity(f, 4)})


def make_sweedler_z4():
    """Sweedler's algebra over GF(5), twisted over id: Z/4 -> Z/4 by rho_k(x) = 2^k x.

    2 has order 4 mod 5, so the integrals scale by 2^-k on A_k: lambda_x and
    lambda_{x^-1} differ, which no other example shows.
    """
    a = make_sweedler(GF5)
    return mk_from_h_action(identity_cm(cyclic(4)), a.base, [sweedler_rho(k) for k in range(4)])


def sweedler_rho(k: int) -> Matrix:
    """rho_k on Sweedler's algebra over GF(5): fixes 1 and g, scales x and gx by 2^k."""
    f = GF5
    diag = (f.one, f.one, f.of(2**k), f.of(2**k))
    return Matrix(f, [[diag[i] if i == j else f.zero for j in range(4)] for i in range(4)])


def make_unequal_dims(field=QQ):
    """A well-shaped structure over id: Z/2 -> Z/2 whose components have dims 2 and 3, so
    that a flip with two A-dimensions swapped moves entries; no other test structure has
    dim A_x varying with x.  Its axioms need not hold.

    A_x is the algebra of functions on the set S_x = {0, ..., dim A_x - 1}, with the point
    idempotents as basis.  Delta_{x,y} and phi_{x,e} are pullbacks along seeded maps
    S_x x S_y -> S_{xy} and S_{xi(e)x} -> S_x, so the bialgebra law and each phi's
    multiplicativity hold, and every check (c) case of the regular Hopf module passes.  Each
    of these maps sends 0 to 0 (and phi_{x,1} is the identity), so the evaluations at 0
    form a left and a right integral.  The counit is the evaluation at 0 and each S_x is
    the identity.
    """
    import random

    from xmhopf.crossed import identity_cm
    from xmhopf.hopf import ComponentAlgebra, GradedHopfCoalgebra
    from xmhopf.xihopf import HopfXiCoalgebra

    rng, f, dims = random.Random(0), field, (2, 3)
    cm = identity_cm(cyclic(2))
    H = cm.H

    def point(n, i):
        return [f.one if k == i else f.zero for k in range(n)]

    def pullback(source: list, n: int) -> Matrix:
        """The matrix of e_u -> the sum of e_s over the s with source[s] = u, on k^n."""
        return Matrix(f, [[f.one if u == target else f.zero for u in range(n)]
                          for target in source], len(source), n)

    algebras = tuple(ComponentAlgebra.from_structure_constants(
        f, [[point(n, i) if i == j else point(n, None) for j in range(n)] for i in range(n)],
        tuple([f.one] * n)) for n in dims)
    coproduct = {}
    for x in H.elements():
        for y in H.elements():
            dx, dy, dxy = dims[x], dims[y], dims[H.mul(x, y)]
            # (s, t) with s = 0 or t = 0 goes to 0, the others to seeded points
            product = [0 if s == 0 or t == 0 else rng.randrange(dxy)
                       for s in range(dx) for t in range(dy)]
            coproduct[(x, y)] = pullback(product, dxy)
    action = {}
    for x in H.elements():
        for e in cm.E.elements():
            # S_{xi(e)x} -> S_x: 0 goes to 0, the others to seeded points
            points = [0] + [rng.randrange(dims[x]) for _ in range(dims[H.mul(cm.xi_of(e), x)] - 1)]
            action[(x, e)] = (Matrix.identity(f, dims[x]) if e == cm.E.identity
                              else pullback(points, dims[x]))
    base = GradedHopfCoalgebra(f, H, algebras, coproduct, Matrix.row(f, point(dims[0], 0)))
    base = base.with_antipode([Matrix.identity(f, n) for n in dims])
    return HopfXiCoalgebra(cm, base, action)


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "xmhopf.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def cli_env():
    """The environment of a child `python -S`: no PYTHON* variables, and src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(FIXTURES.parent / "src")
    return env


def full_suite_outputs(pool):
    """The outputs of the CLI suite, each command a child process started through `pool`, in
    the suite's order."""
    commands = [
        ("verify", "k_xi_z2.json", ["k_xi_z2"]),
        ("verify", "bichar_z2.json", ["bichar_z2"]),
        ("verify", "k_xi_s3.json", ["k_xi_s3"]),
        ("verify", "rho_z2.json", ["rho_z2"]),
        ("integrals", "k_xi_z2.json", ["k_xi_z2"]),
        ("integrals", "bichar_z2.json", ["bichar_z2"]),
        ("grouplikes", "bichar_z2.json", ["bichar_z2"]),
        ("dual", "bichar_z2.json", ["bichar_z2"]),
        ("structure-theorem", "k_xi_z2.json", ["k_xi_z2", "dual_mod"]),
        ("hom", "k_xi_z2.json", ["k_xi_z2", "k1", "kh"]),
        ("report", "k_xi_z2.json", ["k_xi_z2"]),
    ]
    calls = [(cmd, doc, tuple(args), flags)
             for cmd, doc, args in commands for flags in ((), ("--json",))]
    procs = pool.map(lambda c: run_cli(c[0], str(FIXTURES / c[1]), *c[2], *c[3]), calls)
    return [(*call, proc.returncode, proc.stdout) for call, proc in zip(calls, procs)]


WELL_FORMED = {
    "field": {"kind": "rational"},
    "groups": {"g": {"cyclic": 2}},
    "crossed_modules": {"cm": {"identity": "g"}},
    "hopf": {"k": {"trivial": "cm"}},
}

# the bialgebra k[{1, z}], z^2 = z, Delta(g) = g (x) g: well formed, but z has no antipode
NO_ANTIPODE = {
    "field": {"kind": "rational"},
    "groups": {"one": {"cyclic": 1}},
    "crossed_modules": {"triv": {"trivial_over": "one"}},
    "hopf": {"bi": {
        "cm": "triv",
        "components": [{"mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "1"]]],
                        "unit": ["1", "0"]}],
        "coproduct": {"0,0": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]},
        "counit": ["1", "1"],
        "action": {"0,0": [["1", "0"], ["0", "1"]]},
    }},
}

GF5_FIELD = {"kind": "prime", "characteristic": 5}

# each entry replaces sections of WELL_FORMED; the result must be an input error (exit 2)
MALFORMED = {
    "groups-not-object": {"groups": []},
    "hopf-not-object": {"hopf": "x"},
    "cyclic-0": {"groups": {"g": {"cyclic": 0}}},
    "cyclic-negative": {"groups": {"g": {"cyclic": -2}}},
    "symmetric-9": {"groups": {"g": {"symmetric": 9}}},
    "table-entry-5": {"groups": {"g": {"table": [[0, 5], [1, 0]]}}},
    # a group has an identity; an empty table used to give a failing report, exit 1
    "table-empty": {"groups": {"g": {"table": []}}},
    "xi-entry-7": {
        "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [0, 7], "action": [[0, 1], [0, 1]]}}
    },
    "action-entry-9": {
        "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [0, 1], "action": [[0, 1], [0, 9]]}}
    },
    "inclusion-entry-9": {
        "crossed_modules": {"cm": {"inclusion": {"source": "g", "target": "g", "map": [0, 9]}}}
    },
    "line-degree-7": {"modules": {"m": {"over": "k", "line": {"degree": 7, "character": ["1"]}}}},
    "line-degree-negative": {
        "modules": {"m": {"over": "k", "line": {"degree": -1, "character": ["1"]}}}
    },
    "regular-5": {"modules": {"m": {"over": "k", "regular": 5}}},
    "regular-negative": {"modules": {"m": {"over": "k", "regular": -1}}},
    "trivial-hopf-module-negative": {"hopf_modules": {"m": {"over": "k", "trivial": -1}}},
    # JSON true and false are not integers
    "cyclic-true": {"groups": {"g": {"cyclic": True}}},
    "symmetric-true": {"groups": {"g": {"symmetric": True}}},
    "order-true": {"groups": {"g": {"order": True, "table": [[0]]}}},
    "table-entry-false": {"groups": {"g": {"table": [[0, 1], [1, False]]}}},
    # labels are strings; a list label used to reach set() and print a traceback, exit 1
    "elements-not-strings": {"groups": {"g": {"cyclic": 2, "elements": [["a"], ["b"]]}}},
    "xi-entry-true": {
        "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [0, True], "action": [[0, 1], [0, 1]]}}
    },
    "line-degree-true": {
        "modules": {"m": {"over": "k", "line": {"degree": True, "character": ["1"]}}}
    },
    "regular-true": {"modules": {"m": {"over": "k", "regular": True}}},
    "dims-true": {
        "modules": {"m": {"over": "k", "dims": [True, 0], "actions": [[["1"]], []]}}
    },
    "trivial-hopf-module-true": {"hopf_modules": {"m": {"over": "k", "trivial": True}}},
    # one action matrix per group element, no more and no fewer
    "module-extra-action": {
        "modules": {"m": {"over": "k", "dims": [1, 0], "actions": [[["1"]], [], []]}}
    },
    "module-missing-action": {"modules": {"m": {"over": "k", "dims": [1, 0], "actions": [[["1"]]]}}},
    "hopf-module-extra-r": {
        "hopf_modules": {"m": {"over": "k", "dims": [1, 0], "r": [[["1"]], [], []]}}
    },
    # the unit and dual directives take no arguments: their only value is true
    "unit-string": {"modules": {"m": {"over": "k", "unit": "no"}}},
    "unit-1": {"modules": {"m": {"over": "k", "unit": 1}}},
    "dual-string": {"hopf_modules": {"m": {"over": "k", "dual": "false"}}},
    # values a constructor rejects
    "inclusion-not-injective": {
        "crossed_modules": {"cm": {"inclusion": {"source": "g", "target": "g", "map": [0, 0]}}}
    },
    "component-mul-empty": {
        "hopf": {"k": {"cm": "cm", "components": [{"mul": [], "unit": []}] * 2}}
    },
    "bicharacter-omega-rows-not-lists": {
        "hopf": {"k": {"bicharacter": {"E": "g", "G": "g", "omega": [1, 2]}}}
    },
    # a rational literal is -?digits(/digits)?: Fraction's other forms are not scalars
    "scalar-exponent": {"grouplikes": {"s": {"in": "k", "family": [["1e9"], ["1"]]}}},
    "scalar-decimal": {"grouplikes": {"s": {"in": "k", "family": [["1.5"], ["1"]]}}},
    "scalar-plus": {"grouplikes": {"s": {"in": "k", "family": [["+1"], ["1"]]}}},
    "scalar-space": {"grouplikes": {"s": {"in": "k", "family": [[" 1"], ["1"]]}}},
    # the bounds, checked before anything of that size is built: the trivial structure over
    # Z/39 costs 2.6e7 (docio._check_cost), and a group order is at most 100 (docio._order)
    "cost-above-bound": {"groups": {"g": {"cyclic": 39}}},
    "cyclic-101": {"groups": {"g": {"cyclic": 101}}},
    "characteristic-6": {"field": {"kind": "prime", "characteristic": 6}},
    # a literal of Q, or a residue out of range, in a GF(5) document (FieldMismatchError)
    "gf5-rational-literal": {"field": GF5_FIELD,
                             "grouplikes": {"s": {"in": "k", "family": [["1/2"], [1]]}}},
    "gf5-residue-5": {"field": GF5_FIELD, "grouplikes": {"s": {"in": "k", "family": [[5], [1]]}}},
    "name-empty": {"modules": {"": {"over": "k", "unit": True}}},
    "name-duplicate": {"modules": {"g": {"over": "k", "unit": True}}},
    # built when `verify - g` looks it up
    "dual-without-antipode": dict(NO_ANTIPODE, hopf_modules={"g": {"over": "bi", "dual": True}}),
    # one per refusal of docio's section parsers that no entry above reaches
    # (test_docio.py::test_every_parse_refusal_is_reached keeps this list complete)
    "field-kind-real": {"field": {"kind": "real"}},
    "elements-repeated": {"groups": {"g": {"cyclic": 2, "elements": ["a", "a"]}}},
    "product-no-factors": {"groups": {"g": {"product": []}}},
    "table-ragged": {"groups": {"g": {"table": [[0, 1], [1]]}}},
    "group-constructor-unknown": {"groups": {"g": {"dihedral": 3}}},
    "xi-short": {
        "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [0], "action": [[0, 1], [0, 1]]}}
    },
    "action-table-short": {
        "crossed_modules": {"cm": {"E": "g", "H": "g", "xi": [0, 1], "action": [[0, 1]]}}
    },
    "crossed-module-constructor-unknown": {"crossed_modules": {"cm": {"kernel": "g"}}},
    "hopf-components-short": {"hopf": {"k": {"cm": "cm", "components": []}}},
    "component-mul-not-cubic": {
        "hopf": {"k": {"cm": "cm", "components": [{"mul": [[]], "unit": ["1"]}] * 2}}
    },
    # explicit k[Z/2]-graded structure constants, complete up to a short antipode
    "antipode-short": {"hopf": {"k": {
        "cm": "cm",
        "components": [{"mul": [[["1"]]], "unit": ["1"]}] * 2,
        "coproduct": {f"{x},{y}": [["1"]] for x in range(2) for y in range(2)},
        "counit": ["1"],
        "antipode": [[["1"]]],
    }}},
    "module-action-rows-not-lists": {
        "modules": {"m": {"over": "k", "dims": [1, 0], "actions": [["1"], []]}}
    },
    "module-action-extra-row": {
        "modules": {"m": {"over": "k", "dims": [1, 0], "actions": [[["1"], ["1"]], []]}}
    },
    "hopf-module-coaction-missing-entry": {
        "hopf_modules": {"m": {"over": "k", "dims": [1, 0], "r": [[["1"]], []], "rho": {}}}
    },
    "family-vector-long": {"grouplikes": {"s": {"in": "k", "family": [["1", "0"], ["1"]]}}},
    "family-short": {"grouplikes": {"s": {"in": "k", "family": [["1"]]}}},
    "integral-side-middle": {
        "integrals": {"l": {"in": "k", "side": "middle", "family": [["1"], ["1"]]}}
    },
}

# each entry replaces sections of WELL_FORMED; the result is read, and `verify` of each of its
# objects ends in a verdict (exit 0 or 1)
CONSTRUCTS = {
    "product-group": {"groups": {"h": {"cyclic": 2}, "g": {"product": ["h", "h"]}}},
    "to-point": {"crossed_modules": {"cm": {"to_point": "g"}}},
    # its antipode check fails: "antipode missing and not computable"
    "antipode-not-computable": NO_ANTIPODE,
}

# entries whose construction waits for first use: their references, scalars and
# shapes are still checked under every command
DEFERRED_MALFORMED = {
    "bicharacter-unknown-group": {
        "hopf": {"k": {"trivial": "cm"}, "b": {"bicharacter": {"E": "x", "G": "g", "omega": []}}}
    },
    "bicharacter-bad-scalar": {
        "hopf": {"k": {"trivial": "cm"},
                 "b": {"bicharacter": {"E": "g", "G": "g", "omega": [["1", "1"], ["1", "z"]]}}}
    },
    "from-h-action-rho-shape": {
        "hopf": {"k": {"trivial": "cm"},
                 "t": {"from_h_action": {"cm": "cm", "algebra": "k", "rho": [[["1", "0"]]]}}}
    },
    "from-pi-unknown-base": {
        "hopf": {"k": {"trivial": "cm"},
                 "p": {"from_pi_coalgebra": {"cm": "cm", "base": "nope"}}}
    },
    "dual-over-unknown": {"hopf_modules": {"m": {"over": "nope", "dual": True}}},
}


@pytest.fixture(scope="session")
def determinism_pair():
    """Two full runs of the CLI suite, computed once and shared by the tests that compare them.

    Each run starts its children two at a time; each child draws its own hash seed.
    """
    with ThreadPoolExecutor(2) as pool:
        return full_suite_outputs(pool), full_suite_outputs(pool)


@pytest.fixture(scope="session")
def conj_s3():
    """Built once per session and shared by every test that uses it."""
    return make_conj_s3()


@pytest.fixture
def k_xi_z2():
    return make_k_xi_z2()


@pytest.fixture
def k_h_z2():
    return make_k_h_z2()


@pytest.fixture
def k_xi_s3():
    return make_k_xi_s3()


@pytest.fixture
def bichar_z2():
    return make_bichar_z2()


@pytest.fixture
def rho_z2():
    return make_rho_z2()
