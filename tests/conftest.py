import pathlib

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
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


@pytest.fixture(scope="session")
def determinism_pair():
    """Two full runs of the CLI suite, computed once and shared by the tests that compare them."""
    from tests.test_cli import full_suite_outputs

    return full_suite_outputs(), full_suite_outputs()


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
