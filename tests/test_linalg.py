import copy
import math
import operator
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xmhopf.errors import DivisionByZeroError, MixedFieldsError, ShapeMismatchError
from xmhopf.linalg import _MR_LIMIT, Field, Matrix, Rational, _is_prime

QQ = Field.rational()
GF5 = Field.prime(5)
GF7 = Field.prime(7)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)
gf7_elems = st.integers(min_value=0, max_value=6)


def test_fraction_arithmetic():
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == Fraction(5, 6)
    assert QQ.sub(QQ.one, QQ.parse("1/4")) == Fraction(3, 4)
    assert QQ.mul(QQ.parse("2/3"), QQ.inv(QQ.parse("4/9"))) == Fraction(3, 2)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-2/4", Fraction(-1, 2)), ("0/7", Fraction(0)), ("-0", Fraction(0)),
    ("007/010", Fraction(7, 10)), (5, Fraction(5)),
])
def test_rational_literal_grammar_accepts(text, value):
    assert QQ.parse(text) == value


@pytest.mark.parametrize("text", [
    "1e9", "1.5", ".5", "+1", " 1", "1 ", "1_000", "1/0", "1/00", "1/-2", "-", "", "/2", "1/",
    "--1", "\u0661", "0x10", "inf", "nan", True, None, 1.5, ["1"],
    # digits outside ASCII: U+00B2 SUPERSCRIPT TWO, Arabic-Indic one and three
    "\u00b2", "1/\u0663", "-\u0661",
])
def test_rational_literal_grammar_refuses(text):
    with pytest.raises(ValueError, match="not a rational literal"):
        QQ.parse(text)


# The grammar of a rational literal, as a regular expression: ASCII digits only ([0-9])
RATIONAL_GRAMMAR = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def test_rational_literal_reader_keeps_the_grammar():
    # every text of up to four characters over an alphabet that meets each part of the grammar
    alphabet = ["-", "0", "1", "/", ".", " ", "+", "\n", "\u0661", "\u00b2"]
    texts = [""]
    for _ in range(4):
        texts += [t + c for t in texts if len(t) == len(texts[-1]) for c in alphabet]
    assert len(texts) == sum(10**k for k in range(5))
    for text in texts:
        match = RATIONAL_GRAMMAR.fullmatch(text)
        if match is None:
            with pytest.raises(ValueError, match="not a rational literal"):
                QQ.parse(text)
        else:
            num, den = match.groups()
            assert QQ.parse(text) == Fraction(int(num), int(den or 1)), text


@given(rationals)
def test_rational_literal_round_trips_through_show(a):
    assert QQ.parse(QQ.show(a)) == a


def test_gf7_inverse_against_brute_force():
    # oracle: scan all residues for 3 * x = 1 mod 7
    expected = next(x for x in range(7) if (3 * x) % 7 == 1)
    assert expected == 5
    assert GF7.inv(3) == 5
    for a in range(1, 7):
        oracle = next(x for x in range(7) if (a * x) % 7 == 1)
        assert GF7.inv(a) == oracle


def test_multiplicative_identity():
    for f in (QQ, GF7):
        for raw in range(-3, 4):
            a = f.of(raw)
            assert f.mul(a, f.one) == a


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZeroError):
        GF5.inv(0)


def test_field_validation():
    with pytest.raises(ValueError):
        Field.prime(6)


# Rational against fractions.Fraction, the reference: one set of numerators per sign and one
# denominator per class, among them a multiple of the prime that numeric hashes reduce by
SIGNS = {"negative": (-1, -6, -35, -2**70), "zero": (0,), "positive": (1, 6, 35, 2**70)}
DENOMINATORS = {"one": 1, "prime": 7, "composite": 30, "hash-prime": 2 * sys.hash_info.modulus}


def reference_values(sign, den):
    return [Fraction(n, DENOMINATORS[den]) for n in SIGNS[sign]]


EVERY_CLASS = [x for sign in SIGNS for den in DENOMINATORS for x in reference_values(sign, den)]


def as_rational(x: Fraction) -> Rational:
    return Rational(x.numerator, x.denominator)


def assert_is(got, want: Fraction):
    """got is the Rational equal to want, in lowest terms."""
    assert type(got) is Rational
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int


@pytest.mark.parametrize("den", DENOMINATORS)
@pytest.mark.parametrize("sign", SIGNS)
def test_rational_is_kept_in_lowest_terms(sign, den):
    for n in SIGNS[sign]:
        for scale in (1, -1, 12, -35):
            d = DENOMINATORS[den]
            assert_is(Rational(n * scale, d * scale), Fraction(n, d))
    assert_is(Rational(True, True), Fraction(1))
    assert_is(Rational(), Fraction(0))


@pytest.mark.parametrize("den", DENOMINATORS)
@pytest.mark.parametrize("sign", SIGNS)
def test_rational_arithmetic_matches_fraction(sign, den):
    ops = (operator.add, operator.sub, operator.mul)
    for a in reference_values(sign, den):
        r = as_rational(a)
        assert_is(-r, -a)
        assert bool(r) is bool(a) and str(r) == str(a)
        for b in EVERY_CLASS:
            s = as_rational(b)
            # a Rational with a Rational, with a Fraction on either side, and with an int
            pairs = [(r, s), (r, b), (a, s)] + ([(r, b.numerator)] if b.denominator == 1 else [])
            for op in ops:
                for x, y in pairs:
                    assert_is(op(x, y), op(a, b))
                    assert_is(op(y, x), op(b, a))
            for x, y in pairs:
                if b:
                    assert_is(x / y, a / b)
                else:
                    with pytest.raises(ZeroDivisionError):
                        x / y
                if a:
                    assert_is(y / x, b / a)
                else:
                    with pytest.raises(ZeroDivisionError):
                        y / x


@pytest.mark.parametrize("den", DENOMINATORS)
@pytest.mark.parametrize("sign", SIGNS)
def test_rational_equality_order_and_hash_match_fraction(sign, den):
    relations = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
    for a in reference_values(sign, den):
        r = as_rational(a)
        assert hash(r) == hash(a)
        if a.denominator == 1:
            assert r == a.numerator and hash(r) == hash(a.numerator)
            assert {a.numerator: "found"}[r] == "found"
        assert {a: "found"}[r] == "found" and {r: "found"}[a] == "found"
        for b in EVERY_CLASS:
            s = as_rational(b)
            others = [s, b] + ([b.numerator] if b.denominator == 1 else [])
            for rel in relations:
                for other in others:
                    assert rel(r, other) is rel(a, b)
                    assert rel(other, r) is rel(b, a)


def test_rational_refuses_what_is_not_two_integers():
    for args in [(1.5,), ("1",), (Fraction(1, 2),), (1, 2.0), (None,)]:
        with pytest.raises(TypeError):
            Rational(*args)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    half = Rational(1, 2)
    for other in (0.5, "1/2", None):
        assert half != other
        with pytest.raises(TypeError):
            half + other
        with pytest.raises(TypeError):
            half < other


def test_rational_is_immutable_and_copies_as_its_value():
    half = Rational(-2, 4)
    with pytest.raises(AttributeError):
        half.numerator = 3
    with pytest.raises(AttributeError):
        half.extra = 3
    for copied in (copy.copy(half), copy.deepcopy(half), pickle.loads(pickle.dumps(half))):
        assert_is(copied, Fraction(-1, 2))
    assert repr(half) == "Rational(-1, 2)"


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    mismatches = [n for n in range(10**5) if _is_prime(n) != trial_division_is_prime(n)]
    assert mismatches == []


def test_is_prime_rejects_strong_pseudoprimes():
    # psi_4: strong pseudoprime to bases 2, 3, 5, 7; psi_9: to every prime base up to 23
    assert 3215031751 == 151 * 751 * 28351
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)


def test_is_prime_large_characteristics():
    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1)
    # psi_12 itself passes every base up to 37, so it is refused, not answered
    with pytest.raises(ValueError):
        _is_prime(_MR_LIMIT)
    with pytest.raises(ValueError):
        Field.prime(2**89 - 1)


@given(a=rationals, b=rationals, c=rationals)
def test_field_axioms_rational(a, b, c):
    f = QQ
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a != f.zero:
        assert f.mul(a, f.inv(a)) == f.one


@given(a=gf7_elems, b=gf7_elems, c=gf7_elems)
def test_field_axioms_gf7(a, b, c):
    f = GF7
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a != 0:
        assert f.mul(a, f.inv(a)) == f.one


def mat(field, rows):
    return Matrix(field, [[field.of(v) for v in row] for row in rows])


def test_matmul_identity_and_involution():
    m = mat(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert Matrix.identity(QQ, 3) @ m == m
    swap = mat(QQ, [[0, 1], [1, 0]])
    assert swap @ swap == Matrix.identity(QQ, 2)


# -- reference kernels: every slot is computed through the field's own
# operations, with no zero skipping, to check the sparse-aware ones in Matrix.


def naive_mul(a: Matrix, b: Matrix) -> Matrix:
    f = a.field
    out = [[f.zero] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = f.add(out[i][j], f.mul(a[i, k], b[k, j]))
    return Matrix(f, out, a.rows, b.cols)


def naive_kron(a: Matrix, b: Matrix) -> Matrix:
    f = a.field
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [[None] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(b.rows):
            for k in range(a.cols):
                for l in range(b.cols):
                    out[i * b.rows + j][k * b.cols + l] = f.mul(a[i, k], b[j, l])
    return Matrix(f, out, rows, cols)


def naive_apply(m: Matrix, vec) -> tuple:
    f = m.field
    out = []
    for i in range(m.rows):
        s = f.zero
        for k in range(m.cols):
            s = f.add(s, f.mul(m[i, k], vec[k]))
        out.append(s)
    return tuple(out)


ORACLE_FIELDS = (QQ, Field.prime(2), GF5, Field.prime(2**61 - 1))


def sparse_scalars(field):
    """Field elements, three in four of them zero."""
    if field.p is None:
        nonzero = st.builds(
            Fraction,
            st.integers(min_value=-9, max_value=9).filter(bool),
            st.integers(min_value=1, max_value=6),
        )
    elif field.p < 100:
        nonzero = st.sampled_from(range(1, field.p))
    else:
        nonzero = st.integers(min_value=1, max_value=field.p - 1)
    return st.tuples(st.integers(min_value=0, max_value=3), nonzero).map(
        lambda t: t[1] if t[0] == 3 else field.zero
    )


def draw_matrix(data, field, rows, cols):
    entries = data.draw(st.lists(sparse_scalars(field), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, [entries[i * cols:(i + 1) * cols] for i in range(rows)], rows, cols)


def assert_canonical(field, entries):
    for x in entries:
        if field.p is None:
            assert type(x) is Rational
        else:
            assert type(x) is int and 0 <= x < field.p


dims = st.integers(min_value=0, max_value=5)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims, dims))
def test_matmul_matches_naive_oracle(field, data, shape):
    rows, inner, cols = shape
    a = draw_matrix(data, field, rows, inner)
    b = draw_matrix(data, field, inner, cols)
    product = a @ b
    assert product == naive_mul(a, b)
    assert (product.rows, product.cols) == (rows, cols)
    assert_canonical(field, [x for row in product.data for x in row])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims, dims, dims))
def test_kron_matches_naive_oracle(field, data, shape):
    r1, c1, r2, c2 = shape
    a = draw_matrix(data, field, r1, c1)
    b = draw_matrix(data, field, r2, c2)
    k = a.kron(b)
    assert k == naive_kron(a, b)
    assert (k.rows, k.cols) == (r1 * r2, c1 * c2)
    assert_canonical(field, [x for row in k.data for x in row])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims, dims, dims, dims))
def test_kron_matmul_matches_naive_kron_then_mul(field, data, shape):
    r1, c1, r2, c2, cols = shape
    x = draw_matrix(data, field, r1, c1)
    y = draw_matrix(data, field, r2, c2)
    z = draw_matrix(data, field, c1 * c2, cols)
    fused = x.kron_matmul(y, z)
    assert fused == naive_mul(naive_kron(x, y), z)
    assert (fused.rows, fused.cols) == (r1 * r2, cols)
    assert_normal(fused)
    with pytest.raises(ShapeMismatchError):
        x.kron_matmul(y, draw_matrix(data, field, c1 * c2 + 1, cols))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims, dims, dims, dims))
def test_matmul_kron_matches_naive_kron_then_mul(field, data, shape):
    rows, r1, c1, r2, c2 = shape
    z = draw_matrix(data, field, rows, r1 * r2)
    x = draw_matrix(data, field, r1, c1)
    y = draw_matrix(data, field, r2, c2)
    fused = z.matmul_kron(x, y)
    assert fused == naive_mul(z, naive_kron(x, y))
    assert (fused.rows, fused.cols) == (rows, c1 * c2)
    assert_normal(fused)
    with pytest.raises(ShapeMismatchError):
        draw_matrix(data, field, rows, r1 * r2 + 1).matmul_kron(x, y)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_apply_matches_naive_oracle(field, data, shape):
    rows, cols = shape
    m = draw_matrix(data, field, rows, cols)
    vec = tuple(data.draw(st.lists(sparse_scalars(field), min_size=cols, max_size=cols)))
    image = m.apply(vec)
    assert image == naive_apply(m, vec)
    assert len(image) == rows
    assert_canonical(field, image)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_is_zero_matches_entrywise_comparison(field, data, shape):
    rows, cols = shape
    m = draw_matrix(data, field, rows, cols)
    zero = all(x == field.zero for row in m.data for x in row)
    assert (m == Matrix.zeros(field, rows, cols)) == zero


def test_flip_sandwich_matches_naive_oracle():
    # the shape of the coproduct-multiplicativity check: (I (x) flip (x) I) composites
    for field in (QQ, GF5):
        i2, i3 = Matrix.identity(field, 2), Matrix.identity(field, 3)
        sandwich = i2.kron(Matrix.flip(field, 2, 3)).kron(i3)
        back = i2.kron(Matrix.flip(field, 3, 2)).kron(i3)
        assert sandwich == naive_kron(naive_kron(i2, Matrix.flip(field, 2, 3)), i3)
        m = Matrix(field, [[field.of(i * 7 + j) for j in range(36)] for i in range(5)])
        assert m @ sandwich == naive_mul(m, sandwich)
        assert back @ sandwich == Matrix.identity(field, 36)
        assert sandwich.apply(m.data[1]) == naive_apply(sandwich, m.data[1])
        assert m.T.flip_rows(2, 2, 3, 3) == naive_mul(sandwich, m.T)
        assert m.T.flip_rows(2, 3, 2, 3) == naive_mul(back, m.T)
        with pytest.raises(ShapeMismatchError):
            m.T.flip_rows(2, 3, 2, 2)


def naive_flip(field, a, b):
    """u_i (x) v_j -> v_j (x) u_i as a permutation matrix, dim U = a, dim V = b."""
    out = [[field.zero] * (a * b) for _ in range(a * b)]
    for i in range(a):
        for j in range(b):
            out[j * a + i][i * b + j] = field.one
    return Matrix(field, out, a * b, a * b)


flip_dims = st.integers(min_value=0, max_value=3)


def naive_reshape(m: Matrix, rows: int, cols: int) -> Matrix:
    flat = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    return Matrix(m.field, [flat[i * cols:(i + 1) * cols] for i in range(rows)], rows, cols)


def naive_place(field, rows: int, cols: int, blocks) -> Matrix:
    out = [[field.zero] * cols for _ in range(rows)]
    for r0, c0, b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = field.add(out[r0 + i][c0 + j], b[i, j])
    return Matrix(field, out, rows, cols)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_reshape_matches_naive_oracle(field, data, shape):
    rows, cols = shape
    m = draw_matrix(data, field, rows, cols)
    n = rows * cols
    shapes = [(r, n // r) for r in range(1, n + 1) if n % r == 0] if n else [(0, 0), (0, 4), (3, 0)]
    for r, c in shapes:
        got = m.reshape(r, c)
        assert got == naive_reshape(m, r, c)
        assert_normal(got)
        assert got.reshape(rows, cols) == m
    with pytest.raises(ShapeMismatchError):
        m.reshape(n + 1, 1)


def draw_blocks(data, field, rows, cols, count):
    """count blocks (r0, c0, B) that fit in rows x cols, at drawn offsets: they may overlap."""
    blocks = []
    for _ in range(count):
        r0 = data.draw(st.integers(min_value=0, max_value=rows))
        c0 = data.draw(st.integers(min_value=0, max_value=cols))
        br = data.draw(st.integers(min_value=0, max_value=rows - r0))
        bc = data.draw(st.integers(min_value=0, max_value=cols - c0))
        blocks.append((r0, c0, draw_matrix(data, field, br, bc)))
    return blocks


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims), count=st.integers(min_value=0, max_value=4))
def test_place_matches_naive_oracle(field, data, shape, count):
    rows, cols = shape
    blocks = draw_blocks(data, field, rows, cols, count)
    got = Matrix.place(field, rows, cols, blocks)
    assert got == naive_place(field, rows, cols, blocks)
    assert_normal(got)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_place_edges(field):
    one, ident = field.one, Matrix.identity(field, 2)
    assert Matrix.place(field, 0, 0, []) == Matrix.zeros(field, 0, 0)
    assert Matrix.place(field, 3, 2, []) == Matrix.zeros(field, 3, 2)
    empty_at_corner = [(3, 2, Matrix.zeros(field, 0, 0))]
    assert Matrix.place(field, 3, 2, empty_at_corner) == Matrix.zeros(field, 3, 2)
    # overlapping blocks add: the identity twice on the diagonal, once more shifted
    twice = Matrix.place(field, 3, 3, [(0, 0, ident), (0, 0, ident), (1, 1, ident)])
    assert twice == naive_place(field, 3, 3, [(0, 0, ident.scale(field.of(2))), (1, 1, ident)])
    assert twice[1, 1] == field.of(3)
    if field.p == 2 or field.p == 5:  # p ones add up to zero
        ones = [(0, 0, Matrix.row(field, [one]))] * field.p
        assert Matrix.place(field, 1, 1, ones) == Matrix.zeros(field, 1, 1)
    for r0, c0 in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ShapeMismatchError):
            Matrix.place(field, 3, 3, [(r0, c0, ident)])
    with pytest.raises(MixedFieldsError):
        Matrix.place(field, 2, 2, [(0, 0, Matrix.identity(GF7, 2))])


def test_place_over_coprime_denominators():
    # blocks over 2, 3 and 5 sum over their lcm 30; two halves meet in one whole
    q = Fraction
    half, third, fifth = (Matrix(QQ, [[q(1, d), q(-1, d)]]) for d in (2, 3, 5))
    got = Matrix.place(QQ, 2, 3, [(0, 0, half), (0, 1, third), (1, 1, fifth), (1, 0, half)])
    assert got.data == ((q(1, 2), q(-1, 6), q(-1, 3)), (q(1, 2), q(-3, 10), q(-1, 5)))
    assert got.den == 30 and got == naive_place(QQ, 2, 3, [(0, 0, half), (0, 1, third),
                                                           (1, 1, fifth), (1, 0, half)])
    whole = Matrix.place(QQ, 1, 2, [(0, 0, half), (0, 0, half)])
    assert_normal(whole)
    assert whole.den == 1 and whole.data == ((q(1), q(-1)),)


def naive_entrywise(op, a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, [[op(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)],
                  a.rows, a.cols)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_add_and_sub_match_entrywise_oracle(field, data, shape):
    rows, cols = shape
    a = draw_matrix(data, field, rows, cols)
    b = draw_matrix(data, field, rows, cols)
    for got, want in ((a + b, naive_entrywise(field.add, a, b)),
                      (a - b, naive_entrywise(field.sub, a, b)),
                      (a - a, Matrix.zeros(field, rows, cols))):
        assert got == want
        assert_normal(got)
    with pytest.raises(ShapeMismatchError):
        a + draw_matrix(data, field, rows + 1, cols)
    with pytest.raises(ShapeMismatchError):
        a - draw_matrix(data, field, rows, cols + 1)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_add_and_sub_edges(field):
    one, ident = field.one, Matrix.identity(field, 2)
    assert_same(ident + ident.scale(field.of(-1)), Matrix.zeros(field, 2, 2))
    assert_same(Matrix.zeros(field, 0, 3) + Matrix.zeros(field, 0, 3), Matrix.zeros(field, 0, 3))
    if field.p:  # residues that add up to p cancel
        residues = Matrix.row(field, [one, field.of(2)])
        assert_same(residues + Matrix.row(field, [field.of(-1), field.of(-2)]),
                    Matrix.zeros(field, 1, 2))
    else:  # operands over 2 and 3 add over 6, and two halves meet in a whole
        q = Fraction
        half, third = Matrix(QQ, [[q(1, 2), q(-1, 2)]]), Matrix(QQ, [[q(1, 3), q(1, 6)]])
        for got, want in ((half + third, ((q(5, 6), q(-1, 3)),)),
                          (half - third, ((q(1, 6), q(-2, 3)),)),
                          (half + half, ((q(1), q(-1)),))):
            assert_normal(got)
            assert got.data == want and got.den == max(x.denominator for x in want[0])
    # the same-shape check: place would pad the smaller operand
    for other in (Matrix.identity(field, 3), Matrix.zeros(field, 2, 1), Matrix.zeros(field, 1, 2)):
        with pytest.raises(ShapeMismatchError, match="^add 2x2 with "):
            ident + other
        with pytest.raises(ShapeMismatchError):
            ident - other
    other_field = GF7 if field.p != 7 else GF5
    for bigger in (False, True):  # the field is checked ahead of the shape
        with pytest.raises(MixedFieldsError):
            ident + Matrix.identity(other_field, 2 + bigger)
        with pytest.raises(MixedFieldsError):
            ident - Matrix.identity(other_field, 2 + bigger)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, flip_dims, flip_dims, flip_dims, flip_dims))
def test_flip_rows_matches_naive_sandwich(field, data, shape):
    cols, p, a, b, q = shape
    x = draw_matrix(data, field, p * a * b * q, cols)
    i_p, i_q = Matrix.identity(field, p), Matrix.identity(field, q)
    sandwich = naive_kron(naive_kron(i_p, naive_flip(field, a, b)), i_q)
    assert x.flip_rows(p, a, b, q) == naive_mul(sandwich, x)
    assert Matrix.flip(field, a, b) == naive_flip(field, a, b)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=32, max_size=32))
def test_matmul_matches_naive_oracle_gf5(entries):
    a = Matrix(GF5, [entries[4 * i:4 * i + 4] for i in range(4)])
    b = Matrix(GF5, [entries[16 + 4 * i:16 + 4 * i + 4] for i in range(4)])
    assert a @ b == naive_mul(a, b)


def test_matmul_shape_and_field_errors():
    with pytest.raises(ShapeMismatchError):
        mat(QQ, [[1, 2]]) @ mat(QQ, [[1, 2]])
    with pytest.raises(MixedFieldsError):
        Matrix.identity(QQ, 2) @ Matrix.identity(GF5, 2)
    # the fused Kronecker products, with the odd field in each of the three places
    a, b = Matrix.identity(QQ, 1), Matrix.identity(GF5, 1)
    for x, y, z in ((a, a, b), (a, b, a), (b, a, a)):
        with pytest.raises(MixedFieldsError):
            x.kron_matmul(y, z)
        with pytest.raises(MixedFieldsError):
            z.matmul_kron(x, y)


def test_product_shape_error_texts():
    # each product names its two operands' shapes, a fused one the Kronecker factor's
    # shape though it is never built; a field mismatch is reported ahead of a shape one
    x, y = mat(QQ, [[1, 2, 3], [4, 5, 6]]), mat(QQ, [[1, 2]])  # x (x) y is 2x6
    cases = [
        (lambda: mat(QQ, [[1, 2]]) @ mat(QQ, [[1, 2]]), "product of 1x2 with 1x2"),
        (lambda: Matrix.zeros(QQ, 0, 3) @ Matrix.zeros(QQ, 0, 4), "product of 0x3 with 0x4"),
        (lambda: x.kron_matmul(y, Matrix.zeros(QQ, 5, 4)), "product of 2x6 with 5x4"),
        (lambda: y.kron_matmul(x, Matrix.zeros(QQ, 0, 1)), "product of 2x6 with 0x1"),
        (lambda: Matrix.zeros(QQ, 3, 5).matmul_kron(x, y), "product of 3x5 with 2x6"),
        (lambda: Matrix.zeros(QQ, 1, 0).matmul_kron(y, x), "product of 1x0 with 2x6"),
    ]
    for product, message in cases:
        with pytest.raises(ShapeMismatchError) as e:
            product()
        assert str(e.value) == message
    odd = Matrix.zeros(GF5, 7, 7)
    for product in (lambda: x @ odd, lambda: x.kron_matmul(y, odd), lambda: odd.matmul_kron(x, y),
                    lambda: odd @ x, lambda: odd.kron_matmul(y, x), lambda: y.matmul_kron(odd, x)):
        with pytest.raises(MixedFieldsError):
            product()


def test_kron_identities():
    assert Matrix.identity(QQ, 2).kron(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    m = mat(QQ, [[1, 2], [3, 4]])
    assert mat(QQ, [[2]]).kron(m) == m.scale(QQ.of(2))


def test_kron_index_convention():
    # row index of the composite is i * b.rows + j (left factor major)
    a = mat(QQ, [[0, 1], [0, 0]])
    b = mat(QQ, [[5, 0], [0, 7]])
    k = a.kron(b)
    assert k[0, 2] == 5 and k[1, 3] == 7
    assert k[2, 0] == 0


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=16, max_size=16))
def test_kron_mixed_product(entries):
    ms = [mat(QQ, [entries[4 * i:4 * i + 2], entries[4 * i + 2:4 * i + 4]]) for i in range(4)]
    a, b, c, d = ms
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_kernel_trivial_cases():
    assert Matrix.identity(QQ, 4).kernel_basis() == []
    basis = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert len(basis) == 3
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))


def test_kernel_hand_oracle():
    # [[1,1,0],[0,0,1]]: by hand, x0 = -x1 and x2 = 0, so the kernel is
    # the line through (1,-1,0).
    m = mat(QQ, [[1, 1, 0], [0, 0, 1]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert m.apply(v) == (Fraction(0), Fraction(0))
    assert v[0] * Fraction(-1) == v[1] and v[2] == 0 and v != (0, 0, 0)


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=12, max_size=12))
def test_kernel_rank_nullity_and_exactness(entries):
    m = Matrix(QQ, [[Fraction(v) for v in entries[3 * i:3 * i + 3]] for i in range(4)])
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    zero = tuple(Fraction(0) for _ in range(m.rows))
    for v in basis:
        assert m.apply(v) == zero


def test_solve_cases():
    ident = Matrix.identity(QQ, 3)
    v = (Fraction(1), Fraction(2), Fraction(3))
    assert ident.solve(v) == (v, True)
    sol = mat(QQ, [[1, 1]]).solve((Fraction(2),))
    assert sol == ((Fraction(2), Fraction(0)), False)
    assert mat(QQ, [[0]]).solve((Fraction(1),)) is None


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_solve_returns_a_solution_exactly_when_one_exists(field, data, shape):
    # solve places [A | b]; over Q, b's denominators (7, 11 or 13) are coprime to A's (at
    # most 6), so a placement that does not take their lcm gives a wrong system
    rows, cols = shape
    a = draw_matrix(data, field, rows, cols)
    if field.p is None:
        d = data.draw(st.sampled_from((7, 11, 13)))
        ints = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                  min_size=cols, max_size=cols))
        x = tuple(Fraction(n * a.den, d) for n in ints)  # A x is an int matrix times ints / d
    else:
        x = tuple(data.draw(st.lists(sparse_scalars(field), min_size=cols, max_size=cols)))
    b = a.apply(x)
    y, unique = a.solve(b)
    assert a.apply(y) == b
    assert unique == (a.rank() == cols) == (not a.kernel_basis())
    padded = Matrix.place(field, rows + 1, cols, [(0, 0, a)])  # a zero row below A
    assert padded.solve(b + (field.one,)) is None


def test_solve_shape_error():
    with pytest.raises(ShapeMismatchError):
        Matrix.identity(QQ, 2).solve((Fraction(1),))


def test_inverse():
    # the columns of m^-1 are the unique solutions of m x = e_j
    m = mat(QQ, [[2, 1], [1, 1]])
    cols = [m.solve(e) for e in ((QQ.one, QQ.zero), (QQ.zero, QQ.one))]
    assert all(unique for _, unique in cols)
    inv = Matrix(QQ, [list(r) for r in zip(*(x for x, _ in cols))])
    assert m @ inv == Matrix.identity(QQ, 2) == inv @ m
    singular = mat(QQ, [[1, 1], [1, 1]])
    assert not singular.is_invertible() and singular.solve((QQ.one, QQ.zero)) is None


def test_zero_dimension_edges():
    z = Matrix.zeros(QQ, 0, 3)
    assert z.T.rows == 3 and z.T.cols == 0
    assert len(z.kernel_basis()) == 3
    empty = Matrix.zeros(QQ, 2, 0)
    assert empty @ Matrix.zeros(QQ, 0, 5) == Matrix.zeros(QQ, 2, 5)


def test_determinism_bit_identical():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
    a = mat(QQ, rows)
    first = (a.kernel_basis(), a.rank(), a.solve((Fraction(1), Fraction(0), Fraction(2))))
    second = (a.kernel_basis(), a.rank(), a.solve((Fraction(1), Fraction(0), Fraction(2))))
    assert first == second


# -- the integer kernel: fraction-free elimination and the (num, den) normal form


def naive_rref(m: Matrix):
    """Gauss-Jordan through the field's own operations, dividing by each pivot.

    The smallest-index pivoting of Matrix._rref, on public scalars: the
    elimination that _rref did before it went fraction-free."""
    f = m.field
    rows = [list(row) for row in m.data]
    pivots, r = [], 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != f.zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pinv = f.inv(rows[r][c])
        rows[r] = [f.mul(pinv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != f.zero:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_rref(m: Matrix):
    """m._rref() in naive_rref's form: the pivot rows densified, then the zero rows."""
    rows, pivots = m._rref()
    zero = m.field.zero
    dense = [[row.get(j, zero) for j in range(m.cols)] for row in rows]
    return dense + [[zero] * m.cols for _ in range(m.rows - len(rows))], pivots


def combination(field, coeffs, rows):
    """sum_k coeffs[k] * rows[k], entrywise through the field."""
    out = [field.zero] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


def draw_deficient(data, field, rows, cols, extra):
    """A drawn rows x cols matrix, then `extra` combinations of its rows and a zero row."""
    base = draw_matrix(data, field, rows, cols)
    dependent = [
        combination(field, data.draw(st.lists(sparse_scalars(field), min_size=rows,
                                               max_size=rows)), base.data)
        for _ in range(extra if rows else 0)
    ]
    return Matrix(field, list(base.data) + dependent + [[field.zero] * cols], None, cols)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims), extra=st.integers(min_value=0, max_value=3))
def test_rref_matches_naive_gauss_jordan(field, data, shape, extra):
    m = draw_deficient(data, field, *shape, extra)
    got = dense_rref(m)
    assert got == naive_rref(m)
    assert len(got[1]) <= shape[0]  # the combinations and the zero row add no pivot
    assert_canonical(field, [x for row in got[0] for x in row])
    # the form is unique, so the order elimination takes the rows in changes nothing
    order = data.draw(st.permutations(range(m.rows)))
    permuted = Matrix(field, [m.data[i] for i in order], m.rows, m.cols)
    assert permuted._rref() == m._rref()
    assert permuted.kernel_basis() == m.kernel_basis()


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_of_empty_shapes(field):
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        m = Matrix.zeros(field, rows, cols)
        assert dense_rref(m) == naive_rref(m) == ([[field.zero] * cols for _ in range(rows)], [])


def assert_kernel_coordinates(field, m, coeffs):
    """Each kernel_basis vector of m is 1 at its last nonzero coordinate and every other basis
    vector is 0 there, so a combination of the basis has its coefficients at those positions."""
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    last = [max(j for j, x in enumerate(v) if x != field.zero) for v in basis]
    for i, (v, j) in enumerate(zip(basis, last)):
        assert v[j] == field.one
        assert all(w[j] == field.zero for k, w in enumerate(basis) if k != i)
    vector = combination(field, coeffs, basis) if basis else ()
    assert [vector[j] for j in last] == list(coeffs[:len(basis)])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims), extra=st.integers(min_value=0, max_value=3))
def test_kernel_basis_vector_is_one_where_the_others_are_zero(field, data, shape, extra):
    m = draw_deficient(data, field, *shape, extra)
    coeffs = data.draw(st.lists(sparse_scalars(field), min_size=m.cols, max_size=m.cols))
    assert_kernel_coordinates(field, m, coeffs)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_kernel_basis_coordinates_of_empty_shapes(field):
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        coeffs = [field.of(k + 2) for k in range(cols)]
        assert_kernel_coordinates(field, Matrix.zeros(field, rows, cols), coeffs)


def test_rref_with_coprime_denominators():
    # rows over 2, 3, 5, 7 and 11: the integer rows carry their lcm and cross-multiply
    q = Fraction
    m = Matrix(QQ, [[q(1, 2), q(1, 3), q(2, 5)], [q(3, 7), q(-1, 11), q(5, 3)],
                    [q(1, 2) + q(3, 7), q(1, 3) - q(1, 11), q(2, 5) + q(5, 3)]])
    rows, pivots = dense_rref(m)
    assert (rows, pivots) == naive_rref(m)
    assert pivots == [0, 1] and rows[2] == [0, 0, 0]
    assert m.kernel_basis() == [(-rows[0][2], -rows[1][2], Fraction(1))]
    assert m.rank() == 2 and m.solve((q(1), q(0), q(1))) is not None


def assert_normal(m: Matrix):
    """The one (nz, den) of a matrix: per row, nonzero int entries at distinct columns in
    [0, cols), in column order; den > 0 and coprime to the numerators over Q; residues in
    [1, p) over 1 over GF(p)."""
    assert type(m.nz) is tuple and len(m.nz) == m.rows and type(m.den) is int
    for row in m.nz:
        assert type(row) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in row)
        columns = [j for j, _ in row]
        assert all(type(j) is int for j in columns) and columns == sorted(set(columns))
        assert all(0 <= j < m.cols for j in columns)
    entries = [x for row in m.nz for _, x in row]
    assert all(type(x) is int and x for x in entries)
    if m.field.p is None:
        assert m.den > 0 and math.gcd(m.den, *entries) == 1
    else:
        assert m.den == 1 and all(0 < x < m.field.p for x in entries)


def assert_same(a: Matrix, b: Matrix):
    assert_normal(a)
    assert_normal(b)
    assert a == b and hash(a) == hash(b)
    assert (a.nz, a.den) == (b.nz, b.den)


def test_equal_rationals_have_one_normal_form():
    half = Matrix(QQ, [[Fraction(1, 2)]])
    assert_same(Matrix(QQ, [[Fraction(2, 4)]]), half)
    assert half.nz == (((0, 1),),) and half.den == 2
    a = Matrix(QQ, [[Fraction(2, 3), Fraction(0)], [Fraction(-5, 6), Fraction(4)]])
    assert a.nz == (((0, 4),), ((0, -5), (1, 24))) and a.den == 6
    assert_same(a.scale(QQ.of(3)).scale(Fraction(1, 3)), a)
    assert_same(a @ Matrix.identity(QQ, 2), a)
    assert_same(a.scale(QQ.zero), Matrix.zeros(QQ, 2, 2))
    assert Matrix.zeros(QQ, 2, 2).den == 1 and Matrix.zeros(QQ, 2, 2).nz == ((), ())
    assert_same(a + a.scale(Fraction(-1)), Matrix.zeros(QQ, 2, 2))
    # over GF(p) the constructor reduces what it is given, and drops the entries it zeroes
    assert_same(Matrix(GF5, [[7, -1], [5, 4]]), Matrix(GF5, [[2, 4], [0, 4]]))
    assert Matrix(GF5, [[7, -1], [5, 4]]).nz == (((0, 2), (1, 4)), ((1, 4),))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), shape=st.tuples(dims, dims))
def test_routes_to_one_value_meet_in_one_normal_form(field, data, shape):
    rows, cols = shape
    a = draw_matrix(data, field, rows, cols)
    b = draw_matrix(data, field, rows, cols)
    c = data.draw(sparse_scalars(field).filter(lambda x: x != field.zero))
    ident_r, ident_c = Matrix.identity(field, rows), Matrix.identity(field, cols)
    assert_same(Matrix(field, a.data, rows, cols), a)
    assert_same(a.scale(c).scale(field.inv(c)), a)
    assert_same(a @ ident_c, a)
    assert_same(ident_r @ a, a)
    assert_same(a.kron(Matrix.identity(field, 1)), a)
    assert_same((a + b) - b, a)
    assert_same(a.T.T, a)
    assert_same(a.flip_rows(1, 1, rows, 1), a)
    assert_same(naive_mul(a, ident_c), a)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@given(data=st.data(), n=st.integers(min_value=0, max_value=4))
def test_every_public_operation_gives_canonical_entries(field, data, n):
    a = draw_matrix(data, field, n, n)
    b = draw_matrix(data, field, n, 2)
    vec = tuple(data.draw(st.lists(sparse_scalars(field), min_size=n, max_size=n)))
    c = data.draw(sparse_scalars(field))
    placed = Matrix.place(field, n + 1, n + 2, [(0, 0, a), (1, n, b), (1, 0, a)])
    results = [a @ b, a.kron(b), a.flip_rows(1, 1, n, 1), a.transpose(), a + a, a.scale(c),
               b.reshape(2, n), placed]
    for m in results:
        assert_normal(m)
        assert_canonical(field, [x for row in m.data for x in row])
        assert_canonical(field, [m[i, j] for i in range(m.rows) for j in range(m.cols)])
        assert_canonical(field, [x for j in range(m.cols) for x in m.column(j)])
    assert_canonical(field, a.apply(vec))
    assert_canonical(field, [x for v in a.kernel_basis() for x in v])
    solved = a.solve(vec)
    if solved is not None:
        assert_canonical(field, solved[0])
        assert a.apply(solved[0]) == vec
