"""Exact scalar arithmetic over Q and GF(p), and exact linear algebra on sparse int rows.

Scalars are `Rational` over the rationals, an exact fraction type defined here so
that the package loads no `fractions` (with its `decimal`, `numbers` and `re`), and
ints in [0, p) over a prime field.  A `Field` object owns the arithmetic.
A matrix pairs a `Field` with sparse integer rows over one common denominator
(residues over GF(p), with denominator 1), so both fields run the same
int loops; entries enter and leave a `Matrix` as scalars.

Conventions fixed here and used by every other module:
  * matrices act on column vectors: M maps k^cols -> k^rows;
  * tensor products flatten left-major: the basis vector u_i (x) v_j of
    U (x) V has flat index i * dim(V) + j;
  * kernel bases and solves read the reduced row echelon form, which is
    unique, so results do not depend on the order elimination takes rows in;
  * a row stores only its nonzero entries, as (column, int) pairs in column
    order, and every operation works on these rows, elimination on sparse
    working rows built from them; only `Matrix.data` is dense: the structure
    maps are mostly zero;
  * a Kronecker product inside a composite is never built: (X (x) Y) @ Z is
    `X.kron_matmul(Y, Z)` and Z @ (X (x) Y) is `Z.matmul_kron(X, Y)`;
  * `kron_matmul` is the one product loop: A @ Z is (A (x) 1) @ Z, with the 1x1
    identity, and Z @ (X (x) Y) is the transpose of (X.T (x) Y.T) @ Z.T;
  * elimination over Q is fraction-free: integer rows, cross-multiplied,
    with each row's content divided out;
  * a tensor flip inside a composite reorders the rows of the right-hand
    factor (`Matrix.flip_rows`), never a permutation-matrix product;
  * every reindexing of a structure map is `reshape`, `flip_rows` or `T`, and
    every linear system or block matrix, `solve`'s [A | b] included, is
    assembled by block placement (`Matrix.place`), never entry by entry.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from math import gcd, lcm

from .errors import DivisionByZeroError, MixedFieldsError, ShapeMismatchError
from .record import Record

# The most digits an integer of a document may have.  It is Python's default limit on int()
# of a string, checked here so that the refusal reads the same on every Python (before
# 3.10.7 there is no limit) and names no interpreter setting.
MAX_LITERAL_DIGITS = 4300


def literal_int(text: str) -> int:
    """int(text) of ASCII digits after an optional '-', refused above MAX_LITERAL_DIGITS digits."""
    if len(text) > MAX_LITERAL_DIGITS:  # its digits may still be few enough after a '-'
        digits = len(text.removeprefix("-"))
        if digits > MAX_LITERAL_DIGITS:
            raise ValueError(f"an integer of {digits} digits; a document's integers have at most "
                             f"{MAX_LITERAL_DIGITS} digits")
    return int(text)


def _ascii_digits(text: str) -> bool:
    """Whether text is one or more of the ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


class Rational:
    """An exact rational number `numerator` / `denominator`, in lowest terms with denominator > 0.

    The scalars over Q.  A Rational is immutable.  Its +, -, *, /, unary -, bool, ==, order
    and hash agree with int's and fractions.Fraction's on equal values, and the other
    operand may be an int, a Fraction or a Rational: anything with int `numerator` and
    `denominator`.  A result is a Rational.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator: int = 0, denominator: int = 1):
        if not (isinstance(numerator, int) and isinstance(denominator, int)):
            raise TypeError(f"Rational takes two integers, got {numerator!r} and {denominator!r}")
        if not denominator:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        return _reduced(int(numerator), int(denominator))

    def __setattr__(self, *args):
        raise AttributeError("Rational is immutable")

    def __reduce__(self):
        return Rational, (self.numerator, self.denominator)

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __str__(self):
        n, d = self.numerator, self.denominator
        return str(n) if d == 1 else f"{n}/{d}"

    def __bool__(self):
        return self.numerator != 0

    def __eq__(self, other):
        try:
            return self.numerator == other.numerator and self.denominator == other.denominator
        except AttributeError:
            return NotImplemented

    # order by cross-multiplying: both denominators are positive
    def __lt__(self, other):
        try:
            return self.numerator * other.denominator < other.numerator * self.denominator
        except AttributeError:
            return NotImplemented

    def __le__(self, other):
        try:
            return self.numerator * other.denominator <= other.numerator * self.denominator
        except AttributeError:
            return NotImplemented

    def __gt__(self, other):
        try:
            return self.numerator * other.denominator > other.numerator * self.denominator
        except AttributeError:
            return NotImplemented

    def __ge__(self, other):
        try:
            return self.numerator * other.denominator >= other.numerator * self.denominator
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        # Python's numeric hash, so equal ints, Fractions and Rationals hash alike:
        # n * d^-1 modulo the hash prime, signed as n, with -1 read as -2
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d is a multiple of the hash prime
            h = _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __neg__(self):
        return _make(-self.numerator, self.denominator)

    def __add__(self, other):
        try:
            return _sum(self.numerator, self.denominator, other.numerator, other.denominator)
        except AttributeError:
            return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        try:
            return _sum(self.numerator, self.denominator, -other.numerator, other.denominator)
        except AttributeError:
            return NotImplemented

    def __rsub__(self, other):
        try:
            return _sum(other.numerator, other.denominator, -self.numerator, self.denominator)
        except AttributeError:
            return NotImplemented

    def __mul__(self, other):
        try:
            nb, db = other.numerator, other.denominator
        except AttributeError:
            return NotImplemented
        na, da = self.numerator, self.denominator
        if da == db == 1:
            return _make(na * nb, 1)
        return _reduced(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            nb, db = other.numerator, other.denominator
        except AttributeError:
            return NotImplemented
        if not nb:
            raise ZeroDivisionError(f"Rational({self.numerator}, 0)")
        return _reduced(self.numerator * db, self.denominator * nb)

    def __rtruediv__(self, other):
        try:
            na, da = other.numerator, other.denominator
        except AttributeError:
            return NotImplemented
        if not self.numerator:
            raise ZeroDivisionError(f"Rational({na}, 0)")
        return _reduced(na * self.denominator, da * self.numerator)


_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf
# Slot setters: the one way to fill a Rational past its immutability guard.
_set_numerator, _set_denominator = (Rational.__dict__[name].__set__ for name in Rational.__slots__)
_alloc = object.__new__


def _make(n: int, d: int) -> Rational:
    """The Rational n / d of coprime ints n and d > 0, kept as they are (no checks)."""
    r = _alloc(Rational)
    _set_numerator(r, n)
    _set_denominator(r, d)
    return r


def _sum(na: int, da: int, nb: int, db: int) -> Rational:
    """na / da + nb / db, for ints na, nb and da, db > 0."""
    if da == db:
        return _make(na + nb, 1) if da == 1 else _reduced(na + nb, da)
    return _reduced(na * db + nb * da, da * db)


def _reduced(n: int, d: int) -> Rational:
    """The Rational n / d of ints n and d != 0, put in lowest terms."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n, d = n // g, d // g
    return _make(n, d)


Scalar = Rational | int


_ZERO, _ONE = _make(0, 1), _make(1, 1)  # Rationals are immutable, so one of each serves


# Deterministic Miller-Rabin: the prime bases 2..37 decide primality exactly
# for every n below psi_12 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact primality for n < _MR_LIMIT; ValueError above it."""
    if n >= _MR_LIMIT:
        raise ValueError(
            f"characteristic {n} is too large: primality is decided only below {_MR_LIMIT}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record, eq=True):
    """Ground field: Q where p is None, and GF(p) for a prime p."""

    __slots__ = ("p",)

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")

    @staticmethod
    def rational() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    # -- scalar arithmetic ------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return _ZERO if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return _ONE if self.p is None else 1

    def of(self, n: int) -> Scalar:
        """Canonical image of the integer n."""
        return Rational(n) if self.p is None else n % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise DivisionByZeroError("inverse of zero")
        if self.p is None:
            n, d = a.numerator, a.denominator
            return _make(d, n) if n > 0 else _make(-d, -n)
        return pow(a, self.p - 2, self.p)

    # -- scalar literals ---------------------------------------------------

    def parse(self, text: str | int) -> Scalar:
        """Parse a scalar literal: an integer or "a/b" over Q, a residue over GF(p).

        A string literal over Q is an optional '-', ASCII digits, and optionally '/' and
        ASCII digits for a nonzero denominator; no other form that int() or
        fractions.Fraction reads (no '+', space, decimal point, exponent, '_' or digit
        outside ASCII) is one.
        """
        if self.p:
            if isinstance(text, bool) or not isinstance(text, int):
                raise ValueError(f"GF({self.p}) scalar must be an integer, got {text!r}")
            if not 0 <= text < self.p:
                raise ValueError(f"residue {text} out of range [0, {self.p})")
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return _make(int(text), 1)
        if isinstance(text, str):
            num, slash, den = text.partition("/")
            if _ascii_digits(num.removeprefix("-")):
                if not slash:
                    return _make(literal_int(num), 1)
                if _ascii_digits(den) and den.strip("0"):
                    return _reduced(literal_int(num), literal_int(den))
        raise ValueError(f"not a rational literal: {text!r}")

    def show(self, a: Scalar) -> str | int:
        """Canonical literal for serialization (inverse of parse)."""
        if self.p:
            return int(a)
        n, d = a.numerator, a.denominator
        return str(n) if d == 1 else f"{n}/{d}"

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"


def require_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise MixedFieldsError(f"mixed fields {a} and {b}")


class Matrix:
    """Immutable matrix over an exact field: sparse integer rows over one common denominator.

    Row i holds the nonzero entries of the numerator, as (column, int) pairs in column
    order, in nz[i]; entry (i, j) is that int over den, and zero where row i has no pair
    for j.  Over Q, den > 0 and no prime divides den and every numerator, so each matrix
    has exactly one (nz, den); over GF(p), the ints are residues in [1, p) and den is 1.
    Both fields run the same int loops and differ only in how a result is normalised:
    reduced mod p as it is computed, or by the gcd in `_new`.  Every operation works on
    the sparse rows, elimination on sparse working rows built from them.  Every product
    runs `kron_matmul`'s loop: `@` with the 1x1 identity as its middle factor, and
    `matmul_kron` on transposes.
    Public scalars (`Rational` over Q) appear only where entries enter or leave: the
    constructor takes dense rows of them, and `data` is the dense view, built on first
    use.  An entry given over Q may be anything with int `numerator` and `denominator`
    in lowest terms (an int, a Rational or a fractions.Fraction).
    """

    __slots__ = ("field", "rows", "cols", "nz", "den", "_data", "_hash")

    def __init__(self, field: Field, data: Sequence[Sequence[Scalar]], rows=None, cols=None):
        data = [tuple(row) for row in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatchError("ragged matrix data")
        p = field.p
        if p:
            nz, den = tuple(
                tuple([(j, y) for j, x in enumerate(row) if (y := x % p)]) for row in data
            ), 1
        else:
            # entries in lowest terms, over the lcm of their denominators: already coprime
            den = lcm(*{x.denominator for row in data for x in row})
            nz = tuple(
                tuple([(j, n * (den // x.denominator)) for j, x in enumerate(row)
                       if (n := x.numerator)])
                for row in data
            )
        _set(self, field, rows, cols, nz, den)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return _new(field, rows, cols, ((),) * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return _new(field, n, n, tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def col(field: Field, entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(field, [[e] for e in entries], len(entries), 1)

    @staticmethod
    def row(field: Field, entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(field, [list(entries)], 1, len(entries))

    @staticmethod
    def flip(field: Field, a: int, b: int) -> "Matrix":
        """Permutation matrix of the tensor flip U (x) V -> V (x) U, dim U = a, dim V = b."""
        return Matrix.identity(field, a * b).flip_rows(1, a, b, 1)

    @staticmethod
    def place(field: Field, rows: int, cols: int, blocks) -> "Matrix":
        """The rows x cols sum of `blocks`, each (r0, c0, B) being B with its entry (0, 0) at
        (r0, c0) and zero elsewhere: where blocks overlap, their entries add.

        Over Q the sum is taken over the lcm of the blocks' denominators.
        """
        blocks = list(blocks)
        den = lcm(*[b.den for _, _, b in blocks])
        acc = {}  # row -> {column: sum}, for the rows some block writes to
        for r0, c0, b in blocks:
            require_same_field(field, b.field)
            if min(r0, c0) < 0 or r0 + b.rows > rows or c0 + b.cols > cols:
                raise ShapeMismatchError(
                    f"{b.rows}x{b.cols} block at ({r0}, {c0}) outside {rows}x{cols}"
                )
            s = den // b.den
            for i, brow in enumerate(b.nz, r0):
                row = acc.setdefault(i, {})
                for j, x in brow:
                    j += c0
                    row[j] = row.get(j, 0) + s * x
        p = field.p
        nz = tuple(_row(acc[i], p) if i in acc else () for i in range(rows))
        return _new(field, rows, cols, nz, den)

    # -- entries as public scalars -------------------------------------------

    @property
    def data(self) -> tuple:
        """The entries as dense rows of public scalars, built on first use."""
        data = self._data
        if data is None:
            # over Q, one Rational per distinct numerator: structure maps hold few values
            p, den, zero = self.field.p, self.den, self.field.zero
            shown = {x: x if p else _reduced(x, den) for row in self.nz for _, x in row}
            out = []
            for row in self.nz:
                dense = [zero] * self.cols
                for j, x in row:
                    dense[j] = shown[x]
                out.append(tuple(dense))
            data = tuple(out)
            _set_data(self, data)
        return data

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nz == other.nz
        )

    def __hash__(self):
        """The hash of the fields compared by ==, computed on first use."""
        h = self._hash
        if h is None:
            h = hash((self.field, self.rows, self.cols, self.den, self.nz))
            _set_hash(self, h)
        return h

    def __repr__(self):
        body = "; ".join(" ".join(str(self.field.show(x)) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return Matrix.place(self.field, self.rows, self.cols, [(0, 0, self), (0, 0, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(other.field.of(-1))

    def scale(self, c: Scalar) -> "Matrix":
        p = self.field.p
        n, d = (c % p, 1) if p else (c.numerator, c.denominator)
        if not n:
            return Matrix.zeros(self.field, self.rows, self.cols)
        nz = tuple(_scaled(n, row, p) for row in self.nz)
        return _new(self.field, self.rows, self.cols, nz, self.den * d)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """self @ other, as (self (x) 1) @ other with the 1x1 identity."""
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"product of {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return self.kron_matmul(Matrix.identity(self.field, 1), other)

    def kron_matmul(self, y: "Matrix", z: "Matrix") -> "Matrix":
        """(self (x) y) @ z, without building self (x) y.

        Row i*y.rows + t of the result sums a_ik b_tl times row k*y.cols + l of z over the
        nonzero a_ik of self's row i and b_tl of y's row t.
        """
        require_same_field(self.field, y.field)
        require_same_field(self.field, z.field)
        c2 = y.cols
        if self.cols * c2 != z.rows:
            raise ShapeMismatchError(f"product of {self.rows * y.rows}x{self.cols * c2} "
                                     f"with {z.rows}x{z.cols}")
        p, brows, zrows = self.field.p, y.nz, z.nz
        out = []
        for arow in self.nz:
            for brow in brows:
                if len(arow) == len(brow) == 1:  # one row of z, scaled
                    (k, a), (l, b) = arow[0], brow[0]
                    out.append(_scaled(a * b, zrows[k * c2 + l], p))
                    continue
                acc = {}
                get = acc.get
                for k, a in arow:
                    base = k * c2
                    for l, b in brow:
                        ab = a * b
                        for j, c in zrows[base + l]:
                            acc[j] = get(j, 0) + ab * c
                out.append(_row(acc, p))
        return _new(self.field, self.rows * y.rows, z.cols, tuple(out),
                    self.den * y.den * z.den)

    def matmul_kron(self, x: "Matrix", y: "Matrix") -> "Matrix":
        """self @ (x (x) y), without building x (x) y: the transpose of (x.T (x) y.T) @ self.T."""
        require_same_field(self.field, x.field)
        require_same_field(self.field, y.field)
        if self.cols != x.rows * y.rows:
            raise ShapeMismatchError(f"product of {self.rows}x{self.cols} "
                                     f"with {x.rows * y.rows}x{x.cols * y.cols}")
        return x.T.kron_matmul(y.T, self.T).T

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        """Matrix-vector product (vec as coordinates of the source)."""
        if len(vec) != self.cols:
            raise ShapeMismatchError(f"apply {self.rows}x{self.cols} to vector of length {len(vec)}")
        p = self.field.p
        if p:
            out = []
            for row in self.nz:
                s = 0
                for k, a in row:
                    s += a * vec[k]
                out.append(s % p)
            return tuple(out)
        # the vector as integers over the lcm of its denominators
        den = lcm(*[v.denominator for v in vec if v.numerator])
        ints = [v.numerator * (den // v.denominator) for v in vec]
        out = []
        for row in self.nz:
            s = 0
            for k, a in row:
                s += a * ints[k]
            out.append(s)
        den *= self.den
        if den == 1:
            return tuple([_make(s, 1) for s in out])
        return tuple([_reduced(s, den) if s else _ZERO for s in out])

    def flip_rows(self, p: int, a: int, b: int, q: int) -> "Matrix":
        """(I_p (x) flip(a, b) (x) I_q) @ self, by reordering rows.

        Row ((s*b + j)*a + i)*q + t of the result is row ((s*a + i)*b + j)*q + t of self.
        """
        if self.rows != p * a * b * q:
            raise ShapeMismatchError(f"product of {p * b * a * q}x{p * a * b * q} "
                                     f"with {self.rows}x{self.cols}")
        nz = self.nz
        out = tuple(nz[((s * a + i) * b + j) * q + t]
                    for s in range(p) for j in range(b) for i in range(a) for t in range(q))
        return _new(self.field, self.rows, self.cols, out, self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix with the same entries, read and written row-major."""
        if rows * cols != self.rows * self.cols:
            raise ShapeMismatchError(f"reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out = [[] for _ in range(rows)]
        width = self.cols
        for i, row in enumerate(self.nz):
            base = i * width
            for j, x in row:
                r, c = divmod(base + j, cols)
                out[r].append((c, x))
        return _new(self.field, rows, cols, tuple(map(tuple, out)), self.den)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, x in row:
                out[j].append((i, x))
        return _new(self.field, self.cols, self.rows, tuple(map(tuple, out)), self.den)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, left factor major (row index i*other.rows + j)."""
        require_same_field(self.field, other.field)
        p, c2 = self.field.p, other.cols
        out = []
        for arow in self.nz:
            for brow in other.nz:
                if p:
                    out.append(tuple([(k * c2 + l, a * b % p) for k, a in arow for l, b in brow]))
                else:
                    out.append(tuple([(k * c2 + l, a * b) for k, a in arow for l, b in brow]))
        return _new(self.field, self.rows * other.rows, self.cols * c2, tuple(out),
                    self.den * other.den)

    # -- elimination ----------------------------------------------------------

    def _rref(self):
        """Reduced row echelon form: (pivot rows, pivot columns), in pivot order.

        Each pivot row is a dict {column: public scalar} of its nonzero entries, 1 at its
        pivot; the zero rows of the form are left out.  The elimination runs on sparse int
        rows built from `nz`, taken in turn.  The rows kept so far are each zero left of
        their pivot and at every other pivot, so a new row loses its entry at each pivot
        it has by one pass over them; if anything is left, its first nonzero column is a
        new pivot, which is cleared from the kept rows.  The reduced row echelon form of a
        matrix is unique, so any order of taking the rows gives the same pivots and the
        same normalised rows; only the working rows differ.  Over Q the elimination is
        fraction-free: each working row is an integer multiple of a combination of the
        rows (see `_clear`), and only the finished rows are divided by their pivots.
        """
        p = self.field.p
        kept = {}  # pivot column -> working row, zero at every other pivot
        for nzrow in self.nz:
            row = dict(nzrow)
            for c in [c for c, _ in nzrow if c in kept]:
                row = _clear(row, c, kept[c], p)
            if not row:
                continue
            c = min(row)
            if p:
                inv = pow(row[c], p - 2, p)
                if inv != 1:
                    row = {j: x * inv % p for j, x in row.items()}
            for b, other in kept.items():
                if c in other:
                    kept[b] = _clear(other, c, row, p)
            kept[c] = row
        pivots = sorted(kept)
        rows = [kept[c] for c in pivots]
        if not p:
            rows = [{j: _reduced(x, row[c]) for j, x in row.items()}
                    for row, c in zip(rows, pivots)]
        return rows, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Deterministic basis of the right null space.

        Each basis vector has a 1 in one free coordinate and 0 in the other
        free coordinates; pivot coordinates are filled by back substitution.
        Pivot coordinates right of the free one are 0, so it is the vector's
        last nonzero coordinate, and every other basis vector is 0 there: a
        vector in the span has its coordinates at those positions.
        """
        f = self.field
        m, pivots = self._rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [f.zero] * self.cols
            v[free] = f.one
            for row, pc in zip(m, pivots):
                v[pc] = f.neg(row.get(free, f.zero))
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence[Scalar]) -> tuple | None:
        """One exact solution of self . x = rhs, or None if inconsistent.

        Returns (solution, unique_flag). Free variables are set to zero.
        """
        if len(rhs) != self.rows:
            raise ShapeMismatchError(f"solve {self.rows}x{self.cols} with rhs of length {len(rhs)}")
        f = self.field
        n = self.cols
        m, pivots = Matrix.place(f, self.rows, n + 1,
                                 [(0, 0, self), (0, n, Matrix.col(f, rhs))])._rref()
        if n in pivots:
            return None
        x = [f.zero] * n
        for row, pc in zip(m, pivots):
            x[pc] = row.get(n, f.zero)
        return tuple(x), len(pivots) == n

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


# Slot setters: the one way to fill a Matrix past its immutability guard.
_set_field, _set_rows, _set_cols, _set_nz, _set_den, _set_data, _set_hash = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


def _set(m: Matrix, field: Field, rows: int, cols: int, nz: tuple, den: int) -> None:
    _set_field(m, field)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_nz(m, nz)
    _set_den(m, den)
    _set_data(m, None)
    _set_hash(m, None)


def _row(acc: dict, p) -> tuple:
    """The sparse row of the sums in acc (column -> int), reduced mod p over GF(p), without
    its zeros."""
    if p:
        return tuple([(j, y) for j, x in sorted(acc.items()) if (y := x % p)])
    return tuple([(j, x) for j, x in sorted(acc.items()) if x])


def _clear(row: dict, c: int, pivot: dict, p) -> dict:
    """The working row `row`, changed in place where it can be, with its entry at column c
    cleared by the pivot row `pivot`.

    Over GF(p) the pivot is 1, and the row becomes row - row[c] * pivot.  Over Q, with
    g = gcd(piv, a) for the pivot piv and row's entry a, the row becomes
    (piv / g) * row - (a / g) * pivot, then over its content when piv / g is not 1.
    """
    a = row[c]
    if not p:
        g = gcd(pivot[c], a)
        s, a = pivot[c] // g, a // g
        if s != 1:
            row = {j: s * x for j, x in row.items()}
    get = row.get
    for j, y in pivot.items():
        x = get(j, 0) - a * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:  # a * y is not zero, so row had an entry at j
            del row[j]
    if not p and s != 1:
        g = gcd(*row.values())
        if g > 1:
            row = {j: x // g for j, x in row.items()}
    return row


def _scaled(c: int, row: tuple, p) -> tuple:
    """The sparse row c * row, for an int c that is nonzero mod p over GF(p) and nonzero
    over Q: no entry becomes zero, as p is prime."""
    if p:
        c %= p
    if c == 1:
        return row
    if p:
        return tuple([(j, c * x % p) for j, x in row])
    return tuple([(j, c * x) for j, x in row])


def _new(field: Field, rows: int, cols: int, nz: tuple, den: int = 1) -> Matrix:
    """The matrix nz / den from sparse rows the kernel built, kept as they are (no copy,
    no checks).

    This is the one normaliser over Q: when den is not 1, it and the
    numerators are divided by their gcd.  Over GF(p) the kernel has already
    reduced nz mod p and dropped the zeros, and den is 1.
    """
    if den != 1:
        g = den
        for row in nz:
            if g == 1:
                break
            g = gcd(g, *[x for _, x in row])
        if g != 1:
            nz = tuple(tuple([(j, x // g) for j, x in row]) for row in nz)
            den //= g
    m = _alloc(Matrix)
    _set(m, field, rows, cols, nz, den)
    return m
