"""Exact scalar arithmetic over Q and GF(p), and dense exact linear algebra.

Scalars are plain Python values: `fractions.Fraction` over the rationals,
ints in [0, p) over a prime field.  A `Field` object owns the arithmetic;
matrices pair a `Field` with a tuple-of-tuples of scalars.

Conventions fixed here and used by every other module:
  * matrices act on column vectors: M maps k^cols -> k^rows;
  * tensor products flatten left-major: the basis vector u_i (x) v_j of
    U (x) V has flat index i * dim(V) + j;
  * kernel bases and solves use reduced row echelon form with
    smallest-index pivoting, so results are reproducible bit for bit;
  * storage is dense, but `@`, `kron` and `apply` do work only on nonzero
    entries: the structure maps they compose are mostly zero;
  * a tensor flip inside a composite is a column reindexing
    (`Matrix.flip_cols`), never a permutation-matrix product.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import DivisionByZeroError, MixedFieldsError, ShapeMismatchError
from .record import Record

Scalar = Fraction | int


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
    """Ground field: kind "rational" with p None, or kind "prime" for GF(p)."""

    __slots__ = ("kind", "p")

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field has no characteristic")
        elif self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"characteristic must be prime, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rational() -> "Field":
        return Field("rational", None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field("prime", p)

    # -- scalar arithmetic ------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "rational" else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "rational" else 1

    def of(self, n: int) -> Scalar:
        """Canonical image of the integer n."""
        return Fraction(n) if self.kind == "rational" else n % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == "rational" else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == "rational" else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == "rational" else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "rational" else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise DivisionByZeroError("inverse of zero")
        if self.kind == "rational":
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- scalar literals ---------------------------------------------------

    def parse(self, text: str | int) -> Scalar:
        """Parse a scalar literal: "a/b" or integer over Q, residue over GF(p)."""
        if self.kind == "prime":
            if isinstance(text, bool) or not isinstance(text, int):
                raise ValueError(f"GF({self.p}) scalar must be an integer, got {text!r}")
            if not 0 <= text < self.p:
                raise ValueError(f"residue {text} out of range [0, {self.p})")
            return text
        if isinstance(text, bool):
            raise ValueError(f"not a rational literal: {text!r}")
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, str):
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"not a rational literal: {text!r}") from exc
            return value
        raise ValueError(f"not a rational literal: {text!r}")

    def show(self, a: Scalar) -> str | int:
        """Canonical literal for serialization (inverse of parse)."""
        if self.kind == "prime":
            return int(a)
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __repr__(self):
        return "Q" if self.kind == "rational" else f"GF({self.p})"


def require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise MixedFieldsError(f"mixed fields {a} and {b}")


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence[Scalar]], rows=None, cols=None):
        data = tuple(tuple(row) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatchError("ragged matrix data")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @staticmethod
    def col(field: Field, entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(field, [[e] for e in entries], len(entries), 1)

    @staticmethod
    def row(field: Field, entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(field, [list(entries)], 1, len(entries))

    @staticmethod
    def flip(field: Field, a: int, b: int) -> "Matrix":
        """Permutation matrix of the tensor flip U (x) V -> V (x) U, dim U = a, dim V = b."""
        return Matrix.identity(field, a * b).flip_cols(1, a, b, 1)

    # -- basic queries -----------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(self.field.show(x)) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: [{body}])"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self == Matrix.identity(self.field, self.rows)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        add = self.field.add
        return Matrix(
            self.field,
            [
                [add(self.data[i][j], other.data[i][j]) for j in range(self.cols)]
                for i in range(self.rows)
            ],
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.field.of(-1))

    def scale(self, c: Scalar) -> "Matrix":
        mul = self.field.mul
        return Matrix(
            self.field,
            [[mul(c, x) for x in row] for row in self.data],
            self.rows,
            self.cols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"product of {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        # Only nonzero products contribute: walk the nonzero a_ik of each
        # left row against the nonzero (j, b_kj) of right row k, listed once.
        # Sums start from field.zero (a Fraction over Q); over GF(p) they run
        # in plain ints and are reduced once per output entry.
        f = self.field
        zero, p, cols = f.zero, f.p, other.cols
        nonzero = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.data]
        out = []
        for arow in self.data:
            acc = [zero] * cols
            for a, bk in zip(arow, nonzero):
                if a:
                    for j, b in bk:
                        acc[j] += a * b
            out.append([s % p for s in acc] if p else acc)
        return Matrix(f, out, self.rows, cols)

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        """Matrix-vector product (vec as coordinates of the source)."""
        if len(vec) != self.cols:
            raise ShapeMismatchError(f"apply {self.rows}x{self.cols} to vector of length {len(vec)}")
        f = self.field
        zero, p = f.zero, f.p
        nonzero = [(k, v) for k, v in enumerate(vec) if v]
        out = []
        for row in self.data:
            s = zero
            for k, v in nonzero:
                a = row[k]
                if a:
                    s += a * v
            out.append(s % p if p else s)
        return tuple(out)

    def flip_cols(self, p: int, a: int, b: int, q: int) -> "Matrix":
        """self @ (I_p (x) flip(a, b) (x) I_q), by reindexing columns.

        Column ((s*a + i)*b + j)*q + t of the result is column
        ((s*b + j)*a + i)*q + t of self.
        """
        n = p * a * b * q
        if self.cols != n:
            raise ShapeMismatchError(f"product of {self.rows}x{self.cols} with {n}x{n}")
        src = [
            ((s * b + j) * a + i) * q + t
            for s in range(p) for i in range(a) for j in range(b) for t in range(q)
        ]
        return Matrix(self.field, [[row[k] for k in src] for row in self.data], self.rows, n)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(self.field, [[] for _ in range(self.cols)], self.cols, 0)
        return Matrix(self.field, list(zip(*self.data)), self.cols, self.rows)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, left factor major (row index i*other.rows + j)."""
        require_same_field(self.field, other.field)
        f = self.field
        zero, p = f.zero, f.p
        gap = [zero] * other.cols  # the block row of a zero a_ik
        out = []
        for arow in self.data:
            for brow in other.data:
                row = []
                for a in arow:
                    if not a:
                        row += gap
                    elif p:
                        row += [a * b % p for b in brow]
                    else:
                        row += [a * b if b else zero for b in brow]
                out.append(row)
        return Matrix(f, out, self.rows * other.rows, self.cols * other.cols)

    # -- elimination ----------------------------------------------------------

    def _rref(self):
        """Reduced row echelon form with smallest-index pivoting.

        Returns (rows as lists, pivot column indices)."""
        f = self.field
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pivot_row = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pinv = f.inv(m[r][c])
            m[r] = [f.mul(pinv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    factor = m[i][c]
                    m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Deterministic basis of the right null space.

        Each basis vector has a 1 in one free coordinate and 0 in the other
        free coordinates; pivot coordinates are filled by back substitution.
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
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(m[r][free])
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence[Scalar]) -> tuple | None:
        """One exact solution of self . x = rhs, or None if inconsistent.

        Returns (solution, unique_flag). Free variables are set to zero.
        """
        if len(rhs) != self.rows:
            raise ShapeMismatchError(f"solve {self.rows}x{self.cols} with rhs of length {len(rhs)}")
        f = self.field
        aug = Matrix(self.field, [list(row) + [b] for row, b in zip(self.data, rhs)],
                     self.rows, self.cols + 1)
        m, pivots = aug._rref()
        if self.cols in pivots:
            return None
        x = [f.zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        unique = len(pivots) == self.cols
        return tuple(x), unique

    def inverse(self) -> Matrix | None:
        if self.rows != self.cols:
            return None
        f = self.field
        n = self.rows
        ident = Matrix.identity(f, n)
        aug = Matrix(f, [list(a) + list(b) for a, b in zip(self.data, ident.data)], n, 2 * n)
        m, pivots = aug._rref()
        if pivots != list(range(n)):
            return None
        return Matrix(f, [row[n:] for row in m], n, n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def linear_map_matrix(field: Field, n_unknowns: int, apply_fn) -> Matrix:
    """Matrix of a linear map k^n -> k^m given by evaluation on basis vectors.

    apply_fn receives each standard basis vector (as a tuple) and must
    return the image coordinates (as a sequence).  Used to assemble the
    linear systems whose unknowns are entries of structure maps.
    """
    cols = []
    for i in range(n_unknowns):
        e = tuple(field.one if j == i else field.zero for j in range(n_unknowns))
        cols.append(tuple(apply_fn(e)))
    if not cols:
        return Matrix.zeros(field, 0, 0)
    rows = len(cols[0])
    return Matrix(field, [[cols[j][i] for j in range(n_unknowns)] for i in range(rows)], rows, n_unknowns)
