"""Exact field and matrix arithmetic.

Everything downstream (closure computation, idempotent bases, spectra)
relies on exact zero tests, so the default scalar type is an
arbitrary-precision rational.  Integers are kept as Python ints where
possible and only promoted to Fraction when a division forces it.
A prime field GF(p) is available as an alternative scalar type; it is
only usable for characteristic-sensitive operations (characteristic
polynomials, Newton identities) when p exceeds the matrix dimension.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence, Union


class FieldError(ValueError):
    """Raised when a scalar operation is not defined over the field."""


class DimensionError(ValueError):
    """Raised on a matrix dimension mismatch."""


class GFp:
    """An element of the prime field of size p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _check(self, other: "GFp") -> None:
        if self.p != other.p:
            raise FieldError("mixed prime fields: %d vs %d" % (self.p, other.p))

    def __add__(self, other):
        if isinstance(other, int):
            return GFp(self.value + other, self.p)
        self._check(other)
        return GFp(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return GFp(self.value - other, self.p)
        self._check(other)
        return GFp(self.value - other.value, self.p)

    def __rsub__(self, other):
        return GFp(other - self.value, self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return GFp(self.value * other, self.p)
        self._check(other)
        return GFp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = GFp(other, self.p)
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFp(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return GFp(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, GFp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "GFp(%d, %d)" % (self.value, self.p)


Scalar = Union[int, Fraction, GFp]


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, GFp):
        return x.value == 0
    return x == 0


def _int_str(v: int) -> str:
    """str(v) for an int of any length.  CPython refuses to convert an
    int longer than sys.get_int_max_str_digits() (4300 by default);
    such ints are rendered in halves split on a power of ten, leaving
    the interpreter-wide limit alone."""
    try:
        return str(v)
    except ValueError:
        if v < 0:
            return "-" + _int_str(-v)
        k = v.bit_length() * 3 // 20  # about half the decimal digits
        hi, lo = divmod(v, 10**k)
        return _int_str(hi) + _int_str(lo).zfill(k)


def format_scalar(x: Scalar) -> str:
    """Render a scalar as an exact decimal-free literal, "p" or "p/q"."""
    if isinstance(x, GFp):
        return str(x.value)
    f = Fraction(x)
    if f.denominator == 1:
        return _int_str(f.numerator)
    return _int_str(f.numerator) + "/" + _int_str(f.denominator)


def parse_scalar(s: str) -> Scalar:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        f = Fraction(int(num), int(den))
        return f.numerator if f.denominator == 1 else f
    return int(s)


def _exact_div(x: Scalar, k: int) -> Scalar:
    """x / k, keeping ints when the division is exact."""
    if isinstance(x, GFp):
        return x / k
    if isinstance(x, int) and x % k == 0:
        return x // k
    return Fraction(x) / k


class Matrix:
    """A dense square matrix over an exact field.

    Rows are stored as tuples, so a Matrix is immutable and hashable.
    Entries are ints, Fractions, or GFp elements; a single matrix must
    not mix rational and prime-field entries.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, rows: Iterable[Sequence[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionError("matrix must be square")
        self.n = n
        self.rows = rows
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int, one: Scalar = 1, zero: Scalar = 0) -> "Matrix":
        return Matrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def ones(n: int, one: Scalar = 1) -> "Matrix":
        return Matrix([[one] * n for _ in range(n)])

    @staticmethod
    def zero(n: int, zero: Scalar = 0) -> "Matrix":
        return Matrix([[zero] * n for _ in range(n)])

    def one_scalar(self) -> Scalar:
        """The multiplicative identity of this matrix's scalar field."""
        x = self.rows[0][0] if self.n else 1
        if isinstance(x, GFp):
            return GFp(1, x.p)
        return 1

    def zero_scalar(self) -> Scalar:
        x = self.rows[0][0] if self.n else 0
        if isinstance(x, GFp):
            return GFp(0, x.p)
        return 0

    # -- arithmetic --------------------------------------------------

    def _same_dim(self, other: "Matrix") -> None:
        if self.n != other.n:
            raise DimensionError(
                "dimension mismatch: %d vs %d" % (self.n, other.n)
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_dim(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_dim(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[c * a for a in r] for r in self.rows])

    def matmul(self, other: "Matrix") -> "Matrix":
        self._same_dim(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = []
        for ra in self.rows:
            out.append(
                [sum(a * b for a, b in zip(ra, col)) for col in cols]
                if n
                else []
            )
        return Matrix(out)

    def hadamard(self, other: "Matrix") -> "Matrix":
        self._same_dim(other)
        return Matrix(
            [
                [a * b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.n else Matrix([])

    def trace(self) -> Scalar:
        return sum(self.rows[i][i] for i in range(self.n))

    # -- predicates --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        if self._hash is None:
            norm = tuple(
                tuple(
                    x if isinstance(x, GFp) else Fraction(x) for x in r
                )
                for r in self.rows
            )
            self._hash = hash(norm)
        return self._hash

    def is_zero(self) -> bool:
        return all(scalar_is_zero(x) for r in self.rows for x in r)

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def is_zero_one(self) -> bool:
        return all(x == 0 or x == 1 for r in self.rows for x in r)

    def __repr__(self):
        return "Matrix(%r)" % (
            [[format_scalar(x) for x in r] for r in self.rows],
        )

    # -- serialization -----------------------------------------------

    def to_json(self) -> list:
        return [[format_scalar(x) for x in r] for r in self.rows]

    @staticmethod
    def from_json(data: list) -> "Matrix":
        return Matrix([[parse_scalar(x) for x in r] for r in data])

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(s: str) -> "Matrix":
        return Matrix.from_json(json.loads(s))


# -- module-level operation aliases ----------------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return a.matmul(b)


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    return a.hadamard(b)


def transpose(a: Matrix) -> Matrix:
    return a.transpose()


def _field_char(a: Matrix) -> int:
    x = a.rows[0][0] if a.n else 0
    return x.p if isinstance(x, GFp) else 0


def char_poly(a: Matrix):
    """Coefficients of det(tI - a), monic, highest degree first.

    Uses the Faddeev-LeVerrier recurrence, which only ever divides by
    the integers 1..n; over a prime field this requires p > n.
    """
    n = a.n
    p = _field_char(a)
    if p and p <= n:
        raise FieldError(
            "char_poly over GF(%d) needs p > n (n = %d)" % (p, n)
        )
    one = a.one_scalar()
    zero = a.zero_scalar()
    coeffs = [one]
    m = Matrix.identity(n, one, zero)
    for k in range(1, n + 1):
        m = a.matmul(m)
        c = _exact_div(-m.trace(), k)
        coeffs.append(c)
        if k < n:
            m = m + Matrix.identity(n, one, zero).scale(c)
    return tuple(coeffs)


def trace_powers(a: Matrix, kmax: int):
    """(tr a, tr a^2, ..., tr a^kmax), exact."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    out = []
    m = a
    for _ in range(kmax):
        out.append(m.trace())
        if len(out) < kmax:
            m = m.matmul(a)
    return tuple(out)
