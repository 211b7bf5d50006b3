"""Exact field and matrix arithmetic.

Everything downstream (closure computation, idempotent bases, spectra)
relies on exact zero tests, so the default scalar type is an
arbitrary-precision rational.  Integers are kept as Python ints where
possible and only promoted to Fraction when a division forces it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence, Union


class DimensionError(ValueError):
    """Raised on a matrix dimension mismatch."""


Scalar = Union[int, Fraction]


def scalar_is_zero(x: Scalar) -> bool:
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
    if isinstance(x, int) and x % k == 0:
        return x // k
    return Fraction(x) / k


class Matrix:
    """A dense square matrix over the rationals.

    Rows are stored as tuples, so a Matrix is immutable and hashable.
    Entries are ints or Fractions.
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
            norm = tuple(tuple(Fraction(x) for x in r) for r in self.rows)
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


def char_poly(a: Matrix):
    """Coefficients of det(tI - a), monic, highest degree first.

    Uses the Faddeev-LeVerrier recurrence, which only ever divides by
    the integers 1..n.
    """
    n = a.n
    coeffs = [1]
    m = Matrix.identity(n)
    for k in range(1, n + 1):
        m = a.matmul(m)
        c = _exact_div(-m.trace(), k)
        coeffs.append(c)
        if k < n:
            m = m + Matrix.identity(n).scale(c)
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
