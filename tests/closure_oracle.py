"""Slow reference for natspec.closure: the generated double algebra by
linear algebra, and its primitive idempotents by value profiles.

The elimination closure alternates span extension with product
formation until the dimension stabilizes.  It knows nothing of
partitions or refinement, so the differential tests compare the
partition-refinement kernel against it.

The linear algebra is done fraction-free over the integers: every
matrix in play has rational entries, so a vector can be scaled to a
primitive integer vector, and elimination keeps integer rows with a
gcd strip after each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional

from natspec.exact import Matrix, Scalar


class ClosureError(ValueError):
    pass


def _to_int_vector(m: Matrix) -> List[int]:
    flat: List[Scalar] = [x for r in m.rows for x in r]
    den = 1
    for x in flat:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    if den == 1:
        return [int(x) for x in flat]
    return [int(x * den) for x in flat]


def _strip(v: List[int]) -> List[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        v = [x // g for x in v]
    # sign convention: first nonzero entry positive
    for x in v:
        if x:
            if x < 0:
                v = [-y for y in v]
            break
    return v


class SubspaceBasis:
    """An integer echelon basis of a subspace of n x n matrices.

    Rows are primitive integer vectors in echelon form (strictly
    increasing pivot columns); `members` records the matrices whose
    insertion actually grew the space, in insertion order, so they form
    a (non-echelon) basis of the same span.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: List[List[int]] = []
        self.pivots: List[int] = []
        self.members: List[Matrix] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: List[int]) -> List[int]:
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                p = row[c]
                coef = v[c]
                v = [p * a - coef * b for a, b in zip(v, row)]
                v = _strip(v)
        return v

    def residual(self, m: Matrix) -> List[int]:
        if m.n != self.n:
            raise ClosureError("dimension mismatch")
        return self._reduce(_to_int_vector(m))

    def contains(self, m: Matrix) -> bool:
        return not any(self.residual(m))

    def add(self, m: Matrix) -> bool:
        """Insert m's residual if it is independent; True if dim grew."""
        v = self.residual(m)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        k = 0
        while k < len(self.pivots) and self.pivots[k] < c:
            k += 1
        self.rows.insert(k, v)
        self.pivots.insert(k, c)
        self.members.append(m)
        return True

    def rref_matrices(self) -> List[Matrix]:
        """The reduced (pivot = 1, back-eliminated) basis, as matrices."""
        rows = [[Fraction(x) for x in r] for r in self.rows]
        for i in range(len(rows) - 1, -1, -1):
            c = self.pivots[i]
            piv = rows[i][c]
            rows[i] = [x / piv for x in rows[i]]
            for j in range(i):
                f = rows[j][c]
                if f:
                    rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
        n = self.n
        return [
            Matrix([r[i * n : (i + 1) * n] for i in range(n)]) for r in rows
        ]

    def coordinates(self, m: Matrix) -> Optional[List[Fraction]]:
        """Coordinates of m in the rref basis, or None if m is outside
        the span."""
        if not self.contains(m):
            return None
        flat = [Fraction(x) for r in m.rows for x in r]
        coords = []
        ref = self.rref_matrices()
        for b, c in zip(ref, self.pivots):
            coords.append(flat[c])
            bf = [Fraction(x) for r in b.rows for x in r]
            flat = [a - flat[c] * y for a, y in zip(flat, bf)]
        return coords

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [[str(x) for x in r] for r in self.rows],
            "pivots": list(self.pivots),
            "members": [m.to_json() for m in self.members],
        }

    @staticmethod
    def from_json(data: dict) -> "SubspaceBasis":
        b = SubspaceBasis(data["n"])
        b.rows = [[int(x) for x in r] for r in data["rows"]]
        b.pivots = list(data["pivots"])
        b.members = [Matrix.from_json(m) for m in data["members"]]
        return b


@dataclass
class OracleClosure:
    n: int
    basis: SubspaceBasis

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def full(self) -> bool:
        return self.dim == self.n * self.n


def oracle_closure(a: Matrix, early_exit: bool = False) -> OracleClosure:
    """The smallest subspace containing I, J and a that is closed under
    both products, by elimination.  With early_exit, stops as soon as
    the dimension reaches n^2: enough to decide fullness, not to list
    the idempotents of a non-full algebra."""
    n = a.n
    basis = SubspaceBasis(n)
    for g in (Matrix.identity(n), Matrix.ones(n), a):
        basis.add(g)
    frontier = list(basis.members)
    while frontier:
        new: List[Matrix] = []
        members = list(basis.members)
        for f in frontier:
            for m in members:
                for c in (f.matmul(m), m.matmul(f), f.hadamard(m)):
                    if basis.add(c):
                        if early_exit and basis.dim == n * n:
                            return OracleClosure(n, basis)
                        new.append(c)
        frontier = new
    return OracleClosure(n, basis)


def profile_idempotents(space: SubspaceBasis) -> List[Matrix]:
    """The primitive Hadamard idempotents of a Hadamard-closed subspace
    containing J, by grouping entry positions by their value vector
    across the rref basis; ordered by smallest position."""
    basis = space.rref_matrices()
    n = space.n
    if not space.contains(Matrix.ones(n)):
        raise ClosureError("subspace does not contain the all-one matrix")
    for i, b in enumerate(basis):
        for c in basis[i:]:
            if not space.contains(b.hadamard(c)):
                raise ClosureError(
                    "subspace is not closed under the Hadamard product"
                )
    classes: Dict[tuple, List[int]] = {}
    for pos in range(n * n):
        i, j = divmod(pos, n)
        profile = tuple(Fraction(b.rows[i][j]) for b in basis)
        classes.setdefault(profile, []).append(pos)
    out = []
    for cell in classes.values():
        rows = [[0] * n for _ in range(n)]
        for pos in cell:
            rows[pos // n][pos % n] = 1
        out.append(Matrix(rows))
    return out
