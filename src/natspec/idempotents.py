"""Primitive Hadamard-idempotent bases.

A commutative Hadamard subalgebra of M_n containing the all-one matrix
J is spanned by 0/1 "indicator" matrices of a partition of the n^2
entry positions; those indicators are its primitive idempotents.  This
module reads them off a generated double algebra, and builds *universal*
bases: single lists of double polynomials whose evaluations at every
member of a finite family of matrices yield that member's primitive
idempotents, and their involution closure for the spectrum pipeline.

The universal basis of the members' generated double algebras is a
view on the refinement kernel `closure.refine` run on the whole family:
its atoms are the classes of the stable partition, with class names
shared across members.  The subset-product atoms are exponential in
the number of building polynomials if materialized naively; atom
polynomials here only multiply a small distinguishing subset of
factors chosen to separate the realized classes, and their evaluations
agree with the full products on every family member.  For a symmetric
family the partition is closed under transpose, so the involution
closure is a lookup of each class's transpose class.

A basis is held as that partition: one polynomial per atom, and per
member an n x n array of colours, colour k meaning atom k.  The 0/1
value of an atom on a member is built only on request
(`IdempotentBasis.value`); a bundle writes the partition itself
(`cli._bundle_to_json`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence

from .closure import ClosureResult, refine
from .dpoly import (
    B_ONE,
    C_ONE,
    X,
    Bullet,
    Circ,
    DPoly,
    Scaled,
    Sum,
    circ_product,
    compose,
    eval_dpoly,
    involution,
    proj_poly,
)
from .exact import Matrix


class IdempotentError(ValueError):
    pass


# -- primitive idempotents of a generated double algebra -------------

def primitive_circ_idempotents(res: ClosureResult) -> List[Matrix]:
    """The primitive Hadamard idempotents of a generated double algebra:
    the 0/1 indicators of its cells, ordered by smallest position."""
    n = res.n
    out = []
    for cell in res.cells:
        rows = [[0] * n for _ in range(n)]
        for pos in cell:
            rows[pos // n][pos % n] = 1
        out.append(Matrix(rows))
    return out


# -- the basis container ---------------------------------------------

@dataclass
class IdempotentBasis:
    """A universal basis as the partition it spans: `entries[k]` is
    atom k's double polynomial, and `colours[m][i][j]` is the atom
    holding position (i, j) of family member m, so atom k evaluates on
    member m to the indicator of its colour-k positions."""

    entries: List[DPoly]
    colours: List[List[List[int]]]
    involution_pairing: Optional[List[int]] = None
    depth: int = 0

    @property
    def family_size(self) -> int:
        return len(self.colours)

    def value(self, k: int, m: int) -> Matrix:
        """Atom k's 0/1 value on member m."""
        return Matrix([[int(c == k) for c in row] for row in self.colours[m]])


# -- universal basis from explicit building polynomials ---------------

def universal_basis(
    family: Sequence[Matrix], polys: Sequence[DPoly]
) -> IdempotentBasis:
    """The atoms of the Hadamard algebras generated by the given
    polynomials' values, over the whole family at once: one basis whose
    evaluations at each member are that member's primitive idempotents.

    Only realized atoms are returned: a position's atom is its profile
    of values across the polynomials, numbered in order of first
    (member, row-major position), and each profile's polynomial is the
    product over the projection compositions C of the projection or
    its complement."""
    if not family:
        raise IdempotentError("empty family")
    n = family[0].n
    if any(a.n != n for a in family):
        raise IdempotentError("family members must share a dimension")
    values = [[eval_dpoly(b, a).rows for b in polys] for a in family]
    lambdas = sorted(
        {x for row in values for v in row for r in v for x in r}
    )
    # C, ordered by (poly index, value)
    c_meta = [(bi, l) for bi in range(len(polys)) for l in lambdas]
    c_polys = [compose(proj_poly(lambdas, l), polys[bi]) for bi, l in c_meta]
    ids: Dict[tuple, int] = {}
    colours = [
        [
            [
                ids.setdefault(tuple(v[i][j] for v in vals), len(ids))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for vals in values
    ]
    entries = [
        circ_product(
            [
                c if profile[bi] == l else Sum((C_ONE, Scaled(-1, c)))
                for (bi, l), c in zip(c_meta, c_polys)
            ]
        )
        for profile in ids
    ]
    return IdempotentBasis(entries, colours)


# -- full universal basis on the refinement kernel ---------------------

def universal_basis_full(family: Sequence[Matrix]) -> IdempotentBasis:
    """A universal idempotent basis for the *generated double algebras*
    of the family members: the classes of the family's stable 2-WL
    partition (`closure.refine`, class names shared across members).
    The depth-0 atoms are those of `universal_basis(family, [X, I])`;
    each split pass builds its atom polynomials from the previous
    pass's, as products of projections of b_k * b_l onto the counts
    that tell its key from the others, so their evaluations match the
    full subset-product definition on every family member."""
    polys = universal_basis(family, [X, B_ONE]).entries
    depth = -1
    for colours, keys in refine(family):
        if keys is not None:
            polys = _split_polys(polys, keys)
        depth += 1
    return IdempotentBasis(polys, colours, depth=depth)


def _split_polys(polys: List[DPoly], keys: List[tuple]) -> List[DPoly]:
    """Atom polynomials of one split pass.  A key is a sorted tuple of
    colour pairs (k, l) of the previous pass; its class is where the
    projection of b_k * b_l onto the pair's count is 1.  Each atom
    multiplies, in triple order, the smallest triple (k, l, count)
    telling its key from each other key that the triples chosen so far
    do not, or the complement of that projection."""
    profiles = [
        frozenset((k, l, len(list(run))) for (k, l), run in groupby(key))
        for key in keys
    ]
    lambdas = sorted({0} | {x for p in profiles for _, _, x in p})
    proj: Dict[tuple, DPoly] = {}

    def c_poly(t: tuple) -> DPoly:
        if t not in proj:
            k, l, x = t
            proj[t] = compose(proj_poly(lambdas, x), Bullet(polys[k], polys[l]))
        return proj[t]

    out = []
    for profile in profiles:
        chosen: set = set()
        for other in profiles:
            if other is profile or any(
                (t in profile) != (t in other) for t in chosen
            ):
                continue
            chosen.add(min(profile ^ other))
        out.append(
            circ_product(
                [
                    c_poly(t) if t in profile
                    else Sum((C_ONE, Scaled(-1, c_poly(t))))
                    for t in sorted(chosen)
                ]
            )
        )
    return out


# -- involution closure ------------------------------------------------

def involution_close(
    basis: IdempotentBasis, family: Sequence[Matrix]
) -> IdempotentBasis:
    """The strict universal basis closed under the involution sigma,
    for a symmetric family: b o sigma(b) for each atom b that is its
    own transpose, then b, sigma(b) for each atom b whose transpose is
    a later atom, with the transpose pairing.  Transpose reverses the
    matrix product and fixes A, I and J, so it maps every class of a
    stable partition to a class: atom k's transpose is the atom
    tau(k) = colour[j][i] of its positions (i, j), on every member.  A
    basis where tau disagrees raises IdempotentError."""
    for a in family:
        if not a.is_symmetric():
            raise IdempotentError("family member is not symmetric")
    tau: List[Optional[int]] = [None] * len(basis.entries)
    for colour in basis.colours:
        for row, column in zip(colour, zip(*colour)):
            for c, t in zip(row, column):
                if tau[c] is None:
                    tau[c] = t
                elif tau[c] != t:
                    raise IdempotentError(
                        "basis is not closed under transpose"
                    )
    if None in tau:
        raise IdempotentError("basis has an atom that no member realizes")
    entries = basis.entries
    renumber = [k for k in range(len(entries)) if tau[k] == k]
    out = [Circ(entries[k], involution(entries[k])) for k in renumber]
    pairing = list(range(len(out)))
    for k, p in enumerate(entries):
        if tau[k] > k:
            pairing += [len(out) + 1, len(out)]
            out += [p, involution(p)]
            renumber += [k, tau[k]]
    new = {k: i for i, k in enumerate(renumber)}
    colours = [
        [[new[c] for c in row] for row in colour] for colour in basis.colours
    ]
    return IdempotentBasis(out, colours, involution_pairing=pairing)
