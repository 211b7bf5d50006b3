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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

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
    dpoly_from_json,
    dpoly_to_json,
    eval_dpoly,
    involution,
    normalize,
    print_dpoly,
    parse,
    proj_poly,
    tree_size,
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
class BasisEntry:
    """One universal-basis element: its defining double polynomial (may
    be None for value-only intermediates) and its value on each family
    member, indexed by position in the family."""

    dpoly: Optional[DPoly]
    values: List[Matrix]


@dataclass
class IdempotentBasis:
    family_size: int
    entries: List[BasisEntry]
    involution_pairing: Optional[List[int]] = None
    stabilized: bool = True
    depth: int = 0
    diagnostics: List[str] = field(default_factory=list)

    def values_on(self, member: int) -> List[Matrix]:
        return [e.values[member] for e in self.entries]

    def nonzero_values_on(self, member: int) -> List[Matrix]:
        return [
            e.values[member]
            for e in self.entries
            if not e.values[member].is_zero()
        ]

    def to_json(self) -> dict:
        entries = []
        for e in self.entries:
            rec: dict = {"values": [v.to_json() for v in e.values]}
            if e.dpoly is not None:
                rec.update(_dpoly_record(e.dpoly))
            entries.append(rec)
        return {
            "family_size": self.family_size,
            "entries": entries,
            "involution_pairing": self.involution_pairing,
            "stabilized": self.stabilized,
            "depth": self.depth,
            "diagnostics": list(self.diagnostics),
        }

    @staticmethod
    def from_json(data: dict) -> "IdempotentBasis":
        entries = []
        for rec in data["entries"]:
            if "dpoly" in rec:
                p: Optional[DPoly] = parse(rec["dpoly"])
            elif "dpoly_dag" in rec:
                p = dpoly_from_json(rec["dpoly_dag"])
            else:
                p = None
            entries.append(
                BasisEntry(p, [Matrix.from_json(v) for v in rec["values"]])
            )
        return IdempotentBasis(
            family_size=data["family_size"],
            entries=entries,
            involution_pairing=data.get("involution_pairing"),
            stabilized=data.get("stabilized", True),
            depth=data.get("depth", 0),
            diagnostics=list(data.get("diagnostics", ())),
        )


def _dpoly_record(p: DPoly) -> dict:
    """p's shorter JSON form: its text, which spells out every shared
    subterm at each use, or its DAG, which lists each node once.  The
    text is only printed when the DAG is at least as long as the tree,
    since every tree node prints at least one character."""
    dag = dpoly_to_json(p)
    size = len(json.dumps(dag))
    if tree_size(normalize(p)) <= size:
        text = print_dpoly(p)
        if len(text) <= size:
            return {"dpoly": text}
    return {"dpoly_dag": dag}


def check_basis(basis: IdempotentBasis) -> List[str]:
    """Universality diagnostics: per member, nonzero values must be
    distinct 0/1 matrices, pairwise Hadamard-orthogonal, summing to J.
    Returns a list of violation messages (empty = all good)."""
    problems = []
    for m in range(basis.family_size):
        vals = basis.nonzero_values_on(m)
        if not vals:
            problems.append("member %d: no nonzero values" % m)
            continue
        n = vals[0].n
        total = Matrix.zero(n)
        seen = set()
        for v in vals:
            if not v.is_zero_one():
                problems.append("member %d: non-0/1 value" % m)
            if v in seen:
                problems.append("member %d: repeated nonzero value" % m)
            seen.add(v)
            total = total + v
        if total != Matrix.ones(n):
            problems.append("member %d: values do not sum to J" % m)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if not vals[i].hadamard(vals[j]).is_zero():
                    problems.append(
                        "member %d: values %d,%d not orthogonal" % (m, i, j)
                    )
    return problems


# -- universal basis from explicit building polynomials ---------------

def universal_basis(
    family: Sequence[Matrix], polys: Sequence[DPoly]
) -> IdempotentBasis:
    """The atoms of the Hadamard algebras generated by the given
    polynomials' values, over the whole family at once: one basis whose
    evaluations at each member are that member's primitive idempotents.

    Only realized atoms are returned: positions are partitioned per
    member by their indicator profile across the projection
    compositions C, and each distinct profile yields one atom with its
    defining subset-product polynomial."""
    if not family:
        raise IdempotentError("empty family")
    n = family[0].n
    if any(a.n != n for a in family):
        raise IdempotentError("family members must share a dimension")
    values = [[eval_dpoly(b, a) for b in polys] for a in family]
    lam = set()
    for row in values:
        for v in row:
            for r in v.rows:
                for x in r:
                    lam.add(Fraction(x))
    lambdas = sorted(lam)
    # C, ordered by (poly index, value index)
    c_polys: List[DPoly] = []
    c_meta: List[Tuple[int, int]] = []
    for bi, b in enumerate(polys):
        for li, l in enumerate(lambdas):
            c_polys.append(compose(proj_poly(lambdas, l), b))
            c_meta.append((bi, li))
    # indicator profile of each position, per member
    atoms: Dict[tuple, dict] = {}
    order: List[tuple] = []
    for m in range(len(family)):
        for pos in range(n * n):
            i, j = divmod(pos, n)
            profile = tuple(
                1 if Fraction(values[m][bi].rows[i][j]) == lambdas[li] else 0
                for bi, li in c_meta
            )
            if profile not in atoms:
                atoms[profile] = {"first": (m, pos), "positions": {}}
                order.append(profile)
            atoms[profile]["positions"].setdefault(m, []).append(pos)
    order.sort(key=lambda pr: atoms[pr]["first"])
    entries = []
    for profile in order:
        factors = [
            c if bit else Sum((C_ONE, Scaled(-1, c)))
            for bit, c in zip(profile, c_polys)
        ]
        d = circ_product(factors)
        vals = []
        for m in range(len(family)):
            rows = [[0] * n for _ in range(n)]
            for pos in atoms[profile]["positions"].get(m, ()):
                rows[pos // n][pos % n] = 1
            vals.append(Matrix(rows))
        entries.append(BasisEntry(d, vals))
    return IdempotentBasis(family_size=len(family), entries=entries)


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
    polys = [e.dpoly for e in universal_basis(family, [X, B_ONE]).entries]
    depth = -1
    for colours, keys in refine(family):
        if keys is not None:
            polys = _split_polys(polys, keys)
        depth += 1
    n = family[0].n
    entries = [BasisEntry(p, []) for p in polys]
    for colour in colours:
        cells = [[[0] * n for _ in range(n)] for _ in entries]
        for i, row in enumerate(colour):
            for j, c in enumerate(row):
                cells[c][i][j] = 1
        for e, rows in zip(entries, cells):
            e.values.append(Matrix(rows))
    return IdempotentBasis(len(family), entries, depth=depth)


def _split_polys(polys: List[DPoly], keys: List[tuple]) -> List[DPoly]:
    """Atom polynomials of one split pass.  A key is a sorted tuple of
    colour pairs (k, l) of the previous pass; its class is where the
    projection of b_k * b_l onto the pair's count is 1.  Each atom
    multiplies, in triple order, the smallest triple (k, l, count)
    telling its key from each other key that the triples chosen so far
    do not, or the complement of that projection."""
    profiles = [
        frozenset(
            (k, l, Fraction(len(list(run))))
            for (k, l), run in groupby(key)
        )
        for key in keys
    ]
    lambdas = sorted({Fraction(0)} | {x for p in profiles for _, _, x in p})
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
    stable partition to a class; a basis whose atoms it does not map to
    atoms raises IdempotentError."""
    for a in family:
        if not a.is_symmetric():
            raise IdempotentError("family member is not symmetric")
    entries = basis.entries
    if any(e.dpoly is None for e in entries):
        raise IdempotentError("basis entries lack defining polynomials")
    problems = check_basis(basis)
    if problems:
        raise IdempotentError("not a universal basis: " + problems[0])
    index = {tuple(e.values): k for k, e in enumerate(entries)}
    tau = [index.get(tuple(v.transpose() for v in e.values)) for e in entries]
    if None in tau:
        raise IdempotentError("basis is not closed under transpose")
    out = [
        BasisEntry(Circ(e.dpoly, involution(e.dpoly)), list(e.values))
        for k, e in enumerate(entries)
        if tau[k] == k
    ]
    pairing = list(range(len(out)))
    for k, e in enumerate(entries):
        if tau[k] > k:
            pairing += [len(out) + 1, len(out)]
            out.append(BasisEntry(e.dpoly, list(e.values)))
            out.append(
                BasisEntry(involution(e.dpoly), list(entries[tau[k]].values))
            )
    return IdempotentBasis(len(family), out, involution_pairing=pairing)
