"""Slow reference for the family basis and its involution closure.

`DenseBasis` holds a basis the dense way: each atom's polynomial and its
0/1 value on every member as a `Matrix`; `dense` reads a
`natspec.idempotents.IdempotentBasis` into it through `value(k, m)`,
and `check_basis` checks universality on the dense values.
`oracle_universal_basis_full` alternates dense pairwise matrix products
of the current atoms with Hadamard-atom refinement until every member's
position partition stabilizes.  `oracle_involution_close` strictifies
the weak sequence (all b o sigma(b) first, then the b, sigma(b) pairs)
and recovers the transpose pairing from the values.  Neither knows of
colour classes or transpose lookups, so the differential tests compare
`natspec.idempotents` against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from natspec.dpoly import (
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
from natspec.exact import Matrix
from natspec.idempotents import IdempotentBasis, IdempotentError, universal_basis


# -- the dense container ----------------------------------------------

@dataclass
class BasisEntry:
    """One universal-basis element: its defining double polynomial and
    its value on each family member, indexed by position in the
    family."""

    dpoly: DPoly
    values: List[Matrix]


@dataclass
class DenseBasis:
    family_size: int
    entries: List[BasisEntry]
    involution_pairing: Optional[List[int]] = None
    depth: int = 0

    def values_on(self, member: int) -> List[Matrix]:
        return [e.values[member] for e in self.entries]

    def nonzero_values_on(self, member: int) -> List[Matrix]:
        return [v for v in self.values_on(member) if not v.is_zero()]


def dense(basis: IdempotentBasis) -> DenseBasis:
    """The basis with every atom's value on every member as a Matrix."""
    members = range(basis.family_size)
    return DenseBasis(
        basis.family_size,
        [
            BasisEntry(p, [basis.value(k, m) for m in members])
            for k, p in enumerate(basis.entries)
        ],
        basis.involution_pairing,
        basis.depth,
    )


def check_basis(basis: DenseBasis) -> List[str]:
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


# -- strictification --------------------------------------------------

def _strictify_with_values(
    polys: Sequence[DPoly], value_rows: List[List[Matrix]]
) -> Tuple[List[DPoly], List[List[Matrix]]]:
    """c_i = b_i - sum_{j<i} b_i o c_j, with the sum restricted to the
    j that are actually non-orthogonal to b_i somewhere in the family
    (the dropped terms evaluate to zero on every member, so values are
    unchanged).  value_rows[i][m] = value of polys[i] on member m."""
    members = range(len(value_rows[0])) if value_rows else range(0)
    out_polys: List[DPoly] = []
    out_vals: List[List[Matrix]] = []
    for i, b in enumerate(polys):
        hits = []
        new_vals = list(value_rows[i])
        for j in range(len(out_polys)):
            prods = [
                value_rows[i][m].hadamard(out_vals[j][m]) for m in members
            ]
            if any(not p.is_zero() for p in prods):
                hits.append(j)
                new_vals = [v - p for v, p in zip(new_vals, prods)]
        if hits:
            terms: List[DPoly] = [b]
            terms.extend(Scaled(-1, Circ(b, out_polys[j])) for j in hits)
            out_polys.append(Sum(terms))
        else:
            out_polys.append(b)
        out_vals.append(new_vals)
    return out_polys, out_vals


def strictify(polys: Sequence[DPoly], family: Sequence[Matrix]) -> List[DPoly]:
    """Convert a weak universal basis (values may repeat within a
    member) into a strict one by zeroing later duplicates."""
    value_rows = [[eval_dpoly(b, a) for a in family] for b in polys]
    out, _ = _strictify_with_values(polys, value_rows)
    return out


# -- full universal basis by product filtration ------------------------

def _partition_key(vals: List[Matrix], n: int):
    """Partition of positions induced by a list of 0/1 matrices."""
    groups: Dict[tuple, List[int]] = {}
    for pos in range(n * n):
        i, j = divmod(pos, n)
        sig = tuple(v.rows[i][j] for v in vals)
        groups.setdefault(sig, []).append(pos)
    return frozenset(tuple(g) for g in groups.values())


def oracle_universal_basis_full(
    family: Sequence[Matrix], depth_cap: int = 12
) -> DenseBasis:
    """A universal idempotent basis for the generated double algebras
    of the family members, by alternating pairwise matrix products with
    Hadamard-atom refinement until every member's position partition
    stabilizes; IdempotentError if it has not within depth_cap
    rounds."""
    if not family:
        raise IdempotentError("empty family")
    n = family[0].n
    if any(a.n != n for a in family):
        raise IdempotentError("family members must share a dimension")

    basis = dense(universal_basis(family, [X, B_ONE]))
    prev_parts = [
        _partition_key(basis.values_on(m), n)
        for m in range(len(family))
    ]
    for depth in range(1, depth_cap + 1):
        nxt = _refine_by_products(family, basis)
        parts = [
            _partition_key(nxt.values_on(m), n) for m in range(len(family))
        ]
        if parts == prev_parts:
            basis.depth = depth - 1
            return basis
        basis = nxt
        prev_parts = parts
    raise IdempotentError(
        "depth cap %d reached before stabilization" % depth_cap
    )


def _refine_by_products(
    family: Sequence[Matrix], basis: DenseBasis
) -> DenseBasis:
    """One filtration round: atoms of the Hadamard algebras generated
    by all pairwise matrix products of the current atoms."""
    n = family[0].n
    atoms = basis.entries
    # per member: product matrices for pairs of atoms nonzero there
    member_products: List[Dict[Tuple[int, int], Matrix]] = []
    lam = {Fraction(0)}
    for m in range(len(family)):
        nz = [
            k for k, e in enumerate(atoms) if not e.values[m].is_zero()
        ]
        prods = {}
        for k in nz:
            vk = atoms[k].values[m]
            for l in nz:
                prods[(k, l)] = vk.matmul(atoms[l].values[m])
        member_products.append(prods)
        for p in prods.values():
            for r in p.rows:
                for x in r:
                    lam.add(Fraction(x))
    lambdas = sorted(lam)

    # sparse profile of a position: nonzero product entries there.
    # Pairs that are zero matrices on a member contribute the implicit
    # entry 0 everywhere, so equal sparse keys mean equal full profiles
    # even across members.
    profiles: Dict[frozenset, dict] = {}
    order: List[frozenset] = []
    for m in range(len(family)):
        pos_keys = [[] for _ in range(n * n)]
        for (k, l), p in member_products[m].items():
            for i in range(n):
                for j in range(n):
                    x = Fraction(p.rows[i][j])
                    if x:
                        pos_keys[i * n + j].append((k, l, x))
        for pos in range(n * n):
            key = frozenset(pos_keys[pos])
            if key not in profiles:
                profiles[key] = {"first": (m, pos), "positions": {}}
                order.append(key)
            profiles[key]["positions"].setdefault(m, []).append(pos)
    order.sort(key=lambda k: profiles[k]["first"])

    # distinguishing subset of projection triples per atom
    proj_cache: Dict[Tuple[int, int, Fraction], DPoly] = {}

    def c_poly(k: int, l: int, x: Fraction) -> DPoly:
        key = (k, l, x)
        if key not in proj_cache:
            proj_cache[key] = compose(
                proj_poly(lambdas, x),
                Bullet(atoms[k].dpoly, atoms[l].dpoly),
            )
        return proj_cache[key]

    def in_profile(key: frozenset, triple) -> bool:
        k, l, x = triple
        if x:
            return triple in key
        return not any(tk == k and tl == l for tk, tl, _ in key)

    entries = []
    for key in order:
        chosen: List[tuple] = []
        for other in order:
            if other is key:
                continue
            if any(
                in_profile(key, t) != in_profile(other, t) for t in chosen
            ):
                continue
            diff = sorted(key.symmetric_difference(other))
            chosen.append(diff[0])
        factors = []
        for t in sorted(set(chosen)):
            c = c_poly(*t)
            factors.append(
                c if in_profile(key, t) else Sum((C_ONE, Scaled(-1, c)))
            )
        d = circ_product(factors)
        vals = []
        for m in range(len(family)):
            rows = [[0] * n for _ in range(n)]
            for pos in profiles[key]["positions"].get(m, ()):
                rows[pos // n][pos % n] = 1
            vals.append(Matrix(rows))
        entries.append(BasisEntry(d, vals))
    return DenseBasis(family_size=len(family), entries=entries)


# -- involution closure by strictification -----------------------------

def oracle_involution_close(
    basis: DenseBasis, family: Sequence[Matrix]
) -> DenseBasis:
    """A strict universal basis closed under the involution: built from
    the ordered weak sequence (all b o sigma(b) first, then the b,
    sigma(b) pairs), strictified, with the transpose-pairing
    permutation recovered and verified on the family; IdempotentError
    if any of that fails."""
    for a in family:
        if not a.is_symmetric():
            raise IdempotentError("family member is not symmetric")
    polys = [e.dpoly for e in basis.entries]
    sig = [involution(p) for p in polys]
    weak: List[DPoly] = [Circ(p, s) for p, s in zip(polys, sig)]
    weak_vals: List[List[Matrix]] = [
        [
            e.values[m].hadamard(e.values[m].transpose())
            for m in range(len(family))
        ]
        for e in basis.entries
    ]
    for i, (p, s) in enumerate(zip(polys, sig)):
        weak.append(p)
        weak_vals.append(list(basis.entries[i].values))
        weak.append(s)
        weak_vals.append(
            [v.transpose() for v in basis.entries[i].values]
        )
    strict, strict_vals = _strictify_with_values(weak, weak_vals)

    keep = [
        i
        for i in range(len(strict))
        if any(not v.is_zero() for v in strict_vals[i])
    ]
    entries = [
        BasisEntry(strict[i], strict_vals[i]) for i in keep
    ]
    out = DenseBasis(family_size=len(family), entries=entries)

    problems = check_basis(out)
    if problems:
        raise IdempotentError("weak universality failed: " + problems[0])

    # recover the transpose pairing from the values
    index = {tuple(e.values): i for i, e in enumerate(entries)}
    pairing = []
    for i, e in enumerate(entries):
        j = index.get(tuple(v.transpose() for v in e.values))
        if j is None:
            raise IdempotentError("no transpose partner for entry %d" % i)
        pairing.append(j)
    if any(pairing[pairing[i]] != i for i in range(len(entries))):
        raise IdempotentError("transpose pairing is not an involution")
    out.involution_pairing = pairing
    return out
