"""Primitive Hadamard-idempotent bases.

A commutative Hadamard subalgebra of M_n containing the all-one matrix
J is spanned by 0/1 "indicator" matrices of a partition of the n^2
entry positions; those indicators are its primitive idempotents.  This
module reads them off a generated double algebra, and builds *universal*
bases: single lists of double polynomials whose evaluations at every
member of a finite family of matrices yield that member's primitive
idempotents, together with the strictification (duplicate-killing) and
involution-closure constructions needed by the spectrum pipeline.

The subset-product atoms are exponential in the number of building
polynomials if materialized naively; everything here works instead on
realized value partitions, and atom polynomials only ever multiply a
small distinguishing subset of factors chosen to separate the realized
profiles.  Evaluations agree with the full products on every family
member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .closure import ClosureResult
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
    node_count,
    print_dpoly,
    parse,
    proj_poly,
)
from .exact import Matrix, Scalar, scalar_is_zero


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
                # text form when small enough to stay readable
                if node_count(e.dpoly) <= 400:
                    rec["dpoly"] = print_dpoly(e.dpoly)
                else:
                    rec["dpoly_dag"] = dpoly_to_json(e.dpoly)
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


# -- universal basis from explicit building polynomials ---------------

def _sorted_scalars(values) -> List[Scalar]:
    def key(x):
        return Fraction(x)

    return sorted(values, key=key)


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
    lambdas = _sorted_scalars(lam)
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


# -- full universal basis by product filtration ------------------------

def _partition_key(vals: List[Matrix], n: int):
    """Partition of positions induced by a list of 0/1 matrices."""
    groups: Dict[tuple, List[int]] = {}
    for pos in range(n * n):
        i, j = divmod(pos, n)
        sig = tuple(v.rows[i][j] for v in vals)
        groups.setdefault(sig, []).append(pos)
    return frozenset(tuple(g) for g in groups.values())


def universal_basis_full(
    family: Sequence[Matrix], depth_cap: int = 12
) -> IdempotentBasis:
    """A universal idempotent basis for the *generated double algebras*
    of the family members: alternates pairwise matrix products with
    Hadamard-atom refinement until every member's position partition
    stabilizes.  Atom polynomials use distinguishing subsets of the
    product projections, so their evaluations match the full
    subset-product definition on every family member."""
    if not family:
        raise IdempotentError("empty family")
    n = family[0].n
    if any(a.n != n for a in family):
        raise IdempotentError("family members must share a dimension")

    basis = universal_basis(family, [X, B_ONE])
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
            basis.stabilized = True
            basis.depth = depth - 1
            return basis
        basis = nxt
        prev_parts = parts
    basis.stabilized = False
    basis.depth = depth_cap
    basis.diagnostics.append(
        "depth cap %d reached before stabilization" % depth_cap
    )
    return basis


def _refine_by_products(
    family: Sequence[Matrix], basis: IdempotentBasis
) -> IdempotentBasis:
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
    lambdas = _sorted_scalars(lam)

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

    def tri_order(t):
        return (t[0], t[1], t[2])

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
            diff = sorted(key.symmetric_difference(other), key=tri_order)
            chosen.append(diff[0])
        factors = []
        for t in sorted(set(chosen), key=tri_order):
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
    return IdempotentBasis(family_size=len(family), entries=entries)


# -- involution closure ------------------------------------------------

def involution_close(
    basis: IdempotentBasis, family: Sequence[Matrix]
) -> IdempotentBasis:
    """A strict universal basis closed under the involution: built from
    the ordered weak sequence (all b o sigma(b) first, then the b,
    sigma(b) pairs), strictified, with the transpose-pairing
    permutation recovered and verified on the family."""
    for a in family:
        if not a.is_symmetric():
            raise IdempotentError("family member is not symmetric")
    polys = [e.dpoly for e in basis.entries]
    if any(p is None for p in polys):
        raise IdempotentError("basis entries lack defining polynomials")
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
    out = IdempotentBasis(family_size=len(family), entries=entries)

    problems = check_basis(out)
    if problems:
        out.diagnostics.extend(
            ["weak universality failed: " + p for p in problems]
        )
        return out

    # recover the transpose pairing from the values
    pairing: List[Optional[int]] = [None] * len(entries)
    index = {}
    for i, e in enumerate(entries):
        index[tuple(e.values)] = i
    for i, e in enumerate(entries):
        target = tuple(v.transpose() for v in e.values)
        j = index.get(target)
        if j is None:
            out.diagnostics.append(
                "no transpose partner for entry %d" % i
            )
            return out
        pairing[i] = j
    if any(pairing[pairing[i]] != i for i in range(len(entries))):
        out.diagnostics.append("transpose pairing is not an involution")
        return out
    out.involution_pairing = [int(p) for p in pairing]
    return out
