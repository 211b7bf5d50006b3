"""Natural graph spectra and the determining-spectrum pipeline.

A natural graph matrix sends G to p(A_G) for a fixed double polynomial
p; its spectrum is recorded as the monic characteristic polynomial (two
spectra are equal iff the eigenvalue multisets over the algebraic
closure agree, with no algebraic-number arithmetic needed).  The
pipeline builds, for a finite family of same-size graphs, a single
polynomial whose spectrum separates every pair of non-isomorphic
full-dimension members: symmetrized matrix-unit probes from an
involution-closed universal idempotent basis, merged with rapidly
growing integer weights.

Merging uses two weight schemes.  The two-matrix scheme follows the
remainder / nearest-integer recovery directly.  For three or more
matrices the weights are powers z^(e_i) whose exponents grow like
powers of n+1: a trace of the merged matrix is then a centered base-z
expansion whose digit at position k*e_i is exactly tr A_i^k, because
exponent multisets of at most n digits below n+1 are uniquely
decodable.  (Weights in geometric progression, the natural guess, make
cross terms collide with pure powers for m >= 3 and are kept only as a
compact non-demergeable option for the pipeline, where separation is
checked empirically.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .dpoly import (
    Bullet,
    DPoly,
    Scaled,
    Sum,
    X,
    eval_dpoly,
    involution,
)
from .exact import Matrix, Scalar, char_poly, format_scalar, parse_scalar
from .graphs import Graph, graph6_emit

# only build_ds_dpoly refines a family; ds-check and spectrum do not
if TYPE_CHECKING:
    from .idempotents import IdempotentBasis


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Monic characteristic polynomial, coefficients highest first."""

    n: int
    coeffs: Tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise SpectrumError("need n+1 coefficients")
        if self.coeffs and self.coeffs[0] != 1:
            raise SpectrumError("characteristic polynomial must be monic")

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        if self.n != other.n:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.n, tuple(Fraction(x) for x in self.coeffs)))

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [format_scalar(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Spectrum":
        return Spectrum(
            data["n"], tuple(parse_scalar(c) for c in data["coeffs"])
        )


def spectrum_of(a: Matrix) -> Spectrum:
    return Spectrum(a.n, char_poly(a))


def natural_spectrum(p: DPoly, g: Graph) -> Spectrum:
    return spectrum_of(eval_dpoly(p, g.adjacency_matrix()))


def strong_spectrum_restricted(
    g: Graph, polys: Sequence[DPoly]
) -> Dict[DPoly, Spectrum]:
    a = g.adjacency_matrix()
    return {p: spectrum_of(eval_dpoly(p, a)) for p in polys}


# -- Newton identities ------------------------------------------------

def traces_from_charpoly(s: Spectrum) -> List[Scalar]:
    """Power sums p_1..p_n from the characteristic polynomial."""
    n = s.n
    # e_k with signs: coeffs[k] = (-1)^k e_k
    e = [(-1) ** k * s.coeffs[k] for k in range(n + 1)]
    p: List[Scalar] = []
    for k in range(1, n + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            acc = acc + (-1) ** (k - 1 + i) * e[k - i] * p[i - 1]
        p.append(acc)
    return p


def charpoly_from_traces(traces: Sequence[Scalar]) -> Spectrum:
    """Characteristic polynomial from the n power sums."""
    n = len(traces)
    if n == 0:
        raise SpectrumError("need at least one trace")
    e: List[Scalar] = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + (-1) ** (i - 1) * e[k - i] * traces[i - 1]
        f = Fraction(acc, k)
        e.append(f.numerator if f.denominator == 1 else f)
    coeffs = tuple((-1) ** k * e[k] for k in range(n + 1))
    return Spectrum(n, coeffs)


# -- merge plans -------------------------------------------------------

@dataclass(frozen=True)
class MergePlan:
    m: int
    b: int
    n: int
    z: int
    weights: Tuple[int, ...]
    scheme: str  # "m2" | "digit" | "geometric"
    exponents: Tuple[int, ...] = ()

    @property
    def demergeable(self) -> bool:
        return self.scheme in ("m2", "digit")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "b": self.b,
            "n": self.n,
            "z": format_scalar(self.z),
            "weights": [format_scalar(w) for w in self.weights],
            "scheme": self.scheme,
            "exponents": list(self.exponents),
        }

    @staticmethod
    def from_json(data: dict) -> "MergePlan":
        return MergePlan(
            m=data["m"],
            b=data["b"],
            n=data["n"],
            z=int(data["z"]),
            weights=tuple(int(w) for w in data["weights"]),
            scheme=data["scheme"],
            exponents=tuple(data.get("exponents", ())),
        )


def make_merge_plan(m: int, b: int, n: int, compact: bool = False) -> MergePlan:
    """Weights for encoding m spectra of integer n x n matrices with
    entries bounded by b into one.

    m <= 2 uses the base z = 2n(nb)^n + 1 directly.  For m >= 3 the
    default demergeable plan uses weights z^(e_i) with e =
    (0, 1, n+1, (n+1)^2, ...) and the larger base z = 2n*n!*(nb)^n + 1;
    exponent sums of at most n terms are then unique, so each pure
    trace occupies its own centered base-z digit.  compact=True gives
    the geometric progression (1, z, z^2, ...) instead — much smaller
    weights, not demergeable for m >= 3, suitable only when downstream
    consumers compare merged spectra directly.
    """
    if m < 1 or b < 1 or n < 1:
        raise SpectrumError("m, b, n must all be positive")
    z2 = 2 * n * (n * b) ** n + 1
    if m == 1:
        return MergePlan(m, b, n, z2, (1,), "m2", (0,))
    if m == 2:
        return MergePlan(m, b, n, z2, (1, z2), "m2", (0, 1))
    if compact:
        return MergePlan(
            m,
            b,
            n,
            z2,
            tuple(z2**i for i in range(m)),
            "geometric",
            tuple(range(m)),
        )
    z = 2 * n * factorial(n) * (n * b) ** n + 1
    exps = [0, 1] + [(n + 1) ** i for i in range(1, m - 1)]
    return MergePlan(
        m, b, n, z, tuple(z**e for e in exps), "digit", tuple(exps)
    )


def merge_matrices(mats: Sequence[Matrix], plan: MergePlan) -> Matrix:
    if len(mats) != plan.m:
        raise SpectrumError("matrix count does not match the plan")
    out = Matrix.zero(mats[0].n)
    for w, a in zip(plan.weights, mats):
        out = out + a.scale(w)
    return out


def _as_int(x: Scalar, what: str) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise SpectrumError("non-integer %s: merge precondition violated" % what)
    return f.numerator


def _centered_digit(t: int, z: int, j: int) -> int:
    """Digit j of the centered base-z expansion of t."""
    for _ in range(j):
        r = (t + z // 2) % z - z // 2
        t = (t - r) // z
    return (t + z // 2) % z - z // 2


def demerge(s: Spectrum, plan: MergePlan) -> List[Spectrum]:
    """Recover the individual spectra from the merged one."""
    if not plan.demergeable:
        raise SpectrumError(
            "plan with scheme %r is not demergeable" % plan.scheme
        )
    n = s.n
    traces = [
        _as_int(t, "merged trace") for t in traces_from_charpoly(s)
    ]
    if plan.m == 1:
        return [s]
    z = plan.z
    per: List[List[int]] = [[] for _ in range(plan.m)]
    if plan.scheme == "m2":
        for k in range(1, n + 1):
            t = traces[k - 1]
            low = (t + z // 2) % z - z // 2
            per[0].append(low)
            # nearest integer to t / z^k
            zk = z**k
            per[1].append((2 * t + zk) // (2 * zk))
        return [charpoly_from_traces(tr) for tr in per]
    # digit scheme: tr A_i^k is the centered digit at position k * e_i
    for k in range(1, n + 1):
        t = traces[k - 1]
        for i, e in enumerate(plan.exponents):
            per[i].append(_centered_digit(t, z, k * e))
    return [charpoly_from_traces(tr) for tr in per]


# -- the determining-spectrum pipeline ---------------------------------

def family_fingerprint(family: Sequence[Graph]) -> str:
    import hashlib

    payload = "\n".join(sorted(graph6_emit(g) for g in family))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class DsBundle:
    """Everything produced by build_ds_dpoly: the merged polynomial p,
    the probe set D with values on the family, the universal basis it
    came from, the merge plan, and the family fingerprint."""

    n: int
    p: DPoly
    probes: List[DPoly]
    probe_values: List[List[Matrix]]
    basis: IdempotentBasis
    plan: MergePlan
    fingerprint: str
    full_members: List[bool] = field(default_factory=list)


def build_ds_dpoly(family: Sequence[Graph]) -> DsBundle:
    """The single determining polynomial for a finite family of graphs
    on a common vertex count.

    Pipeline: involution-closed universal idempotent basis B for the
    family; C = {b * x * b'}; D = {c + sigma(c)}, deduplicated under
    the symmetrization and with members evaluating to zero on the whole
    family dropped (their weighted term contributes nothing on any
    member); p = sum of a_d * d with geometric merge weights."""
    from .idempotents import involution_close, universal_basis_full

    if not family:
        raise SpectrumError("empty family")
    n = family[0].n
    if any(g.n != n for g in family):
        raise SpectrumError("family members must share a vertex count")
    mats = [g.adjacency_matrix() for g in family]
    basis = involution_close(universal_basis_full(mats), mats)
    sigma = basis.involution_pairing
    entries = basis.entries
    members = range(len(mats))
    nonzero = [
        {k for k, e in enumerate(entries) if not e.values[m].is_zero()}
        for m in members
    ]

    # D, indexed by the symmetrization-orbit of the pair (i, j):
    # sigma_x(b_i * x * b_j) = sigma(b_j) * x * sigma(b_i); b_i A b_j
    # is zero on a member where b_i or b_j is
    probes: List[DPoly] = []
    probe_values: List[List[Matrix]] = []
    seen = set()
    zero = Matrix.zero(n)
    for i in range(len(entries)):
        for j in range(len(entries)):
            orbit = frozenset(((i, j), (sigma[j], sigma[i])))
            if orbit in seen:
                continue
            seen.add(orbit)
            both = [m for m in members if i in nonzero[m] and j in nonzero[m]]
            if not both:
                continue
            vals = [zero] * len(mats)
            for m in both:
                v = entries[i].values[m].matmul(mats[m])
                v = v.matmul(entries[j].values[m])
                vals[m] = v + v.transpose()
            if all(vals[m].is_zero() for m in both):
                continue
            c = Bullet(entries[i].dpoly, Bullet(X, entries[j].dpoly))
            probes.append(Sum((c, involution(c))))
            probe_values.append(vals)

    plan = make_merge_plan(max(len(probes), 1), 1, n, compact=True)
    p = Sum(
        tuple(
            Scaled(w, d) for w, d in zip(plan.weights, probes)
        )
    )
    # a member is full when the family partition has n^2 classes on it
    full = [len(nz) == n * n for nz in nonzero]
    return DsBundle(
        n=n,
        p=p,
        probes=probes,
        probe_values=probe_values,
        basis=basis,
        plan=plan,
        fingerprint=family_fingerprint(family),
        full_members=full,
    )


def merged_value(bundle: DsBundle, member: int) -> Matrix:
    """p evaluated on a family member, from the stored probe values
    (no expression-tree traversal)."""
    out = Matrix.zero(bundle.n)
    for w, vals in zip(bundle.plan.weights, bundle.probe_values):
        out = out + vals[member].scale(w)
    return out


def ds_compare(g1: Graph, g2: Graph, p: DPoly) -> str:
    if g1.n != g2.n:
        raise SpectrumError("vertex count mismatch")
    s1 = natural_spectrum(p, g1)
    s2 = natural_spectrum(p, g2)
    return "equal_spectrum" if s1 == s2 else "different_spectrum"
