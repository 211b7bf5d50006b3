"""Per-instance full-dimension certificates and graph reconstruction.

The certificate implements the degree/signature construction for random
graphs: with vertices sorted by degree, projection polynomials extract
the top-degree diagonal units b_1..b_r, and signature products recover
the remaining ones when the adjacency columns restricted to the top
rows are pairwise distinct.  Success certifies that the generated
double algebra of the adjacency matrix is all of M_n, because the
diagonal units generate every matrix unit via b_s * J * b_t.

The constructed matrices are verified semantically (each must be a
distinct diagonal unit) rather than trusted, so a returned certificate
is a genuine per-instance proof even though the underlying argument is
only asymptotic.

Reconstruction inverts the algebra-to-graph direction: the diagonal
primitive idempotents of the generated double algebra name the
vertices, and the pattern of nonzero s * A * t products recovers the
edges, whenever there are n diagonal idempotents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .closure import generated_double_algebra
from .exact import Matrix
from .graphs import BesReport, Graph, bes_statistics

if TYPE_CHECKING:
    from .dpoly import DPoly


@dataclass
class Certificate:
    """A successful full-dimension certificate: n verified diagonal
    matrix units in the degree-sorted vertex order, with the report and
    the construction trace that produced them."""

    n: int
    r: int
    order: List[int]
    diag_units: List[Matrix]
    report: BesReport
    trace: List[str] = field(default_factory=list)


@dataclass
class CertificateFailure:
    reason: str  # degree_collision | signature_collision | verification_mismatch
    report: Optional[BesReport] = None
    detail: str = ""


def _sorted_adjacency(g: Graph, order: Sequence[int]) -> Matrix:
    """Adjacency matrix with vertices renamed to their positions in the
    degree ordering."""
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return g.relabel(perm).adjacency_matrix()


def _diag_indicator(diag_values, target, n) -> Matrix:
    return Matrix(
        [
            [1 if i == j and diag_values[i] == target else 0 for j in range(n)]
            for i in range(n)
        ]
    )


def bes_certificate(g: Graph, r: Optional[int] = None):
    """Build and verify the degree/signature certificate; returns a
    Certificate on success or a CertificateFailure with the reason."""
    report = bes_statistics(g, r=r)
    if not report.top_degrees_distinct:
        return CertificateFailure("degree_collision", report)
    if not report.signatures_distinct:
        return CertificateFailure("signature_collision", report)
    n = g.n
    rr = report.r
    a = _sorted_adjacency(g, report.order)
    trace: List[str] = []

    # degree diagonal: (A * A) o I, then extract each top degree
    deg_diag = a.matmul(a).hadamard(Matrix.identity(n))
    degrees = [deg_diag.rows[i][i] for i in range(n)]
    units: List[Matrix] = []
    for i in range(rr):
        d_i = degrees[i]
        b = _diag_indicator(degrees, d_i, n)
        trace.append(
            "b_%d = proj over {0..%d} at %d of (x*x).I" % (i + 1, n - 1, d_i)
        )
        units.append(b)

    top_mask = Matrix.zero(n)
    for b in units:
        top_mask = top_mask + b
    low_mask = Matrix.identity(n) - top_mask
    ident = Matrix.identity(n)
    comp = Matrix.ones(n) - ident - a

    for j in range(rr, n):
        acc = Matrix.zero(n)
        for i in range(rr):
            piece = a if a.rows[i][j] == 1 else comp
            acc = acc + piece.matmul(units[i]).matmul(Matrix.ones(n))
        masked = acc.hadamard(low_mask)
        diag = [masked.rows[k][k] for k in range(n)]
        b = _diag_indicator(diag, rr, n)
        # positions below the top block only: mask already ensures it
        trace.append(
            "b_%d = proj over {0..%d} at %d of the signature sum for "
            "column %d, masked by I - (b_1+..+b_%d)" % (j + 1, rr, rr, j + 1, rr)
        )
        units.append(b)

    # semantic verification: n pairwise-distinct diagonal units
    seen = set()
    for k, b in enumerate(units):
        ones = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if b.rows[i][j] != 0
        ]
        if len(ones) != 1 or ones[0][0] != ones[0][1]:
            return CertificateFailure(
                "verification_mismatch",
                report,
                "b_%d is not a diagonal unit" % (k + 1),
            )
        if ones[0] in seen:
            return CertificateFailure(
                "verification_mismatch",
                report,
                "b_%d repeats a diagonal position" % (k + 1),
            )
        seen.add(ones[0])
    return Certificate(
        n=n,
        r=rr,
        order=list(report.order),
        diag_units=units,
        report=report,
        trace=trace,
    )


def certificate_dpolys(g: Graph, cert: Certificate) -> List[DPoly]:
    """The double polynomials behind a certificate's diagonal units, in
    the certificate's vertex order (instance-specific: the signature
    polynomials embed this graph's adjacency entries as coefficients)."""
    from .dpoly import (
        B_ONE,
        C_ONE,
        X,
        Bullet,
        Circ,
        Scaled,
        Sum,
        compose,
        proj_poly,
    )

    n = cert.n
    rr = cert.r
    a = _sorted_adjacency(g, cert.order)
    degree_poly = Circ(Bullet(X, X), B_ONE)
    lam_deg = list(range(n))
    degrees = [
        a.matmul(a).rows[i][i] for i in range(n)
    ]
    polys = [
        compose(proj_poly(lam_deg, degrees[i]), degree_poly)
        for i in range(rr)
    ]
    comp = Sum((C_ONE, Scaled(-1, B_ONE), Scaled(-1, X)))
    top_sum = Sum(tuple(polys))
    mask = Sum((B_ONE, Scaled(-1, top_sum)))
    lam_sig = list(range(rr + 1))
    for j in range(rr, n):
        terms = []
        for i in range(rr):
            piece = X if a.rows[i][j] == 1 else comp
            terms.append(Bullet(piece, Bullet(polys[i], C_ONE)))
        masked = Circ(Sum(terms), mask)
        polys.append(compose(proj_poly(lam_sig, rr), masked))
    return polys


# -- reconstruction ----------------------------------------------------

@dataclass
class Reconstruction:
    graph: Graph
    vertex_map: Dict[int, int]  # diagonal-idempotent index -> vertex
    matches: bool


@dataclass
class ReconstructionFailure:
    v_a: int
    dim: int


def reconstruct(g: Graph):
    """Rebuild the graph from its generated double algebra: succeeds
    iff the algebra contains all n diagonal matrix units as primitive
    idempotents, that is, iff every diagonal cell is a single
    position."""
    a = g.adjacency_matrix()
    res = generated_double_algebra(a)
    n = g.n
    # the initial colouring separates the diagonal, so a cell is
    # diagonal iff its smallest position is
    diag = [cell for cell in res.cells if cell[0] % (n + 1) == 0]
    if len(diag) != n:
        return ReconstructionFailure(v_a=len(diag), dim=res.dim)
    vmap = {idx: cell[0] // (n + 1) for idx, cell in enumerate(diag)}
    # E_ss * A * E_tt = a_st E_st
    edges = [
        (vmap[s], vmap[t])
        for s in range(n)
        for t in range(s + 1, n)
        if a.rows[vmap[s]][vmap[t]] != 0
    ]
    rebuilt = Graph.from_edges(n, edges)
    return Reconstruction(
        graph=rebuilt, vertex_map=vmap, matches=(rebuilt == g)
    )
