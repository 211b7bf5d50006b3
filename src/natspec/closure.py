"""Generated double subalgebras.

A double subalgebra of the n x n matrices is a subspace closed under
both the matrix product and the Hadamard product and containing both
identities.  One that is Hadamard-closed and contains J is spanned by
the 0/1 indicators of a partition of the n^2 entry positions, and it
is closed under the matrix product exactly when the partition is
stable: for any two cells X and Y, the number of k with (i, k) in X and
(k, j) in Y is the same for every position (i, j) of a cell.

So the algebra generated by a matrix a is the span of the coarsest
stable refinement of the colouring (a_ij, i == j) of positions, which
`refine` computes by 2-dimensional Weisfeiler-Leman refinement on
ordered pairs (Weisfeiler & Leman 1968; Immerman & Lander 1990).  Its
dimension is the number of cells, and it is full (all of M_n) exactly
when every cell is a single position.  The refinement uses no transpose
pairing, so it also holds for non-symmetric rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exact import Matrix
from .graphs import Graph, distance_and_diameter


def refine(a: Matrix) -> Tuple[List[List[int]], int]:
    """The coarsest stable refinement of the colouring (a_ij, i == j):
    a colour for each position, numbered in order of first position
    (row-major), and the number of refinement passes run.  A pass
    recolours (i, j) by its colour and the multiset of colour pairs
    (c(i, k), c(k, j)) over k; the last pass is the one that splits no
    class, unless the colouring became discrete first."""
    n = a.n
    ids: dict = {}
    colour = [
        [ids.setdefault((x, i == j), len(ids)) for j, x in enumerate(row)]
        for i, row in enumerate(a.rows)
    ]
    classes = len(ids)
    passes = 0
    while classes < n * n:
        columns = list(zip(*colour))
        ids = {}
        colour_next = [
            [
                ids.setdefault(
                    (row[j], tuple(sorted(zip(row, columns[j])))), len(ids)
                )
                for j in range(n)
            ]
            for row in colour
        ]
        passes += 1
        if len(ids) == classes:
            break
        colour, classes = colour_next, len(ids)
    return colour, passes


@dataclass
class ClosureResult:
    """The generated double algebra as a partition of positions
    pos = i * n + j: `cells` ordered by smallest position, each listing
    its positions in increasing order; `rounds` counts the refinement
    passes."""

    n: int
    cells: List[List[int]]
    rounds: int

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def full(self) -> bool:
        return self.dim == self.n * self.n


def generated_double_algebra(a: Matrix) -> ClosureResult:
    """The smallest subspace containing I, J and a that is closed under
    both products."""
    colour, passes = refine(a)
    cells: List[List[int]] = []
    for pos, c in enumerate(x for row in colour for x in row):
        if c == len(cells):
            cells.append([])
        cells[c].append(pos)
    return ClosureResult(a.n, cells, passes)


def is_full(a: Matrix) -> bool:
    return generated_double_algebra(a).full


@dataclass
class DimensionReport:
    n: int
    dim: int
    diameter: Optional[int]
    lower: Optional[int]
    upper: int
    within_bounds: bool
    srg_parameters: Optional[tuple] = None
    intersection_array: Optional[tuple] = None


def dimension_bounds_report(g: Graph) -> DimensionReport:
    """Dimension of the generated double algebra of the adjacency
    matrix, against the diameter + 1 lower bound (connected graphs)
    and the n^2 upper bound."""
    from .graphs import intersection_array, srg_parameters

    res = generated_double_algebra(g.adjacency_matrix())
    n = g.n
    if g.is_connected() and n > 0:
        _, diam = distance_and_diameter(g)
        lower: Optional[int] = diam + 1
    else:
        diam = None
        lower = None
    ok = res.dim <= n * n and (lower is None or res.dim >= lower)
    return DimensionReport(
        n=n,
        dim=res.dim,
        diameter=diam,
        lower=lower,
        upper=n * n,
        within_bounds=ok,
        srg_parameters=srg_parameters(g),
        intersection_array=intersection_array(g),
    )
