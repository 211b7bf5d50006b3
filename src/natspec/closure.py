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
pairing, so it also holds for non-symmetric rational matrices.  Run on
a family of matrices, with class names shared across members, it also
yields the atoms of the family's universal idempotent basis
(`idempotents.universal_basis_full`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from .exact import Matrix
from .graphs import Graph, distance_and_diameter


def refine(mats: Sequence[Matrix]) -> Iterator[Tuple[list, Optional[list]]]:
    """The coarsest stable refinement of the colouring (a_ij, i == j)
    of every member's positions, with class names shared across
    members, pass by pass.  Yields each member's colours, numbered in
    order of first (member, row-major position): first the initial
    colouring with keys None, then after each pass that split a class
    the key of each of its classes, in colour order; the last colours
    yielded are stable.  A pass recolours (i, j) by the sorted multiset
    of colour pairs (c(i, k), c(k, j)) over k within its member, which
    fixes the old colour too: only the pair at k = i starts with a
    diagonal colour.  A pass is kept while some member's class count
    grows, so a class split across members only is not split.  A
    consumer that drops each pass's keys lets them be freed before the
    next pass."""
    ids: dict = {}
    colours = [
        [
            [ids.setdefault((x, i == j), len(ids)) for j, x in enumerate(row)]
            for i, row in enumerate(a.rows)
        ]
        for a in mats
    ]
    counts = [_class_count(c) for c in colours]
    yield colours, None
    while any(k < a.n * a.n for k, a in zip(counts, mats)):
        ids = {}
        colours_next = []
        for colour in colours:
            columns = list(zip(*colour))
            colours_next.append(
                [
                    [
                        ids.setdefault(tuple(sorted(zip(row, col))), len(ids))
                        for col in columns
                    ]
                    for row in colour
                ]
            )
        counts_next = [_class_count(c) for c in colours_next]
        if counts_next == counts:
            return
        colours, counts = colours_next, counts_next
        yield colours, list(ids)


def _class_count(colour: List[List[int]]) -> int:
    return len({c for row in colour for c in row})


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
    # take the colours only, so that no pass's keys stay referenced
    # while the next pass runs
    for passes, (colour,) in enumerate(map(itemgetter(0), refine([a]))):
        pass
    cells: List[List[int]] = []
    for pos, c in enumerate(x for row in colour for x in row):
        if c == len(cells):
            cells.append([])
        cells[c].append(pos)
    # the pass that splits nothing counts as a round too, unless the
    # partition became discrete first
    rounds = passes + (len(cells) < a.n * a.n)
    return ClosureResult(a.n, cells, rounds)


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
