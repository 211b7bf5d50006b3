"""Slow reference for natspec.graphs.best_feasible_r.

`oracle_best_feasible_r` tries every r from the strictly decreasing
prefix of the sorted degrees down to 1 and returns the first that
passes `bes_statistics`, so it relies on no monotonicity in r.
"""

from __future__ import annotations

from typing import Optional

from natspec.graphs import Graph, bes_statistics


def oracle_best_feasible_r(g: Graph) -> Optional[int]:
    degs = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    d = [degs[v] for v in order]
    prefix = 0
    while prefix < g.n - 1 and d[prefix] > d[prefix + 1]:
        prefix += 1
    for r in range(prefix, 0, -1):
        if bes_statistics(g, r=r).passed:
            return r
    return None
