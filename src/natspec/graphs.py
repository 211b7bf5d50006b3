"""Undirected simple graphs: model, graph6 I/O, random graphs,
enumeration, isomorphism oracles, and distance/regularity checks.

Adjacency is a per-vertex bitmask, which keeps degree counts and
neighborhood intersections cheap even at a few thousand vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Optional

from .exact import Matrix


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple  # rows[i]: bitmask of neighbors of vertex i

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise GraphError("row count does not match vertex count")
        for i, r in enumerate(self.rows):
            if r >> self.n:
                raise GraphError("adjacency bit out of range")
            if (r >> i) & 1:
                raise GraphError("loop at vertex %d" % i)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ((self.rows[i] >> j) & 1) != ((self.rows[j] >> i) & 1):
                    raise GraphError("adjacency not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise GraphError("loop edge (%d, %d)" % (i, j))
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError("edge (%d, %d) out of range for n=%d" % (i, j, n))
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return Graph(n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> tuple:
        return tuple(r.bit_count() for r in self.rows)

    def edges(self) -> list:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.has_edge(i, j)
        ]

    def num_edges(self) -> int:
        return sum(self.degrees()) // 2

    def adjacency_matrix(self) -> Matrix:
        return Matrix(
            [
                [(self.rows[i] >> j) & 1 for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    @staticmethod
    def from_adjacency_matrix(a: Matrix) -> "Graph":
        edges = []
        for i in range(a.n):
            if a.rows[i][i] != 0:
                raise GraphError("nonzero diagonal")
            for j in range(i + 1, a.n):
                x = a.rows[i][j]
                if x != a.rows[j][i] or x not in (0, 1):
                    raise GraphError("not a symmetric 0/1 matrix")
                if x == 1:
                    edges.append((i, j))
        return Graph.from_edges(a.n, edges)

    def relabel(self, perm) -> "Graph":
        """Graph with vertex i renamed to perm[i]."""
        return Graph.from_edges(
            self.n, [(perm[i], perm[j]) for i, j in self.edges()]
        )

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            i = 0
            f = frontier
            while f:
                if f & 1:
                    nxt |= self.rows[i]
                f >>= 1
                i += 1
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


# -- graph6 (standard short form, n <= 62) ---------------------------

def graph6_emit(g: Graph) -> str:
    if g.n > 62:
        raise GraphError("graph6 short form supports n <= 62")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def graph6_parse(s: str) -> Graph:
    s = s.strip()
    if not s:
        raise GraphError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise GraphError("unsupported graph6 header %r" % s[0])
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise GraphError(
            "graph6 body length %d, expected %d" % (len(body), need)
        )
    bits = []
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise GraphError("bad graph6 character %r" % ch)
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[idx:]):
        raise GraphError("nonzero graph6 padding")
    return Graph.from_edges(n, edges)


# -- random graphs ---------------------------------------------------

def derive_seed(seed: int, counter: int) -> int:
    """Counter-based seed splitter; reproducible across platforms."""
    import hashlib  # loaded here: only experiments draw seeds

    h = hashlib.sha256(("%d:%d" % (seed, counter)).encode()).digest()
    return int.from_bytes(h[:8], "big")


def random_gnp_half(n: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, 1/2), deterministic given the seed."""
    if n < 1:
        raise GraphError("need n >= 1")
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n - 1):
        # LSB of the chunk is the edge (i, i+1)
        chunk = rng.getrandbits(n - 1 - i)
        rows[i] |= chunk << (i + 1)
        j = i + 1
        while chunk:
            if chunk & 1:
                rows[j] |= 1 << i
            chunk >>= 1
            j += 1
    return Graph(n, tuple(rows))


# -- named graphs ----------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    )


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)]
    )


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def rook_graph_4x4() -> Graph:
    def v(r, c):
        return 4 * r + c

    edges = []
    for r in range(4):
        for c1, c2 in combinations(range(4), 2):
            edges.append((v(r, c1), v(r, c2)))
    for c in range(4):
        for r1, r2 in combinations(range(4), 2):
            edges.append((v(r1, c), v(r2, c)))
    return Graph.from_edges(16, edges)


def shrikhande_graph() -> Graph:
    # Cayley graph on Z4 x Z4 with connection set +-{(1,0),(0,1),(1,1)}
    def v(a, b):
        return 4 * a + b

    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u, w = v(a, b), v((a + da) % 4, (b + db) % 4)
                edges.add((min(u, w), max(u, w)))
    return Graph.from_edges(16, sorted(edges))


# -- distances and regularity ----------------------------------------

def distance_and_diameter(g: Graph):
    """BFS distance matrix and diameter; raises on disconnected input."""
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    n = g.n
    dist = [[0] * n for _ in range(n)]
    diam = 0
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                r = g.rows[u]
                j = 0
                while r:
                    if r & 1 and d[j] < 0:
                        d[j] = d[u] + 1
                        nxt.append(j)
                    r >>= 1
                    j += 1
            frontier = nxt
        dist[s] = d
        diam = max(diam, max(d))
    return Matrix(dist), diam


def srg_parameters(g: Graph) -> Optional[tuple]:
    """(n, k, lambda, mu) if strongly regular; complete and empty
    graphs are excluded by convention (mu undefined)."""
    n = g.n
    degs = set(g.degrees())
    if len(degs) != 1:
        return None
    k = degs.pop()
    if k == 0 or k == n - 1:
        return None
    lam = mu = None
    for i in range(n):
        for j in range(i + 1, n):
            common = (g.rows[i] & g.rows[j]).bit_count()
            if g.has_edge(i, j):
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        return None
    return (n, k, lam, mu)


def intersection_array(g: Graph) -> Optional[tuple]:
    """({b_0..b_{d-1}}, {c_1..c_d}) if distance-regular, else None."""
    if not g.is_connected():
        return None
    dist, diam = distance_and_diameter(g)
    if diam == 0:
        return None
    bs = [None] * diam
    cs = [None] * diam
    for v in range(g.n):
        for u in range(g.n):
            i = dist.rows[v][u]
            b = sum(
                1
                for w in range(g.n)
                if g.has_edge(u, w) and dist.rows[v][w] == i + 1
            )
            c = sum(
                1
                for w in range(g.n)
                if g.has_edge(u, w) and dist.rows[v][w] == i - 1
            )
            if i < diam:
                if bs[i] is None:
                    bs[i] = b
                elif bs[i] != b:
                    return None
            elif b != 0:
                return None
            if i >= 1:
                if cs[i - 1] is None:
                    cs[i - 1] = c
                elif cs[i - 1] != c:
                    return None
    return (tuple(bs), tuple(cs))


# -- enumeration and isomorphism -------------------------------------

def _edge_index_perms(n: int):
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    maps = []
    for perm in permutations(range(n)):
        maps.append(
            tuple(
                index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs
            )
        )
    return pairs, maps


def enumerate_graphs(n: int) -> list:
    """One representative per isomorphism class, n <= 6."""
    if n > 6:
        raise GraphError("exhaustive enumeration capped at n = 6")
    if n == 0:
        return [Graph(0, ())]
    pairs, maps = _edge_index_perms(n)
    m = len(pairs)
    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        reps.append(
            Graph.from_edges(
                n, [pairs[k] for k in range(m) if (mask >> k) & 1]
            )
        )
        for emap in maps:
            img = 0
            rest = mask
            k = 0
            while rest:
                if rest & 1:
                    img |= 1 << emap[k]
                rest >>= 1
                k += 1
            seen[img] = 1
    return reps


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exhaustive isomorphism test, exact for n <= 8."""
    if g1.n != g2.n:
        raise GraphError("size mismatch")
    if g1.n > 8:
        raise GraphError(
            "exhaustive mode capped at n = 8; use refute_isomorphism"
        )
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    # equal sorted degrees imply equal edge counts, so an injective
    # map of g2's edges into g1's is a bijection
    e1 = set(g1.edges())
    e2 = g2.edges()
    for perm in permutations(range(g1.n)):
        if all(
            (min(perm[i], perm[j]), max(perm[i], perm[j])) in e1
            for i, j in e2
        ):
            return True
    return False


def _max_clique_at_least(g: Graph, k: int) -> bool:
    return any(
        all(g.has_edge(a, b) for a, b in combinations(vs, 2))
        for vs in combinations(range(g.n), k)
    )


def refute_isomorphism(g1: Graph, g2: Graph) -> str:
    """Invariant-based verdict for large graphs: "refuted" or "unknown"."""
    if g1.n != g2.n:
        raise GraphError("size mismatch")
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return "refuted"
    t1 = sorted(triangle_counts_per_vertex(g1))
    t2 = sorted(triangle_counts_per_vertex(g2))
    if t1 != t2:
        return "refuted"
    for k in range(3, min(g1.n, 6) + 1):
        if _max_clique_at_least(g1, k) != _max_clique_at_least(g2, k):
            return "refuted"
    return "unknown"


def triangle_counts_per_vertex(g: Graph) -> list:
    out = []
    for i in range(g.n):
        c = 0
        for j in range(g.n):
            if g.has_edge(i, j):
                c += (g.rows[i] & g.rows[j]).bit_count()
        out.append(c // 2)
    return out


def triangle_count(g: Graph) -> int:
    return sum(triangle_counts_per_vertex(g)) // 3


# -- degree/signature statistics -------------------------------------

@dataclass(frozen=True)
class BesReport:
    """Degree-ordering and signature-row statistics.

    r is min(floor(3 log2 n), n - 1); r_untruncated records the raw
    value.  Signature rows cover the vertices ranked below r in the
    degree ordering (ties broken by original index).
    """

    r: int
    r_untruncated: int
    order: tuple
    degrees_sorted: tuple
    top_degrees_distinct: bool
    signature_rows: tuple
    signatures_distinct: bool

    @property
    def passed(self) -> bool:
        return self.top_degrees_distinct and self.signatures_distinct


def spec_r(n: int) -> int:
    if n < 2:
        return 0
    return min(int(math.floor(3 * math.log2(n))), n - 1)


def bes_statistics(g: Graph, r: Optional[int] = None) -> BesReport:
    n = g.n
    r_raw = int(math.floor(3 * math.log2(n))) if n >= 2 else 0
    if r is None:
        r = spec_r(n)
    if not 0 <= r <= n - 1:
        raise GraphError("r must lie in [0, n-1]")
    degs = g.degrees()
    order = tuple(sorted(range(n), key=lambda v: (-degs[v], v)))
    d = tuple(degs[v] for v in order)
    top_ok = all(d[i] > d[i + 1] for i in range(r))
    sig_rows = []
    for jpos in range(r, n):
        j = order[jpos]
        sig_rows.append(
            tuple((g.rows[order[i]] >> j) & 1 for i in range(r))
        )
    sig_ok = len(set(sig_rows)) == len(sig_rows)
    return BesReport(
        r=r,
        r_untruncated=r_raw,
        order=order,
        degrees_sorted=d,
        top_degrees_distinct=top_ok,
        signature_rows=tuple(sig_rows),
        signatures_distinct=sig_ok,
    )


def best_feasible_r(g: Graph) -> Optional[int]:
    """Largest r >= 1 for which both report conditions hold, if any.

    The degree condition holds exactly for r up to the strictly
    decreasing prefix of the sorted degrees.  Within it, distinct
    signatures at r stay distinct at r + 1 (fewer rows, each with one
    more column), so only the prefix itself needs testing."""
    degs = g.degrees()
    d = sorted(degs, reverse=True)
    prefix = 0
    while prefix < g.n - 1 and d[prefix] > d[prefix + 1]:
        prefix += 1
    if prefix and bes_statistics(g, r=prefix).passed:
        return prefix
    return None
