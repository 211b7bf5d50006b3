"""Reference computations the benchmark checks natspec's outputs against.

Nothing here imports natspec.  Graphs are tuples of neighbour bitmasks,
one per vertex, exactly as graph6 describes them.

- `wl2_classes`: stable 2-dimensional Weisfeiler-Leman refinement of the
  colouring (a_ij, i == j).  The generated double algebra of a symmetric
  0/1 matrix is the span of the indicators of the coarsest partition of
  the n^2 positions that refines this colouring and is stable under the
  matrix product, so the class count is the algebra's dimension and the
  algebra is full exactly when the partition is discrete.
- `diameter`: breadth-first search, None for a disconnected graph.
- `gnp_half_rows` / `derive_seed`: the seeded G(n, 1/2) sampler that
  `natspec experiment` documents (sha256 counter seeds, one
  `getrandbits` chunk per row), rewritten here so the benchmark can
  recount certificates on the very graphs the program scans.
- `bes_passes`: the degree/signature test, recounted from its definition.
"""

from __future__ import annotations

import hashlib
import random
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

Rows = Tuple[int, ...]


# -- graph6 ------------------------------------------------------------

def graph6_encode(rows: Sequence[int]) -> str:
    n = len(rows)
    bits = [(rows[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def graph6_decode(s: str) -> Rows:
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        v = ord(ch) - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return tuple(rows)


def relabel(rows: Sequence[int], perm: Sequence[int]) -> Rows:
    """Vertex i becomes perm[i]."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if (rows[i] >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def canonical_form(rows: Sequence[int]) -> str:
    """Smallest graph6 string over all relabelings (small n only)."""
    n = len(rows)
    return min(graph6_encode(relabel(rows, p)) for p in permutations(range(n)))


def exhaustive_family(n: int) -> List[str]:
    """One graph6 string per isomorphism class on n vertices, sorted."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    seen = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        seen.add(canonical_form(rows))
    return sorted(seen)


# -- invariants --------------------------------------------------------

def wl2_classes(rows: Sequence[int]) -> int:
    """Number of classes of the stable 2-WL partition of the n^2
    positions, starting from the colouring (a_ij, i == j)."""
    n = len(rows)
    colour = [
        [((rows[i] >> j) & 1) + (2 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    count = len({c for r in colour for c in r})
    while True:
        sigs = []
        for i in range(n):
            ci = colour[i]
            row = []
            for j in range(n):
                prods = sorted((ci[k], colour[k][j]) for k in range(n))
                row.append((ci[j], tuple(prods)))
            sigs.append(row)
        names = {s: k for k, s in enumerate(sorted({s for r in sigs for s in r}))}
        colour = [[names[s] for s in r] for r in sigs]
        if len(names) == count:
            return count
        count = len(names)


def diameter(rows: Sequence[int]) -> Optional[int]:
    n = len(rows)
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if (rows[u] >> v) & 1 and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def petersen() -> Rows:
    rows = [0] * 10
    for i in range(5):
        for a, b in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def cycle(n: int) -> Rows:
    return tuple((1 << ((i + 1) % n)) | (1 << ((i - 1) % n)) for i in range(n))


def complete(n: int) -> Rows:
    full = (1 << n) - 1
    return tuple(full & ~(1 << i) for i in range(n))


def self_test() -> None:
    """Class counts known from theory, not from natspec: the Petersen
    graph is strongly regular (3 classes), C7 is distance-regular of
    diameter 3 (4 classes), K_n has 2 classes."""
    expected = [
        ("Petersen", petersen(), 3),
        ("C7", cycle(7), 4),
        ("K5", complete(5), 2),
        ("K8", complete(8), 2),
    ]
    for name, rows, want in expected:
        got = wl2_classes(rows)
        if got != want:
            raise AssertionError("oracle self-test: %s gives %d classes, "
                                 "theory says %d" % (name, got, want))
    if diameter(cycle(7)) != 3 or diameter(petersen()) != 2:
        raise AssertionError("oracle self-test: BFS diameter is wrong")


# -- seeded G(n, 1/2) and the degree/signature test ---------------------

def derive_seed(seed: int, counter: int) -> int:
    h = hashlib.sha256(("%d:%d" % (seed, counter)).encode()).digest()
    return int.from_bytes(h[:8], "big")


def gnp_half_rows(n: int, seed: int) -> Rows:
    """G(n, 1/2): bit k of row i's chunk is the edge (i, i + 1 + k)."""
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n - 1):
        chunk = rng.getrandbits(n - 1 - i)
        rows[i] |= chunk << (i + 1)
        j = i + 1
        while chunk:
            if chunk & 1:
                rows[j] |= 1 << i
            chunk >>= 1
            j += 1
    return tuple(rows)


def bes_passes(rows: Sequence[int]) -> bool:
    """Whether some r >= 1 gives strictly decreasing top-r degrees (in
    the order sorted by degree, ties by index) and pairwise distinct
    signatures of the remaining vertices against the top r.  Raising r
    keeps signatures distinct, so the largest feasible r decides; and
    n - r signatures on r bits can be distinct only if 2^r >= n - r."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    r = 0
    while r < n - 1 and deg[order[r]] > deg[order[r + 1]]:
        r += 1
    if r == 0 or (1 << r) < n - r:
        return False
    top = order[:r]
    seen = set()
    for v in order[r:]:
        sig = 0
        for u in top:
            sig = (sig << 1) | ((rows[u] >> v) & 1)
        if sig in seen:
            return False
        seen.add(sig)
    return True
