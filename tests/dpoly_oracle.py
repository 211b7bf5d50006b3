"""Slow reference for natspec.dpoly's evaluator and DAG format.

`oracle_eval_dpoly` walks the DAG once per node identity and builds a
dense `Matrix` of ints and Fractions at every node, with `Matrix`
products and sums.  It knows nothing of compiled programs, integer
registers or denominators, so the differential tests compare
`natspec.dpoly.eval_dpoly` against it.

`unshared_dpoly_to_json` writes the node-list format of
`dpoly_to_json` with every use of a subterm as its own node, the most
unshared form a bundle's DAG can take, so loading it must still give
back the interned polynomial.
"""

from __future__ import annotations

from natspec.dpoly import (
    Bullet,
    BulletOne,
    Circ,
    CircOne,
    DPoly,
    Scaled,
    Sum,
    Var,
)
from natspec.exact import Matrix, format_scalar


def _children(p: DPoly):
    if isinstance(p, Scaled):
        return (p.body,)
    if isinstance(p, Sum):
        return p.terms
    if isinstance(p, (Bullet, Circ)):
        return (p.left, p.right)
    return ()


def oracle_eval_dpoly(p: DPoly, a: Matrix) -> Matrix:
    """Evaluate at a: x -> a, I -> identity, J -> all-ones, products
    and sums on dense matrices, each node identity once."""
    n = a.n
    memo = {}
    stack = [(p, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        kids = _children(node)
        if not done:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in memo)
            continue
        vals = [memo[id(c)] for c in kids]
        if isinstance(node, Var):
            out = a
        elif isinstance(node, BulletOne):
            out = Matrix.identity(n)
        elif isinstance(node, CircOne):
            out = Matrix.ones(n)
        elif isinstance(node, Scaled):
            out = vals[0].scale(node.coef)
        elif isinstance(node, Sum):
            out = Matrix.zero(n)
            for v in vals:
                out = out + v
        elif isinstance(node, Bullet):
            out = vals[0].matmul(vals[1])
        elif isinstance(node, Circ):
            out = vals[0].hadamard(vals[1])
        else:
            raise ValueError("unknown node %r" % node)
        memo[id(node)] = out
    return memo[id(p)]


def unshared_dpoly_to_json(p: DPoly) -> dict:
    """p's tree in the `dpoly_to_json` node-list format, children
    before parents, with no node written for two uses."""
    nodes = []
    done = []  # node-list indices of finished subtrees, in order
    stack = [(p, False)]
    while stack:
        node, expanded = stack.pop()
        kids = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        idx = done[len(done) - len(kids):]
        del done[len(done) - len(kids):]
        if isinstance(node, Var):
            spec = {"kind": "x"}
        elif isinstance(node, BulletOne):
            spec = {"kind": "I"}
        elif isinstance(node, CircOne):
            spec = {"kind": "J"}
        elif isinstance(node, Scaled):
            spec = {"kind": "scaled", "coef": format_scalar(node.coef),
                    "body": idx[0]}
        elif isinstance(node, Sum):
            spec = {"kind": "sum", "terms": idx}
        else:
            spec = {"kind": "bullet" if isinstance(node, Bullet) else "circ",
                    "left": idx[0], "right": idx[1]}
        done.append(len(nodes))
        nodes.append(spec)
    return {"nodes": nodes, "root": done[-1]}
