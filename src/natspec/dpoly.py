"""Double polynomials: expression trees over the free double algebra
in one generator, with a concrete text grammar, evaluation at a matrix,
the order-reversing involution, composition, and the projection
polynomials used everywhere downstream.

Grammar (EBNF, also in the README):

    expr    := term (('+' | '-') term)*
    term    := '-' term | prod
    prod    := factor ('*' factor)*          -- matrix product, left-assoc
    factor  := postfix ('.' postfix)*        -- Hadamard product, tighter
    postfix := primary ("'" | '^' nat | '^.' nat)*
    primary := 'x' | 'I' | 'J' | '(' expr ')' | rational primary | rational
    rational:= nat ('/' nat)?

`I` is the matrix-product identity, `J` the all-one matrix.  A rational
literal juxtaposed with an operand is a scalar multiple ("2 x"); a bare
rational r abbreviates r J.  The postfix "'" applies the involution at
parse time; `^k` and `^.k` expand to explicit product chains.

Nodes are hash-consed (Filliatre & Conchon 2006): each distinct
subterm is one node, so a polynomial is a DAG whose size is its number
of distinct subterms, however large the tree it spells out.  All
traversals here are iterative and visit each node once; evaluation
compiles the DAG into a straight-line program over integer
numerators and denominators.  Coefficients and evaluation are
rational only.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Optional

from .exact import Matrix, Scalar, format_scalar, parse_scalar


class DPolyError(ValueError):
    pass


class ParseError(DPolyError):
    def __init__(self, message: str, position: int):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


# -- AST (hash-consed) -------------------------------------------------

# Every node is interned: building a node whose kind, exact coefficient
# and children equal those of a live node returns that node, so node
# identity is structural identity and a polynomial is a DAG with one
# node per distinct subterm.  The table holds its nodes weakly.
_NODES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _intern(cls, key, **fields):
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_inv", None)
        _NODES[key] = node
    return node


class DPoly:
    """Base class.  Nodes are interned, so two nodes are the same
    object exactly when they have the same structure (use
    structurally_equal for comparison up to normalization)."""

    __slots__ = ("__weakref__", "_inv")

    def __setattr__(self, name, value):
        if name != "_inv":
            raise AttributeError("double polynomial nodes are immutable")
        object.__setattr__(self, name, value)

    def __add__(self, other: "DPoly") -> "DPoly":
        return Sum((self, other))

    def __sub__(self, other: "DPoly") -> "DPoly":
        return Sum((self, Scaled(-1, other)))

    def __neg__(self) -> "DPoly":
        return Scaled(-1, self)


class Var(DPoly):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ("x",))


class BulletOne(DPoly):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ("I",))


class CircOne(DPoly):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ("J",))


class Scaled(DPoly):
    __slots__ = ("coef", "body")

    def __new__(cls, coef: Scalar, body: DPoly):
        if isinstance(coef, Fraction):
            if coef.denominator == 1:
                coef = coef.numerator
        elif not isinstance(coef, int):
            raise DPolyError("coefficient %r is not rational" % (coef,))
        return _intern(cls, ("scaled", coef, body), coef=coef, body=body)


class Sum(DPoly):
    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[DPoly]):
        terms = tuple(terms)
        return _intern(cls, ("sum",) + terms, terms=terms)


class Bullet(DPoly):
    __slots__ = ("left", "right")

    def __new__(cls, left: DPoly, right: DPoly):
        return _intern(cls, ("bullet", left, right), left=left, right=right)


class Circ(DPoly):
    __slots__ = ("left", "right")

    def __new__(cls, left: DPoly, right: DPoly):
        return _intern(cls, ("circ", left, right), left=left, right=right)


X = Var()
B_ONE = BulletOne()
C_ONE = CircOne()


def zero() -> DPoly:
    return Sum(())


def bullet_power(p: DPoly, k: int) -> DPoly:
    if k < 0:
        raise DPolyError("negative power")
    if k == 0:
        return B_ONE
    out = p
    for _ in range(k - 1):
        out = Bullet(out, p)
    return out


def circ_power(p: DPoly, k: int) -> DPoly:
    if k < 0:
        raise DPolyError("negative power")
    if k == 0:
        return C_ONE
    out = p
    for _ in range(k - 1):
        out = Circ(out, p)
    return out


def circ_product(factors) -> DPoly:
    factors = list(factors)
    if not factors:
        return C_ONE
    out = factors[0]
    for f in factors[1:]:
        out = Circ(out, f)
    return out


def _children(p: DPoly):
    if isinstance(p, Scaled):
        return (p.body,)
    if isinstance(p, Sum):
        return p.terms
    if isinstance(p, (Bullet, Circ)):
        return (p.left, p.right)
    return ()


def _postorder(root: DPoly):
    """Iterative postorder over the DAG, each node once."""
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for ch in _children(node):
            if id(ch) not in seen:
                stack.append((ch, False))
    return order


def _rebuild(root: DPoly, make):
    """Bottom-up DAG rewrite: make(node, child_results) -> result."""
    memo = {}
    for node in _postorder(root):
        memo[id(node)] = make(node, [memo[id(c)] for c in _children(node)])
    return memo[id(root)]


# -- normalization and structural equality ---------------------------

def normalize(p: DPoly) -> DPoly:
    """Flatten sums, merge nested scalar multiples, drop unit/zero
    scalars.  Used for deduplication and print/parse round trips, not
    as a semantic normal form."""

    def make(node, kids):
        if isinstance(node, Scaled):
            c, body = node.coef, kids[0]
            while isinstance(body, Scaled):
                c = c * body.coef
                body = body.body
            if c == 0:
                return Sum(())
            if isinstance(body, Sum) and not body.terms:
                return body
            if c == 1:
                return body
            return Scaled(c, body)
        if isinstance(node, Sum):
            flat = []
            for t in kids:
                if isinstance(t, Sum):
                    flat.extend(t.terms)
                else:
                    flat.append(t)
            if len(flat) == 1:
                return flat[0]
            return Sum(flat)
        if isinstance(node, Bullet):
            return Bullet(kids[0], kids[1])
        if isinstance(node, Circ):
            return Circ(kids[0], kids[1])
        return node

    return _rebuild(p, make)


def structurally_equal(p: DPoly, q: DPoly) -> bool:
    """Equality of normalized trees (sum order significant): since
    nodes are interned, the same normalized node."""
    return normalize(p) is normalize(q)


def node_count(p: DPoly) -> int:
    """Distinct subterms of p: the length of its DAG's node list."""
    return len(_postorder(p))


def tree_size(p: DPoly) -> int:
    """Nodes of p written out as a tree, each shared subterm once per
    use."""
    size = {}
    for node in _postorder(p):
        size[node] = 1 + sum(size[c] for c in _children(node))
    return size[p]


# -- evaluation ------------------------------------------------------

# Opcodes of the straight-line program eval_dpoly runs.
_X, _I, _J, _SCALED, _SUM, _BULLET, _CIRC = range(7)


def _compile(p: DPoly) -> list:
    """The DAG's postorder (the node list dpoly_to_json writes) as a
    straight-line program: instruction k computes node k into register
    k from earlier registers."""
    index = {}
    prog = []
    for k, node in enumerate(_postorder(p)):
        index[node] = k
        if isinstance(node, Var):
            prog.append((_X,))
        elif isinstance(node, BulletOne):
            prog.append((_I,))
        elif isinstance(node, CircOne):
            prog.append((_J,))
        elif isinstance(node, Scaled):
            c = Fraction(node.coef)
            prog.append((_SCALED, index[node.body], c.numerator, c.denominator))
        elif isinstance(node, Sum):
            prog.append((_SUM, [index[t] for t in node.terms]))
        elif isinstance(node, Bullet):
            prog.append((_BULLET, index[node.left], index[node.right]))
        elif isinstance(node, Circ):
            prog.append((_CIRC, index[node.left], index[node.right]))
        else:
            raise DPolyError("unknown node %r" % node)
    return prog


def _reduced(nums: list, den: int) -> tuple:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def eval_dpoly(p: DPoly, a: Matrix) -> Matrix:
    """Evaluate at a rational matrix a: x -> a, I -> identity, J ->
    all-ones, products and sums structurally.  Each distinct subterm is
    computed once, as a flat row-major list of integer numerators over
    one positive denominator; only the result is built as a Matrix."""
    n = a.n
    flat = [x for row in a.rows for x in row]
    if not all(isinstance(x, (int, Fraction)) for x in flat):
        raise DPolyError("double polynomials evaluate at rational matrices only")
    den = lcm(*(Fraction(x).denominator for x in flat))
    gen = ([int(x * den) for x in flat], den)
    ident = ([int(i == j) for i in range(n) for j in range(n)], 1)
    ones = ([1] * (n * n), 1)
    regs: list = []
    for ins in _compile(p):
        op = ins[0]
        if op == _X:
            regs.append(gen)
        elif op == _I:
            regs.append(ident)
        elif op == _J:
            regs.append(ones)
        elif op == _SCALED:
            nums, d = regs[ins[1]]
            regs.append(_reduced([v * ins[2] for v in nums], d * ins[3]))
        elif op == _SUM:
            terms = [regs[k] for k in ins[1]]
            d = lcm(*(t[1] for t in terms))
            acc = [0] * (n * n)
            for nums, e in terms:
                f = d // e
                acc = (
                    list(map(add, acc, nums)) if f == 1
                    else [s + f * v for s, v in zip(acc, nums)]
                )
            regs.append(_reduced(acc, d))
        elif op == _BULLET:
            (x, dx), (y, dy) = regs[ins[1]], regs[ins[2]]
            rows = [x[i * n : i * n + n] for i in range(n)]
            cols = [y[j::n] for j in range(n)]
            regs.append(
                _reduced(
                    [sum(map(mul, r, c)) for r in rows for c in cols], dx * dy
                )
            )
        else:
            (x, dx), (y, dy) = regs[ins[1]], regs[ins[2]]
            regs.append(_reduced(list(map(mul, x, y)), dx * dy))
    nums, d = regs[-1]
    vals = nums if d == 1 else [Fraction(v, d) for v in nums]
    return Matrix([vals[i * n : i * n + n] for i in range(n)])


def involution(p: DPoly) -> DPoly:
    """Reverse both product orders; fixes x, I, J; linear otherwise.
    Each node's image is computed once and kept on the node (and the
    node on its image), so repeated calls reuse it."""
    stack = [p]
    while stack:
        node = stack[-1]
        if node._inv is not None:
            stack.pop()
            continue
        kids = _children(node)
        pending = [c for c in kids if c._inv is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Scaled):
            inv = Scaled(node.coef, node.body._inv)
        elif isinstance(node, Sum):
            inv = Sum(t._inv for t in kids)
        elif isinstance(node, Bullet):
            inv = Bullet(node.right._inv, node.left._inv)
        elif isinstance(node, Circ):
            inv = Circ(node.right._inv, node.left._inv)
        else:
            inv = node
        node._inv = inv
        inv._inv = node
    return p._inv


def compose(f: DPoly, g: DPoly) -> DPoly:
    """Substitute g for the generator in f."""

    def make(node, kids):
        if isinstance(node, Var):
            return g
        if isinstance(node, Scaled):
            return Scaled(node.coef, kids[0])
        if isinstance(node, Sum):
            return Sum(kids)
        if isinstance(node, Bullet):
            return Bullet(kids[0], kids[1])
        if isinstance(node, Circ):
            return Circ(kids[0], kids[1])
        return node

    return _rebuild(f, make)


# -- projection polynomials and entry spectra ------------------------

def proj_poly(lambdas, lam: Scalar) -> DPoly:
    """Hadamard-product Lagrange polynomial: evaluates entry-wise to 1
    where the entry equals lam and 0 where it equals another member of
    lambdas."""
    values = list(lambdas)
    if len(set(map(Fraction, values))) != len(values):
        raise DPolyError("repeated elements in the value set")
    if not any(v == lam for v in values):
        raise DPolyError("target value not in the value set")
    factors = []
    for mu in sorted(values, key=Fraction):
        if mu == lam:
            continue
        factors.append(
            Scaled(1 / Fraction(lam - mu), Sum((X, Scaled(-mu, C_ONE))))
        )
    return circ_product(factors)


def circ_spectrum(a: Matrix) -> set:
    """Distinct entries of a."""
    return {Fraction(x) for r in a.rows for x in r}


# -- classic graph matrices ------------------------------------------

def complement_dpoly() -> DPoly:
    return Sum((C_ONE, Scaled(-1, B_ONE), Scaled(-1, X)))


def laplacian_dpoly() -> DPoly:
    return Sum((Circ(Bullet(X, X), B_ONE), Scaled(-1, X)))


def signless_laplacian_dpoly() -> DPoly:
    return Sum((Circ(Bullet(X, X), B_ONE), X))


def distance_dpoly(n: int, N: int) -> DPoly:
    """Distance-matrix double polynomial for n-vertex graphs; N must
    dominate every entry of (A + I)^(n-1) for the intended inputs
    (see distance_n_bound)."""
    if N < 1:
        raise DPolyError("need N >= 1")
    walk = Sum((X, B_ONE))
    walk_pows = [B_ONE]
    for _ in range(n - 1):
        walk_pows.append(
            walk if len(walk_pows) == 1 else Bullet(walk_pows[-1], walk)
        )
    terms = []
    for d in range(n):
        factors = [
            Sum((Scaled(i, C_ONE), Scaled(-1, walk_pows[d])))
            for i in range(1, N + 1)
        ]
        terms.append(circ_product(factors))
    fact = 1
    for i in range(2, N + 1):
        fact *= i
    return Scaled(Fraction(1, fact), Sum(terms))


def classic_dpoly(name: str, N: Optional[int] = None,
                  n: Optional[int] = None) -> DPoly:
    if name == "complement":
        return complement_dpoly()
    if name == "laplacian":
        return laplacian_dpoly()
    if name == "signless_laplacian":
        return signless_laplacian_dpoly()
    if name == "distance":
        if N is None or n is None:
            raise DPolyError("distance needs both N and n")
        return distance_dpoly(n, N)
    raise DPolyError("unknown classic matrix %r" % name)


def distance_n_bound(g) -> int:
    """Exact maximum entry of (A + I)^(n-1): a valid N for the
    distance double polynomial on this graph."""
    a = g.adjacency_matrix()
    m = a + Matrix.identity(a.n)
    acc = Matrix.identity(a.n)
    for _ in range(a.n - 1):
        acc = acc.matmul(m)
    return max((max(r) for r in acc.rows), default=1)


# -- parser ----------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def rational(self) -> Scalar:
        num = self.nat()
        if self.peek() == "/":
            self.pos += 1
            den = self.nat()
            if den == 0:
                self.error("zero denominator")
            f = Fraction(num, den)
            return f.numerator if f.denominator == 1 else f
        return num

    def parse(self) -> DPoly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> DPoly:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            terms.append(Scaled(-1, t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else Sum(terms)

    def term(self) -> DPoly:
        if self.peek() == "-":
            self.pos += 1
            return Scaled(-1, self.term())
        return self.prod()

    def prod(self) -> DPoly:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = Bullet(out, self.factor())
        return out

    def factor(self) -> DPoly:
        out = self.postfix()
        while True:
            self.skip_ws()
            # '.' is Hadamard unless it starts a power suffix '^.'
            if self.peek() == ".":
                self.pos += 1
                out = Circ(out, self.postfix())
            else:
                return out

    def postfix(self) -> DPoly:
        out = self.primary()
        while True:
            ch = self.peek()
            if ch == "'":
                self.pos += 1
                out = involution(out)
            elif ch == "^":
                self.pos += 1
                if self.peek() == ".":
                    self.pos += 1
                    out = circ_power(out, self.nat())
                else:
                    out = bullet_power(out, self.nat())
            else:
                return out

    def primary(self) -> DPoly:
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            return X
        if ch == "I":
            self.pos += 1
            return B_ONE
        if ch == "J":
            self.pos += 1
            return C_ONE
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.take(")")
            return p
        if ch.isdigit():
            c = self.rational()
            nxt = self.peek()
            if nxt in ("x", "I", "J", "(") or nxt.isdigit():
                return Scaled(c, self.postfix())
            return Scaled(c, C_ONE)
        if ch == "":
            self.error("unexpected end of input")
        self.error("unknown token %r" % ch)


def parse(text: str) -> DPoly:
    return _Parser(text).parse()


# -- printer ---------------------------------------------------------

_PREC_SUM = 1
_PREC_SCALED = 2
_PREC_BULLET = 3
_PREC_CIRC = 4
_PREC_ATOM = 5


def _prec(p: DPoly) -> int:
    if isinstance(p, Sum):
        return _PREC_SUM
    if isinstance(p, Scaled):
        return _PREC_SCALED
    if isinstance(p, Bullet):
        return _PREC_BULLET
    if isinstance(p, Circ):
        return _PREC_CIRC
    return _PREC_ATOM


def print_dpoly(p: DPoly) -> str:
    """Canonical text; parse(print_dpoly(p)) is structurally equal to
    normalize(p)."""
    p = normalize(p)

    def make(node, kids):
        def wrap(child, text, minimum):
            return "(" + text + ")" if _prec(child) < minimum else text

        if isinstance(node, Var):
            return "x"
        if isinstance(node, BulletOne):
            return "I"
        if isinstance(node, CircOne):
            return "J"
        if isinstance(node, Sum):
            if not node.terms:
                return "0"
            parts = [wrap(node.terms[0], kids[0], _PREC_SCALED)]
            for t, text in zip(node.terms[1:], kids[1:]):
                if isinstance(t, Scaled) and Fraction(t.coef) < 0:
                    flipped = normalize(Scaled(-1, t))
                    parts.append(
                        "- " + wrap(flipped, _print_node(flipped),
                                    _PREC_SCALED)
                    )
                else:
                    parts.append("+ " + wrap(t, text, _PREC_SCALED))
            return " ".join(parts)
        if isinstance(node, Scaled):
            c = Fraction(node.coef)
            body = wrap(node.body, kids[0], _PREC_ATOM)
            if c < 0:
                inner = (
                    body
                    if c == -1
                    else format_scalar(-node.coef) + " " + body
                )
                return "-" + inner
            if isinstance(node.body, CircOne):
                return format_scalar(node.coef) + " J"
            return format_scalar(node.coef) + " " + body
        if isinstance(node, Bullet):
            left = wrap(node.left, kids[0], _PREC_BULLET)
            right = wrap(node.right, kids[1], _PREC_BULLET + 1)
            return left + "*" + right
        if isinstance(node, Circ):
            left = wrap(node.left, kids[0], _PREC_CIRC)
            right = wrap(node.right, kids[1], _PREC_CIRC + 1)
            return left + "." + right
        raise DPolyError("unknown node %r" % node)

    def _print_node(q):
        return _rebuild(q, make)

    return _rebuild(p, make)


# -- JSON (shared-node DAG form) -------------------------------------

def dpoly_to_json(p: DPoly) -> dict:
    order = _postorder(p)
    index = {id(node): k for k, node in enumerate(order)}
    nodes = []
    for node in order:
        if isinstance(node, Var):
            nodes.append({"kind": "x"})
        elif isinstance(node, BulletOne):
            nodes.append({"kind": "I"})
        elif isinstance(node, CircOne):
            nodes.append({"kind": "J"})
        elif isinstance(node, Scaled):
            nodes.append(
                {
                    "kind": "scaled",
                    "coef": format_scalar(node.coef),
                    "body": index[id(node.body)],
                }
            )
        elif isinstance(node, Sum):
            nodes.append(
                {"kind": "sum", "terms": [index[id(t)] for t in node.terms]}
            )
        elif isinstance(node, Bullet):
            nodes.append(
                {
                    "kind": "bullet",
                    "left": index[id(node.left)],
                    "right": index[id(node.right)],
                }
            )
        elif isinstance(node, Circ):
            nodes.append(
                {
                    "kind": "circ",
                    "left": index[id(node.left)],
                    "right": index[id(node.right)],
                }
            )
        else:
            raise DPolyError("unknown node %r" % node)
    return {"nodes": nodes, "root": index[id(p)]}


def subterm_indices(p: DPoly, subterms: Iterable[DPoly]) -> list:
    """The positions of subterms of p in dpoly_to_json(p)["nodes"]:
    {"nodes": those nodes, "root": k} loads the subterm at k."""
    index = {id(node): k for k, node in enumerate(_postorder(p))}
    try:
        return [index[id(q)] for q in subterms]
    except KeyError:
        raise DPolyError("not a subterm of the polynomial") from None


def dpoly_from_json(data: dict) -> DPoly:
    built = []
    for spec in data["nodes"]:
        kind = spec["kind"]
        if kind == "x":
            built.append(X)
        elif kind == "I":
            built.append(B_ONE)
        elif kind == "J":
            built.append(C_ONE)
        elif kind == "scaled":
            built.append(
                Scaled(parse_scalar(spec["coef"]), built[spec["body"]])
            )
        elif kind == "sum":
            built.append(Sum(built[k] for k in spec["terms"]))
        elif kind == "bullet":
            built.append(Bullet(built[spec["left"]], built[spec["right"]]))
        elif kind == "circ":
            built.append(Circ(built[spec["left"]], built[spec["right"]]))
        else:
            raise DPolyError("unknown node kind %r" % kind)
    return built[data["root"]]


# -- random double polynomials (seeded; used by property checks) -----

def random_dpoly(rng, size: int = 8, scalar_bound: int = 3) -> DPoly:
    """A random expression tree with about `size` operator nodes."""
    if size <= 0:
        return rng.choice([X, B_ONE, C_ONE])
    kind = rng.randrange(4)
    if kind == 0:
        c = rng.randint(-scalar_bound, scalar_bound)
        if c == 0:
            c = 1
        if rng.randrange(3) == 0:
            c = Fraction(c, rng.randint(2, scalar_bound + 1))
        return Scaled(c, random_dpoly(rng, size - 1, scalar_bound))
    if kind == 1:
        k = rng.randint(2, 3)
        split = size // k
        return Sum(
            random_dpoly(rng, rng.randint(0, max(split, 1)), scalar_bound)
            for _ in range(k)
        )
    left = random_dpoly(rng, (size - 1) // 2, scalar_bound)
    right = random_dpoly(rng, (size - 1) // 2, scalar_bound)
    return Bullet(left, right) if kind == 2 else Circ(left, right)
