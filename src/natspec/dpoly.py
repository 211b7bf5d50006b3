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
    primary := 'x' | 'I' | 'J' | '(' expr ')' | rational postfix | rational
    rational:= nat ('/' nat)?

`I` is the matrix-product identity, `J` the all-one matrix.  A rational
literal juxtaposed with an operand is a scalar multiple ("2 x"); a bare
rational r abbreviates r J.  The postfix "'" applies the involution at
parse time; `^k` and `^.k` expand to explicit product chains.

Every node is one record: its kind (`x`, `I`, `J`, `scaled`, `sum`,
`bullet` or `circ`, the strings the JSON form uses), a coefficient
(scaled nodes only) and a tuple of children.  The seven node classes
differ only in their kind and constructor, and one table, _KINDS, holds
what else depends on the kind: its JSON child fields and its printing
precedence.  Nodes are hash-consed (Filliatre & Conchon 2006): each
distinct subterm is one node, so a polynomial is a DAG whose size is
its number of distinct subterms, however large the tree it spells out.
All traversals here are iterative and visit each node once; evaluation
runs over the DAG's postorder with integer numerators and
denominators.  Coefficients and evaluation are rational only.
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

# Every node has one layout: its kind (the JSON kind string, fixed by
# its class), a coefficient (set on scaled nodes, None on the rest) and
# a tuple of children.  Nodes are interned: building a node whose kind,
# exact coefficient and children equal those of a live node returns
# that node, so node identity is structural identity and a polynomial
# is a DAG with one node per distinct subterm.  The table holds its
# nodes weakly.
_NODES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _intern(cls, coef, kids: tuple):
    key = (cls.kind, coef) + kids
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        object.__setattr__(node, "coef", coef)
        object.__setattr__(node, "kids", kids)
        object.__setattr__(node, "_inv", None)
        _NODES[key] = node
    return node


def _remake(node: "DPoly", kids: tuple) -> "DPoly":
    """The node of node's kind and coefficient over other children."""
    return _intern(type(node), node.coef, kids)


def _kid(k: int) -> property:
    """A read-only view of child k, named as in the JSON form."""
    return property(lambda node: node.kids[k])


class DPoly:
    """Base class.  Nodes are interned, so two nodes are the same
    object exactly when they have the same structure (use
    structurally_equal for comparison up to normalization).  Each
    subclass sets its kind; the leaves x, I and J take no arguments."""

    __slots__ = ("__weakref__", "coef", "kids", "_inv")

    def __new__(cls):
        return _intern(cls, None, ())

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
    kind = "x"


class BulletOne(DPoly):
    __slots__ = ()
    kind = "I"


class CircOne(DPoly):
    __slots__ = ()
    kind = "J"


class Scaled(DPoly):
    __slots__ = ()
    kind = "scaled"
    body = _kid(0)

    def __new__(cls, coef: Scalar, body: DPoly):
        if isinstance(coef, Fraction):
            if coef.denominator == 1:
                coef = coef.numerator
        elif not isinstance(coef, int):
            raise DPolyError("coefficient %r is not rational" % (coef,))
        return _intern(cls, coef, (body,))


class Sum(DPoly):
    __slots__ = ()
    kind = "sum"
    terms = property(lambda node: node.kids)

    def __new__(cls, terms: Iterable[DPoly]):
        return _intern(cls, None, tuple(terms))


class Bullet(DPoly):
    __slots__ = ()
    kind = "bullet"
    left, right = _kid(0), _kid(1)

    def __new__(cls, left: DPoly, right: DPoly):
        return _intern(cls, None, (left, right))


class Circ(DPoly):
    __slots__ = ()
    kind = "circ"
    left, right = _kid(0), _kid(1)

    def __new__(cls, left: DPoly, right: DPoly):
        return _intern(cls, None, (left, right))


# kind -> (class, JSON child fields, print precedence).  A tuple of
# field names holds one child index each; a string names the list of
# all children's indices.  A higher precedence binds tighter; x, I and
# J are atoms.
_KINDS = {
    "x": (Var, (), 5),
    "I": (BulletOne, (), 5),
    "J": (CircOne, (), 5),
    "scaled": (Scaled, ("body",), 2),
    "sum": (Sum, "terms", 1),
    "bullet": (Bullet, ("left", "right"), 3),
    "circ": (Circ, ("left", "right"), 4),
}

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
        for ch in node.kids:
            if id(ch) not in seen:
                stack.append((ch, False))
    return order


def _rebuild(root: DPoly, make):
    """Bottom-up DAG rewrite: make(node, child_results) -> result."""
    memo = {}
    for node in _postorder(root):
        memo[node] = make(node, tuple(memo[c] for c in node.kids))
    return memo[root]


# -- normalization and structural equality ---------------------------

def normalize(p: DPoly) -> DPoly:
    """Flatten sums, merge nested scalar multiples, drop unit/zero
    scalars.  Used for deduplication and print/parse round trips, not
    as a semantic normal form."""

    def make(node, kids):
        if node.kind == "scaled":
            c, body = node.coef, kids[0]
            while body.kind == "scaled":
                c = c * body.coef
                body = body.kids[0]
            if c == 0:
                return Sum(())
            if body.kind == "sum" and not body.kids:
                return body
            if c == 1:
                return body
            return Scaled(c, body)
        if node.kind == "sum":
            flat = []
            for t in kids:
                flat.extend(t.kids if t.kind == "sum" else (t,))
            if len(flat) == 1:
                return flat[0]
            return Sum(flat)
        return _remake(node, kids)

    return _rebuild(p, make)


def structurally_equal(p: DPoly, q: DPoly) -> bool:
    """Equality of normalized trees (sum order significant): since
    nodes are interned, the same normalized node."""
    return normalize(p) is normalize(q)


def node_count(p: DPoly) -> int:
    """Distinct subterms of p: the length of its DAG's node list."""
    return len(_postorder(p))


# -- evaluation ------------------------------------------------------

def _reduced(nums: list, den: int) -> tuple:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def eval_dpoly(p: DPoly, a: Matrix) -> Matrix:
    """Evaluate at a rational matrix a: x -> a, I -> identity, J ->
    all-ones, products and sums structurally.  Each distinct subterm is
    computed once, in the DAG's postorder (the node list dpoly_to_json
    writes), as a flat row-major list of integer numerators over one
    positive denominator; only the result is built as a Matrix."""
    n = a.n
    flat = [x for row in a.rows for x in row]
    if not all(isinstance(x, (int, Fraction)) for x in flat):
        raise DPolyError("double polynomials evaluate at rational matrices only")
    den = lcm(*(Fraction(x).denominator for x in flat))
    leaves = {
        "x": ([int(x * den) for x in flat], den),
        "I": ([int(i == j) for i in range(n) for j in range(n)], 1),
        "J": ([1] * (n * n), 1),
    }
    regs = {}
    for node in _postorder(p):
        kind = node.kind
        if kind in leaves:
            val = leaves[kind]
        elif kind == "scaled":
            nums, d = regs[node.kids[0]]
            c = Fraction(node.coef)
            val = _reduced([v * c.numerator for v in nums], d * c.denominator)
        elif kind == "sum":
            terms = [regs[t] for t in node.kids]
            d = lcm(*(t[1] for t in terms))
            acc = [0] * (n * n)
            for nums, e in terms:
                f = d // e
                acc = (
                    list(map(add, acc, nums)) if f == 1
                    else [s + f * v for s, v in zip(acc, nums)]
                )
            val = _reduced(acc, d)
        else:
            (x, dx), (y, dy) = regs[node.kids[0]], regs[node.kids[1]]
            if kind == "bullet":
                rows = [x[i * n : i * n + n] for i in range(n)]
                cols = [y[j::n] for j in range(n)]
                prod = [sum(map(mul, r, c)) for r in rows for c in cols]
            else:
                prod = list(map(mul, x, y))
            val = _reduced(prod, dx * dy)
        regs[node] = val
    nums, d = regs[p]
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
        pending = [c for c in node.kids if c._inv is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kids = tuple(c._inv for c in node.kids)
        if node.kind in ("bullet", "circ"):
            kids = kids[::-1]
        inv = _remake(node, kids)
        node._inv = inv
        inv._inv = node
    return p._inv


def compose(f: DPoly, g: DPoly) -> DPoly:
    """Substitute g for the generator in f."""
    return _rebuild(f, lambda node, kids: g if node is X else _remake(node, kids))


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
        if ch in ("x", "I", "J"):
            # the leaves are written as their kinds
            self.pos += 1
            return _KINDS[ch][0]()
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

def print_dpoly(p: DPoly) -> str:
    """Canonical text; parse(print_dpoly(p)) is structurally equal to
    normalize(p)."""
    p = normalize(p)
    # every node's text, shared by the negated sum terms' reprints
    texts = {}

    def wrap(child, text, minimum):
        return "(" + text + ")" if _KINDS[child.kind][2] < minimum else text

    def make(node, parts):
        kind, kids = node.kind, node.kids
        prec = _KINDS[kind][2]
        if kind == "sum":
            if not kids:
                return "0"
            out = [wrap(kids[0], parts[0], prec + 1)]
            for t, text in zip(kids[1:], parts[1:]):
                if t.kind == "scaled" and t.coef < 0:
                    # normalize(-t): t's body, or a multiple of it
                    body = t.kids[0]
                    flipped = body if t.coef == -1 else Scaled(-t.coef, body)
                    if flipped not in texts:
                        texts[flipped] = make(flipped, [texts[body]])
                    out.append("- " + wrap(flipped, texts[flipped], prec + 1))
                else:
                    out.append("+ " + wrap(t, text, prec + 1))
            return " ".join(out)
        if kind == "scaled":
            # a coefficient is followed by an atom or a parenthesised term
            body = wrap(kids[0], parts[0], _KINDS["x"][2])
            if node.coef < 0:
                if node.coef == -1:
                    return "-" + body
                return "-" + format_scalar(-node.coef) + " " + body
            return format_scalar(node.coef) + " " + body
        if kind in ("bullet", "circ"):
            op = "*" if kind == "bullet" else "."
            left = wrap(kids[0], parts[0], prec)
            return left + op + wrap(kids[1], parts[1], prec + 1)
        return kind

    for node in _postorder(p):
        texts[node] = make(node, [texts[c] for c in node.kids])
    return texts[p]


# -- JSON (shared-node DAG form) -------------------------------------

def dpoly_to_json(p: DPoly) -> dict:
    order = _postorder(p)
    index = {id(node): k for k, node in enumerate(order)}
    nodes = []
    for node in order:
        spec = {"kind": node.kind}
        if node.coef is not None:
            spec["coef"] = format_scalar(node.coef)
        kids = [index[id(c)] for c in node.kids]
        fields = _KINDS[node.kind][1]
        if isinstance(fields, str):
            spec[fields] = kids
        else:
            spec.update(zip(fields, kids))
        nodes.append(spec)
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
        if kind not in _KINDS:
            raise DPolyError("unknown node kind %r" % kind)
        cls, fields, _ = _KINDS[kind]
        if isinstance(fields, str):
            kids = tuple([built[k] for k in spec[fields]])
        else:
            kids = tuple([built[spec[f]] for f in fields])
        if cls is Scaled:
            built.append(Scaled(parse_scalar(spec["coef"]), *kids))
        else:
            built.append(_intern(cls, None, kids))
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
