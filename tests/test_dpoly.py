"""Double polynomial grammar, evaluation, and algebraic operations."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natspec import dpoly as dp
from natspec.dpoly import (
    B_ONE,
    C_ONE,
    X,
    Bullet,
    Circ,
    ParseError,
    Scaled,
    Sum,
    circ_spectrum,
    classic_dpoly,
    compose,
    distance_dpoly,
    distance_n_bound,
    dpoly_from_json,
    dpoly_to_json,
    eval_dpoly,
    involution,
    node_count,
    parse,
    print_dpoly,
    proj_poly,
    random_dpoly,
    structurally_equal,
)
from natspec.exact import Matrix
from natspec.graphs import (
    complete_graph,
    cycle_graph,
    distance_and_diameter,
    enumerate_graphs,
    path_graph,
    petersen_graph,
)
from natspec.spectra import build_ds_dpoly

from conftest import random_zero_one_symmetric
from dpoly_oracle import oracle_eval_dpoly, unshared_dpoly_to_json


random_trees = st.integers(0, 2**32 - 1).map(
    lambda s: random_dpoly(random.Random(s), random.Random(s).randint(0, 12))
)


class TestParser:
    def test_canonical_laplacian(self):
        p = parse("(x*x).I - x")
        assert print_dpoly(p) == "(x*x).I - x"
        assert structurally_equal(p, classic_dpoly("laplacian"))

    def test_hadamard_binds_tighter_than_bullet(self):
        # x . J * I parses as (x.J)*I
        p = parse("x . J * I")
        assert structurally_equal(p, Bullet(Circ(X, C_ONE), B_ONE))

    def test_unary_minus_scope(self):
        assert structurally_equal(parse("-x*J"), Scaled(-1, Bullet(X, C_ONE)))

    def test_powers_expand(self):
        assert structurally_equal(parse("x^3"), Bullet(Bullet(X, X), X))
        assert structurally_equal(parse("x^.2"), Circ(X, X))
        assert structurally_equal(parse("x^0"), B_ONE)
        assert structurally_equal(parse("x^.0"), C_ONE)

    def test_involution_applied_at_parse(self):
        assert structurally_equal(parse("(x*J)'"), Bullet(C_ONE, X))
        assert structurally_equal(parse("x'"), X)

    def test_scalar_juxtaposition(self):
        assert structurally_equal(parse("2 x"), Scaled(2, X))
        assert structurally_equal(
            parse("1/2 (x - J)"),
            Scaled(Fraction(1, 2), Sum((X, Scaled(-1, C_ONE)))),
        )

    def test_scalar_takes_postfix_operators(self):
        # a scalar's operand takes the involution and powers before the
        # scaling applies
        assert structurally_equal(parse("2 x'"), Scaled(2, X))
        assert structurally_equal(
            parse("2 (x*J)'"), Scaled(2, Bullet(C_ONE, X))
        )
        assert structurally_equal(parse("3 x^2"), Scaled(3, Bullet(X, X)))
        assert structurally_equal(
            parse("1/2 x^.2"), Scaled(Fraction(1, 2), Circ(X, X))
        )

    def test_bare_rational_is_multiple_of_j(self):
        assert structurally_equal(parse("3"), Scaled(3, C_ONE))

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse("x *")
        assert e.value.position == 4
        with pytest.raises(ParseError):
            parse("x + + x")
        with pytest.raises(ParseError):
            parse("(x")
        with pytest.raises(ParseError):
            parse("x)")
        with pytest.raises(ParseError):
            parse("1/0")

    @given(random_trees)
    @settings(max_examples=150, deadline=None)
    def test_print_parse_round_trip(self, p):
        assert structurally_equal(parse(print_dpoly(p)), p)

    @given(random_trees)
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, p):
        assert structurally_equal(dpoly_from_json(dpoly_to_json(p)), p)


class TestEval:
    def setup_method(self):
        self.a = cycle_graph(4).adjacency_matrix()

    def test_identities(self):
        assert eval_dpoly(B_ONE, self.a) == Matrix.identity(4)
        assert eval_dpoly(C_ONE, self.a) == Matrix.ones(4)
        assert eval_dpoly(X, self.a) == self.a

    def test_bullet_is_matmul(self):
        assert eval_dpoly(parse("x*x"), self.a) == self.a.matmul(self.a)

    def test_circ_is_hadamard(self):
        # adjacency is 0/1 so x.x = x
        assert eval_dpoly(parse("x.x"), self.a) == self.a

    @given(random_trees)
    @settings(max_examples=60, deadline=None)
    def test_involution_evaluates_to_transpose(self, p):
        a = cycle_graph(4).adjacency_matrix()
        assert eval_dpoly(involution(p), a) == eval_dpoly(p, a).transpose()

    @given(random_trees)
    @settings(max_examples=60, deadline=None)
    def test_involution_is_an_involution(self, p):
        assert structurally_equal(involution(involution(p)), p)
        assert involution(involution(p)) is p

    @given(random_trees, random_trees)
    @settings(max_examples=40, deadline=None)
    def test_compose_is_evaluation(self, f, g):
        a = path_graph(3).adjacency_matrix()
        assert eval_dpoly(compose(f, g), a) == eval_dpoly(
            f, eval_dpoly(g, a)
        )


class TestProjection:
    def test_indicator_semantics(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            entries = [[rng.choice([0, 1, 2]) for _ in range(n)] for _ in range(n)]
            a = Matrix(entries)
            lams = sorted(circ_spectrum(a))
            for lam in lams:
                v = eval_dpoly(proj_poly(lams, lam), a)
                expect = Matrix(
                    [
                        [1 if Fraction(x) == lam else 0 for x in row]
                        for row in entries
                    ]
                )
                assert v == expect

    def test_target_must_be_member(self):
        with pytest.raises(dp.DPolyError):
            proj_poly([0, 1], 2)

    def test_repeats_rejected(self):
        with pytest.raises(dp.DPolyError):
            proj_poly([0, 0, 1], 0)

    def test_circ_spectrum_is_entry_set(self):
        a = Matrix([[0, 1], [2, 1]])
        assert circ_spectrum(a) == {0, 1, 2}


class TestClassics:
    def test_complement(self):
        for g in enumerate_graphs(4):
            a = g.adjacency_matrix()
            v = eval_dpoly(classic_dpoly("complement"), a)
            assert v == Matrix.ones(4) - Matrix.identity(4) - a

    def test_laplacian_and_signless(self):
        a = petersen_graph().adjacency_matrix()
        deg = a.matmul(a).hadamard(Matrix.identity(10))
        assert eval_dpoly(classic_dpoly("laplacian"), a) == deg - a
        assert eval_dpoly(classic_dpoly("signless_laplacian"), a) == deg + a

    def test_distance_p3(self):
        g = path_graph(3)
        n_bound = distance_n_bound(g)
        v = eval_dpoly(distance_dpoly(3, n_bound), g.adjacency_matrix())
        assert v == Matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_distance_complete(self):
        g = complete_graph(4)
        v = eval_dpoly(
            distance_dpoly(4, distance_n_bound(g)), g.adjacency_matrix()
        )
        dist, diam = distance_and_diameter(g)
        assert v == dist and diam == 1

    def test_unknown_name(self):
        with pytest.raises(dp.DPolyError):
            classic_dpoly("resolvent")

    def test_distance_needs_parameters(self):
        with pytest.raises(dp.DPolyError):
            classic_dpoly("distance")


class TestNormalization:
    def test_zero_prints_as_zero(self):
        assert print_dpoly(Sum(())) == "0"
        assert structurally_equal(parse("0"), Sum(()))

    def test_scalar_collapse(self):
        p = Scaled(2, Scaled(Fraction(1, 2), X))
        assert structurally_equal(p, X)

    def test_sum_flattening(self):
        p = Sum((Sum((X, B_ONE)), C_ONE))
        q = Sum((X, B_ONE, C_ONE))
        assert structurally_equal(p, q)

    def test_order_matters(self):
        assert not structurally_equal(Sum((X, B_ONE)), Sum((B_ONE, X)))


def _fraction_matrix(seed: int, n: int) -> Matrix:
    """A seeded non-symmetric rational matrix."""
    rng = random.Random(seed)
    return Matrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestHashConsing:
    def test_equal_structure_is_one_node(self):
        assert parse("x*x") is parse("x*x")
        assert Sum((X, B_ONE)) is Sum([X, B_ONE])
        assert Scaled(Fraction(2), X) is Scaled(2, X)
        assert Scaled(2, X).coef == 2 and type(Scaled(2, X).coef) is int
        assert Sum((X, B_ONE)) is not Sum((B_ONE, X))
        assert Scaled(1, X) is not X

    @given(random_trees)
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_tree_is_the_same_node(self, p):
        assert dpoly_from_json(dpoly_to_json(p)) is p
        assert dpoly_from_json(unshared_dpoly_to_json(p)) is p
        assert parse(print_dpoly(p)) is parse(print_dpoly(p))

    def test_unreferenced_nodes_are_freed(self):
        ref = weakref.ref(Bullet(Scaled(Fraction(7, 1009), X), C_ONE))
        gc.collect()
        assert ref() is None

    def test_nodes_are_immutable(self):
        p = Bullet(X, C_ONE)
        with pytest.raises(AttributeError):
            p.left = B_ONE

    def test_rational_coefficients_only(self):
        with pytest.raises(dp.DPolyError):
            Scaled(2.0, X)
        with pytest.raises(dp.DPolyError):
            Scaled(0.5, X)

    def test_node_count_counts_distinct_subterms(self):
        # (x*x).(x*x) has three distinct subterms: x, x*x and the product
        p = parse("(x*x).(x*x)")
        assert node_count(p) == 3
        assert dp.tree_size(p) == 7


class TestCompiledEvaluator:
    """eval_dpoly against the Matrix-walking oracle."""

    @given(random_trees, st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_random_against_oracle(self, p, seed, n):
        a = _fraction_matrix(seed, n)
        assert eval_dpoly(p, a) == oracle_eval_dpoly(p, a)

    def test_classics_against_oracle(self, rng):
        mats = [g.adjacency_matrix() for g in enumerate_graphs(4)]
        mats += [petersen_graph().adjacency_matrix()]
        mats += [_fraction_matrix(rng.randrange(2**32), n) for n in (1, 3, 5)]
        for a in mats:
            for name in ("complement", "laplacian", "signless_laplacian"):
                p = classic_dpoly(name)
                assert eval_dpoly(p, a) == oracle_eval_dpoly(p, a)
            p = distance_dpoly(a.n, 3)
            assert eval_dpoly(p, a) == oracle_eval_dpoly(p, a)

    def test_zero_and_empty(self):
        a = _fraction_matrix(1, 3)
        assert eval_dpoly(Sum(()), a) == Matrix.zero(3)
        assert eval_dpoly(Scaled(0, X), a) == Matrix.zero(3)
        assert eval_dpoly(X, Matrix([])) == Matrix([])

    def test_integral_entries_are_ints(self):
        a = _fraction_matrix(2, 4)
        v = eval_dpoly(Sum((Scaled(Fraction(1, 2), B_ONE),) * 2), a)
        assert all(type(x) is int for r in v.rows for x in r)
        v = eval_dpoly(Scaled(Fraction(1, 3), C_ONE), a)
        assert all(x == Fraction(1, 3) for r in v.rows for x in r)

    def test_bundle_polynomials_against_oracle(self, rng):
        # the determining polynomial of the exhaustive n = 3 and n = 4
        # families on every member and on two relabelings of each
        for n in (3, 4):
            family = enumerate_graphs(n)
            p = build_ds_dpoly(family).p
            for g in family:
                graphs = [g]
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    graphs.append(g.relabel(perm))
                for h in graphs:
                    a = h.adjacency_matrix()
                    assert eval_dpoly(p, a) == oracle_eval_dpoly(p, a)

    def test_unshared_bundle_dag_loads_interned(self):
        # a bundle written with no shared nodes, as older bundles were
        # in part, loads to the same interned polynomial
        family = enumerate_graphs(3)
        p = build_ds_dpoly(family).p
        data = unshared_dpoly_to_json(p)
        assert len(data["nodes"]) > 100 * node_count(p)
        q = dpoly_from_json(data)
        assert q is p
        for g in family:
            a = g.adjacency_matrix()
            assert eval_dpoly(q, a) == oracle_eval_dpoly(p, a)

    def test_prime_field_matrix_rejected(self):
        # any non-rational entry type is rejected; floats stand in for
        # the prime-field scalars exact no longer provides
        a = Matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(dp.DPolyError):
            eval_dpoly(parse("x*x"), a)
