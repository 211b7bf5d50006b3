"""Generated double algebras, the refinement kernel, dimension reports."""

import random
from fractions import Fraction

import pytest

from natspec.closure import (
    dimension_bounds_report,
    generated_double_algebra,
    is_full,
    refine,
)
from natspec.exact import Matrix
from natspec.graphs import (
    complete_graph,
    cycle_graph,
    derive_seed,
    enumerate_graphs,
    path_graph,
    petersen_graph,
    random_gnp_half,
)
from natspec.idempotents import primitive_circ_idempotents

from closure_oracle import (
    ClosureError,
    SubspaceBasis,
    oracle_closure,
    profile_idempotents,
)
from conftest import random_zero_one_symmetric


def constant_on_cells(m, res):
    n = res.n
    return all(
        len({m.rows[p // n][p % n] for p in cell}) == 1 for cell in res.cells
    )


def directed_cycle(n):
    return Matrix(
        [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    )


class TestSubspaceBasis:
    """The elimination oracle's subspace basis."""

    def test_span_membership(self):
        b = SubspaceBasis(2)
        m1 = Matrix([[1, 0], [0, 1]])
        m2 = Matrix([[0, 1], [1, 0]])
        assert b.add(m1)
        assert b.add(m2)
        assert not b.add(Matrix([[2, 3], [3, 2]]))  # 2*m1 + 3*m2
        assert b.dim == 2
        assert b.contains(Matrix([[5, -1], [-1, 5]]))
        assert not b.contains(Matrix([[0, 1], [0, 0]]))

    def test_coordinates(self):
        b = SubspaceBasis(2)
        b.add(Matrix.identity(2))
        b.add(Matrix.ones(2))
        m = Matrix([[3, 1], [1, 3]])  # 2*I + 1*J
        coords = b.coordinates(m)
        ref = b.rref_matrices()
        recon = Matrix.zero(2)
        for c, base in zip(coords, ref):
            recon = recon + base.scale(c)
        assert recon == m
        assert b.coordinates(Matrix([[0, 1], [0, 0]])) is None

    def test_rref_rows_are_reduced(self, rng):
        b = SubspaceBasis(3)
        for _ in range(6):
            b.add(random_zero_one_symmetric(rng, 3))
        ref = b.rref_matrices()
        flat = [[Fraction(x) for row in m.rows for x in row] for m in ref]
        for v, c in zip(flat, b.pivots):
            assert v[c] == 1
            for w, d in zip(flat, b.pivots):
                if d != c:
                    assert w[c] == 0

    def test_fraction_inputs(self):
        b = SubspaceBasis(2)
        assert b.add(Matrix([[Fraction(1, 3), 0], [0, Fraction(1, 3)]]))
        assert b.contains(Matrix.identity(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ClosureError):
            SubspaceBasis(2).add(Matrix.identity(3))

    def test_json_round_trip(self, rng):
        b = SubspaceBasis(3)
        for _ in range(4):
            b.add(random_zero_one_symmetric(rng, 3))
        c = SubspaceBasis.from_json(b.to_json())
        assert c.rows == b.rows and c.pivots == b.pivots
        assert c.members == b.members


class TestGeneratedAlgebra:
    # Dimensions frozen from independent runs of the exact closure.
    def test_known_dimensions(self):
        cases = [
            (petersen_graph(), 3),
            (cycle_graph(5), 3),
            (complete_graph(4), 2),
            (path_graph(4), 8),
        ]
        for g, d in cases:
            assert generated_double_algebra(g.adjacency_matrix()).dim == d, g

    def test_theory_dimensions(self):
        # distance-regular graphs: diameter + 1 (Petersen, C5, C7, K_n);
        # the directed n-cycle P: the powers of P are disjoint 0/1
        # matrices summing to J, so the algebra is their span
        cases = [
            (petersen_graph().adjacency_matrix(), 3),
            (cycle_graph(5).adjacency_matrix(), 3),
            (cycle_graph(7).adjacency_matrix(), 4),
        ]
        cases += [(complete_graph(n).adjacency_matrix(), 2) for n in range(2, 7)]
        cases += [(directed_cycle(n), n) for n in range(1, 8)]
        for a, d in cases:
            assert generated_double_algebra(a).dim == d, a

    def test_closure_is_closed(self, rng):
        for a in (
            random_zero_one_symmetric(rng, 4),
            path_graph(5).adjacency_matrix(),
            directed_cycle(4),
        ):
            res = generated_double_algebra(a)
            atoms = primitive_circ_idempotents(res)
            for u in atoms:
                for v in atoms:
                    assert constant_on_cells(u.matmul(v), res)
                    assert constant_on_cells(u.hadamard(v), res)

    def test_contains_generators(self):
        a = path_graph(3).adjacency_matrix()
        res = generated_double_algebra(a)
        for m in (Matrix.identity(3), Matrix.ones(3), a):
            assert constant_on_cells(m, res)

    def test_cells_partition_positions(self):
        res = generated_double_algebra(path_graph(4).adjacency_matrix())
        flat = [p for cell in res.cells for p in cell]
        assert sorted(flat) == list(range(16))
        assert [cell[0] for cell in res.cells] == sorted(
            cell[0] for cell in res.cells
        )
        assert all(cell == sorted(cell) for cell in res.cells)
        assert res.rounds >= 1

    def test_relabeling_invariance(self):
        rng = random.Random(20260823)
        for n in (8, 12, 16):
            g = random_gnp_half(n, derive_seed(11, n))
            base = generated_double_algebra(g.adjacency_matrix())
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                res = generated_double_algebra(g.relabel(perm).adjacency_matrix())
                assert (res.dim, res.full) == (base.dim, base.full), (n, perm)


def _refined(mats):
    """refine's stable colours and the keys of each kept pass."""
    states = list(refine(mats))
    assert states[0][1] is None
    return states[-1][0], [keys for _, keys in states[1:]]


class TestFamilyRefine:
    def test_class_names_shared_across_members(self):
        rng = random.Random(20260823)
        a = random_gnp_half(8, derive_seed(7, 46)).adjacency_matrix()
        perm = list(range(8))
        rng.shuffle(perm)
        b = Matrix([[a.rows[perm[i]][perm[j]] for j in range(8)] for i in range(8)])
        (ca, cb), passes = _refined([a, b])
        assert _refined([a]) == ([ca], passes)
        assert cb == [[ca[perm[i]][perm[j]] for j in range(8)] for i in range(8)]

    def test_split_pass_keys(self):
        # P3: one pass splits the middle vertex from the ends and each
        # edge by its direction; a key is its class's sorted multiset
        # of colour pairs, here the middle diagonal's: itself, and an
        # edge and its reverse twice
        (colour,), passes = _refined([path_graph(3).adjacency_matrix()])
        assert colour == [[0, 1, 2], [3, 4, 3], [2, 1, 0]]
        assert len(passes) == 1 and len(passes[0]) == 5
        assert passes[0][4] == ((0, 0), (1, 1), (1, 1))


class TestOracleDifferential:
    """The refinement kernel against the elimination closure."""

    @staticmethod
    def check(a):
        oracle = oracle_closure(a)
        res = generated_double_algebra(a)
        assert (res.dim, res.full) == (oracle.dim, oracle.full), a
        assert primitive_circ_idempotents(res) == profile_idempotents(
            oracle.basis
        ), a
        return res

    def test_all_graphs_up_to_6(self):
        count = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                self.check(g.adjacency_matrix())
                count += 1
        assert count == 208

    def test_gnp8(self):
        # four non-full samples (dims 40, 50, 30, 30) and a full one
        dims = [
            self.check(random_gnp_half(8, derive_seed(7, k)).adjacency_matrix()).dim
            for k in (3, 6, 9, 13, 46)
        ]
        assert dims == [40, 50, 30, 30, 64]

    def test_non_symmetric_rational(self):
        rng = random.Random(20260823)
        pools = [
            [0, 1],
            [0, 1, Fraction(1, 2)],
            [Fraction(p, q) for p in range(-2, 3) for q in (1, 3)],
        ]
        full = 0
        for t in range(60):
            n = 2 + t % 4
            pool = pools[t % 3]
            if t % 2:
                # a circulant: its algebra lies in the circulants
                c = [rng.choice(pool) for _ in range(n)]
                a = Matrix([[c[(j - i) % n] for j in range(n)] for i in range(n)])
            else:
                a = Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
            full += self.check(a).full
        assert 0 < full < 60


class TestIsFull:
    def test_agrees_with_exact(self, rng):
        for _ in range(12):
            a = random_zero_one_symmetric(rng, 4)
            assert is_full(a) == oracle_closure(a, early_exit=True).full

    def test_full_example(self):
        g = random_gnp_half(8, 3254523697334435549)
        # frozen: this sample is full-dimensional (verified exactly)
        if is_full(g.adjacency_matrix()):
            assert generated_double_algebra(g.adjacency_matrix()).full

    def test_petersen_not_full(self):
        assert not is_full(petersen_graph().adjacency_matrix())

    def test_denominator_divisible_by_large_prime(self):
        x = Fraction(1, 2**31 - 1)
        a = Matrix([[0, x], [x, 0]])
        assert is_full(a) is False
        assert generated_double_algebra(a).dim == 2


class TestDimensionBounds:
    def test_all_connected_n4(self):
        for g in enumerate_graphs(4):
            if g.is_connected():
                rep = dimension_bounds_report(g)
                assert rep.within_bounds
                assert rep.lower == rep.diameter + 1

    def test_petersen_report(self):
        rep = dimension_bounds_report(petersen_graph())
        assert rep.dim == 3
        assert rep.diameter == 2
        assert rep.srg_parameters == (10, 3, 0, 1)
        assert rep.intersection_array == ((3, 2), (1, 1))
        assert rep.within_bounds

    def test_disconnected_has_no_lower_bound(self):
        from natspec.graphs import empty_graph

        rep = dimension_bounds_report(empty_graph(3))
        assert rep.lower is None and rep.diameter is None
        assert rep.within_bounds
