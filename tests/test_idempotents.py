"""Primitive Hadamard idempotents and universal bases."""

from fractions import Fraction

import pytest

from natspec.closure import generated_double_algebra
from natspec.dpoly import B_ONE, X, eval_dpoly, parse, proj_poly, circ_spectrum
from natspec.exact import Matrix
from natspec.graphs import (
    complete_graph,
    enumerate_graphs,
    graph6_parse,
    path_graph,
    petersen_graph,
)
from natspec.idempotents import (
    IdempotentBasis,
    IdempotentError,
    check_basis,
    involution_close,
    primitive_circ_idempotents,
    universal_basis,
    universal_basis_full,
)

from closure_oracle import (
    ClosureError,
    SubspaceBasis,
    oracle_closure,
    profile_idempotents,
)
from conftest import random_zero_one_symmetric
from idempotents_oracle import (
    oracle_involution_close,
    oracle_universal_basis_full,
    strictify,
)


def relabeled(a, perm):
    return Matrix([[a.rows[perm[i]][perm[j]] for j in range(a.n)] for i in range(a.n)])


def random_families(rng, count):
    """Seeded symmetric 0/1 families, n = 3..5 with 2-5 members, about
    half of them holding a relabeled copy of an earlier member."""
    out = []
    for t in range(count):
        n = 3 + t % 3
        fam = [random_zero_one_symmetric(rng, n) for _ in range(rng.randint(2, 5))]
        if t % 2:
            perm = list(range(n))
            rng.shuffle(perm)
            fam[-1] = relabeled(fam[rng.randrange(len(fam) - 1)], perm)
        out.append(fam)
    return out


class TestPrimitiveIdempotents:
    def test_span_of_j_only(self):
        # I = J only at n = 1, so a single cell
        res = generated_double_algebra(Matrix([[Fraction(5, 2)]]))
        assert primitive_circ_idempotents(res) == [Matrix.ones(1)]

    def test_span_i_j(self):
        res = generated_double_algebra(complete_graph(3).adjacency_matrix())
        got = primitive_circ_idempotents(res)
        off = Matrix.ones(3) - Matrix.identity(3)
        assert got == [Matrix.identity(3), off]

    def test_petersen_three_atoms(self):
        a = petersen_graph().adjacency_matrix()
        atoms = primitive_circ_idempotents(generated_double_algebra(a))
        assert len(atoms) == 3
        assert sum(atoms[1:], atoms[0]) == Matrix.ones(10)
        assert a in atoms  # the adjacency itself is an atom of an SRG

    # the elimination oracle's value-profile idempotents check their
    # input, so the differential tests cannot pass on a bad closure
    def test_requires_j(self):
        b = SubspaceBasis(2)
        b.add(Matrix.identity(2))
        with pytest.raises(ClosureError):
            profile_idempotents(b)

    def test_requires_hadamard_closed(self):
        b = SubspaceBasis(2)
        b.add(Matrix([[1, 2], [3, 4]]))
        b.add(Matrix.ones(2))
        with pytest.raises(ClosureError):
            profile_idempotents(b)

    def test_completeness_small_spaces(self, rng):
        # every 0/1 matrix of the algebra (oracle span) is a sum of the
        # atoms it covers
        for _ in range(8):
            a = random_zero_one_symmetric(rng, 3)
            atoms = primitive_circ_idempotents(generated_double_algebra(a))
            for m in oracle_closure(a).basis.rref_matrices():
                if m.is_zero_one() and not m.is_zero():
                    covered = [e for e in atoms if e.hadamard(m) == e]
                    assert sum(covered[1:], covered[0]) == m

class TestUniversalBasis:
    def test_two_member_family(self):
        fam = [
            complete_graph(2).adjacency_matrix(),
            Matrix.zero(2),
        ]
        basis = universal_basis(fam, [X, B_ONE])
        assert check_basis(basis) == []
        # on K2, I and J-I are separated; atoms evaluate consistently
        for m in range(2):
            vals = basis.nonzero_values_on(m)
            assert sum(vals[1:], vals[0]) == Matrix.ones(2)

    def test_reconstruction_identity(self, rng):
        # a = sum over its entry values of value * indicator
        for _ in range(10):
            n = rng.randint(2, 4)
            a = Matrix(
                [[rng.choice([0, 1, 2]) for _ in range(n)] for _ in range(n)]
            )
            lams = sorted(circ_spectrum(a))
            total = Matrix.zero(n)
            for lam in lams:
                ind = eval_dpoly(proj_poly(lams, lam), a)
                total = total + ind.scale(lam)
            assert total == a

    def test_atoms_evaluate_to_their_values(self):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(3)]
        basis = universal_basis(fam, [X, B_ONE])
        assert check_basis(basis) == []
        for e in basis.entries:
            for m, a in enumerate(fam):
                assert eval_dpoly(e.dpoly, a) == e.values[m]

    def test_covering_sum(self):
        # any generating polynomial's value is recovered from the atoms:
        # x(a) = sum over atoms of (constant value of x on that atom) * atom
        fam = [path_graph(3).adjacency_matrix()]
        basis = universal_basis(fam, [X, B_ONE])
        a = fam[0]
        total = Matrix.zero(3)
        for e in basis.entries:
            v = e.values[0]
            if v.is_zero():
                continue
            # x is constant on each atom
            vals = {
                Fraction(a.rows[i][j])
                for i in range(3)
                for j in range(3)
                if v.rows[i][j] == 1
            }
            assert len(vals) == 1
            total = total + v.scale(vals.pop())
        assert total == a

    def test_empty_family_rejected(self):
        with pytest.raises(IdempotentError):
            universal_basis([], [X])


class TestStrictify:
    """The oracle's strictification, which the involution closure of
    `natspec.idempotents` is tested against."""

    def test_removes_duplicates(self):
        fam = [path_graph(3).adjacency_matrix()]
        polys = [B_ONE, B_ONE, X]
        strict = strictify(polys, fam)
        vals = [eval_dpoly(p, fam[0]) for p in strict]
        assert vals[0] == Matrix.identity(3)
        assert vals[1].is_zero()
        assert vals[2] == fam[0]

    def test_preserves_totals(self, rng):
        fam = [random_zero_one_symmetric(rng, 3) for _ in range(2)]
        basis = universal_basis(fam, [X, B_ONE])
        polys = [e.dpoly for e in basis.entries]
        strict = strictify(polys, fam)
        for m, a in enumerate(fam):
            before = [eval_dpoly(p, a) for p in polys]
            after = [eval_dpoly(p, a) for p in strict]
            s1 = sum(before[1:], before[0])
            s2 = sum(after[1:], after[0])
            assert s1 == s2


class TestUniversalBasisFull:
    def test_matches_closure_oracle_n3(self):
        fams = [g.adjacency_matrix() for g in enumerate_graphs(3)]
        basis = universal_basis_full(fams)
        assert basis.stabilized
        assert check_basis(basis) == []
        for m, a in enumerate(fams):
            oracle = set(profile_idempotents(oracle_closure(a).basis))
            got = set(basis.nonzero_values_on(m))
            assert got == oracle

    def test_single_member_petersen(self):
        fam = [petersen_graph().adjacency_matrix()]
        basis = universal_basis_full(fam)
        vals = basis.nonzero_values_on(0)
        assert len(vals) == 3
        assert set(vals) == {
            Matrix.identity(10),
            fam[0],
            Matrix.ones(10) - Matrix.identity(10) - fam[0],
        }

    def test_dpolys_realize_values(self):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(2)]
        basis = universal_basis_full(fam)
        for e in basis.entries:
            for m, a in enumerate(fam):
                assert eval_dpoly(e.dpoly, a) == e.values[m]

    def test_class_split_across_members_only_stays_merged(self):
        # the zero matrix and K3 share the class of I, which the next
        # pass would split between the members only
        fam = [Matrix.zero(3), complete_graph(3).adjacency_matrix()]
        basis = universal_basis_full(fam)
        assert len(basis.entries) == 3
        assert basis.depth == 0
        assert basis.stabilized

    def test_atom_counts_and_depths(self):
        for n, atoms, depth in ((3, 11, 1), (4, 24, 1)):
            fam = [g.adjacency_matrix() for g in enumerate_graphs(n)]
            basis = universal_basis_full(fam)
            assert (len(basis.entries), basis.depth) == (atoms, depth)

    def test_matches_product_oracle(self, rng):
        fams = [[g.adjacency_matrix() for g in enumerate_graphs(n)] for n in range(1, 5)]
        fams += random_families(rng, 6)
        for fam in fams:
            assert (
                universal_basis_full(fam).to_json()
                == oracle_universal_basis_full(fam).to_json()
            )

    def test_json_round_trip(self):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(2)]
        basis = universal_basis_full(fam)
        back = IdempotentBasis.from_json(basis.to_json())
        assert back.family_size == basis.family_size
        for e1, e2 in zip(basis.entries, back.entries):
            assert e1.values == e2.values


class TestInvolutionClose:
    def test_symmetric_family_pairing(self):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(3)]
        closed = involution_close(universal_basis_full(fam), fam)
        assert closed.diagnostics == []
        assert closed.involution_pairing is not None
        pairing = closed.involution_pairing
        for i, e in enumerate(closed.entries):
            partner = closed.entries[pairing[i]]
            for v, w in zip(e.values, partner.values):
                assert v.transpose() == w
        assert all(pairing[pairing[i]] == i for i in range(len(pairing)))

    def test_still_a_universal_basis(self):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(3)]
        closed = involution_close(universal_basis_full(fam), fam)
        assert check_basis(closed) == []

    def test_not_closed_under_transpose_rejected(self):
        # the atoms of x*J on P3 are rows, whose transposes are columns
        fam = [path_graph(3).adjacency_matrix()]
        basis = universal_basis(fam, [parse("x*J")])
        with pytest.raises(IdempotentError):
            involution_close(basis, fam)

    def test_matches_strictification_oracle(self, rng):
        fams = [[g.adjacency_matrix() for g in enumerate_graphs(n)] for n in range(1, 5)]
        fams.append([graph6_parse(s).adjacency_matrix() for s in ("E\\Q?", "EZq?")])
        fams += random_families(rng, 20)
        for fam in fams:
            got = involution_close(universal_basis_full(fam), fam)
            want = oracle_involution_close(oracle_universal_basis_full(fam), fam)
            assert want.involution_pairing is not None
            assert got.to_json() == want.to_json()

    def test_asymmetric_rejected(self):
        m = Matrix([[0, 1], [0, 0]])
        basis = universal_basis([m], [X])
        with pytest.raises(IdempotentError):
            involution_close(basis, [m])
