"""Full-dimension certificates and graph reconstruction."""

import pytest

from natspec.certify import (
    Certificate,
    CertificateFailure,
    Reconstruction,
    ReconstructionFailure,
    bes_certificate,
    certificate_dpolys,
    reconstruct,
)
from natspec.closure import generated_double_algebra
from natspec.dpoly import eval_dpoly
from natspec.exact import Matrix
from natspec.graphs import (
    best_feasible_r,
    complete_graph,
    derive_seed,
    path_graph,
    petersen_graph,
    random_gnp_half,
)


def certified_sample():
    """A fixed random 8-vertex graph known to certify at r = 3."""
    g = random_gnp_half(8, derive_seed(7, 46))
    cert = bes_certificate(g, r=best_feasible_r(g))
    assert isinstance(cert, Certificate)
    return g, cert


class TestBesCertificate:
    def test_regular_graph_degree_collision(self):
        out = bes_certificate(complete_graph(6))
        assert isinstance(out, CertificateFailure)
        assert out.reason == "degree_collision"

    def test_certified_sample_units(self):
        g, cert = certified_sample()
        n = g.n
        assert len(cert.diag_units) == n
        total = Matrix.zero(n)
        for i, u in enumerate(cert.diag_units):
            assert u.is_zero_one()
            # diagonal matrix unit e_ii in the sorted order
            expect = Matrix(
                [
                    [1 if r == c == i else 0 for c in range(n)]
                    for r in range(n)
                ]
            )
            assert u == expect
            total = total + u
        assert total == Matrix.identity(n)

    def test_certified_sample_is_full(self):
        g, _ = certified_sample()
        assert generated_double_algebra(g.adjacency_matrix()).full

    def test_units_span_full_with_j_sandwich(self):
        # b_s * J * b_t ranges over all matrix units -> dimension n^2
        g, cert = certified_sample()
        from closure_oracle import SubspaceBasis

        n = g.n
        span = SubspaceBasis(n)
        j = Matrix.ones(n)
        for bs in cert.diag_units:
            for bt in cert.diag_units:
                span.add(bs.matmul(j).matmul(bt))
        assert span.dim == n * n

    def test_certificate_dpolys_evaluate_to_units(self):
        g, cert = certified_sample()
        from natspec.certify import _sorted_adjacency

        a = _sorted_adjacency(g, cert.order)
        polys = certificate_dpolys(g, cert)
        assert len(polys) == g.n
        for p, u in zip(polys, cert.diag_units):
            assert eval_dpoly(p, a) == u

    def test_trace_is_reported(self):
        _, cert = certified_sample()
        assert len(cert.trace) >= cert.r


class TestReconstruction:
    def test_petersen_fails_with_single_diagonal_idempotent(self):
        out = reconstruct(petersen_graph())
        assert isinstance(out, ReconstructionFailure)
        assert out.v_a == 1

    def test_k2_fails(self):
        out = reconstruct(complete_graph(2))
        assert isinstance(out, ReconstructionFailure)
        assert out.v_a == 1

    def test_full_dimensional_sample_reconstructs(self):
        g, _ = certified_sample()
        out = reconstruct(g)
        assert isinstance(out, Reconstruction)
        assert out.matches and out.graph == g
        # the vertex map is a bijection
        assert sorted(out.vertex_map.values()) == list(range(g.n))

    def test_path_graph_partial_structure(self):
        # P4 is not full-dimensional; either all diagonal units are
        # present (then reconstruction must match) or it fails honestly
        out = reconstruct(path_graph(4))
        if isinstance(out, Reconstruction):
            assert out.matches
        else:
            assert out.v_a < 4
