"""Spectra, Newton identities, merge plans, determining pipeline."""

import random
from fractions import Fraction

import pytest

from natspec.dpoly import X, classic_dpoly, parse, random_dpoly
from natspec.exact import Matrix
from natspec.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    graph6_parse,
    path_graph,
)
from natspec.closure import is_full
from natspec.spectra import (
    MergePlan,
    Spectrum,
    SpectrumError,
    build_ds_dpoly,
    charpoly_from_traces,
    demerge,
    ds_compare,
    family_fingerprint,
    make_merge_plan,
    merge_matrices,
    merged_value,
    natural_spectrum,
    spectrum_of,
    strong_spectrum_restricted,
    traces_from_charpoly,
)

from conftest import random_zero_one_symmetric


class TestSpectrum:
    def test_k2_adjacency(self):
        s = natural_spectrum(X, complete_graph(2))
        assert s == Spectrum(2, (1, 0, -1))  # t^2 - 1

    def test_all_ones(self):
        # J on the empty 3-graph: t^2 (t - 3)
        s = natural_spectrum(parse("J"), empty_graph(3))
        assert s == Spectrum(3, (1, -3, 0, 0))

    def test_laplacian_k2(self):
        s = natural_spectrum(classic_dpoly("laplacian"), complete_graph(2))
        assert s == Spectrum(2, (1, -2, 0))  # t(t - 2)

    def test_monic_enforced(self):
        with pytest.raises(SpectrumError):
            Spectrum(2, (2, 0, 0))
        with pytest.raises(SpectrumError):
            Spectrum(2, (1, 0))

    def test_json_round_trip(self):
        s = Spectrum(2, (1, Fraction(-1, 3), 2))
        assert Spectrum.from_json(s.to_json()) == s

    def test_strong_spectrum_restricted(self):
        polys = [X, classic_dpoly("laplacian")]
        out = strong_spectrum_restricted(complete_graph(2), polys)
        assert out[X] == Spectrum(2, (1, 0, -1))


class TestNewton:
    def test_round_trip_random_rational(self, rng):
        for _ in range(30):
            n = rng.randint(1, 6)
            a = Matrix(
                [
                    [
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            s = spectrum_of(a)
            assert charpoly_from_traces(traces_from_charpoly(s)) == s

    def test_traces_match_power_traces(self, rng):
        a = random_zero_one_symmetric(rng, 4)
        from natspec.exact import trace_powers

        assert [Fraction(t) for t in traces_from_charpoly(spectrum_of(a))] == [
            Fraction(t) for t in trace_powers(a, 4)
        ]


class TestMergePlans:
    def test_m1(self):
        plan = make_merge_plan(1, 1, 2)
        assert plan.weights == (1,)
        a = Matrix([[0, 1], [1, 0]])
        merged = merge_matrices([a], plan)
        assert demerge(spectrum_of(merged), plan) == [spectrum_of(a)]

    def test_m2_weights(self):
        plan = make_merge_plan(2, 1, 2)
        assert plan.z == 17  # 2*2*(2*1)^2 + 1
        assert plan.weights == (1, 17)
        assert plan.demergeable

    def test_m2_exhaustive_2x2(self):
        plan = make_merge_plan(2, 1, 2)
        mats = [
            Matrix([[b0, b1], [b2, b3]])
            for b0 in (0, 1)
            for b1 in (0, 1)
            for b2 in (0, 1)
            for b3 in (0, 1)
        ]
        for a in mats[:6]:
            for b in mats:
                merged = merge_matrices([a, b], plan)
                got = demerge(spectrum_of(merged), plan)
                assert got == [spectrum_of(a), spectrum_of(b)]

    def test_digit_scheme_m3(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            m = rng.randint(3, 4)
            plan = make_merge_plan(m, 1, n)
            assert plan.scheme == "digit"
            mats = [random_zero_one_symmetric(rng, n) for _ in range(m)]
            merged = merge_matrices(mats, plan)
            assert demerge(spectrum_of(merged), plan) == [
                spectrum_of(a) for a in mats
            ]

    def test_geometric_not_demergeable(self):
        plan = make_merge_plan(3, 1, 2, compact=True)
        assert not plan.demergeable
        a = Matrix.zero(2)
        with pytest.raises(SpectrumError):
            demerge(spectrum_of(merge_matrices([a, a, a], plan)), plan)

    def test_bad_parameters(self):
        with pytest.raises(SpectrumError):
            make_merge_plan(0, 1, 2)
        with pytest.raises(SpectrumError):
            merge_matrices([Matrix.zero(2)], make_merge_plan(2, 1, 2))

    def test_json_round_trip(self):
        plan = make_merge_plan(4, 1, 3)
        back = MergePlan.from_json(plan.to_json())
        assert back == plan

    def test_json_renders_long_weights(self):
        # weights past CPython's default 4300-digit int/str limit
        z = 10**2500 + 1
        plan = MergePlan(3, 1, 1, z, (1, z, z * z), "geometric", (0, 1, 2))
        data = plan.to_json()
        assert data["z"] == "1" + "0" * 2499 + "1"
        assert len(data["weights"][2]) == 5001


class TestDsPipeline:
    def test_small_family_bundle(self):
        fam = enumerate_graphs(3)
        bundle = build_ds_dpoly(fam)
        assert bundle.fingerprint == family_fingerprint(fam)
        # stored probe values reproduce the DAG evaluation
        for m, g in enumerate(fam):
            from natspec.dpoly import eval_dpoly

            assert merged_value(bundle, m) == eval_dpoly(
                bundle.p, g.adjacency_matrix()
            )

    def test_separates_all_three_vertex_graphs(self):
        fam = enumerate_graphs(3)
        bundle = build_ds_dpoly(fam)
        spectra = [spectrum_of(merged_value(bundle, m)) for m in range(len(fam))]
        assert len(set(spectra)) == len(fam)

    def test_relabel_invariance(self, rng):
        fam = enumerate_graphs(3)
        bundle = build_ds_dpoly(fam)
        for m, g in enumerate(fam):
            perm = list(range(3))
            rng.shuffle(perm)
            assert natural_spectrum(bundle.p, g.relabel(perm)) == spectrum_of(
                merged_value(bundle, m)
            )

    def test_ds_compare(self):
        fam = enumerate_graphs(3)
        bundle = build_ds_dpoly(fam)
        assert (
            ds_compare(complete_graph(3), path_graph(3), bundle.p)
            == "different_spectrum"
        )
        perm = [2, 0, 1]
        assert (
            ds_compare(path_graph(3), path_graph(3).relabel(perm), bundle.p)
            == "equal_spectrum"
        )

    def test_full_members_read_from_the_family_partition(self):
        # two full 6-vertex graphs and the non-full 6-cycle
        fam = [graph6_parse(s) for s in ("E\\Q?", "EZq?")] + [cycle_graph(6)]
        bundle = build_ds_dpoly(fam)
        assert bundle.full_members == [
            is_full(g.adjacency_matrix()) for g in fam
        ]
        assert bundle.full_members == [True, True, False]

    def test_fingerprint_order_independent(self):
        fam = enumerate_graphs(3)
        assert family_fingerprint(fam) == family_fingerprint(fam[::-1])
