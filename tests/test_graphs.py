"""Graph model, graph6, enumeration, statistics."""

import pytest

from natspec.exact import Matrix
from natspec.graphs import (
    Graph,
    GraphError,
    are_isomorphic,
    bes_statistics,
    best_feasible_r,
    complete_graph,
    cycle_graph,
    derive_seed,
    distance_and_diameter,
    empty_graph,
    enumerate_graphs,
    graph6_emit,
    graph6_parse,
    intersection_array,
    path_graph,
    petersen_graph,
    random_gnp_half,
    refute_isomorphism,
    rook_graph_4x4,
    shrikhande_graph,
    spec_r,
    srg_parameters,
    triangle_count,
)

from graphs_oracle import oracle_best_feasible_r


class TestGraphModel:
    def test_adjacency_round_trip(self):
        g = petersen_graph()
        assert Graph.from_adjacency_matrix(g.adjacency_matrix()) == g

    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_relabel_preserves_structure(self, rng):
        g = petersen_graph()
        perm = list(range(10))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert h.num_edges() == g.num_edges()
        assert sorted(h.degrees()) == sorted(g.degrees())
        k = cycle_graph(6)
        perm6 = list(range(6))
        rng.shuffle(perm6)
        assert are_isomorphic(k.relabel(perm6), k)

    def test_connectivity(self):
        assert path_graph(5).is_connected()
        assert not empty_graph(3).is_connected()


class TestGraph6:
    def test_k2(self):
        assert graph6_emit(complete_graph(2)) == "A_"
        assert graph6_parse("A_") == complete_graph(2)

    def test_empty_two(self):
        assert graph6_parse("A?") == empty_graph(2)
        assert graph6_emit(empty_graph(2)) == "A?"

    def test_round_trip_enumerated(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert graph6_parse(graph6_emit(g)) == g

    def test_malformed(self):
        with pytest.raises(GraphError):
            graph6_parse("")
        with pytest.raises(GraphError):
            graph6_parse("A")  # truncated body
        with pytest.raises(GraphError):
            graph6_parse("A\x01")


class TestRandomGraphs:
    def test_deterministic(self):
        assert random_gnp_half(12, 99) == random_gnp_half(12, 99)

    def test_different_seeds_differ(self):
        collisions = sum(
            random_gnp_half(12, s) == random_gnp_half(12, s + 1)
            for s in range(40)
        )
        assert collisions == 0

    def test_edge_frequency(self):
        total = 0
        possible = 0
        for s in range(1000):
            g = random_gnp_half(10, derive_seed(3, s))
            total += g.num_edges()
            possible += 45
        assert 0.45 <= total / possible <= 0.55

    def test_derive_seed_splits(self):
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(1, 2) != derive_seed(2, 2)
        assert derive_seed(1, 2) == derive_seed(1, 2)


class TestDistances:
    def test_complete(self):
        dist, diam = distance_and_diameter(complete_graph(5))
        assert diam == 1
        assert dist == Matrix.ones(5) - Matrix.identity(5)

    def test_p3(self):
        dist, diam = distance_and_diameter(path_graph(3))
        assert diam == 2
        assert dist == Matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            distance_and_diameter(empty_graph(2))


class TestRegularity:
    def test_c5_srg(self):
        assert srg_parameters(cycle_graph(5)) == (5, 2, 0, 1)

    def test_petersen(self):
        assert srg_parameters(petersen_graph()) == (10, 3, 0, 1)
        assert intersection_array(petersen_graph()) == ((3, 2), (1, 1))

    def test_path_not_regular(self):
        assert srg_parameters(path_graph(4)) is None

    def test_complete_excluded(self):
        assert srg_parameters(complete_graph(4)) is None

    def test_cycles_are_distance_regular(self):
        for n in range(4, 9):
            assert intersection_array(cycle_graph(n)) is not None


class TestEnumeration:
    def test_class_counts(self):
        assert len(enumerate_graphs(3)) == 4
        assert len(enumerate_graphs(4)) == 11
        assert len(enumerate_graphs(5)) == 34
        assert len(enumerate_graphs(6)) == 156

    def test_pairwise_non_isomorphic_n4(self):
        gs = enumerate_graphs(4)
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert not are_isomorphic(gs[i], gs[j])

    def test_too_large(self):
        with pytest.raises(GraphError):
            enumerate_graphs(7)


class TestIsomorphism:
    def test_relabeling_detected(self, rng):
        for _ in range(10):
            g = random_gnp_half(6, rng.randrange(2**32))
            perm = list(range(6))
            rng.shuffle(perm)
            assert are_isomorphic(g, g.relabel(perm))

    def test_k3_vs_p3(self):
        assert not are_isomorphic(complete_graph(3), path_graph(3))

    def test_shrikhande_vs_rook_refuted_by_cliques(self):
        verdict = refute_isomorphism(shrikhande_graph(), rook_graph_4x4())
        assert verdict == "refuted"

    def test_shrikhande_rook_share_srg_parameters(self):
        assert srg_parameters(shrikhande_graph()) == srg_parameters(
            rook_graph_4x4()
        ) == (16, 6, 2, 2)

    def test_triangle_count(self):
        assert triangle_count(complete_graph(4)) == 4
        assert triangle_count(cycle_graph(5)) == 0


class TestBes:
    def test_spec_r_truncation(self):
        assert spec_r(4) == 3  # floor(3 log2 4) = 6, truncated to n-1
        assert spec_r(16) == 12

    def test_complete_graph_degree_collision(self):
        rep = bes_statistics(complete_graph(6))
        assert not rep.top_degrees_distinct
        assert not rep.passed

    def test_report_fields(self):
        g = random_gnp_half(16, 5)
        rep = bes_statistics(g)
        assert rep.r == spec_r(16)
        assert list(rep.degrees_sorted) == sorted(g.degrees(), reverse=True)
        assert all(len(w) == rep.r for w in rep.signature_rows)

    def test_best_feasible_r_prefix_strict(self):
        g = random_gnp_half(8, 77)
        r = best_feasible_r(g)
        if r is not None:
            degs = sorted(g.degrees(), reverse=True)
            assert all(degs[i] > degs[i + 1] for i in range(r))

    def test_best_feasible_r_matches_descending_search(self):
        # one test at the degree prefix against trying every r below it
        found = 0
        for n in range(6, 17):
            for i in range(500):
                g = random_gnp_half(n, derive_seed(n, i))
                r = best_feasible_r(g)
                assert r == oracle_best_feasible_r(g), (n, i)
                found += r is not None
        assert found == 8
