"""Acceptance criteria: nine end-to-end checks, each reporting a single
PASS/FAIL summary line (printed in the terminal summary).

Each criterion accumulates violation messages and asserts that none
occurred, so a failure shows exactly which sub-check broke."""

import random
from fractions import Fraction

import pytest

from natspec.certify import (
    Certificate,
    Reconstruction,
    ReconstructionFailure,
    bes_certificate,
    reconstruct,
)
from natspec.closure import dimension_bounds_report, is_full
from natspec.dpoly import (
    B_ONE,
    X,
    classic_dpoly,
    distance_dpoly,
    distance_n_bound,
    eval_dpoly,
    random_dpoly,
)
from natspec.exact import Matrix, char_poly
from natspec.graphs import (
    bes_statistics,
    best_feasible_r,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derive_seed,
    distance_and_diameter,
    enumerate_graphs,
    petersen_graph,
    random_gnp_half,
    refute_isomorphism,
    rook_graph_4x4,
    shrikhande_graph,
)
from natspec.idempotents import (
    involution_close,
    universal_basis,
    universal_basis_full,
)
from natspec.spectra import (
    build_ds_dpoly,
    charpoly_from_traces,
    demerge,
    make_merge_plan,
    merge_matrices,
    merged_value,
    natural_spectrum,
    spectrum_of,
    traces_from_charpoly,
)

from closure_oracle import oracle_closure, profile_idempotents
from idempotents_oracle import check_basis, dense

# Threshold pinned by scripts/bes_pilot.py (fixed seed schedule, seed
# 55, trials 200/100/50): observed pass rate is 0 at every simulable
# size, so the pinned threshold is 0 and the frequency check is >=.
PINNED_BES_THRESHOLD = Fraction(0)
PILOT_SEED = 55
PILOT_SCHEDULE = ((64, 200), (256, 100), (1024, 50))

RESULTS = {}

CRITERIA = {
    1: "classic-matrix equivalence",
    2: "projection/idempotent laws",
    3: "universal basis oracle equivalence",
    4: "reconstruction",
    5: "determining-spectrum pipeline",
    6: "merge/demerge identity",
    7: "random-graph certificate",
    8: "dimension structure",
    9: "exact-arithmetic hygiene",
}


def record(k, problems, detail=""):
    status = "PASS" if not problems else "FAIL"
    RESULTS[k] = (status, detail if not problems else "; ".join(problems[:5]))
    assert not problems, "criterion %d: %s" % (k, problems[:10])


def all_graphs_up_to(nmax):
    out = []
    for n in range(1, nmax + 1):
        out.extend(enumerate_graphs(n))
    return out


def test_criterion_1_classic_matrix_equivalence():
    problems = []
    reps = all_graphs_up_to(6)
    if len(reps) != 208:
        problems.append("expected 208 representatives, got %d" % len(reps))
    for g in reps:
        a = g.adjacency_matrix()
        n = g.n
        i, j = Matrix.identity(n), Matrix.ones(n)
        deg = a.matmul(a).hadamard(i)
        direct = {
            "complement": j - i - a,
            "laplacian": deg - a,
            "signless_laplacian": deg + a,
        }
        for name, want in direct.items():
            if eval_dpoly(classic_dpoly(name), a) != want:
                problems.append("%s wrong on %r" % (name, g))
    checked = 0
    for g in all_graphs_up_to(5):
        if not g.is_connected():
            continue
        checked += 1
        a = g.adjacency_matrix()
        dist, _ = distance_and_diameter(g)
        p = distance_dpoly(g.n, distance_n_bound(g))
        if eval_dpoly(p, a) != dist:
            problems.append("distance wrong on %r" % g)
    record(
        1,
        problems,
        "208 representatives x 3 classics, %d connected distance matrices"
        % checked,
    )


def test_criterion_2_projection_idempotent_laws():
    problems = []
    runs = 0

    def check_run(family, polys, tag):
        nonlocal runs
        runs += 1
        basis = dense(universal_basis(family, polys))
        for msg in check_basis(basis):
            problems.append("%s: %s" % (tag, msg))
        # reconstruction: every generator is recovered from the atoms
        for p in polys:
            for m, a in enumerate(family):
                v = eval_dpoly(p, a)
                total = Matrix.zero(a.n)
                for e in basis.entries:
                    atom = e.values[m]
                    if atom.is_zero():
                        continue
                    consts = {
                        Fraction(v.rows[r][c])
                        for r in range(a.n)
                        for c in range(a.n)
                        if atom.rows[r][c] == 1
                    }
                    if len(consts) != 1:
                        problems.append(
                            "%s: generator not constant on an atom" % tag
                        )
                        break
                    total = total + atom.scale(consts.pop())
                if total != v:
                    problems.append("%s: reconstruction failed" % tag)

    for n in range(1, 5):
        fam = [g.adjacency_matrix() for g in enumerate_graphs(n)]
        check_run(fam, [X, B_ONE], "exhaustive n=%d" % n)

    rng = random.Random(20260823)
    for t in range(100):
        a = Matrix(
            [[rng.choice([0, 1, 2]) for _ in range(8)] for _ in range(8)]
        )
        check_run([a], [X], "random 8x8 #%d" % t)
    record(2, problems, "%d universal_basis runs" % runs)


def test_criterion_3_universal_basis_oracle():
    problems = []
    graphs = all_graphs_up_to(4)
    for g in graphs:
        a = g.adjacency_matrix()
        basis = universal_basis_full([a])
        # the atoms are the stable partition's cells
        got = set(dense(basis).nonzero_values_on(0))
        oracle = set(profile_idempotents(oracle_closure(a).basis))
        if got != oracle:
            problems.append("%r: atoms differ from closure oracle" % g)
        closed = dense(involution_close(basis, [a]))
        for msg in check_basis(closed):
            problems.append("%r: %s" % (g, msg))
        pairing = closed.involution_pairing
        for i, e in enumerate(closed.entries):
            partner = closed.entries[pairing[i]]
            if any(
                v.transpose() != w
                for v, w in zip(e.values, partner.values)
            ):
                problems.append("%r: transpose pairing wrong" % g)
    record(3, problems, "%d graphs vs closure oracle" % len(graphs))


def test_criterion_4_reconstruction():
    problems = []
    full_count = 0
    success_count = 0
    for g in all_graphs_up_to(5):
        out = reconstruct(g)
        full = oracle_closure(g.adjacency_matrix(), early_exit=True).full
        if full:
            full_count += 1
            if not (isinstance(out, Reconstruction) and out.matches):
                problems.append("full-dim graph failed to reconstruct: %r" % g)
        if isinstance(out, Reconstruction):
            success_count += 1
            if not out.matches or out.graph != g:
                problems.append("mismatched reconstruction: %r" % g)
            if sorted(out.vertex_map.values()) != list(range(g.n)):
                problems.append("vertex map not a bijection: %r" % g)
    # no n <= 5 graph is full-dimensional, so extend with a known full
    # 8-vertex sample to exercise the non-vacuous path
    g8 = random_gnp_half(8, derive_seed(7, 46))
    if not oracle_closure(g8.adjacency_matrix(), early_exit=True).full:
        problems.append("frozen 8-vertex sample no longer full-dimensional")
    out8 = reconstruct(g8)
    if not (isinstance(out8, Reconstruction) and out8.matches):
        problems.append("full 8-vertex sample failed to reconstruct")
    for g, tag in ((petersen_graph(), "petersen"), (complete_graph(2), "k2")):
        out = reconstruct(g)
        if not (isinstance(out, ReconstructionFailure) and out.v_a == 1):
            problems.append("%s should fail with |V_a| = 1" % tag)
    record(
        4,
        problems,
        "52 graphs (full-dimensional: %d, reconstructed: %d) + full n=8 sample"
        % (full_count, success_count),
    )


@pytest.mark.slow
def test_criterion_5_ds_pipeline():
    problems = []
    rng = random.Random(20260823)
    details = []
    for n, relabels in ((4, 10), (5, 1)):
        family = enumerate_graphs(n)
        bundle = build_ds_dpoly(family)
        basis = dense(bundle.basis)
        problems.extend("n=%d: %s" % (n, p) for p in check_basis(basis))
        pairing = basis.involution_pairing
        entries = basis.entries
        for m in range(len(family)):
            if any(
                e.values[m].transpose() != entries[pairing[k]].values[m]
                for k, e in enumerate(entries)
            ):
                problems.append(
                    "n=%d member %d: transpose pairing wrong" % (n, m)
                )
        specs = [
            spectrum_of(merged_value(bundle, m)) for m in range(len(family))
        ]
        full = list(bundle.full_members)
        collisions = [
            (i, j)
            for i in range(len(family))
            for j in range(i + 1, len(family))
            if specs[i] == specs[j]
        ]
        for i, j in collisions:
            if full[i] and full[j]:
                problems.append(
                    "n=%d: full members %d,%d share a spectrum" % (n, i, j)
                )
        details.append(
            "n=%d: %d graphs, %d full, %d collisions"
            % (n, len(family), sum(full), len(collisions))
        )
        # full expression evaluation on every member and on seeded
        # relabelings of each
        for m, g in enumerate(family):
            if eval_dpoly(bundle.p, g.adjacency_matrix()) != merged_value(
                bundle, m
            ):
                problems.append(
                    "n=%d member %d: p differs from the merged value" % (n, m)
                )
            for _ in range(relabels):
                perm = list(range(n))
                rng.shuffle(perm)
                s = natural_spectrum(bundle.p, g.relabel(perm))
                if s != specs[m]:
                    problems.append(
                        "n=%d member %d: relabeling changed spectrum"
                        % (n, m)
                    )
        details.append(
            "n=%d: p = merged value on every member, invariance on %d "
            "relabelings each" % (n, relabels)
        )
    record(5, problems, "; ".join(details))


def test_criterion_6_merge_demerge():
    problems = []
    plan2 = make_merge_plan(2, 1, 2)
    mats = [
        Matrix([[b0, b1], [b2, b3]])
        for b0 in (0, 1)
        for b1 in (0, 1)
        for b2 in (0, 1)
        for b3 in (0, 1)
    ]
    for a in mats:
        for b in mats:
            got = demerge(spectrum_of(merge_matrices([a, b], plan2)), plan2)
            if got != [spectrum_of(a), spectrum_of(b)]:
                problems.append("m=2 failed on %r, %r" % (a.rows, b.rows))
    rng = random.Random(20260823)
    for t in range(100):
        n = rng.randint(1, 10)
        m = rng.randint(1, 4)
        plan = make_merge_plan(m, 1, n)
        tup = [
            Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            for _ in range(m)
        ]
        got = demerge(spectrum_of(merge_matrices(tup, plan)), plan)
        if got != [spectrum_of(a) for a in tup]:
            problems.append("random tuple #%d failed (n=%d m=%d)" % (t, n, m))
    record(6, problems, "256 exhaustive m=2 cases + 100 random tuples")


@pytest.mark.slow
def test_criterion_7_random_graph_certificate():
    problems = []
    # (a) every certified sample is confirmed full-dimensional by
    # independent closure.  At simulable sizes the default rank never
    # certifies, so certificates use the best feasible rank (n = 8,
    # fixed seed schedule, scanned until 50 certificates).
    certified = 0
    confirmed = 0
    i = 0
    while certified < 50 and i < 40000:
        g = random_gnp_half(8, derive_seed(7, i))
        i += 1
        r = best_feasible_r(g)
        if r is None:
            continue
        cert = bes_certificate(g, r=r)
        if not isinstance(cert, Certificate):
            continue
        certified += 1
        if is_full(g.adjacency_matrix()):
            confirmed += 1
        else:
            problems.append("certified sample at seed index %d not full" % (i - 1))
    if certified < 50:
        problems.append("only %d certificates in %d trials" % (certified, i))
    # (b) default-rank pass frequency: non-decreasing across sizes and
    # at least the pilot-pinned threshold at the largest size
    rates = []
    for n, trials in PILOT_SCHEDULE:
        passes = 0
        for k in range(trials):
            g = random_gnp_half(n, derive_seed(PILOT_SEED, k))
            if bes_statistics(g).passed:
                passes += 1
        rates.append(Fraction(passes, trials))
    if any(a > b for a, b in zip(rates, rates[1:])):
        problems.append("pass frequency not non-decreasing: %s" % (rates,))
    if rates[-1] < PINNED_BES_THRESHOLD:
        problems.append(
            "rate %s at n=1024 below pinned threshold %s"
            % (rates[-1], PINNED_BES_THRESHOLD)
        )
    record(
        7,
        problems,
        "%d/%d certificates confirmed full (in %d trials); rates %s"
        % (confirmed, certified, i, [str(r) for r in rates]),
    )


def test_criterion_8_dimension_structure():
    problems = []
    connected = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not g.is_connected():
                continue
            connected += 1
            rep = dimension_bounds_report(g)
            if not rep.within_bounds:
                problems.append("bounds violated on %r" % g)
    for g, tag in ((petersen_graph(), "petersen"), (cycle_graph(5), "c5")):
        if dimension_bounds_report(g).dim != 3:
            problems.append("%s: dim != 3" % tag)
    drg = [cycle_graph(k) for k in range(4, 9)]
    drg += [petersen_graph(), complete_bipartite(3, 3)]
    for g in drg:
        rep = dimension_bounds_report(g)
        if rep.intersection_array is None:
            problems.append("DRG corpus member not distance-regular")
        elif rep.dim != rep.diameter + 1:
            problems.append("DRG member dim %d != diam+1" % rep.dim)
    s, r = shrikhande_graph(), rook_graph_4x4()
    rng = random.Random(20260823)
    a_s, a_r = s.adjacency_matrix(), r.adjacency_matrix()
    for t in range(100):
        p = random_dpoly(rng, rng.randint(0, 10))
        if spectrum_of(eval_dpoly(p, a_s)) != spectrum_of(eval_dpoly(p, a_r)):
            problems.append("shrikhande/rook separated by random dpoly #%d" % t)
    if refute_isomorphism(s, r) != "refuted":
        problems.append("shrikhande/rook clique refutation failed")
    record(
        8,
        problems,
        "%d connected graphs bounded; DRG corpus; 100 cospectral dpolys"
        % connected,
    )


def test_criterion_9_exact_hygiene():
    problems = []
    rng = random.Random(20260823)
    for t in range(100):
        n = rng.randint(1, 12)
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
        if charpoly_from_traces(traces_from_charpoly(s)) != s:
            problems.append("Newton round trip failed #%d" % t)

    # persisted artifacts contain no floating-point values
    import json

    from natspec.cli import main as cli_main
    from natspec.graphs import graph6_emit

    def no_floats(x, path):
        if isinstance(x, float):
            problems.append("float at %s" % path)
        elif isinstance(x, dict):
            for k, v in x.items():
                no_floats(v, "%s.%s" % (path, k))
        elif isinstance(x, list):
            for idx, v in enumerate(x):
                no_floats(v, "%s[%d]" % (path, idx))

    import tempfile
    import os

    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "c.g6")
        with open(corpus, "w") as fh:
            fh.write("\n".join(graph6_emit(g) for g in enumerate_graphs(3)))
        artifacts = {
            "analyze": ["analyze", graph6_emit(petersen_graph())],
            "spectrum": ["spectrum", "A_", "--poly", "(x*x).I - x"],
            "ds-build": ["ds-build", "--corpus", corpus],
            "experiment": [
                "experiment",
                "--mode",
                "bes_frequency",
                "--n",
                "16",
                "--trials",
                "5",
            ],
        }
        for name, args in artifacts.items():
            out = os.path.join(tmp, name + ".json")
            cli_main(args + ["--out", out])
            with open(out) as fh:
                data = json.load(fh)
            no_floats(data, name)
    record(9, problems, "100 Newton round trips; 4 artifacts scanned")
