"""Command-line interface.

Subcommands: analyze (single-graph algebra report), spectrum (natural
spectrum of a polynomial on a graph), ds-build / ds-check (determining
spectrum pipeline over a graph6 corpus), experiment (seeded Monte-Carlo
runs).  All reports are JSON with exact rationals rendered as strings;
identical inputs and seeds produce byte-identical reports.

Exit codes: 0 success, 1 domain failure (e.g. reconstruction failed),
2 input error (3 for a polynomial parse error in `spectrum`, so graph
and polynomial problems are distinguishable).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from . import __version__
from .graphs import (
    Graph,
    GraphError,
    best_feasible_r,
    bes_statistics,
    derive_seed,
    graph6_emit,
    graph6_parse,
    random_gnp_half,
    are_isomorphic,
)

# Each command imports the layers it runs, so a process loads only
# what its subcommand needs.
if TYPE_CHECKING:
    from .spectra import DsBundle, Spectrum


EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_POLY = 3


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(msg: str, code: int) -> int:
    sys.stderr.write("error: %s\n" % msg)
    return code


def _frac(num: int, den: int) -> str:
    if den == 0:
        return "0"
    f = Fraction(num, den)
    return "%d/%d" % (f.numerator, f.denominator)


# -- analyze -----------------------------------------------------------

def cmd_analyze(args) -> int:
    from .certify import Reconstruction, reconstruct
    from .closure import dimension_bounds_report

    try:
        g = graph6_parse(args.graph)
    except GraphError as e:
        return _fail("bad graph6: %s" % e, EXIT_INPUT)
    rep = dimension_bounds_report(g)
    rec = reconstruct(g)
    report = {
        "version": __version__,
        "graph6": graph6_emit(g),
        "n": g.n,
        "dim": rep.dim,
        "full": rep.dim == g.n * g.n,
        "diameter": rep.diameter,
        "dim_lower_bound": rep.lower,
        "dim_upper_bound": rep.upper,
        "within_bounds": rep.within_bounds,
        "lower_bound_tight": rep.lower is not None and rep.dim == rep.lower,
        "srg_parameters": list(rep.srg_parameters)
        if rep.srg_parameters
        else None,
        "intersection_array": [list(x) for x in rep.intersection_array]
        if rep.intersection_array
        else None,
    }
    if isinstance(rec, Reconstruction):
        report["reconstruct"] = "ok"
        report["reconstruct_matches"] = rec.matches
        ok = rec.matches
    else:
        report["reconstruct"] = "failed |V_a|=%d" % rec.v_a
        ok = False
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_DOMAIN


# -- spectrum ----------------------------------------------------------

def cmd_spectrum(args) -> int:
    from .dpoly import ParseError, parse
    from .spectra import natural_spectrum

    try:
        g = graph6_parse(args.graph)
    except GraphError as e:
        return _fail("bad graph6: %s" % e, EXIT_INPUT)
    try:
        p = parse(args.poly)
    except ParseError as e:
        return _fail("bad polynomial: %s" % e, EXIT_POLY)
    s = natural_spectrum(p, g)
    report = {
        "version": __version__,
        "graph6": graph6_emit(g),
        "poly": args.poly,
        "spectrum": s.to_json(),
    }
    _emit(report, args.out)
    return EXIT_OK


# -- ds-build / ds-check ----------------------------------------------

def _read_corpus(path: str) -> List[Graph]:
    graphs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(graph6_parse(line))
    return graphs


def _ds_stats(bundle: DsBundle, specs: List[Spectrum]) -> dict:
    """Deterministic counters of a determining-spectrum build: atoms,
    probes, distinct subterms of p, and the largest bit length of a
    merged characteristic-polynomial coefficient."""
    from .dpoly import node_count

    bits = [
        max(abs(f.numerator).bit_length(), f.denominator.bit_length())
        for s in specs
        for f in map(Fraction, s.coeffs)
    ]
    return {
        "atoms": len(bundle.basis.entries),
        "probes": len(bundle.probes),
        "p_nodes": node_count(bundle.p),
        "max_coeff_bits": max(bits, default=0),
    }


def _member_spectra(bundle: DsBundle, family: List[Graph]) -> List[Spectrum]:
    from .spectra import merged_value, spectrum_of

    return [spectrum_of(merged_value(bundle, i)) for i in range(len(family))]


def _bundle_to_json(bundle: DsBundle, family: List[Graph]) -> dict:
    from .dpoly import Sum, dpoly_to_json, subterm_indices

    # per-member spectra, so ds-check does not recompute the family
    specs = _member_spectra(bundle, family)
    basis = bundle.basis
    atoms = Sum(basis.entries)
    return {
        "version": __version__,
        "n": bundle.n,
        "fingerprint": bundle.fingerprint,
        "plan": bundle.plan.to_json(),
        "p_dag": dpoly_to_json(bundle.p),
        # every probe is a node of p: stored as its index in p_dag
        "probes": subterm_indices(bundle.p, bundle.probes),
        # the family partition: atoms share one node list, and colour k
        # of a member's colours is atom k
        "basis": {
            "nodes": dpoly_to_json(atoms)["nodes"],
            "entries": subterm_indices(atoms, basis.entries),
            "colours": basis.colours,
            "involution_pairing": basis.involution_pairing,
            "depth": basis.depth,
        },
        "full_members": list(bundle.full_members),
        "member_graph6": [graph6_emit(g) for g in family],
        "member_spectra": [s.to_json() for s in specs],
        "stats": _ds_stats(bundle, specs),
    }


def cmd_ds_build(args) -> int:
    from .spectra import SpectrumError, build_ds_dpoly

    try:
        family = _read_corpus(args.corpus)
    except (OSError, GraphError) as e:
        return _fail(str(e), EXIT_INPUT)
    try:
        bundle = build_ds_dpoly(family)
    except SpectrumError as e:
        return _fail(str(e), EXIT_INPUT)
    _emit(_bundle_to_json(bundle, family), args.out)
    return EXIT_OK


def cmd_ds_check(args) -> int:
    from .dpoly import dpoly_from_json
    from .spectra import natural_spectrum

    try:
        with open(args.bundle) as fh:
            data = json.load(fh)
        g1 = graph6_parse(args.graph1)
        g2 = graph6_parse(args.graph2)
        n, fingerprint = data["n"], data["fingerprint"]
        p = dpoly_from_json(data["p_dag"])
    except (KeyError, IndexError, TypeError) as e:
        return _fail("malformed bundle: %r" % e, EXIT_INPUT)
    except (OSError, ValueError, GraphError) as e:
        return _fail(str(e), EXIT_INPUT)
    if args.fingerprint and args.fingerprint != fingerprint:
        return _fail("bundle fingerprint mismatch", EXIT_INPUT)
    if g1.n != n or g2.n != n:
        return _fail("graph size does not match the bundle", EXIT_INPUT)
    s1 = natural_spectrum(p, g1)
    s2 = natural_spectrum(p, g2)
    verdict = "equal_spectrum" if s1 == s2 else "different_spectrum"
    report = {
        "version": __version__,
        "fingerprint": fingerprint,
        "verdict": verdict,
        "spectrum1": s1.to_json(),
        "spectrum2": s2.to_json(),
    }
    if g1.n <= 8:
        iso = are_isomorphic(g1, g2)
        report["isomorphic"] = iso
        report["consistent"] = not (iso and verdict == "different_spectrum")
    _emit(report, args.out)
    return EXIT_OK


# -- experiment --------------------------------------------------------

def _bes_trial(task) -> bool:
    n, seed, i = task
    g = random_gnp_half(n, derive_seed(seed, i))
    return bes_statistics(g).passed


def _certify_trial(task):
    n, seed, i = task
    g = random_gnp_half(n, derive_seed(seed, i))
    r = best_feasible_r(g)
    if r is None:
        return ("uncertified", None)
    # imported here, past the cheap test that rejects most graphs
    from .certify import Certificate, bes_certificate
    from .closure import is_full

    cert = bes_certificate(g, r=r)
    if not isinstance(cert, Certificate):
        return ("uncertified", None)
    return ("certified", bool(is_full(g.adjacency_matrix())))


def _map_trials(fn, tasks, threads: int):
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks, chunksize=8))
    return [fn(t) for t in tasks]


def run_experiment(args) -> dict:
    """The report of one `experiment` run, from its parsed arguments."""
    if args.threads < 1:
        raise ValueError("threads must be >= 1")
    report = {"version": __version__, "mode": args.mode}
    if args.mode != "ds_family":
        if args.trials < 1:
            raise ValueError("trials must be >= 1")
        report.update(n=args.n, trials=args.trials, seed=args.seed)
    tasks = [(args.n, args.seed, i) for i in range(args.trials)]
    if args.mode == "bes_frequency":
        results = _map_trials(_bes_trial, tasks, args.threads)
        passes = sum(results)
        report["bes_pass_count"] = passes
        report["bes_pass_rate"] = _frac(passes, args.trials)
    elif args.mode == "certify_and_confirm":
        results = _map_trials(_certify_trial, tasks, args.threads)
        certified = [r for r in results if r[0] == "certified"]
        confirmed = [r for r in certified if r[1]]
        report["certified"] = len(certified)
        report["certified_rate"] = _frac(len(certified), args.trials)
        report["full_dim_confirmed"] = len(confirmed)
        report["counterexamples"] = len(certified) - len(confirmed)
    elif args.mode == "ds_family":
        if not args.corpus:
            raise ValueError("ds_family mode needs --corpus")
        from .spectra import build_ds_dpoly

        family = _read_corpus(args.corpus)
        bundle = build_ds_dpoly(family)
        specs = _member_spectra(bundle, family)
        full = bundle.full_members
        collisions = [
            [i, j]
            for i in range(len(family))
            for j in range(i + 1, len(family))
            if specs[i] == specs[j]
        ]
        report["n"] = bundle.n
        report["family_size"] = len(family)
        report["fingerprint"] = bundle.fingerprint
        report["probe_count"] = len(bundle.probes)
        report["full_members"] = sum(full)
        report["spectrum_collisions"] = collisions
        report["full_pairs_separated"] = not any(
            full[i] and full[j] for i, j in collisions
        )
        report["stats"] = _ds_stats(bundle, specs)
    else:
        raise ValueError("unknown mode %r" % args.mode)
    return report


def cmd_experiment(args) -> int:
    try:
        report = run_experiment(args)
    except (OSError, ValueError) as e:
        return _fail(str(e), EXIT_INPUT)
    _emit(report, args.out)
    return EXIT_OK


# -- entry point -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="natspec",
        description="Exact double-algebra computations on graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="algebra report for one graph")
    p.add_argument("graph", help="graph6 string")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("spectrum", help="natural spectrum of a polynomial")
    p.add_argument("graph", help="graph6 string")
    p.add_argument("--poly", required=True, help="double polynomial text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("ds-build", help="build the determining spectrum")
    p.add_argument("--corpus", required=True, help="newline-delimited graph6")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ds_build)

    p = sub.add_parser("ds-check", help="compare two graphs under a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--fingerprint", help="expected family fingerprint")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ds_check)

    p = sub.add_parser("experiment", help="seeded Monte-Carlo experiment")
    p.add_argument(
        "--mode",
        required=True,
        choices=["bes_frequency", "certify_and_confirm", "ds_family"],
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_experiment)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
