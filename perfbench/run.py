#!/usr/bin/env python3
"""Benchmark of the natspec CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/natspec).  The
benchmark generates every input from --seed, then runs whole rounds of
the workload's operations, one at a time: at least one round, and no
round that would end past --seconds.

--trace 0: each operation is one `python3 -m natspec.cli ...` process,
as a user runs it.  Prints the end-to-end metrics.
--trace 1: the same operations in this process, each round once plain
and once with natspec's public functions wrapped by spans.Tracer.
Prints the per-layer metrics and the tracing overhead.

Every output is checked against perfbench/oracle.py, which does not
import natspec.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


class CheckError(Exception):
    """An output that disagrees with the reference."""


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def process_age() -> float:
    """Seconds since this process started (interpreter start included
    where /proc says when that was)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def parse_coeff(s: str) -> Fraction:
    """Parse a stored coefficient, which may exceed the default limit on
    int/str conversion digits.  The limit is restored at once, since an
    in-process run of the program must keep the default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(s)
    finally:
        sys.set_int_max_str_digits(old)


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# -- operations -----------------------------------------------------------

@dataclass
class Op:
    kind: str            # analyze | ds_family | ds_build | ds_check | certify
    label: str
    argv: List[str]      # arguments after `natspec`, ending in --out <path>
    out: Path
    expect_rc: int
    check: Callable[[dict], None]
    timed: bool = True   # feeds the timing and memory metrics
    fault: str = ""      # known program fault that makes this op fail
    trials: int = 0


@dataclass
class Outcome:
    op: Op
    wall: float
    rss_mb: float
    round: int
    error: str = ""      # empty when the op succeeded and checked out
    out_bytes: int = 0   # size of the operation's output file


def _report(op: Op) -> dict:
    need(op.out.is_file(), "no output file")
    return read_json(op.out)


def analyze_ops(seed: int, work: Path) -> List[Op]:
    """A fixed set of G(8, 1/2) graphs, full and not, in an order drawn
    from the seed.  The labels stay fixed: closure time depends on them."""
    base = []
    full = nonfull = 0
    k = 0
    while full < ANALYZE_FULL or nonfull < ANALYZE_NONFULL:
        rows = oracle.gnp_half_rows(8, oracle.derive_seed(ANALYZE_SET_SEED, k))
        k += 1
        dim = oracle.wl2_classes(rows)
        if dim == 64 and full < ANALYZE_FULL:
            full += 1
        elif dim <= ANALYZE_NONFULL_MAX_DIM and nonfull < ANALYZE_NONFULL:
            nonfull += 1
        else:
            continue
        base.append(rows)
    random.Random(seed).shuffle(base)
    ops = []
    for idx, rows in enumerate(base):
        g6 = oracle.graph6_encode(rows)
        classes = oracle.wl2_classes(rows)
        diam = oracle.diameter(rows)
        discrete = classes == 64
        out = work / ("analyze-%d.json" % idx)

        def check(rep, g6=g6, classes=classes, diam=diam, discrete=discrete):
            need(rep["graph6"] == g6, "graph6 echo differs")
            need(rep["dim"] == classes, "dim %s, oracle %d" % (rep["dim"], classes))
            need(rep["full"] == discrete, "full flag disagrees with the oracle")
            want_lb = None if diam is None else diam + 1
            need(rep["dim_lower_bound"] == want_lb,
                 "dim_lower_bound %s, BFS says %s" % (rep["dim_lower_bound"], want_lb))
            if discrete:
                need(rep.get("reconstruct") == "ok" and rep.get("reconstruct_matches") is True,
                     "reconstruction of a full graph failed")
            else:
                need("reconstruct_matches" not in rep, "reconstructed a non-full graph")

        ops.append(Op("analyze", "analyze %s (oracle dim %d)" % (g6, classes),
                      ["analyze", g6, "--out", str(out)], out,
                      0 if discrete else 1, check))
    return ops


def _write_corpus(path: Path, graphs: List[str]) -> None:
    path.write_text("".join(g + "\n" for g in graphs))


def _relabeled_corpus(rng: random.Random, graphs: List[str]) -> List[str]:
    out = []
    for g6 in graphs:
        rows = oracle.graph6_decode(g6)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        out.append(oracle.graph6_encode(oracle.relabel(rows, perm)))
    rng.shuffle(out)
    return out


def ds_family_ops(seed: int, work: Path) -> List[Op]:
    """The fixed 6-vertex corpus, and the exhaustive 4-vertex family with
    each member relabeled and the member order shuffled from the seed.
    The 6-vertex corpus keeps its labels and order: its determining
    polynomial's size swings by half with them."""
    corpora = [
        ("n6", list(FAMILY_N6)),
        ("n4", _relabeled_corpus(random.Random(seed), oracle.exhaustive_family(4))),
    ]
    ops = []
    for name, graphs in corpora:
        full = [oracle.wl2_classes(oracle.graph6_decode(g)) == (ord(g[0]) - 63) ** 2
                for g in graphs]
        corpus = work / ("family-%s.g6" % name)
        _write_corpus(corpus, graphs)
        out = work / ("family-%s.json" % name)

        def check(rep, graphs=graphs, full=full):
            need(rep["family_size"] == len(graphs), "family_size differs")
            need(rep["full_members"] == sum(full),
                 "full_members %s, oracle %d" % (rep["full_members"], sum(full)))
            need(rep["full_pairs_separated"] is True, "full pairs not separated")
            for i, j in rep["spectrum_collisions"]:
                need(not (full[i] or full[j]),
                     "collision %s-%s involves a full member" % (graphs[i], graphs[j]))
            need(rep["probe_count"] > 0, "no probes")

        ops.append(Op("ds_family",
                      "ds_family %s corpus (%d members, %d full)" % (name, len(graphs), sum(full)),
                      ["experiment", "--mode", "ds_family", "--corpus", str(corpus),
                       "--threads", "1", "--out", str(out)], out, 0, check))
    return ops


def ds_bundle_ops(seed: int, work: Path) -> List[Op]:
    """ds-build on the exhaustive 4-vertex family, ds-check of every
    member against a seeded relabeling of itself and of seeded pairs of
    distinct members, and the known-failing ds-build on E\\Q?."""
    family = oracle.exhaustive_family(4)
    corpus = work / "family4.g6"
    _write_corpus(corpus, family)
    bundle = work / "bundle4.json"
    cache: Dict[str, object] = {}

    def stored() -> Dict[str, object]:
        """Fingerprint and member spectra of this round's bundle."""
        need(bundle.is_file(), "no bundle from this round's ds-build")
        st = bundle.stat()
        key = (st.st_mtime_ns, st.st_size)
        if cache.get("key") != key:
            rep = read_json(bundle)
            cache.update(key=key, fingerprint=rep["fingerprint"],
                         spectra=[s["coeffs"] for s in rep["member_spectra"]])
        return cache

    def check_build(rep):
        need(rep["n"] == 4, "bundle n differs")
        need(rep["member_graph6"] == family, "member_graph6 differs from the corpus")
        need(rep["full_members"] == [False] * len(family),
             "full_members wrong: no 4-vertex graph is full")
        spectra = rep["member_spectra"]
        need(len(spectra) == len(family), "member_spectra count differs")
        for s in spectra:
            need(s["n"] == 4 and len(s["coeffs"]) == 5 and parse_coeff(s["coeffs"][0]) == 1,
                 "stored spectrum is not a monic quartic")

    ops = [Op("ds_build", "ds-build 4-vertex family (11 graphs)",
              ["ds-build", "--corpus", str(corpus), "--out", str(bundle)],
              bundle, 0, check_build)]

    rng = random.Random(seed)
    relabeled = [oracle.graph6_encode(oracle.relabel(oracle.graph6_decode(g),
                                                     rng.sample(range(4), 4)))
                 for g in family]
    pairs = [(i, i) for i in range(len(family))]
    while len(pairs) < len(family) + BUNDLE_DISTINCT_PAIRS:
        i, j = rng.sample(range(len(family)), 2)
        if (i, j) not in pairs:
            pairs.append((i, j))
    for k, (i, j) in enumerate(pairs):
        g1, g2 = family[i], relabeled[j]
        out = work / ("check-%d.json" % k)

        def check(rep, i=i, j=j):
            ref = stored()
            s = ref["spectra"]
            need(rep["fingerprint"] == ref["fingerprint"], "fingerprint differs")
            need(rep["spectrum1"]["coeffs"] == s[i], "spectrum1 differs from stored member spectrum")
            need(rep["spectrum2"]["coeffs"] == s[j], "spectrum2 differs from stored member spectrum")
            need(rep["isomorphic"] is (i == j), "isomorphic flag wrong")
            need(rep["consistent"] is True, "inconsistent verdict")
            want = "equal_spectrum" if s[i] == s[j] else "different_spectrum"
            need(rep["verdict"] == want, "verdict %s, stored spectra say %s" % (rep["verdict"], want))

        ops.append(Op("ds_check", "ds-check %s %s" % (g1, g2),
                      ["ds-check", "--bundle", str(bundle), g1, g2, "--out", str(out)],
                      out, 0, check))

    full_corpus = work / "full6.g6"
    _write_corpus(full_corpus, [FULL_N6])
    full_bundle = work / "bundle-full6.json"

    def check_full(rep):
        need(rep["member_graph6"] == [FULL_N6], "member_graph6 differs")
        need(rep["full_members"] == [True], "E\\Q? is full")
        coeffs = rep["member_spectra"][0]["coeffs"]
        need(len(coeffs) == 7 and all(parse_coeff(c) is not None for c in coeffs),
             "stored spectrum does not parse back")

    ops.append(Op("ds_build", "ds-build on the full 6-vertex graph %s" % FULL_N6,
                  ["ds-build", "--corpus", str(full_corpus), "--out", str(full_bundle)],
                  full_bundle, 0, check_full, timed=False,
                  fault="merged spectrum coefficients of a corpus with a full member "
                        "exceed Python's 4300-digit int/str limit in format_scalar "
                        "(Spectrum.to_json via cmd_ds_build)"))
    return ops


def certify_ops(seed: int, work: Path) -> List[Op]:
    """certify_and_confirm at n = 16 on a fixed set of experiment seeds,
    in an order drawn from the seed.  Each experiment seed is kept only
    if its trial range holds exactly one graph that passes the
    degree/signature test (recounted by the oracle).  The set stays
    fixed: is_full on one certified graph takes 1.5 times as long as on
    another."""
    ops = []
    j = 0
    while len(ops) < CERTIFY_OPS:
        exp_seed = oracle.derive_seed(CERTIFY_SET_SEED, j) >> 33
        j += 1
        hits = []
        for t in range(CERTIFY_TRIALS):
            if oracle.bes_passes(oracle.gnp_half_rows(CERTIFY_N, oracle.derive_seed(exp_seed, t))):
                hits.append(t)
                if len(hits) > 1:
                    break
        if len(hits) != 1:
            continue
        out = work / ("certify-%d.json" % len(ops))
        hit = hits[0]

        def check(rep, exp_seed=exp_seed, hit=hit):
            need(rep["trials"] == CERTIFY_TRIALS and rep["seed"] == exp_seed, "echoed run differs")
            need(rep["counterexamples"] == 0, "counterexamples reported")
            need(rep["certified"] == 1, "certified %s, recount 1" % rep["certified"])
            need(rep["full_dim_confirmed"] == rep["certified"], "full_dim_confirmed differs")
            rows = oracle.gnp_half_rows(CERTIFY_N, oracle.derive_seed(exp_seed, hit))
            need(oracle.wl2_classes(rows) == CERTIFY_N ** 2, "oracle: certified graph not full")

        ops.append(Op("certify",
                      "certify_and_confirm n=%d seed=%d trials=%d" % (CERTIFY_N, exp_seed, CERTIFY_TRIALS),
                      ["experiment", "--mode", "certify_and_confirm", "--n", str(CERTIFY_N),
                       "--trials", str(CERTIFY_TRIALS), "--seed", str(exp_seed),
                       "--threads", "1", "--out", str(out)],
                      out, 0, check, trials=CERTIFY_TRIALS))
    random.Random(seed).shuffle(ops)
    return ops


# Input make-up (see README.md for why each was chosen).
ANALYZE_SET_SEED = 8
ANALYZE_FULL = 1
ANALYZE_NONFULL = 4
# non-full graphs of dim <= 40 take 2-3 s each (dim 50 takes 6 s), so a
# round of one full graph holds four of them
ANALYZE_NONFULL_MAX_DIM = 40
FAMILY_N6 = ["E\\Q?", "EZq?"]
FULL_N6 = "E\\Q?"
BUNDLE_DISTINCT_PAIRS = 2
CERTIFY_SET_SEED = 16
CERTIFY_N = 16
CERTIFY_TRIALS = 2000
CERTIFY_OPS = 2

WORKLOADS = {
    "analyze-gnp8": analyze_ops,
    "ds-family-n6": ds_family_ops,
    "ds-bundle-n4": ds_bundle_ops,
    "certify-gnp16": certify_ops,
}


# -- running operations -----------------------------------------------------

def run_cli_process(argv: List[str], work: Path, env) -> tuple:
    """One `python3 -m natspec.cli` process: (exit code, wall s, peak RSS MB, stderr)."""
    errpath = work / "stderr.txt"
    with open(errpath, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "natspec.cli"] + argv,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=str(work))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, errpath.read_text(errors="replace")


def run_cli_inprocess(argv: List[str]) -> tuple:
    """natspec.cli.main in this process: (exit code, wall s, error text)."""
    from natspec import cli

    t = time.perf_counter()
    try:
        rc = cli.main(argv)
        msg = ""
    except SystemExit as e:  # argparse
        rc = e.code if isinstance(e.code, int) else 2
        msg = "SystemExit(%r)" % (e.code,)
    except Exception:  # a crash of the program is a failed operation
        rc = 1
        msg = traceback.format_exc()
    return rc, time.perf_counter() - t, msg


def judge(op: Op, rc: int, stderr: str) -> str:
    """Empty if the operation succeeded and its output checks out,
    else a one-line reason."""
    if rc != op.expect_rc:
        last = [ln for ln in stderr.strip().splitlines() if ln.strip()]
        return "exit %s, expected %d%s" % (rc, op.expect_rc,
                                           (": " + last[-1].strip()[:300]) if last else "")
    try:
        op.check(_report(op))
    except CheckError as e:
        return "wrong output: %s" % e
    except (KeyError, TypeError, ValueError) as e:
        return "malformed output: %r" % (e,)
    return ""


def run_round(ops: List[Op], work: Path, env, round_no: int,
              inprocess: bool = False, tracer: Optional[Tracer] = None) -> List[Outcome]:
    """Each operation once, in order.  With a tracer, the timed
    operations run traced; the known-failing one feeds no metric."""
    outcomes = []
    for op in ops:
        if op.out.exists():
            op.out.unlink()
        if not inprocess:
            rc, wall, rss, stderr = run_cli_process(op.argv, work, env)
        elif tracer is not None and op.timed:
            tracer.install()
            try:
                rc, wall, stderr = run_cli_inprocess(op.argv)
            finally:
                tracer.uninstall()
            rss = 0.0
        else:
            rc, wall, stderr = run_cli_inprocess(op.argv)
            rss = 0.0
        outcome = Outcome(op, wall, rss, round_no, judge(op, rc, stderr),
                          op.out.stat().st_size if op.out.exists() else 0)
        if outcome.error:
            note = " [known fault: %s]" % op.fault if op.fault else ""
            print("FAILED %s: %s%s" % (op.label, outcome.error, note), file=sys.stderr)
        else:
            print("ok %.3fs %s" % (wall, op.label), file=sys.stderr)
        outcomes.append(outcome)
    return outcomes


# -- metrics ----------------------------------------------------------------

def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(outcomes: List[Outcome], setup_s: float) -> Dict[str, dict]:
    """round_s sums each timed operation's fastest time in the run.  Other
    tenants of the host only ever slow an operation down, in phases of
    seconds to minutes, so the fastest repeat is the steadiest estimate of
    the program's own cost (README.md, "Host noise")."""
    good = [o for o in outcomes if o.op.timed and not o.error]
    fastest: Dict[str, float] = {}
    for o in good:
        fastest[o.op.label] = min(o.wall, fastest.get(o.op.label, o.wall))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "round_s": {"value": sum(fastest.values()), "unit": "s"},
        "peak_rss_mb": {"value": max((o.rss_mb for o in good), default=0.0), "unit": "MB"},
    }


# functions whose summed self time is a per-layer metric
SELF_TIME = [
    "closure.generated_double_algebra", "closure.dimension_bounds_report",
    "closure.is_full", "certify.reconstruct", "certify.bes_certificate",
    "idempotents.primitive_circ_idempotents", "idempotents.universal_basis_full",
    "idempotents.involution_close", "spectra.build_ds_dpoly", "spectra.merged_value",
    "spectra.natural_spectrum", "dpoly.involution", "dpoly.eval_dpoly",
    "dpoly.dpoly_to_json", "dpoly.dpoly_from_json", "exact.char_poly",
    "graphs.best_feasible_r", "graphs.are_isomorphic",
]
# counter -> (function it is read from, unit, summed per round or largest)
COUNTERS = {
    "closure.rounds": ("closure.generated_double_algebra", "count", "sum"),
    "idempotents.atoms": ("spectra.build_ds_dpoly", "count", "sum"),
    "spectra.probes": ("spectra.build_ds_dpoly", "count", "sum"),
    "dpoly.p_nodes": ("spectra.build_ds_dpoly", "count", "max"),
    "exact.char_poly.max_coeff_bits": ("exact.char_poly", "bits", "max"),
}


def per_layer(tracer, traced: List[Outcome], plain: List[Outcome], rounds: int,
              bundle_bytes: int) -> Dict[str, dict]:
    selfs = tracer.self_times()
    m: Dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in SELF_TIME:
        if tracer.has(name):
            put(name + ".s", selfs.get(name, 0.0) / rounds, "s")
    if tracer.has("closure.generated_double_algebra"):
        put("closure.generated_double_algebra.calls",
            tracer.call_counts().get("closure.generated_double_algebra", 0) / rounds, "count")
    for name, (source, unit, how) in COUNTERS.items():
        if tracer.has(source):
            value = tracer.counters.get(name, 0)
            put(name, value / rounds if how == "sum" else value, unit)
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer)
        put(layer + ".self_s", total / rounds, "s")

    ok = [o for o in plain if o.op.timed and not o.error]

    def op_median(kind):
        return _median([o.wall for o in ok if o.op.kind == kind])

    put("op.analyze_s", op_median("analyze"), "s")
    put("op.ds_family_s", op_median("ds_family"), "s")
    put("op.ds_build_s", op_median("ds_build"), "s")
    put("op.ds_check_s", op_median("ds_check"), "s")
    cert = [o for o in ok if o.op.kind == "certify"]
    cert_time = sum(o.wall for o in cert)
    put("op.certify_trials_per_s",
        sum(o.op.trials for o in cert) / cert_time if cert_time else 0.0, "trials/s")
    put("op.bundle_bytes", bundle_bytes, "bytes")
    put("trace.overhead_s", (sum(o.wall for o in traced if o.op.timed)
                             - sum(o.wall for o in plain if o.op.timed)) / rounds, "s")
    put("trace.spans", len(tracer.spans) / rounds, "count")
    return m


# -- main -------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops the CLI process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "natspec" / "cli.py").is_file():
        print("error: %s/natspec not found; run from a natspec source checkout" % SRC,
              file=sys.stderr)
        return 2

    # -- set-up: inputs, then one CLI start to see the program runs --------
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = OUT / ("work-" + tag)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, work)
        # str hashes, and so set order and the work done, follow
        # PYTHONHASHSEED; tie it to the seed so a run repeats its work
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONHASHSEED=str(args.seed % 2 ** 32))
        if args.trace:
            sys.path.insert(0, str(SRC))
            tracer = Tracer()
        else:
            rc, _, _, err = run_cli_process(["--help"], work, env)
            if rc != 0:
                print("error: natspec CLI does not start: %s" % err.strip()[-500:],
                      file=sys.stderr)
                return 2
        setup_s = process_age()
        oracle.self_test()

        # -- measured rounds ---------------------------------------------------
        plain: List[Outcome] = []
        traced: List[Outcome] = []
        # whole rounds, and no round that would end past --seconds
        rounds = 0
        longest = 0.0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start + longest <= args.seconds:
            t = time.perf_counter()
            if args.trace:
                plain += run_round(ops, work, env, rounds, inprocess=True)
                traced += run_round(ops, work, env, rounds, inprocess=True, tracer=tracer)
            else:
                plain += run_round(ops, work, env, rounds)
            longest = max(longest, time.perf_counter() - t)
            rounds += 1
        bundle = [o for o in plain if o.op.kind == "ds_build" and o.op.timed and not o.error]
        bundle_bytes = bundle[-1].out_bytes if bundle else 0

        outcomes = plain + traced
        failed = [o for o in outcomes if o.error]
        if args.trace:
            metrics = per_layer(tracer, traced, plain, rounds, bundle_bytes)
            tracer.dump(str(OUT / (tag + "-spans.jsonl")))
        else:
            metrics = end_to_end(plain, setup_s)
        result = {
            "correct": all(o.op.fault for o in failed),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": metrics,
        }
        record = dict(result, operations=[
            {"label": o.op.label, "round": o.round, "traced": i >= len(plain),
             "wall_s": o.wall, "rss_mb": o.rss_mb,
             "error": o.error}
            for i, o in enumerate(outcomes)])
        (OUT / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
