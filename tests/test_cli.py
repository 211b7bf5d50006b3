"""Command-line interface: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import natspec
from natspec.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, EXIT_POLY, main
from natspec.dpoly import dpoly_from_json, dpoly_to_json
from natspec.graphs import enumerate_graphs, graph6_emit, petersen_graph
from natspec.spectra import build_ds_dpoly


PETERSEN = graph6_emit(petersen_graph())


SRC = Path(natspec.__file__).resolve().parent.parent
ROOT = SRC.parent


def run_process(argv, hash_seed):
    """A fresh interpreter with the given string-hash seed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    subprocess.run([sys.executable] + argv, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def loaded_modules(argv):
    """Names in sys.modules of a fresh interpreter after cli.main(argv)."""
    code = ("import sys\nfrom natspec import cli\ncli.main(%r)\n"
            "print('\\n'.join(sys.modules))" % (argv,))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def corpus_file(tmp_path, n):
    path = tmp_path / ("family%d.g6" % n)
    path.write_text("\n".join(graph6_emit(g) for g in enumerate_graphs(n)) + "\n")
    return path


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


class TestAnalyze:
    def test_petersen_report(self, tmp_path):
        code, data = run(["analyze", PETERSEN], tmp_path)
        assert code == EXIT_DOMAIN  # reconstruction fails: not full-dim
        assert data["dim"] == 3
        assert data["full"] is False
        assert data["srg_parameters"] == [10, 3, 0, 1]

    def test_bad_graph6_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "!!!"]) == EXIT_INPUT

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["analyze", PETERSEN, "--out", str(out1)])
        main(["analyze", PETERSEN, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSpectrum:
    def test_laplacian_spectrum(self, tmp_path):
        code, data = run(
            ["spectrum", "A_", "--poly", "(x*x).I - x"], tmp_path
        )
        assert code == EXIT_OK
        assert data["spectrum"]["coeffs"] == ["1", "-2", "0"]

    def test_poly_error_distinct_exit_code(self):
        assert main(["spectrum", "A_", "--poly", "x *"]) == EXIT_POLY

    def test_input_error_exit_code(self):
        assert main(["spectrum", "zzz!", "--poly", "x"]) == EXIT_INPUT


class TestDsCommands:
    @pytest.fixture()
    def corpus(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text(
            "\n".join(graph6_emit(g) for g in enumerate_graphs(3)) + "\n"
        )
        return path

    def test_build_then_check(self, corpus, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        code = main(["ds-build", "--corpus", str(corpus), "--out", str(bundle_path)])
        assert code == EXIT_OK
        bundle = json.loads(bundle_path.read_text())
        assert len(bundle["member_graph6"]) == 4
        assert len(bundle["member_spectra"]) == 4

        g1 = graph6_emit(enumerate_graphs(3)[1])
        g2 = graph6_emit(enumerate_graphs(3)[2])
        code, data = run(
            ["ds-check", "--bundle", str(bundle_path), g1, g2], tmp_path
        )
        assert code == EXIT_OK
        assert data["verdict"] == "different_spectrum"

    def test_full_member_bundle(self, tmp_path):
        # the merged spectrum of a full member runs past CPython's
        # default 4300-digit limit on int/str conversion
        import sys

        limit = sys.get_int_max_str_digits()
        corpus = tmp_path / "full6.g6"
        corpus.write_text("E\\Q?\n")
        bundle_path = tmp_path / "bundle.json"
        code = main(["ds-build", "--corpus", str(corpus), "--out", str(bundle_path)])
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        bundle = json.loads(bundle_path.read_text())
        assert bundle["full_members"] == [True]
        coeffs = bundle["member_spectra"][0]["coeffs"]
        assert len(coeffs) == 7 and coeffs[0] == "1"
        assert max(len(c.lstrip("-")) for c in coeffs) > limit

    def test_stats_deterministic(self, corpus, tmp_path):
        # ds-build and ds_family reports, stats included, are the same
        # bytes from two processes with different string-hash seeds
        outs = {}
        for seed in (0, 1):
            for cmd in (["ds-build"], ["experiment", "--mode", "ds_family"]):
                out = tmp_path / ("%s-%d.json" % (cmd[0], seed))
                run_process(["-m", "natspec.cli"] + cmd
                            + ["--corpus", str(corpus), "--out", str(out)], seed)
                outs[cmd[0], seed] = out.read_bytes()
        assert outs["ds-build", 0] == outs["ds-build", 1]
        assert outs["experiment", 0] == outs["experiment", 1]
        bundle = json.loads(outs["ds-build", 0])
        stats = {"atoms": 11, "probes": 15, "p_nodes": 240, "max_coeff_bits": 271}
        assert bundle["stats"] == stats
        assert json.loads(outs["experiment", 0])["stats"] == stats
        assert bundle["p_nodes"] == len(bundle["p_dag"]["nodes"]) == 240

    def test_script_writes_the_cli_bundle(self, corpus, tmp_path):
        script_out = tmp_path / "script.json"
        cli_out = tmp_path / "cli.json"
        run_process([str(ROOT / "scripts" / "build_family_bundle.py"),
                     "--n", "3", "--out", str(script_out)], 0)
        assert main(["ds-build", "--corpus", str(corpus), "--out", str(cli_out)]) == EXIT_OK
        assert script_out.read_bytes() == cli_out.read_bytes()

    def test_fingerprint_mismatch(self, corpus, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        main(["ds-build", "--corpus", str(corpus), "--out", str(bundle_path)])
        code = main(
            [
                "ds-check",
                "--bundle",
                str(bundle_path),
                "--fingerprint",
                "0" * 64,
                "A_",
                "A?",
            ]
        )
        assert code == EXIT_INPUT

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert main(["ds-build", "--corpus", str(path)]) == EXIT_INPUT

    def test_mixed_sizes_rejected(self, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text("A_\nB_\n")
        assert main(["ds-build", "--corpus", str(path)]) == EXIT_INPUT


class TestExperiment:
    def test_bes_frequency_deterministic(self, tmp_path):
        args = ["experiment", "--mode", "bes_frequency", "--n", "16", "--trials", "20", "--seed", "9"]
        code1, data1 = run(args, tmp_path, "r1.json")
        code2, data2 = run(args, tmp_path, "r2.json")
        assert code1 == code2 == EXIT_OK
        assert data1 == data2
        assert 0 <= data1["bes_pass_count"] <= 20

    def test_certify_and_confirm(self, tmp_path):
        code, data = run(
            [
                "experiment",
                "--mode",
                "certify_and_confirm",
                "--n",
                "8",
                "--trials",
                "30",
                "--seed",
                "7",
            ],
            tmp_path,
        )
        assert code == EXIT_OK
        assert data["counterexamples"] == 0

    def test_zero_trials_rejected(self):
        assert (
            main(["experiment", "--mode", "bes_frequency", "--trials", "0"])
            == EXIT_INPUT
        )

    def test_ds_family_mode(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text(
            "\n".join(graph6_emit(g) for g in enumerate_graphs(3)) + "\n"
        )
        code, data = run(
            ["experiment", "--mode", "ds_family", "--corpus", str(corpus), "--trials", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert data["n"] == 3
        assert "trials" not in data and "seed" not in data
        assert data["family_size"] == 4
        assert data["spectrum_collisions"] == []
        assert data["full_pairs_separated"] is True

    def test_ds_family_ignores_trials(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text(
            "\n".join(graph6_emit(g) for g in enumerate_graphs(3)) + "\n"
        )
        code, data = run(
            ["experiment", "--mode", "ds_family", "--corpus", str(corpus), "--trials", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert data["family_size"] == 4

    @pytest.mark.parametrize("mode, n, trials, seed", [
        ("bes_frequency", 16, 20, 9),
        ("certify_and_confirm", 8, 60, 5),  # two certified graphs
    ])
    def test_process_pool_matches_serial(self, tmp_path, mode, n, trials, seed):
        args = ["experiment", "--mode", mode, "--n", str(n),
                "--trials", str(trials), "--seed", str(seed)]
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads%s.json" % threads)
            assert main(args + ["--threads", threads, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        if mode == "certify_and_confirm":
            assert json.loads(outs[0])["certified"] == 2


class TestBundleFormat:
    # sha256 of each section's JSON (indent 2, sorted keys) in the
    # 3-vertex family's bundle, pinned when probes became node indices:
    # every section but probes is unchanged by that
    SECTIONS = {
        "p_dag": "26965bf8fdf47fce0ae0b172fc6dc02c20150ea0aa7d074c5a4618263fba3f10",
        "plan": "9bc7d53de80bc5f8b88b5beebee9d0d8f50879da27e997b27525487f00870c13",
        "basis": "8ce35dbd17238493635074d206d284562e3e8f2c611dddcf271b6bbffafa0efa",
        "member_spectra": "b9227424ed9adef9a398ba6f16b08908d3cb835ef9b37b7c03a8f409002cb8d8",
        "stats": "1529d0de2806a9a3e848b751ff8c0f9418fa96a4bf7d344ce22d891ee608f276",
        "fingerprint": "1a5785e45334b25a9db2d75a761d09b0b327d2eb7d940327eb808c51649f1532",
    }

    @pytest.fixture()
    def built(self, tmp_path):
        path = tmp_path / "bundle.json"
        corpus = corpus_file(tmp_path, 3)
        assert main(["ds-build", "--corpus", str(corpus), "--out", str(path)]) == EXIT_OK
        return path, json.loads(path.read_text())

    def test_probes_are_nodes_of_p(self, built):
        _, data = built
        bundle = build_ds_dpoly(enumerate_graphs(3))
        nodes = data["p_dag"]["nodes"]
        assert len(data["probes"]) == len(bundle.probes) == 15
        for k, probe in zip(data["probes"], bundle.probes):
            assert dpoly_from_json({"nodes": nodes, "root": k}) is probe

    def test_other_sections_unchanged(self, built):
        _, data = built
        for key, digest in self.SECTIONS.items():
            text = json.dumps(data[key], indent=2, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_bundle_with_probe_dags_still_checks(self, built, tmp_path):
        path, data = built
        old = dict(data, probes=[dpoly_to_json(d) for d in
                                 build_ds_dpoly(enumerate_graphs(3)).probes])
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
        assert old_path.stat().st_size > 2 * path.stat().st_size
        graphs = [graph6_emit(g) for g in enumerate_graphs(3)]
        for g1, g2 in [(graphs[1], graphs[2]), (graphs[3], graphs[3])]:
            reports = []
            for b in (path, old_path):
                out = tmp_path / "check.json"
                argv = ["ds-check", "--bundle", str(b), g1, g2, "--out", str(out)]
                assert main(argv) == EXIT_OK
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]


class TestImports:
    """Each subcommand loads only the layers it runs."""

    def test_analyze(self, tmp_path):
        mods = loaded_modules(["analyze", PETERSEN, "--out", str(tmp_path / "a.json")])
        assert {"natspec.closure", "natspec.certify"} <= mods
        assert not mods & {"natspec.spectra", "natspec.idempotents",
                           "natspec.dpoly", "concurrent.futures.process"}

    def test_ds_check(self, tmp_path):
        bundle = tmp_path / "bundle.json"
        main(["ds-build", "--corpus", str(corpus_file(tmp_path, 3)), "--out", str(bundle)])
        g1, g2 = (graph6_emit(g) for g in enumerate_graphs(3)[1:3])
        mods = loaded_modules(["ds-check", "--bundle", str(bundle), g1, g2,
                               "--out", str(tmp_path / "c.json")])
        assert {"natspec.spectra", "natspec.dpoly"} <= mods
        assert not mods & {"natspec.idempotents", "natspec.certify"}

    def test_serial_experiment(self, tmp_path):
        mods = loaded_modules(["experiment", "--mode", "certify_and_confirm",
                               "--n", "8", "--trials", "30", "--seed", "5",
                               "--threads", "1", "--out", str(tmp_path / "e.json")])
        assert "natspec.certify" in mods  # one graph is certified
        assert "concurrent.futures.process" not in mods

    def test_lazy_package(self):
        code = "import sys, natspec; print([m for m in sys.modules if m.startswith('natspec.')])"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
        namespace = {}
        exec("from natspec import *", namespace)
        assert set(natspec.__all__) <= set(namespace)
        assert set(natspec.__all__) <= set(dir(natspec))
        assert namespace["Matrix"] is natspec.exact.Matrix
        with pytest.raises(AttributeError):
            natspec.no_such_name
