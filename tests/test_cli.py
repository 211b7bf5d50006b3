"""Command-line interface: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import natspec
from natspec.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, EXIT_POLY, main
from natspec.graphs import enumerate_graphs, graph6_emit, petersen_graph


PETERSEN = graph6_emit(petersen_graph())


SRC = Path(natspec.__file__).resolve().parent.parent
ROOT = SRC.parent


def run_process(argv, hash_seed):
    """A fresh interpreter with the given string-hash seed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    subprocess.run([sys.executable] + argv, env=env, check=True,
                   stdout=subprocess.DEVNULL)


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
