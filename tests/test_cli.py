"""CLI surface tests: config parsing, exit codes, output files, rendering."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import alselect.data
from alselect import cli, harness
from alselect.cli import (_REQUIRED_KEYS, _RUN_KEYS, EXIT_CONFIG, EXIT_DATA,
                          EXIT_OK, EXIT_RUNTIME, EXIT_VACUOUS, ConfigError,
                          build_experiment_config, main, parse_config)
from alselect.harness import ExperimentConfig
from alselect.strategies import StrategyConfig, StrategyKind

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_synth(capsys, tmp_path, name="synth.csv", n=600, seed=3, prevalence="0.4,0.35,0.25"):
    out = tmp_path / name
    rc, _, err = run_cli(
        capsys, "synth", "--n", str(n), "--d", "4", "--k", "3",
        "--beta", "0.05", "--pool-prevalence", prevalence,
        "--seed", str(seed), "--out", str(out),
    )
    assert rc == EXIT_OK, err
    return out


def write_config(tmp_path, csv_path, out_dir, **overrides):
    values = {
        "dataset_path": str(csv_path),
        "label_column": "label",
        "strategy": "weighted",
        "chi": "0.1",
        "n0": "30",
        "rounds": "3",
        "batch": "10",
        "trials": "2",
        "master_seed": "5",
        "out_dir": str(out_dir),
    }
    values.update({k: str(v) for k, v in overrides.items()})
    p = tmp_path / "run.cfg"
    p.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return p


class TestBound:
    def test_prints_quantities(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--beta", "0.1", "--chi", "0.05",
                             "--k", "10", "--delta", "0.05")
        assert rc == EXIT_OK
        assert "n_s=80" in out
        assert "eta=3.153402" in out
        assert "zeta=0.852791" in out
        assert "p_s=0.037036" in out

    def test_vacuous_exit(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--beta", "0.1", "--chi", "0.1",
                             "--k", "2", "--delta", "0.05")
        assert rc == EXIT_VACUOUS
        assert "vacuous" in out

    def test_subnormal_chi_exits_vacuous(self, capsys):
        # 1/chi overflows to inf here; the bound is still computed, and vacuous
        rc, out, err = run_cli(capsys, "bound", "--beta", "0.1", "--chi", "5e-324",
                               "--k", "3", "--delta", "0.05")
        assert rc == EXIT_VACUOUS, err
        assert "vacuous" in out

    def test_out_of_range_flag(self, capsys):
        rc, _, err = run_cli(capsys, "bound", "--beta", "0.1", "--chi", "0.05",
                             "--k", "10", "--delta", "1.5")
        assert rc == EXIT_CONFIG
        assert "delta" in err


class TestSynth:
    def test_writes_csv_and_pocket_manifest(self, capsys, tmp_path):
        out = make_synth(capsys, tmp_path, n=600)
        lines = out.read_text().splitlines()
        assert len(lines) == 601
        assert lines[0] == "f0,f1,f2,f3,label"
        pocket = json.loads((tmp_path / "synth.csv.pocket.json").read_text())
        assert len(pocket["pocket_ids"]) == 30

    def test_beta_zero_empty_manifest(self, capsys, tmp_path):
        out = tmp_path / "z.csv"
        rc, _, _ = run_cli(capsys, "synth", "--n", "100", "--d", "4", "--k", "2",
                           "--beta", "0", "--out", str(out))
        assert rc == EXIT_OK
        pocket = json.loads((tmp_path / "z.csv.pocket.json").read_text())
        assert pocket["pocket_ids"] == []

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a = make_synth(capsys, tmp_path, "a.csv", seed=9)
        b = make_synth(capsys, tmp_path, "b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_pinned(self, capsys, tmp_path):
        # synth's bytes are part of the reproducibility contract: a faster row
        # formatter must write exactly these
        out = make_synth(capsys, tmp_path)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "dcf21c24d79fca4c9d68f932a6b5b0e8d22bc774daea95d438b2ac539420b08f")

    @pytest.mark.parametrize("argv, digest", [
        (["--d", "3", "--k", "3", "--seed", "3"],
         "68e73f9119ab10cfc4c945d12c5c9aad4bff86ac22c55ca6da40a23e0ddf61a1"),
        (["--d", "2", "--k", "2", "--separation", "1e-150", "--seed", "4"],
         "40d0b103e40728e4802e211d47ff6571085890958a04261e030492b1ea8b965a"),
        (["--d", "3", "--k", "3", "--separation", "1e150", "--seed", "5",
          "--overlap-fraction", "0.1"],
         "e9474506c763d76bd9f946cfc0f4ad7e622dccf1b6e8a15649e22656f6883e7e"),
    ])
    def test_bytes_pinned_at_d_equal_k(self, capsys, tmp_path, argv, digest):
        # at d = k the pocket's direction is computed from the cluster
        # centers; these separations keep every square in the norm normal, and
        # their bytes stay as they were before the direction was rescaled
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(capsys, "synth", "--n", "600", "--beta", "0.05", *argv,
                             "--out", str(out))
        assert rc == EXIT_OK, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--k", "2", "--beta", "0", "--separation", "1e-300", "--seed", "75"],
        ["--d", "3", "--k", "3", "--beta", "0.1", "--separation", "1e-300", "--seed", "75"],
        ["--d", "3", "--k", "3", "--beta", "0.1", "--separation", "1e200", "--seed", "75"],
    ])
    def test_extreme_separation_at_d_equal_k_runs_warning_free(self, capsys, tmp_path, argv):
        # the pocket's direction stays a finite unit vector whether the
        # squares in its norm would underflow or overflow at the centers' scale
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(capsys, "synth", "--n", "600", *argv, "--out", str(out))
        assert rc == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert all(math.isfinite(float(x)) for row in rows for x in row[:-1])

    def test_center_beyond_the_float_range_names_separation(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "synth", "--n", "600", "--d", "5", "--k", "3",
                               "--beta", "0.1", "--separation", "1.7e308",
                               "--overlap-fraction", "0.1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: --separation 1.7e+308 ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_spec(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "synth", "--n", "100", "--d", "1", "--k", "3",
                             "--beta", "0.1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_empty_pocket_is_config_error(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(capsys, "synth", "--n", "5", "--d", "3", "--k", "3",
                             "--beta", "0.01", "--out", str(out))
        assert rc == EXIT_CONFIG
        assert err == "error: beta*n = 0.050 rounds to an empty pocket\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--pool-prevalence", "--train-prevalence"])
    def test_non_numeric_prevalence_names_flag(self, capsys, tmp_path, flag):
        rc, _, err = run_cli(capsys, "synth", "--n", "100", "--d", "4", "--k", "3",
                             "--beta", "0.1", flag, "a,b,c", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        assert err == f"error: {flag} must be comma-separated numbers or 'uniform', got 'a,b,c'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, field", [
        ("--pool-prevalence", "nan,0.5,0.5", "pool_prevalence"),
        ("--pool-prevalence", "inf,0.5,0.5", "pool_prevalence"),
        ("--train-prevalence", "0.5,0.5,nan", "train_prevalence"),
        ("--separation", "inf", "separation"),
        ("--separation", "nan", "separation"),
        ("--pocket-offset", "nan", "pocket_offset"),
        ("--pocket-offset", "-inf", "pocket_offset"),
    ])
    def test_non_finite_spec_value_names_field(self, capsys, tmp_path, flag, value, field):
        rc, out, err = run_cli(capsys, "synth", "--n", "900", "--d", "4", "--k", "3",
                               "--beta", "0.05", f"{flag}={value}", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {field} ") and "must be finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", ["x.csv", "x.csv.pocket.json"])
    def test_existing_output_is_config_error(self, capsys, tmp_path, monkeypatch, existing):
        (tmp_path / existing).write_text("keep\n", encoding="utf-8")
        monkeypatch.setattr(cli, "generate_pocket_dataset",
                            lambda spec: pytest.fail("generated despite an existing output"))
        rc, out, err = run_cli(capsys, "synth", "--n", "100", "--d", "4", "--k", "2",
                               "--beta", "0.1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {tmp_path / existing} already exists; synth never overwrites a file\n"
        assert [p.name for p in tmp_path.iterdir()] == [existing]
        assert (tmp_path / existing).read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("failing", ["_write_json", "json.dump"])
    def test_failed_sidecar_write_leaves_no_file(self, capsys, tmp_path, monkeypatch, failing):
        def fail(*args, **kwargs):
            raise OSError("No space left on device")

        if failing == "_write_json":
            monkeypatch.setattr(cli, "_write_json", fail)
        else:  # the sidecar exists, half written, when the write fails
            monkeypatch.setattr(cli.json, "dump", fail)
        argv = ["synth", "--n", "100", "--d", "4", "--k", "2", "--beta", "0.1",
                "--out", str(tmp_path / "d.csv")]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_RUNTIME
        assert out == ""
        assert err == "error: No space left on device\n"
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        rc, _, _ = run_cli(capsys, *argv)  # a rerun is not refused
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.pocket.json"]


class TestRun:
    def test_minimal_run(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "results" / "weighted"
        cfg = write_config(tmp_path, csv_path, out_dir)
        rc, out, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_OK, err
        records = (out_dir / "records.jsonl").read_text().splitlines()
        assert len(records) == 2 * (3 + 1)  # trials * (rounds + 1)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["strategy"] == "weighted"
        assert 0.0 <= summary["final_accuracy_mean"] <= 1.0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["rng_algorithm"]
        assert manifest["dataset_sha256"]
        # no temp directory is left beside out_dir, which gets mkdir's usual mode
        assert list(out_dir.parent.iterdir()) == [out_dir]
        assert out_dir.stat().st_mode == out_dir.parent.stat().st_mode

    def test_unknown_strategy_names_key(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        cfg = write_config(tmp_path, csv_path, tmp_path / "o", strategy="ucb")
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert "strategy" in err and "ucb" in err

    def test_unknown_key(self, capsys, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense_key=1\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", str(p))
        assert rc == EXIT_CONFIG
        assert "nonsense_key" in err

    @pytest.mark.parametrize("key", ["learning_rate", "max_iters"])
    def test_former_solver_key_is_unknown(self, capsys, tmp_path, key):
        cfg = write_config(tmp_path, tmp_path / "d.csv", tmp_path / "o", **{key: 500})
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("prevalence, overrides, message", [
        ("0.4,0.35,0.25", {"rounds": 100},
         "n0 + rounds*batch = 1030 exceeds the 450 ids left after the holdout split"),
        ("0.4,0.35,0.25", {"holdout_fraction": 0.001},
         "holdout_fraction = 0.001 leaves no holdout rows in a dataset of 600 rows"),
        ("0.49,0.49,0.02", {"n0": 60}, "needs 20 for the initial labeled set; lower n0"),
        ("0.4,0.35,0.25", {"chi": 5e-324, "l2_reg": 0},
         "chi = 5e-324 is too small for k = 3 classes: chi/k rounds to 0.0"),
    ], ids=["budget", "empty_holdout", "class_quota", "chi_underflow"])
    def test_infeasible_run_is_config_error(self, capsys, tmp_path, prevalence, overrides,
                                            message):
        csv_path = make_synth(capsys, tmp_path, prevalence=prevalence)
        out_dir = tmp_path / "o"
        rc, out, err = run_cli(capsys, "run",
                               str(write_config(tmp_path, csv_path, out_dir, **overrides)))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "nope.csv", tmp_path / "o")
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_DATA
        assert err == f"error: {tmp_path / 'nope.csv'}: cannot read file: No such file or directory\n"
        assert not (tmp_path / "o").exists()

    def test_writes_label_mapping(self, capsys, tmp_path):
        # string labels, mapped to integers in order of first appearance
        csv_path = make_synth(capsys, tmp_path)
        names = {"0": "zebra", "1": "ant", "2": "mole"}
        header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
        rows = [line.rsplit(",", 1) for line in lines]
        named = tmp_path / "named.csv"
        named.write_text(header + "\n" + "".join(f"{x},{names[y]}\n" for x, y in rows),
                         encoding="utf-8")
        first_seen = list(dict.fromkeys(names[y] for _, y in rows))
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, named, out_dir)))
        assert rc == EXIT_OK, err
        text = (out_dir / "labels.json").read_text(encoding="utf-8")
        assert text == json.dumps({s: i for i, s in enumerate(first_seen)}, indent=2) + "\n"
        assert list(json.loads(text)) == first_seen
        assert not (tmp_path / "named.csv.labels.json").exists()

    def test_n0_zero_is_config_error(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        cfg = write_config(tmp_path, csv_path, tmp_path / "o", n0=0)
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert "n0" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("tol", "nan", "tol must be finite and > 0, got nan"),
        ("tol", "inf", "tol must be finite and > 0, got inf"),
        ("l2_reg", "nan", "l2_reg must be finite and >= 0, got nan"),
        ("l2_reg", "inf", "l2_reg must be finite and >= 0, got inf"),
        ("l2_reg", "-inf", "l2_reg must be finite and >= 0, got -inf"),
    ])
    def test_non_finite_fit_setting_is_config_error(self, capsys, tmp_path, monkeypatch,
                                                    key, value, message):
        csv_path = make_synth(capsys, tmp_path)
        monkeypatch.setattr(cli, "load_csv", lambda *args: pytest.fail("loaded data"))
        cfg = write_config(tmp_path, csv_path, tmp_path / "o", **{key: value})
        rc, out, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_oversized_cell_is_data_error(self, capsys, tmp_path):
        csv_path = tmp_path / "long.csv"
        csv_path.write_text("x,label\n1.0,a\n2.0," + "b" * 140_000 + "\n3.0,c\n",
                            encoding="utf-8")
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_DATA
        assert out == ""
        assert err == f"error: {csv_path}: row 1: field larger than field limit (131072)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("trailer", ["", "\n"], ids=["plain", "blank_line_after"])
    def test_long_feature_cell_is_data_error(self, capsys, tmp_path, trailer):
        # numpy parses the 140,001-digit cell as 1.0; a blank line elsewhere
        # used to decide whether csv.reader saw it and refused it
        csv_path = tmp_path / "long.csv"
        csv_path.write_text("x,label\n" + "0" * 140_000 + "1,a\n2,b\n" + trailer,
                            encoding="utf-8")
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_DATA
        assert out == ""
        assert err == f"error: {csv_path}: row 0: field larger than field limit (131072)\n"
        assert not (tmp_path / "o").exists()

    def test_features_too_large_to_standardize_are_data_error(self, capsys, tmp_path,
                                                              monkeypatch):
        # synth writes finite features of 7.07e307 at this separation; their
        # sums overflow, which used to crash the run with exit 4
        out = tmp_path / "huge.csv"
        rc, _, err = run_cli(capsys, "synth", "--n", "900", "--d", "4", "--k", "3", "--beta",
                             "0.05", "--separation", "1e308", "--seed", "2", "--out", str(out))
        assert rc == EXIT_OK, err
        monkeypatch.setattr(harness, "fit", lambda *args, **kwargs: pytest.fail("fit ran"))
        cfg = write_config(tmp_path, out, tmp_path / "o", rounds=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_DATA
        assert stdout == ""
        assert err == ("error: feature column 'f0': the mean or std over the fitting rows is "
                       "not finite; the features are too large to standardize\n")
        assert not (tmp_path / "o").exists()

    def test_one_label_csv_is_data_error(self, capsys, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("x,label\n" + "".join(f"{i}.0,a\n" for i in range(50)),
                            encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_DATA
        assert err.startswith(f"error: {csv_path}: label column 'label' has one distinct")
        assert not (tmp_path / "o").exists()

    def test_non_utf8_csv_is_data_error(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        csv_path.write_bytes(csv_path.read_bytes() + b"0,0,0,0,\xff\n")
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_DATA
        assert err == f"error: {csv_path}: file is not UTF-8 text\n"

    def test_non_utf8_config_is_config_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "d.csv", tmp_path / "o")
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

    def test_existing_out_dir_is_config_error(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_OK, err
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert {"records.jsonl", "summary.json", "manifest.json", "labels.json"} <= first.keys()
        cfg = write_config(tmp_path, csv_path, out_dir, strategy="greedy")
        rc, out, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err == f"error: out_dir {out_dir} already exists; a run never overwrites a result\n"
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first

    def test_out_dir_under_a_file_is_config_error(self, capsys, tmp_path, monkeypatch):
        csv_path = make_synth(capsys, tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out_dir = afile / "x" / "o"
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args: pytest.fail("ran despite an unusable out_dir"))
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err == f"error: out_dir {out_dir} cannot be created: {afile} is not a directory\n"

    def test_short_row_is_data_error(self, capsys, tmp_path):
        csv_path = tmp_path / "w.csv"
        csv_path.write_text("a,b,label\n1.0,2.0,x\n3.0,y\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_DATA
        assert err == f"error: {csv_path}: row 1 has 2 cells, expected 3\n"

    def test_out_dir_appearing_during_run_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        csv_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "o"
        real = cli.run_experiment

        def run_then_create(*args):
            result = real(*args)
            out_dir.mkdir()
            return result

        monkeypatch.setattr(cli, "run_experiment", run_then_create)
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_RUNTIME
        assert err.startswith("error: ") and str(out_dir) in err
        assert list(out_dir.iterdir()) == []

    def test_failed_write_leaves_no_out_dir(self, capsys, tmp_path, monkeypatch):
        csv_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "results" / "o"
        real = cli._write_json

        def fail_after_records(path, obj, **kwargs):
            if path.name == "summary.json":
                assert (path.parent / "records.jsonl").is_file()
                raise OSError("disk full")
            real(path, obj, **kwargs)

        monkeypatch.setattr(cli, "_write_json", fail_after_records)
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_RUNTIME
        assert out == ""
        assert err == "error: disk full\n"
        assert list(out_dir.parent.iterdir()) == []

    def test_rerun_byte_identical_records(self, capsys, tmp_path):
        csv_path = make_synth(capsys, tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = write_config(tmp_path, csv_path, out1)
        rc1, _, _ = run_cli(capsys, "run", str(cfg1))
        cfg2 = write_config(tmp_path, csv_path, out2)
        rc2, _, _ = run_cli(capsys, "run", str(cfg2))
        assert rc1 == rc2 == EXIT_OK
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("strategy, overrides, digest", [
        ("random", {}, "94dea2c763d535466a34bd3c20cafa3c53db19fbd03828da343a86a79ad7f299"),
        ("greedy", {}, "97ba86e376ff7154c2b1e10a05c6c199c1ba4547b9f3bb49eaa97d9031eda12f"),
        ("eps_greedy", {}, "afcc48dadec6c38b8818a3b227ba05e71387539d93d930a141e488bef95ab3fb"),
        ("weighted", {}, "d4e94ae7d9edf8b70c09b346ff2cb73d01f283884d163c7aec5b8e6c5f37073e"),
        # Random is the weighted draw at d = 0, byte for byte
        ("weighted", {"exponent_d": 0},
         "94dea2c763d535466a34bd3c20cafa3c53db19fbd03828da343a86a79ad7f299"),
        # every slot a uniform pick, so the pool is never scored
        ("eps_greedy", {"epsilon": 1},
         "c387337587ae34937c750a1e75060709d6c2d5c9d001b4a7284dc1792f55c6ca"),
    ])
    def test_records_bytes_pinned(self, capsys, tmp_path, strategy, overrides, digest):
        # a run's records are part of the reproducibility contract: a faster
        # trial must write exactly these bytes. 1200 rows make the holdout
        # draw (K = 240) and every pool draw take the merge's partition branch
        csv_path = make_synth(capsys, tmp_path, n=1200)
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, csv_path, out_dir, strategy=strategy,
                           holdout_fraction=0.2, **overrides)
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_OK, err
        assert hashlib.sha256((out_dir / "records.jsonl").read_bytes()).hexdigest() == digest

    def test_eps_greedy_at_epsilon_zero_writes_greedys_records(self, capsys, tmp_path):
        # every slot is greedy and draws nothing, so the records are Greedy's
        csv_path = make_synth(capsys, tmp_path, n=1200)
        outs = {}
        for strategy, extra in (("greedy", {}), ("eps_greedy", {"epsilon": 0})):
            outs[strategy] = tmp_path / strategy
            cfg = write_config(tmp_path, csv_path, outs[strategy], strategy=strategy,
                               holdout_fraction=0.2, **extra)
            rc, _, err = run_cli(capsys, "run", str(cfg))
            assert rc == EXIT_OK, err
        assert (outs["eps_greedy"] / "records.jsonl").read_bytes() == (
            outs["greedy"] / "records.jsonl").read_bytes()

    def test_overflowing_newton_slope_runs_warning_free(self, capsys, tmp_path):
        # at separation 1e150 with no penalty the fit's predicted decrease
        # -g.step overflows; the fit stops there, where the Armijo test
        # rejected all 51 halvings, with the same weights and no warning
        # (the suite turns warnings into errors)
        csv_path = tmp_path / "b.csv"
        rc, _, err = run_cli(capsys, "synth", "--n", "30", "--d", "8", "--k", "5",
                             "--beta", "0", "--separation", "1e150", "--seed", "6",
                             "--out", str(csv_path))
        assert rc == EXIT_OK, err
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, csv_path, out_dir, n0=1, rounds=1, batch=5,
                           chi="1e-300", l2_reg=0)
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_OK, err
        assert len((out_dir / "records.jsonl").read_text().splitlines()) == 4

    def test_warm_run_reads_the_sidecar(self, capsys, tmp_path, monkeypatch):
        # the first run parses the CSV and writes its sidecar; the second
        # parses nothing and writes the same records and the same digest
        csv_path = make_synth(capsys, tmp_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        outs = [tmp_path / "cold", tmp_path / "warm"]
        for i, out_dir in enumerate(outs):
            if i:
                for name in ("_parse_table", "_parse_records"):
                    monkeypatch.setattr(alselect.data, name,
                                        lambda *args: pytest.fail("a warm run parsed the CSV"))
            rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
            assert rc == EXIT_OK, err
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["dataset_sha256"] == digest
            assert Path(f"{csv_path}.parsed").is_file()
        assert len({(o / "records.jsonl").read_bytes() for o in outs}) == 1

    def test_manifest_digest_is_of_the_parsed_bytes(self, capsys, tmp_path, monkeypatch):
        # a file rewritten while it loads has no digest that describes the
        # parse: the run exits 3 and writes nothing
        csv_path = make_synth(capsys, tmp_path)
        real = alselect.data._parse_table

        def rewrite_then_parse(*args):
            with open(csv_path, "a", encoding="utf-8") as fh:
                fh.write("0,0,0,0,0\n")
            return real(*args)

        monkeypatch.setattr(alselect.data, "_parse_table", rewrite_then_parse)
        out_dir = tmp_path / "o"
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_DATA
        assert out == ""
        assert err == f"error: {csv_path}: file changed while it was read; load it again\n"
        assert not out_dir.exists()
        assert not Path(f"{csv_path}.parsed").exists()

    @pytest.mark.parametrize("text, expected", [
        ("a,b,label\n1.0,2.0,x\n3.0,y\n", "row 1 has 2 cells, expected 3"),
        ("a,b,label\n1.0,2.0,x\n3.0,nan,y\n", "non-numeric cell 'nan' at row=1, col='b'"),
        ("a,b,lbl\n1.0,2.0,x\n3.0,4.0,y\n", "column 'label' not found in header"),
    ])
    def test_failed_load_exits_3_and_writes_no_sidecar(self, capsys, tmp_path, text, expected):
        csv_path = tmp_path / "w.csv"
        csv_path.write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path, csv_path, tmp_path / "o")
        for _ in range(2):
            rc, out, err = run_cli(capsys, "run", str(cfg))
            assert (rc, out, err) == (EXIT_DATA, "", f"error: {csv_path}: {expected}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "w.csv"]


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nstrategy=random\ndataset_path=x\n"
                     "label_column=y\nout_dir=o\n", encoding="utf-8")
        values = parse_config(p)
        assert values["strategy"] == "random"

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("strategy=random\nstrategy=greedy\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dataset_path=x\nlabel_column=y\nout_dir=o\n"
                     "strategy=random\nrounds=many\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert "rounds" in str(exc.value)

    def test_missing_required(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("strategy=random\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert "dataset_path" in str(exc.value)

    def test_defaults_come_from_dataclasses(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dataset_path=x\nlabel_column=y\nstrategy=eps_greedy\nout_dir=o\n",
                     encoding="utf-8")
        cfg = build_experiment_config(parse_config(p))
        assert cfg == ExperimentConfig(strategy=StrategyConfig(kind=StrategyKind.EPS_GREEDY))

    def test_every_optional_key_sets_its_field(self):
        optional = {"epsilon": 0.5, "chi": 0.5, "exponent_d": 2.0, "n0": 7, "rounds": 3,
                    "batch": 4, "trials": 2, "holdout_fraction": 0.5, "l2_reg": 0.5,
                    "tol": 0.5, "master_seed": 8}
        assert optional.keys() == _RUN_KEYS.keys() - set(_REQUIRED_KEYS)
        cfg = build_experiment_config({"strategy": "weighted", **optional})
        fields = {**dataclasses.asdict(cfg), **dataclasses.asdict(cfg.strategy),
                  **dataclasses.asdict(cfg.fit)}
        assert {k: fields[k] for k in optional} == optional

    def test_readme_example_parses(self, tmp_path):
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        p = tmp_path / "run.cfg"
        p.write_text(block, encoding="utf-8")
        values = parse_config(p)
        assert len(values) == sum(
            1 for line in block.splitlines() if line.strip() and not line.startswith("#"))
        # every key is documented: a new numeric config field is a key on its own
        assert values.keys() == _RUN_KEYS.keys()
        cfg = build_experiment_config(values)
        assert cfg.strategy.kind is StrategyKind.WEIGHTED
        assert (cfg.strategy.epsilon, cfg.strategy.chi, cfg.n0, cfg.master_seed) == (0.05, 0.25, 100, 99)

    def test_readme_library_example_runs(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        exec(compile(block, str(README), "exec"), {})
        assert re.fullmatch(r"\d+\.\d\d ± \d+\.\d\d\n", capsys.readouterr().out)


class TestReport:
    def _write_summary(self, root, ds, strat, mean, std):
        d = root / f"{ds}-{strat}"
        d.mkdir(parents=True)
        (d / "summary.json").write_text(json.dumps({
            "dataset": ds, "strategy": strat,
            "final_accuracy_mean": mean, "final_accuracy_std": std,
        }), encoding="utf-8")

    def test_single_cell(self, capsys, tmp_path):
        root = tmp_path / "res"
        self._write_summary(root, "synth.csv", "random", 0.695231, 0.001894)
        rc, out, _ = run_cli(capsys, "report", str(root))
        assert rc == EXIT_OK
        assert "69.52 ± 0.19" in out

    def test_one_row_four_columns(self, capsys, tmp_path):
        root = tmp_path / "res"
        for i, strat in enumerate(("random", "greedy", "eps_greedy", "weighted")):
            self._write_summary(root, "covsynth", strat, 0.5 + i / 100, 0.01)
        rc, out, _ = run_cli(capsys, "report", str(root), "--format", "md")
        lines = [l for l in out.splitlines() if l.startswith("|")]
        assert len(lines) == 3  # header, rule, one data row
        assert lines[2].count("±") == 4

    def test_csv_format(self, capsys, tmp_path):
        root = tmp_path / "res"
        self._write_summary(root, "d1", "random", 0.9, 0.0)
        rc, out, _ = run_cli(capsys, "report", str(root), "--format", "csv")
        assert rc == EXIT_OK
        assert out.splitlines()[0] == "dataset,random"

    def test_dataset_name_with_comma_quote_and_pipe(self, capsys, tmp_path):
        root = tmp_path / "res"
        name = 'a,b "c" |d.csv'
        self._write_summary(root, name, "random", 0.9, 0.01)
        rc, out, _ = run_cli(capsys, "report", str(root), "--format", "csv")
        assert rc == EXIT_OK
        assert list(csv.reader(io.StringIO(out))) == [["dataset", "random"],
                                                      [name, "90.00 ± 1.00"]]
        rc, out, _ = run_cli(capsys, "report", str(root), "--format", "md")
        assert rc == EXIT_OK
        assert out.splitlines()[2] == '| a,b "c" \\|d.csv | 90.00 ± 1.00 |'

    def test_md_keeps_a_name_with_line_breaks_on_one_row(self, capsys, tmp_path):
        root = tmp_path / "res"
        (root / "x").mkdir(parents=True)
        (root / "x" / "summary.json").write_text(
            '{"dataset": "a\\nb\\r\\nc\\rd.csv", "strategy": "random", '
            '"final_accuracy_mean": 0.9, "final_accuracy_std": 0.01}', encoding="utf-8")
        rc, out, _ = run_cli(capsys, "report", str(root), "--format", "md")
        assert rc == EXIT_OK
        assert out.splitlines() == ["| dataset | random |", "|---|---|",
                                    "| a<br>b<br>c<br>d.csv | 90.00 ± 1.00 |"]

    def test_missing_dir(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "report", str(tmp_path / "nothing"))
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("content", [
        "[]",
        '{"dataset": "d1", "strategy": "random", "final_accuracy_mean": "0.9", '
        '"final_accuracy_std": 0.0}',
        '{"dataset": "d1", "strategy": "random", "final_accuracy_mean": 0.9}',
        '{"dataset": ["d1"], "strategy": "random", "final_accuracy_mean": 0.9, '
        '"final_accuracy_std": 0.0}',
    ], ids=["list", "string_mean", "no_std", "list_dataset"])
    def test_malformed_summary_rejected(self, capsys, tmp_path, content):
        root = tmp_path / "res"
        self._write_summary(root, "d0", "random", 0.9, 0.0)
        bad = root / "x" / "summary.json"
        bad.parent.mkdir()
        bad.write_text(content, encoding="utf-8")
        rc, out, err = run_cli(capsys, "report", str(root))
        assert rc == EXIT_DATA
        assert out == ""
        assert err.startswith(f"error: malformed summary {bad}: ")

    def test_duplicate_cell_rejected(self, capsys, tmp_path):
        root = tmp_path / "res"
        self._write_summary(root / "a", "d1", "random", 0.9, 0.0)
        self._write_summary(root / "b", "d1", "random", 0.8, 0.0)
        rc, out, err = run_cli(capsys, "report", str(root))
        assert rc == EXIT_DATA
        assert out == ""
        assert str(root / "a" / "d1-random" / "summary.json") in err
        assert str(root / "b" / "d1-random" / "summary.json") in err


class TestFailureBoundary:
    """`main` is the one place that turns an exception into an exit code."""

    def test_round_failure_names_trial_and_round(self, capsys, tmp_path, monkeypatch):
        csv_path = make_synth(capsys, tmp_path)
        out_dir = tmp_path / "o"
        real = harness.select_batch
        calls = []

        def boom_in_round_2(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("boom")
            return real(*args)

        monkeypatch.setattr(harness, "select_batch", boom_in_round_2)
        rc, out, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, out_dir)))
        assert rc == EXIT_RUNTIME
        assert out == ""
        assert err == "error: boom\n  in trial 0, round 2\n"
        assert not out_dir.exists()

    def test_unexpected_exception_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        def fail(*args):
            raise KeyError

        monkeypatch.setattr(cli, "run_experiment", fail)
        csv_path = make_synth(capsys, tmp_path)
        rc, _, err = run_cli(capsys, "run", str(write_config(tmp_path, csv_path, tmp_path / "o")))
        assert rc == EXIT_RUNTIME
        assert err == "error: KeyError\n"

    def test_python_m_alselect(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "alselect", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        bound = run("bound", "--beta", "0.1", "--chi", "0.05", "--k", "10", "--delta", "0.05")
        assert bound.returncode == EXIT_OK, bound.stderr
        assert "n_s=80" in bound.stdout.splitlines()
        missing = run("run", str(tmp_path / "missing.cfg"))
        assert missing.returncode == EXIT_CONFIG
        assert missing.stderr == f"error: config file not found: {tmp_path / 'missing.cfg'}\n"


class TestArgparse:
    def test_bad_subcommand_exit_2(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 2

    def test_bound_requires_flags(self, capsys):
        rc, _, _ = run_cli(capsys, "bound", "--beta", "0.1")
        assert rc == 2
