"""CLI surface tests: config parsing, exit codes, output files, rendering."""

import json
import re
from pathlib import Path

import pytest

from alselect.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_VACUOUS,
                          ConfigError, build_experiment_config, main,
                          parse_config)
from alselect.strategies import StrategyKind

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_synth(capsys, tmp_path, name="synth.csv", n=600, seed=3):
    out = tmp_path / name
    rc, _, err = run_cli(
        capsys, "synth", "--n", str(n), "--d", "4", "--k", "3",
        "--beta", "0.05", "--pool-prevalence", "0.4,0.35,0.25",
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
        "max_iters": "60",
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

    def test_bad_spec(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "synth", "--n", "100", "--d", "1", "--k", "3",
                             "--beta", "0.1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG


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

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "nope.csv", tmp_path / "o")
        rc, _, err = run_cli(capsys, "run", str(cfg))
        assert rc == EXIT_DATA

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

    def test_readme_example_parses(self, tmp_path):
        (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        p = tmp_path / "run.cfg"
        p.write_text(block, encoding="utf-8")
        values = parse_config(p)
        assert len(values) == sum(
            1 for line in block.splitlines() if line.strip() and not line.startswith("#"))
        cfg = build_experiment_config(values)
        assert cfg.strategy.kind is StrategyKind.WEIGHTED
        assert (cfg.strategy.epsilon, cfg.strategy.chi, cfg.n0, cfg.master_seed) == (0.05, 0.25, 100, 99)


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

    def test_missing_dir(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "report", str(tmp_path / "nothing"))
        assert rc == EXIT_DATA

    def test_duplicate_cell_rejected(self, capsys, tmp_path):
        root = tmp_path / "res"
        self._write_summary(root / "a", "d1", "random", 0.9, 0.0)
        self._write_summary(root / "b", "d1", "random", 0.8, 0.0)
        rc, out, err = run_cli(capsys, "report", str(root))
        assert rc == EXIT_DATA
        assert out == ""
        assert str(root / "a" / "d1-random" / "summary.json") in err
        assert str(root / "b" / "d1-random" / "summary.json") in err


class TestArgparse:
    def test_bad_subcommand_exit_2(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 2

    def test_bound_requires_flags(self, capsys):
        rc, _, _ = run_cli(capsys, "bound", "--beta", "0.1")
        assert rc == 2
