"""Command-line interface.

Subcommands: run (experiment from a flat key=value config file), bound
(closed-form hitting bound), synth (write a synthetic pocket dataset to
CSV), report (render a dataset x strategy accuracy matrix).

Exit codes: 0 ok, 2 config/flag errors, 3 data errors, 4 runtime errors,
5 vacuous bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import FitConfig
from .data import load_csv
from .errors import DataFormatError, InfeasibleSpecError, VacuousBoundError
from .harness import (ExperimentConfig, ExperimentResult, SynthPocketSpec,
                      generate_pocket_dataset, run_experiment)
from .probs import LemmaBoundInput, lemma_bound
from .sampling import RngState
from .strategies import StrategyConfig, StrategyKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4
EXIT_VACUOUS = 5

_STRATEGY_NAMES = {k.value: k for k in StrategyKind}

_RUN_KEYS = {
    "dataset_path": str,
    "label_column": str,
    "strategy": str,
    "epsilon": float,
    "chi": float,
    "exponent_d": float,
    "n0": int,
    "rounds": int,
    "batch": int,
    "trials": int,
    "holdout_fraction": float,
    "l2_reg": float,
    "max_iters": int,
    "tol": float,
    "master_seed": int,
    "out_dir": str,
}
_REQUIRED_KEYS = ("dataset_path", "label_column", "strategy", "out_dir")


class ConfigError(ValueError):
    pass


def parse_config(path) -> dict:
    """Flat key=value lines; blank lines and '#' comments allowed."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _RUN_KEYS[key](val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for key {key!r}: {val!r}") from None
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return values


def build_experiment_config(values: dict) -> ExperimentConfig:
    name = values["strategy"]
    if name not in _STRATEGY_NAMES:
        raise ConfigError(
            f"unknown strategy {name!r} for key 'strategy'; "
            f"choose from {sorted(_STRATEGY_NAMES)}"
        )
    try:
        strategy = StrategyConfig(
            kind=_STRATEGY_NAMES[name],
            epsilon=values.get("epsilon", 0.05),
            chi=values.get("chi", 0.05),
            exponent_d=values.get("exponent_d", 1.0),
        )
        fit_cfg = FitConfig(
            l2_reg=values.get("l2_reg", 1e-4),
            max_iters=values.get("max_iters", 500),
            tol=values.get("tol", 1e-6),
        )
        return ExperimentConfig(
            strategy=strategy,
            fit=fit_cfg,
            n0=values.get("n0", 100),
            rounds=values.get("rounds", 30),
            batch=values.get("batch", 30),
            trials=values.get("trials", 5),
            holdout_fraction=values.get("holdout_fraction", 0.25),
            master_seed=values.get("master_seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _record_line(rec) -> str:
    # elapsed_ms is wall-clock and would break byte-identical reruns; it is
    # reported in the manifest timing section instead
    return json.dumps({
        "trial": rec.trial,
        "round": rec.round,
        "selected_ids": list(rec.selected_ids),
        "labeled_count": rec.labeled_count,
        "holdout_accuracy": rec.holdout_accuracy,
    }, sort_keys=True)


def write_run_outputs(out_dir: Path, values: dict, cfg: ExperimentConfig,
                      result: ExperimentResult, dataset_checksum: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(_record_line(rec) + "\n")
    summary = {
        "dataset": Path(values["dataset_path"]).name,
        "strategy": values["strategy"],
        "trials": cfg.trials,
        "rounds": cfg.rounds,
        "batch": cfg.batch,
        "final_accuracies": list(result.final_accuracies),
        "final_accuracy_mean": result.final_accuracy_mean,
        "final_accuracy_std": result.final_accuracy_std,
        "single_trial": cfg.trials == 1,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "artifact_version": __version__,
        "numpy_version": np.__version__,
        "rng_algorithm": RngState.algorithm,
        "config": values,
        "dataset_sha256": dataset_checksum,
        "created_unix": time.time(),
        "elapsed_ms_per_record": [rec.elapsed_ms for rec in result.records],
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    try:
        values = parse_config(args.config)
        cfg = build_experiment_config(values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out_dir = Path(values["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        dataset = load_csv(values["dataset_path"], values["label_column"],
                           manifest_path=out_dir / "labels.json")
        checksum = _sha256(values["dataset_path"])
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        result = run_experiment(dataset, cfg)
        write_run_outputs(out_dir, values, cfg, result, checksum)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(result.records)} records to {values['out_dir']}; "
          f"final accuracy {100 * result.final_accuracy_mean:.2f} "
          f"± {100 * result.final_accuracy_std:.2f}")
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        inp = LemmaBoundInput(beta=args.beta, chi=args.chi, k=args.k, delta=args.delta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rep = lemma_bound(inp)
    except VacuousBoundError as exc:
        print(f"vacuous bound: eta={exc.eta:.6f} zeta={exc.zeta:.6f} p_s={exc.p_s:.6f}")
        print("the closed form guarantees nothing here; increase k or chi")
        return EXIT_VACUOUS
    print(f"eta={rep.eta:.6f}")
    print(f"zeta={rep.zeta:.6f}")
    print(f"p_s={rep.p_s:.6f}")
    print(f"n_s={rep.n_s}")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        spec = SynthPocketSpec(
            n=args.n, d=args.d, k=args.k, beta=args.beta,
            train_prevalence=tuple(_parse_prevalence(args.train_prevalence, args.k)),
            pool_prevalence=tuple(_parse_prevalence(args.pool_prevalence, args.k)),
            pocket_class=args.pocket_class, separation=args.separation,
            seed=args.seed, pocket_decoy=args.decoy,
            pocket_offset=args.pocket_offset,
            overlap_fraction=args.overlap_fraction,
        )
    except (ValueError, InfeasibleSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        dataset, pocket_ids = generate_pocket_dataset(spec)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(",".join(dataset.feature_names) + ",label\n")
            for i in range(dataset.n):
                feats = ",".join(repr(float(v)) for v in dataset.features[i])
                fh.write(f"{feats},{dataset.label_names[dataset.labels[i]]}\n")
        with open(str(out) + ".pocket.json", "w", encoding="utf-8") as fh:
            json.dump({"pocket_ids": sorted(pocket_ids),
                       "beta": spec.beta, "n": spec.n}, fh, indent=2)
            fh.write("\n")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {dataset.n} rows to {out} ({len(pocket_ids)} pocket ids in sidecar)")
    return EXIT_OK


def _parse_prevalence(text: str, k: int) -> list[float]:
    if text == "uniform":
        return [1.0 / k] * k
    return [float(x) for x in text.split(",")]


def cmd_report(args) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"error: results dir not found: {results_dir}", file=sys.stderr)
        return EXIT_DATA
    summaries = sorted(results_dir.glob("**/summary.json"))
    if not summaries:
        print(f"error: no summary.json files under {results_dir}", file=sys.stderr)
        return EXIT_DATA
    cells: dict[tuple[str, str], str] = {}
    sources: dict[tuple[str, str], Path] = {}
    datasets: list[str] = []
    strategies: list[str] = []
    for p in summaries:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                s = json.load(fh)
            ds, strat = s["dataset"], s["strategy"]
            mean, std = s["final_accuracy_mean"], s["final_accuracy_std"]
        except (json.JSONDecodeError, KeyError) as exc:
            print(f"error: malformed summary {p}: {exc}", file=sys.stderr)
            return EXIT_DATA
        if (ds, strat) in sources:
            print(f"error: duplicate summary for dataset {ds!r}, strategy {strat!r}: "
                  f"{sources[(ds, strat)]} and {p}", file=sys.stderr)
            return EXIT_DATA
        sources[(ds, strat)] = p
        cells[(ds, strat)] = f"{100 * mean:.2f} ± {100 * std:.2f}"
        if ds not in datasets:
            datasets.append(ds)
        if strat not in strategies:
            strategies.append(strat)
    if args.format == "md":
        print("| dataset | " + " | ".join(strategies) + " |")
        print("|---" * (len(strategies) + 1) + "|")
        for ds in datasets:
            row = [cells.get((ds, st), "-") for st in strategies]
            print(f"| {ds} | " + " | ".join(row) + " |")
    else:
        print("dataset," + ",".join(strategies))
        for ds in datasets:
            row = [cells.get((ds, st), "") for st in strategies]
            print(ds + "," + ",".join(row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alselect",
        description="Streaming entropy-weighted query selection for pool-based "
                    "active learning: experiments, bounds, synthetic data, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a key=value config file")
    p_run.add_argument("config", help="path to the config file")
    p_run.set_defaults(func=cmd_run)

    p_bound = sub.add_parser("bound", help="print the closed-form hitting bound")
    p_bound.add_argument("--beta", type=float, required=True)
    p_bound.add_argument("--chi", type=float, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--delta", type=float, required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_synth = sub.add_parser("synth", help="generate a synthetic pocket dataset CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--beta", type=float, required=True)
    p_synth.add_argument("--separation", type=float, default=6.0)
    p_synth.add_argument("--pocket-class", type=int, default=0)
    p_synth.add_argument("--decoy", type=int, default=None)
    p_synth.add_argument("--pocket-offset", type=float, default=3.25)
    p_synth.add_argument("--overlap-fraction", type=float, default=0.0)
    p_synth.add_argument("--train-prevalence", default="uniform",
                         help="comma-separated class weights or 'uniform'")
    p_synth.add_argument("--pool-prevalence", default="uniform",
                         help="comma-separated class weights or 'uniform'")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="render a dataset x strategy accuracy matrix")
    p_report.add_argument("results_dir")
    p_report.add_argument("--format", choices=("md", "csv"), default="md")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches our config exit code
        return int(exc.code) if exc.code else 0
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
