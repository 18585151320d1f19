"""Command-line interface.

Subcommands: run (experiment from a flat key=value config file), bound
(closed-form hitting bound), synth (write a synthetic pocket dataset to
CSV), report (render a dataset x strategy accuracy matrix).

Exit codes: 0 ok, 2 config/flag errors, 3 data errors, 4 runtime errors,
5 vacuous bound. Commands raise; `main` alone turns an exception into an
exit code and prints it with its notes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import FitConfig
from .data import load_csv
from .errors import ConfigError, DataFormatError, VacuousBoundError
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

_REQUIRED_KEYS = ("dataset_path", "label_column", "strategy", "out_dir")
# the required keys, then every numeric config field, parsed by its default's type
_RUN_KEYS = dict.fromkeys(_REQUIRED_KEYS, str) | {
    f.name: type(f.default)
    for cls in (StrategyConfig, FitConfig, ExperimentConfig)
    for f in dataclasses.fields(cls) if type(f.default) in (int, float)
}
# the summary.json keys `report` reads, with their JSON types (bool is not numeric)
_SUMMARY_TYPES = {"dataset": (str,), "strategy": (str,),
                  "final_accuracy_mean": (int, float), "final_accuracy_std": (int, float)}


def parse_config(path) -> dict:
    """Flat key=value lines; blank lines and '#' comments allowed."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    """The run config for parsed values; a key the values leave out takes
    the default of the config dataclass field it names."""
    name = values["strategy"]
    if name not in _STRATEGY_NAMES:
        raise ConfigError(
            f"unknown strategy {name!r} for key 'strategy'; "
            f"choose from {sorted(_STRATEGY_NAMES)}"
        )

    def given(cls) -> dict:
        # values["strategy"] is the kind's name, not a StrategyConfig
        return {f.name: values[f.name] for f in dataclasses.fields(cls)
                if f.name in values and f.name != "strategy"}

    try:
        return ExperimentConfig(
            strategy=StrategyConfig(kind=_STRATEGY_NAMES[name], **given(StrategyConfig)),
            fit=FitConfig(**given(FitConfig)),
            **given(ExperimentConfig),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _record_line(rec) -> str:
    # elapsed_ms is wall-clock and would break byte-identical reruns; it is
    # reported in the manifest timing section instead. dataclasses.asdict
    # would deep-copy the selected-id tuple for nothing.
    return json.dumps({f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
                       if f.name != "elapsed_ms"}, sort_keys=True)


@contextlib.contextmanager
def _new_file(path: Path):
    """Yield a new file at `path` for writing; remove it if the block or close raises."""
    fh = open(path, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink()
        raise


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    with _new_file(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_run_outputs(out_dir: Path, values: dict, cfg: ExperimentConfig,
                      result: ExperimentResult, dataset_checksum: str,
                      label_names: tuple[str, ...]) -> None:
    """Write the four run files into a sibling temp directory, then rename it
    onto `out_dir`, so `out_dir` ends up holding all four or not existing."""
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
    manifest = {
        "artifact_version": __version__,
        "numpy_version": np.__version__,
        "rng_algorithm": RngState.algorithm,
        "config": values,
        "dataset_sha256": dataset_checksum,
        "created_unix": time.time(),
        "elapsed_ms_per_record": [rec.elapsed_ms for rec in result.records],
    }
    # claim out_dir first: a rename onto an empty directory would silently
    # replace one that appeared during the run
    out_dir.mkdir(parents=True, exist_ok=False)
    tmp = Path(tempfile.mkdtemp(dir=out_dir.parent, prefix=f".{out_dir.name}."))
    try:
        _write_json(tmp / "labels.json", {name: i for i, name in enumerate(label_names)},
                    sort_keys=False)
        with open(tmp / "records.jsonl", "x", encoding="utf-8") as fh:
            fh.writelines(_record_line(rec) + "\n" for rec in result.records)
        _write_json(tmp / "summary.json", summary)
        _write_json(tmp / "manifest.json", manifest)
        shutil.copymode(out_dir, tmp)  # mkdtemp makes it 0o700; keep mkdir's umask mode
        os.replace(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        out_dir.rmdir()
        raise


def cmd_run(args) -> int:
    values = parse_config(args.config)
    cfg = build_experiment_config(values)
    out_dir = Path(values["out_dir"])
    if out_dir.exists():
        raise ConfigError(f"out_dir {out_dir} already exists; a run never overwrites a result")
    ancestor = next(a for a in out_dir.parents if a.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"out_dir {out_dir} cannot be created: {ancestor} is not a directory")
    dataset = load_csv(values["dataset_path"], values["label_column"])
    checksum = _sha256(values["dataset_path"])
    result = run_experiment(dataset, cfg)
    write_run_outputs(out_dir, values, cfg, result, checksum, dataset.label_names)
    print(f"wrote {len(result.records)} records to {values['out_dir']}; "
          f"final accuracy {100 * result.final_accuracy_mean:.2f} "
          f"± {100 * result.final_accuracy_std:.2f}")
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        inp = LemmaBoundInput(beta=args.beta, chi=args.chi, k=args.k, delta=args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    out = Path(args.out)
    sidecar = Path(f"{out}.pocket.json")
    for path in (out, sidecar):
        if path.exists():
            raise ConfigError(f"{path} already exists; synth never overwrites a file")
    train_prevalence = _parse_prevalence(args.train_prevalence, args.k, "--train-prevalence")
    pool_prevalence = _parse_prevalence(args.pool_prevalence, args.k, "--pool-prevalence")
    try:
        spec = SynthPocketSpec(
            n=args.n, d=args.d, k=args.k, beta=args.beta,
            train_prevalence=train_prevalence, pool_prevalence=pool_prevalence,
            pocket_class=args.pocket_class, separation=args.separation,
            seed=args.seed, pocket_decoy=args.decoy,
            pocket_offset=args.pocket_offset,
            overlap_fraction=args.overlap_fraction,
        )
        dataset, pocket_ids = generate_pocket_dataset(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out.parent.mkdir(parents=True, exist_ok=True)
    with _new_file(out) as fh:
        fh.write(",".join(dataset.feature_names) + ",label\n")
        for row, label in zip(dataset.features.tolist(), dataset.labels.tolist()):
            fh.write(f"{','.join(map(repr, row))},{dataset.label_names[label]}\n")
    try:
        _write_json(sidecar, {"pocket_ids": sorted(pocket_ids), "beta": spec.beta, "n": spec.n},
                    sort_keys=False)
    except BaseException:
        out.unlink()  # leave both files or neither
        raise
    print(f"wrote {dataset.n} rows to {out} ({len(pocket_ids)} pocket ids in sidecar)")
    return EXIT_OK


def _parse_prevalence(text: str, k: int, flag: str) -> tuple[float, ...]:
    if text == "uniform":
        return (1.0 / k,) * k
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers or 'uniform', "
                          f"got {text!r}") from None


def cmd_report(args) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        raise DataFormatError(f"results dir not found: {results_dir}")
    summaries = sorted(results_dir.glob("**/summary.json"))
    if not summaries:
        raise DataFormatError(f"no summary.json files under {results_dir}")
    cells: dict[tuple[str, str], str] = {}
    sources: dict[tuple[str, str], Path] = {}
    datasets: list[str] = []
    strategies: list[str] = []
    for p in summaries:
        try:
            s = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
            raise DataFormatError(f"malformed summary {p}: {exc}") from None
        if not isinstance(s, dict) or any(type(s.get(k)) not in t
                                          for k, t in _SUMMARY_TYPES.items()):
            raise DataFormatError(f"malformed summary {p}: expected an object with string "
                                  "dataset and strategy and numeric final_accuracy_mean and "
                                  "final_accuracy_std")
        ds, strat = s["dataset"], s["strategy"]
        mean, std = s["final_accuracy_mean"], s["final_accuracy_std"]
        if (ds, strat) in sources:
            raise DataFormatError(f"duplicate summary for dataset {ds!r}, strategy {strat!r}: "
                                  f"{sources[(ds, strat)]} and {p}")
        sources[(ds, strat)] = p
        cells[(ds, strat)] = f"{100 * mean:.2f} ± {100 * std:.2f}"
        if ds not in datasets:
            datasets.append(ds)
        if strat not in strategies:
            strategies.append(strat)
    if args.format == "md":
        def md_cell(cell):
            # a line break would end the table row; <br> keeps it inside the cell
            cell = cell.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")
            return cell.replace("|", "\\|")

        def md_row(row):
            return "| " + " | ".join(map(md_cell, row)) + " |"

        print(md_row(["dataset", *strategies]))
        print("|---" * (len(strategies) + 1) + "|")
        for ds in datasets:
            print(md_row([ds, *(cells.get((ds, st), "-") for st in strategies)]))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["dataset", *strategies])
        for ds in datasets:
            writer.writerow([ds, *(cells.get((ds, st), "") for st in strategies)])
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
    p_synth.add_argument("--decoy", type=int, default=SynthPocketSpec.pocket_decoy)
    p_synth.add_argument("--pocket-offset", type=float, default=SynthPocketSpec.pocket_offset)
    p_synth.add_argument("--overlap-fraction", type=float,
                         default=SynthPocketSpec.overlap_fraction)
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
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        for note in getattr(exc, "__notes__", ()):
            print(f"  {note}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        if isinstance(exc, DataFormatError):
            return EXIT_DATA
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())
