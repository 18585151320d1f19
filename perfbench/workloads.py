"""The benchmark's workloads: their inputs, their operations and the
checks on each operation's output.

Every workload runs four kinds of operation in a closed loop (each one
starts after the previous one finished). The end-to-end metrics `op1_s` ..
`op4_s` are the median drift-corrected wall times of the four kinds, in
the order of `Workload.kinds`:

  pocket, large-pool  `alselect run` with random, greedy, eps_greedy, weighted
  bound-mc            validate_lemma (criterion 4), 200k single draws
                      (criterion 2), 200k pair draws (criterion 3), and
                      validate_lemma with equal weights (closed-form hit rate)

Inputs are made by `make_inputs` in a fresh interpreter (see make_inputs.py),
so set-up time includes importing the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np


def _cli_main(tracer):
    from alselect import cli
    return tracer.entry("alselect.cli", "main") if tracer else cli.main


def _call_quiet(fn, argv):
    """Run a CLI entry point with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(argv)
    return rc, out.getvalue(), err.getvalue()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Op:
    """One operation: `call` is the timed region, `check` inspects its
    result afterwards and returns a list of problems (empty when correct)."""

    call: Callable[[], object]
    check: Callable[[object], list[str]]


class Workload:
    name: str
    kinds: tuple[str, str, str, str]
    why: str
    setups_per_cycle: int

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def synth_argv(self, out: Path) -> list[str] | None:
        """`alselect synth` arguments for this workload's dataset, or None."""
        return None

    def make_inputs(self, out_dir: Path) -> None:
        argv = self.synth_argv(out_dir / "data.csv")
        if argv is not None:
            from alselect.cli import main
            rc, _, err = _call_quiet(main, argv)
            if rc != 0:
                raise RuntimeError(f"synth exited {rc}: {err.strip()}")

    def prepare(self, inputs: Path) -> None:
        """Load what the checks need; runs once, untimed."""

    def warmup(self) -> None:
        """Run a small operation so lazy imports and caches settle."""

    def op(self, kind: str, index: int, tracer) -> Op:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, str]]:
        """Checks across operations: (kind the problem applies to, problem)."""
        return []

    def extra_report(self) -> dict:
        return {}


class _RunWorkload(Workload):
    """`alselect run` once per strategy on a CSV made by `alselect synth`."""

    kinds = ("random", "greedy", "eps_greedy", "weighted")
    run_keys: dict

    def prepare(self, inputs: Path) -> None:
        self.csv = inputs / "data.csv"
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, dict] = {}

    def config(self, kind: str, out_dir: Path, **overrides) -> Path:
        keys = {"dataset_path": self.csv, "label_column": "label", "strategy": kind,
                **self.run_keys, **overrides, "out_dir": out_dir}
        path = self.work / f"{out_dir.name}.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")
        return path

    def warmup(self) -> None:
        from alselect.cli import main
        out = self.work / "warmup"
        cfg = self.config("weighted", out, rounds=1)
        rc, _, err = _call_quiet(main, ["run", str(cfg)])
        if rc != 0:
            raise RuntimeError(f"warm-up run exited {rc}: {err.strip()}")
        shutil.rmtree(out)

    def op(self, kind: str, index: int, tracer) -> Op:
        out = self.work / f"{kind}-{index}"
        cfg = self.config(kind, out)
        main = _cli_main(tracer)

        def check(result) -> list[str]:
            rc, _, err = result
            if rc != 0:
                return [f"alselect run exited {rc}: {err.strip()}"]
            problems = self.check_outputs(kind, out)
            shutil.rmtree(out)
            return problems

        return Op(call=lambda: _call_quiet(main, ["run", str(cfg)]), check=check)

    def check_outputs(self, kind: str, out: Path) -> list[str]:
        problems = []
        digest = sha256_file(out / "records.jsonl")
        first = self.digests.setdefault(kind, digest)
        if digest != first:
            problems.append(f"records.jsonl differs between repeats ({digest[:12]} vs {first[:12]})")
        self.summaries[kind] = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        return problems

    def extra_report(self) -> dict:
        return {"records_sha256": dict(self.digests),
                "final_accuracy_pct": {k: round(100 * s["final_accuracy_mean"], 4)
                                       for k, s in self.summaries.items()}}


class Pocket(_RunWorkload):
    """Criterion 8's scenario, one trial per run. The seed only changes the
    order of the four runs within each cycle: data and configs are the
    acceptance suite's, so records.jsonl stays comparable with it."""

    name = "pocket"
    why = "criterion-8 pocket scenario on 8k rows; classifier.fit dominates, pool is small"
    setups_per_cycle = 2
    run_keys = {"chi": 0.25, "n0": 100, "rounds": 30, "batch": 30, "trials": 1,
                "master_seed": 99}

    def synth_argv(self, out: Path) -> list[str]:
        # exact fractions: the README's rounded 0.3667,0.5667,0.0667 sums to
        # 1.0001 and is refused
        prevalence = ",".join(repr(p) for p in (11 / 30, 17 / 30, 2 / 30))
        return ["synth", "--n", "8000", "--d", "10", "--k", "3", "--beta", "0.1",
                "--separation", "6", "--pocket-class", "1", "--decoy", "0",
                "--pocket-offset", "3.25", "--overlap-fraction", "0.2",
                "--pool-prevalence", prevalence, "--seed", "777", "--out", str(out)]

    def final_checks(self) -> list[tuple[str, str]]:
        acc = {k: 100 * s["final_accuracy_mean"] for k, s in self.summaries.items()}
        if not {"random", "greedy", "weighted"} <= acc.keys():
            return []
        gap = acc["random"] - acc["greedy"]
        wd = acc["weighted"] - max(acc["random"], acc["greedy"])
        if gap >= 3.0 and wd >= -2.0:
            return []
        problem = (f"criterion 8 failed: random-greedy {gap:+.2f} (need >= 3), "
                   f"weighted vs best {wd:+.2f} (need >= -2)")
        return [(k, problem) for k in ("random", "greedy", "weighted")]


class LargePool(_RunWorkload):
    """A 100k-row dataset with a small pocket and an overlap region; few
    rounds, so the labeled set stays small and the pool-side code dominates."""

    name = "large-pool"
    why = "100k-row pool, few rounds; CSV load, sampling loops and pool scoring dominate"
    setups_per_cycle = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        # no solver keys, so the configs stay valid when the solver changes
        self.run_keys = {"chi": 0.25, "n0": 60, "rounds": 5, "batch": 100, "trials": 1,
                         "master_seed": seed}

    def synth_argv(self, out: Path) -> list[str]:
        return ["synth", "--n", "100000", "--d", "10", "--k", "3", "--beta", "0.02",
                "--separation", "6", "--pocket-class", "1", "--decoy", "0",
                "--overlap-fraction", "0.05", "--seed", str(self.seed), "--out", str(out)]

    def prepare(self, inputs: Path) -> None:
        super().prepare(inputs)
        from alselect.cli import build_experiment_config
        from alselect.harness import holdout_ids
        keys = {"strategy": "random", **self.run_keys}
        self.n = sum(1 for _ in open(self.csv, encoding="utf-8")) - 1
        self.holdout = holdout_ids(self.n, build_experiment_config(keys))

    def check_outputs(self, kind: str, out: Path) -> list[str]:
        # criterion 7's invariants, re-checked from the written records
        problems = super().check_outputs(kind, out)
        k = self.run_keys
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        if len(records) != k["trials"] * (k["rounds"] + 1):
            problems.append(f"{len(records)} records, expected {k['trials'] * (k['rounds'] + 1)}")
        seen: set[int] = set()
        for rec in records:
            r = rec["round"]
            if rec["labeled_count"] != k["n0"] + r * k["batch"]:
                problems.append(f"round {r}: labeled_count {rec['labeled_count']}")
            sel = set(rec["selected_ids"])
            if len(sel) != (k["batch"] if r else 0):
                problems.append(f"round {r}: {len(sel)} distinct ids selected")
            if sel & seen:
                problems.append(f"round {r}: repeated selection")
            if sel & self.holdout:
                problems.append(f"round {r}: selected from holdout")
            if sel and (min(sel) < 0 or max(sel) >= self.n):
                problems.append(f"round {r}: id outside the dataset")
            seen |= sel
        return problems


# criterion 4: n=400, k=10, beta=0.05, chi=0.05, delta=0.1 -> n_s=124
LEMMA_REPEATS = 2000
DRAWS = 200_000
# equal weights as in the harness's closed-form test: delta=0.5 -> n_s=38
EQUAL_DELTA = 0.5
EQUAL_SE = 4.5


class BoundMC(Workload):
    """The Monte Carlo checks of the sampler and the hitting bound:
    thousands of short select_top_k streams, where per-call cost dominates."""

    name = "bound-mc"
    why = "hitting-bound Monte Carlo and single/pair draws; per-call select_top_k cost dominates"
    kinds = ("lemma", "single_draws", "pair_draws", "lemma_equal")
    setups_per_cycle = 2

    def lemma_spec(self):
        from alselect.harness import SynthPocketSpec
        return SynthPocketSpec(n=400, d=10, k=10, beta=0.05,
                               train_prevalence=(0.1,) * 10, pool_prevalence=(0.1,) * 10,
                               pocket_class=0, separation=6.0, seed=self.seed)

    def make_inputs(self, out_dir: Path) -> None:
        from alselect.probs import LemmaBoundInput, lemma_bound
        spec = self.lemma_spec()
        bound = lemma_bound(LemmaBoundInput(beta=spec.beta, chi=0.05, k=spec.k, delta=0.1))
        (out_dir / "inputs.json").write_text(json.dumps({
            "n_s": bound.n_s,
            "single_weights": [1.0, 2.0, 3.0, 4.0, 10.0],
            "pair_weights": [1.0, 2.0, 3.0, 4.0],
        }), encoding="utf-8")

    def prepare(self, inputs: Path) -> None:
        self.inputs = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
        self.spec = self.lemma_spec()
        w = self.inputs["pair_weights"]
        total = sum(w)
        exact: dict[frozenset, float] = {}
        for i, j in itertools.permutations(range(len(w)), 2):
            key = frozenset((i, j))
            exact[key] = exact.get(key, 0.0) + (w[i] / total) * (w[j] / (total - w[i]))
        self.pair_exact = exact

    def warmup(self) -> None:
        from alselect.harness import validate_lemma
        validate_lemma(self.spec, chi=0.05, delta=0.1, repeats=10)

    def _rng(self, kind: str, index: int):
        from alselect.sampling import RngState
        return RngState(self.seed).derive(self.kinds.index(kind), index)

    def op(self, kind: str, index: int, tracer) -> Op:
        return getattr(self, f"_op_{kind}")(index, tracer)

    def _op_lemma(self, index, tracer) -> Op:
        from alselect import harness
        validate = tracer.entry("alselect.harness", "validate_lemma") if tracer \
            else harness.validate_lemma
        spec = replace(self.spec, seed=self.seed * 100_003 + index)
        threshold = 0.9 - 3 * math.sqrt(0.09 / LEMMA_REPEATS)

        def check(rep) -> list[str]:
            problems = []
            if rep.bound.n_s != self.inputs["n_s"]:
                problems.append(f"n_s={rep.bound.n_s}, expected {self.inputs['n_s']}")
            if rep.hit_rate < threshold:
                problems.append(f"hit rate {rep.hit_rate:.4f} < {threshold:.4f}")
            return problems

        return Op(call=lambda: validate(spec, chi=0.05, delta=0.1, repeats=LEMMA_REPEATS),
                  check=check)

    def _draws(self, index, tracer, k, weights, span):
        from alselect import sampling
        rng = self._rng(span, index)
        items = list(enumerate(weights))

        def call():
            select = sampling.select_top_k  # the traced binding when tracing
            counts: dict = {}
            with tracer.span(f"bench.{span}") if tracer else contextlib.nullcontext():
                for _ in range(DRAWS):
                    key = frozenset(select(items, k, rng))
                    counts[key] = counts.get(key, 0) + 1
            return counts
        return call

    def _op_single_draws(self, index, tracer) -> Op:
        weights = self.inputs["single_weights"]
        expected = np.array(weights) / sum(weights)

        def check(counts) -> list[str]:
            freq = np.array([counts.get(frozenset((i,)), 0) for i in range(len(weights))]) / DRAWS
            dev = float(np.abs(freq - expected).max())
            return [] if dev < 0.005 else [f"max |freq - w/sum(w)| = {dev:.4f} >= 0.005"]

        return Op(call=self._draws(index, tracer, 1, weights, "single_draws"), check=check)

    def _op_pair_draws(self, index, tracer) -> Op:
        weights = self.inputs["pair_weights"]

        def check(counts) -> list[str]:
            if not counts.keys() <= self.pair_exact.keys():
                return ["a draw returned something other than a pair"]
            dev = max(abs(counts.get(p, 0) / DRAWS - q) for p, q in self.pair_exact.items())
            return [] if dev < 0.01 else [f"max |pair freq - enumeration| = {dev:.4f} >= 0.01"]

        return Op(call=self._draws(index, tracer, 2, weights, "pair_draws"), check=check)

    def _op_lemma_equal(self, index, tracer) -> Op:
        """Equal weights make every n_s-subset of the pool equally likely, so
        the hit rate has the exact value 1 - C(n-m, n_s) / C(n, n_s). The
        harness's own test compares with 1 - (1-beta)^n_s, which assumes
        independent draws and sits 1.8 standard errors below the exact rate
        at this repeat count; 3 of its standard errors around that
        approximation accept [exact - 4.9 se, exact + 1.3 se]. The check
        uses the exact rate and 4.5 se on both sides, so that a correct
        sampler fails about one operation in 150,000."""
        from alselect import harness
        validate = tracer.entry("alselect.harness", "validate_lemma") if tracer \
            else harness.validate_lemma
        spec = replace(self.spec, seed=self.seed * 100_003 + 1_000 + index)
        n, m = spec.n, round(spec.beta * spec.n)

        def check(rep) -> list[str]:
            n_s = rep.bound.n_s
            exact = 1.0 - math.comb(n - m, n_s) / math.comb(n, n_s)
            se = math.sqrt(exact * (1.0 - exact) / rep.repeats)
            if abs(rep.hit_rate - exact) > EQUAL_SE * se:
                return [f"equal-weight hit rate {rep.hit_rate:.4f}, exact {exact:.4f} "
                        f"(n_s={n_s}), off by more than {EQUAL_SE} se = {EQUAL_SE * se:.4f}"]
            return []

        return Op(call=lambda: validate(spec, chi=0.05, delta=EQUAL_DELTA, repeats=LEMMA_REPEATS,
                                        equal_weights=True),
                  check=check)

WORKLOADS = {w.name: w for w in (Pocket, LargePool, BoundMC)}
