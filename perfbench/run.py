"""alselect benchmark: one workload, one run.

    python3 perfbench/run.py --workload pocket --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The workload's inputs are made from
--seed, its operations run in a closed loop for --seconds, and every
operation's output is checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates
untraced and traced cycles of the same operations and reports the
per-layer numbers from the traced ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import ROOT, MissingSourceError, machine_facts, use_source_tree  # noqa: E402
from probe import REFERENCE_S, SpeedSampler  # noqa: E402
from tracer import TraceSetupError  # noqa: E402
from workloads import sha256_file  # noqa: E402

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "op1_s": ("s", "lower"),
    "op2_s": ("s", "lower"),
    "op3_s": ("s", "lower"),
    "op4_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
WORK_DIR = ROOT / ".perfbench-work"
SETUP_TIMEOUT_S = 120


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Setup:
    """Makes the workload's inputs in a fresh interpreter and times it. The
    first set-up runs before any operation; `measure` repeats it between
    cycles, so that set-up times meet the same machine as the op times.
    Every repeat must write the same bytes as the first."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.times: list[float] = []
        self.factors: list[float] = []
        self.digests: dict[str, str] | None = None
        self.problems: list[str] = []

    def run(self) -> Path:
        out = self.work / f"inputs-{len(self.times)}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "make_inputs.py"), self.name, str(self.seed), str(out)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        self.factors.append(float(proc.stdout.split()[-1]))  # sampled by the set-up process
        digests = {p.name: sha256_file(p) for p in out.iterdir()}
        if self.digests is None:
            self.digests = digests
        else:
            if digests != self.digests:
                self.problems.append(f"set-up repeat {len(self.times)} wrote different bytes")
            shutil.rmtree(out)
        return out


class Runner:
    def __init__(self, workload, seed: int, speed: SpeedSampler, setup: Setup):
        self.wl = workload
        self.speed = speed
        self.setup = setup
        self.order_rng = random.Random(seed)
        self.samples: dict[str, list[float]] = {k: [] for k in workload.kinds}
        self.factors: dict[str, list[float]] = {k: [] for k in workload.kinds}
        self.last: dict[str, float] = {}
        self.ok: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def order(self) -> list[str]:
        kinds = list(self.wl.kinds)
        self.order_rng.shuffle(kinds)
        return kinds

    def cycle(self, kinds, index, tracer=None, deadline=None) -> list[float]:
        """Run the given kinds once each, skipping a kind whose last run
        would not end before `deadline`. Untraced ops are timed under the
        speed sampler. Checks run after the last op, so that they stay
        outside the traced spans. Returns the op times."""
        done = []
        for kind in kinds:
            if deadline is not None and time.perf_counter() + self.last[kind] > deadline:
                continue
            op = self.wl.op(kind, index, tracer)
            with contextlib.nullcontext([]) if tracer else self.speed.region() as samples:
                t0 = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a crashing operation is a failed one
                    result, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            if not tracer:
                self.factors[kind].append(self.speed.factor(samples))
            self.last[kind] = dt
            done.append((kind, op, result, error, dt))
        for kind, op, result, error, dt in done:
            try:
                problems = [error] if error else op.check(result)
            except Exception as exc:  # missing or unreadable output fails the op
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
            self.attempted += 1
            self.samples[kind].append(dt)
            if problems:
                self.failed += 1
                self.problems += [f"{kind} #{index}: {p}" for p in problems]
            else:
                self.ok[kind] += 1
        return [d[-1] for d in done]

    def apply_final_checks(self) -> None:
        try:
            found = self.wl.final_checks()
        except Exception as exc:  # unreadable outputs fail every op that passed
            found = [(kind, f"final check raised {type(exc).__name__}: {exc}") for kind in list(self.ok)]
        for kind, problem in found:
            self.failed += self.ok.pop(kind, 0)
            self.problems.append(f"{kind}: {problem}")


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seconds: float) -> tuple[float, float]:
    """Closed loop for `seconds`; returns the peak RSS in MB through the
    first cycle, where every kind has run once, and over the whole run."""
    start = time.perf_counter()
    index = 0
    done = runner.cycle(runner.order(), index)  # every kind at least once
    peak_rss_mb = rss_peak_mb()
    while done:
        for _ in range(runner.wl.setups_per_cycle):
            runner.setup.run()
        index += 1
        done = runner.cycle(runner.order(), index, deadline=start + seconds)
    runner.apply_final_checks()
    return peak_rss_mb, rss_peak_mb()


def measure_traced(runner: Runner, seconds: float, work: Path) -> dict[str, float]:
    from tracer import PER_LAYER, Tracer, combine_cycles, cycle_metrics

    tracer = Tracer()
    tracer.install()  # fails here, naming it, if a traced name is missing
    try:
        synth_ms = 0.0
        argv = runner.wl.synth_argv(work / "traced-synth" / "data.csv")
        if argv is not None:
            from workloads import _call_quiet
            rc, _, err = _call_quiet(tracer.entry("alselect.cli", "main"), argv)
            if rc != 0:
                raise RuntimeError(f"traced synth exited {rc}: {err.strip()}")
            synth_ms = tracer.summary()["cli.cmd_synth"]["ms"]
            tracer.reset()
    finally:
        tracer.uninstall()

    start = time.perf_counter()
    untraced, traced, cycles = [], [], []
    pair = 0
    while True:
        elapsed = time.perf_counter() - start
        # start another pair only if it should end within the run time
        if pair and elapsed * (pair + 1) / pair > seconds:
            break
        kinds = runner.order()
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    traced.append(1e3 * sum(runner.cycle(kinds, pair, tracer)))
                    cycles.append(cycle_metrics(tracer))
                    tracer.reset()
                finally:
                    tracer.uninstall()
            else:
                untraced.append(1e3 * sum(runner.cycle(kinds, pair)))
        pair += 1
    runner.apply_final_checks()

    m = combine_cycles(cycles)
    m["cli.cmd_synth.ms"] = synth_ms
    m["trace.untraced_ms"] = statistics.median(untraced)
    m["trace.traced_ms"] = statistics.median(traced)
    m["trace.overhead_ms"] = m["trace.traced_ms"] - m["trace.untraced_ms"]
    return {name: m[name] for name in PER_LAYER}


def report(name, value, unit, extra=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {extra}")


def run(args, work: Path) -> dict:
    from workloads import WORKLOADS
    wl_cls = WORKLOADS[args.workload]
    facts = {**machine_facts(), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    print(f"alselect benchmark: workload {args.workload} ({wl_cls.why})")
    print("facts: " + json.dumps(facts, sort_keys=True))

    speed = SpeedSampler()
    setup = Setup(args.workload, args.seed, work)
    wl = wl_cls(args.seed, work)
    wl.prepare(setup.run())
    wl.warmup()
    runner = Runner(wl, args.seed, speed, setup)

    if args.trace:
        from tracer import PER_LAYER
        metrics = measure_traced(runner, args.seconds, work)
        print("per-layer metrics (one traced cycle of every kind; times are medians over cycles):")
        for name, value in metrics.items():
            report(name, value, PER_LAYER[name][0])
        units = {name: PER_LAYER[name][0] for name in metrics}
    else:
        peak_rss_mb, run_peak_rss_mb = measure(runner, args.seconds)
        all_factors = [f for fs in runner.factors.values() for f in fs] + setup.factors
        factor = statistics.median(all_factors)
        print(f"end-to-end metrics: medians of times scaled to a {1e6 * REFERENCE_S:g} us speed "
              f"sample (median factor {factor:.4f}; raw medians and corrected tails in parentheses)")
        metrics = {}
        raw_medians = {}
        for i, kind in enumerate(wl.kinds, 1):
            raw = runner.samples[kind]
            corrected = [t * f for t, f in zip(raw, runner.factors[kind])]
            metrics[f"op{i}_s"] = statistics.median(corrected)
            raw_medians[f"op{i}_s"] = statistics.median(raw)
            t = tail(corrected)
            extra = (f"({kind}, n={len(raw)}, raw median {raw_medians[f'op{i}_s']:.4g}s"
                     + (f", p{t[0]:.0f} {t[1]:.4g}s)" if t else "; too few samples for a tail)"))
            report(f"op{i}_s", metrics[f"op{i}_s"], "s", extra)
        metrics["setup_s"] = statistics.median(t * f for t, f in zip(setup.times, setup.factors))
        raw_medians["setup_s"] = statistics.median(setup.times)
        report("setup_s", metrics["setup_s"], "s",
               f"(n={len(setup.times)}, raw median {raw_medians['setup_s']:.4g}s)")
        metrics["peak_rss_mb"] = peak_rss_mb
        report("peak_rss_mb", peak_rss_mb, "MB",
               f"(through warm-up and the first cycle; {run_peak_rss_mb:.5g} MB over the whole run)")
        units = {name: END_TO_END[name][0] for name in metrics}
        print("samples: " + json.dumps({"kinds": list(wl.kinds), "op_s": runner.samples,
                                        "op_factor": runner.factors, "setup_s": setup.times,
                                        "setup_factor": setup.factors, "speed_factor": factor,
                                        "raw_median_s": raw_medians,
                                        "run_peak_rss_mb": run_peak_rss_mb,
                                        **wl.extra_report()}))

    runner.problems += setup.problems
    for p in runner.problems:
        print(f"check failed: {p}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed")
    return {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pocket", "large-pool", "bound-mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        use_source_tree()
    except MissingSourceError as exc:
        print(f"error: {exc}; run from the root of an alselect checkout", file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except TraceSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
