"""The benchmark's own test.

    python3 perfbench/selftest.py [--workload pocket ...] [--seed 3]

Checks that:
  - BENCHMARK.json names exactly the metrics run.py and tracer.py report;
  - two traced runs of each workload report every per-layer metric, pass
    their output checks, and agree exactly on every count;
  - a traced name that does not exist makes the tracer fail and name it;
  - run.py exits non-zero without printing a result when the checkout
    holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import ROOT, use_source_tree  # noqa: E402
from run import END_TO_END, WORK_DIR  # noqa: E402
from tracer import PER_LAYER, TraceSetupError, Tracer, is_count  # noqa: E402


def check_manifest(failures: list[str]) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if e2e != END_TO_END:
        failures.append("BENCHMARK.json end_to_end does not match run.END_TO_END")
    if layer != PER_LAYER:
        failures.append("BENCHMARK.json per_layer does not match tracer.PER_LAYER")
    return [w["name"] for w in bench["workloads"]]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"traced {workload} run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_counts_repeat(workload: str, seed: int, failures: list[str]) -> None:
    a, b = traced_run(workload, seed), traced_run(workload, seed)
    for res in (a, b):
        if not res["correct"] or res["failed"]:
            failures.append(f"{workload}: traced run failed its output checks")
        if set(res["metrics"]) != set(PER_LAYER):
            failures.append(f"{workload}: traced run metrics differ from PER_LAYER")
    for name in PER_LAYER:
        if is_count(name) and a["metrics"][name]["value"] != b["metrics"][name]["value"]:
            failures.append(f"{workload}: count {name} differs: "
                            f"{a['metrics'][name]['value']} vs {b['metrics'][name]['value']}")
    print(f"{workload}: counts repeat across two traced runs "
          f"({sum(1 for n in PER_LAYER if is_count(n))} counts)")


def check_missing_name(failures: list[str]) -> None:
    use_source_tree()
    from alselect import harness
    fit = harness.fit
    del harness.fit
    tracer = Tracer()
    try:
        tracer.install()
        failures.append("tracer installed although alselect.harness.fit is missing")
    except TraceSetupError as exc:
        if "alselect.harness.fit" not in str(exc):
            failures.append(f"tracer error does not name the missing function: {exc}")
    finally:
        tracer.uninstall()
        harness.fit = fit
    print("missing traced name: tracer fails and names it")


def check_bare_checkout(failures: list[str]) -> None:
    bare = WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "bound-mc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append("run.py in a checkout without sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print("checkout without sources: run.py exits non-zero, prints no result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    failures: list[str] = []
    workloads = check_manifest(failures)
    check_missing_name(failures)
    check_bare_checkout(failures)
    for wl in args.workload or workloads:
        check_counts_repeat(wl, args.seed, failures)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
