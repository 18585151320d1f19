"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/summarize.py --seeds 1-10 [--workload pocket ...]
                                   [--out perfbench/baseline.json]

Every run lasts run_seconds from BENCHMARK.json, as in a compared run.

For every workload and end-to-end metric this prints the median of the
per-run values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, and flags spreads
of a third of the metric's bound in BENCHMARK.json or more. It pools the
drift-corrected operation times of all runs and reports each kind's median
and highest percentile with at least ten samples beyond it, and gives the
spread of the uncorrected medians and of the drift-correction factor, so
that a comparison can check that the factor did not move. Runs are
sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    facts = json.loads(next(l for l in lines if l.startswith("facts: "))[7:])
    samples = json.loads(next(l for l in lines if l.startswith("samples: "))[9:])
    samples["run_wall_s"] = time.perf_counter() - t0
    return result, facts, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in seeds:
            result, facts, samples = run_once(wl, seed, seconds)
            runs.append((result, samples))
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {vals} "
                  f"(run took {samples['run_wall_s']:.1f} s)", flush=True)
        out = {"facts": facts, "attempted": sum(r["attempted"] for r, _ in runs),
               "failed": sum(r["failed"] for r, _ in runs),
               "all_correct": all(r["correct"] for r, _ in runs),
               "run_wall_s_max": max(s["run_wall_s"] for _, s in runs), "metrics": {}, "ops": {}}
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            out["metrics"][name] = {"median": med, "unit": runs[0][0]["metrics"][name]["unit"],
                                    "quartile_spread": spread, "bound": bounds.get(name)}
            flag = "" if name not in bounds or spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"  {wl} {name}: median {med:.5g}, quartile spread {spread:.3f} "
                  f"(bound {bounds.get(name)}){flag}")
        kinds = runs[0][1]["kinds"]
        for i, kind in enumerate(kinds, 1):
            pooled = [t * f for _, s in runs for t, f in zip(s["op_s"][kind], s["op_factor"][kind])]
            t = tail(pooled)
            raw = [statistics.median(s["op_s"][kind]) for _, s in runs]
            q1, _, q3 = statistics.quantiles(raw, n=4)
            out["ops"][f"op{i}_s"] = {"kind": kind, "samples": len(pooled),
                                      "median_s": statistics.median(pooled),
                                      "tail": {"percentile": t[0], "s": t[1]} if t else None,
                                      "raw_median_s": statistics.median(raw),
                                      "raw_quartile_spread": (q3 - q1) / statistics.median(raw)}
            print(f"  {wl} op{i}_s ({kind}): raw wall-time median {statistics.median(raw):.4g}s, "
                  f"quartile spread {(q3 - q1) / statistics.median(raw):.3f}")
        factors = [s["speed_factor"] for _, s in runs]
        q1, _, q3 = statistics.quantiles(factors, n=4)
        out["speed_factor"] = {"median": statistics.median(factors),
                               "quartile_spread": (q3 - q1) / statistics.median(factors)}
        print(f"  {wl} speed_factor: median {out['speed_factor']['median']:.4f}, "
              f"quartile spread {out['speed_factor']['quartile_spread']:.3f}")
        extra = {k: v for k, v in runs[-1][1].items() if k in ("records_sha256", "final_accuracy_pct")}
        out.update(extra)
        summary["workloads"][wl] = out
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
