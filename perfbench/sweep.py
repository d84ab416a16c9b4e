"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1]
                               [--record perfbench/baseline.json]

Run from the root of a source checkout.  For each workload it runs
``run.py`` once per seed with BENCHMARK.json's ``run_seconds`` and prints,
for every metric, its unit, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median next to the metric's bound.  ``--record`` writes these figures as
JSON, so a later change can cite the baseline it was measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    """The hardware the figures were taken on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        rows = {}
        print(f"{workload}: {len(seeds)} runs of {spec['run_seconds']} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = summarize(values)
            row["unit"] = results[0]["metrics"][name]["unit"]
            rows[name] = row
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f}  spread/bound {row['spread'] / bound:.2f}"
            print(f"  {name:40s} {row['median']:12.5g} {row['unit']:6s} "
                  f"q1 {row['q1']:.5g} q3 {row['q3']:.5g} spread {row['spread']:.3f}  {verdict}",
                  flush=True)
        summary[workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
        }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({"machine": machine(), "run_seconds": spec["run_seconds"],
                       "trace": args.trace, "workloads": summary},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
