#!/usr/bin/env python3
"""Run workloads over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workloads kernel_sweep,serve_offline \
        --seeds 101-110 [--trace] [--out FILE.json]

For every workload, runs perfbench/run.py once per seed with
BENCHMARK.json's run_seconds and prints, per end-to-end metric, the
median, the first and third quartiles (statistics.quantiles, n=4), and
the quartile spread as a share of the median next to the metric's bound
and a third of it. With --trace it runs the traced mode instead and
reports the per-layer medians. --out saves every run's values, the
summary and a host descriptor as JSON.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "machine": platform.machine()}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"host": host(), "run_seconds": spec["run_seconds"], "seeds": seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], int(args.trace))
                for s in seeds]
        summary = {}
        print("%s (%d seeds)" % (workload, len(seeds)))
        for name in runs[0]:
            values = [r[name] for r in runs]
            s = summarize(values) if len(values) > 1 else {"median": values[0]}
            summary[name] = s
            if args.trace:
                print("  %-40s %.6g" % (name, s["median"]))
                continue
            bound = bounds[name]
            flag = "ok" if s["spread"] < bound / 3 or name == "setup_s" else "WIDE"
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f, third %.4f) %s" % (name, s["median"], s["q1"],
                                                   s["q3"], s["spread"], bound,
                                                   bound / 3, flag))
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
