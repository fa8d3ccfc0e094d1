"""Run-to-run spread of the end-to-end metrics over several workload seeds.

Runs `perfbench/run.py` once per seed, one run after the other, and prints for
each end-to-end metric the median, the quartiles, and the interquartile
distance as a share of the median next to the metric's bound in
BENCHMARK.json.

Usage (from the checkout root):
    python3 perfbench/spread.py --workload kappa_sweep --seeds 0-9
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-1000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:<14} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={m['bound']} "
              f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
