#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command of BENCHMARK.json untraced for `run_seconds`, once per
seed (ten seeds), on every workload, and prints for every end-to-end
metric its median, first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound. With `--sets 2` it does so
twice, the second set on the next ten seeds, and also prints how much
worse the second set's median is than the first's, as a share of the
first. A run that is not correct stops the check.

Run from the root of the repository:

    python3 perfbench/steadiness.py --sets 2 --out perfbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10  # seeds per workload and set; set s uses seeds RUNS*s+1 .. RUNS*(s+1)


def run_set(bench, seeds):
    """Every end-to-end metric's values over `seeds`, by workload."""
    summary = {}
    for w in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                sys.exit(f"{w} seed {seed} failed ({out.returncode}):\n{out.stderr}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[w] = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            summary[w][m["name"]] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": v,
            }
            print(f"{w:9} {m['name']:17} median {q2:11.4f} {m['unit']:3} "
                  f"q1 {q1:11.4f} q3 {q3:11.4f} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f}", flush=True)
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=1, help="sets of runs, each on fresh seeds")
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    sets = []
    for s in range(args.sets):
        first = s * RUNS + 1
        print(f"set {s + 1}: seeds {first}..{first + RUNS - 1}", flush=True)
        sets.append({
            "first_seed": first,
            "workloads": run_set(bench, range(first, first + RUNS)),
        })
    # How much worse each later set's median reads than the first set's.
    for s, later in enumerate(sets[1:], start=2):
        later["median_worse_than_set_1"] = {}
        for w in later["workloads"]:
            for m in bench["end_to_end"]:
                a = sets[0]["workloads"][w][m["name"]]["median"]
                b = later["workloads"][w][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                later["median_worse_than_set_1"].setdefault(w, {})[m["name"]] = worse
                print(f"set {s} {w:9} {m['name']:17} median worse by {worse:+.3f} "
                      f"(bound {m['bound']:.2f})", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": RUNS, "seconds": bench["run_seconds"], "sets": sets}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
