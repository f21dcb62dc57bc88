#!/usr/bin/env python3
"""Repeat the end-to-end benchmark and summarise how steady it is.

Runs every workload several times, each with another seed, and prints
for every metric the median, the quartiles and the spread (interquartile
distance as a share of the median, computed with
statistics.quantiles(values, n=4) as the acceptance rule does), next to
the metric's bound from BENCHMARK.json. With --sets 2 it runs two sets
of the same code and prints how far the second median moved from the
first. With --traced N it also runs N traced runs per workload and
prints the tracing overhead: traced over untraced medians of every
end-to-end metric, which traced runs print to standard error.

    python3 e2ebench/repeat.py --runs 10 --seconds 25
    python3 e2ebench/repeat.py --workloads rollback-storm --runs 5 --sets 2
    python3 e2ebench/repeat.py --runs 3 --traced 3 --json .bench_build/repeat.json

Run it from the checkout root. Every run is printed as it finishes.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

TRACED_LINE = re.compile(r"traced end-to-end (\S+) = (\S+)")


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    traced = {m: float(v) for m, v in TRACED_LINE.findall(proc.stderr)}
    return result, traced


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs (2 compares medians)")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="first seed; each run takes the next")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload for the overhead")
    ap.add_argument("--json", default="", help="also write every value to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    report = {}
    seed = args.seed
    for wl in workloads:
        sets = []
        for s in range(args.sets):
            values, shares = {}, []
            for _ in range(args.runs):
                res, _ = run_once(wl, seed, seconds, 0)
                print(f"{wl} set {s + 1} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)
                seed += 1
                shares.append(res["failed"] / res["attempted"])
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append((values, shares))
        report[wl] = {"sets": [{"values": v, "failed_share": sh} for v, sh in sets]}

        print(f"\n== {wl}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name in sorted(sets[0][0]):
            bound = bounds.get(name)
            for i, (values, _) in enumerate(sets):
                med, q1, q3, spread = summarise(values[name])
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                label = name if i == 0 else f"  set {i + 1}"
                print(f"{label:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound if bound is not None else '':>6}  {verdict}")
            if len(sets) > 1 and bound is not None:
                m1, m2 = statistics.median(sets[0][0][name]), statistics.median(sets[1][0][name])
                higher_better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name) == "higher"
                worse = (m1 - m2) / m1 if higher_better else (m2 - m1) / m1
                print(f"{'  second vs first':<20} {worse:>+12.3f} {'(worse if > 0)':>26} {'ok' if worse <= bound else 'MOVED'}")
        for i, (_, shares) in enumerate(sets):
            print(f"failed share, set {i + 1}: {sorted(set(shares))}")

        if args.traced:
            traced = {}
            for _ in range(args.traced):
                _, t = run_once(wl, seed, seconds, 1)
                print(f"{wl} traced seed {seed}", flush=True)
                seed += 1
                for name, v in t.items():
                    traced.setdefault(name, []).append(v)
            print(f"tracing overhead on {wl} (traced median / untraced median - 1):")
            for name in sorted(traced):
                untraced = statistics.median(sets[0][0][name])
                print(f"  {name:<20} {statistics.median(traced[name]) / untraced - 1:+.3f}")
            report[wl]["traced"] = traced

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
