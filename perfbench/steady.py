#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric repeatable within its bound?

Runs the benchmark command from BENCHMARK.json on each workload once per
seed, prints every metric's median, quartiles and relative spread
(interquartile range over median), and exits 1 when:

  * a run fails, prints no result, or reports correct=false;
  * an end-to-end metric's spread exceeds its bound (setup_s excepted:
    its median is compared between sets instead);
  * with --sets 2, a second set's median is worse than the first's by
    more than the bound, or the share of failed operations differs.

Run from the repository root:

  python3 perfbench/steady.py                    # 10 seeds, every workload
  python3 perfbench/steady.py --workloads node-mixed --seeds 5
  python3 perfbench/steady.py --sets 2           # two sets, seeds 1-10 and 11-20

Each invocation appends one summary line (medians per workload, machine
shape, commit) to perfbench/results/trajectory.jsonl.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1),
                    help="1 reports per-layer metrics, unbounded")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n]
    metrics = bench["per_layer"] if a.trace else bench["end_to_end"]
    ok = True
    summary = {}
    for w in names:
        sets = []
        for s in range(a.sets):
            runs = []
            for k in range(a.seeds):
                seed = 1 + s * a.seeds + k
                try:
                    r = run_once(bench["command"], w, seed, seconds, a.trace)
                except Exception as e:  # report and keep measuring the rest
                    print(f"FAIL {e}", file=sys.stderr)
                    ok = False
                    continue
                if not r["correct"]:
                    print(f"FAIL {w} seed {seed}: correct=false", file=sys.stderr)
                    ok = False
                runs.append(r)
            sets.append(runs)
        print(f"\n== {w} ({', '.join(str(len(r)) for r in sets)} runs, {seconds}s each)")
        print(f"{'metric':34} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        meds = []
        for s, runs in enumerate(sets):
            if len(runs) < 2:
                ok = False
                meds.append({})
                continue
            shares = {r["failed"] / r["attempted"] for r in runs}
            if len(shares) != 1:
                print(f"  set {s + 1}: failed share differs between runs: {sorted(shares)}")
                ok = False
            meds.append({"failed_share": shares.pop() if len(shares) == 1 else None})
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                bound = m.get("bound")
                if bound is None and not any(vals):  # a layer this workload does not exercise
                    continue
                med, q1, q3, sp = spread(vals)
                meds[s][m["name"]] = med
                flag = ""
                if bound is not None and m["name"] != "setup_s" and sp > bound:
                    flag = "  OVER"
                    ok = False
                print(f"{m['name']:34} {s + 1:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} "
                      f"{'' if bound is None else bound:>6}{flag}")
        if len(meds) == 2 and meds[0] and meds[1]:
            if meds[0]["failed_share"] != meds[1]["failed_share"]:
                print("  failed share differs between sets")
                ok = False
            for m in metrics:
                bound = m.get("bound")
                m1, m2 = meds[0].get(m["name"]), meds[1].get(m["name"])
                if bound is None or not m1 or m2 is None:
                    continue
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                if worse > bound:
                    print(f"  {m['name']}: set 2 median worse by {worse:.3f} > bound {bound}")
                    ok = False
        summary[w] = meds

    entry = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds_per_set": a.seeds,
        "trace": a.trace,
        "ok": ok,
        "medians": summary,
    }
    with open(os.path.join(ROOT, "perfbench", "results", "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(entry) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


if __name__ == "__main__":
    main()
