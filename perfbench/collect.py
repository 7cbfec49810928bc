#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --workloads search-100k --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

For every seed, and every workload per seed (interleaved, so a slow spell
of the host is not read as one workload's seed spread), it runs
`bash perfbench/run.sh ... --trace 0` from the repository root. Then it
prints each end-to-end metric's median and its quartile spread --
(Q3 - Q1) / median over the seeds, with Q1/Q3 from
statistics.quantiles(values, n=4) -- beside the bound in BENCHMARK.json.
With --sets N it repeats the sweep and prints how much worse each later
set's median is than the first set's. Runs that report correct: false
are listed and left out of the figures. With --out it also writes the
baseline: host, commit, seeds, corpora, server flags, sample counts
behind every percentile, and every value.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, p.returncode))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    detail = None
    if not result["correct"]:
        sys.stderr.write("%s seed %d:\n%s\n" % (workload, seed, "\n".join(
            l for l in p.stderr.splitlines()
            if l.startswith(("perfbench: failed", "perfbench: only", "perfbench: a request",
                             "perfbench: traced", "perfbench: write audit", "  got", "  want")))))
    for line in p.stderr.splitlines():
        if line.startswith("perfbench-detail: "):
            detail = json.loads(line[len("perfbench-detail: "):])
    return result, detail, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def host():
    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""

    model = next((l.split(":", 1)[1].strip() for l in read("/proc/cpuinfo").splitlines()
                  if l.startswith("model name")), platform.processor())
    l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()

    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l3": l3,
        "mem_total_kb": next((int(l.split()[1]) for l in read("/proc/meminfo").splitlines()
                              if l.startswith("MemTotal")), None),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocaml", "-vnum"]),
        "commit": out(["git", "rev-parse", "HEAD"]),
    }


def summarise(runs, metrics):
    table = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]] for r in runs if r["correct"]]
        if not vals:
            continue
        entry = {"median": statistics.median(vals), "values": vals}
        if len(vals) >= 2:
            entry["spread"] = spread(vals)
        if "bound" in m:
            entry["bound"] = m["bound"]
        table[m["name"]] = entry
    return table


def worse_by(m, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return float("nan")
    change = (later - first) / first
    return change if m["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1,
                    help="repeat the whole sweep; later sets are compared to the first")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    expected = {m["name"] for m in metrics}
    workloads = args.workloads.split(",")
    seeds = seeds_of(args.seeds)
    summary = {"host": host(), "seconds": seconds, "trace": args.trace, "seeds": seeds,
               "order": "per set: seeds in turn, every workload per seed", "sets": []}
    for k in range(args.sets):
        runs = {w: [] for w in workloads}
        # interleaved: a slow spell of the host lands on every workload
        # and on several seeds, instead of on the last seeds of one workload
        for seed in seeds:
            for workload in workloads:
                result, detail, wall = run_once(workload, seed, seconds, args.trace)
                got = set(result["metrics"])
                if got != expected:
                    raise SystemExit("%s: metrics %s differ from BENCHMARK.json"
                                     % (workload, sorted(got ^ expected)))
                correct = bool(result["correct"]) and not result["failed"]
                runs[workload].append({
                    "seed": seed, "wall_s": round(wall, 1), "correct": correct,
                    "attempted": result["attempted"], "failed": result["failed"],
                    "detail": detail,
                    "metrics": {n: v["value"] for n, v in result["metrics"].items()}})
                print("set %d %s seed %d: %.0f s%s  %s" % (
                    k + 1, workload, seed, wall, "" if correct else "  INCORRECT",
                    "  ".join("%s=%.4g" % (n, v["value"])
                              for n, v in result["metrics"].items())), flush=True)
        entry = {}
        for workload in workloads:
            table = summarise(runs[workload], metrics)
            bad = [r["seed"] for r in runs[workload] if not r["correct"]]
            print("set %d %s%s" % (k + 1, workload,
                                   "  incorrect seeds %s (left out below)" % bad if bad else ""))
            for m in metrics:
                e = table.get(m["name"])
                if e is None or "bound" not in m or "spread" not in e:
                    continue
                if m["name"] == "setup_s":
                    flag = "(spread not gated)"
                else:
                    flag = "ok" if e["spread"] < m["bound"] / 3 else (
                        "WIDE" if e["spread"] <= m["bound"] else "FAIL")
                line = "  %-22s median %12.5g  spread %.4f  bound %.2f  %s" % (
                    m["name"], e["median"], e["spread"], m["bound"], flag)
                if k > 0 and "bound" in m:
                    first = summary["sets"][0]["workloads"][workload]["metrics"].get(m["name"])
                    if first:
                        w = worse_by(m, first["median"], e["median"])
                        e["worse_than_set1"] = w
                        line += "  vs set 1: %+.4f %s" % (w, "ok" if w <= m["bound"] else "FAIL")
                print(line)
            entry[workload] = {"runs": runs[workload], "metrics": table, "incorrect_seeds": bad}
        summary["sets"].append({"workloads": entry})
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
