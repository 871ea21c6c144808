"""Steadiness check and traced comparison, over run.py in child processes.

    python3 bench/steady.py [--runs 10] [--workloads verify-d7,cli-cold]
    python3 bench/steady.py --traced [--seed 1]

The first form runs two sets of --runs runs of every workload, one seed per
run (set A takes seeds 1..runs, set B the next runs seeds), one run at a
time.  For every end-to-end metric it prints each set's median and quartiles,
the spread (q3 - q1) / median, and whether the two sets agree within the
metric's bound in BENCHMARK.json: the spread of each set within the bound
(setup_s exempt), set B's median no worse than set A's by more than the
bound, and the same share of failed operations.

The second form makes two traced runs of every workload with one seed,
prints the per-layer metrics with the tracing overhead, and checks that every
count repeats exactly.

Both write their table to bench/out/ and exit 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def steadiness(spec, workloads, runs, seconds):
    ok = True
    table = {}
    for w in workloads:
        sets = []
        for first in (1, runs + 1):
            results = []
            for seed in range(first, first + runs):
                r = run(spec, w, seed, seconds, 0)
                results.append(r)
                print(f"{w} seed {seed}: attempted {r['attempted']} failed "
                      f"{r['failed']} " + " ".join(
                          f"{k}={v['value']:.5g} {v['unit']}"
                          for k, v in r["metrics"].items()), flush=True)
            sets.append(results)
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        same_share = len(shares[0] | shares[1]) == 1
        correct = all(r["correct"] for s in sets for r in s)
        ok &= same_share and correct
        print(f"\n{w}: correct {correct}, failed share {sorted(shares[0] | shares[1])}")
        print(f"  {'metric':12} {'bound':>5}  {'A median [q1, q3]':>30} spread"
              f"  {'B median [q1, q3]':>30} spread  B worse  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in s])
                    for s in sets)
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
            verdict = spread_ok and worse <= bound
            ok &= verdict
            table.setdefault(w, {})[name] = {"A": a, "B": b, "b_worse": worse,
                                             "bound": bound, "agree": verdict}
            print(f"  {name:12} {bound:5.2f}  "
                  f"{a['median']:10.4g} [{a['q1']:.4g}, {a['q3']:.4g}]"
                  f" {a['spread']:6.3f}  "
                  f"{b['median']:10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f" {b['spread']:6.3f}  {worse:+7.3f}  "
                  f"{'agree' if verdict else 'DIFFER'}")
        print()
    return ok, table


def traced(spec, workloads, seed, seconds):
    ok = True
    table = {}
    for w in workloads:
        first, second = (run(spec, w, seed, seconds, 1) for _ in range(2))
        print(f"{w} (seed {seed}, per operation)")
        for name, m in first["metrics"].items():
            again = second["metrics"][name]["value"]
            same = m["unit"] != "count" or again == m["value"]
            ok &= same
            table.setdefault(w, {})[name] = [m["value"], again]
            print(f"  {name:30} {m['value']:12.5g} {again:12.5g} {m['unit']:6}"
                  f"{'' if same else '  COUNT DIFFERS'}")
        print()
    return ok, table


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    if args.traced:
        ok, table = traced(spec, workloads, args.seed, args.seconds)
        out = BENCH / "out" / "traced.json"
    else:
        ok, table = steadiness(spec, workloads, args.runs, args.seconds)
        out = BENCH / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    print("all agree" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
