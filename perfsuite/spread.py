#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread against its bounds.

usage: python3 perfsuite/spread.py [--workload NAME ...] [--runs 10]
                                   [--seconds S] [--trace 0|1] [--seed N]

Runs perfsuite/run.py --runs times per workload and prints, per metric, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. Without
--seed every run uses another seed (1, 2, ...); with --seed every run uses
that seed, which is the repeatability check (--runs 2 --seed 1 compares two
invocations of the same input and prints |delta| / mean). A spread at or
above a third of its bound is marked '!', at or above the bound 'FAIL'.
Exits 1 if any run failed or any spread other than setup_s's reached its
bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfsuite" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, help="same seed for every run")
    a = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for i in range(a.runs):
            seed = a.seed if a.seed is not None else i + 1
            res = run_once(w, seed, a.seconds, a.trace)
            if res is None or not res["correct"]:
                print(f"{w}: run with seed {seed} failed")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {a.runs} runs of {a.seconds} s")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], vs[0], vs[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread >= bound:
                    mark = "FAIL"
                    ok = ok and name == "setup_s"
                elif spread >= bound / 3:
                    mark = "!"
            extra = ""
            if len(vs) == 2 and med:
                extra = f"  |delta|/mean={abs(vs[0] - vs[1]) / med:.4f}"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound if bound is not None else '':>6}"
                  f" {mark}{extra}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
