#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        Build perfbench/main.exe with dune, then run it with these
        arguments (see perfbench/main.ml). The last line of standard
        output is the result object.

    python3 perfbench/run.py --steady N [--workload W]... [--seconds S]
        Steadiness mode: run each workload (default: all in
        BENCHMARK.json) N times untraced, seeds 1..N, and report for
        every end-to-end metric its median, quartiles and spread (the
        quartile distance over the median) against the metric's bound,
        plus the generator lateness on service-open. Exits 1 if a run
        fails or a spread (setup_s excepted) exceeds its bound.

Run it from the repository root; all output stays inside the checkout.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit(r.returncode or 1)


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = p.stdout.strip().splitlines()
    info = {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    result = json.loads(lines[-1]) if lines else {}
    return p.returncode, result, info


def steady(argv):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    n, seconds, chosen = 10, bench["run_seconds"], []
    it = iter(argv)
    for a in it:
        if a == "--steady":
            n = int(next(it))
        elif a == "--seconds":
            seconds = int(next(it))
        elif a == "--workload":
            chosen.append(next(it))
        else:
            sys.exit("unknown argument " + a)
    chosen = chosen or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in chosen:
        values, late = {}, []
        for seed in range(1, n + 1):
            code, res, info = run_once(w, seed, seconds)
            if code != 0 or not res.get("correct") or res.get("failed", 1) != 0:
                print(f"{w} seed {seed}: exit {code}, result {res}, info {info}")
                bad = True
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            if "server.gen_late_ms.max" in info:
                late.append(info["server.gen_late_ms.max"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                flush=True)
        print(f"\n{w}: {n} runs, {seconds} s each")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            vs = values.get(m["name"], [])
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag, bad = "  OVER BOUND", True
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {m['name']:<14} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                  f"{spread:>7.3f} {m['bound']:>6.2f}{flag}")
        if late:
            print(f"  server.gen_late_ms.max: median {statistics.median(late):.3f}"
                  f" max {max(late):.3f} ms")
    sys.exit(1 if bad else 0)


def main():
    os.chdir(ROOT)
    build()
    if "--steady" in sys.argv[1:]:
        steady(sys.argv[1:])
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
