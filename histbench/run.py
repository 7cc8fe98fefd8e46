#!/usr/bin/env python3
"""Builds the historian benchmark from this checkout and runs it.

One workload (what BENCHMARK.json's command runs):

    python3 histbench/run.py --workload ingest_steady --seed 1 --seconds 30 --trace 0

The last line of stdout is the run's JSON result; the exit code is non-zero
when the build fails, an op fails or an answer is wrong.

Steadiness report (each workload repeated with consecutive seeds; prints the
median, the quartiles and the quartile spread of every end-to-end metric
against its bound in BENCHMARK.json):

    python3 histbench/run.py --steadiness --runs 10 [--workloads a,b] \
        [--first-seed 1] [--save out.json] [--against earlier.json]

Exact-counter self-check (each workload run twice on each seed; the EXACT
line must repeat bit for bit):

    python3 histbench/run.py --selfcheck [--seeds 1,2]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; traced runs write their spans there too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest_steady", "dashboard_live", "history_scan"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "histbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(out, "histbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True) as proc:
        try:
            text, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"{workload} seed {seed}: timed out", file=sys.stderr)
            return 124, None
    return proc.returncode, text


def result_of(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def exact_of(text):
    for line in (text or "").splitlines():
        if line.startswith("EXACT "):
            return json.loads(line[len("EXACT "):])
    return None


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def steadiness(binary, args):
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    table = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, text = run_once(binary, w, seed, seconds, 0, True)
            res = result_of(text)
            if code != 0 or res is None or not res.get("correct"):
                print(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        table[w] = values
        print(f"\n{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            if name == "setup_s":
                verdict = "(set-up: spread not gated)"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"  {name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(table, f, indent=1)
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
        print("median drift against", args.against)
        for w, values in table.items():
            for name, vals in values.items():
                before = earlier.get(w, {}).get(name)
                if not before:
                    continue
                m0, m1 = statistics.median(before), statistics.median(vals)
                worse = (m1 - m0) / m0 if bounds[name]["better"] == "lower" \
                    else (m0 - m1) / m0
                verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
                if verdict != "ok":
                    ok = False
                print(f"  {w:15} {name:24} {m0:14.6g} -> {m1:14.6g} "
                      f"({worse:+.4f} worse, bound {bounds[name]['bound']}) "
                      f"{verdict}")
    return 0 if ok else 1


def selfcheck(binary, args):
    ok = True
    for w in WORKLOADS:
        for seed in [int(s) for s in args.seeds.split(",")]:
            exact = []
            for _ in range(2):
                # The exact counters come from the set-up, so a short
                # measured phase is enough (its p99 may lack support).
                _, text = run_once(binary, w, seed, args.seconds or 2, 0,
                                   True)
                exact.append(exact_of(text))
            same = exact[0] is not None and exact[0] == exact[1]
            ok = ok and same
            print(f"{w} seed {seed}: "
                  f"{'exact counters repeat' if same else 'DRIFT'} "
                  f"({len(exact[0] or {})} counters)")
            if not same:
                print(f"  first:  {exact[0]}\n  second: {exact[1]}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--seeds", default="1,2")
    args = p.parse_args()
    if not (args.steadiness or args.selfcheck or args.workload):
        p.error("give --workload, --steadiness or --selfcheck")

    binary = build()
    if binary is None:
        return 2
    if args.steadiness:
        return steadiness(binary, args)
    if args.selfcheck:
        return selfcheck(binary, args)
    code, _ = run_once(binary, args.workload, args.seed,
                       args.seconds or load_bounds()[1], args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
