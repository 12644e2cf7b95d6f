#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with its own seed,
and print every metric's median, quartiles and relative spread.

    python3 perfbench/steady.py --workload suite --runs 10
    python3 perfbench/steady.py --workload service_jobs --runs 5 --trace 1

Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). With --trace 1 the traced runs also
report tracing overhead: the traced end-to-end medians against those of
untraced runs of the same seeds, each run right after its traced twin. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

RUN = ["bash", "perfbench/run.sh"]


def run_once(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result_s = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = result_s
    traced = {}
    for line in lines:
        if line.startswith("traced end-to-end "):
            traced = json.loads(line[len("traced end-to-end "):])
    return result, traced


def summary(name, values, unit):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    print(f"  {name:32s} median {med:14.6g} {unit:9s} q1 {q1:12.6g} q3 {q3:12.6g} "
          f"spread {spread:7.2%}  min {min(values):.6g} max {max(values):.6g}")
    return med


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    seeds = range(args.seed0, args.seed0 + args.runs)
    results, traced, plain = [], [], []
    for seed in seeds:
        r, t = run_once(args.workload, seed, args.seconds, args.trace)
        if args.trace == 1:
            # The untraced run of the same seed follows at once, so a
            # drift of the host's speed lands on both sides alike.
            plain.append(run_once(args.workload, seed, args.seconds, 0)[0])
        print(f"seed {seed}: {r['elapsed_s']:.1f}s correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())
                         if args.trace == 0), flush=True)
        results.append(r)
        traced.append(t)

    print(f"\n{args.workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
          f"{args.seconds}s each, trace={args.trace}")
    print("  all correct:", all(r["correct"] for r in results),
          " failed share:", sorted({r["failed"] / r["attempted"] for r in results}))
    names = sorted(results[0]["metrics"])
    for n in names:
        summary(n, [r["metrics"][n]["value"] for r in results], results[0]["metrics"][n]["unit"])

    if args.trace == 1:
        print("\ntraced end-to-end, and tracing overhead against untraced runs of the same seeds:")
        for n in sorted(traced[0]):
            if n == "max_rss_mb":
                continue
            t_med = summary(n + " (traced)", [t[n] for t in traced], "")
            p_med = statistics.median(r["metrics"][n]["value"] for r in plain)
            print(f"  {'':32s} untraced median {p_med:.6g}; overhead {t_med / p_med - 1:+.2%}")


if __name__ == "__main__":
    main()
