#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark. Standard library only.

One run, as BENCHMARK.json's command:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench_e2e from this checkout's sources into .bench_build/e2e, runs
one workload, and prints as the last line of stdout

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. It exits 1 when an output check
fails and nonzero without a result line when the build or run fails.

Sets of runs, and their comparison against the bounds in BENCHMARK.json:

  python3 bench/e2e/run.py sweep --runs 5 --out base.json
  python3 bench/e2e/run.py compare base.json new.json

sweep runs every workload --runs times for run_seconds each, with seeds
counting up from --seed-base and the workload order alternating between
rounds, plus --traced runs per workload, and writes each metric's median
and quartiles. compare prints one row per workload
and end-to-end metric; where either set's spread is wider than the bound,
the row reads "unresolved". Both print the tracing overhead: the traced
runs' end-to-end medians against the untraced ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_once(workload, seed, seconds, traced, echo=sys.stdout):
    """Runs bench_e2e once; returns its result record, or None on failure."""
    tag = f"{workload}-seed{seed}{'-traced' if traced else ''}"
    out = BUILD / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}"]
    if traced:
        trace = BUILD / "traces" / f"{tag}.json"
        trace.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace}")
    try:
        proc = subprocess.run(cmd, stdout=echo, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {tag} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode not in (0, 1) or not out.exists():
        print(f"run.py: {tag} failed (exit {proc.returncode})", file=sys.stderr)
        return None
    with open(out) as f:
        return json.load(f)


def contract_line(result, traced):
    """The result line: exactly the metrics BENCHMARK.json names."""
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    for m in spec()[section]:
        got = result[section].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"run.py: {result['workload']} did not report "
                             f"{m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def single(argv):
    p = argparse.ArgumentParser(description="One benchmark run.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        raise SystemExit(f"run.py: unknown workload {a.workload}; one of {names}")
    build()
    result = run_once(a.workload, a.seed, a.seconds, bool(a.trace))
    if result is None:
        return 1
    sys.stdout.flush()
    print(json.dumps(contract_line(result, bool(a.trace))), flush=True)
    return 0 if result["correct"] else 1


def stats(values):
    """Median, quartiles and spread (IQR / median) of a list of values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values), "values": values}


def summarize(runs):
    """{workload: {"untraced"|"traced": {metric: stats}}} plus failure counts."""
    grouped = {}
    for r in runs:
        kind = "traced" if r["traced"] else "untraced"
        w = grouped.setdefault(r["workload"], {"attempted": 0, "failed": 0,
                                               "correct": True})
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        w["correct"] = w["correct"] and r["correct"]
        for section in ("end_to_end", "per_layer"):
            for name, m in r[section].items():
                w.setdefault(kind, {}).setdefault(name, []).append(m["value"])
    for w in grouped.values():
        for kind in ("untraced", "traced"):
            if kind in w:
                w[kind] = {k: stats(v) for k, v in w[kind].items()}
    return grouped


def print_overhead(summary, s):
    rows = []
    for workload, w in summary.items():
        if "traced" not in w or "untraced" not in w:
            continue
        for m in s["end_to_end"]:
            a, b = w["untraced"].get(m["name"]), w["traced"].get(m["name"])
            if a and b and a["median"]:
                rows.append(f"  {workload:18} {m['name']:12} untraced "
                            f"{a['median']:12.4g}  traced {b['median']:12.4g}  "
                            f"{100 * (b['median'] / a['median'] - 1):+6.1f}%")
    if rows:
        print("tracing overhead (traced vs untraced end-to-end medians):")
        print("\n".join(rows))


def sweep(argv):
    s = spec()
    p = argparse.ArgumentParser(description="Repeated runs of every workload.")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)
    workloads = [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    build()
    runs = []
    plan = []
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        plan += [(w, a.seed_base + i, False) for w in order]
    plan += [(w, a.seed_base + i, True) for i in range(a.traced) for w in workloads]
    for workload, seed, traced in plan:
        result = run_once(workload, seed, seconds, traced, echo=subprocess.DEVNULL)
        if result is None:
            return 1
        result["traced"] = traced
        runs.append(result)
        print(f"{workload} seed {seed}{' traced' if traced else ''}: "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["end_to_end"].items()), flush=True)
    summary = summarize(runs)
    with open(a.out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs, "summary": summary}, f,
                  indent=1)
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    for workload, w in summary.items():
        print(f"{workload}: correct={w['correct']} failed {w['failed']}/"
              f"{w['attempted']}")
        for name in runs[0]["end_to_end"]:
            st = w["untraced"][name]
            gate = (f"bound {100 * bounds[name]:.0f}%" if name in bounds
                    else "not gated")
            print(f"  {name:12} median {st['median']:12.4g}  quartiles "
                  f"{st['q1']:.4g}..{st['q3']:.4g}  spread "
                  f"{100 * st['spread']:5.1f}% ({gate})")
    print_overhead(summary, s)
    return 0 if all(w["correct"] for w in summary.values()) else 1


def compare(argv):
    s = spec()
    p = argparse.ArgumentParser(description="Compare two sweep result sets.")
    p.add_argument("base")
    p.add_argument("new")
    a = p.parse_args(argv)
    with open(a.base) as f:
        base = json.load(f)["summary"]
    with open(a.new) as f:
        new = json.load(f)["summary"]
    regressed = False
    print(f"{'workload':18} {'metric':12} {'base':>11} {'new':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in base:
        if workload not in new:
            print(f"{workload:18} missing from {a.new}")
            regressed = True
            continue
        for m in s["end_to_end"]:
            x = base[workload]["untraced"][m["name"]]
            y = new[workload]["untraced"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (y["median"] - x["median"]) / x["median"]
            spread = max(x["spread"], y["spread"])
            if m["better"] == "lower":
                all_better = max(y["values"]) < min(x["values"])
            else:
                all_better = min(y["values"]) > max(x["values"])
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif -worse > m["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{workload:18} {m['name']:12} {x['median']:11.4g} "
                  f"{y['median']:11.4g} {100 * worse:+7.1f}% "
                  f"{100 * spread:6.1f}% {100 * m['bound']:5.0f}%  {verdict}")
        fb, fn = base[workload], new[workload]
        print(f"{workload:18} failed {fb['failed']}/{fb['attempted']} -> "
              f"{fn['failed']}/{fn['attempted']}, correct "
              f"{fb['correct']} -> {fn['correct']}")
    print_overhead(new, s)
    return 1 if regressed else 0


def main():
    commands = {"sweep": sweep, "compare": compare}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        return commands[sys.argv[1]](sys.argv[2:])
    return single(sys.argv[1:])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
