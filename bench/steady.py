"""Steadiness self-check: is each end-to-end metric steady across seeds?

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...] [--out FILE]

Runs the benchmark command from BENCHMARK.json once per seed and workload
(seeds first-seed .. first-seed + runs - 1, workloads interleaved so that a
change in machine load hits all of them alike), untraced, for the
BENCHMARK.json run length.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound: a metric is steady when its
spread is below a third of its bound.  The spread of setup_s is shown but,
being set-up time, it is judged only by its median.  ``--out`` writes the
summary with the environment as JSON, the form of ``bench/baseline.json``.
Exits 1 if a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: {metric: [] for metric in bounds} for name in names}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            argv_run = spec["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(argv_run, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {}
    print(f"\n{'workload':<16} {'metric':<17} {'median':>11} {'spread':>8} {'bound':>6}  verdict")
    for name in names:
        summary[name] = {}
        for metric, vals in values[name].items():
            if len(vals) < 2:
                continue
            s = summarize(vals, bounds[metric])
            summary[name][metric] = s
            verdict = ("median only (set-up)" if metric == "setup_s"
                       else "steady" if s["steady"] else
                       "within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"{name:<16} {metric:<17} {s['median']:>11.5g} {s['spread']:>8.3f} "
                  f"{s['bound']:>6.2f}  {verdict}")

    if args.out:
        sys.path[:0] = [str(ROOT / "bench")]
        import run

        doc = {"environment": run.environment(), "run_seconds": spec["run_seconds"],
               "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
               "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
