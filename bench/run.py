"""Benchmark of singfol: one seeded workload, timed passes, checked outputs.

Run from the root of a checkout that holds ``src/singfol``:

    python3 bench/run.py --workload certify-random --seed 1 --seconds 20 --trace 0

The workloads are described in ``bench/workloads.py`` and BENCHMARK.json.
A run first measures set-up: SETUP_PROBES fresh interpreters each import
singfol, generate the inputs and warm the calibration cache, and set-up time
is the median of their wall times.  It then does the same in-process and
repeats passes over the workload until the passes add up to ``--seconds``.
The first pass is checked against exact identities; every later pass must
give the same symbolic output, and with the default seed that output must
match ``bench/digests.json``.

Every time is scaled to the host's nominal speed, measured by a short
fixed loop after each operation (see ``bench/speed.py``): on a shared host
the raw times swing by up to 1.7x between runs.  The raw times are in the
report.  The run pins itself and its children to one CPU, so that the loop
samples the core the work runs on.

With ``--trace 0`` no span is recorded and the metrics are the end-to-end
ones.  With ``--trace 1`` passes alternate between untraced and traced, the
metrics are the per-layer ones from the traced passes, and the tracing
overhead is the traced minus the untraced median pass time.  Either way a
human-readable report (environment, metrics with the names the workloads
give them, latency tails, failures) goes to stderr, a JSON copy with the
spans goes to ``.bench_out/``, and the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import speed
from tracing import OFF, Tracer

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 5
STARTUP_PROBES = 5
# ticks that sample the host's speed right after a set-up or start-up probe
SETTLE_TICKS = 25
# the largest Pfaffian minor any workload takes is 12 x 12
CALIBRATION_SIZE = 12

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: do set-up only and print its parts as JSON")
    return parser.parse_args(argv)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) for the highest of 99, 95, 90, 75, 50 that has at
    least ten samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        if n - idx - 1 >= 10:
            return p, ordered[idx]
    return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "singfol").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": commit,
            "source_sha256": source.hexdigest()}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(args) -> int:
    """Set-up in a fresh interpreter: import, inputs, cold calibration."""
    import workloads
    from singfol.pfaffian import calibration_report

    t_import = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed)
    t_inputs = time.perf_counter()
    calibration_report(CALIBRATION_SIZE)
    t_done = time.perf_counter()
    ticks = [speed.tick() for _ in range(SETTLE_TICKS)]
    print(json.dumps({"import_s": t_import - T_START, "inputs_s": t_inputs - t_import,
                      "calibration_s": t_done - t_inputs,
                      "slowdown": statistics.mean(ticks) / speed.NOMINAL_TICK_S}))
    return 0


def spawn_wall(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    res = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=120)
    return time.perf_counter() - t0, res


def measure_setup(args) -> list[dict]:
    """Set-up probes: the raw wall time of each, its parts, and the slowdown
    the probe measured right after its set-up."""
    parts = []
    for _ in range(SETUP_PROBES):
        wall, res = spawn_wall([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                                "--workload", args.workload, "--seed", str(args.seed)])
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr.strip()[-2000:]}")
        parts.append(dict(json.loads(res.stdout.strip().splitlines()[-1]), wall=wall))
    return parts


def measure_startup():
    """Fresh interpreters importing singfol.cli: raw walls and the slowdown
    this process measured right after each."""
    walls, slowdowns = [], []
    for _ in range(STARTUP_PROBES):
        wall, res = spawn_wall([sys.executable, "-c", "import singfol.cli"])
        if res.returncode != 0:
            raise RuntimeError(f"importing singfol.cli failed: {res.stderr.strip()[-2000:]}")
        walls.append(wall)
        ticks = [speed.tick() for _ in range(SETTLE_TICKS)]
        slowdowns.append(statistics.mean(ticks) / speed.NOMINAL_TICK_S)
    return walls, slowdowns


def stored_digest(workload: str, seed: int):
    path = BENCH / "digests.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"].get(workload)


def run(args) -> int:
    import workloads
    from singfol.pfaffian import calibration_report

    # one CPU for this process and every child, so that the ticks sample
    # the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    env["nominal_tick_s"] = speed.NOMINAL_TICK_S
    phases = {}
    t0 = time.perf_counter()
    setup_parts = measure_setup(args)
    calibration_report(CALIBRATION_SIZE)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    startup_walls, startup_slowdowns = measure_startup() if args.trace else ([], [])
    phases["setup"] = time.perf_counter() - t0

    # pass 0 warms the allocator and lazy imports; it is checked, not timed
    ledger = workloads.Ledger()
    t0 = time.perf_counter()
    first = wl.run(OFF, ledger)
    phases["warm_up"] = time.perf_counter() - t0
    reference = oracles.digest(wl.digest_chunks(first))
    wl.check(first, ledger)
    counts = wl.counts(first)
    del first
    phases["check"] = time.perf_counter() - t0 - phases["warm_up"]
    passes, tracers = [], []
    measured = 0.0
    while measured < args.seconds or (args.trace and len(passes) < 2):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer(len(passes) + 1) if traced else OFF
        # every pass starts from the same heap: no garbage of the previous
        # pass left for the cyclic collector to walk during this one
        rec = None
        gc.collect()
        ledger.speed = speed.Speedometer()
        t0 = time.perf_counter()
        rec = wl.run(tracer, ledger)
        elapsed = time.perf_counter() - t0
        measured += elapsed
        raw = elapsed - ledger.speed.ticking
        slow = ledger.speed.slowdown()
        # times scaled to the host's nominal speed (see speed.py); latencies
        # and unit_seconds come scaled operation by operation
        passes.append({"raw_wall": raw, "slowdown": slow, "wall": raw / slow,
                       "traced": traced, "units": rec.units,
                       "unit_seconds": rec.unit_seconds if rec.unit_seconds is not None else raw / slow,
                       "latencies": rec.latencies,
                       "main_latencies": rec.extra.get("main_latencies", []),
                       "child_rss": rec.extra.get("child_rss", [])})
        if traced:
            tracers.append(tracer)
            passes[-1]["busy"] = {k: v / slow for k, v in tracer.busy().items()}
            passes[-1]["self"] = {k: v / slow for k, v in tracer.self_time().items()}
        ledger.expect(oracles.digest(wl.digest_chunks(rec)) == reference,
                      f"pass {len(passes)} output differs from the checked pass 0")

    phases["measured"] = measured
    stored = stored_digest(args.workload, args.seed)
    if stored is not None:
        ledger.expect(stored == reference, f"output digest {reference} != stored {stored}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    end_to_end = {
        "setup_s": median([p["wall"] / p["slowdown"] for p in setup_parts]),
        "wall_s": median([p["wall"] for p in plain]),
        # a rate over the whole run: work done over the time it took
        "throughput_per_s": sum(p["units"] for p in plain) / sum(p["unit_seconds"] for p in plain),
        "op_p50_ms": median([x for p in plain for x in p["latencies"]]) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = {}
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        # span "module.call" gives the busy time "module.call_s"
        spans = sorted({name for p in traced_passes for name in p["busy"]})
        per_layer = {f"{span}_s": median([p["busy"].get(span, 0.0) for p in traced_passes])
                     for span in spans}
        per_layer.update(counts)
        per_layer["pfaffian.calibration_s"] = median([p["calibration_s"] / p["slowdown"]
                                                      for p in setup_parts])
        per_layer["cli.startup_ms"] = median([w / s for w, s in zip(startup_walls,
                                                                    startup_slowdowns)]) * 1000.0
        per_layer["cli.main_ms"] = median([x for p in traced_passes
                                          for x in p["main_latencies"]]) * 1000.0
        per_layer["bench.trace_overhead_s"] = (median([p["wall"] for p in traced_passes])
                                               - end_to_end["wall_s"])

    # report exactly the metrics BENCHMARK.json declares, with its units; a
    # time, count or ratio of a layer this workload does not call is 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    report(args, env, ledger, passes, end_to_end, per_layer, units, setup_parts, tracers,
           reference, phases)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def _with_tail(label: str, values: list[float], scale: float, unit: str) -> str:
    t = tail(values)
    return (f"  {label}: median {median(values) * scale:.4g} {unit}"
            + (f", p{t[0]} {t[1] * scale:.4g} {unit}" if t else ", no tail (under 11 samples)")
            + f", n = {len(values)}")


def report(args, env, ledger, passes, end_to_end, per_layer, units, setup_parts, tracers,
           digest, phases):
    """Human-readable report on stderr and a JSON copy under .bench_out/."""
    import workloads

    named = workloads.WORKLOADS[args.workload].names
    log(f"== singfol benchmark: {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    log("environment: " + json.dumps(env, sort_keys=True))
    plain = [p for p in passes if not p["traced"]]
    baseline = {}
    base_path = BENCH / "baseline.json"
    if base_path.is_file():
        baseline = json.loads(base_path.read_text())["workloads"].get(args.workload, {})
    log(f"timed passes: {len(passes)} ({len(plain)} untraced) after one warm-up pass; "
        f"output digest {digest}")
    log("phases: " + ", ".join(f"{k} {v:.3g}s" for k, v in phases.items()))
    for name, value in end_to_end.items():
        base = baseline.get(name)
        note = f"   (seed-commit baseline median {base['median']:.6g})" if base else ""
        log(f"  {named.get(name, name):<22} = {value:.6g} {units[name]}{note}")
    fail_ratio = ledger.failed / ledger.attempted
    log(f"  {'fail_ratio':<22} = {fail_ratio:.6g} ratio  ({ledger.failed} of {ledger.attempted})")
    log(_with_tail(named["op_p50_ms"], [x for p in plain for x in p["latencies"]], 1000.0, "ms"))
    log(_with_tail("wall_s", [p["wall"] for p in plain], 1.0, "s"))
    log(f"  host slowdown over nominal (speed.py): median {median([p['slowdown'] for p in passes]):.3f}"
        f" over passes, {median([p['slowdown'] for p in setup_parts]):.3f} after set-up; "
        f"raw pass wall median {median([p['raw_wall'] for p in plain]):.4g} s, "
        f"raw set-up median {median([p['wall'] for p in setup_parts]):.4g} s")
    rss = [r for p in passes for r in p["child_rss"]]
    if rss:
        log(f"  largest CLI child peak RSS = {max(rss) / 1024:.1f} MiB")
    log(f"  set-up parts (median of {len(setup_parts)} fresh interpreters): "
        + ", ".join(f"{k} {median([p[k] for p in setup_parts]):.4g}" for k in setup_parts[0]))
    if per_layer:
        log("per-layer (traced passes):")
        for name, value in per_layer.items():
            log(f"  {name:<30} = {value:.6g} {units.get(name, '')}")
        selfs = {}
        for p in passes:
            for name, value in p.get("self", {}).items():
                selfs.setdefault(name, []).append(value)
        log("self time per span (median over traced passes): "
            + ", ".join(f"{k} {median(v):.4g}s" for k, v in sorted(selfs.items())))
    for message in ledger.failures:
        log(f"FAILURE: {message}")
    OUT_DIR.mkdir(exist_ok=True)
    dump = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": env, "digest": digest, "phases": phases,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
            "passes": passes, "setup_parts": setup_parts,
            "spans": [s for t in tracers for s in t.records()]}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dump))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singfol" / "__init__.py").is_file():
        log(f"error: no singfol sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import singfol

    if not Path(singfol.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"error: imported singfol from {singfol.__file__}, not from {SRC}")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}")
        return 2
    if args.setup_probe:
        return setup_probe(args)
    try:
        return run(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
