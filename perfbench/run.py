#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

One run:
  python3 perfbench/run.py --workload serving_chaos --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans to .bench_build/traces/). The last stdout line is the
result JSON: {"correct", "attempted", "failed", "metrics"}. The binary
prints each metric's name and value; the units come from BENCHMARK.json.

Steadiness evidence (runs one workload N times and prints each end-to-end
metric's median, quartiles, min, max and quartile spread):
  python3 perfbench/run.py --workload durable_query --seed 1 --seconds 30 --repeat 10
reruns seed 1 each time; with --vary-seed the runs take seeds 1..10.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the library sources (src/) are not in this checkout")
        sys.exit(2)
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            [cmake, "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def source_id():
    """Digest of the sources the binary is built from (the checkout may not
    be a git repository), plus the commit when there is one."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    ident = "tree:" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            ident = "commit:" + commit + " " + ident
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, tiny=False, echo=True):
    """Run the binary once; returns (its last line as a dict or None,
    stdout text, exit code)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--source", source_id()]
    if tiny:
        cmd.append("--tiny")
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raw = None
    return raw, proc.stdout, proc.returncode


def to_result(raw, trace):
    """The result of one run, with the units of BENCHMARK.json attached, and
    the contract problems found on the way (empty when it is sound).

    A per-layer metric the workload does not exercise reads 0; an end-to-end
    metric must be measured; a name BENCHMARK.json does not list is an error.
    """
    if not isinstance(raw, dict) or \
            set(raw) != {"correct", "attempted", "failed", "values"}:
        return None, ["no result line"]
    units = metric_units(trace)
    values = raw["values"]
    problems = ["unlisted metric " + name for name in values
                if name not in units]
    if not trace:
        problems += ["missing metric " + name for name in units
                     if name not in values]
    result = {
        "correct": raw["correct"] is True and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, problems


def repeat(args):
    """Steadiness table over args.repeat runs of one workload."""
    units = metric_units(False)
    values = {name: [] for name in units}
    seeds = [args.seed + i if args.vary_seed else args.seed
             for i in range(args.repeat)]
    failed = 0
    for seed in seeds:
        raw, _, code = run_once(args.workload, seed, args.seconds, False,
                                echo=False)
        result, problems = to_result(raw, False)
        if code != 0 or problems or not result["correct"]:
            failed += 1
            log(f"seed {seed}: run failed (exit {code})")
            continue
        for name in units:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in units))
    summary = {}
    print(f"{args.workload}: {args.repeat} runs of {args.seconds} s, "
          f"seeds {seeds[0]}..{seeds[-1]}, {failed} failed")
    print(f"  {'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, unit in units.items():
        v = values[name]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "min": min(v), "max": max(v), "spread": spread}
        print(f"  {name:<18} {unit:<5} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(v):12.6g} {max(v):12.6g} {spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "seeds": seeds, "seconds": args.seconds,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness table over this many runs")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: run seeds seed..seed+N-1")
    args = parser.parse_args()

    build()
    if args.repeat > 0:
        return repeat(args)
    raw, _, code = run_once(args.workload, args.seed, args.seconds, args.trace)
    result, problems = to_result(raw, args.trace)
    for p in problems:
        log("perfbench: " + p)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    if not result["correct"] or result["failed"]:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
