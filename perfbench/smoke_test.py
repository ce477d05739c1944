#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (seconds, once built):

  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs the binary untraced, traced,
and untraced again with one seed, and checks that
  - the binary prints every end-to-end metric and no metric BENCHMARK.json
    does not list, so the result carries each with its unit;
  - the self-checks pass: exit 0, correct, no failed step;
  - the manifest and the digest lines are printed, and the two untraced
    runs print identical digests;
  - the layers the workload exercises report non-zero work, and every
    per-layer metric BENCHMARK.json lists is printed by some workload.
Exits 1 and lists the problems otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SEED = 7
SECONDS = 0.5
MANIFEST_KEYS = {"source", "build_type", "compiler", "simd_isa", "RB_SIMD",
                 "sanitizer", "nproc", "workload", "seed", "sizes"}
# Per-layer values that must be non-zero on each workload's traced run.
EXERCISED = {
    "fabric_churn": ["sim.events", "sim.hold_ns_per_event", "net.flow_events",
                     "net.reallocations", "net.realloc_us",
                     "net.start_flow_us", "net.reroute_calls",
                     "faults.events_applied", "trace.steps"],
    "serving_chaos": ["sim.events", "sim.ns_per_event", "serve.issued",
                      "serve.completed", "serve.preload_s",
                      "serve.handle_fault_calls", "storage.gets",
                      "storage.get_us", "faults.events_applied",
                      "trace.steps"],
    "durable_query": ["query.queries", "query.plan_ms", "query.source_ms",
                      "query.source_rows", "query.inmem_plan_ms",
                      "storage.ingest_s", "storage.recovery_s",
                      "storage.wal_bytes", "storage.flushes", "trace.steps"],
}


def tagged_line(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def check_workload(workload, layer_names):
    """Problems of one workload; adds the per-layer names its traced run
    prints to `layer_names`."""
    problems = []
    digests = []
    for trace in (0, 1, 0):
        where = f"{workload} trace={trace}"
        raw, stdout, code = bench.run_once(workload, SEED, SECONDS, trace,
                                           tiny=True, echo=False)
        if code != 0:
            problems.append(f"{where}: exit code {code}")
        result, found = bench.to_result(raw, trace)
        problems += [f"{where}: {p}" for p in found]
        if trace and isinstance(raw, dict):
            layer_names.update(raw.get("values", {}))
        if isinstance(result, dict) and (result.get("correct") is not True or
                                         result.get("failed") != 0 or
                                         result.get("attempted", 0) < 1):
            problems.append(f"{where}: correct={result.get('correct')} "
                            f"attempted={result.get('attempted')} "
                            f"failed={result.get('failed')}")
        manifest = tagged_line(stdout, "MANIFEST")
        if manifest is None or not MANIFEST_KEYS <= set(manifest):
            problems.append(f"{where}: manifest missing or incomplete")
        digest = tagged_line(stdout, "DIGEST")
        if not digest:
            problems.append(f"{where}: digest missing")
        if trace == 0:
            digests.append(digest)
        elif isinstance(result, dict) and "metrics" in result:
            for name in EXERCISED[workload]:
                if not result["metrics"].get(name, {}).get("value"):
                    problems.append(f"{where}: {name} is zero")
    if len(digests) == 2 and digests[0] != digests[1]:
        problems.append(f"{workload}: digests differ between runs of one seed")
    return problems


def main():
    bench.build()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    layer_names = set()
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(workload, layer_names)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    problems += ["no workload prints per-layer metric " + name
                 for name in bench.metric_units(True)
                 if name not in layer_names]
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
