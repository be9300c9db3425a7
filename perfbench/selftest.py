#!/usr/bin/env python3
"""Self-test of the benchmark itself (under a minute once built).

    python3 perfbench/selftest.py

Checks, with short runs:
  * every workload prints every end-to-end metric BENCHMARK.json
    declares, with its unit, and passes its output checks;
  * a traced run prints every per-layer metric with its unit and writes
    a trace file;
  * a corrupted output makes the run incorrect (sweep_cli, figures);
  * a refused request is counted as failed (serve_open);
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 iff every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own metric tables)

failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(root, *args):
    p = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=400)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, p.stdout, result


def units_ok(metrics, declared):
    return all(name in declared and m["unit"] == declared[name]
               and isinstance(m["value"], (int, float))
               for name, m in metrics.items())


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(sorted(w["name"] for w in spec["workloads"])
          == sorted(run.OPERATION), "BENCHMARK.json lists the workloads")
    check(dict(run.END_TO_END) == e2e,
          "BENCHMARK.json end_to_end matches run.py")
    check(dict(run.PER_LAYER) == layers,
          "BENCHMARK.json per_layer matches run.py")

    for w in run.OPERATION:
        rc, out, r = bench(ROOT, "--workload", w, "--seed", "7",
                           "--seconds", "2", "--trace", "0")
        ok = (rc == 0 and r is not None
              and set(r) == {"correct", "attempted", "failed", "metrics"})
        check(ok and r["correct"] and r["failed"] == 0
              and r["attempted"] >= 1, f"{w}: smoke run correct")
        check(ok and list(e2e) == list(r["metrics"])
              and units_ok(r["metrics"], e2e)
              and all(m["value"] > 0 for m in r["metrics"].values()),
              f"{w}: every end-to-end metric, unit and non-zero value")
        check(f"digest {w} sha256:" in out and "host steal_share=" in out,
              f"{w}: digest and host diagnostics printed")

    rc, out, r = bench(ROOT, "--workload", "serve_open", "--seed", "7",
                       "--seconds", "2", "--trace", "1")
    trace = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                         or ".bench_build", "perfbench-runs",
                         "trace-serve_open-seed7.json")
    check(rc == 0 and r is not None and r["correct"]
          and set(r["metrics"]) == set(layers)
          and units_ok(r["metrics"], layers), "traced run: every per-layer "
          "metric with its unit")
    check(os.path.isfile(trace) and "self " in out,
          "traced run: trace file and self times")

    for w in ("sweep_cli", "figures"):
        rc, out, r = bench(ROOT, "--workload", w, "--seed", "7",
                           "--seconds", "1", "--inject", "corrupt")
        check(rc == 0 and r is not None and r["correct"] is False
              and "mismatches=1" in out,
              f"{w}: a corrupted output fails the check")
    rc, out, r = bench(ROOT, "--workload", "serve_open", "--seed", "7",
                       "--seconds", "2", "--inject", "refuse")
    check(rc == 0 and r is not None and r["correct"] is False
          and r["failed"] == 1, "serve_open: a refused request is counted")

    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, r = bench(bare, "--workload", "sweep_cli", "--seed", "1",
                       "--seconds", "1")
    check(rc != 0 and r is None,
          "bare directory: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
