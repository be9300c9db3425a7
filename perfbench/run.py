#!/usr/bin/env python3
"""accelwall benchmark: one seeded workload, its metrics, its checks.

Run from the root of an accelwall source tree:

    python3 perfbench/run.py --workload sweep_cli|figures|serve_open \
        --seed N --seconds S --trace 0|1

It builds the repository and perfbench-measure under $CARGO_TARGET_DIR
(default .bench_build), runs the workload, prints one line per metric with
its unit, the output digest and the host-noise diagnostics, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics; with --trace 1
they are the per-layer metrics, and a Chrome trace-event file is written.
perfbench/README.md explains the workloads and how to read a noisy run.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics, (name, unit); every workload reports all of them.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("cpu_ms_per_op", "ms"),
              ("op_p50_ms", "ms")]
# The operation class whose median time is each workload's op_p50_ms: a
# whole pass for the cold-process workloads (wall time net of steal), a
# cache miss for serve (wall time from when it was due).
OPERATION = {"sweep_cli": "pass", "figures": "pass", "serve_open": "miss"}
# Percentiles printed for reading beside the metrics. They gate nothing:
# raw pass wall time and per-process CLI latencies follow host steal, which
# the gated pass times are net of, and so do serve hits and tails
# (perfbench/README.md).
READING = {
    "sweep_cli": [("pass_wall", 0.5), ("csv", 0.5), ("csv", 0.9),
                  ("table", 0.5), ("table", 0.9)],
    "figures": [("pass_wall", 0.5), ("pass", 0.9)],
    "serve_open": [("hit", 0.5), ("hit", 0.9), ("miss", 0.9)],
}
# Per-layer metrics of a traced run, (name, unit); every traced run reports
# all of them whatever its workload.
PER_LAYER = [
    ("kernels.make_ms", "ms"), ("kernels.dfg_nodes", "count"),
    ("aladdin.simulator_ms", "ms"), ("aladdin.plan_lower_ms", "ms"),
    ("aladdin.cell_costs_us", "us"), ("aladdin.eval_cell_us", "us"),
    ("aladdin.sweep_ms", "ms"), ("aladdin.sweep_1j_ms", "ms"),
    ("aladdin.sweep_scaling", "ratio"), ("aladdin.chains", "count"),
    ("aladdin.chains_evaluated", "count"),
    ("aladdin.attribute_perf_ms", "ms"), ("aladdin.attribute_eff_ms", "ms"),
    ("aladdin.attribute_per_sweep", "ratio"),
    ("util.csv_write_ms", "ms"), ("util.csv_bytes", "bytes"),
    ("util.json_parse_us", "us"),
    ("cli.spawn_ms", "ms"),
    ("figures.fig14_ms", "ms"), ("figures.ablation_video_dse_ms", "ms"),
    ("figures.ablation_algorithm_ms", "ms"), ("figures.fig13_ms", "ms"),
    ("figures.rest_ms", "ms"),
    ("serve.parse_head_us", "us"), ("serve.handle_hit_us", "us"),
    ("serve.handle_miss_ms", "ms"), ("serve.roundtrip_hit_us", "us"),
    ("serve.transport_us", "us"), ("serve.cache_hit_ratio", "ratio"),
    ("serve.hit_p50_ms", "ms"), ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"), ("serve.miss_p90_ms", "ms"),
    ("serve.late_p99_ms", "ms"),
    ("serve.requests_sent", "count"),
    ("serve.requests_ok", "count"), ("serve.requests_failed", "count"),
    ("chiplet.run_sweep_us", "us"),
    ("host.steal_share", "ratio"), ("host.timewait_sockets", "count"),
    ("host.loadavg1", "load"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio"),
]
# The figure binaries: every bench_fig*/bench_table*/bench_ablation* and
# bench_insights. bench_perf_microbench is a perf harness, not a figure.
FIGURE_SOURCE = re.compile(r"^bench_(fig|table|ablation|insights)\w*\.cc$")
# serve_open waits (bounded) for TIME_WAIT sockets of earlier runs to drain
# below this: past ~15k the loopback connect path slows several-fold.
TIMEWAIT_LIMIT = 5000
TIMEWAIT_MAX_WAIT_S = 60
MEASURE_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build(build_dir):
    """Build accelwall-sweep, the figure binaries and perfbench-measure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "bench"))):
        raise BenchError(f"{ROOT} is not an accelwall source tree")
    figures = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "bench"))
                     if FIGURE_SOURCE.match(f))
    repo_b = os.path.join(build_dir, "repo")
    measure_b = os.path.join(build_dir, "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(repo_b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", repo_b, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", repo_b, "--parallel", jobs,
                  "--target", "accelwall-sweep", *figures])
    if not os.path.exists(os.path.join(measure_b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", measure_b, *gen,
                      "-DACCELWALL_SOURCE_DIR=" + ROOT,
                      "-DACCELWALL_BINARY_DIR=" + repo_b])
    steps.append(["cmake", "--build", measure_b, "--parallel", jobs])
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)} "
                                 f"(see {log_path})")
    return (os.path.join(measure_b, "perfbench-measure"),
            os.path.join(repo_b, "tools", "accelwall-sweep"),
            [os.path.join(repo_b, "bench", f) for f in figures])


def pin_to_half_the_cores():
    """Confine this process and everything it starts to the first half
    of the CPUs it may use, the half the workloads' two jobs assume.
    Fewer vCPUs go idle and wake again, which on a shared VM host is
    where most stolen time lands; it also stops migrations."""
    cpus = sorted(os.sched_getaffinity(0))
    keep = cpus[:max(1, len(cpus) // 2)]
    os.sched_setaffinity(0, keep)
    return keep


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before, after):
    """Stolen share of non-idle CPU time between two /proc/stat samples."""
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d[:8]) - d[3] - d[4]  # user..steal minus idle and iowait
    return d[7] / busy if busy > 0 else 0.0


def timewait_sockets():
    with open("/proc/net/sockstat") as f:
        for line in f:
            if line.startswith("TCP:"):
                fields = line.split()
                return int(fields[fields.index("tw") + 1])
    return 0


def loadavg1():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def wait_for_timewait():
    """Seconds spent waiting for TIME_WAIT sockets to drain."""
    t0 = time.monotonic()
    while (timewait_sockets() > TIMEWAIT_LIMIT
           and time.monotonic() - t0 < TIMEWAIT_MAX_WAIT_S):
        time.sleep(1.0)
    return time.monotonic() - t0


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    x = p * (len(v) - 1)
    lo = int(x)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (x - lo)


def run_measure(args, measure, sweep, figures, run_dir):
    out = os.path.join(run_dir, f"result-{args.workload}.json")
    outputs = os.path.join(run_dir, f"outputs-{args.workload}.bin")
    cmd = [measure, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sweep", sweep, "--outputs", outputs, "--out", out]
    for f in figures:
        cmd += ["--figure", f]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, process_group=0)
    try:
        rc = proc.wait(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("perfbench-measure timed out")
    if rc != 0:
        raise BenchError(f"perfbench-measure exited {rc}")
    with open(out) as f:
        result = json.load(f)
    with open(outputs, "rb") as f:
        result["digest"] = hashlib.sha256(f.read()).hexdigest()
    return result


def end_to_end(workload, res):
    return {"setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "cpu_ms_per_op": res["cpu_ms"] / res["ops"],
            "op_p50_ms": percentile(res["samples"][OPERATION[workload]], 0.5)}


def self_ns(spans):
    """Each span's self time: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_ms(spans, own):
    """Self time per layer (span name up to any ':' suffix), ms."""
    layers = {}
    for (name, _, _, _), ns in zip(spans, own):
        layer = name.split(":")[0]
        layers[layer] = layers.get(layer, 0.0) + ns / 1e6
    return layers


def write_trace(path, spans, own):
    """Chrome trace-event JSON. Requests overlap, so each root tree of
    serve.* spans gets one of eight lanes of its own."""
    t0 = min((s[1] for s in spans), default=0)
    root = []
    events = []
    for i, (name, start, end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        lane = 2 + root[i] % 8 if name.startswith("serve.") else 1
        events.append({"name": name, "ph": "X", "pid": 1, "tid": lane,
                       "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                       "args": {"self_us": own[i] / 1e3}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPERATION))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt", "refuse"),
                    help="self-test only: corrupt one output or refuse "
                         "one request, to prove the checks catch it")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    try:
        measure, sweep, figures = build(build_dir)
        run_dir = os.path.join(build_dir, "perfbench-runs")
        os.makedirs(run_dir, exist_ok=True)
        cpus = pin_to_half_the_cores()
        waited = wait_for_timewait() if args.workload == "serve_open" else 0.0
        tw = timewait_sockets()
        stat0 = cpu_times()
        res = run_measure(args, measure, sweep, figures, run_dir)
        host = {"host.steal_share": steal_share(stat0, cpu_times()),
                "host.timewait_sockets": float(tw),
                "host.loadavg1": loadavg1()}
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    w = args.workload
    print(f"perfbench {w} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        traced, untraced = res["traced"], res["untraced"]
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else 0.0)
        values = dict(res["layers"])
        values.update(host)
        values["trace.overhead_ms"] = overhead
        values["trace.overhead_share"] = (
            overhead / statistics.median(untraced) if untraced else 0.0)
        spec = PER_LAYER
        trace_path = os.path.join(run_dir, f"trace-{w}-seed{args.seed}.json")
        own = self_ns(res["spans"])
        write_trace(trace_path, res["spans"], own)
        print(f"  trace: {trace_path} ({len(res['spans'])} spans; "
              f"overhead from {len(traced)} traced vs {len(untraced)} "
              f"untraced samples)")
        layers = layer_self_ms(res["spans"], own)
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1])[:20]:
            print(f"  self {name:<40} {ms:12.3f} ms")
    else:
        values = end_to_end(w, res)
        spec = END_TO_END
    missing = [name for name, _ in spec if name not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for name, unit in spec:
        n = ""
        if name == "op_p50_ms":
            n = f"  ({OPERATION[w]}, n={len(res['samples'][OPERATION[w]])})"
        print(f"  {name:<32} {values[name]:14.6f} {unit}{n}")
    if not args.trace:
        for cls, p in READING[w]:
            v = percentile(res["samples"][cls], p)
            print(f"  {cls} p{round(p * 100)}: {v:.4f} ms "
                  f"(n={len(res['samples'][cls])}; not gated)")
    print(f"  digest {w} sha256:{res['digest']}")
    print(f"  host steal_share={host['host.steal_share']:.3f} "
          f"timewait_sockets={tw} loadavg1={host['host.loadavg1']:.2f} "
          f"timewait_wait_s={waited:.1f} "
          f"cpus={','.join(map(str, cpus))}")
    for e in res["errors"]:
        print(f"  check failed: {e}")
    print(f"  checks: ops={res['ops']} failed={res['failed']} "
          f"mismatches={res['mismatches']} errors={len(res['errors'])}")
    correct = (not res["errors"] and res["mismatches"] == 0
               and res["failed"] == 0)
    print(json.dumps({
        "correct": correct, "attempted": res["ops"], "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
