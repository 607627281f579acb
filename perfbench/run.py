#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of concurrent shared execution.

    python3 perfbench/run.py --workload ssb-mix --seed 7 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn
    python3 perfbench/run.py --test               # the oracle's own test

The engine and the benchmark binary are compiled from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) at the root of
the checkout; the first run builds, later runs reuse the build.

One run measures a series of INSTANCES instances of the workload, each in
its own process, for --seconds / INSTANCES seconds each (see README.md).
Rates are medians over the instances; latency percentiles pool every query.
With --trace 1 a second, traced series of TRACED_INSTANCES instances gives
the per-layer metrics.

Each run prints every metric with its unit, writes the full result (seed,
host fingerprint, per-instance figures) to
.bench_build/results/<workload>-seed<n>-trace<t>.json, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ssb-mix", "q1-fanout-spill", "star-disk"]
# Independent instances per series. One engine instance drifts between
# regimes (which queries happen to share, how the adaptive model settles),
# so rates are medians over fresh processes. Every window lasts
# --seconds / INSTANCES; the traced series runs fewer of them.
INSTANCES = 6
TRACED_INSTANCES = 3
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, env, timeout, cwd=ROOT):
    """Runs cmd with output captured; on failure shows it and exits."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("failed: " + " ".join(cmd), 2)
    return proc.stdout


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, env, BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], env,
              BUILD_TIMEOUT_S)
    return build_dir


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quantile(values, q):
    """Linear interpolation between closest ranks (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def ratio(num, den):
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# Running instances
# ---------------------------------------------------------------------------

def run_instance(binary, args, workload, trace, oracle, compute_oracle, solo,
                 work_dir, env, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / INSTANCES),
           "--trace", str(trace), "--oracle", oracle,
           "--compute-oracle", str(int(compute_oracle)),
           "--solo", str(int(solo)), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1),
                              text=True)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out", 3)
    if proc.returncode != 0:
        fail("%s: instance exited with %d" % (workload, proc.returncode), 4)
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except ValueError:
        fail(workload + ": unreadable instance output", 4)


def run_series(binary, args, workload, trace, build_root, env, deadline):
    work_dir = os.path.join(build_root, "run")
    oracle = os.path.join(work_dir, "oracle-%s-seed%d.txt" %
                          (workload, args.seed))
    count = TRACED_INSTANCES if trace else INSTANCES
    series = []
    for i in range(count):
        # The first untraced instance computes the oracle; the last traced
        # one also runs every plan alone for exec.solo_ms_mean.
        series.append(run_instance(
            binary, args, workload, trace, oracle,
            compute_oracle=(not trace and i == 0),
            solo=(trace and i == count - 1),
            work_dir=work_dir, env=env, deadline=deadline))
    return series


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def qps(r):
    return r["completed"] / r["wall_s"]


def cpu_ms_per_query(r):
    return r["cpu_s"] * 1e3 / max(r["completed"], 1)


def setup_s(r):
    return r["generate_s"] + r["engine_init_s"] + r["warmup_s"]


def latencies(series):
    return [x for r in series for x in r["latencies_ms"]]


def end_to_end(series):
    lat = latencies(series)
    return [
        ("qps", median([qps(r) for r in series]), "1/s"),
        ("latency_p50_ms", quantile(lat, 0.50), "ms"),
        ("latency_p95_ms", quantile(lat, 0.95), "ms"),
        ("cpu_ms_per_query", median([cpu_ms_per_query(r) for r in series]),
         "ms"),
        ("peak_rss_mib", median([r["peak_rss_mib"] for r in series]), "MiB"),
        ("setup_s", median([setup_s(r) for r in series]), "s"),
    ]


def per_layer(untraced, traced, error_rate, checked):
    completed = max(sum(r["completed"] for r in traced), 1)

    def total(field, key):
        return sum(r[field].get(key, 0) for r in traced)

    def per_query(counter):
        return total("counters", counter) / completed

    def pooled(field):
        return [x for r in traced for x in r[field]]

    records = sum(r["stage_records"] for r in traced)
    hits = total("counters", "bufferpool.hits")
    misses = total("counters", "bufferpool.misses")
    both = untraced + traced
    m = [
        ("workload.generate_s", median([r["generate_s"] for r in both]), "s"),
        ("core.engine_init_s", median([r["engine_init_s"] for r in both]),
         "s"),
        ("core.submit_us_p50", quantile(pooled("submit_us"), 0.50), "us"),
        ("core.submit_us_p95", quantile(pooled("submit_us"), 0.95), "us"),
        ("exec.solo_ms_mean", traced[-1]["solo_ms_mean"], "ms"),
    ]
    for stage in ["tscan", "join", "agg", "sort", "cjoin"]:
        m.append(("qpipe.run_ms_per_query." + stage,
                  total("run_us_by_stage", stage) / 1e3 / completed,
                  "ms/query"))
    m.append(("qpipe.satellite_frac",
              ratio(sum(r["satellite_records"] for r in traced), records),
              "ratio"))
    for who in ["cold", "model", "fallback", "attach"]:
        m.append(("qpipe.decided_by_frac." + who,
                  ratio(total("decided_by", who), records), "ratio"))
    m += [
        ("policy.decisions.shared", per_query("policy.decisions_shared"),
         "count/query"),
        ("policy.decisions.unshared", per_query("policy.decisions_unshared"),
         "count/query"),
        ("policy.flips", per_query("policy.flips"), "count/query"),
        ("sp.pages_shared", per_query("sp.pages_shared"), "pages/query"),
        ("sp.pages_copied", per_query("sp.pages_copied"), "pages/query"),
        ("sp.reader_parks", per_query("sp.reader_parks"), "count/query"),
        ("sp.lock_waits", per_query("sp.lock_waits"), "count/query"),
        ("stage.run_packet_us_p99", quantile(pooled("run_packet_us"), 0.99),
         "us"),
        ("qpipe.spl_park_ms", total("span_us", "spl.park") / 1e3 / completed,
         "ms/query"),
        ("storage.miss_stall_ms",
         total("span_us", "bufferpool.miss_stall") / 1e3 / completed,
         "ms/query"),
        ("sp.pages_spilled", per_query("sp.pages_spilled"), "pages/query"),
        ("sp.unspill_reads", per_query("sp.unspill_reads"), "pages/query"),
        ("sp.pages_retained_hwm", max(r["retained_hwm"] for r in traced),
         "pages"),
        ("sp.spill_bytes_hwm", max(r["spill_bytes_hwm"] for r in traced),
         "bytes"),
        ("io.writes_issued", per_query("io.writes_issued"), "count/query"),
        ("io.reads_issued", per_query("io.reads_issued"), "count/query"),
    ]
    for cls in ["prefetch", "faultback", "spill"]:
        m.append(("io.stall_ms." + cls,
                  per_query("io.stall_micros." + cls) / 1e3, "ms/query"))
    for cls in ["faultback", "spill"]:
        m.append(("io.dispatch_wait_us_p99." + cls,
                  median([r["histogram_p99"]["io.dispatch_wait." + cls]
                          for r in traced]), "us"))
    m += [
        ("bufferpool.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("bufferpool.misses", per_query("bufferpool.misses"), "pages/query"),
        ("disk.page_reads", per_query("disk.page_reads"), "pages/query"),
        ("disk.page_writes", per_query("disk.page_writes"), "pages/query"),
        ("scan.pages_read", per_query("scan.pages_read"), "pages/query"),
        ("scan.shared_attach", per_query("scan.shared_attach"),
         "count/query"),
        ("cjoin.fact_tuples_in", per_query("cjoin.fact_tuples_in"),
         "tuples/query"),
        ("cjoin.drop_ratio",
         ratio(total("counters", "cjoin.tuples_dropped"),
               total("counters", "cjoin.fact_tuples_in")), "ratio"),
        ("cjoin.admission_us_per_query",
         ratio(total("counters", "cjoin.admission_micros"),
               total("counters", "cjoin.queries_admitted")), "us"),
        ("cjoin.admission_epochs", per_query("cjoin.admission_epochs"),
         "count/query"),
        ("cjoin.bitmap_and_ops", per_query("cjoin.bitmap_and_ops"),
         "count/query"),
        ("trace.overhead.qps",
         median([qps(r) for r in traced]) - median([qps(r) for r in untraced]),
         "1/s"),
        ("trace.overhead.latency_p50_ms",
         median(latencies(traced)) - median(latencies(untraced)), "ms"),
        ("error_rate", error_rate, "ratio"),
        ("checked_results", checked, "count"),
    ]
    return m


def as_json(metrics):
    return {name: {"value": value, "unit": unit}
            for name, value, unit in metrics}


def print_metrics(title, metrics):
    print(title)
    for name, value, unit in metrics:
        print("  %-34s %16.6g %s" % (name, value, unit))


def run_workload(binary, args, workload, build_root, env, deadline):
    untraced = run_series(binary, args, workload, 0, build_root, env,
                          deadline)
    traced = (run_series(binary, args, workload, 1, build_root, env, deadline)
              if args.trace else [])
    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    completed = sum(r["completed"] for r in everything)
    checked = sum(r["checked"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    wrong = sum(r["wrong"] for r in everything)
    unfinished = attempted - completed - failed
    errors = failed + wrong + unfinished
    error_rate = ratio(errors, attempted) if attempted else 1.0

    e2e = end_to_end(untraced)
    print("perfbench workload=%s seed=%d seconds=%d trace=%d" %
          (workload, args.seed, args.seconds, args.trace))
    print_metrics("end-to-end (untraced series of %d instances):" % INSTANCES,
                  e2e)
    lat = latencies(untraced)
    print("  latency samples %d, beyond p95 %d" %
          (len(lat), sum(1 for x in lat if x > quantile(lat, 0.95))))
    print("  per instance: " + ", ".join(
        "qps %.2f cpu %.1f ms rss %.0f MiB setup %.3f s" %
        (qps(r), cpu_ms_per_query(r), r["peak_rss_mib"], setup_s(r))
        for r in untraced))
    print("  error_rate %g: failed %d, wrong %d, unfinished %d of %d "
          "attempted; checked %d results against %d oracle plans "
          "(oracle %.2f s, outside setup_s)" %
          (error_rate, failed, wrong, unfinished, attempted, checked,
           untraced[0]["oracle_plans"], untraced[0]["oracle_s"]))
    layers = []
    if traced:
        layers = per_layer(untraced, traced, error_rate, checked)
        print_metrics("per-layer (traced series):", layers)
    fingerprint = untraced[0]["fingerprint"]
    print("  host: " + json.dumps(fingerprint))

    result = {
        "correct": errors == 0 and checked > 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": as_json(layers if args.trace else e2e),
    }
    detail = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "instances": INSTANCES,
        "fingerprint": fingerprint, "error_rate": error_rate,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "unfinished": unfinished, "checked": checked,
        "latency_samples": len(lat),
        "end_to_end": as_json(e2e), "per_layer": as_json(layers),
        "instances_untraced": [
            {"qps": qps(r), "cpu_ms_per_query": cpu_ms_per_query(r),
             "peak_rss_mib": r["peak_rss_mib"], "setup_s": setup_s(r)}
            for r in untraced],
    }
    results_dir = os.path.join(build_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                        (workload, args.seed, args.trace))
    with open(path, "w") as out:
        json.dump({"detail": detail, "result": result}, out, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--test", action="store_true",
                        help="build and run the oracle test only")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    # Compiler and engine temporaries stay inside the checkout.
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build_dir = build(build_root, env)

    if args.test:
        print(run_quiet([os.path.join(build_dir, "oracle_test")], env, 120,
                        cwd=build_dir), end="")
        return

    binary = os.path.join(build_dir, "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        # A first run that had to build gets a full run budget afterwards.
        deadline = max(deadline, time.monotonic() + 120)
        results.append(run_workload(binary, args, workload, build_root, env,
                                    deadline))
        deadline = time.monotonic() + RUN_DEADLINE_S
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))


if __name__ == "__main__":
    main()
