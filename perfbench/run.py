#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
perfbench/ (a CMake package of its own that adds ../src's library
targets) into
.bench_build/perfbench; later runs only re-check the build. The binary's
stdout is passed through; its last line is the JSON result. Untraced runs
carry every end-to-end metric of BENCHMARK.json; traced runs every per-layer
metric: a run fails if a metric its workload owns (OWNED below) is missing,
and the layers a workload never calls read 0. Traced runs also
write .bench_build/perfbench/<workload>_trace.json (Chrome trace JSON; see
perfbench/README.md).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 175  # the whole run, build check included

# The per-layer metrics each workload's traced run must emit. The others in
# BENCHMARK.json belong to layers the workload never calls and read 0.
TRACE_COMMON = ["trace.overhead_pct", "bench.attributed_frac",
                "bench.drift_pct", "bench.rss_growth_mb"]
EV_CLASSES = ("control", "metadata", "monitoring", "data")
OWNED = {
    "insitu_crack": TRACE_COMMON + [
        "md.step_ms", "md.ns_per_atom_step", "md.cell_builds_per_step",
        "sp.helper_ms", "sp.bonds_ms", "sp.csym_ms", "sp.cna_ms",
        "sp.fragments_ms", "sio.write_ms", "par.kernel_speedup",
        "sp.branch_epoch"],
    "staged_campaign": TRACE_COMMON + [
        "core.build_ms", "core.run_ms", "core.teardown_ms",
        "des.events_per_op", "des.ns_per_event", "ev.msgs_per_op",
        "ev.bytes_per_op", "core.allocs_per_event", "core.mgmt_actions",
        "core.sim_e2e_s_last", "dt.steps_emitted"] + [
        "ev.%s.%s_per_op" % (c, k) for c in EV_CLASSES
        for k in ("msgs", "bytes")],
    "fleet_soak": TRACE_COMMON + [
        "fed.build_ms", "fed.slice_ms", "des.ns_per_event",
        "fed.allocs_per_event", "ev.msgs_per_event", "fed.resizes",
        "fed.trades_committed", "fed.trades_aborted", "txn.trades_denied",
        "fault.drops", "fault.dups", "fed.converged_ratio",
        "fed.sim_resize_ms_p99"],
    "live_control": TRACE_COMMON + [
        "svc.resize_ms_p50", "svc.resize_ms_p99", "svc.scrape_ms_p50",
        "svc.scrape_ms_p99", "svc.scrape_bytes", "svc.host_cpu_us_per_req",
        "ev.frames_per_resize", "core.round_sim_ms"],
}
WORKLOADS = tuple(OWNED)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target, deadline):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.time()),
                                    check=False).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail("build step %s failed: %s" % (cmd[:2], exc))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output-check tamper tests")
    args = ap.parse_args()
    deadline = time.time() + DEADLINE_S

    if args.self_test:
        build("perfbench_checks_test", deadline)
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_checks_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    expected = metric_names(args.trace)
    build("ioc_perfbench", deadline)

    cmd = [os.path.join(BUILD, "ioc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, args.workload + "_trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.time()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    out = {}
    owned = set(OWNED[args.workload]) if args.trace else None
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace or m["name"] in owned:
                fail("metric %s missing" % m["name"])
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised
        elif got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    unknown = sorted(set(metrics) - set(out))
    if unknown:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(unknown))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
