#!/usr/bin/env python3
"""The repository benchmark: one command that builds the system from source,
generates a workload's inputs from a seed, runs it with its shipped defaults,
checks the outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. --trace 0 reports the end-to-end metrics
of BENCHMARK.json; --trace 1 is the separate traced run that reports the
per-layer metrics, the layers' self times and the tracing overhead. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Everything the build and the runs leave behind goes under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def require_sources():
    """The benchmark builds the system from this checkout's sources."""
    needed = ["src/CMakeLists.txt", "tools/ihtl_serve.cpp", "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: not a source checkout (missing %s)" % ", ".join(missing))
        sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_runner", "perfbench_selftest", "ihtl_serve"])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
            if rc != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % " ".join(cmd[:2]))
                sys.exit(1)


def source_identity():
    """git sha when the checkout is a repository, plus a digest of the
    sources the benchmark builds (a checkout without .git still has one)."""
    sha = "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def stop_group(proc):
    """Kills whatever is left of the runner's process group (the daemons it
    launched, if it died without stopping them) and waits for it to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Runs one workload in the C++ runner; returns its report (dict)."""
    work = os.path.join(RUNS, "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.makedirs(TRACES, exist_ok=True)
    spans_out = os.path.join(TRACES, "%s-seed%d.spans.json" % (workload, seed))
    cmd = [os.path.join(BUILD, "perfbench_runner"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--config", os.path.join(HERE, "workloads.json"),
           "--work-dir", work, "--serve-bin", os.path.join(BUILD, "ihtl_serve"),
           "--spans-out", spans_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        proc.communicate()
        log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    finally:
        stop_group(proc)
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
    if proc.returncode != 0:
        log("perfbench: runner failed with exit code %d" % proc.returncode)
        sys.exit(1)
    return json.loads(out.strip().splitlines()[-1])


def select_metrics(report, bench, layers, trace):
    """The metrics the contract asks for, plus the names it lacks. A
    per-layer metric whose layer the workload never reaches reads 0."""
    produced = report["metrics"]
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics, missing, off_path = {}, [], []
    for m in wanted:
        name = m["name"]
        if name in produced:
            metrics[name] = {"value": produced[name]["value"], "unit": m["unit"]}
        elif trace and name.split(".")[0] not in layers:
            metrics[name] = {"value": 0, "unit": m["unit"]}
            off_path.append(name)
        else:
            missing.append(name)
    return metrics, missing, off_path


def print_report(report, metrics, bench, trace, sha, digest, off_path, moves):
    host = report["host"]
    print("== perfbench: %s  seed %d  trace %d" % (report["workload"], report["seed"], trace))
    print("host: %s, nproc %d, L1d %d KiB, L2 %d KiB, LLC %d KiB (%s), RAM %.1f GiB, %s"
          % (host["cpu_model"], host["nproc"], host["l1d_bytes"] >> 10,
             host["l2_bytes"] >> 10, host["llc_bytes"] >> 10,
             host["cache_geometry_source"], host["ram_bytes"] / 2**30, host["compiler"]))
    print("source: git %s, digest %s" % (sha, digest))
    regime = report["details"].get("regime", {})
    if regime:
        print("regime: x %.2f MB (%.2f x L2), x*k %.2f MB (%.3f x LLC)"
              % (regime["x_bytes"] / 1e6, regime["x_bytes"] / host["l2_bytes"],
                 regime["xk_bytes"] / 1e6, regime["xk_bytes"] / host["llc_bytes"]))
    if "flipped_edge_share" in regime:
        print("iHTL layout: %d hubs, %d flipped block(s), %.1f%% of edges flipped"
              % (regime["hubs"], regime["blocks"], 100 * regime["flipped_edge_share"]))
    print("host CPU stolen by neighbours during the run: %.1f%%"
          % report["details"]["host_steal_pct"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, m in metrics.items():
        note = ""
        if name in off_path:
            note = "   (layer not on this workload's path)"
        elif name in moves:
            note = "   -> %s" % moves[name]
        print("  %-36s %16.6g %s%s" % (name, m["value"], units[name], note))
    attempted = report["attempted"]
    print("  %-36s %16.6g ratio   (failed %d of %d attempted)"
          % ("fail_ratio", report["failed"] / max(attempted, 1), report["failed"], attempted))
    if trace and report.get("self_s"):
        print("self time by layer (s): " + ", ".join(
            "%s %.3f" % kv for kv in sorted(report["self_s"].items())))
    for e in report["errors"]:
        print("  error: " + e)
    if report["invalid"]:
        print("  INVALID: " + report["invalid"])


def self_test():
    build()
    ok = subprocess.call([os.path.join(BUILD, "perfbench_selftest")]) == 0
    ok &= subprocess.call([sys.executable, "-B", os.path.join(HERE, "tests", "test_spread.py")]) == 0
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    for w in config["workloads"]:
        for trace in (0, 1):
            report = run_workload(w["name"], 1, 1, trace, scale="tiny")
            _, missing, _ = select_metrics(report, bench, w["layers"], trace)
            good = report["failed"] == 0 and report["attempted"] > 0 and not missing
            ok &= good
            print("smoke %-16s trace %d: %s%s" % (
                w["name"], trace, "ok" if good else "FAILED",
                " (missing %s)" % ", ".join(missing) if missing else ""))
    print("perfbench self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="helper unit tests plus a tiny-scale run of every workload")
    args = parser.parse_args()
    require_sources()
    if args.self_test:
        return self_test()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    entry = next((w for w in config["workloads"] if w["name"] == args.workload), None)
    if entry is None:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    build()
    sha, digest = source_identity()
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics, missing, off_path = select_metrics(report, bench, entry["layers"], args.trace)
    moves = config.get("moves", {}) if args.trace else {}
    print_report(report, metrics, bench, args.trace, sha, digest, off_path, moves)
    for name in missing:
        print("  error: the runner did not report %s" % name)
    correct = report["failed"] == 0 and not report["invalid"] and not missing
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
