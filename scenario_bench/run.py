#!/usr/bin/env python3
"""Scenario benchmark: builds the simulator from the checkout it is run in,
runs one workload and prints the benchmark's result as the last line.

    python3 scenario_bench/run.py --workload fleet-churn --seed 42 \
        --seconds 35 --trace 0

Run it from the repository root. The build lands in $CARGO_TARGET_DIR
(default .bench_build) under scenario_bench/, together with the binary's
logs and span files. --trace 0 reports the end-to-end metrics; --trace 1
also runs a traced round and reports the per-layer metrics. See
scenario_bench/METRICS.md for what each metric times.

A round runs every instance of the workload once, each in its own
process. Rounds repeat until the next one would overrun --seconds (at
least one runs), and each end-to-end metric is the median over rounds.
Separate processes matter: on a shared machine one process can run 10-15%
slower than the next for its whole life, which repeating work inside a
process does not average out.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = "scenario_bench"
WORKLOADS = ("fleet-churn", "cluster-steady", "fleet-learned")
BUILD_TIMEOUT_S = 840
DRIVER_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "node_windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Summed over a workload's instances and reported per dispatch.
PER_LAYER = {
    "orchestrator.build_s": "s",
    "orchestrator.run_model_s": "s",
    "orchestrator.node_windows": "count",
    "orchestrator.env_rebuilds": "count",
    "scenario.partition_calls": "count",
    "scenario.partition_s": "s",
    "scenario.runner_build_s": "s",
    "core.env_build_calls": "count",
    "core.env_build_s": "s",
    "core.env_teardown_s": "s",
    "core.decide_calls": "count",
    "core.decide_s": "s",
    "core.scheduler_make_calls": "count",
    "core.scheduler_make_s": "s",
    "core.scheduler_resets": "count",
    "core.window_step_s": "s",
    "rl.train_steps": "count",
    "rl.train_step_s": "s",
    "rl.actor_s": "s",
    "rl.critic_s": "s",
    "rl.targets_s": "s",
    "rl.gemm_calls": "count",
    "rl.replay_samples": "count",
    "telemetry.series_points": "count",
}

DERIVED = {
    "orchestrator.rebuild_ratio": "ratio",
    "core.window_step_us": "us",
    "rl.train_steps_per_s": "1/s",
    "trace.overhead_s": "s",
    "share.rebuild_of_run_model": "ratio",
    "share.train_of_wall": "ratio",
    "share.decide_step_of_wall": "ratio",
}


def fail(message, code=2):
    print("scenario_bench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as e:
            log.write(e.stdout or "")
            fail("%s timed out after %d s (log: %s)" % (cmd[0], timeout,
                                                        log_path))
        log.write(done.stdout)
    if done.returncode != 0:
        tail = "\n".join(done.stdout.splitlines()[-20:])
        fail("%s exited with %d (log: %s)\n%s" % (" ".join(cmd),
                                                   done.returncode, log_path,
                                                   tail))
    return done.stdout


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(build_dir, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "scenario_bench",
                "-j", jobs],
               os.path.join(build_dir, "build.log"), BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "scenario_bench")


def drive(binary, args, mode, instance, out_dir):
    log = os.path.join(out_dir, "%s-s%d-i%d-%s.log" % (
        args.workload, args.seed, instance, mode))
    stdout = run_logged([binary, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--instance", str(instance),
                         "--mode", mode, "--out-dir", out_dir],
                        log, DRIVER_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("%s run printed nothing (log: %s)" % (mode, log))
    return json.loads(lines[-1])


def ratio(num, den):
    return num / den if den > 0 else 0.0


def run_round(binary, args, mode, out_dir):
    """One process per instance; returns the results in instance order."""
    first = drive(binary, args, mode, 0, out_dir)
    return [first] + [drive(binary, args, mode, i, out_dir)
                      for i in range(1, int(first["instances"]))]


def digest_of(results):
    return "".join(r["digest"] for r in results)


def short_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(rounds):
    """Median over rounds of each round's per-dispatch figures. Set-up is
    the median of each process's set-up-only dispatches, averaged over the
    run's processes: a process's set-up level can differ 2x from the next
    one's, and a median across such a mix jumps between the two levels."""
    per_round = {name: [] for name in END_TO_END}
    extra = {"train_s": [], "train_steps_per_s": []}
    setup = []
    for results in rounds:
        setup += [statistics.median(r["setup_s"]) for r in results]
        done = [r for r in results if "wall_s" in r]
        if not done:
            continue
        per_round["wall_s"].append(statistics.fmean(r["wall_s"] for r in done))
        per_round["node_windows_per_s"].append(ratio(
            sum(r["node_windows"] for r in done),
            sum(r["eval_s"] for r in done)))
        per_round["peak_rss_mb"].append(
            statistics.fmean(r["peak_rss_mb"] for r in done))
        train = sum(r["train_s"] for r in done)
        extra["train_s"].append(train / len(done))
        extra["train_steps_per_s"].append(ratio(
            sum(r["train_steps"] for r in done), train))

    def med(values):
        return statistics.median(values) if values else 0.0

    medians = {name: med(v) for name, v in per_round.items()}
    medians["setup_s"] = statistics.fmean(setup)
    return medians, {name: med(v) for name, v in extra.items()}


def per_layer(traced, untraced_wall):
    """Instance totals divided by the instance count, plus derived ratios."""
    count = len(traced)
    total = {name: sum(r["layers"][name] for r in traced)
             for name in PER_LAYER}
    wall = sum(r["wall_s"] for r in traced)
    values = {name: v / count for name, v in total.items()}
    values.update({
        "orchestrator.rebuild_ratio": ratio(
            total["orchestrator.env_rebuilds"],
            total["orchestrator.node_windows"]),
        "core.window_step_us": 1e6 * ratio(total["core.window_step_s"],
                                           total["orchestrator.node_windows"]),
        "rl.train_steps_per_s": ratio(total["rl.train_steps"],
                                      total["core.scheduler_make_s"]),
        "trace.overhead_s": wall / count - untraced_wall,
        "share.rebuild_of_run_model": ratio(
            total["scenario.partition_s"] + total["core.env_build_s"],
            total["orchestrator.run_model_s"]),
        "share.train_of_wall": ratio(total["core.scheduler_make_s"], wall),
        "share.decide_step_of_wall": ratio(
            total["core.decide_s"] + total["core.window_step_s"], wall),
    })
    units = dict(PER_LAYER)
    units.update(DERIVED)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the program from the checkout it runs in; a
    # directory without the simulator's sources is an error.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: CMakeLists.txt and src/ are"
             " missing here")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, BENCH_DIR)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    rounds = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append(run_round(binary, args, "untraced", out_dir))
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            break

    runs = [r for results in rounds for r in results]
    problems = [why for r in runs for why in r["failures"]]
    digest = digest_of(rounds[0])
    if any(digest_of(results) != digest for results in rounds):
        problems.append("untraced rounds disagree on the simulated output")
    first = rounds[0][0]
    print("scenario_bench: nproc=%d GREENNFV_NATIVE_KERNELS=%s"
          " GREENNFV_TRACING=%s build=%s workload=%s seed=%d instances=%d"
          " rounds=%d" % (os.cpu_count() or 0, first["native_kernels"],
                          first["tracing"], first["build_type"],
                          args.workload, args.seed, len(rounds[0]),
                          len(rounds)))
    digest_line = "digest %s seed=%d untraced=%s" % (
        args.workload, args.seed, short_hash(digest))

    median, extra = end_to_end(rounds)
    metrics = {name: {"value": median[name], "unit": unit}
               for name, unit in END_TO_END.items()}

    if args.trace:
        traced = run_round(binary, args, "traced", out_dir)
        runs += traced
        traced_digest = digest_of(traced)
        digest_line += " traced=%s" % short_hash(traced_digest)
        for r in traced:
            problems += r["failures"] + r.get("cross_check_failures", [])
        if traced_digest != digest:
            problems.append("traced digest differs from untraced digest")
        if all("layers" in r for r in traced):
            metrics = per_layer(traced, median["wall_s"])
        else:
            problems.append("a traced dispatch failed before measuring")

    print(digest_line)
    sys.stdout.write(digest)
    for name, unit in END_TO_END.items():
        print("  %-28s %18.6f %s" % (name, median[name], unit))
    # Printed beside the end-to-end metrics but not part of them: training
    # is absent from fleet-churn and cluster-steady (see METRICS.md).
    for name, unit in (("train_s", "s"), ("train_steps_per_s", "1/s")):
        print("  %-28s %18.6f %s (not an end-to-end metric)" %
              (name, extra[name], unit))
    if args.trace:
        for name, metric in metrics.items():
            print("  %-28s %18.6f %s" % (name, metric["value"],
                                         metric["unit"]))
    for problem in problems:
        print("  FAILED: " + problem)

    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    if problems and failed == 0:
        failed = int(rounds[-1][0]["attempted"])
    correct = not problems and failed == 0 and all(
        r["build_type"] == "Release" for r in runs)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
