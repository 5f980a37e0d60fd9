#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench from the checkout's sources into .bench_build/, then:

  --trace 0  runs a fixed number of timed passes of the workload, one fresh
             process per pass, with a run of the host-speed reference
             before each pass and after the last. It checks every pass's
             output and reports the end-to-end metrics over the passes,
             every host time rescaled to the reference's nominal speed.
             Pass i simulates seed sub_seed(--seed, i), so a run's seed set
             depends only on --seed and --seconds, never on how fast the
             passes are.
  --trace 1  runs the traced run once and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build logs go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = ("paper_fifo", "paper_report", "scenario_churn")
# Nominal host seconds of one pass, process start to exit, plus the
# reference run before it, on a 4-core x86-64 VM while neighbouring VMs
# load the host (both run about twice as fast when they do not). A run plans
# seconds // PASS_SECONDS passes.
PASS_SECONDS = {"paper_fifo": 3.8, "paper_report": 3.6, "scenario_churn": 3.4}
MIN_PASSES = 3
# Host seconds the reference work (reference.cpp) takes on that VM. The
# host's speed around pass i is REF_NOMINAL_S over the mean of the reference
# runs just before and just after it. Every host time of the pass (its pass
# seconds and the set-ups taken just before it) is multiplied by that speed:
# the time it would take on a host running the reference in REF_NOMINAL_S.
REF_NOMINAL_S = 0.45
# Safety stop: no pass is started that would end past SAFETY_FACTOR x
# --seconds (once MIN_PASSES are done), nor past HARD_STOP_S at all, so a
# run on a slow host still ends well inside 180 s. It cuts the planned
# seed set only when the host runs at under 1/SAFETY_FACTOR of nominal.
SAFETY_FACTOR = 1.1
HARD_STOP_S = 130
# Set-up-only processes started before each pass; with the passes' own
# set-ups they give setup_s's median.
SETUP_ONLY_PER_PASS = 4
CHILD_TIMEOUT_S = 170


def child_env():
    """The environment minus every variable that could change a pass:
    the result cache, the thread count, and the bench knobs."""
    return {
        k: v
        for k, v in os.environ.items()
        if k not in ("TLS_CACHE_DIR", "TLS_JOBS") and not k.startswith("TLS_BENCH_")
    }


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        )
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env()).returncode
        if rc != 0:
            print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_child(cmd):
    """Runs one benchmark process to completion; returns (rc, stdout lines,
    stderr, CLOCK_MONOTONIC ns just before the process was spawned)."""
    env = child_env()
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, [], "timed out", spawn_ns
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.strip(), spawn_ns


def setup_seconds(result, spawn_ns):
    """Spawn to the start of the pass: exec, loading, static initialisation
    and the set-up in main. Both ends read CLOCK_MONOTONIC."""
    return (result["pass_start_ns"] - spawn_ns) / 1e9


def sub_seed(seed, i):
    """The seed pass i of a run simulates. Host time per simulated event
    differs from seed to seed even when the work is the same, so every pass
    of a run simulates its own seed and the run's median spans many inputs
    rather than one."""
    return (seed * 1000 + i) % (1 << 63)


def last_json(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def reference(log):
    """One run of the host-speed reference in a fresh process; returns its
    result record (ref_s, checksum, ...), or None (logged) when it failed."""
    rc, lines, err, _ = run_child([
        str(BUILD / "perfbench_pass"), "--workload", "paper_fifo", "--seed", "0",
        "--reference",
    ])
    result = last_json(lines)
    if rc != 0 or not result or not result.get("ok"):
        log.append(f"FAILED reference run: exit {rc} {err[-300:]}")
        return None
    log.append(
        f"reference {result['ref_s']:.4f} s (events {result['events_s']:.4f}, "
        f"text {result['text_s']:.4f}, checksum {result['checksum']})"
    )
    return result


def timed(args):
    def cmd(i):
        return [
            str(BUILD / "perfbench_pass"), "--workload", args.workload,
            "--seed", str(sub_seed(args.seed, i)),
        ]

    planned = max(MIN_PASSES, int(args.seconds // PASS_SECONDS[args.workload]))
    # passes[i] is the pass's result; setups[i] its own set-up time plus
    # those of the set-up-only processes started just before it.
    passes, setups, walls, refs, ref_log = [], [], [], [], []
    setup_failures = 0
    params = None
    start = time.monotonic()
    while len(passes) < planned:
        if passes:
            stop = HARD_STOP_S
            if len(passes) >= MIN_PASSES:
                stop = min(stop, SAFETY_FACTOR * args.seconds)
            if time.monotonic() - start + statistics.median(walls) > stop:
                print(f"safety stop: {len(passes)} of {planned} planned passes ran")
                break
        t0 = time.monotonic()
        refs.append(reference(ref_log))
        pass_setups = []
        for _ in range(SETUP_ONLY_PER_PASS):
            rc, lines, err, spawn_ns = run_child(cmd(len(passes)) + ["--setup-only"])
            result = last_json(lines)
            if rc == 0 and result and result.get("ok"):
                pass_setups.append(setup_seconds(result, spawn_ns))
            else:
                setup_failures += 1
                print(f"FAILED set-up before pass {len(passes)}: exit {rc} {err[-300:]}")
        rc, lines, err, spawn_ns = run_child(cmd(len(passes)))
        walls.append(time.monotonic() - t0)
        result = last_json(lines)
        if result is None:
            result = {"ok": False, "why": f"exit {rc}, no result: {err[-300:]}"}
        elif rc != 0 and result.get("ok"):
            result["ok"], result["why"] = False, f"exit {rc}"
        if result.get("ok"):
            result["setup_s"] = setup_seconds(result, spawn_ns)
            pass_setups.append(result["setup_s"])
        passes.append(result)
        setups.append(pass_setups)
        if params is None:
            params = next((l for l in lines if l.startswith("params ")), None)
    refs.append(reference(ref_log))

    if params:
        record = json.loads(params[len("params "):])
        record["seed"] = args.seed
        record["pass_seeds"] = f"{args.seed} * 1000 + pass index"
        print("params " + json.dumps(record))
    for line in ref_log:
        print(line)
    # Every reference run does the same work, so every one must end with the
    # same checksum.
    ref_failures = sum(1 for r in refs if r is None)
    if len({r["checksum"] for r in refs if r}) > 1:
        print("FAILED reference runs disagree on their checksum")
        ref_failures += 1

    measured, iterations, nominal_pass_s, setup_values = 0, 0, 0.0, []
    for i, p in enumerate(passes):
        seed = sub_seed(args.seed, i)
        around = [r["ref_s"] for r in refs[i:i + 2] if r]
        if not p.get("ok") or not around:
            print(f"pass {i} seed {seed}: FAILED {p.get('why', 'no reference run around it')}")
            continue
        speed = REF_NOMINAL_S / statistics.mean(around)
        rate = p["iterations"] / p["pass_s"]
        measured += 1
        iterations += p["iterations"]
        nominal_pass_s += p["pass_s"] * speed
        setup_values.extend(v * speed for v in setups[i])
        print(
            f"pass {i} seed {seed}: ok setup_s={p['setup_s']:.6f} "
            f"pass_s={p['pass_s']:.4f} iters/s={rate:.3f} host_speed={speed:.4f} "
            f"peak_rss_mb={p['peak_rss_mb']:.1f} digest={p['digest']} {p['summary']}"
        )
    ok = [p for p in passes if p.get("ok")]
    failed = len(passes) - measured

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    metrics = {
        "iters_per_s": {
            "value": iterations / nominal_pass_s if nominal_pass_s else 0.0, "unit": "1/s",
        },
        # A mean, not a median: each pass's peak is set by its own seed's
        # inputs, and the mean of those peaks repeats more closely from run
        # to run.
        "peak_rss_mb": {
            "value": statistics.mean(p["peak_rss_mb"] for p in ok) if ok else 0.0, "unit": "MB",
        },
        "setup_s": {"value": med(setup_values), "unit": "s"},
    }
    print(
        f"iters_per_s is the iterations of {measured} passes over their pass seconds, "
        f"setup_s the median of {len(setup_values)} set-ups; every time rescaled to "
        f"nominal host speed"
    )
    return {
        "correct": failed == 0 and setup_failures == 0 and ref_failures == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }


def sparse_probe(args, metrics):
    """Adds scenario.sparse_peak_rss_mb: the peak RSS of one fresh process
    running the sparse memory probe, where the scenario path's memory
    peaks. Returns (attempted, failed) probe runs."""
    name = "scenario.sparse_peak_rss_mb"
    metrics[name] = {"value": 0.0, "unit": "MB"}
    if args.workload != "scenario_churn":
        print(f"unmeasured {name:<28} not exercised: only scenario_churn runs the sparse probe")
        return 0, 0
    rc, lines, err, _ = run_child([
        str(BUILD / "perfbench_pass"), "--workload", args.workload,
        "--seed", str(args.seed), "--sparse-probe",
    ])
    result = last_json(lines)
    if rc != 0 or not result or not result.get("ok"):
        why = result.get("why") if result else f"exit {rc}: {err[-300:]}"
        print(f"FAILED sparse probe: {why}")
        return 1, 1
    metrics[name]["value"] = result["peak_rss_mb"]
    print(f"metric {name:<32} {result['peak_rss_mb']:.6g} MB")
    print(f"sparse probe seed {args.seed}: digest={result['digest']} {result['summary']}")
    return 1, 0


def traced(args):
    SPANS.mkdir(parents=True, exist_ok=True)
    spans = SPANS / f"{args.workload}-seed{args.seed}.json"
    cmd = [
        str(BUILD / "perfbench_traced"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--spans", str(spans),
    ]
    rc, lines, err, _ = run_child(cmd)
    result = last_json(lines)
    for line in lines:
        if not line.startswith("{"):
            print(line)
    if result is None:
        print(f"FAILED traced run: exit {rc}, no result: {err[-300:]}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"spans written to {spans.relative_to(ROOT)}")
    probe_attempted, probe_failed = sparse_probe(args, result["metrics"])
    correct = bool(result["correct"]) and rc == 0 and probe_failed == 0
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        wanted = [m["name"] for m in json.loads(spec.read_text())["per_layer"]]
        missing = [n for n in wanted if n not in result["metrics"]]
        if missing:
            print(f"FAILED traced run did not report {missing}")
            correct = False
    return {
        "correct": correct,
        "attempted": result["attempted"] + probe_attempted,
        "failed": result["failed"] + probe_failed,
        "metrics": result["metrics"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    out = traced(args) if args.trace else timed(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
