#!/usr/bin/env python3
"""End-to-end benchmark of smpx and smpxd (see perfbench/README.md).

One run, as BENCHMARK.json's command:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out F]
Prove steadiness (N runs per workload, seeds 1..N):
  python3 perfbench/run.py steady [--workload W ...] [--runs 10] [--out F]
Judge a change against its parent (two result files written by --out):
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
The benchmark's own tests (tiny inputs, every workload, a corrupted output):
  python3 perfbench/run.py smoke

Builds the programs from source into .bench_build/ on first use; inputs,
outputs, sockets and logs go to .bench_work/. The last line of a run's
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is non-zero when any operation failed or any
output differed from the oracle.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD, "perfbench")
BIN_DIR = os.path.join(BUILD, "smpx")
HARNESS_TIMEOUT_S = 170
# Runnable and checked like the declared workloads, but not in
# BENCHMARK.json: on a 4-vCPU VM their wall-clock figures spread 23-41%
# from run to run (see README.md), wider than any bound allowed there.
EXTRA_WORKLOADS = ["medline-sharded", "medline-serve"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds smpx, smpxd and the harness; exits on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "smpx_cli", "smpxd"])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-4000:].decode(errors="replace")
                fail("build failed:\n" + tail)


def git_provenance():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"git_sha": "unknown", "git_dirty": None}

    def git(*args):
        r = subprocess.run(["git", "-C", ROOT] + list(args),
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else ""

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD") or "unknown",
            "git_dirty": bool(dirty)}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_harness(workload, seed, seconds, trace, extra=()):
    """Runs the harness once; returns (exit code, record or None)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", BIN_DIR, "--work-dir", WORK] + list(extra)
    # Own process group, so a timeout also stops any smpx/smpxd it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: harness timed out", file=sys.stderr)
        return 1, None
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is not None:
        record["provenance"].update(git_provenance())
        record["provenance"]["cpu_model"] = cpu_model()
    return proc.returncode, record


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def check_declared(spec, record, trace):
    """Names every declared metric the record lacks or reports in another
    unit; an empty list means the record is complete."""
    problems = []
    for m in declared(spec, trace):
        got = record["metrics"].get(m["name"])
        if got is None:
            problems.append(m["name"] + " missing")
        elif got["unit"] != m["unit"]:
            problems.append("%s unit %s, declared %s" %
                            (m["name"], got["unit"], m["unit"]))
    return problems


def contract_line(spec, record, trace, ok):
    metrics = {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in declared(spec, trace)}
    return {"correct": bool(ok and record["correct"]),
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"], "metrics": metrics}


def print_table(record):
    for name, m in record["metrics"].items():
        print("  %-28s %16.6g %-7s (%s is better)" %
              (name, m["value"], m["unit"], m["better"]))


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSONL file")
    a = p.parse_args(argv)
    spec = load_spec()
    if a.workload not in workload_names(spec):
        fail("unknown workload " + a.workload)
    build()
    code, record = run_harness(a.workload, a.seed, a.seconds, a.trace)
    if record is None:
        fail("harness produced no record (exit %d)" % code)
    problems = check_declared(spec, record, a.trace)
    for msg in problems:
        print("perfbench: " + msg, file=sys.stderr)
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print("%s seed=%d trace=%d: %d operations, %d failed" %
          (a.workload, a.seed, a.trace, record["attempted"], record["failed"]))
    print_table(record)
    if problems:
        sys.exit(1)
    line = contract_line(spec, record, a.trace, code == 0)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] and line["failed"] == 0 else 1)


# ------------------------------------------------------------ steadiness

def spread(values):
    """Interquartile distance as a share of the median (the acceptance
    rule's measure)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / abs(med) if med else float("inf"))


def cmd_steady(argv):
    p = argparse.ArgumentParser(prog="run.py steady")
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", help="append every record to this JSONL file")
    a = p.parse_args(argv)
    spec = load_spec()
    seconds = a.seconds or spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    build()
    wide = False
    for wl in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(a.runs):
            code, record = run_harness(wl, a.seed0 + i, seconds, 0)
            if record is None or code != 0 or check_declared(spec, record, 0):
                fail("%s seed %d failed (exit %d)" % (wl, a.seed0 + i, code))
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            for name in values:
                values[name].append(record["metrics"][name]["value"])
        print("%s: %d runs, seeds %d..%d, %d s each" %
              (wl, a.runs, a.seed0, a.seed0 + a.runs - 1, seconds))
        print("  %-18s %-7s %12s %12s %12s %8s %6s %10s" %
              ("metric", "unit", "q1", "median", "q3", "spread", "bound",
               "spread/bd"))
        for m in spec["end_to_end"]:
            q1, med, q3, sp = spread(values[m["name"]])
            ratio = sp / m["bound"]
            gated = m["name"] != "setup_s"
            verdict = ("ok" if ratio < 1 / 3 else "WIDE") if gated else \
                "(not gated)"
            wide = wide or (gated and ratio >= 1 / 3)
            print("  %-18s %-7s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %10.2f %s"
                  % (m["name"], m["unit"], q1, med, q3, 100 * sp,
                     100 * m["bound"], ratio, verdict))
        sys.stdout.flush()
    sys.exit(1 if wide else 0)


# --------------------------------------------------------------- compare

def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def better(a, b, direction):
    """True when value b is strictly better than value a."""
    return b > a if direction == "higher" else b < a


def verdict(parent, change, bound, direction):
    """Classifies one workload x metric; parent and change are lists of
    values from runs made in alternating pairs."""
    pm, cm = statistics.median(parent), statistics.median(change)
    worse_by = (pm - cm if direction == "higher" else cm - pm) / abs(pm)
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(p, c, direction))
    p_q1, _, p_q3, p_spread = spread(parent)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            better(pm, cm, direction) and abs(cm - pm) > p_q3 - p_q1):
        return "improved"
    c_spread = spread(change)[3]
    all_better = all(better(p, c, direction) for p in parent for c in change)
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    a = p.parse_args(argv)
    spec = load_spec()
    parent, change = read_records(a.parent), read_records(a.change)
    bad = False
    print("%-16s %-18s %12s %12s  %s" %
          ("workload", "metric", "parent", "change", "verdict"))
    present = {r["provenance"]["workload"] for r in parent + change}
    for wl in [w for w in workload_names(spec) if w in present]:
        def runs(records):
            return [r for r in records if r["provenance"]["workload"] == wl
                    and r["provenance"]["trace"] == 0]
        pr, cr = runs(parent), runs(change)
        if len(pr) < 2 or len(cr) < 2:
            print("%-16s %-18s %12s %12s  unresolved (too few runs)" %
                  (wl, "*", len(pr), len(cr)))
            continue
        p_fail = sum(r["failed"] for r in pr) / max(1, sum(r["attempted"]
                                                          for r in pr))
        c_fail = sum(r["failed"] for r in cr) / max(1, sum(r["attempted"]
                                                          for r in cr))
        more_failures = c_fail > p_fail
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in pr]
            cv = [r["metrics"][m["name"]]["value"] for r in cr]
            v = verdict(pv, cv, m["bound"], m["better"])
            if v == "improved" and more_failures:
                v = "unresolved (more failures than parent)"
            bad = bad or v == "regressed"
            print("%-16s %-18s %12.6g %12.6g  %s" %
                  (wl, m["name"], statistics.median(pv),
                   statistics.median(cv), v))
        v = "regressed" if more_failures else "unchanged"
        bad = bad or more_failures
        print("%-16s %-18s %12.6g %12.6g  %s" %
              (wl, "failed_frac", p_fail, c_fail, v))

    # Deterministic counters of traced runs must repeat exactly for the
    # same commit and seed; across commits a difference is reported.
    def key(r):
        return (r["provenance"]["workload"], r["provenance"]["seed"])
    traced = {key(r): r for r in parent if r["provenance"]["trace"] == 1}
    for r in change:
        if r["provenance"]["trace"] != 1 or key(r) not in traced:
            continue
        q = traced[key(r)]
        same = (q["provenance"]["git_sha"] == r["provenance"]["git_sha"] !=
                "unknown" and not q["provenance"]["git_dirty"] and
                not r["provenance"]["git_dirty"])
        for name, m in q["metrics"].items():
            if not m["deterministic"] or name not in r["metrics"]:
                continue
            if m["value"] != r["metrics"][name]["value"]:
                print("%s seed %s: counter %s %r -> %r%s" %
                      (key(r)[0], key(r)[1], name, m["value"],
                       r["metrics"][name]["value"],
                       "  MISMATCH (same commit)" if same else ""))
                bad = bad or same
    sys.exit(1 if bad else 0)


# ----------------------------------------------------------------- smoke

def cmd_smoke(argv):
    spec = load_spec()
    build()
    failures = []
    for wl in workload_names(spec):
        for trace in (0, 1):
            code, record = run_harness(wl, 1, 1, trace, ["--smoke"])
            if record is None or code != 0 or record["failed"] != 0:
                failures.append("%s trace=%d: exit %d" % (wl, trace, code))
                continue
            failures += ["%s trace=%d: %s" % (wl, trace, p)
                         for p in check_declared(spec, record, trace)]
        # One deliberately corrupted output must count as exactly one
        # failure and fail the run.
        code, record = run_harness(wl, 1, 1, 0, ["--smoke", "--corrupt"])
        if record is None or code == 0 or record["failed"] != 1:
            failures.append("%s: corrupted output not caught (exit %d)" %
                            (wl, code))
        print("smoke %-16s %s" % (wl, "ok" if not any(
            f.startswith(wl) for f in failures) else "FAILED"))
    for f in failures:
        print("  " + f)
    sys.exit(1 if failures else 0)


def main():
    argv = sys.argv[1:]
    commands = {"steady": cmd_steady, "compare": cmd_compare,
                "smoke": cmd_smoke}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
