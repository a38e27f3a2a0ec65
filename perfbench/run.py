#!/usr/bin/env python3
"""FragVisor-Sim benchmark entry point.

Builds perfbench/fvbench from the checkout's own sources (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, and relays its report. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --trace 1

--workload all runs every workload in turn and exits non-zero if any
correctness check fails. Result records (with the machine fingerprint) and
Chrome traces land in <build>/results/. --update-pins records the simulated
outputs of this seed as the new reference in perfbench/pins.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["storm", "cluster-borrow", "dsm-paper"]
PINS = os.path.join(HERE, "pins.json")


def run_seconds():
    """BENCHMARK.json's run_seconds: the default length of a run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 30


def run_timeout(seconds):
    """Time allowed for one fvbench run: the timed repetitions, plus the
    reference run, the serial storm run and the probes around them."""
    return 2 * seconds + 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds fvbench; returns its path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: no src/ next to perfbench/; run from a full checkout")
        return None
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "fvbench")


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def check_pin(record, update):
    """Compares the run's simulated outputs with the pinned ones for its seed.

    A difference is flagged, not failed: a change that alters the model
    changes them on purpose, a change that only speeds it up must not."""
    pins = load_pins()
    key = str(record["seed"])
    observed = dict(record["sim_outputs"])
    observed["state_digest"] = record["fingerprint"]["state_digest"]
    pinned = pins.get(record["workload"], {}).get(key)
    if update:
        pins.setdefault(record["workload"], {})[key] = observed
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
        return "updated"
    if pinned is None:
        return "unpinned"
    if pinned == observed:
        return "match"
    for name in sorted(set(pinned) | set(observed)):
        if pinned.get(name) != observed.get(name):
            print("  SIM OUTPUT CHANGED %s: pinned %s, now %s"
                  % (name, pinned.get(name), observed.get(name)))
    return "changed"


def run_one(exe, workload, seed, seconds, trace, min_reps, update_pins):
    """Runs one workload; returns (summary dict or None, exit code)."""
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--min-reps", str(min_reps), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None, 1
    lines = proc.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: %s exited %d without a result" % (workload, proc.returncode))
        return None, proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    record_path = os.path.join(out_dir, "%s-seed%d-trace%d.record.json" % (workload, seed, trace))
    with open(record_path) as f:
        record = json.load(f)
    record["pin"] = check_pin(record, update_pins)
    print("  sim outputs vs pins.json: %s" % record["pin"])
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    return summary, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--min-reps", type=int, default=0,
                    help="run at least this many repetitions, however short --seconds is")
    ap.add_argument("--update-pins", action="store_true")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        summary, rc = run_one(exe, name, args.seed, args.seconds, args.trace, args.min_reps,
                              args.update_pins)
        if summary is None:
            return 1
        results[name] = summary
        code = code or rc
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
