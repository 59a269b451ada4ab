#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Builds coral_server, coral_router and
perfbench/bench.exe with dune (build output goes to stderr), then runs
bench.exe, whose stdout ends with one JSON result line.  --self-check
makes short runs of every workload, traced and untraced, and checks
that each metric named in BENCHMARK.json is emitted with its unit and
sample count and that answer checking ran.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["./bin/coral_server.exe", "./bin/coral_router.exe", "./perfbench/bench.exe"]
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SOURCES = ["dune-project", "bin/coral_server.ml", "bin/coral_router.ml", "lib"]


def build():
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        sys.exit("run.py: not a CORAL checkout (missing %s)" % ", ".join(missing))
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", *TARGETS],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def stop_group(pgid):
    """Kill whatever is left of the bench's process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def bench(args, timeout=170):
    """Run bench.exe in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen([BENCH_EXE, *args, "--root", ROOT], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = 124
    stop_group(proc.pid)
    return code, out


def self_check():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    extra = ["update_read"]  # kept out of BENCHMARK.json; see README.md
    problems = []
    for workload in names + [w for w in extra if w not in names]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = bench(["--workload", workload, "--seed", "1",
                               "--seconds", "2", "--trace", trace])
            label = "%s --trace %s" % (workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            checked = re.search(r"^answers checked: (\d+)$", out, re.M)
            if not checked or int(checked.group(1)) == 0:
                problems.append("%s: answer checking did not run" % label)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if list(got) != list(want):
                problems.append("%s: metrics %s, want %s" % (label, list(got), list(want)))
            for name, unit in want.items():
                if got.get(name, {}).get("unit") != unit:
                    problems.append("%s: %s unit %r, want %r"
                                    % (label, name, got.get(name, {}).get("unit"), unit))
                if not re.search(r"^%s\s.*\(n=\d+\)$" % re.escape(name), out, re.M) \
                        and not re.search(r"^%s\s+\(not exercised" % re.escape(name), out, re.M):
                    problems.append("%s: %s printed without its sample count" % (label, name))
            print("%-28s correct=%s attempted=%d failed=%d checked=%s"
                  % (label, result["correct"], result["attempted"], result["failed"],
                     checked.group(1) if checked else "-"))
            if workload in names and not result["correct"]:
                problems.append("%s: wrong answers on a BENCHMARK.json workload" % label)
    for p in problems:
        print("self-check: " + p)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    code, out = bench(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0:
        sys.stderr.write(out)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
