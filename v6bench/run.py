#!/usr/bin/env python3
"""Build v6bench from source and run one workload.

    python3 v6bench/run.py --workload paper_frozen --seed 2011 --seconds 30 --trace 0
    python3 v6bench/run.py --selftest
    python3 v6bench/run.py --regenerate [--workload NAME] [--seed N]

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/, always as a Release build; build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. A traced run (--trace 1) also writes its Chrome trace-event
JSON to <build dir>/trace-<workload>-<seed>.json.

--regenerate rewrites v6bench/digests.txt, printing each output's old and
new digest. Without --workload/--seed it regenerates every committed
(workload, seed) pair.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_frozen", "paper_evolving_race", "many_vps_serial"]
# Seed 2011 is the baseline, 4242 the held-out seed, 1..8 the pool that
# any other --seed maps onto (kSeedPool in src/main.cpp).
DIGEST_SEEDS = [2011, 4242, 1, 2, 3, 4, 5, 6, 7, 8]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "v6bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("v6bench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "v6bench")


def git_head():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--regenerate", action="store_true")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    digests = os.path.join(HERE, "digests.txt")

    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode
    if args.regenerate:
        workloads = [args.workload] if args.workload else WORKLOADS
        seeds = [args.seed] if args.seed is not None else DIGEST_SEEDS
        for w in workloads:
            for s in seeds:
                cmd = [binary, "--regenerate", "--workload", w, "--seed", str(s),
                       "--digests", digests]
                if subprocess.run(cmd).returncode != 0:
                    return 1
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seed = 2011 if args.seed is None else args.seed
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", digests, "--git-head", git_head()]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}-{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
