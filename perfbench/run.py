#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The build goes to .bench_build/ (dune,
its cache disabled, so nothing is written outside the checkout); trace files
and the runtime-events ring go to .bench_build/perfbench/. The last line of
standard output is the result object; see perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BUILD = ".bench_build"
OUT = os.path.join(BUILD, "perfbench")
BENCH = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
SSDEP = os.path.join(BUILD, "default", "bin", "ssdep.exe")
DATA = os.path.join("perfbench", "expected")
WORKLOADS = ["sweep", "fleet_tape", "fleet_mirror", "serve"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for path in ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]:
        if not os.path.exists(path):
            fail("run from the root of a checkout: %s is missing" % path)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "--cache=disabled", "--display=quiet",
           "./perfbench/perfbench.exe", "./bin/ssdep.exe"]
    # Build output goes to stderr: stdout ends with the result line.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)


def bench(args, capture=False):
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    cmd = [BENCH] + args + ["--ssdep", SSDEP, "--data", DATA, "--out", OUT]
    return subprocess.run(cmd, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test():
    """The benchmark's own tests: calibration linearity and wrong answers
    (in the executable), then every workload on tiny inputs in both modes:
    the replay must reproduce the untraced results, and every metric named
    in BENCHMARK.json must be printed, with its unit, under a valid name."""
    ok = bench(["selftest"]).returncode == 0
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for trace, key in [("0", "end_to_end"), ("1", "per_layer")]:
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            p = bench(["run", "--workload", w, "--seed", "7", "--seconds", "2",
                       "--trace", trace, "--tiny"], capture=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s --trace %s: exit %d" % (w, trace, p.returncode))
                ok = False
                continue
            r = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            bad = [k for k in got if not NAME.match(k)]
            problems = []
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%d of %d ops failed" % (r["failed"], r["attempted"]))
            if got != want:
                problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            if bad:
                problems.append("invalid names %s" % bad)
            print("%s --trace %s: %s" % (w, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.self_test:
        return self_test()
    return bench(["run", "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", a.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
