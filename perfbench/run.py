#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>] [--heldout-seed <m>]

Run from the repository root. The first call configures and builds
perfbench/ (the library tree under src/ plus the program) in Release mode
into .bench_build/; later calls only re-check the build. Build output goes
to stderr.

A run prints a short human summary and, as its last stdout line, one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
they are its per_layer list. A per-layer metric of a layer the workload
does not call (see perfbench/layers.json) reads 0. The full report
(provenance, every output and layer-sum check, all measured metrics) is
written to .bench_out/<workload>.trace<0|1>.json, and a traced run also
writes the Chrome trace .bench_out/<workload>.trace.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = ".bench_out"  # the binary's output directory, under ROOT
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def load_json(path):
    with open(path) as f:
        return json.load(f)


def select_metrics(report, workload, trace):
    """The BENCHMARK.json metrics of this mode, checked against the units
    the binary reported. Missing owned metrics and undeclared ones fail."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    measured = report["metrics"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(undeclared))
    for name, m in measured.items():
        if m["unit"] != declared[name]["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, m["unit"], declared[name]["unit"]))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    selected = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            selected[name] = measured[name]
            continue
        owners = layers.get(name, {}).get("workloads", [])
        if not trace or workload in owners or not owners:
            fail("workload %s did not report %s" % (workload, name))
        selected[name] = {"value": 0.0, "unit": m["unit"]}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--heldout-seed", type=int)
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        heldout = args.heldout_seed if args.heldout_seed else args.seed + 1
        code, out = run_binary(["--selftest", "--seed", str(args.seed),
                                "--heldout-seed", str(heldout)])
        sys.stdout.write(out)
        return code

    code, out = run_binary(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", str(args.trace)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark binary exited with code %d" % code)
    report = json.loads(lines[-1])
    metrics = select_metrics(report, args.workload, args.trace)
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    report["selected"] = result
    path = os.path.join(ROOT, OUT_DIR,
                        "%s.trace%d.json" % (args.workload, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for check in report["checks"]:
        if not check["ok"] or check["detail"]:
            print("check %-34s %s %s" % (check["name"],
                                         "ok" if check["ok"] else "FAILED",
                                         check["detail"]))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("full report: " + path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
