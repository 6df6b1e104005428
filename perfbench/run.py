#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (a CMake project that compiles the nga libraries from ../src)
into $CARGO_TARGET_DIR (default .bench_build); later runs reuse it.

Before running, BENCHMARK.json and perfbench/mapping.json are loaded and
checked (metric names, caps, every per-layer metric mapped). After the
run, every metric BENCHMARK.json declares for the trace mode must have
been printed with its unit; the result keeps exactly those. Each result is appended with its host/build stamp to
<build>/results.jsonl; a stamp that differs from the previous run's is
flagged on stderr (compare.py refuses to compare such runs silently).

The last line of stdout is the benchmark's JSON result. Exits non-zero,
printing no result, when the checkout cannot be built or a check fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_E2E, MAX_LAYER = 16, 128


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_spec(spec, mapping):
    """Returns a list of problems with BENCHMARK.json + mapping.json."""
    errs = []
    e2e, layers = spec.get("end_to_end", []), spec.get("per_layer", [])
    if not 1 <= len(e2e) <= MAX_E2E:
        errs.append("end_to_end must hold 1..%d metrics" % MAX_E2E)
    if not 1 <= len(layers) <= MAX_LAYER:
        errs.append("per_layer must hold 1..%d metrics" % MAX_LAYER)
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        errs.append("workloads must hold 2..8 entries")
    names = [m.get("name", "") for m in e2e + layers]
    names += [w.get("name", "") for w in spec.get("workloads", [])]
    for n in names:
        if not NAME_RE.match(n):
            errs.append("bad name %r" % n)
    if len(set(names)) != len(names):
        errs.append("a name is used more than once")
    for m in e2e + layers:
        if not UNIT_RE.match(m.get("unit", "")):
            errs.append("bad unit for %s" % m.get("name"))
        if m.get("better") not in ("lower", "higher"):
            errs.append("bad 'better' for %s" % m.get("name"))
    for m in e2e:
        if not 0 < m.get("bound", 0) <= 0.25:
            errs.append("bound of %s must be in (0, 0.25]" % m["name"])
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in e2e):
        errs.append("end_to_end needs setup_s in s, lower is better")
    patterns = [re.compile(p) for p in mapping.get("per_layer", {})]
    for m in layers:
        hits = sum(1 for p in patterns if p.fullmatch(m["name"]))
        if hits != 1:
            errs.append("per-layer metric %s matches %d mapping.json rows"
                        % (m["name"], hits))
    for m in e2e:
        if m["name"] not in mapping.get("end_to_end", {}):
            errs.append("end-to-end metric %s has no definition in "
                        "mapping.json" % m["name"])
    for w in spec.get("workloads", []):
        if w["name"] not in mapping.get("workloads", {}):
            errs.append("workload %s is not described in mapping.json"
                        % w["name"])
    return errs


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nga sources at %s/src: nothing to build"
             % os.path.relpath(ROOT))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    out = sys.stderr
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0 else []
        rc = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"] + gen,
                            stdout=out, stderr=out).returncode
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                         "--target", "perfbench"],
                        stdout=out, stderr=out).returncode
    if rc != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "mapping.json")) as f:
            mapping = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot load the benchmark spec: %s" % e)
    errs = check_spec(spec, mapping)
    if errs:
        fail("BENCHMARK.json / mapping.json: " + "; ".join(errs))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    exe = build(build_dir)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in 170 s", 3)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("the benchmark exited with code %d" % proc.returncode, 3)
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    missing = sorted(set(declared) - set(got))
    units = sorted(k for k in set(got) & set(declared)
                   if got[k] != declared[k])
    if missing or units:
        fail("printed metrics differ from BENCHMARK.json: missing %s, "
             "unit mismatch %s" % (missing, units), 3)
    result["metrics"] = {k: result["metrics"][k] for k in sorted(declared)}

    stamp = {}
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    last = os.path.join(build_dir, "last_stamp.json")
    if os.path.isfile(last):
        with open(last) as f:
            prev = json.load(f)
        diff = sorted(k for k in set(prev) | set(stamp)
                      if prev.get(k) != stamp.get(k))
        if diff:
            print("perfbench: WARNING: host/build stamp differs from the "
                  "previous run (%s): results are not comparable"
                  % ", ".join(diff), file=sys.stderr)
    with open(last, "w") as f:
        json.dump(stamp, f)
    with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "stamp": stamp, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
