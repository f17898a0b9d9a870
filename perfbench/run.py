#!/usr/bin/env python3
"""Build and run the TASQ benchmark.

    python3 perfbench/run.py --workload serve_adhoc --seed 3 --seconds 10 --trace 0

Builds perfbench/ together with the TASQ libraries from src/ (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload, and prints the benchmark binary's log followed by two JSON lines:
the run's stamp (machine, compiler, ISA tier, source version, workload,
seed), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are every end_to_end metric of BENCHMARK.json with --trace 0
and every per_layer metric with --trace 1, each as {"value", "unit"}. A
layer the workload does not reach reads 0. Exits non-zero, printing no
result, when the sources are missing, the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
WORKLOADS = ("serve_recurring", "serve_adhoc", "train", "allocate")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no TASQ sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "tasq_perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def cache_value(build_dir, key):
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_version():
    """The git commit when run from a clone, else a digest of src/."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def stamp(build_dir, args):
    compiler = "unknown"
    for info in (build_dir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        fields = {}
        for line in info.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split('"')[1]
        compiler = " ".join(fields.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    if cache_value(build_dir, "TASQ_PORTABLE_KERNELS") == "ON":
        isa = "baseline"
    elif cache_value(build_dir, "TASQ_HOST_HAS_AVX512F") == "1":
        isa = "avx512f"
    elif cache_value(build_dir, "TASQ_HOST_HAS_AVX2") == "1":
        isa = "avx2"
    else:
        isa = "baseline"
    return {"cpus": os.cpu_count(), "isa_tier": isa, "compiler": compiler,
            "commit": source_version(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = build()
    command = [str(build_dir / "tasq_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"run exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")

    measured = result["metrics"]
    unknown = sorted(set(measured) - set(wanted))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    if not args.trace:
        missing = sorted(set(wanted) - set(measured))
        if missing:
            fail("end-to-end metrics not measured: " + ", ".join(missing))
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in wanted.items()}

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"stamp": stamp(build_dir, args)}))
    print(json.dumps({"correct": bool(result["correct"]) and result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
