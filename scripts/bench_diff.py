#!/usr/bin/env python3
"""Diff freshly-emitted BENCH_*.json files against the committed copies.

The bench binaries (microbench_core, microbench_fmath, ext_arbiter_policies)
each write one flat JSON object of headline metrics; copies from a
known-good run are committed at the repo root as the perf
trajectory (ROADMAP item 5). This tool prints per-metric deltas between a
fresh run and the committed copy so a perf regression is visible in every
CI log — it is informational, not a gate: shared CI runners are too noisy
for absolute thresholds, so the release job runs it with
continue-on-error and humans read the deltas.

By default the fresh files are looked up in the current directory and the
committed copies via `git show HEAD:<name>`; pass two directories to diff
any pair of runs. Missing files and metrics are reported, not fatal
(exit is nonzero only on operational errors such as unparseable JSON).

Each file records the machine it was measured on (`cpus`, `isa_tier`,
`compiler`; bench/machine_stamp.h). A speed-up or slow-down means
something only on one machine, so when the two stamps differ, or either
file has none, the file's diff prints "different machine" with both
stamps and no metric rows.

Metric direction matters for the verdict column: keys matching
*_per_s / *_per_second / *_req_per_s count as higher-is-better; keys
matching *_ns* / *_ms* / *_allocations* count as lower-is-better;
anything else is shown without a verdict.

Usage:
  python3 scripts/bench_diff.py                     fresh cwd vs HEAD copies
  python3 scripts/bench_diff.py --fresh DIR         fresh DIR vs HEAD copies
  python3 scripts/bench_diff.py --fresh DIR --base DIR2
  python3 scripts/bench_diff.py --names BENCH_core.json,BENCH_fmath.json
"""

import argparse
import glob
import json
import os
import subprocess
import sys

DEFAULT_NAMES = (
    "BENCH_arbiter.json",
    "BENCH_core.json",
    "BENCH_fmath.json",
)

STAMP_KEYS = ("cpus", "isa_tier", "compiler")

HIGHER_IS_BETTER = ("_per_s", "_per_second", "_req_per_s", "_items_per_s",
                    "_samples_per_s")
LOWER_IS_BETTER = ("_ns", "_ms", "_allocations", "_ns_per_op", "_bytes")


def load_json_file(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_committed(repo_root, name):
    """The committed copy via git; None when it is not tracked at HEAD."""
    try:
        blob = subprocess.run(
            ["git", "-C", repo_root, "show", f"HEAD:{name}"],
            capture_output=True, text=True, check=False)
    except OSError:
        return None
    if blob.returncode != 0:
        return None
    return json.loads(blob.stdout)


def machine(result):
    """The file's machine stamp, or None when it lacks any field."""
    if not all(key in result for key in STAMP_KEYS):
        return None
    return tuple(result[key] for key in STAMP_KEYS)


def describe(stamp):
    if stamp is None:
        return "no stamp"
    return ", ".join(f"{key}={value}"
                     for key, value in zip(STAMP_KEYS, stamp))


def direction(key):
    for suffix in HIGHER_IS_BETTER:
        if suffix in key:
            return +1
    for suffix in LOWER_IS_BETTER:
        if suffix in key:
            return -1
    return 0


def verdict(key, base, fresh):
    """A coarse better/worse/~ tag; '~' inside ±2% (runner noise floor)."""
    if not isinstance(base, (int, float)) or not isinstance(
            fresh, (int, float)) or base == 0:
        return ""
    ratio = (fresh - base) / abs(base)
    if abs(ratio) < 0.02:
        return "~"
    sign = direction(key)
    if sign == 0:
        return ""
    return "better" if ratio * sign > 0 else "WORSE"


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def diff_one(name, base, fresh):
    """One file's diff. A file present on only one side (a bench added or
    retired, or a binary that was not run) is a normal state, not an error:
    every metric prints a `missing` row for the absent side and the step
    stays non-blocking."""
    print(f"== {name}")
    if base is None and fresh is None:
        print("   (neither a committed copy nor a fresh run exists)")
        return
    if base is None:
        print("   no committed copy at HEAD (new bench?):")
        width = max((len(k) for k in fresh), default=0)
        for key, value in fresh.items():
            print(f"   {key:{width}s} {'missing':>14s} -> "
                  f"{fmt(value):>14s}")
        return
    if fresh is None:
        print("   no fresh run found (bench binary not executed?):")
        width = max((len(k) for k in base), default=0)
        for key, value in base.items():
            print(f"   {key:{width}s} {fmt(value):>14s} -> "
                  f"{'missing':>14s}")
        return
    base_machine, fresh_machine = machine(base), machine(fresh)
    if base_machine is None or base_machine != fresh_machine:
        print(f"   different machine: base ({describe(base_machine)}), "
              f"fresh ({describe(fresh_machine)}); metrics not compared")
        return
    keys = list(base.keys()) + [k for k in fresh if k not in base]
    width = max((len(k) for k in keys), default=0)
    for key in keys:
        in_base, in_fresh = key in base, key in fresh
        if in_base and not in_fresh:
            print(f"   {key:{width}s} {fmt(base[key]):>14s} -> "
                  f"{'missing':>14s}")
            continue
        if in_fresh and not in_base:
            print(f"   {key:{width}s} {'missing':>14s} -> "
                  f"{fmt(fresh[key]):>14s}")
            continue
        b, f = base[key], fresh[key]
        if b == f:
            continue  # Identical (typically strings / config echoes).
        tag = verdict(key, b, f)
        delta = ""
        if isinstance(b, (int, float)) and isinstance(f, (int, float)) \
                and b != 0:
            delta = f"  {100.0 * (f - b) / abs(b):+.1f}%"
        print(f"   {key:{width}s} {fmt(b):>14s} -> {fmt(f):>14s}"
              f"{delta}  {tag}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fresh", default=".",
                        help="directory holding freshly-emitted "
                        "BENCH_*.json (default: current directory)")
    parser.add_argument("--base", default=None,
                        help="directory holding baseline copies (default: "
                        "the committed copies at git HEAD)")
    parser.add_argument("--names", default=None,
                        help="comma-separated file names to diff (default: "
                        "the known BENCH_*.json set plus any BENCH_*.json "
                        "present in --fresh)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
    else:
        names = list(DEFAULT_NAMES)
        for path in sorted(glob.glob(os.path.join(args.fresh,
                                                  "BENCH_*.json"))):
            base = os.path.basename(path)
            if base not in names:
                names.append(base)

    for name in names:
        fresh_path = os.path.join(args.fresh, name)
        try:
            fresh = load_json_file(fresh_path) if os.path.exists(
                fresh_path) else None
            if args.base is None:
                base = load_committed(repo_root, name)
            else:
                base_path = os.path.join(args.base, name)
                base = load_json_file(base_path) if os.path.exists(
                    base_path) else None
        except (json.JSONDecodeError, OSError) as error:
            print(f"bench_diff: cannot read {name}: {error}",
                  file=sys.stderr)
            return 1
        diff_one(name, base, fresh)
    print("(informational: shared-runner noise makes absolute thresholds "
          "flaky; read WORSE rows against the ±2% noise floor)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
