#!/usr/bin/env bash
# Runs the full correctness matrix locally:
#
#   1. analyzers          scripts/tasq_check.py: every conformance rule
#                         set (lint, arch, num, hot, sync, own, vec)
#                         against the repo, then every set's self-test.
#                         The vec set first needs the compiler's
#                         vectorization report (see below). CI's
#                         static-analysis job invokes this leg verbatim,
#                         so the local and CI analyzer runs cannot drift.
#   2. Release            build + full ctest
#   3. ASan + UBSan       build + full ctest
#   4. TSan               build + the concurrency-sensitive tests
#   5. FPE traps          Release + TASQ_FPE=ON build + full ctest, so any
#                         unguarded log(0), 0/0, exp overflow, or ordered
#                         NaN comparison crashes the test that reached it
#
# Build-tree naming convention: every leg that needs a configured tree
# owns exactly one `build-check-<leg>` directory (build-check-release,
# build-check-asan, build-check-tsan, build-check-fpe), and special-
# purpose builds follow the same scheme — the fpe leg's Release+traps
# tree is build-check-fpe, and the analyzers leg's vectorization-report
# build is build-check-vec. An existing `build/` stays untouched, and
# `rm -rf build-check-*` resets every leg at once. Set TASQ_CHECK_JOBS
# to bound parallelism.
#
# Usage: scripts/check.sh [analyzers|release|asan|tsan|fpe]... (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${TASQ_CHECK_JOBS:-$(nproc)}"
REPO_ROOT="$(pwd)"

# Known-benign sanitizer findings are suppressed centrally so one noisy
# third-party frame never trains people to ignore red output.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:${ASAN_OPTIONS:-}"
export LSAN_OPTIONS="suppressions=${REPO_ROOT}/scripts/sanitizers/lsan.supp:${LSAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:suppressions=${REPO_ROOT}/scripts/sanitizers/ubsan.supp:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=${REPO_ROOT}/scripts/sanitizers/tsan.supp:${TSAN_OPTIONS:-}"

run_leg() {
  local name="$1" dir="$2" sanitize="$3" test_regex="$4"
  shift 4
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S . -DTASQ_SANITIZE="${sanitize}" "$@" >/dev/null
  # Progress spam goes to /dev/null; warnings and errors arrive on stderr.
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "== ${name}: ctest =="
  if [[ -n "${test_regex}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
          --timeout 120 -R "${test_regex}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" --timeout 120
  fi
}

# The vec set audits compiler output rather than source text, so the leg
# first builds src/ with -DTASQ_VEC_REPORT=ON (Release flags — the
# vectorizer must see what the shipped code sees). GCC *appends* to
# vec_report.txt: only TUs actually compiled contribute lines, so the
# report is deleted up front AND the build runs --clean-first — an
# incremental rebuild would produce a report missing every up-to-date TU
# (their loops would all read as vec-unresolved), while keeping the old
# report would let stale lines vouch for loops that no longer vectorize.
analyzers_leg() {
  echo "== analyzers: vectorization report build (build-check-vec) =="
  cmake -B build-check-vec -S . -DCMAKE_BUILD_TYPE=Release \
        -DTASQ_VEC_REPORT=ON >/dev/null
  rm -f build-check-vec/vec_report.txt
  cmake --build build-check-vec --target tasq_vec_report -j "${JOBS}" \
        --clean-first >/dev/null
  echo "== analyzers: tasq_check.py (every rule set) =="
  python3 scripts/tasq_check.py --report build-check-vec/vec_report.txt
  echo "== analyzers: tasq_check.py --self-test =="
  python3 scripts/tasq_check.py --self-test
}

LEGS=("$@")
if [[ ${#LEGS[@]} -eq 0 ]]; then LEGS=(analyzers release asan tsan fpe); fi

for leg in "${LEGS[@]}"; do
  case "${leg}" in
    analyzers) analyzers_leg ;;
    release) run_leg "release" build-check-release "" "" ;;
    asan) run_leg "asan+ubsan" build-check-asan "address;undefined" "" ;;
    # TSan's scheduler interleaving makes the full suite slow; the
    # concurrency-sensitive suites (ParallelFor*, ParallelStress*, the
    # cluster simulator/scheduler + arbiter property tests, the serving
    # layer, the annotated mutex wrappers, and the lock-free sync
    # primitives) are the ones a race can hide in. CI's tsan job runs
    # this leg, so the selection is written only here.
    tsan) run_leg "tsan" build-check-tsan "thread" \
                  "Parallel|Cluster|Serve|Mutex|CondVar|Determinism|Arbiter|Sync" ;;
    # Full suite with FE_DIVBYZERO/FE_INVALID/FE_OVERFLOW delivering
    # SIGFPE: a green run proves the fmath.h guards are exhaustive.
    fpe) run_leg "fpe-traps" build-check-fpe "" "" \
                 -DCMAKE_BUILD_TYPE=Release -DTASQ_FPE=ON ;;
    *) echo "unknown leg '${leg}' (want analyzers|release|asan|tsan|fpe)" >&2
       exit 2 ;;
  esac
done

echo "== all requested legs passed =="
