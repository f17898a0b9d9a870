#ifndef TASQ_BENCH_MACHINE_STAMP_H_
#define TASQ_BENCH_MACHINE_STAMP_H_

// The machine a BENCH_*.json file was measured on, in perfbench/run.py's
// stamp fields: logical CPUs, the ISA tier the kernels were built for, and
// the compiler. bench/CMakeLists.txt defines TASQ_BENCH_ISA_TIER and
// TASQ_BENCH_COMPILER. scripts/bench_diff.py compares two files only when
// all three fields match.

#include <cstdint>
#include <thread>

#include "bench/bench_util.h"

namespace tasq::bench {

inline void SetMachineStamp(BenchJson& json) {
  json.Set("cpus", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.SetString("isa_tier", TASQ_BENCH_ISA_TIER);
  json.SetString("compiler", TASQ_BENCH_COMPILER);
}

}  // namespace tasq::bench

#endif  // TASQ_BENCH_MACHINE_STAMP_H_
