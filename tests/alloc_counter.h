#ifndef TASQ_TESTS_ALLOC_COUNTER_H_
#define TASQ_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

// Test-only heap-allocation counter — the runtime tier of the hot-path
// conformance story (DESIGN.md, "Hot-path conformance"). Linking the
// tasq_alloc_counter library replaces the global allocation functions
// (operator new / new[] and their aligned/nothrow variants) with
// malloc-backed versions that bump a process-wide atomic counter, so a
// test can pin an exact allocation budget on a code path:
//
//   uint64_t before = tasq_test::AllocationCount();
//   ... the code under budget ...
//   EXPECT_EQ(tasq_test::AllocationCount() - before, 0u);
//
// The counter counts every thread's allocations (the budget must hold
// process-wide, not just on the calling thread), so measure while
// background threads are quiescent. Deallocation is uncounted: the
// budget is about acquiring memory on the hot path, and counting frees
// would double-charge caller-owned buffer churn.
//
// This mirrors the FPE-trap harness (tests/tasq_test_main.cc): the static
// analyzer (`tasq_check.py hot`) proves the absence of allocation calls
// in hot code, and this counter catches what static analysis cannot —
// allocations hidden inside library calls, container growth the analyzer
// was waived over, or std::function capture behind a template.

namespace tasq_test {

/// Number of allocation-function invocations since process start, across
/// all threads. Monotone; never reset.
uint64_t AllocationCount();

}  // namespace tasq_test

#endif  // TASQ_TESTS_ALLOC_COUNTER_H_
