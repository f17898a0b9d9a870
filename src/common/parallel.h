#ifndef TASQ_COMMON_PARALLEL_H_
#define TASQ_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace tasq {

/// Runs `body(i)` for every i in [0, count) across up to `num_threads`
/// worker threads (0 = hardware concurrency). Work is handed out by an
/// atomic counter, so uneven per-item cost balances naturally. The caller
/// is responsible for making `body` safe to run concurrently for distinct
/// indices (typically: write only to slot i of a pre-sized output vector).
/// Deterministic outputs are preserved because each index computes the
/// same value regardless of which thread runs it.
///
/// Exception contract: if `body` throws, the first exception caught (in
/// completion order) is rethrown on the calling thread after every worker
/// has been joined — never std::terminate. Remaining indices may or may
/// not run once an exception is pending, so a throwing `body` must leave
/// shared state valid for partially processed ranges.
inline void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                        unsigned num_threads = 0) {
  if (count == 0) return;
  unsigned hardware = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = hardware > 0 ? hardware : 1;
  if (num_threads > count) num_threads = static_cast<unsigned>(count);
  if (num_threads <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Relaxed throughout for both atomics: `next` only partitions indices
  // (each i is claimed exactly once by the RMW; results are published by
  // the joins below, not by the counter), and `cancelled` is a
  // best-effort stop flag whose only effect is skipping work.
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  Mutex exception_mutex;
  std::exception_ptr first_exception;  // Guarded by exception_mutex.
  auto worker = [&]() {
    while (!cancelled.load(std::memory_order_relaxed)) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        {
          MutexLock lock(exception_mutex);
          if (!first_exception) first_exception = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (unsigned t = 0; t + 1 < num_threads; ++t) {
    threads.emplace_back(worker);
  }
  worker();  // The calling thread participates.
  for (std::thread& thread : threads) thread.join();
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace tasq

#endif  // TASQ_COMMON_PARALLEL_H_
