#ifndef TASQ_COMMON_SYNC_PAUSE_H_
#define TASQ_COMMON_SYNC_PAUSE_H_

namespace tasq {

/// One CPU "relax" hint for the body of a bounded busy-wait loop.
///
/// A spin loop without a pause instruction saturates the core's
/// speculation machinery and starves the hyper-twin that is trying to
/// make the condition true; on x86 it can also trigger the memory-order
/// machine-clear penalty when the awaited line finally changes. Every
/// busy-wait in src/ therefore calls CpuRelax() (or escalates to
/// std::this_thread::yield()) in its body — enforced by the
/// spin-without-pause rule of scripts/tasq_check.py sync.
///
/// The hint is not a fence and not a syscall: it never blocks, never
/// allocates, and is safe inside TASQ_HOT code.
inline void CpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");  // sync: volatile asm hint, not data
#else
  // No portable pause hint: a compiler barrier at least forces the
  // condition to be re-read instead of hoisted out of the loop.
  asm volatile("" ::: "memory");  // sync: volatile asm barrier, not data
#endif
}

}  // namespace tasq

#endif  // TASQ_COMMON_SYNC_PAUSE_H_
