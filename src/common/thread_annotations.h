#ifndef TASQ_COMMON_THREAD_ANNOTATIONS_H_
#define TASQ_COMMON_THREAD_ANNOTATIONS_H_

/// Macros over Clang's thread-safety attributes (-Wthread-safety), so the
/// locking contract of the concurrent modules (src/serve, common/parallel.h)
/// is stated in the type system and checked at compile time:
///
///   * which mutex guards which field       TASQ_GUARDED_BY(mu)
///   * which functions need a lock held     TASQ_REQUIRES(mu)
///   * which functions take/drop a lock     TASQ_ACQUIRE(mu) / TASQ_RELEASE(mu)
///   * which functions must NOT hold it     TASQ_EXCLUDES(mu)
///
/// Under Clang with `-Wthread-safety` (CMake option TASQ_THREAD_SAFETY=ON
/// promotes it to -Werror=thread-safety; CI job `static-analysis`), touching
/// an annotated field without its mutex is a build break, not a latent race.
/// Under other compilers every macro expands to nothing, so the annotations
/// cost nothing and cannot change behavior.
///
/// The annotations only bite on types declared as capabilities — use the
/// tasq::Mutex / tasq::MutexLock / tasq::CondVar wrappers from
/// common/mutex.h, never raw std::mutex (enforced by the `raw-lock-in-src`
/// and `mutex-unannotated` rules of scripts/tasq_check.py lint).
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define TASQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define TASQ_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a type to be a lockable capability ("mutex" by convention).
#define TASQ_CAPABILITY(x) TASQ_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock).
#define TASQ_SCOPED_CAPABILITY TASQ_THREAD_ANNOTATION_(scoped_lockable)

/// Field annotation: reads and writes require `x` to be held.
#define TASQ_GUARDED_BY(x) TASQ_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer-field annotation: the pointee (not the pointer) is guarded.
#define TASQ_PT_GUARDED_BY(x) TASQ_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function annotation: callers must hold every listed capability, and the
/// function neither acquires nor releases them.
#define TASQ_REQUIRES(...) \
  TASQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function annotation: acquires the listed capabilities; callers must not
/// already hold them.
#define TASQ_ACQUIRE(...) \
  TASQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function annotation: releases the listed capabilities; callers must hold
/// them on entry.
#define TASQ_RELEASE(...) \
  TASQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function annotation: may acquire the capability; the boolean/pointer
/// return value tells whether it did (first argument is the success value).
#define TASQ_TRY_ACQUIRE(...) \
  TASQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function annotation: callers must NOT hold the listed capabilities
/// (deadlock prevention for functions that acquire them internally).
#define TASQ_EXCLUDES(...) TASQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function annotation: returns a reference to the given capability (for
/// accessor functions exposing a mutex).
#define TASQ_RETURN_CAPABILITY(x) TASQ_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis for one function. Every use must explain
/// why the contract cannot be expressed (and is expected to be rare).
#define TASQ_NO_THREAD_SAFETY_ANALYSIS \
  TASQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // TASQ_COMMON_THREAD_ANNOTATIONS_H_
