#ifndef TASQ_COMMON_HOT_H_
#define TASQ_COMMON_HOT_H_

/// Hot-path performance annotation — the marker behind the hot rule set
/// of scripts/tasq_check.py (see DESIGN.md, "Hot-path
/// conformance").
///
/// `TASQ_HOT` goes immediately before the return type of a function
/// declaration (preferably the header declaration; annotating the
/// definition also works):
///
///   TASQ_HOT uint64_t Fingerprint() const;
///
/// The annotation is a *contract*, enforced transitively over the static
/// call graph by `tasq_check.py hot`: the function, and every src/
/// function reachable from it, must be
///
///   - allocation-free: no new/malloc/make_unique, no container growth
///     (push_back/resize/insert/...), no std::string construction, no
///     std::function (its captures heap-allocate);
///   - lock-free: no MutexLock, lock_guard or .lock(); the serving fast
///     path takes no lock at all, so a reviewed exception needs a waiver
///     like any other rule;
///   - non-blocking: no sleeps, no condition-variable waits, no I/O;
///   - abort-free: no throw, no abort/exit, no TASQ_CHECK (use
///     TASQ_DCHECK, which compiles out of Release serving builds).
///
/// A deliberate, reviewed exception carries a same-line (or
/// preceding-line) waiver comment with a reason:
///
///   buffer.push_back(x);  // hot: bounded by ctor-time reserve(capacity)
///
/// The macro itself expands to nothing: it exists so the analyzer (and a
/// reader) can see which paths promise predictable latency. The runtime
/// tier (tests/alloc_counter.h + hot_path_test.cc) pins the promise down
/// with a counting operator new: the warm cache-hit serving path must
/// measure exactly zero heap allocations per request.
#define TASQ_HOT

/// Vectorization annotation — the marker behind the vec rule set of
/// scripts/tasq_check.py (see DESIGN.md, "Vectorization policy").
///
/// `TASQ_VEC` goes on its own line (or the same line) immediately before
/// a `for`/`while` loop that MUST auto-vectorize:
///
///   TASQ_VEC
///   for (size_t j = 0; j < n; ++j) out[j] += a * b[j];
///
/// Unlike the other conformance layers, the contract is not checked
/// against the source text: a dedicated build (cmake -DTASQ_VEC_REPORT=ON)
/// compiles src/ with the compiler's vectorizer report enabled
/// (-fopt-info-vec-all on GCC, -fsave-optimization-record on Clang) and
/// `tasq_check.py --report` maps it back to every annotated loop. An
/// annotated loop the compiler reports as "not vectorized" fails the
/// analyzer with the compiler's own reason (aliasing, non-contiguous
/// access, function call in loop, ...); an annotation that binds to no
/// vectorizer decision at all (loop deleted, turned into memset/memcpy,
/// file not compiled) fails as vec-unresolved.
///
/// A deliberate, reviewed exception carries a `// vec: <reason>` waiver on
/// the annotation line, the loop line, or the line directly above; the
/// analyzer flags waivers whose loop vectorizes anyway as stale.
///
/// Kernels that carry this annotation must stay vectorizable under strict
/// IEEE semantics — no -ffast-math anywhere in this repo. In practice:
/// __restrict-qualified raw spans (so the vectorizer needs no runtime
/// alias versioning), unit-stride accesses, no function calls in the loop
/// body, and reductions restructured into fixed-lane accumulators
/// (ml/kernels.h) instead of relying on reassociation.
#define TASQ_VEC

#endif  // TASQ_COMMON_HOT_H_
