#ifndef TASQ_COMMON_SYNC_SNAPSHOT_H_
#define TASQ_COMMON_SYNC_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/hot.h"
#include "common/mutex.h"
#include "common/sync/pause.h"
#include "common/thread_annotations.h"

namespace tasq {

/// Lock-free publication of an immutable value: any number of readers
/// pin the current version without taking a lock or touching the heap,
/// while writers replace it wholesale via copy-update-swap.
///
/// This is the serving layer's read-mostly primitive (ROADMAP item 1:
/// models and report tables published as immutable snapshots so the
/// request path takes zero locks). The design is a two-slot left-right
/// scheme with reader registration:
///
///   - Two slots each hold one `shared_ptr<const T>` version plus a
///     reader count. Exactly one slot is active at a time.
///   - `Read()` pins the active slot (one atomic increment), re-checks
///     that the slot is still active (a racing `Publish` may have flipped
///     between the load and the increment), and hands out a `View` whose
///     destructor unpins. No mutex, no allocation, no retry unless a
///     publish raced the entry — safe inside TASQ_HOT code.
///   - `Publish()` (serialized on a writer mutex; rare, cold) installs
///     the next version into the retired slot, flips the active index,
///     then waits for the replaced slot's readers to drain and drops its
///     version — so by the time Publish returns, the previous snapshot
///     has been reclaimed unless a caller still owns it via ReadOwned().
///
/// Memory-ordering policy (see DESIGN.md, "Memory-ordering policy"): the
/// flip store, the reader's pin increment, and both re-check/drain loads
/// are seq_cst because the entry protocol is a store-buffering litmus
/// test — with only acquire/release, the writer could miss a freshly
/// pinned reader while that reader simultaneously misses the flip, and
/// both would proceed into the same slot. Everything else is the plain
/// acquire/release publication pattern.
///
/// Lifetime: every `View` must be destroyed before the Snapshot; a View
/// must not be handed across threads without an external happens-before
/// edge. Writers may block briefly (bounded by the longest concurrent
/// reader critical section); readers never block.
template <typename T>
class Snapshot {
 public:
  /// A pinned, read-only reference to one published version. Move-only;
  /// destroying it releases the pin. Keep the critical section short —
  /// a live View delays the *next* Publish, never other readers.
  class View {
   public:
    View(View&& other) noexcept
        : owner_(other.owner_), slot_(other.slot_), value_(other.value_) {
      other.owner_ = nullptr;
    }
    View& operator=(View&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = other.owner_;
        slot_ = other.slot_;
        value_ = other.value_;
        other.owner_ = nullptr;
      }
      return *this;
    }
    View(const View&) = delete;
    View& operator=(const View&) = delete;
    ~View() { Release(); }

    const T& operator*() const noexcept { return *value_; }
    const T* operator->() const noexcept { return value_; }
    const T* get() const noexcept { return value_; }

   private:
    friend class Snapshot;
    View(const Snapshot* owner, uint32_t slot, const T* value) noexcept
        : owner_(owner), slot_(slot), value_(value) {}

    void Release() noexcept {
      if (owner_ != nullptr) {
        // Release: the reader's loads from the version must complete
        // before the writer can observe the unpin and reclaim it.
        owner_->slots_[slot_].readers.fetch_sub(1, std::memory_order_release);
        owner_ = nullptr;
      }
    }

    // own: borrowed unpinned in Release; the Snapshot outlives its Views
    const Snapshot* owner_ = nullptr;
    uint32_t slot_ = 0;
    // own: borrowed points into the pinned slot's version while pinned
    const T* value_ = nullptr;
  };

  /// Starts at a default-constructed T.
  Snapshot() : Snapshot(std::make_shared<const T>()) {}

  /// Starts at `initial` (must be non-null: Read() never returns an
  /// empty View).
  explicit Snapshot(std::shared_ptr<const T> initial) {
    TASQ_CHECK(initial != nullptr);
    slots_[0].value = std::move(initial);
  }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Pins and returns the current version. Lock-free and allocation-free
  /// (TASQ_HOT-safe): one atomic increment, two atomic loads, and in the
  /// rare case of a racing Publish one back-out-and-retry round.
  TASQ_HOT View Read() const noexcept {
    for (;;) {
      // sync: seqcst entry protocol is an SB litmus with Publish's flip
      uint32_t idx = active_.load(std::memory_order_seq_cst);
      // sync: seqcst pin must be globally ordered against the flip store
      slots_[idx].readers.fetch_add(1, std::memory_order_seq_cst);
      // Re-check: if the flip landed between the load and the pin, the
      // pin may have hit the retired slot after the writer's drain scan
      // passed it — back out and retry on the new active slot.
      // sync: seqcst see above — one side of the SB pair must observe the other
      if (active_.load(std::memory_order_seq_cst) == idx) {
        // The pinned slot's value is immutable until this View unpins:
        // Publish only writes a slot after draining its readers.
        return View(this, idx, slots_[idx].value.get());
      }
      slots_[idx].readers.fetch_sub(1, std::memory_order_release);
    }
  }

  /// Pins, copies out an owning reference, and unpins. The returned
  /// shared_ptr keeps that version alive past any number of Publish
  /// calls — for callers that hold a snapshot across a long computation
  /// and must not delay publishers. Allocation-free (refcount bump), but
  /// not TASQ_HOT: the copy is not needed on the request path.
  std::shared_ptr<const T> ReadOwned() const {
    View view = Read();
    // Safe concurrent copy: no thread mutates the pinned slot's
    // shared_ptr object itself while readers hold pins.
    return slots_[view.slot_].value;
  }

  /// Publishes `next` (non-null) as the current version and reclaims the
  /// replaced one: when Publish returns, the old version has been
  /// released unless a ReadOwned() caller still owns it. Serialized
  /// against other writers on writer_mutex_; blocks until every reader
  /// still pinning the replaced version unpins. Never call from code
  /// holding a View (self-deadlock).
  void Publish(std::shared_ptr<const T> next) TASQ_EXCLUDES(writer_mutex_) {
    TASQ_CHECK(next != nullptr);
    MutexLock lock(writer_mutex_);
    // Relaxed: active_ is only written under writer_mutex_, so the
    // writer's own last store is already visible to it.
    uint32_t old = active_.load(std::memory_order_relaxed);
    uint32_t idx = old ^ 1u;
    // The retired slot was drained and emptied by the previous Publish;
    // install the next version before making it reachable.
    slots_[idx].value = std::move(next);
    // sync: seqcst flip must be globally ordered against reader pins (SB)
    active_.store(idx, std::memory_order_seq_cst);
    // Grace period: wait out readers that pinned the replaced version
    // before the flip, then reclaim it. New readers cannot pin slot
    // `old` any more (they either see the flip, or their pin is seen
    // by this drain scan — the seq_cst pair above guarantees one).
    WaitForDrain(slots_[old].readers);
    slots_[old].value.reset();
  }

 private:
  struct Slot {
    /// Written only by the writer while the slot is retired and drained;
    /// read by readers only while pinned. The pin/flip protocol above is
    /// what makes those phases non-overlapping.
    std::shared_ptr<const T> value;
    /// Number of Views currently pinning this slot.
    mutable std::atomic<uint64_t> readers{0};
  };

  static void WaitForDrain(const std::atomic<uint64_t>& readers) {
    // sync: seqcst drain scan is the writer's side of the SB entry pair
    for (int spins = 0; readers.load(std::memory_order_seq_cst) != 0;
         ++spins) {
      if (spins < 64) {
        CpuRelax();
      } else {
        // Reader critical sections are a few loads; a long drain means
        // the reader thread was preempted — yield to let it finish.
        std::this_thread::yield();
      }
    }
  }

  Slot slots_[2];
  /// Index of the active slot; flipped by Publish, pinned by Read.
  std::atomic<uint32_t> active_{0};
  /// Guarded by writer_mutex_: the flip protocol and both slots' value
  /// fields on the writer side — Publish is the only mutator, so one
  /// writer at a time copies, installs, flips, drains, reclaims. Readers
  /// synchronize through active_/readers, never through this mutex.
  Mutex writer_mutex_;
};

}  // namespace tasq

#endif  // TASQ_COMMON_SYNC_SNAPSHOT_H_
