#pragma once

#include <atomic>
#include <cstdint>

#include "platform/align.hpp"
#include "reclaim/retire_list.hpp"
#include "runtime/thread_registry.hpp"

namespace rcua::reclaim {

/// Quiescent State-Based Reclamation implemented in the runtime
/// (Algorithm 2): a general-purpose memory-reclamation device decoupled
/// from RCU.
///
/// A global, monotonically increasing `StateEpoch` names the state of the
/// entire system. Whenever memory is to be reclaimed, `defer()` bumps the
/// StateEpoch (the old state is being discarded), the calling thread
/// observes the new epoch — promising it is quiescent of all earlier
/// states — and the memory is pushed LIFO on the thread's own DeferList
/// together with that *safe epoch*. At a `checkpoint()` the thread
/// observes the current StateEpoch, computes the minimum observed epoch
/// over every (active, non-parked) thread on the runtime's TLSList, and
/// reclaims its own list's suffix with safe epoch <= that minimum
/// (Lemmas 4 and 5).
///
/// Contract inherited from the paper (§III-B):
///  * It is NOT safe to dereference QSBR-protected memory acquired before
///    the caller's latest checkpoint or defer.
///  * Tasks must not yield to another task on the same thread while
///    holding a protected reference (threads, not tasks, are the
///    participants).
///  * StateEpoch overflow would be undefined behaviour; with a 64-bit
///    epoch this is unreachable, and debug builds assert on it.
class Qsbr final : public rt::EpochDomain {
 public:
  /// Creates a domain on `registry` (the process-wide TLSList by
  /// default). Destroying the domain flushes every thread's pending
  /// deferrals for it — only destroy once all participants are quiescent.
  explicit Qsbr(rt::ThreadRegistry& registry = rt::ThreadRegistry::global());
  ~Qsbr() override;
  Qsbr(const Qsbr&) = delete;
  Qsbr& operator=(const Qsbr&) = delete;

  /// The process-wide domain, as in the paper's runtime integration.
  static Qsbr& global();

  struct Stats {
    std::uint64_t defers = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t reclaimed = 0;
  };

  /// Test-only fault injection, mirroring BasicEbr::test_read_hook: when
  /// non-null, invoked at the checkpoint/park protocol windows so tests
  /// can drive stalls deterministically. Production leaves it null (one
  /// predicted-not-taken branch per site).
  enum : int {
    /// After the checkpoint's StateEpoch read, before the observation
    /// store (Algorithm 2 between lines 4 and 5) — the window where the
    /// epoch can move under the observer.
    kHookCheckpointEpochRead = 0,
    /// After the observation store, before the min scan (before line 6).
    kHookCheckpointObserved = 1,
    /// On entry to park(), before the registry housekeeping runs.
    kHookPark = 2,
    /// On entry to unpark(), before the thread becomes visible again.
    kHookUnpark = 3,
  };
  using TestHook = void (*)(Qsbr&, int phase);
  TestHook test_hook = nullptr;

  /// QSBR_Defer: schedules `delete obj` once every thread has observed a
  /// state no older than the one this call creates.
  template <typename T>
  void defer_delete(T* obj) {
    defer(new DeferNode{nullptr, 0, [](void* p) { delete static_cast<T*>(p); },
                        obj});
  }

  /// QSBR_Defer with an arbitrary (function, argument) reclamation.
  void defer_fn(void (*fn)(void*), void* arg) {
    defer(new DeferNode{nullptr, 0, fn, arg});
  }

  /// Core defer: takes ownership of `node`, stamps its safe epoch
  /// (Algorithm 2 lines 1-3).
  void defer(DeferNode* node);

  /// QSBR_Checkpoint (Algorithm 2 lines 4-13): promises quiescence of all
  /// prior states and reclaims this thread's eligible deferrals. Returns
  /// the number of objects reclaimed.
  std::size_t checkpoint();

  /// Blocks until every participant has observed a state no older than
  /// the one current at entry (bumping the StateEpoch so laggards have a
  /// fresh state to observe). The QSBR analogue of Ebr::synchronize.
  void synchronize();

  /// Makes the calling thread a participant (visible to the safe-epoch
  /// minimum) if it isn't already. The paper's model has *every* thread
  /// participate from the start ("All threads act as participants"); a
  /// thread must be a participant BEFORE dereferencing protected data,
  /// otherwise reclaimers cannot see it. RCUArray's QSBR read path calls
  /// this; after the first call it is one thread-local lookup and a
  /// relaxed load.
  void ensure_participant() { participate(); }

  /// Parking support: the calling thread is idle; do final housekeeping
  /// and stop gating the safe-epoch minimum. (Delegates to the registry,
  /// which parks the thread for *all* domains, as an idle thread is idle
  /// everywhere.)
  void park() {
    if (test_hook != nullptr) test_hook(*this, kHookPark);
    registry_.park_current_thread();
  }
  void unpark() {
    if (test_hook != nullptr) test_hook(*this, kHookUnpark);
    registry_.unpark_current_thread();
  }

  /// Number of deferrals currently pending on the calling thread.
  [[nodiscard]] std::size_t pending_on_this_thread();

  /// Deferrals pending across EVERY record of this domain, including
  /// those stranded on exited (parked) threads that no checkpoint will
  /// ever visit again — the measured drain target for shutdown paths
  /// (checkpoints reclaim the live threads' share; flush_unsafe() takes
  /// the stranded remainder).
  [[nodiscard]] std::size_t pending_total() const {
    std::size_t n = 0;
    for (const rt::ThreadRecord* r = registry_.head(); r != nullptr;
         r = r->next) {
      n += r->slots[slot_].defer_list.size();
    }
    return n;
  }

  /// Reclaims every pending deferral of every thread. ONLY safe when no
  /// thread holds protected references (shutdown, test teardown).
  void flush_unsafe() { registry_.flush_slot_unsafe(slot_); }

  [[nodiscard]] std::uint64_t current_epoch() const noexcept override {
    return state_epoch_.value.load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{defers_.value.load(std::memory_order_relaxed),
                 checkpoints_.value.load(std::memory_order_relaxed),
                 reclaimed_.value.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] rt::ThreadRegistry& registry() noexcept { return registry_; }

 private:
  rt::DomainSlot& participate();

  rt::ThreadRegistry& registry_;
  std::size_t slot_;
  plat::CacheAligned<std::atomic<std::uint64_t>> state_epoch_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> defers_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> checkpoints_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> reclaimed_{0ULL};
};

}  // namespace rcua::reclaim
