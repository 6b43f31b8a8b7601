#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "platform/backoff.hpp"
#include "platform/spinlock.hpp"
#include "platform/timing.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

/// The fixed escalation ladder of every grace-period wait: spins, then
/// yields, then parks of kParkMinNs doubling up to kParkMaxNs.
inline constexpr std::uint32_t kWaitSpins = 64;
inline constexpr std::uint32_t kWaitYields = 64;
inline constexpr std::uint64_t kParkMinNs = 50 * 1000;
inline constexpr std::uint64_t kParkMaxNs = 1000 * 1000;

/// The one grace-period wait: every reclaimer's drain goes through it.
/// Waits until `pred()` holds, climbing the ladder above. A `deadline_ns`
/// of 0 blocks (the paper's behaviour); otherwise the wait gives up once
/// the wall-clock deadline expires — the knob that turns "block forever
/// on a stalled reader" (classic EBR fragility, the DEBRA+ critique)
/// into "give up and let the caller defer". A park never sleeps past the
/// remaining deadline. Returns true iff the predicate held; `site` names
/// the wait in sched traces.
///
/// Under the deterministic scheduler (RCUA_SCHED_TEST) wall clocks would
/// break seed replay: a blocking wait is a sched_await, and a deadline
/// wait polls once, yields to the scheduler, and polls again — the
/// deadline becomes a schedule-countable event.
template <typename Pred>
bool wait_with_policy(const char* site, std::uint64_t deadline_ns,
                      Pred&& pred) {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  if (testing::sched_task_active()) {
    if (deadline_ns == 0) {
      testing::sched_await(site, [&] { return pred(); });
      return true;
    }
    if (pred()) return true;
    testing::sched_point(site);
    return pred();
  }
#endif
  (void)site;
  if (pred()) return true;
  const std::uint64_t start = plat::now_ns();
  std::uint64_t park = kParkMinNs;
  for (std::uint64_t iter = 0;; ++iter) {
    if (pred()) return true;
    std::uint64_t left = UINT64_MAX;
    if (deadline_ns != 0) {
      const std::uint64_t spent = plat::now_ns() - start;
      if (spent >= deadline_ns) return pred();
      left = deadline_ns - spent;
    }
    if (iter < kWaitSpins) {
      plat::cpu_relax();
    } else if (iter < kWaitSpins + kWaitYields) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(park, left)));
      park = std::min(park * 2, kParkMaxNs);
    }
  }
}

/// The drain deadline from RCUA_STALL_DEADLINE_NS; 0 (block forever, the
/// paper's behaviour) when unset.
[[nodiscard]] std::uint64_t stall_deadline_from_env();

/// Grace-period timestamps follow the trace-layer convention: virtual
/// time when a TaskClock is attached (deterministic under the sched
/// harness), wall time otherwise. Reading now_v() charges nothing.
[[nodiscard]] inline std::uint64_t grace_clock_ns() noexcept {
  return sim::enabled() ? sim::now_v() : plat::now_ns();
}

/// Structured description of one detected stall: who is stuck, where,
/// for how long, at what epoch. Emitted to the owning StallMonitor's sink
/// (stderr by default) and kept as `last()` for programmatic inspection.
struct StallDiagnostic {
  enum class Kind : int {
    /// An EBR old-parity column refused to drain before the deadline.
    kEbrReader = 0,
    /// The overflow retire list exceeded its byte budget.
    kOverflowBudget = 1,
    /// An era reservation (IBR / hazard eras) trails the era clock far
    /// enough to hold retired objects pending. Unlike the kinds above
    /// this never gates progress or defers to an overflow list — the
    /// pending set is bounded by construction — so it is purely
    /// diagnostic: the stalled reader exists and should be found.
    kEraReservation = 2,
  };

  Kind kind = Kind::kEbrReader;
  /// The reclamation domain instance (Ebr / era reclaimer) that stalled.
  const void* domain = nullptr;
  /// Locale the stall was observed on; UINT32_MAX when not locale-bound.
  std::uint32_t locale = UINT32_MAX;
  /// Epoch being drained (EBR: the pre-bump epoch; eras: the era clock).
  std::uint64_t epoch = 0;
  /// EBR: first stripe with a non-zero old-parity count (SIZE_MAX = n/a).
  std::size_t stripe = SIZE_MAX;
  /// EBR: old-parity column sum at deadline expiry.
  std::uint64_t stuck_readers = 0;
  /// How long the waiter spun before giving up.
  std::uint64_t waited_ns = 0;
  /// Overflow-budget escalations: bytes pending vs the configured budget.
  std::size_t overflow_bytes = 0;
  std::size_t budget_bytes = 0;
  /// Era reservations: how many eras the laggard reservation trails the
  /// clock (kEraReservation; `stripe` carries the slot, `overflow_bytes`
  /// the blocked-pending bytes).
  std::uint64_t era_lag = 0;

  /// One-line human-readable rendering ("which stripe is stuck,
  /// for how long, at what epoch").
  [[nodiscard]] std::string describe() const;
};

/// Pluggable destination for stall diagnostics. Implementations must be
/// thread-safe: reclaimers on any thread may report stalls concurrently.
class StallSink {
 public:
  virtual ~StallSink() = default;
  virtual void on_stall(const StallDiagnostic& diag) = 0;
};

/// Default sink: renders `describe()` as one line to stderr.
class StderrStallSink final : public StallSink {
 public:
  void on_stall(const StallDiagnostic& diag) override;
};

/// Test sink: captures every structured diagnostic so assertions can
/// inspect fields instead of string-matching the stderr rendering.
class CaptureStallSink final : public StallSink {
 public:
  void on_stall(const StallDiagnostic& diag) override;

  /// Snapshot of everything captured so far, in delivery order.
  [[nodiscard]] std::vector<StallDiagnostic> records() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable plat::Spinlock lock_;
  std::vector<StallDiagnostic> records_;
};

/// Watchdog over grace-period stalls and overflow memory. Reclaimers
/// report stalls through `record_stall`; structures that defer retired
/// memory past a stalled grace period account the bytes here, and the
/// monitor enforces a hard bound by escalating once the pending bytes
/// would exceed `budget_bytes` (0 = unlimited):
///
///   kWarn  — diagnose and allow the overflow to keep growing,
///   kBlock — refuse the overflow; the caller must fall back to the
///            blocking wait (memory stays bounded, latency degrades).
///
/// Thread-safe; one instance may be shared across locales and domains.
class StallMonitor {
 public:
  enum class Escalation : int { kWarn = 0, kBlock = 1 };

  explicit StallMonitor(std::size_t budget_bytes = 0,
                        Escalation escalation = Escalation::kBlock) noexcept
      : budget_bytes_(budget_bytes), escalation_(escalation) {}
  StallMonitor(const StallMonitor&) = delete;
  StallMonitor& operator=(const StallMonitor&) = delete;

  /// Process-wide monitor; budget from RCUA_OVERFLOW_BUDGET_BYTES
  /// (default 64 MiB), escalation from RCUA_STALL_ESCALATE
  /// (warn|block, default block).
  static StallMonitor& global();

  /// Replaces the diagnostic sink (default: a process-wide
  /// StderrStallSink). Pass nullptr to silence. The monitor does not own
  /// the sink; it must outlive every stall. Not synchronized against
  /// in-flight stalls; install before concurrent use.
  void set_sink(StallSink* sink) noexcept { sink_ = sink; }

  /// Reports one stall: counts it, remembers it, forwards to the sink.
  void record_stall(const StallDiagnostic& diag);

  // -- Overflow byte accounting -----------------------------------------

  /// True when admitting `extra` more overflow bytes would exceed the
  /// budget (always false with an unlimited budget).
  [[nodiscard]] bool would_exceed(std::size_t extra) const noexcept {
    const std::size_t budget = budget_bytes_;
    if (budget == 0) return false;
    return overflow_bytes_.load(std::memory_order_relaxed) + extra > budget;
  }

  void note_overflow(std::size_t bytes, std::size_t objects = 1) noexcept;
  void note_flushed(std::size_t bytes, std::size_t objects) noexcept;

  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_bytes_;
  }
  [[nodiscard]] Escalation escalation() const noexcept { return escalation_; }
  [[nodiscard]] std::size_t overflow_bytes() const noexcept {
    return overflow_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_overflow_bytes() const noexcept {
    return peak_overflow_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t escalations() const noexcept {
    return escalations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow_objects() const noexcept {
    return overflow_objects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t flushed_objects() const noexcept {
    return flushed_objects_.load(std::memory_order_relaxed);
  }

  /// Copy of the most recent diagnostic (all-zero before the first).
  [[nodiscard]] StallDiagnostic last() const;

  /// Records a budget escalation (kind kOverflowBudget) and bumps the
  /// escalation counter.
  void escalate(StallDiagnostic diag);

 private:
  std::size_t budget_bytes_;
  Escalation escalation_;
  StallSink* sink_ = default_sink();
  std::atomic<std::size_t> overflow_bytes_{0};
  std::atomic<std::size_t> peak_overflow_bytes_{0};
  std::atomic<std::uint64_t> overflow_objects_{0};
  std::atomic<std::uint64_t> flushed_objects_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> escalations_{0};
  mutable plat::Spinlock last_lock_;
  StallDiagnostic last_{};

  /// Immortal process-wide StderrStallSink shared by every monitor.
  static StallSink* default_sink();
};

/// Epoch-tagged overflow list for retired EBR memory whose grace period
/// timed out. An entry may be freed once BOTH reader columns have each
/// been observed empty at some time after the push. The entry's own
/// parity alone is NOT sufficient: a timed-out grace period means the
/// writer ran ahead of a stalled reader, and that reader — announced on
/// the *other* parity — may have loaded this very object before it was
/// unpublished (see DESIGN.md §8; the schedule harness finds this bug
/// when the single-parity shortcut is mutated back in). Bytes are
/// tracked so callers can feed locale accounting and the StallMonitor
/// budget.
class OverflowRetireList {
 public:
  OverflowRetireList() = default;
  OverflowRetireList(const OverflowRetireList&) = delete;
  OverflowRetireList& operator=(const OverflowRetireList&) = delete;
  ~OverflowRetireList() { free_all(); }

  struct FlushResult {
    std::size_t objects = 0;
    std::size_t bytes = 0;
  };

  /// Defers `(deleter, obj)` retired under epoch `epoch` (parity =
  /// epoch % 2), accounting `bytes` against the list.
  void push(void (*deleter)(void*), void* obj, std::size_t bytes,
            std::uint64_t epoch);

  /// Observes both reader columns via `drained(parity)` and frees every
  /// entry that has now seen each column empty at least once since its
  /// push. Observations are sticky per entry, so a stalled reader on one
  /// parity delays reclamation but never loses the other column's
  /// already-banked observation. The `watchdog_skip_recheck` mutation
  /// (sched builds only) regresses to gating on the entry's own retire
  /// parity — the plausible-but-unsound shortcut the harness must catch.
  template <typename DrainedPred>
  FlushResult flush_ready(DrainedPred&& drained) {
    Entry* ready = nullptr;
    {
      // Observe under the lock: every entry present was pushed before
      // these reads, so the observations count for all of them.
      std::lock_guard<plat::Spinlock> guard(lock_);
      const bool empty0 = drained(std::size_t{0});
      const bool empty1 = drained(std::size_t{1});
      Entry** link = &head_;
      while (*link != nullptr) {
        Entry* e = *link;
        e->seen_empty[0] = e->seen_empty[0] || empty0;
        e->seen_empty[1] = e->seen_empty[1] || empty1;
        bool ok = e->seen_empty[0] && e->seen_empty[1];
        if (RCUA_SCHED_MUT(watchdog_skip_recheck)) {
          ok = e->seen_empty[e->parity];
        }
        if (ok) {
          *link = e->next;
          e->next = ready;
          ready = e;
        } else {
          link = &e->next;
        }
      }
    }
    return reclaim_chain(ready);
  }

  /// Frees everything unconditionally. ONLY safe when no reader can hold
  /// a reference (destructor / teardown under external quiescence).
  FlushResult free_all();

  [[nodiscard]] std::size_t pending_objects() const noexcept {
    return pending_objects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Entry* next;
    void (*deleter)(void*);
    void* obj;
    std::size_t bytes;
    std::size_t parity;
    std::uint64_t epoch;
    /// Which reader columns have been observed empty since the push.
    bool seen_empty[2];
  };

  FlushResult reclaim_chain(Entry* chain);

  plat::Spinlock lock_;
  Entry* head_ = nullptr;
  std::atomic<std::size_t> pending_objects_{0};
  std::atomic<std::size_t> pending_bytes_{0};
};

}  // namespace rcua::reclaim
