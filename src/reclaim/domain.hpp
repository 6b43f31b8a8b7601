#pragma once

// Per-locale reclamation domains: the one interface RCUArray and
// ShardedCollection reclaim through, one implementation per policy
// family — EbrDomain (striped and legacy EBR), EraDomain (IBR, hazard
// eras) and QsbrDomain. The operations and what each family does in
// them are tabled in DESIGN.md §15:
//
//   pin(src)            read-side section + protected load of `src`
//   retire(old, n, b)   resize_add's retire of an unpublished object of
//                       `n` bytes, born at b = birth() (sampled before
//                       the object was published)
//   fence_drain()       blocking drain of every section entered before
//   defer_free(p)       free `p`, unreachable since the last fence_drain
//   pending()           retired but not yet reclaimed
//   flush()             retry deferred frees

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/eras.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

/// Memory a domain has retired but not yet reclaimed.
struct Pending {
  std::size_t objects = 0;
  std::size_t bytes = 0;
  /// The part of the above parked past a timed-out grace period (EBR's
  /// overflow list); always 0 for domains whose retire never waits.
  std::size_t overflow_objects = 0;
  std::size_t overflow_bytes = 0;
};

/// Construction knobs; each domain reads the ones it needs.
struct DomainOptions {
  /// QSBR: the domain to defer into (nullptr = Qsbr::global()).
  Qsbr* qsbr = nullptr;
  /// EBR: deadline of retire()'s grace-period drain (0 = block).
  std::uint64_t stall_deadline_ns = 0;
  /// Watchdog for stalls and overflow bytes (nullptr = the global one).
  StallMonitor* monitor = nullptr;
};

/// A read-side section plus the pointer it protects. The guard enters on
/// construction, `on_enter` runs inside the section, then `src` is
/// loaded — through the guard's publish-then-reverify protect() where
/// the guard has one. The section ends when the Pin dies. Not movable:
/// pin() returns it by guaranteed elision.
template <typename Guard, typename P>
class Pin {
 public:
  template <typename Section, typename Enter>
  Pin(Section& section, const std::atomic<P*>& src, Enter&& on_enter)
      : guard_(section) {
    on_enter();
    if constexpr (requires { guard_.protect(src); }) {
      ptr_ = guard_.protect(src);
    } else {
      ptr_ = src.load(std::memory_order_acquire);
    }
  }
  // Inlined like the guard it ends (BasicEbr::ReadGuard).
  [[gnu::always_inline]] ~Pin() = default;
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

  [[nodiscard]] P* get() const noexcept { return ptr_; }
  [[nodiscard]] P& operator*() const noexcept { return *ptr_; }
  [[nodiscard]] P* operator->() const noexcept { return ptr_; }

 private:
  Guard guard_;
  P* ptr_ = nullptr;
};

namespace detail {
struct NoEnter {
  void operator()() const noexcept {}
};
template <typename P>
void delete_as(void* p) {
  delete static_cast<P*>(p);
}
}  // namespace detail

/// What the two waiting families share: a bank `R` read through its
/// ReadGuard, and plain deletes once a fence_drain() has returned.
template <typename R>
class BankDomain {
 public:
  using Stats = typename R::Stats;
  template <typename P>
  using Pin = reclaim::Pin<typename R::ReadGuard, P>;

  /// `width` is the bank's slot count (0 = R's default).
  BankDomain(rt::Locale& locale, const DomainOptions& opts, std::size_t width)
      : bank_(0, width),
        locale_(locale),
        monitor_(opts.monitor != nullptr ? opts.monitor
                                         : &StallMonitor::global()) {}
  BankDomain(const BankDomain&) = delete;
  BankDomain& operator=(const BankDomain&) = delete;

  template <typename P, typename Enter = detail::NoEnter>
  [[nodiscard]] Pin<P> pin(const std::atomic<P*>& src, Enter&& on_enter = {}) {
    return {bank_, src, on_enter};
  }

  template <typename P>
  void defer_free(P* p) {
    delete p;
  }

  /// Read-side stats; `reads`/`read_retries` need -DRCUA_STATS=ON.
  [[nodiscard]] Stats stats() const noexcept { return bank_.stats(); }

  /// The reader bank, for tests that inspect its width and slots.
  [[nodiscard]] const R& bank() const noexcept { return bank_; }

 protected:
  R bank_;
  rt::Locale& locale_;
  StallMonitor* monitor_;
};

/// EBR family (`Ebr`, `LegacyEbr`). retire() bumps the epoch and drains
/// the old parity under the stall deadline; a drain that times out parks
/// the object on an overflow list, freed once both reader columns have
/// been seen empty (DESIGN.md §8). fence_drain() always blocks.
template <typename R>
class EbrDomain : public BankDomain<R> {
  using BankDomain<R>::bank_;
  using BankDomain<R>::locale_;
  using BankDomain<R>::monitor_;

 public:
  /// The bank gets a stripe per worker of the locale (at least the
  /// host's width), so every simulated core announces on its own line.
  explicit EbrDomain(rt::Locale& locale, const DomainOptions& opts = {})
      : BankDomain<R>(locale, opts, default_ebr_stripes(locale.workers())),
        deadline_ns_(opts.stall_deadline_ns) {}
  ~EbrDomain() {
    // External quiescence: every parked object is freeable now.
    note_freed(overflow_.free_all());
  }

  [[nodiscard]] std::uint64_t birth() const noexcept { return 0; }

  /// RCU_Write lines 5-8, deadline-bounded. Returns true when `old` was
  /// parked on the overflow list (bytes accounted on the locale and
  /// against the watchdog budget) instead of freed.
  template <typename P>
  bool retire(P* old, std::size_t bytes, std::uint64_t /*birth*/) {
    const auto epoch = bank_.advance_epoch();
    RCUA_SCHED_POINT("reclaim.retire.epoch_bumped");
    const DrainResult drain = bank_.wait_for_readers(epoch, deadline_ns_);
    // The drained fast path is only sound while the overflow list is
    // empty: a pending entry means an earlier grace period never
    // completed, so a reader announced on the *other* parity may have
    // loaded `old` before it was unpublished (DESIGN.md §8). With
    // entries pending, `old` waits for both columns like the rest.
    if (drain.drained && overflow_.pending_objects() == 0) {
      free_retired(old);
      return false;
    }
    StallDiagnostic diag;
    diag.kind = StallDiagnostic::Kind::kEbrReader;
    diag.domain = &bank_;
    diag.locale = locale_.id();
    diag.epoch = static_cast<std::uint64_t>(epoch);
    diag.stripe = drain.stuck_stripe;
    diag.stuck_readers = drain.stuck_readers;
    diag.waited_ns = drain.waited_ns;
    // Only an expired deadline is a stall; a drained-but-parked object
    // (premise broken by an earlier stall) is bookkeeping, not news.
    if (!drain.drained) monitor_->record_stall(diag);
    if (monitor_->would_exceed(bytes)) {
      monitor_->escalate(diag);
      if (monitor_->escalation() == StallMonitor::Escalation::kBlock) {
        // Hard memory bound: refuse the overflow and pay the blocking
        // drain instead. Draining the overflow list first restores the
        // fast-path premise, after which `old`'s own column gates it.
        // Each poll flushes, banking column observations for the list.
        wait_with_policy("ebr.retire.block", /*deadline_ns=*/0, [&] {
          flush();
          return overflow_.pending_objects() == 0 &&
                 bank_.readers_at(static_cast<std::size_t>(epoch % 2)) == 0;
        });
        free_retired(old);
        return false;
      }
      // kWarn: budget waived by configuration; fall through and park.
    }
    monitor_->note_overflow(bytes);
    locale_.note_alloc(bytes);
    overflow_.push(&detail::delete_as<P>, old, bytes,
                   static_cast<std::uint64_t>(epoch));
    RCUA_SCHED_POINT("reclaim.retire.parked");
    return true;
  }

  void fence_drain() {
    const auto epoch = bank_.advance_epoch();
    RCUA_SCHED_POINT("reclaim.fence.bumped");
    bank_.wait_for_readers(epoch);
    RCUA_SCHED_POINT("reclaim.fence.drained");
  }

  /// Frees the parked objects that have seen both reader columns empty
  /// since they were parked.
  void flush() {
    if (overflow_.pending_objects() == 0) return;
    note_freed(overflow_.flush_ready(
        [&](std::size_t parity) { return bank_.readers_at(parity) == 0; }));
  }

  [[nodiscard]] Pending pending() const noexcept {
    const std::size_t objects = overflow_.pending_objects();
    const std::size_t bytes = overflow_.pending_bytes();
    return {objects, bytes, objects, bytes};
  }

 private:
  template <typename P>
  void free_retired(P* old) {
    RCUA_SCHED_POINT("reclaim.retire.freed");
    obs::trace_instant("rcua.resize.reclaim", "rcua", locale_.id());
    delete old;
  }

  void note_freed(const OverflowRetireList::FlushResult& flushed) noexcept {
    if (flushed.objects == 0) return;
    locale_.note_free(flushed.bytes);
    monitor_->note_flushed(flushed.bytes, flushed.objects);
  }

  std::uint64_t deadline_ns_;
  OverflowRetireList overflow_;
};

/// Era family (`Ibr`, `HazardEras`). retire() stamps the object's
/// [birth, retire] interval, ticks the era clock and scans — it never
/// waits on readers. A stalled reservation is a fixed interval, so it
/// keeps at most the objects whose lifetime overlaps it pending
/// (DESIGN.md §13); the StallMonitor only hears about it, as a
/// diagnostic kEraReservation once the laggard trails by
/// kStallLagThreshold eras. fence_drain() mints a fence era and blocks.
template <typename R>
class EraDomain : public BankDomain<R> {
  using BankDomain<R>::bank_;
  using BankDomain<R>::locale_;
  using BankDomain<R>::monitor_;

 public:
  static constexpr std::uint64_t kStallLagThreshold = 3;

  explicit EraDomain(rt::Locale& locale, const DomainOptions& opts = {})
      : BankDomain<R>(locale, opts, 0) {}

  /// Sample BEFORE publishing an object: any reader that can load it
  /// then holds a reservation at or above its birth (the Lemma 6
  /// generalization, DESIGN.md §13).
  [[nodiscard]] std::uint64_t birth() const noexcept {
    return bank_.current_era();
  }

  template <typename P>
  bool retire(P* old, std::size_t bytes, std::uint64_t birth) {
    const RetireResult res =
        bank_.retire(&detail::delete_as<P>, old, bytes, birth);
    obs::trace_instant("rcua.resize.reclaim", "rcua", locale_.id());
    if (res.pending_objects > 0 && res.reservation_lag >= kStallLagThreshold) {
      obs::health::epoch_lag().update_max(res.reservation_lag);
      StallDiagnostic diag;
      diag.kind = StallDiagnostic::Kind::kEraReservation;
      diag.domain = &bank_;
      diag.locale = locale_.id();
      diag.epoch = res.era;
      diag.stripe = res.laggard_slot;
      diag.era_lag = res.reservation_lag;
      diag.overflow_bytes = res.pending_bytes;
      monitor_->record_stall(diag);
    }
    return false;
  }

  void fence_drain() {
    const std::uint64_t fence = bank_.advance_era();
    RCUA_SCHED_POINT("reclaim.fence.bumped");
    bank_.wait_for_readers(fence);
    RCUA_SCHED_POINT("reclaim.fence.drained");
    // Every pre-fence section is gone; the scan frees what they held.
    flush();
  }

  void flush() {
    if (bank_.pending_objects() != 0) bank_.scan();
  }

  [[nodiscard]] Pending pending() const noexcept {
    return {bank_.pending_objects(), bank_.pending_bytes(), 0, 0};
  }
};

/// QSBR. Readers only make sure they are participants; retire() and
/// defer_free() hand the object to the Qsbr domain, which frees it once
/// every participant has checkpointed. Nothing here ever waits, so
/// fence_drain() is empty and pending() is 0 — QSBR deferrals live on
/// the Qsbr domain's per-thread lists (Qsbr::pending_total()).
class QsbrDomain {
  struct Guard {
    explicit Guard(Qsbr& qsbr) { qsbr.ensure_participant(); }
  };

 public:
  /// No epoch bank under QSBR: every field reads 0.
  using Stats = Ebr::Stats;
  template <typename P>
  using Pin = reclaim::Pin<Guard, P>;

  explicit QsbrDomain(rt::Locale& /*locale*/, const DomainOptions& opts = {})
      : qsbr_(opts.qsbr != nullptr ? opts.qsbr : &Qsbr::global()) {}
  QsbrDomain(const QsbrDomain&) = delete;
  QsbrDomain& operator=(const QsbrDomain&) = delete;

  template <typename P, typename Enter = detail::NoEnter>
  [[nodiscard]] Pin<P> pin(const std::atomic<P*>& src, Enter&& on_enter = {}) {
    return {*qsbr_, src, on_enter};
  }

  [[nodiscard]] std::uint64_t birth() const noexcept { return 0; }

  template <typename P>
  bool retire(P* old, std::size_t /*bytes*/, std::uint64_t /*birth*/) {
    qsbr_->defer_delete(old);
    return false;
  }

  void fence_drain() noexcept {}

  template <typename P>
  void defer_free(P* p) {
    qsbr_->defer_delete(p);
  }

  void flush() noexcept {}

  [[nodiscard]] Pending pending() const noexcept { return {}; }

  [[nodiscard]] Stats stats() const noexcept { return {}; }

 private:
  Qsbr* qsbr_;
};

template <typename D>
inline constexpr bool kIsEraDomain = false;
template <typename R>
inline constexpr bool kIsEraDomain<EraDomain<R>> = true;

}  // namespace rcua::reclaim
