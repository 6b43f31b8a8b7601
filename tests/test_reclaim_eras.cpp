// Era-based reclamation (reclaim::Ibr / reclaim::HazardEras): unit
// coverage of the reservation/retire/scan machinery, and the headline
// robustness claim of DESIGN.md §13 — under a parked reader, the
// unreclaimed memory of the era policies stays below a constant bound
// independent of how long the reader stalls (how many resizes run past
// it), while EBR's deadline-deferred overflow list and QSBR's deferral
// queue grow linearly on the identical scenario. Last, the contract of
// the per-locale reclamation domain (reclaim/domain.hpp), typed over all
// five policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"
#include "reclaim/eras.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/thread_registry.hpp"

namespace rt = rcua::rt;
namespace reclaim = rcua::reclaim;

namespace {

void flag_free(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

/// A silent monitor for tests that assert on its counters (the global
/// one would also print to stderr and mix state across tests).
struct SilentMonitor {
  SilentMonitor() : monitor(/*budget_bytes=*/0,
                            reclaim::StallMonitor::Escalation::kWarn) {
    monitor.set_sink(&sink);
  }
  reclaim::CaptureStallSink sink;
  reclaim::StallMonitor monitor;
};

}  // namespace

// ---------------------------------------------------------------------
// Domain-level typed tests over both era schemes.
// ---------------------------------------------------------------------

template <typename Dom>
class EraDomainTest : public ::testing::Test {};

using EraDomains = ::testing::Types<reclaim::Ibr, reclaim::HazardEras>;
TYPED_TEST_SUITE(EraDomainTest, EraDomains);

TYPED_TEST(EraDomainTest, RetireWithoutReadersFreesImmediately) {
  TypeParam dom(0, /*slot_count=*/4);
  std::atomic<bool> freed[3] = {};
  for (int i = 0; i < 3; ++i) {
    const auto res =
        dom.retire(&flag_free, &freed[i], /*bytes=*/8, dom.current_era());
    EXPECT_EQ(res.freed_objects, 1u);
    EXPECT_EQ(res.pending_objects, 0u);
    EXPECT_TRUE(freed[i].load());
  }
  const auto s = dom.stats();
  EXPECT_EQ(s.retired, 3u);
  EXPECT_EQ(s.freed, 3u);
  EXPECT_EQ(s.epoch_advances, 3u);  // era_freq defaults to 1
  EXPECT_GE(s.era_scans, 3u);
  EXPECT_EQ(s.pending_bytes, 0u);
  EXPECT_GE(s.pending_bytes_hwm, 8u);
}

TYPED_TEST(EraDomainTest, GuardBlocksOverlappingLifetimeUntilRelease) {
  TypeParam dom(0, 4);
  std::atomic<bool> freed{false};
  std::atomic<std::atomic<bool>*> src{&freed};
  {
    typename TypeParam::ReadGuard guard(dom);
    std::atomic<bool>* p = guard.protect(src);
    ASSERT_EQ(p, &freed);
    // Unpublish, then retire the object the guard protects: the
    // reservation's interval overlaps its [0, now] lifetime.
    src.store(nullptr, std::memory_order_seq_cst);
    const auto res = dom.retire(&flag_free, &freed, 8, /*birth_era=*/0);
    EXPECT_EQ(res.freed_objects, 0u);
    EXPECT_EQ(res.pending_objects, 1u);
    EXPECT_FALSE(freed.load());
    EXPECT_EQ(dom.active_reservations(), 1u);
  }
  // Guard gone: the next scan frees it.
  const auto res = dom.scan();
  EXPECT_EQ(res.freed_objects, 1u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(dom.pending_objects(), 0u);
}

TYPED_TEST(EraDomainTest, StalledReservationBoundsPendingByConstruction) {
  // The bounded-memory argument at domain granularity: one reader parks
  // inside a section while a writer runs R retire rounds past it. Only
  // objects whose lifetime overlaps the parked reservation stay pending
  // — everything born after the reservation's upper bound is freed on
  // its own retire — so pending never exceeds a constant, independent
  // of R.
  TypeParam dom(0, 4);
  constexpr int kRounds = 32;
  std::atomic<bool> freed[kRounds + 1] = {};
  std::atomic<std::atomic<bool>*> src{&freed[0]};

  typename TypeParam::ReadGuard guard(dom);
  std::atomic<bool>* held = guard.protect(src);
  ASSERT_EQ(held, &freed[0]);

  std::uint64_t live_birth = 0;  // freed[0] born at era 0
  std::size_t max_pending = 0;
  for (int r = 1; r <= kRounds; ++r) {
    std::atomic<bool>* old = src.load(std::memory_order_seq_cst);
    const std::uint64_t fresh_birth = dom.current_era();
    src.store(&freed[r], std::memory_order_seq_cst);
    const auto res =
        dom.retire(&flag_free, old, 8, std::exchange(live_birth, fresh_birth));
    max_pending = std::max(max_pending, res.pending_objects);
  }
  // The parked reservation pins freed[0] and freed[1] (whose birth at
  // era 0 still predates the reservation's upper bound) — and nothing
  // else, ever.
  EXPECT_LE(max_pending, 2u);
  EXPECT_FALSE(freed[0].load());
  // Everything born after the reservation was freed along the way.
  for (int r = 2; r < kRounds; ++r) {
    EXPECT_TRUE(freed[r].load()) << "round " << r;
  }
}

TYPED_TEST(EraDomainTest, LowerBoundPinsOnlyUnderIbr) {
  TypeParam dom(0, 4);
  std::atomic<int> obj{7};
  std::atomic<std::atomic<int>*> src{&obj};
  typename TypeParam::ReadGuard guard(dom);
  (void)guard.protect(src);
  const auto first = dom.reservation_at(guard.slot());
  EXPECT_EQ(first.lower, 0u);
  EXPECT_EQ(first.upper, 0u);

  dom.advance_era();
  dom.advance_era();
  (void)guard.protect(src);
  const auto second = dom.reservation_at(guard.slot());
  EXPECT_EQ(second.upper, 2u);
  if constexpr (TypeParam::kPinLower) {
    EXPECT_EQ(second.lower, 0u) << "IBR pins the section-entry era";
  } else {
    EXPECT_EQ(second.lower, 2u) << "hazard eras republish a single era";
  }
}

TYPED_TEST(EraDomainTest, FenceWaitSeesPreFenceSection) {
  TypeParam dom(0, 4);
  std::atomic<int> obj{1};
  std::atomic<std::atomic<int>*> src{&obj};
  auto guard = std::make_unique<typename TypeParam::ReadGuard>(dom);
  (void)guard->protect(src);
  const std::uint64_t fence = dom.advance_era();
  EXPECT_EQ(dom.readers_below(fence), 1u);

  // The fence wait blocks while the pre-fence section lives.
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    dom.wait_for_readers(fence);
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(drained.load());

  guard.reset();
  waiter.join();
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(dom.readers_below(fence), 0u);
  dom.wait_for_readers(fence);  // must return immediately
}

TYPED_TEST(EraDomainTest, SlotClaimProbesPastTakenSlots) {
  TypeParam dom(0, 4);
  dom.test_slot_override = 1;
  typename TypeParam::ReadGuard a(dom);
  typename TypeParam::ReadGuard b(dom);
  EXPECT_NE(a.slot(), b.slot());
  EXPECT_EQ(a.slot(), 1u);
}

TYPED_TEST(EraDomainTest, FlushUnsafeFreesEverything) {
  TypeParam dom(0, 4);
  std::atomic<bool> freed{false};
  {
    typename TypeParam::ReadGuard guard(dom);
    std::atomic<std::atomic<bool>*> src{&freed};
    (void)guard.protect(src);
    dom.retire(&flag_free, &freed, 16, 0);
    EXPECT_EQ(dom.pending_objects(), 1u);
    const auto res = dom.flush_unsafe();
    EXPECT_EQ(res.freed_objects, 1u);
    EXPECT_EQ(res.freed_bytes, 16u);
  }
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(dom.pending_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Array-level: the bake-off's deterministic robustness gate.
// ---------------------------------------------------------------------

template <typename Policy>
class EraArrayTest : public ::testing::Test {};

using EraPolicies = ::testing::Types<rcua::IbrPolicy, rcua::HazardErasPolicy>;
TYPED_TEST_SUITE(EraArrayTest, EraPolicies);

TYPED_TEST(EraArrayTest, ParkedViewBoundsUnreclaimedSpines) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  std::size_t max_pending = 0;
  {
    auto view = arr.view();  // the indefinitely stalled reader
    for (int r = 0; r < kResizes; ++r) {
      arr.resize_add(64);
      max_pending = std::max(max_pending, arr.reclaim_pending_objects());
    }
    // The bound: <= 2 spines per locale, INDEPENDENT of kResizes. (The
    // view pins one locale; other locales' readers are idle, so their
    // retires free immediately.)
    EXPECT_LE(max_pending, 2u * cluster.num_locales());
    EXPECT_EQ(arr.capacity(), 64u * (kResizes + 1));
    // No overflow machinery involved, ever: the bound needs no budget.
    EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.escalations(), 0u);
    EXPECT_EQ(arr.stalled_spines(), 0u);
    EXPECT_EQ(arr.overflow_pending_objects(), 0u);
  }
  // Reader gone: one manual retry drains the era retire lists.
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
  EXPECT_EQ(arr.reclaim_pending_bytes(), 0u);
}

TYPED_TEST(EraArrayTest, EraStallDiagnosticIsStructuredAndNonEscalating) {
  // Satellite: StallMonitor escalation coverage for a policy that never
  // defers — the era reclaimers must report the stalled reader as a
  // structured kEraReservation diagnostic while keeping overflow bytes
  // at exactly zero (no budget pressure, no escalation path).
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 64, opts);

  {
    auto view = arr.view();
    // Era lag grows by ~1 per resize; the diagnostic fires at the
    // threshold (3) and on every retire past it.
    for (int r = 0; r < 8; ++r) arr.resize_add(64);
    EXPECT_GE(sm.monitor.stalls(), 1u);
    const auto records = sm.sink.records();
    ASSERT_FALSE(records.empty());
    for (const auto& d : records) {
      EXPECT_EQ(d.kind, reclaim::StallDiagnostic::Kind::kEraReservation);
      EXPECT_NE(d.domain, nullptr);
      EXPECT_EQ(d.locale, 0u);
      EXPECT_GE(d.era_lag, 3u);
      EXPECT_NE(d.stripe, SIZE_MAX);     // the laggard slot is named
      EXPECT_GT(d.overflow_bytes, 0u);   // pending (bounded) bytes
      EXPECT_EQ(d.budget_bytes, 0u);     // no budget in play
      EXPECT_FALSE(d.describe().empty());
    }
    // The never-defers contract, asserted against the monitor itself.
    EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.peak_overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.escalations(), 0u);
    EXPECT_EQ(sm.monitor.overflow_objects(), 0u);
  }
}

TYPED_TEST(EraArrayTest, ChaosStalledReaderKeepsResizeLiveAndBounded) {
  // FaultPlan chaos: reader threads stalled mid-section (real sleeps)
  // while a resize train runs. Era retirement never blocks on them, the
  // pending set stays bounded throughout, and everything drains once
  // the readers exit.
  rt::FaultPlan plan(/*seed=*/7);
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 4 * 64, opts);
  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = 0,
            .fire_from = 1,
            .fire_count = 8,
            .delay_ns = 2ull * 1000 * 1000});  // 2 ms mid-section stalls
  cluster.set_fault_plan(&plan);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += static_cast<std::uint64_t>(arr.read(0));
      }
      (void)sink;
    });
  }
  std::size_t max_pending = 0;
  for (int r = 0; r < 16; ++r) {
    arr.resize_add(64);
    max_pending = std::max(max_pending, arr.reclaim_pending_objects());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  cluster.set_fault_plan(nullptr);

  EXPECT_LE(max_pending, 2u * cluster.num_locales());
  EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
  EXPECT_EQ(sm.monitor.escalations(), 0u);
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
}

// ---------------------------------------------------------------------
// The contrast half of the headline claim: EBR and QSBR on the SAME
// parked-reader scenario grow without bound.
// ---------------------------------------------------------------------

TEST(EraContrast, EbrOverflowGrowsLinearlyUnderParkedReader) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  SilentMonitor sm;
  rcua::RCUArray<int, rcua::EbrPolicy>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  // Non-blocking drain, so the parked view defers instead of hanging
  // the resize train (the §9 watchdog path).
  opts.stall_deadline_ns = 1;
  rcua::RCUArray<int, rcua::EbrPolicy> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  {
    auto view = arr.view();
    for (int r = 0; r < kResizes; ++r) arr.resize_add(64);
    // Every retired spine is parked behind the stalled reader: the
    // unreclaimed set grows with the stall duration — the fragility the
    // era policies remove. (>= rather than == : the very first deferral
    // may still free if the drain won the race before the view parked.)
    EXPECT_GE(arr.overflow_pending_objects(),
              static_cast<std::size_t>(kResizes - 1));
    EXPECT_GT(sm.monitor.overflow_bytes(), 0u);
  }
  arr.reclaim_overflow();
  EXPECT_EQ(arr.overflow_pending_objects(), 0u);
}

TEST(EraContrast, QsbrDeferralsGrowLinearlyUnderLaggardParticipant) {
  rt::ThreadRegistry registry;
  reclaim::Qsbr qsbr(registry);
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<int, rcua::QsbrPolicy>::Options opts;
  opts.block_size = 64;
  opts.qsbr = &qsbr;
  rcua::RCUArray<int, rcua::QsbrPolicy> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  // This thread is a participant (every array op registers it) that
  // never checkpoints: the safe-epoch minimum is pinned, and every
  // deferred spine stays unreclaimed — linear growth in the laggard's
  // stall duration.
  (void)arr.read(0);
  for (int r = 0; r < kResizes; ++r) arr.resize_add(64);
  const auto s = qsbr.stats();
  EXPECT_GE(s.defers, static_cast<std::uint64_t>(kResizes));
  EXPECT_EQ(s.reclaimed, 0u);
  EXPECT_GE(qsbr.pending_total(), static_cast<std::size_t>(kResizes));
  // The laggard checkpoints, then the surviving workers checkpoint
  // (defer lists are per-thread). A pool worker that already exited
  // leaves its deferrals stranded on a parked record no checkpoint
  // will visit — flush_unsafe() takes that remainder (legal: no live
  // readers) — so the robust drain is checkpoints plus a final flush,
  // measured by pending_total().
  qsbr.checkpoint();
  cluster.coforall_locales([&](std::uint32_t) { qsbr.checkpoint(); });
  qsbr.checkpoint();
  qsbr.flush_unsafe();
  EXPECT_EQ(qsbr.pending_total(), 0u);
}

// ---------------------------------------------------------------------
// The reclamation-domain contract, over every policy's Domain.
// ---------------------------------------------------------------------

namespace {

/// A protected object that reports its own destruction.
struct Flagged {
  explicit Flagged(std::atomic<bool>* freed_flag) : freed(freed_flag) {}
  ~Flagged() { freed->store(true, std::memory_order_seq_cst); }
  std::atomic<bool>* freed;
};

template <typename Policy>
struct DomainContract {
  using Domain = typename Policy::Domain;

  DomainContract() : qsbr(registry) {
    opts.qsbr = &qsbr;
    opts.monitor = &sm.monitor;
    // EBR retire must park, not block, behind the pinned reader.
    opts.stall_deadline_ns = 1000 * 1000;
  }

  /// Pins `src` on a reader thread and publishes the pinned pointer,
  /// holds the section for 30 ms, records whether the pinned object —
  /// whose destruction sets `freed` — was freed meanwhile, leaves the
  /// section, and checkpoints (the QSBR quiescent state). The flag is
  /// read, never the object.
  std::thread reader(Domain& dom, std::atomic<Flagged*>& src,
                     const std::atomic<bool>& freed,
                     std::atomic<Flagged*>& pinned,
                     std::atomic<bool>& freed_while_pinned) {
    return std::thread([&] {
      {
        auto pin = dom.pin(src);
        pinned.store(pin.get());
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        freed_while_pinned.store(freed.load());
      }
      qsbr.checkpoint();
    });
  }

  static void expect_nothing_pending(const Domain& dom) {
    const reclaim::Pending p = dom.pending();
    EXPECT_EQ(p.objects, 0u);
    EXPECT_EQ(p.bytes, 0u);
    EXPECT_EQ(p.overflow_objects, 0u);
    EXPECT_EQ(p.overflow_bytes, 0u);
  }

  rt::ThreadRegistry registry;
  reclaim::Qsbr qsbr;
  SilentMonitor sm;
  rt::Locale locale{0};
  reclaim::DomainOptions opts;
};

Flagged* wait_for(const std::atomic<Flagged*>& pinned) {
  while (pinned.load() == nullptr) std::this_thread::yield();
  return pinned.load();
}

}  // namespace

template <typename Policy>
class DomainContractTest : public ::testing::Test {};

using AllPolicies =
    ::testing::Types<rcua::EbrPolicy, rcua::LegacyEbrPolicy,
                     rcua::QsbrPolicy, rcua::IbrPolicy,
                     rcua::HazardErasPolicy>;
TYPED_TEST_SUITE(DomainContractTest, AllPolicies);

TYPED_TEST(DomainContractTest, RetiredObjectOutlivesItsPin) {
  DomainContract<TypeParam> c;
  typename TypeParam::Domain dom(c.locale, c.opts);
  std::atomic<bool> freed_a{false};
  std::atomic<bool> freed_b{false};
  std::atomic<Flagged*> src{new Flagged(&freed_a)};
  const std::uint64_t birth_a = dom.birth();
  std::atomic<Flagged*> pinned{nullptr};
  std::atomic<bool> freed_while_pinned{true};
  std::thread r = c.reader(dom, src, freed_a, pinned, freed_while_pinned);
  EXPECT_EQ(wait_for(pinned), src.load());
  const std::uint64_t birth_b = dom.birth();
  Flagged* a = src.exchange(new Flagged(&freed_b));
  dom.retire(a, sizeof(Flagged), birth_a);
  r.join();
  EXPECT_FALSE(freed_while_pinned.load());
  // The holder is gone: a flush (QSBR: a checkpoint) reclaims the rest.
  dom.flush();
  c.qsbr.checkpoint();
  EXPECT_TRUE(freed_a.load());
  DomainContract<TypeParam>::expect_nothing_pending(dom);
  dom.retire(src.load(), sizeof(Flagged), birth_b);
  dom.flush();
  c.qsbr.checkpoint();
  EXPECT_TRUE(freed_b.load());
  DomainContract<TypeParam>::expect_nothing_pending(dom);
}

TYPED_TEST(DomainContractTest, DeferFreeAfterFenceDrainOutlivesItsPin) {
  DomainContract<TypeParam> c;
  typename TypeParam::Domain dom(c.locale, c.opts);
  std::atomic<bool> freed_a{false};
  std::atomic<bool> freed_b{false};
  std::atomic<Flagged*> src{new Flagged(&freed_a)};
  std::atomic<Flagged*> pinned{nullptr};
  std::atomic<bool> freed_while_pinned{true};
  std::thread r = c.reader(dom, src, freed_a, pinned, freed_while_pinned);
  EXPECT_EQ(wait_for(pinned), src.load());
  Flagged* a = src.exchange(new Flagged(&freed_b));
  // Blocks until the reader leaves (QSBR: returns at once, and the
  // deferral waits for the reader's checkpoint instead).
  dom.fence_drain();
  dom.defer_free(a);
  r.join();
  EXPECT_FALSE(freed_while_pinned.load());
  c.qsbr.checkpoint();
  EXPECT_TRUE(freed_a.load());
  DomainContract<TypeParam>::expect_nothing_pending(dom);
  dom.fence_drain();
  dom.defer_free(src.load());
  c.qsbr.checkpoint();
  EXPECT_TRUE(freed_b.load());
}
