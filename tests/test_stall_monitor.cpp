// Unit tests for the grace-period watchdog layer: the stall deadline,
// wait_with_policy, StallMonitor, and the epoch-tagged OverflowRetireList.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/rcu_array.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/thread_registry.hpp"

namespace reclaim = rcua::reclaim;

namespace {

struct EnvGuard {
  std::string name;
  explicit EnvGuard(const char* n, const char* value) : name(n) {
    setenv(n, value, 1);
  }
  ~EnvGuard() { unsetenv(name.c_str()); }
};

void flag_deleter(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

}  // namespace

TEST(StallPolicy, FromEnvReadsKnobs) {
  // RCUA_STALL_DEADLINE_NS is the one stall knob; the wait's ladder is
  // fixed.
  EnvGuard d("RCUA_STALL_DEADLINE_NS", "2500000");
  EXPECT_EQ(reclaim::stall_deadline_from_env(), 2500000u);
}

TEST(StallPolicy, FromEnvDefaultsToBlocking) {
  // With no env configuration the deadline must preserve the paper's
  // block-forever semantics (the compatibility guarantee).
  EXPECT_EQ(reclaim::stall_deadline_from_env(), 0u);
}

TEST(StallPolicy, EnvDeadlineReachesDefaultOptionsArray) {
  // End to end: the env var alone turns a default-Options EBR array's
  // resize drain into a bounded wait that parks the spine a pinned
  // reader holds, and the parked spine is freed once the reader leaves.
  EnvGuard d("RCUA_STALL_DEADLINE_NS", "1000000");  // 1 ms
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<int, rcua::EbrPolicy> arr(cluster, 1024);
  {
    auto view = arr.view();  // the parked reader
    arr.resize_add(1024);    // returns: the drain gives up at 1 ms
    EXPECT_EQ(arr.stalled_spines(), 1u);
    EXPECT_EQ(arr.overflow_pending_objects(), 1u);
  }
  EXPECT_EQ(arr.reclaim_overflow(), 1u);
  EXPECT_EQ(arr.overflow_pending_objects(), 0u);
  EXPECT_EQ(arr.overflow_pending_bytes(), 0u);
}

TEST(WaitWithPolicy, ImmediateSuccess) {
  EXPECT_TRUE(reclaim::wait_with_policy("test", /*deadline_ns=*/1000,
                                        [] { return true; }));
}

TEST(WaitWithPolicy, TimesOutOnStuckPredicate) {
  constexpr std::uint64_t kDeadline = 500 * 1000;  // 0.5 ms
  const auto start = std::chrono::steady_clock::now();
  const bool ok =
      reclaim::wait_with_policy("test", kDeadline, [] { return false; });
  EXPECT_FALSE(ok);
  // It never gives up before the deadline has passed.
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::nanoseconds(kDeadline));
}

TEST(WaitWithPolicy, BlockingPolicyWaitsOutTheStall) {
  std::atomic<bool> ready{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ready.store(true);
  });
  EXPECT_TRUE(reclaim::wait_with_policy("test", /*deadline_ns=*/0,
                                        [&] { return ready.load(); }));
  releaser.join();
}

TEST(WaitWithPolicy, DeadlineSurvivesLatePredicateFlip) {
  std::atomic<bool> ready{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ready.store(true);
  });
  const std::uint64_t deadline_ns = 2ull * 1000 * 1000 * 1000;  // 2 s
  EXPECT_TRUE(reclaim::wait_with_policy("test", deadline_ns,
                                        [&] { return ready.load(); }));
  releaser.join();
}

TEST(StallMonitor, RecordStallCountsAndForwards) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);

  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEbrReader;
  diag.locale = 3;
  diag.epoch = 17;
  diag.stripe = 2;
  diag.stuck_readers = 1;
  diag.waited_ns = 1000000;
  monitor.record_stall(diag);

  EXPECT_EQ(monitor.stalls(), 1u);
  const auto records = captured.records();
  ASSERT_EQ(records.size(), 1u);
  // Structured-field asserts: the sink receives the diagnostic verbatim,
  // no string parsing required.
  EXPECT_EQ(records[0].kind, reclaim::StallDiagnostic::Kind::kEbrReader);
  EXPECT_EQ(records[0].locale, 3u);
  EXPECT_EQ(records[0].epoch, 17u);
  EXPECT_EQ(records[0].stripe, 2u);
  EXPECT_EQ(records[0].stuck_readers, 1u);
  EXPECT_EQ(records[0].waited_ns, 1000000u);
  EXPECT_EQ(monitor.last().epoch, 17u);
  EXPECT_EQ(monitor.last().locale, 3u);
}

TEST(StallMonitor, NullSinkSilencesButStillCounts) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.set_sink(nullptr);
  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEbrReader;
  diag.epoch = 5;
  monitor.record_stall(diag);
  EXPECT_EQ(monitor.stalls(), 1u);
  EXPECT_EQ(monitor.last().epoch, 5u);
}

TEST(StallMonitor, CaptureSinkSupportsClearAndSize) {
  reclaim::CaptureStallSink sink;
  reclaim::StallDiagnostic diag;
  sink.on_stall(diag);
  sink.on_stall(diag);
  EXPECT_EQ(sink.size(), 2u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(StallMonitor, DescribeNamesStripeEpochAndDuration) {
  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEbrReader;
  diag.locale = 1;
  diag.epoch = 42;
  diag.stripe = 5;
  diag.stuck_readers = 2;
  diag.waited_ns = 7000;
  const std::string s = diag.describe();
  EXPECT_NE(s.find("stripe 5"), std::string::npos) << s;
  EXPECT_NE(s.find("42"), std::string::npos) << s;
  EXPECT_NE(s.find("7000"), std::string::npos) << s;
}

TEST(StallMonitor, BudgetAccounting) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/100,
                                reclaim::StallMonitor::Escalation::kWarn);
  EXPECT_FALSE(monitor.would_exceed(100));
  monitor.note_overflow(60);
  EXPECT_EQ(monitor.overflow_bytes(), 60u);
  EXPECT_TRUE(monitor.would_exceed(41));
  EXPECT_FALSE(monitor.would_exceed(40));
  monitor.note_overflow(40);
  EXPECT_EQ(monitor.peak_overflow_bytes(), 100u);
  monitor.note_flushed(100, 2);
  EXPECT_EQ(monitor.overflow_bytes(), 0u);
  EXPECT_EQ(monitor.flushed_objects(), 2u);
  // The peak survives the flush (it is the memory-bound evidence).
  EXPECT_EQ(monitor.peak_overflow_bytes(), 100u);
}

TEST(StallMonitor, UnlimitedBudgetNeverExceeds) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.note_overflow(SIZE_MAX / 2);
  EXPECT_FALSE(monitor.would_exceed(SIZE_MAX / 2));
}

TEST(StallMonitor, EscalateWarnRecordsAndContinues) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/1,
                                reclaim::StallMonitor::Escalation::kWarn);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);
  reclaim::StallDiagnostic diag;
  diag.overflow_bytes = 10;
  diag.budget_bytes = 1;
  monitor.escalate(diag);  // must not abort under kWarn
  EXPECT_EQ(monitor.escalations(), 1u);
  const auto records = captured.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind,
            reclaim::StallDiagnostic::Kind::kOverflowBudget);
  // escalate() stamps the monitor's own budget and live byte count into
  // the diagnostic before forwarding it.
  EXPECT_EQ(records[0].budget_bytes, 1u);
}

TEST(OverflowRetireList, PushAccountsBytesAndObjects) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};
  list.push(&flag_deleter, &freed, 128, /*epoch=*/4);
  EXPECT_EQ(list.pending_objects(), 1u);
  EXPECT_EQ(list.pending_bytes(), 128u);
  EXPECT_FALSE(freed.load());
  const auto r = list.free_all();
  EXPECT_EQ(r.objects, 1u);
  EXPECT_EQ(r.bytes, 128u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(list.pending_objects(), 0u);
}

TEST(OverflowRetireList, FlushRequiresBothColumnsObservedEmpty) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed_even{false};
  std::atomic<bool> freed_odd{false};
  list.push(&flag_deleter, &freed_even, 10, /*epoch=*/2);  // parity 0
  list.push(&flag_deleter, &freed_odd, 20, /*epoch=*/3);   // parity 1
  // Only parity 0 observed empty: an entry's own parity draining is NOT
  // enough — a stalled reader on the other column may still hold it.
  const auto r =
      list.flush_ready([](std::size_t parity) { return parity == 0; });
  EXPECT_EQ(r.objects, 0u);
  EXPECT_FALSE(freed_even.load());
  EXPECT_FALSE(freed_odd.load());
  EXPECT_EQ(list.pending_objects(), 2u);
  EXPECT_EQ(list.pending_bytes(), 30u);
  // Parity 1 observed empty on a later flush: combined with the banked
  // parity-0 observation, both entries are now reclaimable.
  const auto r2 =
      list.flush_ready([](std::size_t parity) { return parity == 1; });
  EXPECT_EQ(r2.objects, 2u);
  EXPECT_EQ(r2.bytes, 30u);
  EXPECT_TRUE(freed_even.load());
  EXPECT_TRUE(freed_odd.load());
  EXPECT_EQ(list.pending_bytes(), 0u);
}

TEST(OverflowRetireList, FlushFreesInOneCallWhenBothColumnsAreEmpty) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};
  list.push(&flag_deleter, &freed, 8, /*epoch=*/5);
  const auto r = list.flush_ready([](std::size_t) { return true; });
  EXPECT_EQ(r.objects, 1u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(list.pending_objects(), 0u);
}

TEST(OverflowRetireList, FlushAgainstLiveEbrColumn) {
  // End-to-end with a real reclaimer: while a reader occupies either
  // column, deferred entries survive flushes; once it leaves, both
  // columns are observed empty and the entry is reclaimed.
  reclaim::Ebr ebr(0, /*stripe_count=*/2);
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};

  auto guard = std::make_unique<reclaim::Ebr::ReadGuard>(ebr);  // parity 0
  const auto old_epoch = ebr.advance_epoch();                   // drain 0
  list.push(&flag_deleter, &freed, 64,
            static_cast<std::uint64_t>(old_epoch));
  auto drained = [&](std::size_t parity) {
    return ebr.readers_at(parity) == 0;
  };
  EXPECT_EQ(list.flush_ready(drained).objects, 0u);
  EXPECT_FALSE(freed.load());

  guard.reset();  // reader evacuates
  EXPECT_EQ(list.flush_ready(drained).objects, 1u);
  EXPECT_TRUE(freed.load());
}

TEST(Ebr, DeadlineWaitTimesOutAndNamesTheStripe) {
  reclaim::Ebr ebr(0, /*stripe_count=*/4);
  ebr.test_stripe_override = 2;  // pin the reader to a known stripe
  reclaim::Ebr::ReadGuard guard(ebr);
  ebr.test_stripe_override = -1;

  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult r =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/200 * 1000);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.stuck_readers, 1u);
  EXPECT_EQ(r.stuck_stripe, 2u);
  EXPECT_GT(r.waited_ns, 0u);
}

TEST(Ebr, DeadlineWaitDrainsWhenClear) {
  reclaim::Ebr ebr;
  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult r =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/1000);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.stuck_stripe, SIZE_MAX);
}

TEST(Qsbr, SynchronizeWaitsForLaggard) {
  rcua::rt::ThreadRegistry registry;  // isolated: other tests' threads
                                      // must not gate this domain
  reclaim::Qsbr qsbr(registry);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread laggard([&] {
    qsbr.ensure_participant();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    qsbr.checkpoint();
  });
  while (!entered.load()) std::this_thread::yield();

  std::atomic<bool> synced{false};
  std::thread writer([&] {
    qsbr.synchronize();
    synced.store(true);
  });
  // The laggard has not observed the new state: synchronize must wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(synced.load());

  release.store(true);
  laggard.join();
  writer.join();  // completes once the laggard checkpointed
  EXPECT_TRUE(synced.load());
}
