// Tests specific to the striped reader-counter bank: stripe-count
// selection (ctor arg, env knob, pow2 rounding), cross-stripe drain
// summation, Lemma 2 across several bank widths, the stats aggregation
// across stripes when compiled in, and the virtual-time rules: a
// simulated task announces on the stripe of its logical slot, and a
// locale's bank is at least as wide as its worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "platform/topology.hpp"
#include "reclaim/domain.hpp"
#include "reclaim/ebr.hpp"
#include "runtime/cluster.hpp"
#include "sim/task_clock.hpp"

namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;
namespace sim = rcua::sim;

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Scoped setenv/unsetenv so a failing assertion cannot leak the knob
/// into later tests.
struct ScopedEnv {
  explicit ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

using StripedDomain = reclaim::EbrDomain<reclaim::Ebr>;

/// Simulated cores per locale: more than the host has, so a bank as wide
/// as the host alone would make some of a locale's tasks share a stripe.
std::uint32_t more_workers_than_the_host() {
  return rcua::plat::hardware_threads() + 2;
}

/// One striped domain per locale, as RCUArray keeps them.
std::vector<std::unique_ptr<StripedDomain>> locale_domains(
    rt::Cluster& cluster) {
  std::vector<std::unique_ptr<StripedDomain>> domains;
  for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
    domains.push_back(std::make_unique<StripedDomain>(cluster.locale(l)));
  }
  return domains;
}

/// Each task's virtual time after `ops` empty read sections on its
/// locale's domain, run as a simulated coforall_tasks with one task per
/// worker; indexed by logical slot.
std::vector<std::uint64_t> section_vtimes(std::uint32_t locales,
                                          std::uint32_t tasks,
                                          std::uint64_t ops) {
  rt::Cluster cluster({.num_locales = locales, .workers_per_locale = tasks});
  const auto domains = locale_domains(cluster);
  int payload = 0;
  std::atomic<int*> src{&payload};
  std::vector<std::uint64_t> vtimes(static_cast<std::size_t>(locales) * tasks);
  sim::TaskClock root;
  {
    sim::ClockScope scope(root);
    cluster.coforall_tasks(tasks, [&](std::uint32_t l, std::uint32_t t) {
      for (std::uint64_t n = 0; n < ops; ++n) {
        auto pin = domains[l]->pin(src);
      }
      vtimes[static_cast<std::size_t>(l) * tasks + t] = sim::now_v();
    });
  }
  return vtimes;
}

}  // namespace

TEST(StripedEbr, DefaultStripeCountIsPow2) {
  reclaim::Ebr ebr;
  EXPECT_TRUE(is_pow2(ebr.stripe_count()));
  EXPECT_GE(ebr.stripe_count(), 1u);
  EXPECT_LE(ebr.stripe_count(), 256u);
}

TEST(StripedEbr, ExplicitStripeCountRoundsUpToPow2) {
  reclaim::Ebr a(0, 3);
  EXPECT_EQ(a.stripe_count(), 4u);
  reclaim::Ebr b(0, 8);
  EXPECT_EQ(b.stripe_count(), 8u);
  reclaim::Ebr c(0, 1);
  EXPECT_EQ(c.stripe_count(), 1u);
}

TEST(StripedEbr, EnvKnobOverridesDefaultStripeCount) {
  {
    ScopedEnv env("RCUA_EBR_STRIPES", "6");
    reclaim::Ebr ebr;  // default_ebr_stripes() is re-read per construction
    EXPECT_EQ(ebr.stripe_count(), 8u);
  }
  {
    ScopedEnv env("RCUA_EBR_STRIPES", "1");
    reclaim::Ebr ebr;
    EXPECT_EQ(ebr.stripe_count(), 1u);
  }
  {
    // Absurd values clamp to the 256-stripe ceiling.
    ScopedEnv env("RCUA_EBR_STRIPES", "100000");
    reclaim::Ebr ebr;
    EXPECT_EQ(ebr.stripe_count(), 256u);
  }
  // An explicit ctor argument beats the env knob.
  {
    ScopedEnv env("RCUA_EBR_STRIPES", "16");
    reclaim::Ebr ebr(0, 2);
    EXPECT_EQ(ebr.stripe_count(), 2u);
  }
}

TEST(StripedEbr, LegacyLayoutAlwaysUsesOneStripe) {
  reclaim::LegacyEbr ebr(0, 16);  // stripe request ignored by design
  EXPECT_EQ(ebr.stripe_count(), 1u);
}

TEST(StripedEbr, StripeIndexStaysInRange) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{64}}) {
    EXPECT_LT(rcua::plat::stripe_index(n), n) << "stripes=" << n;
  }
  // Stable within a thread: the stripe is a pure function of the thread
  // identity, so repeated calls agree (the line stays cache-resident).
  EXPECT_EQ(rcua::plat::stripe_index(64), rcua::plat::stripe_index(64));
}

TEST(StripedEbr, AnnouncementLandsOnThePinnedStripe) {
  reclaim::Ebr ebr(0, 4);
  ebr.test_stripe_override = 2;
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  {
    reclaim::Ebr::ReadGuard guard(ebr);
    EXPECT_EQ(ebr.readers_at_stripe(2, parity), 1u);
    EXPECT_EQ(ebr.readers_at_stripe(0, parity), 0u);
    EXPECT_EQ(ebr.readers_at_stripe(1, parity), 0u);
    EXPECT_EQ(ebr.readers_at_stripe(3, parity), 0u);
    // The column view sums the bank.
    EXPECT_EQ(ebr.readers_at(parity), 1u);
  }
  EXPECT_EQ(ebr.readers_at(parity), 0u);
}

TEST(StripedEbr, DrainSumsTheColumnAcrossStripes) {
  // A reader announced on stripe 3 must block a drain even though
  // stripes 0-2 are empty: wait_for_readers sums the whole column.
  reclaim::Ebr ebr(0, 4);
  ebr.test_stripe_override = 3;

  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> writer_done{false};

  std::thread reader([&] {
    reclaim::Ebr::ReadGuard guard(ebr);
    reader_in.store(true);
    while (!reader_release.load()) std::this_thread::yield();
  });
  while (!reader_in.load()) std::this_thread::yield();

  std::thread writer([&] {
    const auto old_epoch = ebr.advance_epoch();
    ebr.wait_for_readers(old_epoch);
    writer_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(writer_done.load());

  reader_release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(StripedEbr, NewParityReaderOnAnotherStripeDoesNotBlockDrain) {
  reclaim::Ebr ebr(0, 4);
  const auto old_epoch = ebr.advance_epoch();
  ebr.test_stripe_override = 1;
  reclaim::Ebr::ReadGuard guard(ebr);  // records under the new parity
  ebr.wait_for_readers(old_epoch);     // must not deadlock
  SUCCEED();
}

// Lemma 2 is orthogonal to striping: parity survives epoch wrap-around
// at every bank width.
TEST(StripedEbrOverflow, ParityPreservedAcrossWrapAtSeveralWidths) {
  for (std::size_t stripes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    reclaim::BasicEbr<std::uint8_t> ebr(/*initial_epoch=*/250, stripes);
    // Pin successive reads onto rotating stripes so the wrap is exercised
    // on more than one slot pair.
    for (int i = 0; i < 600; ++i) {  // > 2 full wraps of a uint8 epoch
      ebr.test_stripe_override =
          static_cast<std::int32_t>(i % static_cast<int>(stripes));
      const std::uint8_t before = ebr.epoch();
      ebr.read([&] {
        EXPECT_GE(ebr.readers_at(ebr.epoch() % 2) +
                      ebr.readers_at((ebr.epoch() + 1) % 2),
                  1u);
        return 0;
      });
      ebr.synchronize();
      EXPECT_EQ(static_cast<std::uint8_t>(before + 1), ebr.epoch());
    }
    EXPECT_EQ(ebr.readers_at(0), 0u) << "stripes=" << stripes;
    EXPECT_EQ(ebr.readers_at(1), 0u) << "stripes=" << stripes;
  }
}

TEST(StripedEbr, StatsAggregateAcrossStripes) {
  reclaim::Ebr ebr(0, 4);
  for (std::int32_t s = 0; s < 4; ++s) {
    ebr.test_stripe_override = s;
    for (int i = 0; i < 5; ++i) ebr.read([] { return 0; });
  }
  if constexpr (reclaim::Ebr::kStatsEnabled) {
    EXPECT_EQ(ebr.stats().reads, 20u);
  } else {
    // Default build: the per-read counters compile out of the hot path.
    EXPECT_EQ(ebr.stats().reads, 0u);
  }
  // Write-side counters stay on in every build.
  ebr.synchronize();
  EXPECT_EQ(ebr.stats().epoch_advances, 1u);
}

TEST(StripedEbrStress, ConcurrentReadersAcrossStripesNoUseAfterFree) {
  struct Canary {
    std::atomic<std::uint32_t> alive{1};
    ~Canary() { alive.store(0); }
  };

  reclaim::Ebr ebr(0, 8);
  std::atomic<Canary*> snapshot{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ebr.read([&] {
          Canary* c = snapshot.load(std::memory_order_acquire);
          if (c->alive.load(std::memory_order_relaxed) != 1) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }

  for (int i = 0; i < 200; ++i) {
    auto* fresh = new Canary;
    Canary* old = snapshot.exchange(fresh, std::memory_order_acq_rel);
    ebr.synchronize();
    delete old;
  }

  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  delete snapshot.load();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

// -- Virtual time: the bank models the simulated locale, not the host --

TEST(StripedEbrVirtualTime, EachTaskOfALocaleAnnouncesOnItsOwnStripe) {
  constexpr std::uint32_t kLocales = 2;
  const std::uint32_t tasks = more_workers_than_the_host();
  const std::uint32_t total = kLocales * tasks;
  rt::Cluster cluster({.num_locales = kLocales, .workers_per_locale = tasks});
  const auto domains = locale_domains(cluster);
  int payload = 0;
  std::atomic<int*> src{&payload};
  std::atomic<std::uint32_t> announced{0};
  std::atomic<std::uint32_t> checked{0};
  std::atomic<std::uint32_t> shared_or_missed{0};
  sim::TaskClock root;
  {
    sim::ClockScope scope(root);
    cluster.coforall_tasks(tasks, [&](std::uint32_t l, std::uint32_t t) {
      const reclaim::Ebr& bank = domains[l]->bank();
      const std::size_t stripe =
          (static_cast<std::size_t>(l) * tasks + t) & (bank.stripe_count() - 1);
      const auto parity = static_cast<std::size_t>(bank.epoch() % 2);
      auto pin = domains[l]->pin(src);
      // Every task is inside its section before any checks its stripe,
      // and none leaves before all have checked: a slot holding other
      // than exactly 1 means two tasks share it or the task is elsewhere.
      announced.fetch_add(1);
      while (announced.load() < total) std::this_thread::yield();
      if (bank.readers_at_stripe(stripe, parity) != 1) {
        shared_or_missed.fetch_add(1);
      }
      checked.fetch_add(1);
      while (checked.load() < total) std::this_thread::yield();
    });
  }
  EXPECT_EQ(shared_or_missed.load(), 0u) << "tasks/locale=" << tasks;
  for (const auto& d : domains) {
    EXPECT_EQ(d->bank().readers_at(0) + d->bank().readers_at(1), 0u);
  }
}

TEST(StripedEbrVirtualTime, SectionChargesDoNotDependOnTheRunningThread) {
  // Each task owns its stripe, so its charges are those of a task alone
  // on the cluster: the same for every task and in every run, whichever
  // pool thread ran it and whoever touched a line first in real time.
  constexpr std::uint64_t kOps = 64;
  const std::uint32_t tasks = more_workers_than_the_host();
  const std::uint64_t solo = section_vtimes(1, 1, kOps).at(0);
  ASSERT_GT(solo, 0u);
  for (int run = 0; run < 3; ++run) {
    const std::vector<std::uint64_t> vtimes = section_vtimes(2, tasks, kOps);
    for (std::size_t slot = 0; slot < vtimes.size(); ++slot) {
      EXPECT_EQ(vtimes[slot], solo) << "run=" << run << " slot=" << slot;
    }
  }
}

TEST(StripedEbrVirtualTime, LocaleBankIsAtLeastItsWorkerPoolWide) {
  const std::uint32_t workers = more_workers_than_the_host();
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = workers});
  StripedDomain striped(cluster.locale(0));
  EXPECT_GE(striped.bank().stripe_count(), workers);
  EXPECT_TRUE(is_pow2(striped.bank().stripe_count()));
  EXPECT_EQ(striped.bank().stripe_count(),
            reclaim::default_ebr_stripes(workers));
  // The paper's layout stays one counter pair however wide the locale.
  reclaim::EbrDomain<reclaim::LegacyEbr> legacy(cluster.locale(0));
  EXPECT_EQ(legacy.bank().stripe_count(), 1u);
  // A bank outside any locale keeps the host's width.
  EXPECT_EQ(reclaim::Ebr{}.stripe_count(), reclaim::default_ebr_stripes());
}

TEST(StripedEbrVirtualTime, EnvKnobStillSetsTheLocaleBankWidth) {
  const std::uint32_t workers = more_workers_than_the_host();
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = workers});
  ScopedEnv env("RCUA_EBR_STRIPES", "2");
  StripedDomain domain(cluster.locale(0));
  EXPECT_EQ(domain.bank().stripe_count(), 2u);
}
