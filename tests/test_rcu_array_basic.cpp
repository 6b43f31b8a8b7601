// Functional tests for RCUArray under both reclamation policies (typed
// test suite): construction, indexing, resizing, distribution, locality.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rcu_array.hpp"

using rcua::EbrPolicy;
using rcua::HazardErasPolicy;
using rcua::IbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;
namespace rt = rcua::rt;

namespace {

template <typename Policy>
struct RcuArrayTyped : public ::testing::Test {
  using Array = RCUArray<std::uint64_t, Policy>;
};

using Policies =
    ::testing::Types<EbrPolicy, QsbrPolicy, IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(RcuArrayTyped, Policies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(RcuArrayTyped, EmptyConstruction) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster);
  EXPECT_EQ(arr.capacity(), 0u);
  EXPECT_EQ(arr.num_blocks(), 0u);
  EXPECT_EQ(arr.resize_count(), 0u);
}

TYPED_TEST(RcuArrayTyped, InitialCapacityRoundsUpToBlocks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 100, {.block_size = 64});
  EXPECT_EQ(arr.block_size(), 64u);
  EXPECT_EQ(arr.num_blocks(), 2u);
  EXPECT_EQ(arr.capacity(), 128u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ZeroBlockSizeThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  using Array = typename TestFixture::Array;
  EXPECT_THROW(Array(cluster, 0, {.block_size = 0}), std::invalid_argument);
}

TYPED_TEST(RcuArrayTyped, WriteThenReadRoundTrips) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 256, {.block_size = 64});
  for (std::size_t i = 0; i < 256; ++i) arr.write(i, i * 3);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(arr.read(i), i * 3);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, IndexReturnsStableReference) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  std::uint64_t& ref = arr.index(5);
  ref = 77;
  EXPECT_EQ(arr.read(5), 77u);
  EXPECT_EQ(&arr.index(5), &ref);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, AtThrowsOutOfRange) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  EXPECT_NO_THROW(arr.at(63));
  EXPECT_THROW(arr.at(64), std::out_of_range);
  EXPECT_THROW(arr.at(1 << 20), std::out_of_range);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeGrowsAndPreservesContents) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  for (std::size_t i = 0; i < 64; ++i) arr.write(i, i + 1);
  arr.resize_add(128);
  EXPECT_EQ(arr.capacity(), 192u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(arr.read(i), i + 1);
  // New region readable and zero-initialized.
  for (std::size_t i = 64; i < 192; ++i) EXPECT_EQ(arr.read(i), 0u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeByPartialBlockRoundsUp) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 64});
  arr.resize_add(1);
  EXPECT_EQ(arr.capacity(), 64u);
  arr.resize_add(65);
  EXPECT_EQ(arr.capacity(), 192u);
  EXPECT_EQ(arr.resize_count(), 2u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeZeroIsNoop) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  arr.resize_add(0);
  EXPECT_EQ(arr.capacity(), 64u);
  EXPECT_EQ(arr.resize_count(), 1u);  // only the initial sizing
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, BlocksDistributedRoundRobin) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 8 * 64, {.block_size = 64});
  // Blocks 0..7 must land on locales 0,1,2,3,0,1,2,3.
  for (std::size_t b = 0; b < 8; ++b) {
    EXPECT_EQ(arr.block_owner(b * 64), b % 4) << "block " << b;
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, RoundRobinContinuesAcrossResizes) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 64});
  for (int step = 0; step < 6; ++step) arr.resize_add(64);  // one block each
  for (std::size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(arr.block_owner(b * 64), b % 4) << "block " << b;
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, SnapshotsReplicatedPerLocale) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 3 * 64, {.block_size = 64});
  arr.write(10, 555);
  // Each locale's privatized copy sees the same capacity and data.
  cluster.coforall_locales([&](std::uint32_t) {
    EXPECT_EQ(arr.capacity(), 3 * 64u);
    EXPECT_EQ(arr.read(10), 555u);
  });
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, LocalBlockAccessIsCommunicationFree) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  // Cache pinned off: this test asserts the UNCACHED read protocol's
  // exact comm counters, which the nightly RCUA_CACHE_CAPACITY_BYTES
  // sweep would otherwise change (a cached remote read records a fill,
  // not a GET).
  typename TestFixture::Array arr(cluster, 2 * 64,
                                  {.block_size = 64,
                                   .cache_capacity_bytes = 0});
  cluster.comm().reset();
  // Block 0 lives on locale 0; access from locale 0 must not count comm.
  ASSERT_EQ(arr.block_owner(0), 0u);
  arr.read(0);
  EXPECT_EQ(cluster.comm().total_gets(), 0u);
  // Block 1 lives on locale 1: reading it from here is one GET.
  arr.read(64);
  EXPECT_EQ(cluster.comm().total_gets(), 1u);
  // Writing it is one PUT.
  arr.write(65, 1);
  EXPECT_EQ(cluster.comm().total_puts(), 1u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, DestructionFreesAllBlocksAndSpines) {
  const auto blocks_before = rcua::Block<std::uint64_t>::live_count();
  const auto spines_before = rcua::Snapshot<std::uint64_t>::live_count();
  {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
    typename TestFixture::Array arr(cluster, 4 * 64, {.block_size = 64});
    arr.resize_add(2 * 64);
    drain_qsbr();  // retired spines from the resizes
  }
  drain_qsbr();
  EXPECT_EQ(rcua::Block<std::uint64_t>::live_count(), blocks_before);
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count(), spines_before);
}

TYPED_TEST(RcuArrayTyped, AllocationAccountedToOwningLocales) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  {
    typename TestFixture::Array arr(cluster, 4 * 64, {.block_size = 64});
    EXPECT_EQ(cluster.locale(0).allocations(), 2u);
    EXPECT_EQ(cluster.locale(1).allocations(), 2u);
    EXPECT_EQ(cluster.locale(0).bytes_live(),
              2 * 64 * sizeof(std::uint64_t));
  }
  drain_qsbr();
  EXPECT_EQ(cluster.locale(0).bytes_live(), 0u);
  EXPECT_EQ(cluster.locale(1).bytes_live(), 0u);
}

TEST(RcuArrayPolicy, PolicyNamesAndFlags) {
  EXPECT_STREQ(EbrPolicy::name, "EBR");
  EXPECT_STREQ(QsbrPolicy::name, "QSBR");
  const bool ebr_flag = RCUArray<int, EbrPolicy>::uses_qsbr;
  const bool qsbr_flag = RCUArray<int, QsbrPolicy>::uses_qsbr;
  EXPECT_FALSE(ebr_flag);
  EXPECT_TRUE(qsbr_flag);
}

TEST(RcuArrayEbr, ReadsGoThroughEpochProtocol) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 64, {.block_size = 64});
  for (int i = 0; i < 10; ++i) arr.read(0);
  if constexpr (rcua::reclaim::Ebr::kStatsEnabled) {
    EXPECT_GE(arr.ebr_stats_at(0).reads, 10u);
  } else {
    // Stats compiled out (default): the per-read counters are zero, but
    // the stats shape stays available so callers need no ifdefs.
    EXPECT_EQ(arr.ebr_stats_at(0).reads, 0u);
  }
}

TEST(RcuArrayQsbr, ResizeDefersOldSpines) {
  rt::ThreadRegistry reg;
  rcua::reclaim::Qsbr qsbr(reg);
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0,
                                          {.block_size = 64, .qsbr = &qsbr});
  const auto before = qsbr.stats().defers;
  arr.resize_add(64);
  // One old spine deferred per locale.
  EXPECT_EQ(qsbr.stats().defers, before + 2);
}

namespace {

/// An element whose construction throws on demand, so a block
/// allocation fails like a bad_alloc would: `budget` constructions still
/// succeed, the next one throws; -1 never throws.
struct ThrowingElem {
  static inline long budget = -1;
  ThrowingElem() {
    if (budget == 0) throw std::runtime_error("element construction failed");
    if (budget > 0) --budget;
  }
  std::uint64_t value = 0;
};

}  // namespace

TEST(RcuArrayEbr, FailedResizeReleasesWriteLock) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  RCUArray<ThrowingElem, EbrPolicy> arr(cluster, 0, {.block_size = 8});
  // A one-block grow: the throw comes before any block exists.
  ThrowingElem::budget = 0;
  EXPECT_THROW(arr.resize_add(8), std::runtime_error);
  ThrowingElem::budget = -1;
  // A leaked write lock would make the next resize_add hang forever.
  ASSERT_TRUE(arr.write_lock().try_lock());
  arr.write_lock().unlock();
  arr.resize_add(8);
  EXPECT_EQ(arr.capacity(), 8u);
}

TEST(RcuArrayEbr, FailedMultiBlockResizeFreesAllocatedBlocks) {
  constexpr std::size_t kBlock = 8;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  RCUArray<ThrowingElem, EbrPolicy> arr(cluster, 0, {.block_size = kBlock});
  // A 3-block grow deals its blocks alternately to both locales: the
  // local ones allocate inline at issue, the remote one(s) when their
  // futures are collected. Fail each block in turn, so blocks that
  // allocated before the failure and blocks still pending after it are
  // both covered.
  for (std::size_t k = 0; k < 3; ++k) {
    const std::uint64_t live0 = cluster.locale(0).bytes_live();
    const std::uint64_t live1 = cluster.locale(1).bytes_live();
    ThrowingElem::budget = static_cast<long>(k * kBlock) + 1;
    EXPECT_THROW(arr.resize_add(3 * kBlock), std::runtime_error)
        << "block " << k;
    ThrowingElem::budget = -1;
    EXPECT_EQ(cluster.locale(0).bytes_live(), live0) << "block " << k;
    EXPECT_EQ(cluster.locale(1).bytes_live(), live1) << "block " << k;
    EXPECT_EQ(arr.capacity(), k * 3 * kBlock);
    // The failed grow published nothing; the next one goes through.
    arr.resize_add(3 * kBlock);
    EXPECT_EQ(arr.capacity(), (k + 1) * 3 * kBlock);
  }
}

TEST(RcuArrayEbr, FailedConstructionReleasesEverything) {
  // A constructor that throws runs no destructor: the per-locale copies,
  // their snapshots and the privatization PID must be released anyway.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  const std::uint32_t pids = cluster.privatization().live_pids();
  const std::uint64_t live0 = cluster.locale(0).bytes_live();
  const std::uint64_t live1 = cluster.locale(1).bytes_live();
  ThrowingElem::budget = 0;  // the initial grow's first element throws
  EXPECT_THROW((RCUArray<ThrowingElem, EbrPolicy>(cluster, 8,
                                                  {.block_size = 8})),
               std::runtime_error);
  ThrowingElem::budget = -1;
  EXPECT_EQ(cluster.privatization().live_pids(), pids);
  EXPECT_EQ(cluster.locale(0).bytes_live(), live0);
  EXPECT_EQ(cluster.locale(1).bytes_live(), live1);
  // Rejected options release the PID too.
  EXPECT_THROW((RCUArray<int, EbrPolicy>(cluster, 0, {.block_size = 0})),
               std::invalid_argument);
  EXPECT_EQ(cluster.privatization().live_pids(), pids);
}

TEST(RcuArrayEbr, ConcurrentReserveGrowsOnce) {
  constexpr std::size_t kBlock = 8;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  RCUArray<int, EbrPolicy> arr(cluster, kBlock, {.block_size = kBlock});
  ASSERT_EQ(arr.resize_count(), 1u);
  // Every thread sees the same one-block shortfall; the re-check under
  // the write lock lets exactly one of them grow.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&arr] { arr.reserve(kBlock + 1); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arr.resize_count(), 2u);
  EXPECT_EQ(arr.num_blocks(), 2u);
  EXPECT_EQ(arr.capacity(), 2 * kBlock);
  // The published count is the pinned snapshot's on every locale.
  for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
    cluster.on(l, [&] { EXPECT_EQ(arr.view().num_blocks(), 2u); });
  }

  // Doubling steps (2 -> 4 -> 8 blocks) unless capped: with
  // max_step_blocks = 3 one step adds 3 blocks, not 8.
  arr.reserve(7 * kBlock);
  EXPECT_EQ(arr.num_blocks(), 8u);
  EXPECT_EQ(arr.resize_count(), 4u);
  arr.reserve(8 * kBlock + 1, /*max_step_blocks=*/3);
  EXPECT_EQ(arr.num_blocks(), 11u);
  EXPECT_EQ(arr.resize_count(), 5u);
  arr.reserve(arr.capacity());  // already there: no resize
  EXPECT_EQ(arr.resize_count(), 5u);
}
