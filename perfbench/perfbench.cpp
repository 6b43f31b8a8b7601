// Wall-clock service benchmark for the RCUArray stack (see README.md).
//
//   perfbench --workload svc_zipf|vec_ingest|scan_qsbr --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//             [--inject-mismatch]
//
// One process drives a 4-locale rt::Cluster with one task per locale:
// three closed-loop clients plus one admin/reader/updater task. Every
// client stream is generated from the seed before timing starts, and
// structural events fire at fixed fractions of the clients' op budget,
// so each round does the same work. Rounds repeat until --seconds have
// been measured. --trace 0 prints the end-to-end metrics; --trace 1
// prints the per-layer metrics of a traced run. The last stdout line is
// one JSON object; the exit code is nonzero when the oracle found a
// mismatch or an op threw.

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "containers/dist_vector.hpp"
#include "core/rcu_array.hpp"
#include "hist.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "platform/rng.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/qsbr.hpp"
#include "runtime/cluster.hpp"
#include "runtime/this_task.hpp"
#include "service/sharded_collection.hpp"
#include "sim/task_clock.hpp"
#include "spans.hpp"
#include "util/workload.hpp"

namespace perfbench {
namespace {

using rcua::rt::Cluster;
using Coll = rcua::svc::ShardedCollection<std::uint64_t, rcua::EbrPolicy>;
using Vec = rcua::cont::DistVector<std::uint64_t, rcua::EbrPolicy>;

constexpr std::uint32_t kLocales = 4;
constexpr std::uint32_t kClients = kLocales - 1;
constexpr std::size_t kBlock = 1024;
/// Setup is repeated and its median reported, so one slow page-fault
/// storm does not decide the metric.
constexpr int kSetupReps = 25;
/// Clients report progress to the admin task every kProgressStep ops.
constexpr std::uint64_t kProgressStep = 1024;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::unique_ptr<Cluster> make_cluster() {
  // Two workers per locale: one runs the benchmark task, the other is
  // left idle for the fan-outs of resize_add / migrate.
  return std::make_unique<Cluster>(
      rcua::rt::ClusterConfig{.num_locales = kLocales,
                              .workers_per_locale = 2});
}

/// Per-task results. Lane 0 is the admin/reader/updater task, lanes
/// 1..kClients the clients; each is written only by its own task and
/// read after the join.
struct alignas(64) Lane {
  LogLinearHistogram lat;   ///< sampled client op latencies, ns
  LogLinearHistogram grow;  ///< growth latencies, ns
  std::uint64_t ops = 0;    ///< client ops issued
  std::uint64_t other = 0;  ///< admin events, tail checks, updates
  std::uint64_t failed = 0;
  std::uint64_t sink = 0;
  std::uint64_t pending_bytes_peak = 0;
  std::uint64_t bytes_live_peak = 0;
  std::uint64_t round_ops = 0;  ///< client ops in the last round
  std::uint64_t round_ns = 0;   ///< this client's wall time in it
};

/// Runs one client's share of a round and records its own wall time.
/// ops_per_s sums the clients' own rates, so a round is not stretched
/// by whichever task the host descheduled last.
template <typename F>
void timed_client(Lane& lane, F&& body) {
  const std::uint64_t ops0 = lane.ops;
  const std::uint64_t t0 = now_ns();
  body();
  lane.round_ns = now_ns() - t0;
  lane.round_ops = lane.ops - ops0;
}

/// Blocks the admin task until clients completed `target` ops, sampling
/// the memory gauges while it waits.
template <typename Sample>
void wait_progress(const std::atomic<std::uint64_t>& progress,
                   std::uint64_t target, Sample&& sample) {
  while (progress.load(std::memory_order_acquire) < target) {
    sample();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

/// Monotonic library counters, read before and after a measured phase.
struct Counters {
  std::uint64_t client_ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t executes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t overflow_tasks = 0;
  std::uint64_t epoch_advances = 0;
  std::uint64_t core_resizes = 0;
  std::uint64_t container_resizes = 0;
  std::uint64_t routed = 0;
  std::uint64_t routed_remote = 0;
  std::array<std::uint64_t, rcua::obs::Histogram::kBuckets> grace{};
};

/// Fills slots [first, first+n) with their key tags in chunks;
/// `write(first, values)` stores one chunk. The fill runs on the calling
/// thread: four parallel fill tasks made the set-up time depend on
/// whether the scheduler put two of them on one CPU (10 vs 21 ms).
template <typename Write>
void fill_tags(std::size_t first, std::size_t n, Write&& write) {
  std::vector<std::uint64_t> tags(std::size_t{1} << 16);
  for (std::size_t i = first; i < first + n; i += tags.size()) {
    const std::size_t len = std::min(tags.size(), first + n - i);
    for (std::size_t j = 0; j < len; ++j) tags[j] = KeyTag::make(i + j, 0);
    write(i, std::span<const std::uint64_t>(tags.data(), len));
  }
}

/// Reads slots [0, capacity) back in chunks through `read(first, n, out)`
/// and counts key-tag mismatches.
template <typename Read>
std::uint64_t verify_tags(std::size_t capacity, Read&& read) {
  std::vector<std::uint64_t> buf(std::size_t{1} << 16);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < capacity; i += buf.size()) {
    const std::size_t len = std::min(buf.size(), capacity - i);
    read(i, len, buf.data());
    bad += KeyTag::count_bad(
        i, std::span<const std::uint64_t>(buf.data(), len));
  }
  return bad;
}

/// The admin's grow: one timed resize_add, then the new slots get their
/// tags, so no read ever finds an unfilled slot.
template <typename Table>
void timed_grow(Table& table, std::size_t elems, Lane& lane, bool record) {
  const std::size_t cap = table.capacity();
  const std::uint64_t t0 = now_ns();
  table.resize_add(elems);
  if (record) lane.grow.record(now_ns() - t0);
  fill_tags(cap, elems,
            [&](std::size_t first, std::span<const std::uint64_t> v) {
              table.bulk_write(first, v);
            });
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the cluster and the structure and fills every slot with its
  /// tag: the part of start-up that setup_s times.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// Untimed work before a round (vec_ingest checks and replaces its
  /// vector here).
  virtual void prepare_round() {}
  /// One round of the fixed op budget. `record` enables latency samples.
  virtual void round(bool record) = 0;
  /// Reads every element back with bulk_read; returns mismatches.
  virtual std::uint64_t verify() = 0;
  /// Stores a foreign value into one slot (the oracle's self-test).
  virtual void inject_mismatch() = 0;
  /// The first `n` keys of the client-0 stream, for the ladder.
  [[nodiscard]] virtual std::vector<std::uint64_t> ladder_keys(
      std::size_t n) const = 0;
  [[nodiscard]] virtual Cluster& cluster() = 0;
  /// Adds the structure's own counters to the common ones.
  virtual void add_counters(Counters& c) = 0;
  [[nodiscard]] virtual std::uint64_t pending_bytes() = 0;

  [[nodiscard]] Counters counters() {
    Cluster& cl = cluster();
    auto& comm = cl.comm();
    Counters c;
    for (std::size_t l = 1; l <= kClients; ++l) c.client_ops += lanes[l].ops;
    c.gets = comm.total_gets();
    c.puts = comm.total_puts();
    c.executes = comm.total_executes();
    c.cache_hits = comm.total_cache_hits();
    c.cache_misses = comm.total_cache_misses();
    c.overflow_tasks = cl.pool().overflow_tasks();
    c.routed = comm.registry().counter("rcua.service.routed", kLocales).value();
    c.routed_remote =
        comm.registry().counter("rcua.service.routed_remote", kLocales).value();
    auto& grace = rcua::obs::health::grace_ns();
    for (std::size_t b = 0; b < c.grace.size(); ++b) {
      c.grace[b] = grace.bucket_count(b);
    }
    add_counters(c);
    return c;
  }

  /// Memory gauges, sampled by the admin task.
  void sample_gauges(Lane& lane) {
    Cluster& cl = cluster();
    std::uint64_t live = 0;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      live += cl.locale(l).bytes_live();
    }
    lane.bytes_live_peak = std::max(lane.bytes_live_peak, live);
    lane.pending_bytes_peak =
        std::max(lane.pending_bytes_peak, pending_bytes());
  }

  /// Runs `fn` and turns an escaping exception into a counted failure:
  /// pool tasks must not throw.
  template <typename F>
  static void guarded(Lane& lane, F&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op failed: %s\n", e.what());
      ++lane.failed;
    }
  }

  std::array<Lane, kLocales> lanes{};
};

// ---------------------------------------------------------------------------
// svc_zipf: the service-shaped workload.

class SvcZipf final : public Workload {
 public:
  static constexpr std::size_t kKeys = std::size_t{1} << 22;
  static constexpr std::size_t kShards = 8;
  static constexpr std::uint64_t kOpsPerClient = std::uint64_t{1} << 20;
  static constexpr std::uint64_t kSampleMask = 7;  // time 1 op in 8
  static constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
  /// One block per grow: a grow is one shard's resize_add.
  static constexpr std::size_t kGrowElems = kBlock;

  explicit SvcZipf(std::uint64_t seed) {
    const double zetan = rcua::util::ZipfGenerator::compute_zetan(kKeys, 0.99);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      rcua::util::ZipfGenerator zipf(kKeys, 0.99, rcua::plat::mix64(seed + c),
                                     zetan);
      rcua::plat::Xoshiro256 rng(rcua::plat::mix64(~seed - c));
      auto& s = streams_[c];
      s.resize(kOpsPerClient);
      for (auto& op : s) {
        // Scramble ranks so the hot keys spread over the shards. The
        // scramble is fixed, not seeded: every seed places the hot keys
        // on the same shards, and only the order of requests varies.
        const std::uint64_t key = rcua::plat::mix64(zipf.next()) % kKeys;
        op = key | (rng.next_below(10) == 0 ? kWriteBit : 0);
      }
    }
  }

  void setup() override {
    cluster_ = make_cluster();
    Coll::Options o;
    o.block_size = kBlock;
    o.shard_count = kShards;
    o.cache_capacity_bytes = 0;
    coll_ = std::make_unique<Coll>(*cluster_, kKeys, o);
    fill_tags(0, kKeys,
              [&](std::size_t first, std::span<const std::uint64_t> v) {
                coll_->bulk_write(first, v);
              });
  }

  void teardown() override {
    coll_.reset();
    cluster_.reset();
  }

  void round(bool record) override {
    std::atomic<std::uint64_t> progress{0};
    const std::uint64_t total = kClients * kOpsPerClient;
    cluster_->coforall_tasks(1, [&](std::uint32_t l, std::uint32_t) {
      Lane& lane = lanes[l];
      if (l != 0) {
        timed_client(lane, [&] {
          client(lane, streams_[l - 1], record, progress);
        });
        return;
      }
      // Grows at the odd sixteenths of the budget; one migration at 1/2,
      // of a different shard every round.
      for (std::uint64_t k = 1; k < 16; k += 1) {
        if (k % 2 == 0 && k != 8) continue;
        wait_progress(progress, total * k / 16, [&] { sample_gauges(lane); });
        ++lane.other;
        guarded(lane, [&] {
          if (k == 8) {
            const std::size_t s = rounds_ % kShards;
            const std::uint32_t dst = (coll_->home_of(s) + 1) % kLocales;
            if (!coll_->migrate(s, dst)) ++lane.failed;  // no fault plan
          } else {
            timed_grow(*coll_, kGrowElems, lane, record);
          }
        });
      }
      sample_gauges(lane);
    });
    ++rounds_;
  }

  std::uint64_t verify() override {
    return verify_tags(coll_->capacity(), [&](std::size_t first, std::size_t n,
                                              std::uint64_t* out) {
      coll_->bulk_read(first, n, out);
    });
  }

  void inject_mismatch() override { coll_->write(1, KeyTag::make(2, 0)); }

  std::vector<std::uint64_t> ladder_keys(std::size_t n) const override {
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = streams_[0][i] & ~kWriteBit;
    return keys;
  }

  Cluster& cluster() override { return *cluster_; }

  void add_counters(Counters& c) override {
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::uint32_t l = 0; l < kLocales; ++l) {
        c.epoch_advances += coll_->shard(s).ebr_stats_at(l).epoch_advances;
      }
    }
    c.core_resizes = coll_->resize_count();
  }

  std::uint64_t pending_bytes() override {
    std::uint64_t b = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      b += coll_->shard(s).reclaim_pending_bytes();
    }
    return b;
  }

 private:
  void client(Lane& lane, const std::vector<std::uint64_t>& stream,
              bool record, std::atomic<std::uint64_t>& progress) {
    std::uint64_t i = 0;
    try {
      for (; i < stream.size(); ++i) {
        const std::uint64_t op = stream[i];
        const std::uint64_t key = op & ~kWriteBit;
        const bool timed = record && (i & kSampleMask) == 0;
        const std::uint64_t t0 = timed ? now_ns() : 0;
        if ((op & kWriteBit) != 0) {
          coll_->write(key, KeyTag::make(key, i));
        } else if (!KeyTag::ok(key, coll_->read(key))) {
          ++lane.failed;
        }
        if (timed) lane.lat.record(now_ns() - t0);
        if (i % kProgressStep == kProgressStep - 1) {
          progress.fetch_add(kProgressStep, std::memory_order_release);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: client op failed: %s\n", e.what());
      ++lane.failed;
      progress.fetch_add(stream.size() - i, std::memory_order_release);
    }
    lane.ops += i;
  }

  std::array<std::vector<std::uint64_t>, kClients> streams_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Coll> coll_;
  std::uint64_t rounds_ = 0;
};

// ---------------------------------------------------------------------------
// vec_ingest: concurrent appends with a tail reader.

class VecIngest final : public Workload {
 public:
  static constexpr std::uint64_t kPushesPerProducer = std::uint64_t{1} << 18;
  static constexpr std::size_t kGrowthBlocks = 4;
  static constexpr std::uint64_t kSampleMask = 7;
  static constexpr std::size_t kTailWindow = 256;
  static constexpr std::uint64_t kTailChecks = 512;

  // The appended values are (producer, sequence) pairs, so this
  // workload's inputs do not depend on the seed.
  VecIngest() = default;

  void setup() override {
    cluster_ = make_cluster();
    vec_ = make_vec();
  }

  void teardown() override {
    vec_.reset();
    cluster_.reset();
  }

  /// Checks the previous round's vector in full, then starts from one
  /// block again so every round runs the same growth sequence.
  void prepare_round() override {
    if (vec_->size() == 0) return;
    lanes[0].failed += verify();
    retire_vec();
    vec_ = make_vec();
  }

  void round(bool record) override {
    std::atomic<std::uint64_t> progress{0};
    const std::uint64_t total = kClients * kPushesPerProducer;
    cluster_->coforall_tasks(1, [&](std::uint32_t l, std::uint32_t) {
      Lane& lane = lanes[l];
      if (l != 0) {
        timed_client(lane, [&] { producer(lane, l - 1, record, progress); });
        return;
      }
      for (std::uint64_t k = 1; k <= kTailChecks; ++k) {
        wait_progress(progress, total * k / kTailChecks,
                      [&] { sample_gauges(lane); });
        ++lane.other;
        guarded(lane, [&] {
          const std::size_t n = vec_->size();
          const std::size_t first = n > kTailWindow ? n - kTailWindow : 0;
          const std::vector<std::uint64_t> tail =
              vec_->read_range(first, n - first);
          lane.failed +=
              AppendTag::check_window(tail, kClients, kPushesPerProducer);
        });
      }
    });
  }

  std::uint64_t verify() override {
    if (vec_->size() == 0) return 0;  // replaced, not yet used
    const std::vector<std::uint64_t> all = vec_->read_range(0, vec_->size());
    return AppendTag::check_all(all, kClients, kPushesPerProducer);
  }

  void inject_mismatch() override {
    vec_->push_back(AppendTag::make(kClients + 1, 0));
  }

  std::vector<std::uint64_t> ladder_keys(std::size_t n) const override {
    // Producer 0's appends land on consecutive indices.
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = i;
    return keys;
  }

  Cluster& cluster() override { return *cluster_; }

  void add_counters(Counters& c) override {
    c.epoch_advances = retired_epoch_advances_;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      c.epoch_advances += vec_->backing().ebr_stats_at(l).epoch_advances;
    }
    c.core_resizes = retired_resizes_ + vec_->backing().resize_count();
    c.container_resizes = c.core_resizes;
  }

  std::uint64_t pending_bytes() override {
    return vec_->backing().reclaim_pending_bytes();
  }

 private:
  std::unique_ptr<Vec> make_vec() {
    Vec::Options o;
    o.block_size = kBlock;
    o.max_growth_blocks = kGrowthBlocks;
    return std::make_unique<Vec>(*cluster_, o);
  }

  void retire_vec() {
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      retired_epoch_advances_ += vec_->backing().ebr_stats_at(l).epoch_advances;
    }
    retired_resizes_ += vec_->backing().resize_count();
    vec_.reset();
  }

  void producer(Lane& lane, std::uint64_t p, bool record,
                std::atomic<std::uint64_t>& progress) {
    std::uint64_t seq = 0;
    try {
      for (; seq < kPushesPerProducer; ++seq) {
        // A push whose index is at or past the capacity seen before it
        // waited for (or performed) a growth: its latency is a grow
        // sample.
        const std::size_t cap = record ? vec_->capacity() : 0;
        const std::uint64_t t0 = record ? now_ns() : 0;
        const std::size_t idx = vec_->push_back(AppendTag::make(p, seq));
        if (record) {
          const bool timed = (seq & kSampleMask) == 0;
          const bool grew = idx >= cap;
          if (timed || grew) {
            const std::uint64_t d = now_ns() - t0;
            if (timed) lane.lat.record(d);
            if (grew) lane.grow.record(d);
          }
        }
        if (seq % kProgressStep == kProgressStep - 1) {
          progress.fetch_add(kProgressStep, std::memory_order_release);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: push_back failed: %s\n", e.what());
      ++lane.failed;
      progress.fetch_add(kPushesPerProducer - seq, std::memory_order_release);
    }
    lane.ops += seq;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Vec> vec_;
  std::uint64_t retired_epoch_advances_ = 0;
  std::uint64_t retired_resizes_ = 0;
};

// ---------------------------------------------------------------------------
// scan_qsbr: range scans through the comm layer under QSBR.

class ScanQsbr final : public Workload {
 public:
  using Arr = rcua::RCUArray<std::uint64_t, rcua::QsbrPolicy>;
  static constexpr std::size_t kElems = std::size_t{1} << 22;
  static constexpr std::size_t kScan = std::size_t{1} << 16;
  static constexpr std::uint64_t kScansPerAnalyst = 256;
  /// Per-locale BlockCache: 4 MiB, below the 24 MiB of remote blocks
  /// each locale's scans touch (3/4 of the 32 MiB array).
  static constexpr std::size_t kCacheBytes = std::size_t{4} << 20;
  static constexpr std::uint64_t kUpdateBatches = 256;
  static constexpr std::uint64_t kUpdatesPerBatch = 64;
  static constexpr std::size_t kGrowElems = kBlock;

  explicit ScanQsbr(std::uint64_t seed) {
    for (std::uint32_t a = 0; a < kClients; ++a) {
      rcua::plat::Xoshiro256 rng(rcua::plat::mix64(seed + a));
      starts_[a].resize(kScansPerAnalyst);
      for (auto& s : starts_[a]) s = rng.next_below(kElems - kScan + 1);
    }
    rcua::plat::Xoshiro256 rng(rcua::plat::mix64(~seed));
    updates_.resize(kUpdateBatches * kUpdatesPerBatch);
    for (auto& k : updates_) k = rng.next_below(kElems);
    for (auto& b : bufs_) b.resize(kScan);
  }

  void setup() override {
    cluster_ = make_cluster();
    Arr::Options o;
    o.block_size = kBlock;
    o.cache_capacity_bytes = kCacheBytes;
    arr_ = std::make_unique<Arr>(*cluster_, kElems, o);
    fill_tags(0, kElems,
              [&](std::size_t first, std::span<const std::uint64_t> v) {
                arr_->bulk_write(first, v);
              });
  }

  void teardown() override {
    rcua::reclaim::Qsbr::global().flush_unsafe();
    arr_.reset();
    cluster_.reset();
  }

  /// The launcher thread reads the array between rounds (verify, the
  /// ladder), so it is a QSBR participant: announce quiescence here or
  /// the spines retired by the updater's grows are never freed.
  void prepare_round() override { rcua::reclaim::Qsbr::global().checkpoint(); }

  void round(bool record) override {
    std::atomic<std::uint64_t> progress{0};
    const std::uint64_t total = kClients * kScansPerAnalyst;
    cluster_->coforall_tasks(1, [&](std::uint32_t l, std::uint32_t) {
      Lane& lane = lanes[l];
      if (l != 0) {
        timed_client(lane, [&] { analyst(lane, l - 1, record, progress); });
        return;
      }
      // Update batches spread evenly over the scans; a one-block grow at
      // every eighth of them.
      auto& qsbr = rcua::reclaim::Qsbr::global();
      for (std::uint64_t b = 0; b < kUpdateBatches; ++b) {
        wait_progress(progress, total * b / kUpdateBatches,
                      [&] { sample_gauges(lane); });
        guarded(lane, [&] {
          if (b != 0 && b % (kUpdateBatches / 8) == 0) {
            timed_grow(*arr_, kGrowElems, lane, record);
          }
          for (std::uint64_t j = 0; j < kUpdatesPerBatch; ++j) {
            const std::uint64_t key = updates_[b * kUpdatesPerBatch + j];
            arr_->write(key, KeyTag::make(key, rounds_ + j));
          }
        });
        lane.other += kUpdatesPerBatch;
        qsbr.checkpoint();
      }
      sample_gauges(lane);
    });
    ++rounds_;
  }

  std::uint64_t verify() override {
    return verify_tags(arr_->capacity(), [&](std::size_t first, std::size_t n,
                                             std::uint64_t* out) {
      arr_->bulk_read(first, n, out);
    });
  }

  void inject_mismatch() override { arr_->write(1, KeyTag::make(2, 0)); }

  std::vector<std::uint64_t> ladder_keys(std::size_t n) const override {
    return {updates_.begin(),
            updates_.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(n, updates_.size()))};
  }

  Cluster& cluster() override { return *cluster_; }

  void add_counters(Counters& c) override {
    // Under QSBR every deferral opens a new state epoch.
    c.epoch_advances = rcua::reclaim::Qsbr::global().stats().defers;
    c.core_resizes = arr_->resize_count();
  }

  std::uint64_t pending_bytes() override {
    return arr_->reclaim_pending_bytes();
  }

 private:
  void analyst(Lane& lane, std::uint32_t a, bool record,
               std::atomic<std::uint64_t>& progress) {
    auto& qsbr = rcua::reclaim::Qsbr::global();
    std::vector<std::uint64_t>& buf = bufs_[a];
    for (const std::uint64_t first : starts_[a]) {
      guarded(lane, [&] {
        // A scan runs for ~0.2 ms, long enough that host steal lands in
        // the tail of its wall time. bulk_read does not block (the comm
        // layer completes inline), so its latency is timed in thread
        // CPU time, which excludes the time the host took the CPU away.
        const std::uint64_t t0 = record ? rcua::plat::thread_cpu_ns() : 0;
        arr_->bulk_read(first, kScan, buf.data());
        if (record) lane.lat.record(rcua::plat::thread_cpu_ns() - t0);
        std::uint64_t sum = 0;
        for (const std::uint64_t v : buf) sum += v;
        lane.sink += sum;
        lane.failed += KeyTag::count_bad(first, buf);
      });
      ++lane.ops;
      qsbr.checkpoint();
      progress.fetch_add(1, std::memory_order_release);
    }
  }

  std::array<std::vector<std::uint64_t>, kClients> starts_;
  std::vector<std::uint64_t> updates_;
  std::array<std::vector<std::uint64_t>, kClients> bufs_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Arr> arr_;
  std::uint64_t rounds_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("# %-34s %.6g %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), finite_or_zero(m.value),
                m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Median of the grace periods recorded between two snapshots of the
/// library's log2-bucket histogram, interpolated inside its bucket.
double grace_p50_ns(const Counters& before, const Counters& after) {
  using rcua::obs::Histogram;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < after.grace.size(); ++b) {
    total += after.grace[b] - before.grace[b];
  }
  const std::uint64_t rank = (total + 1) / 2;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < after.grace.size(); ++b) {
    const std::uint64_t n = after.grace[b] - before.grace[b];
    if (n != 0 && seen + n >= rank) {
      const double lo = static_cast<double>(Histogram::bucket_lower_bound(b));
      const double hi = b == 0 ? 1.0 : 2.0 * std::max(lo, 1.0);
      return lo + (static_cast<double>(rank - seen) - 0.5) /
                      static_cast<double>(n) * (hi - lo);
    }
    seen += n;
  }
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_mismatch = false;
  std::string trace_out;
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "svc_zipf") return std::make_unique<SvcZipf>(a.seed);
  if (a.workload == "vec_ingest") return std::make_unique<VecIngest>();
  if (a.workload == "scan_qsbr") return std::make_unique<ScanQsbr>(a.seed);
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One round after its untimed preparation; returns the sum over the
/// clients of their ops per second of their own wall time.
double timed_round(Workload& w, bool record) {
  w.prepare_round();
  w.round(record);
  double rate = 0;
  for (std::size_t l = 1; l <= kClients; ++l) {
    const Lane& lane = w.lanes[l];
    rate += static_cast<double>(lane.round_ops) * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(lane.round_ns, 1));
  }
  return rate;
}

// ---------------------------------------------------------------------------
// The ladder: each rung replays a batch of the workload's own keys one
// layer higher than the rung below, inside one "ladder.<rung>" span
// whose payload is the batch size. The library's per-call trace events
// are switched off inside a rung, so a rung times the untraced call path
// and the trace cost is one span per batch.

constexpr std::size_t kLadderKeys = std::size_t{1} << 20;
constexpr std::size_t kLadderShards = 8;
constexpr std::size_t kLadderBatch = std::size_t{1} << 14;
constexpr int kLadderReps = 9;
constexpr int kMigrateReps = 3;
constexpr std::uint64_t kCoforallBatch = 64;

template <typename F>
void rung(const char* name, std::uint64_t calls, F&& body) {
  rcua::obs::TraceSpan span(name, "bench", calls);
  rcua::obs::set_trace_enabled(false);
  body();
  rcua::obs::set_trace_enabled(true);
}

struct LadderResult {
  LogLinearHistogram migrate_window;  ///< fixture reads during migrate()
  std::uint64_t vector_resizes = 0;   ///< growths of the fixture vectors
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t sink = 0;  ///< keeps the rungs' results live
};

LadderResult run_ladder(Cluster& cl, const std::vector<std::uint64_t>& keys) {
  LadderResult res;
  Coll::Options o;
  o.block_size = kBlock;
  o.shard_count = kLadderShards;
  o.cache_capacity_bytes = 0;
  Coll fx(cl, kLadderKeys, o);
  fill_tags(0, kLadderKeys,
            [&](std::size_t first, std::span<const std::uint64_t> v) {
              fx.bulk_write(first, v);
            });
  rcua::RCUArray<std::uint64_t, rcua::EbrPolicy> grow_fx(
      cl, kBlock, {.block_size = kBlock});
  rcua::reclaim::Ebr ebr;
  rcua::reclaim::Qsbr qsbr;
  std::vector<std::uint64_t> buf(kLadderBatch);

  // Route arithmetic of the block-cyclic layout (ShardedCollection).
  struct Slot {
    std::uint64_t key;
    std::size_t shard;
    std::size_t local;
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < kLadderBatch; ++i) {
    const std::uint64_t k = keys[i % keys.size()] % kLadderKeys;
    const std::size_t g = k / kBlock;
    slots.push_back(Slot{k, g % kLadderShards,
                         (g / kLadderShards) * kBlock + k % kBlock});
  }
  const std::uint64_t n = slots.size();
  std::uint64_t bad = 0;
  std::uint64_t sink = 0;

  rcua::obs::set_trace_enabled(true);
  for (int rep = 0; rep < kLadderReps; ++rep) {
    rung("ladder.platform.stripe_index", n, [&] {
      for (std::uint64_t i = 0; i < n; ++i) {
        sink += rcua::plat::stripe_index(ebr.stripe_count());
      }
    });
    rung("ladder.reclaim.ebr_section", n, [&] {
      for (const Slot& s : slots) sink += ebr.read([&] { return s.key; });
    });
    rung("ladder.reclaim.qsbr_checkpoint", n, [&] {
      for (std::uint64_t i = 0; i < n; ++i) sink += qsbr.checkpoint();
    });
    {
      std::vector<std::unique_ptr<Coll::Backend::View>> views;
      for (std::size_t s = 0; s < kLadderShards; ++s) {
        views.push_back(std::make_unique<Coll::Backend::View>(fx.shard(s)));
      }
      rung("ladder.core.view_read", n, [&] {
        for (const Slot& s : slots) {
          bad += KeyTag::ok(s.key, (*views[s.shard])[s.local]) ? 0 : 1;
        }
      });
    }
    rung("ladder.core.read", n, [&] {
      for (const Slot& s : slots) {
        bad += KeyTag::ok(s.key, fx.shard(s.shard).read(s.local)) ? 0 : 1;
      }
    });
    rung("ladder.service.read", n, [&] {
      for (const Slot& s : slots) {
        bad += KeyTag::ok(s.key, fx.read(s.key)) ? 0 : 1;
      }
    });
    rung("ladder.core.write", n, [&] {
      for (const Slot& s : slots) {
        fx.shard(s.shard).write(s.local, KeyTag::make(s.key, rep));
      }
    });
    rung("ladder.service.write", n, [&] {
      for (const Slot& s : slots) fx.write(s.key, KeyTag::make(s.key, rep));
    });
    {
      Vec vec(cl, {.block_size = kBlock});
      rung("ladder.containers.push_back", n, [&] {
        for (std::uint64_t i = 0; i < n; ++i) {
          vec.push_back(AppendTag::make(0, i));
        }
      });
      rung("ladder.containers.core_write", n, [&] {
        for (std::uint64_t i = 0; i < n; ++i) {
          vec.backing().write(i, AppendTag::make(0, i));
        }
      });
      std::vector<std::uint64_t> all;
      rung("ladder.containers.read_range", n,
           [&] { all = vec.read_range(0, n); });
      bad += AppendTag::check_all(all, 1, n);
      res.vector_resizes += vec.backing().resize_count();
    }
    rung("ladder.core.bulk_read", n,
         [&] { fx.shard(0).bulk_read(0, n, buf.data()); });
    for (std::size_t j = 0; j < n; ++j) {
      // Shard 0's local block b is global block b * kLadderShards.
      const std::size_t key =
          (j / kBlock) * kLadderShards * kBlock + j % kBlock;
      bad += KeyTag::ok(key, buf[j]) ? 0 : 1;
    }
    rung("ladder.runtime.coforall_locales", kCoforallBatch, [&] {
      for (std::uint64_t i = 0; i < kCoforallBatch; ++i) {
        cl.coforall_locales([](std::uint32_t) {});
      }
    });
    // Structural rungs keep tracing on: their internal spans
    // (rcua.resize_add and its fan-out) nest under the rung.
    {
      rcua::obs::TraceSpan span("ladder.core.resize_add", "bench", 1);
      grow_fx.resize_add(kBlock);
    }
    {
      rcua::obs::TraceSpan span("ladder.service.resize_add", "bench", 1);
      fx.resize_add(kLadderShards * kBlock);
    }
    // Nine checked batches of n ops, and the two resizes.
    res.attempted += 9 * n + 2;
  }

  // migrate() with three concurrent readers of the fixture; only reads
  // that start while the migration runs enter the window histogram.
  // The readers run untraced; only the migrate span itself is armed.
  rcua::obs::set_trace_enabled(false);
  for (int rep = 0; rep < kMigrateReps; ++rep) {
    std::atomic<int> phase{0};  // 0 readers starting, 1 migrating, 2 done
    std::atomic<std::uint32_t> ready{0};
    std::array<LogLinearHistogram, kLocales> window;
    std::array<std::uint64_t, kLocales> reads{};
    std::array<std::uint64_t, kLocales> bad_reads{};
    cl.coforall_tasks(1, [&](std::uint32_t l, std::uint32_t) {
      if (l == 0) {
        while (ready.load(std::memory_order_acquire) < kClients) {
          std::this_thread::yield();
        }
        const std::size_t s = static_cast<std::size_t>(rep) % kLadderShards;
        const std::uint32_t dst = (fx.home_of(s) + 1) % kLocales;
        phase.store(1, std::memory_order_release);
        bool ok = false;
        rcua::obs::set_trace_enabled(true);
        rung("ladder.service.migrate", 1, [&] { ok = fx.migrate(s, dst); });
        rcua::obs::set_trace_enabled(false);
        if (!ok) ++bad_reads[0];
        phase.store(2, std::memory_order_release);
        return;
      }
      ready.fetch_add(1, std::memory_order_release);
      for (std::size_t i = l;; i += kClients) {
        const int p = phase.load(std::memory_order_acquire);
        if (p == 2) break;
        const Slot& s = slots[i % slots.size()];
        const std::uint64_t t0 = now_ns();
        const std::uint64_t v = fx.read(s.key);
        const std::uint64_t d = now_ns() - t0;
        if (p == 1) window[l].record(d);
        bad_reads[l] += KeyTag::ok(s.key, v) ? 0 : 1;
        ++reads[l];
      }
    });
    for (std::size_t l = 0; l < kLocales; ++l) {
      res.migrate_window.merge(window[l]);
      res.attempted += reads[l];
      bad += bad_reads[l];
    }
    res.attempted += 1;
  }
  rcua::obs::set_trace_enabled(false);
  res.failed = bad;
  res.sink = sink;
  return res;
}

/// Prints each span name's count, total and self time.
void print_span_summary(const std::vector<SpanRecord>& spans) {
  struct Agg {
    std::uint64_t count = 0, total = 0, self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& s : spans) {
    Agg& a = by_name[s.name];
    ++a.count;
    a.total += s.dur_ns;
    a.self += s.self_ns();
  }
  std::printf("# %-34s %10s %14s %14s\n", "span", "count", "total_us",
              "self_us");
  for (const auto& [name, a] : by_name) {
    std::printf("# %-34s %10llu %14.1f %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(a.count),
                static_cast<double>(a.total) / 1e3,
                static_cast<double>(a.self) / 1e3);
  }
}

// ---------------------------------------------------------------------------

/// The --trace 0 run: the end-to-end metrics.
Metrics end_to_end(Workload& w, const Args& a,
                   const std::vector<double>& setups) {
  const auto budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
  Metrics m;
  // The workload once in virtual time, right after the warm-up so the
  // shard placement it starts from is the same in every run: the
  // modelled 4-locale cluster's makespan, the paper's metric.
  w.prepare_round();
  const Counters before_vt = w.counters();
  rcua::sim::TaskClock root;
  {
    rcua::sim::ClockScope scope(root);
    w.round(false);
  }
  const double vt_ops = static_cast<double>(w.counters().client_ops -
                                            before_vt.client_ops);

  std::vector<double> rates;
  const std::uint64_t start = now_ns();
  do {
    rates.push_back(timed_round(w, true));
  } while (now_ns() - start < budget_ns);

  LogLinearHistogram lat;
  LogLinearHistogram grow;
  for (const Lane& lane : w.lanes) {
    lat.merge(lane.lat);
    grow.merge(lane.grow);
  }
  std::printf("# workload %s seed %llu: %zu rounds, %llu latency samples, "
              "%llu grow samples\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              rates.size(), static_cast<unsigned long long>(lat.count()),
              static_cast<unsigned long long>(grow.count()));
  m["ops_per_s"] = {median(rates), "1/s"};
  m["op_p50_ns"] = {lat.percentile(0.50), "ns"};
  m["op_p99_ns"] = {lat.percentile(0.99), "ns"};
  m["grow_p50_us"] = {grow.percentile(0.50) / 1e3, "us"};
  m["vt_ops_per_s"] = {
      vt_ops * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                         root.vtime_ns, 1)),
      "1/s"};
  m["setup_s"] = {median(setups), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  return m;
}

/// The --trace 1 run: the per-layer metrics. Returns the ladder's own
/// ops and failures through `lr`.
Metrics per_layer(Workload& w, const Args& a, LadderResult& lr) {
  const auto budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
  Metrics m;
  // Untraced and traced rounds alternate; the rate difference is the
  // tracing overhead. Counters cover both kinds of round.
  w.prepare_round();
  const Counters before = w.counters();
  std::vector<double> untraced;
  std::vector<double> traced;
  const std::uint64_t start = now_ns();
  do {
    untraced.push_back(timed_round(w, false));
    rcua::obs::set_trace_enabled(true);
    traced.push_back(timed_round(w, false));
    rcua::obs::set_trace_enabled(false);
  } while (now_ns() - start < budget_ns / 2);
  w.prepare_round();
  const Counters after = w.counters();

  {
    rcua::rt::LocaleScope scope(w.cluster(), 0);
    lr = run_ladder(w.cluster(), w.ladder_keys(kLadderBatch));
  }
  const Counters after_ladder = w.counters();

  const std::vector<rcua::obs::TraceEvent> events =
      rcua::obs::trace_snapshot();
  const std::vector<SpanRecord> spans = pair_spans(events);
  const std::map<std::string, double> r = rung_ns_per_call(spans, "ladder.");
  print_span_summary(spans);
  std::printf("# trace: %zu events held, %llu dropped (ring %zu/thread)\n",
              events.size(),
              static_cast<unsigned long long>(rcua::obs::trace_dropped()),
              rcua::obs::trace_capacity());
  if (!a.trace_out.empty() && !rcua::obs::trace_write_json(a.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 a.trace_out.c_str());
  }

  const auto rung_of = [&](const char* name) {
    const auto it = r.find(name);
    return it == r.end() ? 0.0 : it->second;
  };
  const std::uint64_t ops = after.client_ops - before.client_ops;
  // Routing counters come from the workload when it routes, else from
  // the ladder's fixture collection.
  const bool workload_routes = after.routed != before.routed;
  const Counters& rb = workload_routes ? before : after;
  const Counters& ra = workload_routes ? after : after_ladder;

  m["platform.stripe_index_ns"] = {rung_of("platform.stripe_index"), "ns"};
  m["reclaim.ebr_section_ns"] = {rung_of("reclaim.ebr_section"), "ns"};
  m["reclaim.qsbr_checkpoint_ns"] = {rung_of("reclaim.qsbr_checkpoint"),
                                     "ns"};
  m["reclaim.grace_p50_ns"] = {grace_p50_ns(before, after_ladder), "ns"};
  m["reclaim.pending_bytes_peak"] = {
      static_cast<double>(w.lanes[0].pending_bytes_peak), "bytes"};
  m["reclaim.epoch_advances"] = {
      static_cast<double>(after.epoch_advances - before.epoch_advances),
      "count"};
  m["core.view_read_ns"] = {rung_of("core.view_read"), "ns"};
  m["core.read_ns"] = {rung_of("core.read"), "ns"};
  m["core.write_ns"] = {rung_of("core.write"), "ns"};
  m["core.section_self_ns"] = {
      layer_self_ns(r, "core.read", "core.view_read"), "ns"};
  m["core.resize_add_us"] = {rung_of("core.resize_add") / 1e3, "us"};
  m["core.bulk_read_ns_per_elem"] = {rung_of("core.bulk_read"), "ns"};
  m["core.resizes"] = {
      static_cast<double>(after.core_resizes - before.core_resizes),
      "count"};
  m["service.read_ns"] = {rung_of("service.read"), "ns"};
  m["service.write_ns"] = {rung_of("service.write"), "ns"};
  m["service.route_self_ns"] = {
      layer_self_ns(r, "service.read", "core.read"), "ns"};
  m["service.routed_remote_ratio"] = {
      ratio(ra.routed_remote - rb.routed_remote, ra.routed - rb.routed),
      "ratio"};
  m["service.resize_add_us"] = {rung_of("service.resize_add") / 1e3, "us"};
  m["service.migrate_ms"] = {rung_of("service.migrate") / 1e6, "ms"};
  m["service.migrate_window_p99_ns"] = {lr.migrate_window.percentile(0.99),
                                        "ns"};
  m["containers.publish_self_ns"] = {
      layer_self_ns(r, "containers.push_back", "containers.core_write"),
      "ns"};
  m["containers.read_range_ns_per_elem"] = {
      rung_of("containers.read_range"), "ns"};
  m["containers.resizes"] = {
      static_cast<double>(after.container_resizes -
                          before.container_resizes + lr.vector_resizes),
      "count"};
  m["runtime.coforall_locales_us"] = {
      rung_of("runtime.coforall_locales") / 1e3, "us"};
  m["runtime.gets_per_op"] = {ratio(after.gets - before.gets, ops), "count"};
  m["runtime.puts_per_op"] = {ratio(after.puts - before.puts, ops), "count"};
  m["runtime.executes_per_op"] = {
      ratio(after.executes - before.executes, ops), "count"};
  m["runtime.cache_hit_ratio"] = {
      ratio(after.cache_hits - before.cache_hits,
            (after.cache_hits - before.cache_hits) +
                (after.cache_misses - before.cache_misses)),
      "ratio"};
  m["runtime.overflow_tasks"] = {
      static_cast<double>(after.overflow_tasks - before.overflow_tasks),
      "count"};
  m["runtime.bytes_live_peak"] = {
      static_cast<double>(w.lanes[0].bytes_live_peak), "bytes"};
  m["obs.trace_overhead_pct"] = {
      (median(untraced) / median(traced) - 1.0) * 100.0, "%"};
  std::printf("# %zu untraced + %zu traced rounds, %llu client ops, "
              "%llu migrate-window samples\n",
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(lr.migrate_window.count()));
  return m;
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r != 0) w->teardown();
    const std::uint64_t t0 = now_ns();
    w->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Warm-up: touch every block (and check the fill), then one untimed
  // round.
  std::uint64_t failed = w->verify();
  w->prepare_round();
  w->round(false);

  LadderResult lr;
  Metrics m = a.trace ? per_layer(*w, a, lr) : end_to_end(*w, a, setups);
  failed += lr.failed;
  if (a.inject_mismatch) w->inject_mismatch();
  failed += w->verify();
  std::uint64_t attempted = lr.attempted;
  for (const Lane& lane : w->lanes) {
    attempted += lane.ops + lane.other;
    failed += lane.failed;
  }
  std::printf("# error_rate %.6g (%llu failed / %llu attempted)\n",
              ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  print_result(failed == 0, attempted, failed, m);
  w->teardown();
  return failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--inject-mismatch") {
      a.inject_mismatch = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (flag == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep freed heap memory in the process, so set-ups and grows reuse
  // pages that are already mapped. How long a page fault takes on a
  // shared virtual machine varies with the host, and would otherwise
  // move setup_s by half between sets of runs.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  perfbench::Args args;
  try {
    if (!perfbench::parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload svc_zipf|vec_ingest|scan_qsbr "
                   "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
                   "[--inject-mismatch]\n");
      return 2;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
