#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace rcua::svc {

/// The elastic sharded-service layer (DESIGN.md §14): key ranges map
/// onto RCUArray-backed shards by pure arithmetic. A ShardedCollection
/// is a drop-in backend for the containers (same constructor shape and
/// method subset as RCUArray), so DistVector / DistHashMap /
/// DistIdTable become shard clients by swapping one template argument.
///
/// Layout: global block g lives in shard `g % shard_count` at local
/// block `g / shard_count` (block-cyclic), so growth lands one block per
/// shard per stride and every shard stays within one block of balanced.
/// Each shard is an RCUArray pinned to a single home locale
/// (Options::home_locale), which is what makes live migration a
/// wholesale move: `migrate(shard, dst)` copies the shard's blocks to
/// `dst` through the §10 async comm path (RCUArray::rehome), which also
/// updates the shard's home. There is no mapping table: the shard a key
/// lives in never changes, and the shard's own spine is what resolves
/// its blocks from any locale, so an element op enters exactly one
/// read-side section — the shard's. The home locale is consulted only
/// for the `routed_remote` metric and home_of().
///
/// Ordering rule (§14): migrate -> invalidate -> drain, all owned by
/// rehome(). The migration lock serializes migrations against
/// structural growth (resize_add), which is the serialization the
/// rehome copy phase's concurrency contract requires.
template <typename T, typename Policy = QsbrPolicy>
class ShardedCollection {
 public:
  struct Options {
    /// First two members mirror RCUArray::Options so the containers'
    /// braced `{options.block_size, options.qsbr}` construction works
    /// unchanged against either backend.
    std::size_t block_size = 1024;
    reclaim::Qsbr* qsbr = nullptr;
    /// Number of shards; 0 defers to RCUA_SHARD_COUNT (itself defaulting
    /// to the cluster's locale count — one shard per locale).
    std::size_t shard_count = 0;
    /// Forwarded to every shard's RCUArray (see RCUArray::Options).
    std::size_t cache_capacity_bytes =
        RCUArray<T, Policy>::Options::kCacheCapacityFromEnv;
  };

  using Backend = RCUArray<T, Policy>;
  using BulkOptions = typename Backend::BulkOptions;

  static constexpr bool uses_qsbr = Backend::uses_qsbr;

  ShardedCollection(rt::Cluster& cluster, std::size_t initial_capacity = 0,
                    Options options = {})
      : cluster_(cluster),
        block_size_(options.block_size),
        shard_count_(resolve_shard_count(options.shard_count, cluster)),
        routed_(cluster.comm().registry().counter("rcua.service.routed",
                                                  cluster.num_locales())),
        routed_remote_(cluster.comm().registry().counter(
            "rcua.service.routed_remote", cluster.num_locales())),
        migrations_(
            cluster.comm().registry().counter("rcua.service.migrations")),
        migration_rollbacks_(cluster.comm().registry().counter(
            "rcua.service.migration_rollbacks")),
        migrated_blocks_(cluster.comm().registry().counter(
            "rcua.service.migrated_blocks")),
        migrated_bytes_(cluster.comm().registry().counter(
            "rcua.service.migrated_bytes")) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (shard_count_ == 0) throw std::invalid_argument("shard_count == 0");
    shards_.reserve(shard_count_);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      typename Backend::Options shard_opts;
      shard_opts.block_size = block_size_;
      shard_opts.qsbr = options.qsbr;
      shard_opts.cache_capacity_bytes = options.cache_capacity_bytes;
      // Initial placement: shard s homed on locale s % num_locales — the
      // balanced block-cyclic start the PressureMonitor perturbs from.
      shard_opts.home_locale =
          static_cast<std::uint32_t>(s % cluster.num_locales());
      shards_.push_back(std::make_unique<Backend>(cluster, /*capacity=*/0,
                                                  shard_opts));
    }
    if (initial_capacity > 0) resize_add(initial_capacity);
  }

  ShardedCollection(const ShardedCollection&) = delete;
  ShardedCollection& operator=(const ShardedCollection&) = delete;

  // -- Element access (arithmetic route + one shard op) -----------------

  T& index(std::size_t i) {
    const Route r = route(i);
    return shards_[r.shard]->index(r.local);
  }
  T& operator[](std::size_t i) { return index(i); }

  T& at(std::size_t i) {
    if (i >= capacity()) {
      throw std::out_of_range("ShardedCollection::at: index " +
                              std::to_string(i) + " >= capacity " +
                              std::to_string(capacity()));
    }
    return index(i);
  }

  T read(std::size_t i) {
    const Route r = route(i);
    return shards_[r.shard]->read(r.local);
  }

  void write(std::size_t i, T value) {
    const Route r = route(i);
    shards_[r.shard]->write(r.local, std::move(value));
  }

  // -- Bulk operations ---------------------------------------------------

  /// Per-global-block fan-out to the owning shards' aggregated bulk
  /// paths. Within one shard, consecutive global blocks are consecutive
  /// local blocks, so each shard-level call covers the longest contiguous
  /// same-shard stretch of the range (the whole range when
  /// shard_count == 1).
  void bulk_read(std::size_t first, std::size_t count, T* out,
                 BulkOptions opts = {}) {
    for_each_span(first, count, [&](std::size_t shard, std::size_t local,
                                    std::size_t global, std::size_t len) {
      shards_[shard]->bulk_read(local, len, out + (global - first), opts);
    });
  }

  [[nodiscard]] std::vector<T> bulk_read(std::size_t first, std::size_t count,
                                         BulkOptions opts = {}) {
    std::vector<T> out(count);
    bulk_read(first, count, out.data(), opts);
    return out;
  }

  void bulk_write(std::size_t first, std::span<const T> values,
                  BulkOptions opts = {}) {
    for_each_span(
        first, values.size(),
        [&](std::size_t shard, std::size_t local, std::size_t global,
            std::size_t len) {
          shards_[shard]->bulk_write(local,
                                     values.subspan(global - first, len),
                                     opts);
        });
  }

  // -- Growth ------------------------------------------------------------

  /// Grows total capacity by ceil(num_elements / block_size) blocks,
  /// dealt block-cyclically across the shards. Serialized with
  /// migrations by the migration lock (each shard's resize_add
  /// additionally takes the cluster WriteLock, like any RCUArray resize).
  void resize_add(std::size_t num_elements) {
    const std::size_t nblocks =
        (num_elements + block_size_ - 1) / block_size_;
    if (nblocks == 0) return;
    std::lock_guard<std::mutex> guard(migrate_mu_);
    add_blocks(nblocks);
  }

  /// Grows until capacity() >= `needed`, with RCUArray::reserve's step
  /// rule: max(1, min(num_blocks(), max_step_blocks)) blocks per step,
  /// serialized by the migration lock.
  void reserve(std::size_t needed, std::size_t max_step_blocks = SIZE_MAX) {
    if (capacity() >= needed) return;
    std::lock_guard<std::mutex> guard(migrate_mu_);
    while (capacity() < needed) {
      add_blocks(
          std::max<std::size_t>(1, std::min(num_blocks(), max_step_blocks)));
    }
  }

  // -- Live migration ----------------------------------------------------

  /// Moves shard `shard` to locale `dst`: block copy, spine swap and
  /// home update via RCUArray::rehome (which owns copy-before-publish,
  /// the BlockCache invalidation interlock, and the reader drain).
  /// Returns false when a FaultPlan kKillLocale fault rolled the copy
  /// back — the old blocks and home stay live and no element was lost or
  /// duplicated.
  bool migrate(std::size_t shard, std::uint32_t dst) {
    if (shard >= shard_count_) {
      throw std::invalid_argument("migrate: shard out of range");
    }
    obs::TraceSpan span("svc.migrate", "service", dst);
    std::lock_guard<std::mutex> guard(migrate_mu_);
    Backend& b = *shards_[shard];
    const std::size_t blocks = b.num_blocks();
    if (!b.rehome(dst)) {
      migration_rollbacks_.add();
      return false;
    }
    migrations_.add();
    migrated_blocks_.add(blocks);
    migrated_bytes_.add(blocks * block_size_ * sizeof(T));
    return true;
  }

  // -- Introspection -----------------------------------------------------

  [[nodiscard]] std::size_t capacity() const {
    return total_blocks_.load(std::memory_order_acquire) * block_size_;
  }
  [[nodiscard]] std::size_t num_blocks() const {
    return total_blocks_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  /// Sum of the shards' resize counts (the DistHashMap growths() feed).
  [[nodiscard]] std::uint64_t resize_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->resize_count();
    return n;
  }
  /// The underlying shard (tests, PressureMonitor).
  [[nodiscard]] Backend& shard(std::size_t s) { return *shards_[s]; }
  /// Shard `s`'s current home locale (the shard's own, updated by a
  /// completed migrate()).
  [[nodiscard]] std::uint32_t home_of(std::size_t s) const {
    return shards_[s]->home_locale();
  }
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_.value();
  }
  [[nodiscard]] std::uint64_t migration_rollbacks() const noexcept {
    return migration_rollbacks_.value();
  }
  [[nodiscard]] std::uint64_t migrated_blocks() const noexcept {
    return migrated_blocks_.value();
  }
  [[nodiscard]] std::uint64_t routed() const noexcept {
    return routed_.value();
  }
  [[nodiscard]] std::uint64_t routed_remote() const noexcept {
    return routed_remote_.value();
  }
  [[nodiscard]] rt::Cluster& cluster() noexcept { return cluster_; }

 private:
  struct Route {
    std::size_t shard;
    std::size_t local;
  };

  /// Deals `nblocks` new global blocks to their shards and publishes
  /// the new total. Caller holds the migration lock.
  void add_blocks(std::size_t nblocks) {
    const std::size_t base = total_blocks_.load(std::memory_order_relaxed);
    std::vector<std::size_t> grow(shard_count_, 0);
    for (std::size_t k = 0; k < nblocks; ++k) {
      grow[(base + k) % shard_count_] += 1;
    }
    for (std::size_t s = 0; s < shard_count_; ++s) {
      if (grow[s] != 0) shards_[s]->resize_add(grow[s] * block_size_);
    }
    // Release pairs with capacity()'s acquire: a capacity the caller
    // observes is backed by fully published shard resizes.
    total_blocks_.store(base + nblocks, std::memory_order_release);
  }

  static std::size_t resolve_shard_count(std::size_t opt,
                                         rt::Cluster& cluster) {
    if (opt != 0) return opt;
    return static_cast<std::size_t>(
        util::env_u64("RCUA_SHARD_COUNT", cluster.num_locales()));
  }

  /// Block-cyclic routing + the routing metrics: one routed count per
  /// element op, routed_remote when the shard's home is not the calling
  /// locale. Pure arithmetic plus one relaxed load of the home: no
  /// read-side section of its own.
  Route route(std::size_t i) {
    const std::size_t g = i / block_size_;
    const std::size_t shard = g % shard_count_;
    const std::size_t local =
        (g / shard_count_) * block_size_ + (i % block_size_);
    const std::uint32_t here = cluster_.here();
    routed_.add_at(here);
    if (shards_[shard]->home_locale() != here) routed_remote_.add_at(here);
    return Route{shard, local};
  }

  /// Decomposes [first, first+count) into maximal spans that stay inside
  /// one shard's contiguous local range; calls
  /// fn(shard, local_first, global_first, len) per span.
  template <typename F>
  void for_each_span(std::size_t first, std::size_t count, F&& fn) {
    if (count == 0) return;
    if (first + count < first || first + count > capacity()) {
      throw std::out_of_range("ShardedCollection: bulk range beyond capacity");
    }
    std::size_t i = first;
    const std::size_t end = first + count;
    while (i < end) {
      const std::size_t g = i / block_size_;
      const std::size_t shard = g % shard_count_;
      std::size_t span_end = std::min(end, (g + 1) * block_size_);
      if (shard_count_ == 1) span_end = end;
      const std::size_t local =
          (g / shard_count_) * block_size_ + (i % block_size_);
      fn(shard, local, i, span_end - i);
      i = span_end;
    }
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  std::size_t shard_count_;
  std::vector<std::unique_ptr<Backend>> shards_;
  std::atomic<std::size_t> total_blocks_{0};
  /// Serializes migrations and collection-level growth.
  std::mutex migrate_mu_;
  obs::Counter& routed_;
  obs::Counter& routed_remote_;
  obs::Counter& migrations_;
  obs::Counter& migration_rollbacks_;
  obs::Counter& migrated_blocks_;
  obs::Counter& migrated_bytes_;
};

}  // namespace rcua::svc
