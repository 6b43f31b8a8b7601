#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/atomics.hpp"
#include "platform/backoff.hpp"
#include "reclaim/domain.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/global_lock.hpp"
#include "runtime/this_task.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua {

/// Compile-time reclamation policy — the paper's `isQSBR` parameter,
/// generalized: a policy names the per-locale reclamation domain
/// (reclaim/domain.hpp) that RCUArray and ShardedCollection reclaim
/// through, and nothing else.
struct EbrPolicy {
  static constexpr const char* name = "EBR";
  using Domain = reclaim::EbrDomain<reclaim::Ebr>;
};
/// EBR with the paper's original collective EpochReaders[2] layout
/// (all-seq_cst, one pair per locale) — the ablation baseline.
struct LegacyEbrPolicy {
  static constexpr const char* name = "EBR-legacy";
  using Domain = reclaim::EbrDomain<reclaim::LegacyEbr>;
};
struct QsbrPolicy {
  static constexpr const char* name = "QSBR";
  using Domain = reclaim::QsbrDomain;
};
/// Interval-based reclamation: readers publish [entry era, current era]
/// reservations, spines carry [birth, retire] era tags, and retirement
/// scans the live reservations instead of waiting for them — unreclaimed
/// memory stays bounded under a stalled reader by construction
/// (DESIGN.md §13; the reclamation tier Brown's EBR critique calls for).
struct IbrPolicy {
  static constexpr const char* name = "IBR";
  using Domain = reclaim::EraDomain<reclaim::Ibr>;
};
/// Hazard eras: single-era reservations republished on every protect —
/// the hazard-pointer-like point of the era spectrum, same bounded-
/// memory guarantee and retire/scan machinery as IBR.
struct HazardErasPolicy {
  static constexpr const char* name = "HE";
  using Domain = reclaim::EraDomain<reclaim::HazardEras>;
};

/// RCUArray: a parallel-safe distributed resizable array (the paper's
/// primary contribution). Reads and updates proceed concurrently with a
/// resize via Read-Copy-Update over immutable snapshots of the block
/// table; blocks are distributed round-robin across the cluster's
/// locales, and the metadata (snapshot pointer, epoch state,
/// NextLocaleId) is privatized per locale so the access path is entirely
/// node-local.
///
/// Key relaxations inherited from the paper:
///  * `index()` returns a *reference* so updates cost the same as reads
///    (§III-C). The reference stays valid across resizes because snapshot
///    clones recycle blocks (Lemma 6) — only the spine is ever reclaimed.
///  * Resizing only expands, in whole blocks (§IV-B fn.12).
///
/// Thread-safety contract:
///  * index/read/write: parallel-safe, including concurrently with resize.
///  * resize_add/reserve: parallel-safe against everything (serialized by
///    the cluster-wide WriteLock).
///  * capacity(): every index below it is present in EVERY locale's
///    snapshot. The count advances only after a grow has swapped in its
///    snapshot on all locales (DESIGN.md §14), so an index another task
///    observed as grown is usable from any locale without waiting.
///  * QSBR policy: callers must invoke `reclaim::Qsbr::checkpoint()`
///    periodically (or rely on pool workers parking) and must not hold a
///    reference obtained *from a dropped spine's blocks*— note blocks are
///    recycled so element references are fine; the QSBR discipline only
///    gates the spine.
///  * destruction: requires external quiescence (no in-flight ops).
template <typename T, typename Policy = QsbrPolicy>
class RCUArray {
 public:
  struct Options {
    std::size_t block_size = 1024;
    /// QSBR domain; defaults to the process-wide one. Ignored under EBR.
    reclaim::Qsbr* qsbr = nullptr;
    /// Deadline (ns) for the EBR spine drain in resize. The default is
    /// RCUA_STALL_DEADLINE_NS, itself defaulting to 0 = block, the
    /// paper's behaviour. With a deadline, a resize whose readers stall
    /// defers the old spine onto a per-locale overflow retire list
    /// instead of blocking.
    std::uint64_t stall_deadline_ns = reclaim::stall_deadline_from_env();
    /// Watchdog receiving stall diagnostics and bounding overflow bytes
    /// (nullptr = the process-wide StallMonitor::global()).
    reclaim::StallMonitor* stall_monitor = nullptr;
    /// Resize publish attempts that consult the fault plan; past this
    /// many injected broadcast drops the plan is ignored, so resize_add
    /// terminates under any plan.
    std::uint32_t max_publish_attempts = 64;
    /// Sentinel for cache_capacity_bytes: defer to the environment.
    static constexpr std::size_t kCacheCapacityFromEnv =
        static_cast<std::size_t>(-1);
    /// Per-locale remote-block cache capacity in BYTES (rt::BlockCache).
    /// 0 disables the cache entirely — every access takes exactly the
    /// uncached path, bit-identical charges and comm counters. The
    /// default defers to RCUA_CACHE_CAPACITY_BYTES (itself defaulting
    /// to 0 = off). Ignored unless T is trivially copyable (`cacheable`).
    /// See DESIGN.md §11.
    std::size_t cache_capacity_bytes = kCacheCapacityFromEnv;
    /// Sentinel for home_locale: distribute blocks round-robin.
    static constexpr std::uint32_t kNoHomeLocale = UINT32_MAX;
    /// Pin every block allocation to ONE locale instead of round-robin —
    /// the shard-placement mode (DESIGN.md §14): a ShardedCollection
    /// shard is an RCUArray homed on one locale, so live migration
    /// (rehome) can move it wholesale. The default keeps the paper's
    /// round-robin distribution.
    std::uint32_t home_locale = kNoHomeLocale;
  };

  using Domain = typename Policy::Domain;
  /// A read-side section of the domain with the spine it pinned.
  using SpinePin = typename Domain::template Pin<Snapshot<T>>;
  static constexpr bool uses_qsbr = std::is_same_v<Domain, reclaim::QsbrDomain>;
  static constexpr bool uses_interval = reclaim::kIsEraDomain<Domain>;
  /// Only trivially copyable elements are cached: a cache entry is raw
  /// bytes, filled and served by plain copies and freed without running
  /// a destructor (DESIGN.md §11). Any other T always runs uncached.
  static constexpr bool cacheable = std::is_trivially_copyable_v<T>;

  RCUArray(rt::Cluster& cluster, std::size_t initial_capacity = 0,
           Options options = {})
      : cluster_(cluster),
        block_size_(options.block_size),
        max_publish_attempts_(options.max_publish_attempts),
        cache_capacity_(!cacheable ? 0
                        : options.cache_capacity_bytes ==
                                Options::kCacheCapacityFromEnv
                            ? rt::BlockCache::capacity_from_env()
                            : options.cache_capacity_bytes),
        home_locale_(options.home_locale),
        write_lock_(cluster, /*owner_locale=*/0) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (options.home_locale != Options::kNoHomeLocale &&
        options.home_locale >= cluster.num_locales()) {
      throw std::invalid_argument("home_locale >= num_locales");
    }
    const reclaim::DomainOptions domain_opts{
        .qsbr = options.qsbr,
        .stall_deadline_ns = options.stall_deadline_ns,
        .monitor = options.stall_monitor};
    pid_ = cluster.privatization().create();
    cluster_.coforall_locales([&](std::uint32_t l) {
      auto* p = new PerLocale(cluster_.locale(l), domain_opts);
      p->global_snapshot.store(new Snapshot<T>(), std::memory_order_relaxed);
      p->cache = std::make_unique<rt::BlockCache>(cluster_.comm(), l,
                                                  cache_capacity_);
      cluster_.privatization().set(pid_, l, p);
    });
    if (initial_capacity > 0) {
      // No destructor runs for a constructor that throws.
      try {
        resize_add(initial_capacity);
      } catch (...) {
        teardown();
        throw;
      }
    }
  }

  ~RCUArray() { teardown(); }

  RCUArray(const RCUArray&) = delete;
  RCUArray& operator=(const RCUArray&) = delete;

  // -- Indexing (Algorithm 3, Index) -----------------------------------

  /// Returns a reference to element `i`, valid across concurrent resizes.
  /// Both reads and updates go through this reference.
  T& index(std::size_t i) {
    return with_slot(i, /*is_write=*/false,
                     [](T& slot, Block<T>*) -> T& { return slot; });
  }
  T& operator[](std::size_t i) { return index(i); }

  /// Bounds-checked access.
  T& at(std::size_t i) {
    if (i >= capacity()) {
      throw std::out_of_range("RCUArray::at: index " + std::to_string(i) +
                              " >= capacity " + std::to_string(capacity()));
    }
    return index(i);
  }

  /// Convenience value read / write (the paper's "update" is the write).
  /// For machine-word elements these are relaxed atomics, so concurrent
  /// read/write mixes on the same index are defined (§III-C contract);
  /// larger element types fall back to plain accesses and inherit the
  /// single-writer-per-index discipline those imply.
  ///
  /// With the block cache enabled (Options::cache_capacity_bytes > 0),
  /// read() consults the calling locale's rt::BlockCache inside the
  /// read-side section: a hit is charged a node-local copy instead of
  /// remote traffic, a miss fills the whole block through AsyncComm and
  /// caches it under the pinned snapshot version. The cached path is
  /// bounds-checked (throws std::out_of_range) because cache tests race
  /// reads against resize_remove; the uncached path keeps the paper's
  /// assert-only contract.
  T read(std::size_t i) {
    if constexpr (cacheable) {
      if (cache_enabled()) return read_cached(i);
    }
    // The load happens INSIDE the read-side section (unlike index(),
    // whose returned reference deliberately escapes it): value ops must
    // stay safe against rehome(), which — unlike resize — really does
    // reclaim the replaced blocks once readers drain.
    return with_slot(i, /*is_write=*/false, [](T& slot, Block<T>*) {
      return plat::element_load(slot);
    });
  }
  void write(std::size_t i, T value) {
    // Store + generation bump both land INSIDE the section for the same
    // migration-safety reason as read(): a rehome drain that completes
    // between a section exit and a post-section store would free the
    // block out from under the store. §III-C's escaping-reference
    // relaxation only covers recycled blocks (resize), not reclaimed
    // ones (rehome).
    with_slot(i, /*is_write=*/true, [&](T& slot, Block<T>* b) {
      plat::element_store(slot, std::move(value));
      // Write-through coherence (DESIGN.md §11): the PUT above already
      // updated the block; bumping its write generation AFTER the store
      // lands (release) invalidates every cached copy of the block on
      // its next lookup. No broadcast — the stamp travels with the
      // block.
      if (cache_enabled()) b->bump_generation();
    });
  }

  // -- Resizing (Algorithm 3, Resize) ----------------------------------

  /// Expands by `num_elements`, rounded up to whole blocks, distributing
  /// the new blocks round-robin across locales and replicating the
  /// snapshot swap on every locale. Parallel-safe against all operations.
  void resize_add(std::size_t num_elements) {
    if (num_elements == 0) return;
    std::lock_guard<rt::GlobalLock> lock(write_lock_);  // lines 10 and 29
    add_blocks((num_elements + block_size_ - 1) / block_size_);
  }

  /// Grows until capacity() >= `needed`: the one growth rule the
  /// containers share. Each step adds max(1, min(num_blocks(),
  /// max_step_blocks)) blocks — amortized doubling, optionally capped to
  /// bound one resize's latency. Concurrent callers queue on the write
  /// lock and re-check, so a shortfall is grown exactly once.
  void reserve(std::size_t needed, std::size_t max_step_blocks = SIZE_MAX) {
    if (capacity() >= needed) return;
    std::lock_guard<rt::GlobalLock> lock(write_lock_);
    while (capacity() < needed) {
      add_blocks(
          std::max<std::size_t>(1, std::min(num_blocks(), max_step_blocks)));
    }
  }

  /// EXTENSION (beyond the paper, which covers expansion only): shrinks
  /// the array by `num_elements`, rounded DOWN to whole blocks, from the
  /// tail. Parallel-safe against index/read/write *to the surviving
  /// region*; references into the removed region are invalidated once
  /// reclamation completes. The removed blocks are reclaimed through the
  /// same machinery as spines: synchronously after the EBR drain, or via
  /// QSBR deferral.
  void resize_remove(std::size_t num_elements) {
    const std::size_t remove_blocks = num_elements / block_size_;
    if (remove_blocks == 0) return;
    obs::TraceSpan resize_span("rcua.resize_remove", "rcua", remove_blocks);
    std::lock_guard<rt::GlobalLock> lock(write_lock_);
    Snapshot<T>* current =
        priv_at(0).global_snapshot.load(std::memory_order_acquire);
    const std::size_t old_blocks = current->num_blocks();
    const std::size_t keep =
        remove_blocks >= old_blocks ? 0 : old_blocks - remove_blocks;
    // Lowered BEFORE the first swap: capacity() never covers an index
    // some locale's snapshot has already dropped.
    published_blocks_.store(keep, std::memory_order_release);
    // The blocks being dropped (identical in every locale's spine).
    std::vector<Block<T>*> dropped(current->blocks().begin() +
                                       static_cast<std::ptrdiff_t>(keep),
                                   current->blocks().end());
    cluster_.coforall_locales([&](std::uint32_t l) {
      PerLocale& p = priv_at(l);
      Snapshot<T>* old =
          swap_spine(l, kResizeSites, [&](const Snapshot<T>& s) {
            return Snapshot<T>::clone_truncate(s, keep);
          }).spine;
      if (p.cache->enabled()) {
        // Eviction interlock (DESIGN.md §11): drop this locale's cached
        // copies of the dropped blocks BEFORE the reclamation below can
        // free them — the drain-before-release rule extended to cache
        // entries. Any fill still in flight for a dropped block drains
        // inside its reader's pinned section, which the (blocking) EBR
        // drain / QSBR checkpoint below waits out; after that the stale
        // version tag turns every surviving entry into a lazy miss, but
        // the ledger must not carry "live" bytes for freed blocks.
        p.cache->invalidate_tail(array_id(), keep);
      }
      // Unlike resize_add, this drain stays BLOCKING even with a stall
      // deadline: the dropped blocks freed below are
      // shared by every locale's spine, so their reclamation needs every
      // locale's readers drained — the per-locale parity tag the
      // overflow list relies on cannot cover them (DESIGN.md §8). A
      // stalled reader therefore delays resize_remove (an extension
      // path), never resize_add.
      p.domain.fence_drain();
      p.domain.defer_free(old);
    });
    // Every locale has swapped and drained; no snapshot reaches the
    // dropped blocks.
    free_blocks(dropped, "rcua.resize.recycle_block");
    resizes_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- Live migration (DESIGN.md §14) -----------------------------------

  /// EXTENSION: live migration of every block of this array to locale
  /// `dst` — the shard-migration primitive behind
  /// service::ShardedCollection. Protocol, in order:
  ///
  ///   1. COPY: allocate replacement blocks on `dst` and copy the source
  ///      contents into them through the async comm path, pipelined
  ///      under the in-flight window (§10). The replacements are
  ///      unpublished — no reader can observe them — so a mid-copy
  ///      destination death (FaultPlan kKillLocale, consulted between
  ///      block copies) rolls back by freeing them and returning false
  ///      with the array untouched.
  ///   2. PUBLISH: every copy completion has drained; each locale swaps
  ///      in a clone_replace spine and invalidates its BlockCache
  ///      entries for this array (the §11 eviction interlock — cached
  ///      copies of replaced blocks must leave the ledger before the
  ///      frees below).
  ///   3. DRAIN + RECLAIM: wait out every locale's readers of the old
  ///      block mapping (blocking, like resize_remove: the replaced
  ///      blocks are shared by every locale's old spine), then free the
  ///      replaced source blocks and the old spines (QSBR defers
  ///      both).
  ///
  /// The migrate→invalidate→drain ordering is the §14 rule; the two
  /// sched mutations (`migrate_publish_before_copy_complete`,
  /// `migrate_reclaim_before_mapping_drain`) each break one arrow and
  /// tests/test_sched_migration.cpp proves the harness catches both.
  ///
  /// Concurrency contract: VALUE ops (read/write/bulk/View) are safe
  /// throughout, on every locale — they complete inside their read-side
  /// section (with_slot). Escaping REFERENCES (index/operator[]/at) are
  /// NOT migration-safe: §III-C lets them outlive the section only
  /// because resize recycles blocks, and rehome reclaims the replaced
  /// blocks once readers drain — a reference obtained before the drain
  /// and dereferenced after it reads freed memory. Don't hold element
  /// references across a migration of this array. Element WRITES
  /// concurrent with the copy phase may land in a replaced block after
  /// its contents were copied and be lost — structural writers must
  /// serialize against migration (ShardedCollection's migration lock
  /// does) or tolerate last-writer-wins. Returns true when the migration
  /// published, false on a fault-injected rollback.
  bool rehome(std::uint32_t dst) {
    if (dst >= cluster_.num_locales()) {
      throw std::invalid_argument("rehome: dst locale out of range");
    }
    obs::TraceSpan span("rcua.rehome", "rcua", dst);
    std::lock_guard<rt::GlobalLock> lock(write_lock_);
    const std::uint32_t here = cluster_.here();
    Snapshot<T>* cur =
        priv_at(0).global_snapshot.load(std::memory_order_acquire);
    const std::vector<Block<T>*> old_blocks = cur->blocks();
    // Indices whose block lives somewhere other than `dst`; blocks
    // already homed there are kept in place (nothing to copy or free).
    std::vector<std::size_t> moved;
    for (std::size_t i = 0; i < old_blocks.size(); ++i) {
      if (old_blocks[i]->owner() != dst) moved.push_back(i);
    }
    if (moved.empty()) {
      home_locale_.store(dst, std::memory_order_relaxed);
      return true;
    }

    // -- 1. COPY ---------------------------------------------------------
    std::vector<Block<T>*> fresh(old_blocks);
    rt::AsyncComm async(cluster_.comm(), here);
    {
      const std::vector<Block<T>*> allocs =
          alloc_blocks(async, std::vector<std::uint32_t>(moved.size(), dst));
      for (std::size_t k = 0; k < moved.size(); ++k) {
        fresh[moved[k]] = allocs[k];
      }
    }
    std::vector<rt::future<void>> copies;
    copies.reserve(moved.size());
    bool killed = false;
    for (std::size_t i : moved) {
      // Chaos: the destination dies mid-copy. Everything issued so far
      // is unpublished, so the rollback is purely local.
      if (rt::FaultPlan* plan = cluster_.fault_plan();
          plan != nullptr &&
          plan->fires(rt::FaultPlan::Action::kKillLocale, dst)) {
        RCUA_SCHED_POINT("rcua.rehome.killed");
        killed = true;
        break;
      }
      RCUA_SCHED_POINT("rcua.rehome.copy_issue");
      Block<T>* src = old_blocks[i];
      Block<T>* rep = fresh[i];
      const std::size_t n = block_size_;
      copies.push_back(async.execute(dst, /*weight=*/n, [src, rep, n]() {
        RCUA_SCHED_POINT("rcua.rehome.copy_block");
        const T* s = src->data();
        T* d = rep->data();
        for (std::size_t k = 0; k < n; ++k) {
          plat::element_store(d[k], plat::element_load(s[k]));
        }
        sim::charge(sim::CostModel::get().bulk_copy_ns_per_elem *
                    static_cast<double>(n));
      }));
    }
    if (killed) {
      async.cancel_pending();
      for (std::size_t i : moved) {
        cluster_.locale(dst).note_free(fresh[i]->capacity() * sizeof(T));
        delete fresh[i];
      }
      rehome_rollbacks_.fetch_add(1, std::memory_order_relaxed);
      obs::trace_instant("rcua.rehome.rollback", "rcua", dst);
      return false;
    }
    if (!RCUA_SCHED_MUT(migrate_publish_before_copy_complete)) {
      // Copy-before-publish: the replacement blocks hold the full
      // contents BEFORE any reader can be routed to them.
      for (auto& f : copies) f.wait();
      RCUA_SCHED_POINT("rcua.rehome.copies_drained");
    }

    // -- 2. PUBLISH + invalidate -----------------------------------------
    std::vector<Snapshot<T>*> retired(cluster_.num_locales(), nullptr);
    cluster_.coforall_locales([&](std::uint32_t l) {
      retired[l] = swap_spine(l, kRehomeSites, [&](const Snapshot<T>& s) {
                     return Snapshot<T>::clone_replace(s, fresh);
                   }).spine;
      PerLocale& p = priv_at(l);
      if (p.cache->enabled()) {
        // Eviction interlock (§11, extended to migration): every cached
        // copy of this array leaves the ledger before the frees below —
        // replaced blocks change identity per index, and surviving
        // entries would only ever be version-stale lazy misses.
        p.cache->invalidate_tail(array_id(), 0);
      }
    });
    if (RCUA_SCHED_MUT(migrate_publish_before_copy_complete)) {
      // MUTATION (sched harness only): the replacement spine is already
      // visible on every locale; only now do the pipelined copy
      // completions land — a reader in the window saw values the array
      // never stored.
      for (auto& f : copies) f.wait();
    }

    // -- 3. DRAIN + reclaim ----------------------------------------------
    std::vector<Block<T>*> replaced;
    replaced.reserve(moved.size());
    for (std::size_t i : moved) replaced.push_back(old_blocks[i]);
    const bool freed_early =
        RCUA_SCHED_MUT(migrate_reclaim_before_mapping_drain);
    if (freed_early) {
      // MUTATION (sched harness only): reclaim the replaced source
      // blocks before the old mapping's readers drained — a section
      // that pinned the old spine still holds pointers into them.
      free_blocks(replaced, "rcua.rehome.free_block");
    }
    cluster_.coforall_locales([&](std::uint32_t l) {
      // Replaced blocks are shared by every locale's old spine: drain
      // blocking, exactly like resize_remove (DESIGN.md §8).
      PerLocale& p = priv_at(l);
      p.domain.fence_drain();
      p.domain.defer_free(retired[l]);
    });
    if (!freed_early) free_blocks(replaced, "rcua.rehome.free_block");
    home_locale_.store(dst, std::memory_order_relaxed);
    rehomes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// This array's pinned home locale (Options::home_locale, updated by
  /// rehome); Options::kNoHomeLocale when blocks distribute round-robin.
  /// Relaxed: routers read it concurrently with rehome() only for
  /// placement metrics, never to find a block.
  [[nodiscard]] std::uint32_t home_locale() const noexcept {
    return home_locale_.load(std::memory_order_relaxed);
  }
  /// Completed rehome() migrations.
  [[nodiscard]] std::uint64_t rehomes() const noexcept {
    return rehomes_.load(std::memory_order_relaxed);
  }
  /// rehome() calls rolled back by an injected kKillLocale fault.
  [[nodiscard]] std::uint64_t rehome_rollbacks() const noexcept {
    return rehome_rollbacks_.load(std::memory_order_relaxed);
  }

  // -- Snapshot views ----------------------------------------------------

  /// A pinned, read-only view of one snapshot: amortizes the read-side
  /// protocol over many accesses and guarantees a *consistent* block
  /// table (capacity cannot change under the view). Under EBR the view
  /// holds the read-side critical section open, so writers wait for it —
  /// keep views short-lived. Under QSBR validity follows the usual rule:
  /// the view dies at the holder's next checkpoint.
  class View {
   public:
    explicit View(RCUArray& arr) : arr_(arr), pin_(arr.pin_spine()) {
      // Hoist the pinned snapshot version onto the view once: every
      // consumer (cache tags, charging) reads this value instead of
      // re-deriving it from the snapshot per access.
      version_ = pin_->version();
      sim::charge(sim::CostModel::get().atomic_load_ns);
    }

    [[nodiscard]] std::size_t capacity() const noexcept {
      return pin_->capacity();
    }
    [[nodiscard]] std::size_t num_blocks() const noexcept {
      return pin_->num_blocks();
    }
    /// The snapshot version pinned at construction (DESIGN.md §11).
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    const T& operator[](std::size_t i) const {
      const std::size_t bidx = i / arr_.block_size_;
      const std::size_t off = i % arr_.block_size_;
      Block<T>* b = pin_->block(bidx);
      const std::uint32_t here = arr_.cluster_.here();
      arr_.cluster_.comm().record_access(here, b->owner(), false);
      sim::touch_block(b->id(), b->owner() != here, false);
      return (*b)[off];
    }

   private:
    RCUArray& arr_;
    SpinePin pin_;
    std::uint64_t version_ = 0;
  };

  /// Pins the calling locale's current snapshot (see View).
  [[nodiscard]] View view() { return View(*this); }

  // -- Bulk / parallel operations ----------------------------------------

  /// Tuning for the destination-aggregated bulk operations below.
  struct BulkOptions {
    /// Element-ops buffered per destination locale before the aggregator
    /// auto-flushes (rt::Aggregator::Options::capacity). 1 degenerates to
    /// one remote execution per *span* (still never per element).
    std::size_t buffer_capacity = 1024;
    /// for_each_block only: the callback writes elements, so spans are
    /// charged as writes in the locality model. bulk_read/bulk_write set
    /// their direction themselves and ignore this.
    bool mutate = false;
    /// Pipeline the aggregator's flushes through the async comm layer
    /// (rt::AsyncComm): remote executions overlap instead of
    /// serializing, and their completions are drained inside the same
    /// read-side section (DESIGN.md §10). false = PR 4's synchronous
    /// flush model. Results and comm counters are identical either way.
    bool async = true;
    /// Per-destination in-flight window for async mode; 0 defers to the
    /// RCUA_COMM_WINDOW environment variable (default 32).
    std::size_t window = 0;
  };

  /// Copies elements [first, first+count) into `out[0..count)` with ONE
  /// snapshot resolution and one read-side critical section for the whole
  /// range, draining remote spans through a destination aggregator: the
  /// communication cost is one remote execution per destination flush —
  /// O(blocks touched), not O(count) GETs. Safe concurrently with
  /// resize_add (the pinned snapshot plus Lemma 6's recycled blocks; see
  /// DESIGN.md §9). Throws std::out_of_range (before copying anything)
  /// when the range exceeds the snapshot's capacity.
  void bulk_read(std::size_t first, std::size_t count, T* out,
                 BulkOptions opts = {}) {
    bulk_visit(first, count, /*is_write=*/false, opts,
               [out, first](std::size_t base, T* data, std::size_t len) {
                 load_span(data, len, out + (base - first));
               },
               // Generic, so the memcpy is only instantiated for the
               // cacheable T whose private copies reach it.
               [out, first](std::size_t base, const auto* data,
                            std::size_t len) {
                 std::memcpy(out + (base - first), data, len * sizeof(T));
               });
  }

  /// Convenience overload returning the elements in a fresh vector.
  [[nodiscard]] std::vector<T> bulk_read(std::size_t first,
                                         std::size_t count,
                                         BulkOptions opts = {}) {
    std::vector<T> out(count);
    bulk_read(first, count, out.data(), opts);
    return out;
  }

  /// Writes `values` over elements [first, first+values.size()) under
  /// the same single-snapshot / aggregated-drain regime as bulk_read.
  /// Writes into recycled blocks, so they stay visible across concurrent
  /// resize_adds (Lemma 6). Element-level atomicity matches write():
  /// relaxed per-element stores for machine-word T, plain stores
  /// otherwise.
  void bulk_write(std::size_t first, std::span<const T> values,
                  BulkOptions opts = {}) {
    auto store = [values, first](std::size_t base, T* data, std::size_t len) {
      const T* src = values.data() + (base - first);
      for (std::size_t k = 0; k < len; ++k) {
        plat::element_store(data[k], src[k]);
      }
    };
    // Writes never go through the cache, so no span is private.
    bulk_visit(first, values.size(), /*is_write=*/true, opts, store, store);
  }

  /// Runs `fn(base_index, T* data, len)` over the maximal contiguous
  /// per-block spans covering [first, first+count), resolved against one
  /// pinned snapshot and drained destination-aggregated: spans of blocks
  /// owned by the calling locale run inline; remote spans are shipped in
  /// destination buffers, one remote execution per flush. `fn` runs for
  /// every span exactly once, but span order is the aggregator's drain
  /// order, not index order. `fn` MUST NOT touch this array (the
  /// read-side section is open) and must not retain `data` past its own
  /// invocation.
  template <typename F>
  void for_each_block(std::size_t first, std::size_t count, F&& fn,
                      BulkOptions opts = {}) {
    bulk_visit(first, count, /*is_write=*/opts.mutate, opts, fn, fn);
  }

  /// Runs `fn(global_block_index, Block<T>&)` for every block, each on a
  /// task on the block's OWNING locale — the locality-aware loop the
  /// paper's DSI future work calls for. Not concurrent-resize-safe (the
  /// iteration space is fixed at entry).
  template <typename F>
  void for_each_block_local(F&& fn) {
    cluster_.coforall_locales(
        [&](std::uint32_t l) { visit_local_blocks(l, /*is_write=*/true, fn); });
  }

  /// Parallel fill, executed with full locality.
  void fill(const T& value) {
    const auto& m = sim::CostModel::get();
    for_each_block_local([&](std::size_t, Block<T>& blk) {
      for (std::size_t i = 0; i < blk.capacity(); ++i) blk[i] = value;
      sim::charge(m.bulk_copy_ns_per_elem *
                  static_cast<double>(blk.capacity()));
    });
  }

  /// Parallel reduction: `fn(acc, element)` folds each locale's local
  /// elements, partials combined with `combine`. T and R must be
  /// copyable; the array must not be resized concurrently.
  template <typename R, typename Fold, typename Combine>
  [[nodiscard]] R reduce(R init, Fold&& fn, Combine&& combine) {
    std::mutex mu;
    R total = init;
    const auto& m = sim::CostModel::get();
    cluster_.coforall_locales([&](std::uint32_t l) {
      R partial = init;
      visit_local_blocks(l, /*is_write=*/false,
                         [&](std::size_t, Block<T>& blk) {
                           for (std::size_t i = 0; i < blk.capacity(); ++i) {
                             partial = fn(std::move(partial), blk[i]);
                           }
                           sim::charge(m.bulk_copy_ns_per_elem *
                                       static_cast<double>(blk.capacity()) /
                                       4.0);
                         });
      std::lock_guard<std::mutex> guard(mu);
      total = combine(std::move(total), std::move(partial));
    });
    return total;
  }

  // -- Introspection ----------------------------------------------------

  /// Element capacity published on every locale (see the class comment);
  /// View::capacity() reports the pinned snapshot instead.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return num_blocks() * block_size_;
  }

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return published_blocks_.load(std::memory_order_acquire);
  }

  /// Locale owning the block that holds element `i`, read from the
  /// calling locale's snapshot inside a read-side section.
  [[nodiscard]] std::uint32_t block_owner(std::size_t i) const {
    return pin_spine()->block(i / block_size_)->owner();
  }

  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  // -- Block cache observability (rt::BlockCache; DESIGN.md §11) --------

  /// True when the per-locale remote-block cache is active (capacity>0);
  /// constant false when T is not `cacheable`.
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cacheable && cache_capacity_ > 0;
  }
  [[nodiscard]] std::size_t cache_capacity_bytes() const noexcept {
    return cache_capacity_;
  }
  [[nodiscard]] rt::BlockCache::Stats cache_stats_at(
      std::uint32_t locale) const {
    return priv_at(locale).cache->stats();
  }
  [[nodiscard]] std::size_t cache_bytes_used_at(std::uint32_t locale) const {
    return priv_at(locale).cache->bytes_used();
  }
  [[nodiscard]] std::size_t cache_entries_at(std::uint32_t locale) const {
    return priv_at(locale).cache->entries();
  }
  [[nodiscard]] std::uint64_t resize_count() const noexcept {
    return resizes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] rt::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] rt::GlobalLock& write_lock() noexcept { return write_lock_; }

  /// Read-side stats of the calling locale's EBR instance (EBR policy).
  /// `reads`/`read_retries` require a -DRCUA_STATS=ON build (zero
  /// otherwise); `epoch_advances` is always live.
  [[nodiscard]] typename Domain::Stats ebr_stats_at(
      std::uint32_t locale) const {
    return priv_at(locale).domain.stats();
  }

  // -- Stall tolerance observability ------------------------------------

  /// Resize publish rounds repeated because a locale's broadcast step
  /// was dropped (injected fault) — each increment is one retry sweep.
  [[nodiscard]] std::uint64_t broadcast_retries() const noexcept {
    return broadcast_retries_.load(std::memory_order_relaxed);
  }
  /// Spines deferred onto an overflow list because their drain timed out.
  [[nodiscard]] std::uint64_t stalled_spines() const noexcept {
    return stalled_spines_.load(std::memory_order_relaxed);
  }
  /// Bytes currently parked on overflow lists across all locales.
  [[nodiscard]] std::size_t overflow_pending_bytes() const {
    return sum_pending(&reclaim::Pending::overflow_bytes);
  }
  /// Spines currently parked on overflow lists across all locales.
  [[nodiscard]] std::size_t overflow_pending_objects() const {
    return sum_pending(&reclaim::Pending::overflow_objects);
  }
  /// Retired-but-unreclaimed spine bytes across all locales, whatever
  /// list they live on: EBR overflow lists, or the (bounded) era retire
  /// lists of the interval policies. QSBR deferral is process-global and
  /// not counted here.
  [[nodiscard]] std::size_t reclaim_pending_bytes() const {
    return sum_pending(&reclaim::Pending::bytes);
  }
  /// Spine count behind reclaim_pending_bytes().
  [[nodiscard]] std::size_t reclaim_pending_objects() const {
    return sum_pending(&reclaim::Pending::objects);
  }

  /// Manually retries reclamation of every locale's deferred spines
  /// (resizes do this opportunistically anyway). Returns spines freed.
  std::size_t reclaim_overflow() {
    // Under the write lock nothing else retires or flushes.
    std::lock_guard<rt::GlobalLock> lock(write_lock_);
    const std::size_t before = reclaim_pending_objects();
    cluster_.coforall_locales(
        [&](std::uint32_t l) { priv_at(l).domain.flush(); });
    return before - reclaim_pending_objects();
  }

 private:
  /// The privatized per-locale copy (Listing 1's RCUArrayMetaData).
  struct alignas(plat::kCacheLine) PerLocale {
    PerLocale(rt::Locale& locale, const reclaim::DomainOptions& opts)
        : domain(locale, opts) {}
    std::atomic<Snapshot<T>*> global_snapshot{nullptr};
    /// This locale's reclamation domain: a spine on locale l is only
    /// ever dereferenced under locale l's domain (the snapshot pointer
    /// is privatized).
    Domain domain;
    std::uint32_t next_locale_id = 0;
    /// domain.birth() sampled just before this locale's LIVE spine was
    /// published — the era policies' lower lifetime tag when the next
    /// resize retires it. Written only under the write lock; the
    /// initial snapshot is born at era 0, matching the zero init.
    std::uint64_t spine_birth = 0;
    /// Per-locale remote-block cache (DESIGN.md §11); constructed with
    /// the array, disabled when capacity is 0.
    std::unique_ptr<rt::BlockCache> cache;
  };
  /// Frees every locale's copy, the blocks and the PID: the destructor,
  /// and a constructor whose initial grow threw. Contract: no concurrent
  /// operations.
  void teardown() noexcept {
    // Locale 0's snapshot holds the complete block set (resizes only
    // append, replicated everywhere).
    std::vector<Block<T>*> blocks =
        priv_at(0).global_snapshot.load(std::memory_order_acquire)->blocks();
    for (std::uint32_t l = 0; l < cluster_.num_locales(); ++l) {
      PerLocale* p = &priv_at(l);
      delete p->global_snapshot.load(std::memory_order_acquire);
      delete p;  // the domain frees whatever it still holds
    }
    cluster_.privatization().destroy(pid_);
    for (Block<T>* b : blocks) {
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      delete b;
    }
  }

  [[nodiscard]] static std::size_t spine_bytes(
      const Snapshot<T>& s) noexcept {
    return sizeof(Snapshot<T>) + s.num_blocks() * sizeof(Block<T>*);
  }

  /// Appends `nblocks` blocks (Algorithm 3, Resize, lines 9-28) and
  /// advances capacity() once every locale has published them. Caller
  /// holds the write lock.
  void add_blocks(std::size_t nblocks) {
    obs::TraceSpan resize_span("rcua.resize_add", "rcua", nblocks);
    const std::size_t grown =
        published_blocks_.load(std::memory_order_relaxed) + nblocks;
    std::vector<Block<T>*> new_blocks;  // line 9
    const std::uint32_t here = cluster_.here();
    std::uint32_t loc = priv().next_locale_id;  // line 11
    // Allocate and distribute new blocks (lines 12-16), pipelined (see
    // alloc_blocks), preserving the round-robin block order.
    {
      std::vector<std::uint32_t> targets(nblocks);
      const std::uint32_t home = home_locale();
      const bool pinned = home != Options::kNoHomeLocale;
      for (std::size_t k = 0; k < nblocks; ++k) {
        targets[k] = pinned ? home : loc;
        if (!pinned) loc = (loc + 1) % cluster_.num_locales();
      }
      rt::AsyncComm async(cluster_.comm(), here);
      new_blocks = alloc_blocks(async, targets);
    }
    const std::uint32_t final_loc = loc;
    if (RCUA_SCHED_MUT(capacity_publish_before_broadcast)) {
      // MUTATION (sched harness only): capacity() covers the new blocks
      // before any locale swapped them in — a reader on a lagging locale
      // sees an index its own snapshot does not hold yet.
      published_blocks_.store(grown, std::memory_order_release);
    }

    // Update performed on each node (lines 18-28), retried against
    // injected broadcast faults: a locale whose swap step the fault plan
    // drops is re-broadcast with backoff until every locale has
    // published. `done` makes the per-locale body idempotent across
    // attempts, and after max_publish_attempts_ the plan is no longer
    // consulted, so resize_add terminates under any plan.
    std::vector<std::atomic<bool>> done(cluster_.num_locales());
    std::uint32_t attempt = 0;
    plat::Backoff publish_backoff;
    for (;;) {
      cluster_.coforall_locales([&](std::uint32_t l) {
        if (done[l].load(std::memory_order_acquire)) return;
        if (rt::FaultPlan* plan = cluster_.fault_plan();
            plan != nullptr && attempt < max_publish_attempts_ &&
            plan->fires(rt::FaultPlan::Action::kDropBroadcast, l)) {
          RCUA_SCHED_POINT("rcua.resize.broadcast_dropped");
          return;  // injected lost broadcast: this locale missed the swap
        }
        PerLocale& p = priv_at(l);
        const Unpublished old =
            swap_spine(l, kResizeSites, [&](const Snapshot<T>& s) {
              return Snapshot<T>::clone_append(s, new_blocks);
            });
        // RCU_Write lines 5-8 under EBR, a deferral under QSBR (lines
        // 21-25), an era retire+scan under IBR/HE (DESIGN.md §13).
        if (p.domain.retire(old.spine, spine_bytes(*old.spine), old.birth)) {
          stalled_spines_.fetch_add(1, std::memory_order_relaxed);
        }
        p.next_locale_id = final_loc;  // line 28
        done[l].store(true, std::memory_order_release);
      });
      bool all_published = true;
      for (auto& d : done) {
        all_published = all_published && d.load(std::memory_order_acquire);
      }
      if (all_published) break;
      ++attempt;
      broadcast_retries_.fetch_add(1, std::memory_order_relaxed);
      publish_backoff.pause();
    }
    // Release pairs with capacity()'s acquire: every locale's swap above
    // happens-before any use of an index the new count covers.
    published_blocks_.store(grown, std::memory_order_release);
    resizes_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Allocates one block on each of `targets` through `async` (`on
  /// Locales[target]`), pipelined: each remote allocation is issued
  /// asynchronously so its launch latency overlaps with the others, and
  /// same-locale allocations run inline. All or nothing: an allocation
  /// that throws is caught inside its closure, every future is still
  /// drained, the blocks that did allocate are freed, and the first
  /// exception is rethrown — so a failed grow leaks no block, whether it
  /// was collected before the failure or still in flight after it.
  std::vector<Block<T>*> alloc_blocks(
      rt::AsyncComm& async, const std::vector<std::uint32_t>& targets) {
    std::exception_ptr failure;
    std::vector<rt::future<Block<T>*>> pending;
    pending.reserve(targets.size());
    for (const std::uint32_t target : targets) {
      pending.push_back(async.execute(
          target, /*weight=*/0, [this, target, &failure]() -> Block<T>* {
            try {
              auto* b = new Block<T>(cluster_.locale(target), block_size_);
              sim::charge(sim::CostModel::get().alloc_block_ns);
              return b;
            } catch (...) {
              if (!failure) failure = std::current_exception();
              return nullptr;
            }
          }));
    }
    std::vector<Block<T>*> blocks;
    blocks.reserve(targets.size());
    for (auto& f : pending) blocks.push_back(f.get());
    if (failure) {
      for (Block<T>* b : blocks) {
        if (b == nullptr) continue;
        cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
        delete b;
      }
      std::rethrow_exception(failure);
    }
    return blocks;
  }

  /// Sched/trace sites of one structural op's publish step.
  struct PublishSites {
    const char* publish;
    const char* published;
  };
  static constexpr PublishSites kResizeSites{"rcua.resize.publish",
                                             "rcua.resize.published"};
  static constexpr PublishSites kRehomeSites{"rcua.rehome.publish",
                                             "rcua.rehome.published"};

  /// A spine swap_spine unpublished, with its domain birth tag.
  struct Unpublished {
    Snapshot<T>* spine;
    std::uint64_t birth;
  };

  /// The per-locale step of every structural op (resize_add,
  /// resize_remove, rehome): retry locale `l`'s deferred frees, clone
  /// its spine through `clone`, publish the clone, and hand back the
  /// spine it replaced for the caller to retire — resize_add at once,
  /// the others after their blocking fence_drain(). Caller holds the
  /// write lock.
  template <typename Clone>
  Unpublished swap_spine(std::uint32_t l, const PublishSites& sites,
                         Clone&& clone) {
    PerLocale& p = priv_at(l);
    p.domain.flush();
    Snapshot<T>* old = p.global_snapshot.load(std::memory_order_relaxed);
    Snapshot<T>* fresh = clone(*old);
    RCUA_SCHED_POINT(sites.publish);
    const std::uint64_t birth = p.domain.birth();  // BEFORE the publish
    p.global_snapshot.store(fresh, std::memory_order_release);
    RCUA_SCHED_POINT(sites.published);
    obs::trace_instant(sites.publish, "rcua", l);
    return {old, std::exchange(p.spine_birth, birth)};
  }

  /// Frees blocks that no locale's spine reaches any more, after every
  /// locale's fence_drain() returned (QSBR defers them instead).
  void free_blocks(const std::vector<Block<T>*>& blocks,
                   [[maybe_unused]] const char* site) {
    const auto& m = sim::CostModel::get();
    PerLocale& p = priv();
    for (Block<T>* b : blocks) {
      RCUA_SCHED_POINT(site);
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      sim::charge(m.alloc_block_ns / 2);
      p.domain.defer_free(b);
    }
  }

  [[nodiscard]] std::size_t sum_pending(
      std::size_t reclaim::Pending::*field) const {
    std::size_t total = 0;
    for (std::uint32_t l = 0; l < cluster_.num_locales(); ++l) {
      total += priv_at(l).domain.pending().*field;
    }
    return total;
  }

  /// Enters the calling locale's read-side section and pins its current
  /// spine; the section lasts as long as the returned Pin.
  [[nodiscard]] SpinePin pin_spine() const {
    PerLocale& p = priv();
    return p.domain.pin(p.global_snapshot);
  }

  [[nodiscard]] PerLocale& priv() const {
    return priv_at(cluster_.here());
  }
  [[nodiscard]] PerLocale& priv_at(std::uint32_t locale) const {
    // chpl_getPrivatizedCopy(PID)
    auto* p = static_cast<PerLocale*>(
        cluster_.privatization().get(pid_, locale));
    assert(p != nullptr);
    return *p;
  }

  /// Runs `fn(b, block)` over locale `l`'s own blocks in its current
  /// snapshot, outside any read-side section: callers rule out
  /// concurrent resizes.
  template <typename F>
  void visit_local_blocks(std::uint32_t l, bool is_write, F&& fn) {
    Snapshot<T>* s = priv_at(l).global_snapshot.load(std::memory_order_acquire);
    for (std::size_t b = 0; b < s->num_blocks(); ++b) {
      Block<T>* blk = s->block(b);
      if (blk->owner() != l) continue;
      sim::touch_block(blk->id(), false, is_write);
      fn(b, *blk);
    }
  }

  /// Element copies out of a live shared block, element_load per
  /// element so §III-C element races stay defined. Private copies (cache
  /// entries, completed fills) are copied plainly instead (bulk_read).
  static void load_span(const T* src, std::size_t n, T* dst) {
    for (std::size_t k = 0; k < n; ++k) dst[k] = plat::element_load(src[k]);
  }

  /// Shared engine of bulk_read/bulk_write/for_each_block. Resolves the
  /// calling locale's snapshot ONCE, partitions [first, first+count)
  /// into per-block spans, and pushes one span-op per block region into
  /// a destination aggregator keyed by the owning locale. The whole
  /// partition-and-drain runs under a single read-side critical section
  /// (EBR ReadGuard / QSBR participant), and the aggregator is drained
  /// BEFORE that section closes — the span-ops capture raw block
  /// pointers, and the pinned snapshot is exactly what keeps a
  /// concurrent resize_remove's grace period from freeing the blocks
  /// under them (DESIGN.md §9). The `bulk_flush_after_release` mutation
  /// moves the drain past the section close; the sched harness proves
  /// that variant loses (tests/test_sched_bulk.cpp).
  ///
  /// `span_fn(base_index, T* data, len)` runs on spans of live shared
  /// blocks, which concurrent writers may touch. `private_fn` (same
  /// signature) runs instead on spans served from a private, immutable
  /// copy — a cache hit or a completed fill — which nothing writes any
  /// more, so it may copy plainly; it is only reached for read visits of
  /// a cacheable T. Neither may re-enter this array.
  template <typename SpanFn, typename PrivateFn>
  void bulk_visit(std::size_t first, std::size_t count, bool is_write,
                  const BulkOptions& opts, SpanFn&& span_fn,
                  PrivateFn&& private_fn) {
    if (count == 0) return;
    const auto& m = sim::CostModel::get();
    PerLocale& p = priv();
    const std::uint32_t here = cluster_.here();
    rt::Aggregator agg(cluster_,
                       rt::Aggregator::Options{.capacity = opts.buffer_capacity,
                                               .async = opts.async,
                                               .window = opts.window});

    auto body = [&](Snapshot<T>* s) {
      sim::charge(m.atomic_load_ns);
      RCUA_SCHED_POINT("rcua.bulk.pinned");
      const std::size_t end = first + count;
      if (end < first || end > s->capacity()) {
        throw std::out_of_range(
            "RCUArray::bulk: range [" + std::to_string(first) + ", " +
            std::to_string(first) + "+" + std::to_string(count) +
            ") exceeds capacity " + std::to_string(s->capacity()));
      }
      // The pinned snapshot version, hoisted ONCE — the cache tags below
      // and the sched/charge paths all read this same value instead of
      // re-deriving it per span.
      const std::uint64_t pinned_version = s->version();
      const bool use_cache = cache_enabled() && !is_write;
      const bool bump_gens = cache_enabled() && is_write;
      // Cache-miss fills in flight. Each block appears in at most one
      // span (spans are maximal per-block runs), so no per-block dedup
      // is needed; fills PIPELINE under the async window alongside each
      // other and are served after the drain below, still in-section.
      std::vector<BlockFill> fills;
      std::optional<rt::AsyncComm> fill_async;
      const double copy_ns = m.bulk_copy_ns_per_elem;
      std::size_t i = first;
      while (i < end) {
        const std::size_t bidx = i / block_size_;
        const std::size_t off = i % block_size_;
        const std::size_t len = std::min(block_size_ - off, end - i);
        Block<T>* b = s->block(bidx);
        // Everything the deferred op needs, captured by VALUE: the op
        // must not chase the spine (which this call's pin does not
        // outlive) when it finally runs.
        T* data = b->data() + off;
        const std::uint64_t bid = b->id();
        const std::uint32_t owner = b->owner();
        const std::size_t base = i;
        if constexpr (cacheable) {
          if (use_cache && owner != here) {
            sim::charge(m.cache_lookup_ns);
            const std::uint64_t gen = b->generation();
            if (auto cached =
                    p.cache->lookup(array_id(), bidx, pinned_version, gen)) {
              // Hit: serve the span inline from the node-local copy. The
              // const_cast is sound because is_write is false — the
              // callback only reads through the pointer
              // (bulk_read/for_each_block contract).
              sim::charge(m.cache_copy_ns_per_elem *
                          static_cast<double>(len));
              private_fn(base,
                         const_cast<T*>(reinterpret_cast<const T*>(
                             cached.get())) + off,
                         len);
            } else {
              if (!fill_async) {
                fill_async.emplace(
                    cluster_.comm(), here,
                    rt::AsyncComm::Options{.window = opts.window});
              }
              BlockFill f = issue_fill(*fill_async, p, *b, bidx);
              f.base = base;
              f.off = off;
              f.len = len;
              fills.push_back(std::move(f));
            }
            i += len;
            continue;
          }
        }
        agg.push(owner, len, [=, &span_fn]() {
          sim::touch_block(bid, owner != here, is_write);
          sim::charge(copy_ns * static_cast<double>(len));
          span_fn(base, data, len);
          // Write-through coherence: the stores above landed; bumping
          // the generation now invalidates every locale's cached copy
          // of this block on its next lookup (DESIGN.md §11).
          if (bump_gens) b->bump_generation();
        });
        i += len;
      }
      if (!RCUA_SCHED_MUT(bulk_flush_after_release)) {
        // Flush AND drain while the snapshot is still pinned — the
        // correct protocol. In async mode the flush only *issues* the
        // remote executions; drain() is what runs their completions
        // against the pinned blocks, so it must also land inside the
        // section (the §10 completion-drain rule). Capacity-triggered
        // auto-flushes already happened inside the section too.
        agg.flush_all();
        if (!RCUA_SCHED_MUT(async_drain_after_release)) {
          agg.drain();
        }
      }
      // Cache fills always complete INSIDE the section, unconditionally:
      // the aggregator mutations above model aggregator bugs, and each
      // fill's completion copies out of a pinned block. insert() only
      // ever sees the completed copy — a fill that unwinds (exception,
      // cancelled session) never inserts, so no partial-block entry can
      // exist.
      if constexpr (cacheable) {
        for (BlockFill& f : fills) {
          const std::uint64_t fill_gen = f.done.get();
          p.cache->insert(array_id(), f.bidx, pinned_version, fill_gen,
                          f.buf, block_size_ * sizeof(T));
          sim::charge(m.cache_copy_ns_per_elem * static_cast<double>(f.len));
          // The completed copy is private: the fill wrote it and nothing
          // writes it again.
          private_fn(f.base, reinterpret_cast<T*>(f.buf.get()) + f.off,
                     f.len);
        }
      }
    };

    body(pin_spine().get());  // the Pin temporary outlives body()
    RCUA_SCHED_POINT("rcua.bulk.released");
    if (RCUA_SCHED_MUT(bulk_flush_after_release)) {
      // MUTATION (sched harness only): the buffered ops run after the
      // read-side section closed — a concurrent resize_remove may have
      // freed the blocks they point into.
      agg.flush_all();
      agg.drain();
    } else if (RCUA_SCHED_MUT(async_drain_after_release)) {
      // MUTATION (sched harness only): the flushes were ISSUED inside
      // the section, but their completions are delivered only now — the
      // async reopening of exactly the same use-after-reclaim window
      // (DESIGN.md §10; tests/test_sched_async.cpp).
      agg.drain();
    }
  }

  /// Runs `fn(slot, block)` against element `i` INSIDE the read-side
  /// section (Algorithm 3, Index, with `fn` as the Helper's last line).
  /// index() passes the identity, so its reference escapes the section
  /// deliberately (§III-C): it points into a recycled block, not the
  /// reclaimed spine. read()/write() complete in-section instead, so
  /// value ops stay correct concurrent with rehome(), whose replaced
  /// blocks are reclaimed (not recycled) after the drain.
  template <typename F>
  decltype(auto) with_slot(std::size_t i, bool is_write, F&& fn) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.rcua_index_ns);
    const std::uint32_t here = cluster_.here();
    PerLocale& p = priv_at(here);
    const std::size_t bidx = i / block_size_;  // line 1
    const std::size_t off = i % block_size_;   // line 2
    // The load is charged inside the section, before the protected load
    // (under the era policies: before the reservation is published).
    SpinePin pin = p.domain.pin(
        p.global_snapshot, [&] { sim::charge(m.atomic_load_ns); });
    if (rt::FaultPlan* plan = cluster_.fault_plan()) {
      plan->stall_here(here);  // chaos: stall while holding the snapshot
    }
    RCUA_SCHED_POINT("rcua.index.deref_spine");
    assert(bidx < pin->num_blocks() && "index beyond current capacity");
    Block<T>* b = pin->block(bidx);
    cluster_.comm().record_access(here, b->owner(), is_write);
    sim::touch_block(b->id(), b->owner() != here, is_write,
                     m.rcua_spine_miss_ns);
    return fn((*b)[off], b);  // line 3
  }

  // -- Block cache machinery (DESIGN.md §11) ---------------------------

  /// Cache key namespace: one id per array instance (pids are unique for
  /// the cluster's lifetime, and per-locale caches die with the array).
  [[nodiscard]] std::uint64_t array_id() const noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid_));
  }

  /// One in-flight whole-block cache fill. The future resolves — at
  /// completion, which always lands inside the filler's pinned section —
  /// to the write generation sampled immediately BEFORE the copy, so a
  /// cached copy holding a pre-write value always carries a pre-write
  /// generation (the stale-tag direction the coherence argument needs).
  struct BlockFill {
    rt::future<std::uint64_t> done;
    std::shared_ptr<std::byte[]> buf;
    std::size_t bidx = 0;
    // The span that missed, served from `buf` after the fill drains
    // (bulk path; read() serves the single element itself).
    std::size_t base = 0;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  /// Issues ONE whole-block fetch of `b` through `async` and counts one
  /// fill: the single remote execute that replaces O(elements) remote
  /// traffic for every later hit. The completion closure runs on the
  /// destination's timeline, inside the caller's pinned section, and
  /// copies with per-element relaxed loads (§III-C element races stay
  /// defined). The buffer and its control block are one allocation,
  /// with the elements left uninitialized (the copy overwrites them).
  BlockFill issue_fill(rt::AsyncComm& async, PerLocale& p, Block<T>& b,
                       std::size_t bidx) {
    static_assert(cacheable);
    BlockFill f;
    f.bidx = bidx;
    const std::size_t n = block_size_;
    std::shared_ptr<T[]> copy = std::make_shared_for_overwrite<T[]>(n);
    T* dst = copy.get();
    f.buf = std::shared_ptr<std::byte[]>(std::move(copy),
                                         reinterpret_cast<std::byte*>(dst));
    Block<T>* bp = &b;
    p.cache->note_fill();
    f.done = async.execute(
        b.owner(), /*weight=*/n, [bp, dst, n]() -> std::uint64_t {
          RCUA_SCHED_POINT("rcua.cache.fill_copy");
          const std::uint64_t gen = bp->generation();  // BEFORE the copy
          load_span(bp->data(), n, dst);
          sim::charge(sim::CostModel::get().cache_copy_ns_per_elem *
                      static_cast<double>(n));
          return gen;
        });
    return f;
  }

  /// read() with the cache enabled: consult the calling locale's
  /// BlockCache inside the read-side section; a hit costs one lookup
  /// plus one node-local element copy, a miss fills the whole block and
  /// inserts it under the pinned snapshot version. Local blocks take
  /// exactly the uncached charging (caching one's own blocks would only
  /// add a copy).
  T read_cached(std::size_t i) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.rcua_index_ns);
    PerLocale& p = priv();
    const std::size_t bidx = i / block_size_;
    const std::size_t off = i % block_size_;
    const std::uint32_t here = cluster_.here();
    // Closes the section on unwind too, when the bounds check throws.
    const SpinePin pin = pin_spine();
    sim::charge(m.atomic_load_ns);
    if (rt::FaultPlan* plan = cluster_.fault_plan()) {
      plan->stall_here(here);  // chaos: stall while holding the snapshot
    }
    RCUA_SCHED_POINT("rcua.index.deref_spine");
    if (bidx >= pin->num_blocks()) {
      throw std::out_of_range(
          "RCUArray::read: index " + std::to_string(i) + " >= capacity " +
          std::to_string(pin->capacity()));
    }
    // The pinned version is hoisted off the snapshot ONCE — the cache
    // tag, the sched points and the charges below all read this value.
    const std::uint64_t pinned_version = pin->version();
    Block<T>* b = pin->block(bidx);
    if (b->owner() == here) {
      cluster_.comm().record_access(here, here, false);
      sim::touch_block(b->id(), false, false, m.rcua_spine_miss_ns);
      return plat::element_load((*b)[off]);
    }
    sim::charge(m.cache_lookup_ns);
    const std::uint64_t gen = b->generation();
    auto cached = p.cache->lookup(array_id(), bidx, pinned_version, gen);
    if (cached == nullptr) {
      // Miss: fill the whole block. The future drains HERE, inside the
      // section — the copy source is the pinned snapshot's block (the
      // drain-before-release rule extended to fills).
      rt::AsyncComm async(cluster_.comm(), here);
      BlockFill f = issue_fill(async, p, *b, bidx);
      const std::uint64_t fill_gen = f.done.get();
      p.cache->insert(array_id(), bidx, pinned_version, fill_gen, f.buf,
                      block_size_ * sizeof(T));
      cached = f.buf;
    }
    sim::charge(m.cache_copy_ns_per_elem);
    return reinterpret_cast<const T*>(cached.get())[off];
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  std::uint32_t max_publish_attempts_;
  std::size_t cache_capacity_;
  std::atomic<std::uint32_t> home_locale_;
  /// Blocks present in every locale's snapshot (capacity()). Written
  /// under the write lock: raised after a grow's last swap, lowered
  /// before a shrink's first.
  std::atomic<std::size_t> published_blocks_{0};
  rt::GlobalLock write_lock_;
  int pid_ = -1;
  std::atomic<std::uint64_t> resizes_{0};
  std::atomic<std::uint64_t> broadcast_retries_{0};
  std::atomic<std::uint64_t> stalled_spines_{0};
  std::atomic<std::uint64_t> rehomes_{0};
  std::atomic<std::uint64_t> rehome_rollbacks_{0};
};

}  // namespace rcua
