#include "reclaim/qsbr.hpp"

#include <cassert>
#include <mutex>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "reclaim/stall_monitor.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

Qsbr::Qsbr(rt::ThreadRegistry& registry)
    : registry_(registry), slot_(registry.register_domain(*this)) {}

Qsbr::~Qsbr() { registry_.unregister_domain(slot_); }

Qsbr& Qsbr::global() {
  static Qsbr* domain = new Qsbr(rt::ThreadRegistry::global());  // immortal
  return *domain;
}

rt::DomainSlot& Qsbr::participate() {
  rt::ThreadRecord& rec = registry_.local_record();
  rt::DomainSlot& slot = rec.slots[slot_];
  if (!slot.active.load(std::memory_order_relaxed)) {
    // First participation: become visible to min-epoch scans with a
    // current observation so we never drag the minimum below the state
    // that existed before we arrived.
    slot.observed_epoch.store(current_epoch(), std::memory_order_relaxed);
    slot.active.store(true, std::memory_order_release);
  }
  return slot;
}

void Qsbr::defer(DeferNode* node) {
  rt::DomainSlot& slot = participate();
  // Update and observe the new global state (lines 1-2). The fetch_add
  // both invalidates the old state and produces the safe epoch: once all
  // threads have observed >= e, nobody can still hold a reference
  // acquired under the state e replaced.
  const std::uint64_t e =
      state_epoch_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  assert(e != 0 && "StateEpoch overflow is undefined behaviour (paper fn.5)");
  RCUA_SCHED_POINT("qsbr.defer.epoch_bumped");
  obs::trace_instant("rcu.epoch_bump", "rcu", e);
  slot.observed_epoch.store(e, std::memory_order_release);
  RCUA_SCHED_POINT("qsbr.defer.observed");
  // Couple the memory with its safe epoch, LIFO (line 3; Lemma 4 keeps
  // the list sorted descending because e is monotone per thread).
  node->safe_epoch = e;
  {
    std::lock_guard<plat::Spinlock> list_guard(slot.list_lock);
    slot.defer_list.push(node);
  }
  defers_.value.fetch_add(1, std::memory_order_relaxed);
  const auto& m = sim::CostModel::get();
  sim::charge(m.qsbr_defer_ns + m.atomic_rmw_ns);
}

std::size_t Qsbr::checkpoint() {
  rt::DomainSlot& slot = participate();
  // Observe the current state (lines 4-5).
  const std::uint64_t e = current_epoch();
  if (test_hook != nullptr) test_hook(*this, kHookCheckpointEpochRead);
  RCUA_SCHED_POINT("qsbr.checkpoint.epoch_read");
  slot.observed_epoch.store(e, std::memory_order_release);
  if (test_hook != nullptr) test_hook(*this, kHookCheckpointObserved);
  RCUA_SCHED_POINT("qsbr.checkpoint.observed");
  // Find the smallest (safest) epoch over all participants (lines 6-8).
  std::uint64_t live_visited = 0;
  std::uint64_t min =
      registry_.min_observed_epoch_counted(slot_, e, live_visited);
  if (RCUA_SCHED_MUT(qsbr_ignore_min)) min = e;
  RCUA_SCHED_POINT("qsbr.checkpoint.scanned");
  // How far the slowest participant trails the state this thread just
  // observed — the health signal for a laggard pinning reclamation.
  obs::health::epoch_lag().update_max(e - min);
  // Split the DeferList where safe epoch <= min and reclaim (lines 9-13).
  DeferNode* chain;
  {
    std::lock_guard<plat::Spinlock> list_guard(slot.list_lock);
    chain = slot.defer_list.pop_less_equal(min);
  }
  std::size_t freed = 0;
  for (DeferNode* n = chain; n != nullptr; n = n->next) ++freed;
  DeferList::reclaim_chain(chain);

  checkpoints_.value.fetch_add(1, std::memory_order_relaxed);
  reclaimed_.value.fetch_add(freed, std::memory_order_relaxed);
  const auto& m = sim::CostModel::get();
  sim::charge(m.atomic_load_ns +
              m.qsbr_checkpoint_per_thread_ns *
                  static_cast<double>(live_visited));
  return freed;
}

void Qsbr::synchronize() {
  rt::DomainSlot& slot = participate();
  // Invalidate the current state so every participant has a fresh epoch
  // to observe; the bump's value is the quiescence target. Observe it
  // ourselves immediately — the caller is by definition quiescent here.
  const std::uint64_t e =
      state_epoch_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  assert(e != 0 && "StateEpoch overflow is undefined behaviour (paper fn.5)");
  RCUA_SCHED_POINT("qsbr.synchronize.epoch_bumped");
  slot.observed_epoch.store(e, std::memory_order_release);
  obs::TraceSpan span("rcu.drain_wait", "rcu");
  const std::uint64_t start = grace_clock_ns();
  wait_with_policy("qsbr.synchronize", /*deadline_ns=*/0, [&] {
    return registry_.min_observed_epoch(slot_, e) >= e;
  });
  obs::health::grace_ns().record(grace_clock_ns() - start);
}

std::size_t Qsbr::pending_on_this_thread() {
  return registry_.local_record().slots[slot_].defer_list.size();
}

}  // namespace rcua::reclaim
