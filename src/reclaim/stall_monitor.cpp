#include "reclaim/stall_monitor.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace rcua::reclaim {

std::uint64_t stall_deadline_from_env() {
  return util::env_u64("RCUA_STALL_DEADLINE_NS", 0);
}

std::string StallDiagnostic::describe() const {
  char buf[256];
  switch (kind) {
    case Kind::kEbrReader:
      std::snprintf(buf, sizeof(buf),
                    "rcua: EBR stall: domain %p locale %d stripe %zd holds "
                    "%" PRIu64 " reader(s) at epoch %" PRIu64
                    " after %" PRIu64 " ns",
                    domain, locale == UINT32_MAX ? -1 : static_cast<int>(locale),
                    stripe == SIZE_MAX ? static_cast<std::ptrdiff_t>(-1)
                                       : static_cast<std::ptrdiff_t>(stripe),
                    stuck_readers, epoch, waited_ns);
      break;
    case Kind::kOverflowBudget:
      std::snprintf(buf, sizeof(buf),
                    "rcua: overflow budget: domain %p locale %d pending "
                    "%zu bytes would exceed budget %zu bytes (epoch %" PRIu64
                    ")",
                    domain, locale == UINT32_MAX ? -1 : static_cast<int>(locale),
                    overflow_bytes, budget_bytes, epoch);
      break;
    case Kind::kEraReservation:
      std::snprintf(buf, sizeof(buf),
                    "rcua: era stall: domain %p locale %d slot %zd trails "
                    "the era clock by %" PRIu64 " era(s) at era %" PRIu64
                    ", holding %zu bytes pending (bounded)",
                    domain, locale == UINT32_MAX ? -1 : static_cast<int>(locale),
                    stripe == SIZE_MAX ? static_cast<std::ptrdiff_t>(-1)
                                       : static_cast<std::ptrdiff_t>(stripe),
                    era_lag, epoch, overflow_bytes);
      break;
  }
  return std::string(buf);
}

StallMonitor& StallMonitor::global() {
  static StallMonitor* monitor = [] {
    const auto budget = static_cast<std::size_t>(util::env_u64(
        "RCUA_OVERFLOW_BUDGET_BYTES", 64ULL * 1024 * 1024));
    Escalation esc = Escalation::kBlock;
    if (auto s = util::env_str("RCUA_STALL_ESCALATE")) {
      if (*s == "warn") {
        esc = Escalation::kWarn;
      } else if (*s == "block") {
        esc = Escalation::kBlock;
      } else {
        std::fprintf(stderr,
                     "rcua: RCUA_STALL_ESCALATE=\"%s\" not one of "
                     "warn|block; using block\n",
                     s->c_str());
      }
    }
    return new StallMonitor(budget, esc);  // immortal
  }();
  return *monitor;
}

void StderrStallSink::on_stall(const StallDiagnostic& diag) {
  std::fprintf(stderr, "%s\n", diag.describe().c_str());
}

void CaptureStallSink::on_stall(const StallDiagnostic& diag) {
  std::lock_guard<plat::Spinlock> guard(lock_);
  records_.push_back(diag);
}

std::vector<StallDiagnostic> CaptureStallSink::records() const {
  std::lock_guard<plat::Spinlock> guard(lock_);
  return records_;
}

std::size_t CaptureStallSink::size() const {
  std::lock_guard<plat::Spinlock> guard(lock_);
  return records_.size();
}

void CaptureStallSink::clear() {
  std::lock_guard<plat::Spinlock> guard(lock_);
  records_.clear();
}

StallSink* StallMonitor::default_sink() {
  static StallSink* sink = new StderrStallSink();  // immortal
  return sink;
}

void StallMonitor::record_stall(const StallDiagnostic& diag) {
  stalls_.fetch_add(1, std::memory_order_relaxed);
  obs::health::stalls().add();
  obs::trace_instant("reclaim.stall", "rcu",
                     static_cast<std::uint64_t>(diag.kind));
  {
    std::lock_guard<plat::Spinlock> guard(last_lock_);
    last_ = diag;
  }
  if (sink_ != nullptr) sink_->on_stall(diag);
}

StallDiagnostic StallMonitor::last() const {
  std::lock_guard<plat::Spinlock> guard(last_lock_);
  return last_;
}

void StallMonitor::note_overflow(std::size_t bytes,
                                 std::size_t objects) noexcept {
  overflow_objects_.fetch_add(objects, std::memory_order_relaxed);
  const std::size_t now =
      overflow_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = peak_overflow_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_overflow_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  obs::health::overflow_bytes_hwm().update_max(now);
  obs::trace_instant("rcu.overflow_defer", "rcu", bytes);
}

void StallMonitor::note_flushed(std::size_t bytes,
                                std::size_t objects) noexcept {
  flushed_objects_.fetch_add(objects, std::memory_order_relaxed);
  overflow_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

void StallMonitor::escalate(StallDiagnostic diag) {
  diag.kind = StallDiagnostic::Kind::kOverflowBudget;
  diag.budget_bytes = budget_bytes_;
  diag.overflow_bytes = overflow_bytes();
  escalations_.fetch_add(1, std::memory_order_relaxed);
  obs::health::escalations().add();
  record_stall(diag);
}

void OverflowRetireList::push(void (*deleter)(void*), void* obj,
                              std::size_t bytes, std::uint64_t epoch) {
  auto* e = new Entry{nullptr,          deleter, obj, bytes,
                      static_cast<std::size_t>(epoch % 2), epoch,
                      {false, false}};
  {
    std::lock_guard<plat::Spinlock> guard(lock_);
    e->next = head_;
    head_ = e;
  }
  pending_objects_.fetch_add(1, std::memory_order_relaxed);
  pending_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

OverflowRetireList::FlushResult OverflowRetireList::free_all() {
  Entry* chain;
  {
    std::lock_guard<plat::Spinlock> guard(lock_);
    chain = head_;
    head_ = nullptr;
  }
  return reclaim_chain(chain);
}

OverflowRetireList::FlushResult OverflowRetireList::reclaim_chain(
    Entry* chain) {
  FlushResult result;
  while (chain != nullptr) {
    Entry* next = chain->next;
    chain->deleter(chain->obj);
    result.objects += 1;
    result.bytes += chain->bytes;
    delete chain;
    chain = next;
  }
  if (result.objects != 0) {
    pending_objects_.fetch_sub(result.objects, std::memory_order_relaxed);
    pending_bytes_.fetch_sub(result.bytes, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace rcua::reclaim
