#pragma once

#include <atomic>
#include <cstdint>

#include "platform/align.hpp"
#include "sim/task_clock.hpp"

namespace rcua::sim {

/// A serialized virtual resource: a contended cache line, a lock word, a
/// NIC command queue — anything where concurrent users queue and are
/// serviced one at a time.
///
/// Model: the resource remembers the virtual time at which it next becomes
/// free. A task that wants `service_ns` of it starts at
/// max(task_now, next_free), occupies it for service_ns, and its clock
/// advances to the completion time. The k-th near-simultaneous contender
/// therefore waits ~k service times — exactly cache-line ping-pong / lock
/// convoy behaviour, and the term that turns per-op overhead into the
/// paper's throughput collapse under 44 tasks per node.
///
/// The CAS loop makes the reservation linearizable across real threads, so
/// the model composes with genuinely concurrent execution.
///
/// Bookings are ABSOLUTE virtual times and the ownership token is the
/// attached TaskClock's identity, so a resource is only meaningful within
/// one virtual timeline: every clock that touches it must share a zero
/// point. Measuring repeated regions against fresh clocks (each restarting
/// at t=0) compares new clocks against stale bookings — use one clock and
/// take deltas, or reset() the resource at region boundaries.
class VirtualResource {
 public:
  VirtualResource() = default;
  VirtualResource(const VirtualResource&) = delete;
  VirtualResource& operator=(const VirtualResource&) = delete;

  /// Pure reservation function: reserves `service_ns` starting no earlier
  /// than `now_v`, returns the completion time. Thread-safe.
  std::uint64_t acquire_at(std::uint64_t now_v,
                           std::uint64_t service_ns) noexcept {
    std::uint64_t free_at = next_free_.value.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t start = free_at > now_v ? free_at : now_v;
      const std::uint64_t done = start + service_ns;
      if (next_free_.value.compare_exchange_weak(free_at, done,
                                                 std::memory_order_relaxed)) {
        return done;
      }
      // free_at was reloaded by the failed CAS; retry.
    }
  }

  /// Charges the calling task's clock for one queued use of this resource.
  /// No-op when no virtual clock is attached.
  void use(double service_ns) noexcept {
    if (TaskClock* c = current()) use_slow(*c, service_ns);
  }

  /// Ownership-aware use, modelling a contended atomic's cache line: if
  /// the calling task was also the previous user, the line is still in its
  /// cache and the op costs `owned_ns`; otherwise the line must be
  /// transferred and the op queues for `contended_ns` of service. A solo
  /// task therefore pays near-uncontended cost while N alternating tasks
  /// serialize at 1/contended_ns — the regime split behind the paper's
  /// EBR results. No-op when no virtual clock is attached.
  void use_owned(double contended_ns, double owned_ns) noexcept {
    if (TaskClock* c = current()) use_owned_slow(*c, contended_ns, owned_ns);
  }

  /// Extends the busy period to at least `t` (lock release: the critical
  /// section occupied the resource until the holder's current time).
  void extend_until(std::uint64_t t) noexcept {
    std::uint64_t cur = next_free_.value.load(std::memory_order_relaxed);
    while (cur < t && !next_free_.value.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  /// Virtual time at which the resource next becomes free.
  [[nodiscard]] std::uint64_t next_free() const noexcept {
    return next_free_.value.load(std::memory_order_relaxed);
  }

  /// Resets to the free state (benchmark config boundaries).
  void reset() noexcept {
    next_free_.value.store(0, std::memory_order_relaxed);
    owner_.value.store(0, std::memory_order_relaxed);
  }

 private:
  void use_slow(TaskClock& c, double service_ns) noexcept;
  void use_owned_slow(TaskClock& c, double contended_ns,
                      double owned_ns) noexcept;

  plat::CacheAligned<std::atomic<std::uint64_t>> next_free_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> owner_{0ULL};
};

}  // namespace rcua::sim
