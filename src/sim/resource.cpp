#include "sim/resource.hpp"

namespace rcua::sim {

void VirtualResource::use_slow(TaskClock& c, double service_ns) noexcept {
  const auto svc = static_cast<std::uint64_t>(service_ns);
  const std::uint64_t done = acquire_at(c.vtime_ns, svc);
  c.vtime_ns = done;
  owner_.value.store(reinterpret_cast<std::uintptr_t>(&c),
                     std::memory_order_relaxed);
  ++c.charge_events;
}

void VirtualResource::use_owned_slow(TaskClock& c, double contended_ns,
                                     double owned_ns) noexcept {
  const auto token =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&c));
  if (owner_.value.load(std::memory_order_relaxed) == token) {
    // Line still cached by this task: cheap path. The line sits idle in
    // our cache — NOT booked — so other contenders may take it from any
    // point; our next use then pays the transfer again.
    c.vtime_ns += static_cast<std::uint64_t>(owned_ns);
  } else {
    const std::uint64_t done =
        acquire_at(c.vtime_ns, static_cast<std::uint64_t>(contended_ns));
    c.vtime_ns = done;
    owner_.value.store(token, std::memory_order_relaxed);
  }
  ++c.charge_events;
}

}  // namespace rcua::sim
