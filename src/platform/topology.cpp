#include "platform/topology.hpp"

#include <functional>
#include <thread>

#include "platform/rng.hpp"

namespace rcua::plat {

std::uint32_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<std::uint32_t>(n);
}

bool oversubscribed(std::uint32_t desired) noexcept {
  return desired > hardware_threads();
}

namespace detail {

std::uint64_t compute_thread_hash() noexcept {
  // std::this_thread::get_id() is pthread_self() underneath and is
  // stable for the thread's lifetime. Its raw value is pointer-like
  // (aligned), so mix before masking.
  const std::size_t raw =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  tl_thread_hash = mix64(static_cast<std::uint64_t>(raw));
  return tl_thread_hash;
}

}  // namespace detail

}  // namespace rcua::plat
