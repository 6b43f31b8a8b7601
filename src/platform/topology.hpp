#pragma once

#include <cstddef>
#include <cstdint>

namespace rcua::plat {

/// Number of hardware execution contexts available to this process
/// (respects the cpuset / affinity mask). Never returns 0.
std::uint32_t hardware_threads() noexcept;

/// True when the process is oversubscribed for `desired` runnable threads,
/// i.e. desired exceeds the hardware thread count. Spin loops consult this
/// to decide how aggressively to yield.
bool oversubscribed(std::uint32_t desired) noexcept;

namespace detail {
/// The calling thread's mixed identity hash; 0 until first computed.
inline thread_local constinit std::uint64_t tl_thread_hash = 0;
/// Hashes the calling thread's identity into tl_thread_hash and returns it.
std::uint64_t compute_thread_hash() noexcept;
}  // namespace detail

/// Stripe selector for per-core counter banks: the calling thread's
/// identity, hashed and mixed once per thread and cached in a
/// thread_local, masked into [0, num_stripes). A thread therefore always
/// lands on the same stripe, which is what keeps the stripe's cache line
/// resident in that core's cache; after the first call a selection is
/// one TLS load and a mask. `num_stripes` must be a power of two.
inline std::size_t stripe_index(std::size_t num_stripes) noexcept {
  std::uint64_t h = detail::tl_thread_hash;
  if (h == 0) [[unlikely]] h = detail::compute_thread_hash();
  return static_cast<std::size_t>(h) & (num_stripes - 1);
}

}  // namespace rcua::plat
