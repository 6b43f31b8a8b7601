#pragma once

#include <atomic>
#include <type_traits>
#include <utility>

namespace rcua::plat {

/// Relaxed atomic access to ordinary (non-std::atomic) storage.
///
/// The paper's §III-C relaxation makes concurrent element reads and
/// updates on the *same* index a supported operation mix: the array
/// guarantees the access lands on valid storage, and the element value is
/// whatever the interleaving produced. In C++ terms that contract is a
/// relaxed atomic access, not a plain one — plain racing loads/stores are
/// undefined behavior and (correctly) flagged by TSan. These helpers give
/// element paths that contract with zero overhead where it is free: a
/// relaxed load/store of a machine-word type compiles to the same mov a
/// plain access would.
///
/// Usable only where `std::atomic_ref` is lock-free for T; callers with
/// larger element types keep plain accesses and the single-writer
/// discipline those imply (see `relaxed_capable_v`).
template <typename T>
inline constexpr bool relaxed_capable_v = [] {
  // atomic_ref<T> itself must not be instantiated for a T it rejects.
  if constexpr (std::is_trivially_copyable_v<T>) {
    return std::atomic_ref<T>::is_always_lock_free;
  } else {
    return false;
  }
}();

template <typename T>
[[nodiscard]] inline T relaxed_load(const T& slot) noexcept {
  static_assert(relaxed_capable_v<T>);
  // atomic_ref<const T> arrives only post-C++20; the cast is sound
  // because atomic_ref never mutates through a pure load.
  return std::atomic_ref<T>(const_cast<T&>(slot))
      .load(std::memory_order_relaxed);
}

template <typename T>
inline void relaxed_store(T& slot, T value) noexcept {
  static_assert(relaxed_capable_v<T>);
  std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
}

/// Element access under that contract: relaxed atomics where T is
/// relaxed-capable, plain accesses otherwise.
template <typename T>
[[nodiscard]] inline T element_load(const T& slot) {
  if constexpr (relaxed_capable_v<T>) {
    return relaxed_load(slot);
  } else {
    return slot;
  }
}

template <typename T>
inline void element_store(T& slot, T value) {
  if constexpr (relaxed_capable_v<T>) {
    relaxed_store(slot, value);
  } else {
    slot = std::move(value);
  }
}

template <typename T>
inline T relaxed_fetch_add(T& slot, T delta) noexcept {
  static_assert(relaxed_capable_v<T> && std::is_integral_v<T>);
  return std::atomic_ref<T>(slot).fetch_add(delta,
                                            std::memory_order_relaxed);
}

}  // namespace rcua::plat
