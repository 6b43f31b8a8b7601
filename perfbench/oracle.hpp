#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Tags for keyed stores: the value of slot `key` carries key+1 in its
/// high bits and a writer stamp in the low kStampBits, so 0 is never a
/// valid value and a value that landed in the wrong slot (a foreign
/// tag) is always caught. An old value with the right key is valid:
/// rehome()'s documented last-writer-wins window may lose a write.
struct KeyTag {
  static constexpr unsigned kStampBits = 24;

  [[nodiscard]] static constexpr std::uint64_t make(
      std::uint64_t key, std::uint64_t stamp) noexcept {
    return ((key + 1) << kStampBits) |
           (stamp & ((std::uint64_t{1} << kStampBits) - 1));
  }
  [[nodiscard]] static constexpr bool ok(std::uint64_t key,
                                         std::uint64_t v) noexcept {
    return (v >> kStampBits) == key + 1;
  }
  /// Mismatches among values[0..n) read from slots [first, first+n).
  [[nodiscard]] static std::uint64_t count_bad(
      std::size_t first, std::span<const std::uint64_t> values) noexcept {
    std::uint64_t bad = 0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      bad += ok(first + j, values[j]) ? 0 : 1;
    }
    return bad;
  }
};

/// Tags for appended values: producer p's seq-th push_back stores
/// (p+1) << kSeqBits | (seq+1). A producer appends sequentially, so in
/// any window of published slots its values carry consecutive seqs in
/// index order; over the whole vector each producer's seqs are exactly
/// 0..count-1. Together that proves no loss, duplication or reordering.
struct AppendTag {
  static constexpr unsigned kSeqBits = 40;

  [[nodiscard]] static constexpr std::uint64_t make(
      std::uint64_t producer, std::uint64_t seq) noexcept {
    return ((producer + 1) << kSeqBits) | (seq + 1);
  }
  [[nodiscard]] static constexpr std::uint64_t producer(
      std::uint64_t v) noexcept {
    return (v >> kSeqBits) - 1;
  }
  [[nodiscard]] static constexpr std::uint64_t seq(std::uint64_t v) noexcept {
    return (v & ((std::uint64_t{1} << kSeqBits) - 1)) - 1;
  }

  /// Checks a contiguous window of published values: every value names
  /// a producer below `producers` with a seq below `max_seq`, and each
  /// producer's seqs run consecutively. Returns the mismatches.
  [[nodiscard]] static std::uint64_t check_window(
      std::span<const std::uint64_t> values, std::uint64_t producers,
      std::uint64_t max_seq) {
    std::vector<std::uint64_t> next(producers, UINT64_MAX);
    std::uint64_t bad = 0;
    for (const std::uint64_t v : values) {
      const std::uint64_t p = producer(v);
      if (v == 0 || p >= producers || seq(v) >= max_seq) {
        ++bad;
        continue;
      }
      if (next[p] != UINT64_MAX && seq(v) != next[p]) ++bad;
      next[p] = seq(v) + 1;
    }
    return bad;
  }

  /// Checks a whole vector: the window rule from seq 0, and each
  /// producer's final count equals `per_producer`.
  [[nodiscard]] static std::uint64_t check_all(
      std::span<const std::uint64_t> values, std::uint64_t producers,
      std::uint64_t per_producer) {
    std::vector<std::uint64_t> next(producers, 0);
    std::uint64_t bad = 0;
    for (const std::uint64_t v : values) {
      const std::uint64_t p = producer(v);
      if (v == 0 || p >= producers || seq(v) != next[p]) {
        ++bad;
        continue;
      }
      ++next[p];
    }
    for (const std::uint64_t n : next) bad += n == per_producer ? 0 : 1;
    return bad;
  }
};

}  // namespace perfbench
