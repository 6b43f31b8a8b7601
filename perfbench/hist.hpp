#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Fixed-size log-linear latency histogram: each power of two is split
/// into 2^kSubBits linear sub-buckets, so a bucket is at most 1/32
/// (≈3%) of its lower bound wide and p99 moves in steps of a few
/// percent. Values below 2^kSubBits are exact. One instance per client
/// task: record() is a plain increment, and instances are merged after
/// the join, so the hot path shares no cache line.
class LogLinearHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  [[nodiscard]] static constexpr std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::uint64_t mant = (v >> (e - kSubBits)) & (kSub - 1);
    return (e - kSubBits + 1) * kSub + static_cast<std::size_t>(mant);
  }

  /// Smallest value that lands in bucket `idx`.
  [[nodiscard]] static constexpr std::uint64_t lower(std::size_t idx) noexcept {
    if (idx < kSub) return idx;
    const unsigned e = static_cast<unsigned>(idx / kSub) + kSubBits - 1;
    const std::uint64_t mant = idx % kSub;
    return (std::uint64_t{1} << e) | (mant << (e - kSubBits));
  }

  void record(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++count_;
  }

  void merge(const LogLinearHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// The q-quantile (q in [0, 1]): the sample of rank ceil(q * count),
  /// placed inside its bucket by linear interpolation on its rank among
  /// the bucket's samples. Exact below 2^kSubBits; 0 when empty.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        if (i < kSub) return static_cast<double>(i);
        const double lo = static_cast<double>(lower(i));
        const double hi = i + 1 < kBuckets ? static_cast<double>(lower(i + 1))
                                           : 2.0 * lo;
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return lo + within * (hi - lo);
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
