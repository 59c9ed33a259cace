/// \file stats.hpp
/// \brief The benchmark's own statistics: a log-linear latency histogram
/// and order statistics over small samples.  Pure code with no hdhash
/// dependency, so perfbench_selftest can check it on known data.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// HDR-style log-linear histogram of non-negative integer values
/// (nanoseconds here).  Values below 2^kSubBits are counted exactly;
/// above that every power-of-two range is split into 2^(kSubBits-1)
/// equal buckets, so a bucket is at most 1/1024 of its value wide.
/// Recording is an index computation and one add; histograms merge
/// exactly by adding counts.
class histogram {
 public:
  static constexpr unsigned kSubBits = 11;
  static constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kHalf = kExact / 2;
  static constexpr std::size_t kBuckets =
      kExact + (64 - kSubBits) * kHalf;

  histogram() : counts_(kBuckets, 0) {}

  static std::size_t index_of(std::uint64_t value) noexcept {
    if (value < kExact) {
      return static_cast<std::size_t>(value);
    }
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(value));
    // value >> shift lies in [kHalf, kExact).
    const unsigned shift = msb - (kSubBits - 1);
    return static_cast<std::size_t>(kExact + (shift - 1) * kHalf +
                                    ((value >> shift) - kHalf));
  }

  /// Smallest value that lands in bucket `index`.
  static std::uint64_t lower_bound(std::size_t index) noexcept {
    if (index < kExact) {
      return index;
    }
    const std::size_t k = index - kExact;
    const unsigned shift = static_cast<unsigned>(k / kHalf) + 1;
    return (kHalf + k % kHalf) << shift;
  }

  /// One past the largest value that lands in bucket `index`.
  static std::uint64_t upper_bound(std::size_t index) noexcept {
    if (index < kExact) {
      return index + 1;
    }
    const std::size_t k = index - kExact;
    const unsigned shift = static_cast<unsigned>(k / kHalf) + 1;
    return (kHalf + k % kHalf + 1) << shift;
  }

  void record(std::uint64_t value) noexcept {
    ++counts_[index_of(value)];
    ++total_;
  }

  void merge(const histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  /// Value at quantile q in [0, 1]: the bucket holding the ceil(q*n)-th
  /// smallest sample, linearly interpolated inside the bucket by rank.
  /// 0 when the histogram is empty.
  double quantile(double q) const noexcept {
    if (total_ == 0) {
      return 0.0;
    }
    const double clamped = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(clamped * static_cast<double>(total_)));
    rank = std::clamp<std::uint64_t>(rank, 1, total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (seen + counts_[i] >= rank) {
        const double lo = static_cast<double>(lower_bound(i));
        const double width = static_cast<double>(upper_bound(i)) - lo;
        if (counts_[i] == 1 || width <= 1.0) {
          return lo;
        }
        const double within = static_cast<double>(rank - seen - 1) /
                              static_cast<double>(counts_[i] - 1);
        return lo + within * (width - 1.0);
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower_bound(kBuckets - 1));
  }

  void clear() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
