#pragma once

/// \file latency_hist.hpp
/// Fixed-memory streaming latency histogram (HDR-style, log-linear) over
/// unsigned integer values: picoseconds for delays (exact, since packet
/// timestamps are integer ps) or raw cycle counts for latencies. It is the
/// one percentile engine of the simulator: the headline p50/p95/p99 and
/// every `hist=on` slice are read from it.
///
/// Bucket scheme, with S = 2^kSubBucketBits = 32 sub-buckets per octave:
/// every value v < S has its own exact bucket (index v). A value v >= S
/// with k = floor(log2 v) lies in octave [2^k, 2^(k+1)), which is split
/// into S equal sub-buckets of width 2^(k-5); its index is
/// (k - 4)*S + (v >> (k - 5)) - S. 1920 buckets cover the full uint64
/// range (~15 KiB), and a bucket is never wider than 1/S of its lower
/// bound. Counts are exact and the quantile walk uses the same
/// rank = ceil(q*n) the sorted-array oracle uses, so it lands in precisely
/// the bucket that holds the oracle's value: every quantile is within
/// 1/32 (3.125%) of the exact order statistic, and exact below 32.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nocdvfs::obs {

/// Serializable view of a LatencyHistogram (sparse: only non-empty
/// buckets), embedded in the `.nocobs` timeline so `nocdvfs_report
/// percentiles` can re-derive quantiles offline.
struct HistogramSnapshot {
  std::string label;           ///< e.g. "delay_ps", "island3_delay_ps", "latency_cycles"
  std::uint64_t count = 0;
  std::uint64_t min = 0;       ///< exact observed extremes (raw units)
  std::uint64_t max = 0;
  std::vector<std::uint32_t> bucket_index;
  std::vector<std::uint64_t> bucket_count;
};

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr std::size_t kNumBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;
  /// Largest relative error of any quantile: a bucket's width over its
  /// lower bound is at most 1/kSubBuckets.
  static constexpr double kRelativeError = 1.0 / static_cast<double>(kSubBuckets);

  static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) noexcept;
  /// Inclusive upper bound of bucket i.
  static std::uint64_t bucket_hi(std::size_t i) noexcept;

  void record(std::uint64_t v) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return count_ ? max_ : 0; }

  /// Quantile q in [0, 1] by exact-count rank walk (rank = ceil(q*n),
  /// at least 1): returns the inclusive upper bound of the bucket holding
  /// the rank-th smallest sample, clamped to the observed [min, max] — so
  /// quantile(1.0) is the exact maximum and every quantile is within
  /// kRelativeError of the exact order statistic.
  std::uint64_t quantile(double q) const noexcept;

  std::uint64_t bucket_count(std::size_t i) const noexcept { return counts_[i]; }

  HistogramSnapshot snapshot(std::string label) const;

 private:
  std::uint64_t counts_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Quantile over a serialized snapshot, same semantics as
/// LatencyHistogram::quantile (used by `nocdvfs_report percentiles`).
std::uint64_t snapshot_quantile(const HistogramSnapshot& s, double q) noexcept;

}  // namespace nocdvfs::obs
