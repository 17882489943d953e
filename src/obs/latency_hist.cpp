#include "obs/latency_hist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

namespace nocdvfs::obs {

namespace {

constexpr int kBits = LatencyHistogram::kSubBucketBits;
constexpr std::size_t kSub = LatencyHistogram::kSubBuckets;

/// The rank walk both quantile readers share: bucket j of `counts` is
/// histogram bucket `index_of(j)`, in ascending order.
template <typename IndexOf>
std::uint64_t rank_walk(double q, std::uint64_t n, std::uint64_t lo, std::uint64_t hi,
                        std::span<const std::uint64_t> counts, IndexOf index_of) noexcept {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    cum += counts[j];
    if (cum >= rank) return std::clamp(LatencyHistogram::bucket_hi(index_of(j)), lo, hi);
  }
  return hi;
}

}  // namespace

std::size_t LatencyHistogram::bucket_index(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int shift = std::bit_width(v) - 1 - kBits;  // k - 5 >= 0
  return static_cast<std::size_t>(shift + 1) * kSub + static_cast<std::size_t>(v >> shift) - kSub;
}

std::uint64_t LatencyHistogram::bucket_lo(std::size_t i) noexcept {
  if (i < kSub) return i;
  const std::size_t shift = i / kSub - 1;
  return static_cast<std::uint64_t>(kSub + i % kSub) << shift;
}

std::uint64_t LatencyHistogram::bucket_hi(std::size_t i) noexcept {
  if (i < kSub) return i;
  // The top bucket ends exactly at UINT64_MAX: (2^6 - 1)·2^58 + 2^58 - 1.
  return bucket_lo(i) + ((std::uint64_t{1} << (i / kSub - 1)) - 1);
}

void LatencyHistogram::record(std::uint64_t v) noexcept {
  ++counts_[bucket_index(v)];
  ++count_;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::quantile(double q) const noexcept {
  return rank_walk(q, count_, min_, max_, counts_, [](std::size_t j) { return j; });
}

HistogramSnapshot LatencyHistogram::snapshot(std::string label) const {
  HistogramSnapshot s;
  s.label = std::move(label);
  s.count = count_;
  s.min = min();
  s.max = max();
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    s.bucket_index.push_back(static_cast<std::uint32_t>(i));
    s.bucket_count.push_back(counts_[i]);
  }
  return s;
}

std::uint64_t snapshot_quantile(const HistogramSnapshot& s, double q) noexcept {
  return rank_walk(q, s.count, s.min, s.max, s.bucket_count,
                   [&s](std::size_t j) { return std::size_t{s.bucket_index[j]}; });
}

}  // namespace nocdvfs::obs
