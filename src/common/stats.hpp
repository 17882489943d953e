#pragma once

/// \file stats.hpp
/// Streaming statistics used throughout the simulator: Welford running
/// moments, exponentially weighted moving averages and time-weighted
/// averages (for quantities like "frequency over the measurement interval"
/// that change at irregular instants). Delay percentiles come from
/// obs::LatencyHistogram.

#include <cstdint>
#include <limits>

namespace nocdvfs::common {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< population variance
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average with smoothing factor alpha in
/// (0, 1]; the first sample initializes the average.
class Ewma {
 public:
  explicit Ewma(double alpha);

  void add(double x) noexcept;
  void reset() noexcept { initialized_ = false; }
  bool initialized() const noexcept { return initialized_; }
  double value() const noexcept { return initialized_ ? value_ : 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Time-weighted average of a piecewise-constant signal: call `set(t, v)` at
/// every change instant; `average(t_end)` integrates up to t_end.
class TimeWeightedAverage {
 public:
  void set(double t, double value) noexcept;
  void reset() noexcept { *this = TimeWeightedAverage{}; }
  double average(double t_end) const noexcept;
  bool empty() const noexcept { return !started_; }

 private:
  bool started_ = false;
  double last_t_ = 0.0;
  double last_v_ = 0.0;
  double integral_ = 0.0;
  double t0_ = 0.0;
};

}  // namespace nocdvfs::common
