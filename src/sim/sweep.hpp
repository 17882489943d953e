#pragma once

/// \file sweep.hpp
/// Cross-product sweep engine over `Scenario`s — the executable form of
/// "each paper figure is a sweep over experiment configs".
///
/// A `SweepAxis` is a named list of labeled mutations of a base scenario
/// (offered load, policy, app speed, control period, seeds, or anything
/// custom). `SweepRunner` expands the axes' cross product, executes the
/// runs on a worker-thread pool (each `Simulator` is self-contained, so
/// runs are embarrassingly parallel), and returns the results in
/// deterministic row-major axis order — bit-identical to a serial sweep
/// regardless of thread count. Pluggable `ResultSink`s observe every
/// completed sweep in that same order: `TableSink` feeds a
/// `common::Table` for stdout, `CsvResultSink` / `JsonlResultSink` write
/// machine-readable rows and trajectories (e.g. under `bench/out/`).

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/prof.hpp"
#include "obs/telemetry.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs::sim {

/// One sweep dimension: a name plus the labeled scenario mutations that
/// form its points.
struct SweepAxis {
  struct Point {
    std::string label;                     ///< e.g. "0.2", "dmsd", "seed=7"
    std::function<void(Scenario&)> apply;  ///< mutates the base scenario
  };

  std::string name;
  std::vector<Point> points;

  std::size_t size() const noexcept { return points.size(); }

  // --- factories for the common paper axes ---
  static SweepAxis lambda(const std::vector<double>& values);
  static SweepAxis policies(const std::vector<Policy>& values);
  static SweepAxis speed(const std::vector<double>& values);
  static SweepAxis control_period(const std::vector<std::uint64_t>& values);
  static SweepAxis vf_levels(const std::vector<int>& values);
  static SweepAxis seeds(int count, std::uint64_t base_seed = 1);
  /// VF-island layouts ("global", "quadrants", "per_router", ...).
  static SweepAxis islands(const std::vector<std::string>& values);

  /// Arbitrary axis; each `apply` may change any scenario field, including
  /// swapping the traffic factory of a custom workload.
  static SweepAxis custom(std::string name, std::vector<Point> points);
};

/// One expanded point of the cross product.
struct SweepPoint {
  std::size_t index = 0;                  ///< row-major position
  std::vector<std::string> coordinates;   ///< one axis label per axis, outer first
  Scenario scenario;

  /// "lambda=0.2 policy=dmsd" — for logs and sink rows.
  std::string label(const std::vector<SweepAxis>& axes) const;
};

struct SweepRecord {
  SweepPoint point;
  RunResult result;
};

/// Host-side record of one SweepRunner::run call: total wall time, the
/// phase profile merged across every point that ran with `prof=on`, and
/// per-worker point spans + utilization (timestamps relative to the sweep
/// start). `write_sweep_host_timeline` turns this into a host-only
/// `.nocobs`/Perfetto pair for `nocdvfs_report profile` / ui.perfetto.dev.
struct SweepHostReport {
  double wall_s = 0.0;
  obs::Profile profile;  ///< merged in row-major point order (deterministic)
  std::vector<obs::HostWorkerSpan> spans;
  std::vector<obs::HostWorkerStats> workers;
};

/// Write `report` as a host-only telemetry timeline: `<out_base>.nocobs`
/// (binary v3, host sections only) and `<out_base>.json` (Perfetto "host"
/// process with the phase flame and one track per worker).
void write_sweep_host_timeline(const SweepHostReport& report, const std::string& out_base);

/// Observer of completed sweeps. `on_result` is invoked once per point in
/// row-major order after the sweep finishes (never concurrently).
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// A new sweep begins; `group` tags it (e.g. "pattern=tornado") so one
  /// sink can accumulate several sweeps of a bench into one file.
  virtual void begin_sweep(const std::string& group, const std::vector<SweepAxis>& axes) {
    (void)group;
    (void)axes;
  }
  virtual void on_result(const SweepRecord& record) = 0;
  virtual void end_sweep() {}
};

/// Headline-metric CSV, one row per run (stable column set across
/// scenarios; the `group` and per-axis `point` columns identify the run).
class CsvResultSink final : public ResultSink {
 public:
  explicit CsvResultSink(std::ostream& os);

  void begin_sweep(const std::string& group, const std::vector<SweepAxis>& axes) override;
  void on_result(const SweepRecord& record) override;

 private:
  std::ostream& os_;
  std::string group_;
  bool header_written_ = false;
};

/// One JSON object per line with the full result, including the
/// per-control-window trajectory (`window_trace`) and the actuation trace
/// (`vf_trace`) when `include_traces` is set.
class JsonlResultSink final : public ResultSink {
 public:
  explicit JsonlResultSink(std::ostream& os, bool include_traces = true);

  void begin_sweep(const std::string& group, const std::vector<SweepAxis>& axes) override;
  void on_result(const SweepRecord& record) override;

 private:
  std::ostream& os_;
  std::string group_;
  bool include_traces_;
};

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 = std::thread::hardware_concurrency(). 1 runs the
    /// sweep inline on the calling thread. With 2 or more, points whose
    /// `network.tile_workers` is 0 (auto) run with 1 (serial tile steps).
    int threads = 0;
  };

  SweepRunner();
  explicit SweepRunner(Options options);

  /// Register a non-owning sink; it must outlive the runner's run() calls.
  void add_sink(ResultSink& sink);

  /// Expand axes × base into the row-major cross product (outer axis
  /// first) without running anything.
  static std::vector<SweepPoint> expand(const Scenario& base,
                                        const std::vector<SweepAxis>& axes);

  /// Execute the cross product and return records in row-major order.
  /// Exceptions thrown by any run are rethrown on the calling thread after
  /// the pool drains. `group` tags the sweep for the sinks.
  std::vector<SweepRecord> run(const Scenario& base, const std::vector<SweepAxis>& axes,
                               const std::string& group = "");

  int resolved_threads(std::size_t num_points) const;

  /// Host-side report of the most recent run() call (empty before any).
  const SweepHostReport& host_report() const noexcept { return host_report_; }

 private:
  Options options_;
  std::vector<ResultSink*> sinks_;
  SweepHostReport host_report_;
};

}  // namespace nocdvfs::sim
