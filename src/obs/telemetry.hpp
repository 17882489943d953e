#pragma once

/// \file telemetry.hpp
/// Observability data plane: a registry where simulator components expose
/// their counters and gauges, and a sampler that snapshots the registry on
/// control-window boundaries into a columnar per-entity timeline.
///
/// Scopes follow the network's own vocabulary: a *tile* metric has one
/// value per router (stall causes, flits forwarded, buffer occupancy), a
/// *node* metric one per NI (generation, ejection, refusals, source
/// backlog), a *link* metric one per directed inter-router link, an
/// *island* metric one per clock domain (CDC occupancy, controller error).
///
/// Two metric kinds with different sampling semantics:
///  * Counter — a monotone `uint64`; the sampler records the per-window
///    delta, so summing a counter column over all windows reproduces the
///    underlying counter exactly (the conservation property test_obs
///    asserts against the network's global totals).
///  * Gauge — an instantaneous `double`, recorded as-is at each boundary.
///
/// The registry holds read callbacks only — registering is free of any
/// hot-path cost; components pay nothing until the sampler actually reads.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/latency_hist.hpp"
#include "obs/prof.hpp"

namespace nocdvfs::obs {

/// `telemetry=` scenario key. `Windows` samples tile/node/island metrics
/// every control window and records the event timeline; `Full` adds the
/// per-link columns. `Off` (the default) is bit-identical to a build
/// without the subsystem.
enum class TelemetryMode { Off, Windows, Full };

const char* to_string(TelemetryMode mode) noexcept;

/// Case-insensitive lookup; throws std::invalid_argument naming the
/// offending input and the valid set (the policy_from_string pattern).
TelemetryMode telemetry_mode_from_string(const std::string& name);

struct TelemetryConfig {
  TelemetryMode mode = TelemetryMode::Off;
  /// Output basename: the run writes `<out_base>.json` (Chrome
  /// trace-event / Perfetto) and `<out_base>.nocobs` (versioned binary).
  /// Empty keeps the timeline in memory only (the RunResult summary slice
  /// is still populated).
  std::string out_base;
  /// Entries kept in the RunResult top-k hot tile/link lists.
  int top_k = 8;

  bool enabled() const noexcept { return mode != TelemetryMode::Off; }
};

enum class MetricScope : std::uint8_t { Tile = 0, Node = 1, Link = 2, Island = 3 };
enum class MetricKind : std::uint8_t { Counter = 0, Gauge = 1 };

const char* to_string(MetricScope scope) noexcept;

/// One directed inter-router link, identified by its source (router, port)
/// and the router on the far end — the network's wiring order.
struct LinkInfo {
  int src_router = -1;
  int src_port = -1;
  int dst_router = -1;
};

class TelemetryRegistry {
 public:
  using CounterFn = std::function<std::uint64_t(int entity)>;
  using GaugeFn = std::function<double(int entity)>;

  struct Metric {
    std::string name;
    MetricScope scope = MetricScope::Tile;
    MetricKind kind = MetricKind::Counter;
    int entities = 0;
    CounterFn counter;  ///< kind == Counter
    GaugeFn gauge;      ///< kind == Gauge
  };

  void register_counter(std::string name, MetricScope scope, int entities, CounterFn read);
  void register_gauge(std::string name, MetricScope scope, int entities, GaugeFn read);

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  std::size_t size() const noexcept { return metrics_.size(); }

 private:
  void check_new(const std::string& name, int entities) const;

  std::vector<Metric> metrics_;
};

/// One sampled metric over the whole run, window-major: entry
/// `w * entities + e` is window `w`, entity `e`. Counters carry per-window
/// deltas in `counts`, gauges instantaneous values in `gauges`.
struct MetricSeries {
  std::string name;
  MetricScope scope = MetricScope::Tile;
  MetricKind kind = MetricKind::Counter;
  int entities = 0;
  std::vector<std::uint64_t> counts;
  std::vector<double> gauges;

  std::uint64_t count_at(int window, int entity) const {
    return counts[static_cast<std::size_t>(window * entities + entity)];
  }
  double gauge_at(int window, int entity) const {
    return gauges[static_cast<std::size_t>(window * entities + entity)];
  }
  /// Σ over all windows (counters): the underlying counter's final value.
  std::uint64_t entity_total(int entity) const;
};

/// Event kinds on the run timeline. `island < 0` means network/global
/// scope. The `a`/`b` payloads per kind:
///  * DvfsActuation — a = new frequency [Hz], b = previous frequency
///  * ThrottleEngage / ThrottleRelease — a = peak tile temperature [C]
///  * FaultEpoch — a = failed links, b = failed routers (totals after)
///  * Reroute — a = rerouted pairs, b = unreachable pairs (after rebuild)
///  * MeasureStart / MeasureEnd — none
///  * Settled — a = settled frequency [Hz]
enum class EventKind : std::uint8_t {
  DvfsActuation = 0,
  ThrottleEngage = 1,
  ThrottleRelease = 2,
  FaultEpoch = 3,
  Reroute = 4,
  MeasureStart = 5,
  MeasureEnd = 6,
  Settled = 7,
};

const char* to_string(EventKind kind) noexcept;

struct TimelineEvent {
  EventKind kind = EventKind::DvfsActuation;
  std::int32_t island = -1;
  std::uint64_t t_ps = 0;
  double a = 0.0;
  double b = 0.0;
};

/// Per-(window, island) control-plane sample, row-major by window.
struct IslandWindowRow {
  double f_hz = 0.0;          ///< frequency in force after the window's update
  double vdd = 0.0;
  double avg_delay_ns = 0.0;  ///< mean delay of packets ejected in the window
  double lambda_offered = 0.0;
  double occupancy = 0.0;     ///< mean buffer-occupancy fraction
  double ctrl_error = 0.0;    ///< controller's last normalized error term
  std::uint8_t throttled = 0;
};

/// One sweep point executed by one SweepRunner worker, timestamped on the
/// host clock relative to the sweep start — the Perfetto host process
/// renders these as per-worker track spans.
struct HostWorkerSpan {
  std::int32_t worker = 0;
  std::uint64_t point = 0;  ///< row-major sweep point index
  std::uint64_t t0_ns = 0;  ///< host time relative to sweep start
  std::uint64_t t1_ns = 0;
};

/// Whole-sweep utilization summary of one SweepRunner worker.
struct HostWorkerStats {
  std::int32_t worker = 0;
  std::uint64_t points = 0;   ///< sweep points this worker executed
  std::uint64_t busy_ns = 0;  ///< Σ point wall time on this worker
};

/// The complete observable record of one run: header, per-window columnar
/// metric series, per-island control rows and the event timeline. This is
/// what the binary format serializes and `nocdvfs_report` renders.
struct Timeline {
  /// 4: histogram bucket indices are LatencyHistogram's log-linear
  /// 32-per-octave buckets (3 had two sub-buckets per octave).
  static constexpr std::uint32_t kVersion = 4;

  /// Format version of the file this timeline was read from. Writers
  /// always emit kVersion and the reader accepts no other version.
  std::uint32_t version = kVersion;

  int width = 0;   ///< NI grid (nodes)
  int height = 0;
  int num_routers = 0;
  int num_islands = 0;
  int concentration = 1;
  double f_node_hz = 0.0;
  std::uint64_t control_period_node_cycles = 0;

  std::vector<std::string> island_policy;  ///< controller name per island
  std::vector<int> island_nodes;           ///< NI count per island

  std::vector<std::uint64_t> window_t_ps;  ///< window *end* instants, ascending
  std::vector<IslandWindowRow> island_rows;  ///< windows × islands, row-major
  std::vector<LinkInfo> links;               ///< link-scope entity table
  std::vector<MetricSeries> series;
  std::vector<TimelineEvent> events;
  // --- v2 sections (empty when reading a v1 file) ---
  std::vector<FlightRecord> flights;         ///< sampled packet journeys
  std::vector<HistogramSnapshot> histograms; ///< latency distributions
  // --- v3 sections (empty when reading a v1/v2 file) ---
  /// Run-provenance manifest entries (scenario.*, build.*, host.*, mem.*).
  std::vector<std::pair<std::string, std::string>> manifest;
  /// Host phase profile, preorder (prof=on runs; see obs/prof.hpp).
  std::vector<PhaseStats> host_phases;
  /// SweepRunner per-point worker spans + per-worker utilization (sweep
  /// host timelines only; empty for a single run's export).
  std::vector<HostWorkerSpan> host_spans;
  std::vector<HostWorkerStats> host_workers;

  int windows() const noexcept { return static_cast<int>(window_t_ps.size()); }
  const IslandWindowRow& island_row(int window, int island) const {
    return island_rows[static_cast<std::size_t>(window * num_islands + island)];
  }
  /// First series with this name, or nullptr.
  const MetricSeries* find_series(const std::string& name) const noexcept;
};

/// Snapshots a registry into columnar series. Counter baselines are taken
/// at construction, so the first window's deltas cover everything since
/// then; a final sample at run teardown closes the last window and makes
/// the per-entity column sums equal the live counters exactly.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(const TelemetryRegistry& registry);

  /// Append one window: record counter deltas since the previous sample
  /// and instantaneous gauge values for every registered metric.
  void sample();

  int windows() const noexcept { return windows_; }

  /// Move the accumulated series into `timeline.series`.
  void finish(Timeline& timeline);

 private:
  const TelemetryRegistry& registry_;
  std::vector<MetricSeries> series_;
  /// Previous counter values, one slot per (counter metric, entity), in
  /// registration order.
  std::vector<std::uint64_t> prev_counts_;
  int windows_ = 0;
};

}  // namespace nocdvfs::obs
