#pragma once

/// \file metrics.hpp
/// Result record of one simulation run — everything the paper's figures
/// plot (delay in ns, latency in NoC cycles, power, frequency) plus the
/// diagnostics the harness uses (saturation flags, controller settling).

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dvfs/dvfs_manager.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "power/power_model.hpp"
#include "vfi/residency.hpp"

namespace nocdvfs::sim {

/// One control window's worth of observations: the trace a transient
/// analysis (load steps, PI settling) reads.
struct WindowSample {
  common::Picoseconds t = 0;        ///< window end instant
  double avg_delay_ns = 0.0;        ///< mean delay of packets ejected in the window
  std::uint64_t packets = 0;
  common::Hertz f_applied = 0.0;    ///< frequency in force after the update
};

/// Per-voltage-frequency-island slice of a run: each island has its own
/// controller, (V, F) actuation history and energy attribution. A
/// single-island (global) run has exactly one entry whose values coincide
/// with the global fields of RunResult.
struct IslandResult {
  int island = 0;
  int nodes = 0;              ///< routers/NIs in the island
  std::string policy;         ///< controller name ("rmsd", "dmsd", ...)

  /// Packets whose *destination* lies in this island (the receiving nodes
  /// report delay, as in the paper's DMSD measurement path).
  std::uint64_t packets_delivered = 0;
  double avg_delay_ns = 0.0;

  // --- DVFS actuation, this island's domain ---
  double avg_frequency_hz = 0.0;  ///< time-weighted over the measurement
  double avg_voltage = 0.0;
  common::Hertz final_frequency_hz = 0.0;
  std::vector<dvfs::VfTracePoint> vf_trace;      ///< full-run actuation trace
  std::vector<vfi::FreqDwell> freq_residency;    ///< measurement-window dwell per VF level

  // --- island-scope measurement ---
  std::uint64_t measure_noc_cycles = 0;  ///< cycles of this island's clock
  double avg_buffer_occupancy = 0.0;     ///< fraction of this island's capacity
  power::PowerBreakdown power;           ///< island energies sum to RunResult::power

  // --- thermal (zero unless the run had thermal= enabled) ---
  double peak_temp_c = 0.0;          ///< max tile temperature over the measurement
  double throttle_residency = 0.0;   ///< fraction of measurement time throttled
  std::uint64_t throttle_events = 0; ///< distinct throttle engagements (whole run)
};

/// Thermal slice of a run — empty/zero when `thermal=` is off (the
/// default), so the off-path result is bit-identical to a build without
/// the subsystem. Temperatures are sampled inside the RC integration, so
/// peaks include intra-window excursions.
struct ThermalResult {
  bool enabled = false;
  double peak_temp_c = 0.0;   ///< max over tiles and time (measurement window)
  double mean_temp_c = 0.0;   ///< time-weighted mean of the tile-mean temperature
  double final_peak_temp_c = 0.0;  ///< hottest tile at measurement end
  double final_mean_temp_c = 0.0;  ///< tile mean at measurement end
  std::vector<double> tile_peak_temp_c;  ///< per-tile max over the measurement

  /// Node-weighted mean of the per-island throttle residencies.
  double throttle_residency = 0.0;
  std::uint64_t throttle_events = 0;  ///< engagements across all islands, whole run

  /// Temperature-resolved leakage split: `leakage_j` is the measured
  /// leakage energy at the actual tile temperatures (and equals
  /// RunResult::power.leakage_j); `leakage_ref_j` is what the
  /// temperature-blind model would have charged at the reference
  /// temperature. The difference is the self-heating excess.
  double leakage_j = 0.0;
  double leakage_ref_j = 0.0;
};

/// Telemetry summary slice of a run — empty/zero when `telemetry=` is off
/// (the default), so the off-path result is bit-identical to a build
/// without the subsystem. The full per-window timeline lives in the
/// exported files (see obs::Timeline); this slice is what the CSV/JSONL
/// sinks carry.
struct TelemetryResult {
  struct HotTile {
    int tile = -1;
    std::uint64_t flits = 0;  ///< crossbar traversals, whole run
  };
  struct HotLink {
    int src = -1;  ///< source router
    int dst = -1;  ///< destination router
    std::uint64_t flits = 0;  ///< flits forwarded over the directed link
  };

  bool enabled = false;
  std::string mode = "off";
  std::uint64_t windows = 0;  ///< sampled control windows (incl. the final one)

  // Whole-run stall breakdown summed over all routers (VC-cycles).
  std::uint64_t stall_route = 0;
  std::uint64_t stall_vc_alloc = 0;
  std::uint64_t stall_switch = 0;
  std::uint64_t stall_credit = 0;
  std::uint64_t stall_drop = 0;
  std::uint64_t busy_vc_cycles = 0;
  std::uint64_t flits_forwarded = 0;  ///< crossbar traversals, all routers

  std::vector<HotTile> top_tiles;  ///< by flits forwarded, descending
  std::vector<HotLink> top_links;  ///< by link flits, descending
};

/// Streaming latency-distribution slice of a run — empty/zero when `hist=`
/// is off (the default); the headline p50/p95/p99 are read from the same
/// delay histogram either way. Filled from the fixed-memory log-linear
/// histograms (obs::LatencyHistogram): counts and min/max are exact,
/// quantiles are within 1/32 (3.125%) of the true order statistic of the
/// delivered-packet population.
struct DelayDistResult {
  /// Percentile summary of one histogram. The unit is whatever the
  /// histogram recorded (ns for delay slices, NoC cycles for latency).
  struct Slice {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };

  bool enabled = false;
  Slice delay_ns;         ///< end-to-end packet delay, all delivered packets
  Slice latency_cycles;   ///< network latency in NoC clock cycles
  /// Per destination island (index = island id) — the receiving side's
  /// tail, matching the paper's DMSD measurement path.
  std::vector<Slice> island_delay_ns;
  /// Per delivered hop count (index = hops, capped at the longest seen).
  std::vector<Slice> hop_delay_ns;
};

/// Host-side observability slice of a run: wall time and peak RSS are
/// always measured (they are host facts, free to sample, and carried as
/// trailing CSV/JSONL columns); the phase profile is only populated for
/// `prof=on` runs. None of this feeds back into the simulation, so the
/// simulated metrics are bit-identical whether or not it is collected.
struct HostResult {
  double wall_s = 0.0;               ///< Simulator::run wall time, seconds
  std::uint64_t peak_rss_bytes = 0;  ///< process VmHWM after the run (0 = unavailable)
  obs::Profile profile;              ///< phase tree (prof=on runs only)
};

struct RunResult {
  // --- offered load ---
  double offered_lambda = 0.0;           ///< nominal, flits/node-cycle/node
  double measured_offered_lambda = 0.0;  ///< generated during measurement

  // --- measurement window extent ---
  std::uint64_t measure_node_cycles = 0;
  std::uint64_t measure_noc_cycles = 0;
  common::Picoseconds measure_duration_ps = 0;

  // --- packet delay / latency ---
  std::uint64_t packets_delivered = 0;
  double avg_delay_ns = 0.0;
  double min_delay_ns = 0.0;
  double max_delay_ns = 0.0;
  /// From the always-on delay histogram: within 1/32 of the exact order
  /// statistic (obs::LatencyHistogram::kRelativeError).
  double p50_delay_ns = 0.0;
  double p95_delay_ns = 0.0;
  double p99_delay_ns = 0.0;
  double avg_latency_cycles = 0.0;  ///< in NoC clock cycles
  double avg_hops = 0.0;
  std::uint64_t max_hops = 0;  ///< longest delivered path (router traversals + ejection)

  /// Per-traffic-class delay split. Class 1 carries round-trip-stamped
  /// replies in the request–reply workload; zero counts mean the class was
  /// absent.
  double avg_class0_delay_ns = 0.0;
  std::uint64_t class0_packets = 0;
  double avg_class1_delay_ns = 0.0;
  std::uint64_t class1_packets = 0;

  // --- throughput ---
  double delivered_flits_per_node_cycle = 0.0;  ///< per node
  double delivered_flits_per_noc_cycle = 0.0;   ///< per node

  /// Mean router-buffer occupancy over the measurement, as a fraction of
  /// total capacity (the QBSD sensing channel, reported for calibration).
  double avg_buffer_occupancy = 0.0;

  // --- DVFS actuation ---
  double avg_frequency_hz = 0.0;  ///< time-weighted over the measurement
  double avg_voltage = 0.0;       ///< time-weighted over the measurement
  common::Hertz final_frequency_hz = 0.0;
  /// Full-run actuation trace. Multi-island convention: this is *island
  /// 0's* trace (the domain global cycle-denominated metrics are counted
  /// in); every island's own trace lives in `islands[i].vf_trace`.
  std::vector<dvfs::VfTracePoint> vf_trace;
  std::vector<WindowSample> window_trace;    ///< one sample per control window

  // --- power ---
  power::PowerBreakdown power;

  // --- thermal (thermal= runs only; see ThermalResult) ---
  ThermalResult thermal;

  // --- telemetry (telemetry= runs only; see TelemetryResult) ---
  TelemetryResult telemetry;

  // --- latency distributions (hist= runs only; see DelayDistResult) ---
  DelayDistResult delay_dist;

  // --- host observability (see HostResult) ---
  HostResult host;

  /// Run-provenance manifest: scenario keys + seed (sufficient to re-run
  /// the point), build info, host calibration/wall/RSS, and the mem=on
  /// byte breakdown. Serialized by the sinks and the .nocobs v3 section.
  obs::RunManifest manifest;

  // --- derived efficiency metrics ---
  /// Total NoC energy per delivered payload bit over the measurement
  /// (pJ/bit); 0 when nothing was delivered.
  double energy_per_bit_pj = 0.0;
  /// Energy·delay product: total measurement energy × mean packet delay
  /// (joule·seconds) — the classic single-number efficiency/QoS trade-off.
  double energy_delay_product_js = 0.0;

  // --- voltage–frequency islands ---
  /// One entry per island (exactly one for the global single-domain
  /// configuration). Global cycle-denominated metrics above are counted in
  /// island 0's clock domain when several islands exist.
  std::vector<IslandResult> islands;

  // --- faults & reroute (zero on a fault-free run) ---
  std::uint64_t dropped_packets = 0;  ///< NI-refused + router-drained, whole run
  std::uint64_t dropped_flits = 0;
  std::int64_t unreachable_pairs = 0;  ///< ordered NI pairs with no surviving route
  std::int64_t rerouted_pairs = 0;     ///< router pairs bent off the fault-free table
  int failed_links = 0;                ///< undirected links currently down
  int failed_routers = 0;

  // --- diagnostics ---
  bool saturated = false;
  std::int64_t backlog_growth_flits = 0;
  std::uint64_t warmup_node_cycles_used = 0;
  bool controller_settled = true;

  double avg_frequency_ghz() const noexcept { return avg_frequency_hz * 1e-9; }
  double power_mw() const noexcept { return power.average_power_mw(); }
};

}  // namespace nocdvfs::sim
