#pragma once

/// \file scenario.hpp
/// The declarative experiment surface: one `Scenario` value describes a
/// complete run — workload (synthetic pattern / app task-graph / custom
/// traffic factory), DVFS policy, platform parameters and run phases —
/// and `run(scenario)` executes it. Every bench and example builds on
/// this type; `declare_keys` / `from_config` bind the whole surface to
/// `common::Config` so any scenario is expressible as `key=value`
/// overrides on the command line.
///
/// The paper's methodology is "each figure is a sweep over these
/// scenarios"; `sim/sweep.hpp` provides the cross-product sweep engine
/// on top of this type.

#include <functional>
#include <memory>
#include <string>

#include "apps/task_graph.hpp"
#include "common/config.hpp"
#include "dvfs/controller.hpp"
#include "sim/simulator.hpp"
#include "traffic/traffic_model.hpp"

namespace nocdvfs::sim {

enum class Policy { NoDvfs, Rmsd, RmsdClosed, Dmsd, Qbsd };

const char* to_string(Policy policy) noexcept;

/// Case-insensitive lookup; throws std::invalid_argument naming the
/// offending input and the valid set.
Policy policy_from_string(const std::string& name);

/// Policy parameters (only the fields relevant to the chosen policy are
/// read: lambda_max for RMSD, target/gains for DMSD).
struct PolicyConfig {
  Policy policy = Policy::NoDvfs;
  double lambda_max = 0.378;      ///< RMSD target network load (flits/noc-cycle/node)
  double target_delay_ns = 150.0; ///< DMSD delay target
  double ki = 0.025;              ///< paper's integral gain
  double kp = 0.0125;             ///< paper's proportional gain
  double occupancy_setpoint = 0.15;  ///< QBSD buffer-occupancy target (fraction)
};

std::unique_ptr<dvfs::DvfsController> make_controller(const PolicyConfig& cfg);

/// The task graph behind an app name; throws std::invalid_argument for
/// unknown names.
apps::TaskGraph app_graph(const std::string& app);

/// One fully specified experiment. Synthetic processes, app task graphs,
/// recorded packet traces and custom traffic factories are all states of
/// this single value type.
struct Scenario {
  enum class Workload { Synthetic, App, Trace, Custom };

  /// Builds the traffic model for a Custom-workload scenario. Called once
  /// per run, possibly concurrently from SweepRunner worker threads, so it
  /// must be a pure function of the scenario and its captures.
  using TrafficFactory =
      std::function<std::unique_ptr<traffic::TrafficModel>(const Scenario&)>;

  Workload workload = Workload::Synthetic;

  // --- synthetic workload (paper Secs. III–V) ---
  std::string pattern = "uniform";
  std::string process = "bernoulli";
  double lambda = 0.1;  ///< offered flits per node cycle per node
  double hotspot_fraction = 0.2;

  // --- app task-graph workload (paper Sec. VI) ---
  std::string app = "h264";    ///< "h264" (4×4) or "vce" (5×5)
  double speed = 1.0;          ///< relative to 75 frames/s
  double traffic_scale = 1.0;  ///< calibration multiplier on the rate matrix

  // --- trace replay workload (src/trace/) ---
  std::string trace_path;     ///< .noctrace file to replay (workload == Trace)
  double trace_scale = 1.0;   ///< replay time-warp; > 1 = higher offered load
  bool trace_loop = false;    ///< restart the stream when it ends

  // --- custom workload escape hatch ---
  TrafficFactory traffic_factory;  ///< required iff workload == Custom

  // --- recording (orthogonal to the workload) ---
  /// When non-empty, the run's injected packet stream is captured to this
  /// `.noctrace` file (any workload; see trace/recording_traffic.hpp).
  std::string record_path;

  // --- voltage–frequency islands (src/vfi/) ---
  /// Partition preset: global|rows|cols|quadrants|per_router|custom. Each
  /// island gets its own clock domain and DVFS controller instance;
  /// island-boundary links pay `cdc_sync_cycles` of synchronizer latency.
  std::string islands = "global";
  std::string island_map;        ///< node→island ids, row-major (islands=custom)
  int cdc_sync_cycles = 2;       ///< receiver-domain cycles per boundary crossing
  /// Comma-separated per-island policy overrides ("rmsd,dmsd,..."); empty =
  /// every island runs `policy`. Must have exactly one entry per island.
  std::string island_policies;

  // --- telemetry / observability (src/obs/) ---
  /// `off` (default; bit-identical to a build without src/obs/), `windows`
  /// (per-window tile/node/island metrics + event timeline), or `full`
  /// (adds per-link columns).
  std::string telemetry = "off";
  /// Output basename for the exported timeline: the run writes
  /// `<telemetry_out>.json` (Perfetto/Chrome trace-event) and
  /// `<telemetry_out>.nocobs` (versioned binary, read by nocdvfs_report).
  /// Empty keeps the timeline in memory (RunResult::telemetry only).
  /// Inert when telemetry=off.
  std::string telemetry_out;
  /// `on` enables the streaming latency histograms (global, per
  /// destination island, per hop count) surfaced in
  /// RunResult::delay_dist; `off` (default) is bit-identical to a build
  /// without them. Independent of `telemetry=`.
  std::string hist = "off";
  /// `on` samples whole packet journeys into the flight recorder and
  /// exports them with the telemetry timeline — requires `telemetry=` to
  /// be non-off (the flights ride in the `.nocobs`/Perfetto files).
  std::string pkt_trace = "off";
  /// Sample 1 in N packets (deterministic in the packet id); >= 1.
  std::uint64_t pkt_trace_rate = 64;
  /// `on` profiles the *host*: RAII phase scopes around the simulator
  /// main-loop phases feed a per-thread tree (RunResult::host.profile,
  /// nocdvfs_report profile, the Perfetto "host" process). Host-side
  /// only — simulated metrics are bit-identical either way; `off` (the
  /// default) costs one predictable branch per scope.
  std::string prof = "off";
  /// `on` adds a host memory breakdown (router buffers, source queues,
  /// packet table, timeline, flight recorder, histogram pool, VF and
  /// window traces) to the run manifest as `mem.*` entries. Computed
  /// once at end of run; no hot-path counters.
  std::string mem = "off";

  // --- thermal model & throttling (src/thermal/, dvfs/thermal_guard.hpp) ---
  /// Enable the RC thermal network, temperature-dependent leakage and the
  /// hysteretic thermal throttle. Off (the default) reproduces the
  /// temperature-blind simulator bit-identically.
  bool thermal = false;
  double thermal_step_ns = 1000.0;  ///< RC integration step (explicit Euler)
  double temp_ambient_c = 45.0;     ///< ambient / package sink temperature
  double temp_cap_c = 85.0;         ///< throttle engages at this peak tile temp
  double temp_hysteresis_c = 2.0;   ///< throttle releases at cap − hysteresis
  double rc_vertical = 3000.0;      ///< tile → heat-spreader resistance [K/W]
  double rc_lateral = 6000.0;       ///< tile ↔ neighbour-tile resistance [K/W]
  double leak_temp_coeff = 0.04;    ///< leakage ∝ exp(coeff·(T − T_ref)) [1/K]

  // --- platform ---
  noc::NetworkConfig network{};  ///< defaults: 5×5, 8 VCs, 4 flits/VC, XY
  /// Skip quiescent routers/NIs in the stepping hot path (see
  /// noc::NetworkConfig::skip_idle). Metrics-invisible; `false` forces the
  /// always-step discipline for A/B comparison and perf attribution.
  bool skip_idle = true;
  int packet_size = 20;          ///< flits per packet
  PolicyConfig policy{};
  std::uint64_t control_period = 10000;  ///< node cycles (paper: 10 000)
  common::Hertz f_node = 1e9;
  int vf_levels = 0;  ///< 0 = continuous frequency tuning, else discrete levels
  int flit_bits = 128;
  std::uint64_t seed = 1;
  /// Bound on each island's (t, F, V) actuation trace (most recent points
  /// kept); 0 = unbounded.
  std::uint64_t vf_trace_max = 0;
  RunPhases phases{};

  /// Register every scenario key on `c`, using `defaults` for the default
  /// values so a bench's base scenario round-trips through `--help`.
  static void declare_keys(common::Config& c, const Scenario& defaults);
  static void declare_keys(common::Config& c);

  /// Read every declared key back into a Scenario (the inverse of
  /// declare_keys; `workload=custom` additionally needs a traffic_factory
  /// assigned by the caller before the scenario can run).
  static Scenario from_config(const common::Config& c);
};

const char* to_string(Scenario::Workload workload) noexcept;

/// Execute one scenario: assemble the simulator for its workload variant
/// and run the standard phase protocol.
RunResult run(const Scenario& scenario);

/// Build (but do not run) the simulator for a scenario — for callers that
/// need to poke at the network or clock between phases.
std::unique_ptr<Simulator> make_simulator(const Scenario& scenario);

/// Validate a scenario before anything is built: "" when it is runnable,
/// else a human-readable description of the first problem, checked in
/// this order —
///  - islands: preset, custom map vs the *effective* mesh (an app workload
///    pins its own), per-island policy count, cdc_sync_cycles range;
///  - thermal (with `thermal=on` only; the keys are inert otherwise): step
///    vs the explicit-Euler stability bound, cap vs ambient, RC ranges;
///  - topology: shape and concentration, VCs for the routing's
///    deadlock-avoidance classes, fault spec, thermal only on the plain
///    mesh, no island splitting a concentrated tile;
///  - telemetry and the host on/off keys;
///  - workload inputs: `traffic_factory` for custom, `trace_path` for trace.
/// `make_simulator` throws it; `SweepRunner` prefixes it with the offending
/// point/axis.
std::string scenario_problem(const Scenario& scenario);

/// Nominal mean offered load (flits/node-cycle/node). For app workloads
/// this derives from the task-graph rate matrix at the scenario's speed
/// and traffic_scale — the quantity the multimedia benches report
/// alongside the speed axis. For trace workloads it reads the trace file
/// (total flits over the scaled span, per target-mesh node). Custom
/// workloads must instantiate their traffic model to answer, so this
/// throws for them.
double mean_lambda(const Scenario& scenario);

}  // namespace nocdvfs::sim
