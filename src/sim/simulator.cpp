#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "common/stats.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/latency_hist.hpp"
#include "obs/manifest.hpp"
#include "obs/memstats.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"

namespace nocdvfs::sim {

using common::Picoseconds;

namespace {

/// Round `cycles` up to the next multiple of `period` (at least one period):
/// phase boundaries must coincide with control updates.
std::uint64_t round_up_to_period(std::uint64_t cycles, std::uint64_t period) {
  if (cycles == 0) return period;
  return ((cycles + period - 1) / period) * period;
}

power::RouterGeometry geometry_from(const noc::Network& net, int flit_bits) {
  power::RouterGeometry g;
  // Mesh routers have radix kMeshPorts; concentrated/high-radix topologies
  // size the energy model by their largest router.
  g.num_ports = net.topology_model().max_radix();
  g.num_vcs = net.config().num_vcs;
  g.buffer_depth = net.config().vc_buffer_depth;
  g.flit_bits = flit_bits;
  return g;
}

std::vector<std::unique_ptr<dvfs::DvfsController>> checked_controllers(
    std::vector<std::unique_ptr<dvfs::DvfsController>> controllers, int num_islands) {
  if (static_cast<int>(controllers.size()) != num_islands) {
    throw std::invalid_argument("Simulator: got " + std::to_string(controllers.size()) +
                                " controllers for " + std::to_string(num_islands) +
                                " islands (need exactly one per island)");
  }
  for (const auto& c : controllers) {
    if (!c) throw std::invalid_argument("Simulator: null controller");
  }
  return controllers;
}

std::vector<common::Hertz> start_frequencies(int num_islands, common::Hertz f) {
  return std::vector<common::Hertz>(static_cast<std::size_t>(num_islands), f);
}

}  // namespace

Simulator::Simulator(const SimulatorConfig& cfg, std::unique_ptr<traffic::TrafficModel> traffic,
                     std::unique_ptr<dvfs::DvfsController> controller, power::VfCurve curve)
    : Simulator(cfg, std::move(traffic),
                [&controller] {
                  std::vector<std::unique_ptr<dvfs::DvfsController>> v;
                  v.push_back(std::move(controller));
                  return v;
                }(),
                std::move(curve)) {}

Simulator::Simulator(const SimulatorConfig& cfg, std::unique_ptr<traffic::TrafficModel> traffic,
                     std::vector<std::unique_ptr<dvfs::DvfsController>> controllers,
                     power::VfCurve curve)
    : cfg_(cfg),
      net_(cfg.network),
      traffic_(std::move(traffic)),
      bank_(checked_controllers(std::move(controllers), cfg.network.num_islands()),
            std::move(curve), cfg.f_node, cfg.control_period_node_cycles, cfg.vf_trace_max),
      energy_(geometry_from(net_, cfg.flit_bits), cfg.energy_params),
      clock_(cfg.f_node, start_frequencies(cfg.network.num_islands(), bank_.f_start())) {
  if (!traffic_) throw std::invalid_argument("Simulator: null traffic model");
}

RunResult Simulator::run(const RunPhases& phases) {
  // Host observability: the wall clock always runs (it is a host fact,
  // free to read); the phase collector only exists for prof=on runs and
  // is installed thread-locally, so parallel sweep workers with mixed
  // prof settings never contaminate each other. Neither feeds anything
  // back into the simulation.
  const auto host_t0 = std::chrono::steady_clock::now();
  obs::prof::Collector prof_collector;
  if (cfg_.prof) prof_collector.install();

  const std::uint64_t period = bank_.control_period_node_cycles();
  const std::uint64_t warmup_target = round_up_to_period(phases.warmup_node_cycles, period);
  const std::uint64_t max_warmup =
      std::max(round_up_to_period(phases.max_warmup_node_cycles, period), warmup_target);
  const std::uint64_t measure_span = round_up_to_period(phases.measure_node_cycles, period);

  const int n_islands = bank_.num_islands();

  // --- per-island run state ---
  /// Control-window accumulators (reset at every control boundary).
  struct IslandWindow {
    double delay_sum_ns = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t start_gen = 0;
    std::uint64_t start_inj = 0;
    std::uint64_t start_noc_cycles = 0;
    std::uint64_t occupancy_sum = 0;  ///< Σ buffered flits, one sample per island cycle
    double buffer_capacity = 0.0;
    int nodes = 0;
  };
  /// Measurement-phase accumulators (opened at begin_measurement).
  struct IslandMeasure {
    std::uint64_t start_noc = 0;
    std::uint64_t occupancy_sum = 0;
    common::RunningStats delay_stats;
    common::TimeWeightedAverage freq_avg;
    common::TimeWeightedAverage volt_avg;
    vfi::FreqResidency residency;
  };
  // With thermal enabled the per-tile accumulator is the (sole) energy
  // accounting path — tiles sum to islands sum to the total — so the
  // island-wide accumulators are not built at all.
  std::vector<IslandWindow> win(static_cast<std::size_t>(n_islands));
  std::vector<IslandMeasure> meas(static_cast<std::size_t>(n_islands));
  std::vector<power::PowerAccumulator> power_accs;
  power_accs.reserve(static_cast<std::size_t>(n_islands));
  for (int i = 0; i < n_islands; ++i) {
    win[static_cast<std::size_t>(i)].buffer_capacity =
        static_cast<double>(net_.island_buffer_capacity_flits(i));
    win[static_cast<std::size_t>(i)].nodes =
        static_cast<int>(net_.island_members(i).size());
    if (!cfg_.thermal.enabled) power_accs.emplace_back(energy_, net_.island_inventory(i));
  }

  // --- settle detection (every island must settle) ---
  std::vector<std::deque<double>> recent_freqs(static_cast<std::size_t>(n_islands));
  auto island_settled = [&](int i) {
    const auto& freqs = recent_freqs[static_cast<std::size_t>(i)];
    if (static_cast<int>(freqs.size()) < phases.settle_windows) return false;
    const auto [lo, hi] = std::minmax_element(freqs.begin(), freqs.end());
    return (*hi - *lo) <= phases.settle_tol * (*hi);
  };
  auto settled = [&]() {
    for (int i = 0; i < n_islands; ++i) {
      if (!island_settled(i)) return false;
    }
    return true;
  };

  // --- global measurement state (as in the single-domain protocol) ---
  bool measuring = false;
  std::uint64_t measure_start_node = 0;
  std::uint64_t measure_start_noc = 0;
  Picoseconds measure_start_ps = 0;
  std::uint64_t measure_start_gen = 0;
  std::uint64_t measure_start_ej = 0;
  std::uint64_t measure_start_backlog = 0;
  std::uint64_t measure_start_dropped = 0;
  common::RunningStats delay_stats;
  common::RunningStats latency_stats;
  common::RunningStats hops_stats;
  common::RunningStats class_delay_stats[2];
  common::Histogram delay_hist(0.0, 8000.0, 2000);

  RunResult result;
  result.offered_lambda = traffic_->offered_flits_per_node_cycle();

  const int n_nodes = net_.num_nodes();

  // --- thermal state (only when enabled; the off path is untouched) ---
  const bool thermal_on = cfg_.thermal.enabled;
  std::unique_ptr<thermal::ThermalModel> therm;
  std::unique_ptr<power::TilePowerAccumulator> tile_acc;
  std::unique_ptr<dvfs::ThermalGuard> guard;
  std::vector<power::ActivityCounters> tile_activity;
  std::vector<std::uint64_t> tile_cycles;
  std::vector<double> tile_vdd;
  /// Per-island frequency caps the guard derives each boundary; 0 = none.
  std::vector<common::Hertz> island_caps(static_cast<std::size_t>(n_islands), 0.0);
  std::vector<Picoseconds> throttled_ps(static_cast<std::size_t>(n_islands), 0);
  std::vector<double> leak_snap_j, leak_ref_snap_j;  ///< per-tile, at measurement start
  Picoseconds last_boundary_ps = 0;

  auto snapshot_tiles = [&]() {
    for (noc::NodeId id = 0; id < n_nodes; ++id) {
      const std::size_t t = static_cast<std::size_t>(id);
      const int isl = net_.island_of(id);
      tile_activity[t] = net_.node_activity(id);
      tile_cycles[t] = clock_.noc_cycles(isl);
      tile_vdd[t] = bank_.manager(isl).current_voltage();
    }
  };

  if (thermal_on) {
    therm = std::make_unique<thermal::ThermalModel>(
        cfg_.network.width, cfg_.network.height, cfg_.thermal.params, cfg_.thermal.step_ps);
    std::vector<power::TileInventory> tiles;
    tiles.reserve(static_cast<std::size_t>(n_nodes));
    for (noc::NodeId id = 0; id < n_nodes; ++id) tiles.push_back(net_.node_inventory(id));
    tile_acc = std::make_unique<power::TilePowerAccumulator>(energy_, std::move(tiles));
    guard = std::make_unique<dvfs::ThermalGuard>(cfg_.thermal.guard, n_islands);
    tile_activity.resize(static_cast<std::size_t>(n_nodes));
    tile_cycles.resize(static_cast<std::size_t>(n_nodes));
    tile_vdd.resize(static_cast<std::size_t>(n_nodes));
    snapshot_tiles();
    tile_acc->start(clock_.now(), tile_activity, tile_cycles);
  }

  // --- telemetry state (only when enabled; the off path is untouched) ---
  const bool telem_on = cfg_.telemetry.enabled();
  const bool telem_full = cfg_.telemetry.mode == obs::TelemetryMode::Full;
  std::unique_ptr<obs::TelemetryRegistry> telem_reg;
  std::unique_ptr<obs::TelemetrySampler> telem_sampler;
  obs::Timeline timeline;
  /// Islands whose first-settle instant has already been recorded.
  std::vector<std::uint8_t> telem_settled(static_cast<std::size_t>(n_islands), 0);
  std::size_t fault_epochs_seen = 0;
  if (telem_on) {
    net_.set_stall_tracking(true);
    telem_reg = std::make_unique<obs::TelemetryRegistry>();
    net_.register_telemetry(*telem_reg, telem_full);
    telem_sampler = std::make_unique<obs::TelemetrySampler>(*telem_reg);
    timeline.width = cfg_.network.width;
    timeline.height = cfg_.network.height;
    timeline.num_routers = net_.num_routers();
    timeline.num_islands = n_islands;
    timeline.concentration = cfg_.network.concentration;
    timeline.f_node_hz = cfg_.f_node;
    timeline.control_period_node_cycles = period;
    for (int i = 0; i < n_islands; ++i) {
      timeline.island_policy.push_back(bank_.manager(i).controller().name());
      timeline.island_nodes.push_back(win[static_cast<std::size_t>(i)].nodes);
    }
    if (telem_full) timeline.links = net_.link_table();
  }

  // --- latency-distribution state (hist=; the off path is untouched) ---
  const bool hist_on = cfg_.hist;
  /// Hop counts above this share the last bucket (fixed memory; a packet
  /// cannot take more hops than this on any supported topology/size).
  constexpr std::size_t kMaxHopSlices = 64;
  obs::LatencyHistogram hist_delay_ps;       ///< end-to-end delay, integer ps
  obs::LatencyHistogram hist_latency_cycles;
  std::vector<obs::LatencyHistogram> hist_island_delay;  ///< by destination island
  std::vector<obs::LatencyHistogram> hist_hop_delay;     ///< by hop count, grown on demand
  if (hist_on) hist_island_delay.resize(static_cast<std::size_t>(n_islands));

  // --- packet flight recorder (pkt_trace=; rides in the telemetry files) ---
  std::unique_ptr<obs::FlightRecorder> flight_rec;
  if (telem_on && cfg_.pkt_trace) {
    obs::FlightRecorder::Config fr_cfg;
    fr_cfg.rate = std::max<std::uint64_t>(cfg_.pkt_trace_rate, 1);
    flight_rec = std::make_unique<obs::FlightRecorder>(fr_cfg);
    net_.set_flight_recorder(flight_rec.get());
  }

  /// Append FaultEpoch/Reroute events for every fault epoch the network has
  /// applied since the last drain (timestamped at the epoch itself, which
  /// generally falls inside the preceding window).
  auto telemetry_drain_faults = [&]() {
    const auto& epochs = net_.fault_epochs();
    for (; fault_epochs_seen < epochs.size(); ++fault_epochs_seen) {
      const noc::Network::FaultEpochRecord& ep = epochs[fault_epochs_seen];
      const auto t = static_cast<std::uint64_t>(ep.t_ps);
      timeline.events.push_back({obs::EventKind::FaultEpoch, -1, t,
                                 static_cast<double>(ep.failed_links),
                                 static_cast<double>(ep.failed_routers)});
      timeline.events.push_back({obs::EventKind::Reroute, -1, t,
                                 static_cast<double>(ep.rerouted_pairs),
                                 static_cast<double>(ep.unreachable_pairs)});
    }
  };

  /// Window sampling at a control boundary, *after* the control updates
  /// ran: stamp the window end, snapshot every registered metric, and
  /// record each island's first settle instant.
  auto telemetry_boundary = [&]() {
    timeline.window_t_ps.push_back(static_cast<std::uint64_t>(clock_.now()));
    telem_sampler->sample();
    for (int i = 0; i < n_islands; ++i) {
      if (!telem_settled[static_cast<std::size_t>(i)] && island_settled(i)) {
        telem_settled[static_cast<std::size_t>(i)] = 1;
        timeline.events.push_back({obs::EventKind::Settled, i,
                                   static_cast<std::uint64_t>(clock_.now()),
                                   bank_.manager(i).current_frequency(), 0.0});
      }
    }
  };

  auto process_delivered = [&]() {
    if (net_.delivered().empty()) return;
    for (const auto& rec : net_.delivered()) {
      const double d_ns = rec.delay_ns();
      // The receiving nodes report delay (the paper's DMSD measurement
      // path), so a packet belongs to its destination's island.
      const int isl = net_.island_of(rec.dst);
      IslandWindow& w = win[static_cast<std::size_t>(isl)];
      w.delay_sum_ns += d_ns;
      ++w.packets;
      if (measuring) {
        delay_stats.add(d_ns);
        latency_stats.add(static_cast<double>(rec.latency_cycles()));
        hops_stats.add(static_cast<double>(rec.hops));
        delay_hist.add(d_ns);
        class_delay_stats[rec.traffic_class == 0 ? 0 : 1].add(d_ns);
        meas[static_cast<std::size_t>(isl)].delay_stats.add(d_ns);
        if (hist_on) {
          // Integer picoseconds: timestamps are integer ps, so this is the
          // exact delay (the double d_ns above is the same quantity scaled).
          const auto d_ps = static_cast<std::uint64_t>(rec.eject_time_ps - rec.create_time_ps);
          hist_delay_ps.record(d_ps);
          hist_latency_cycles.record(rec.latency_cycles());
          hist_island_delay[static_cast<std::size_t>(isl)].record(d_ps);
          const std::size_t h =
              std::min(static_cast<std::size_t>(rec.hops), kMaxHopSlices - 1);
          if (h >= hist_hop_delay.size()) hist_hop_delay.resize(h + 1);
          hist_hop_delay[h].record(d_ps);
        }
      }
      // Closed-loop workloads (request–reply) react to deliveries.
      traffic_->on_packet_delivered(rec, clock_.now());
    }
    net_.delivered().clear();
  };

  /// Thermal bookkeeping at a control boundary, *before* the control
  /// updates run: close the elapsed per-tile power interval (constant
  /// (V, F) per tile over it), integrate the RC network up to now under
  /// that zero-order-hold drive, account throttle residency for the
  /// elapsed interval, and refresh the per-island guard caps the updates
  /// below will apply.
  auto thermal_boundary = [&]() {
    snapshot_tiles();
    tile_acc->sample(clock_.now(), tile_activity, tile_cycles, tile_vdd, measuring);
    therm->advance(clock_.now(), tile_acc->dynamic_w(), tile_acc->leakage_nominal_w());
    if (measuring) {
      for (int i = 0; i < n_islands; ++i) {
        if (guard->throttled(i)) {
          throttled_ps[static_cast<std::size_t>(i)] += clock_.now() - last_boundary_ps;
        }
      }
    }
    last_boundary_ps = clock_.now();
    for (int i = 0; i < n_islands; ++i) {
      double peak = cfg_.thermal.params.ambient_c;
      for (const noc::NodeId id : net_.island_members(i)) {
        peak = std::max(peak, therm->tile_temp_c(id));
      }
      const bool was_throttled = guard->throttled(i);
      const bool throttle = guard->observe(i, peak);
      if (telem_on && throttle != was_throttled) {
        timeline.events.push_back({throttle ? obs::EventKind::ThrottleEngage
                                            : obs::EventKind::ThrottleRelease,
                                   i, static_cast<std::uint64_t>(clock_.now()), peak, 0.0});
      }
      island_caps[static_cast<std::size_t>(i)] =
          throttle ? (cfg_.thermal.guard.f_throttle > 0.0 ? cfg_.thermal.guard.f_throttle
                                                          : bank_.manager(i).f_min())
                   : 0.0;
    }
  };

  auto do_control_update = [&](int i) {
    IslandWindow& w = win[static_cast<std::size_t>(i)];
    IslandMeasure& m_state = meas[static_cast<std::size_t>(i)];
    dvfs::WindowMeasurements m;
    m.window_node_cycles = period;
    m.window_noc_cycles = clock_.noc_cycles(i) - w.start_noc_cycles;
    const std::uint64_t gen = net_.island_flits_generated(i);
    const std::uint64_t inj = net_.island_flits_injected(i);
    m.lambda_node_offered = static_cast<double>(gen - w.start_gen) /
                            (static_cast<double>(w.nodes) * static_cast<double>(period));
    m.lambda_noc_injected =
        m.window_noc_cycles > 0
            ? static_cast<double>(inj - w.start_inj) /
                  (static_cast<double>(w.nodes) * static_cast<double>(m.window_noc_cycles))
            : 0.0;
    m.packets_delivered = w.packets;
    m.avg_delay_ns = w.packets > 0 ? w.delay_sum_ns / w.packets : 0.0;
    m.avg_buffer_occupancy =
        m.window_noc_cycles > 0
            ? static_cast<double>(w.occupancy_sum) /
                  (static_cast<double>(m.window_noc_cycles) * w.buffer_capacity)
            : 0.0;

    const common::Hertz before = bank_.manager(i).current_frequency();
    const common::Hertz applied =
        bank_.apply_update(i, clock_.now(), m, island_caps[static_cast<std::size_t>(i)]);
    if (std::abs(applied - before) > 1e3) {
      if (telem_on) {
        timeline.events.push_back({obs::EventKind::DvfsActuation, i,
                                   static_cast<std::uint64_t>(clock_.now()), applied, before});
      }
      clock_.set_noc_frequency(i, applied);
      if (measuring) {
        if (!thermal_on) {
          power_accs[static_cast<std::size_t>(i)].change_operating_point(
              clock_.now(), net_.island_activity(i), clock_.noc_cycles(i),
              bank_.manager(i).current_voltage(), applied);
        }
        m_state.freq_avg.set(common::seconds_from_ps(clock_.now()), applied);
        m_state.volt_avg.set(common::seconds_from_ps(clock_.now()),
                             bank_.manager(i).current_voltage());
        m_state.residency.on_change(clock_.now(), applied);
      }
    }
    auto& freqs = recent_freqs[static_cast<std::size_t>(i)];
    freqs.push_back(applied);
    while (static_cast<int>(freqs.size()) > phases.settle_windows) freqs.pop_front();

    if (telem_on) {
      obs::IslandWindowRow row;
      row.f_hz = bank_.manager(i).current_frequency();
      row.vdd = bank_.manager(i).current_voltage();
      row.avg_delay_ns = m.avg_delay_ns;
      row.lambda_offered = m.lambda_node_offered;
      row.occupancy = m.avg_buffer_occupancy;
      row.ctrl_error = bank_.manager(i).controller().last_error();
      row.throttled = static_cast<std::uint8_t>((thermal_on && guard->throttled(i)) ? 1 : 0);
      timeline.island_rows.push_back(row);
    }

    w.start_gen = gen;
    w.start_inj = inj;
    w.start_noc_cycles = clock_.noc_cycles(i);
    w.delay_sum_ns = 0.0;
    w.packets = 0;
    w.occupancy_sum = 0;
    return m;
  };

  auto do_control_updates = [&]() {
    if (n_islands == 1) {
      const dvfs::WindowMeasurements m = do_control_update(0);
      result.window_trace.push_back({clock_.now(), m.avg_delay_ns, m.packets_delivered,
                                     bank_.manager(0).current_frequency()});
      return;
    }
    double delay_sum = 0.0;
    std::uint64_t packets = 0;
    double freq_nodes = 0.0;
    for (int i = 0; i < n_islands; ++i) {
      // Capture the window sums before do_control_update resets them.
      delay_sum += win[static_cast<std::size_t>(i)].delay_sum_ns;
      packets += win[static_cast<std::size_t>(i)].packets;
      do_control_update(i);
      freq_nodes += bank_.manager(i).current_frequency() *
                    static_cast<double>(win[static_cast<std::size_t>(i)].nodes);
    }
    WindowSample sample;
    sample.t = clock_.now();
    sample.packets = packets;
    sample.avg_delay_ns = packets > 0 ? delay_sum / static_cast<double>(packets) : 0.0;
    sample.f_applied = freq_nodes / static_cast<double>(n_nodes);
    result.window_trace.push_back(sample);
  };

  auto begin_measurement = [&]() {
    measuring = true;
    measure_start_node = clock_.node_cycles();
    measure_start_noc = clock_.noc_cycles(0);
    measure_start_ps = clock_.now();
    measure_start_gen = net_.total_flits_generated();
    measure_start_ej = net_.total_flits_ejected();
    measure_start_backlog = net_.total_source_backlog_flits();
    measure_start_dropped = net_.total_flits_dropped();
    for (int i = 0; i < n_islands; ++i) {
      IslandMeasure& m_state = meas[static_cast<std::size_t>(i)];
      const common::Hertz f = bank_.manager(i).current_frequency();
      const double v = bank_.manager(i).current_voltage();
      if (!thermal_on) {
        power_accs[static_cast<std::size_t>(i)].start(clock_.now(), net_.island_activity(i),
                                                      clock_.noc_cycles(i), v, f);
      }
      m_state.freq_avg.set(common::seconds_from_ps(clock_.now()), f);
      m_state.volt_avg.set(common::seconds_from_ps(clock_.now()), v);
      m_state.residency.begin(clock_.now(), f);
      m_state.start_noc = clock_.noc_cycles(i);
    }
    result.warmup_node_cycles_used = clock_.node_cycles();
    result.controller_settled = settled() || !phases.adaptive_warmup;
    if (telem_on) {
      timeline.events.push_back({obs::EventKind::MeasureStart, -1,
                                 static_cast<std::uint64_t>(clock_.now()), 0.0, 0.0});
    }
    if (thermal_on) {
      // Warmup temperatures carry over (the die does not cool between
      // phases); only the statistics and energy counters reset.
      tile_acc->reset_energy();
      therm->reset_stats();
      leak_snap_j = therm->tile_leakage_j();
      leak_ref_snap_j = therm->tile_leakage_ref_j();
      std::fill(throttled_ps.begin(), throttled_ps.end(), Picoseconds{0});
    }
  };

  auto finalize = [&]() {
    const double t_end_s = common::seconds_from_ps(clock_.now());
    for (int i = 0; i < n_islands; ++i) {
      if (!thermal_on) {
        power_accs[static_cast<std::size_t>(i)].stop(clock_.now(), net_.island_activity(i),
                                                     clock_.noc_cycles(i));
      }
      meas[static_cast<std::size_t>(i)].residency.end(clock_.now());
    }
    if (!thermal_on) {
      for (const auto& acc : power_accs) {
        result.power.datapath_j += acc.breakdown().datapath_j;
        result.power.clock_j += acc.breakdown().clock_j;
        result.power.leakage_j += acc.breakdown().leakage_j;
      }
      result.power.elapsed_ps += power_accs.front().breakdown().elapsed_ps;
    } else {
      // Temperature-resolved attribution: charge each tile the leakage the
      // RC integration accumulated at its actual temperatures over the
      // measurement window, then sum tiles into the run total (and below,
      // tiles into islands — so islands still sum to the total exactly).
      std::vector<double> leak_meas(static_cast<std::size_t>(n_nodes), 0.0);
      std::vector<double> leak_ref_meas(static_cast<std::size_t>(n_nodes), 0.0);
      const std::vector<double>& leak_now = therm->tile_leakage_j();
      const std::vector<double>& leak_ref_now = therm->tile_leakage_ref_j();
      for (int t = 0; t < n_nodes; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        leak_meas[ti] = leak_now[ti] - leak_snap_j[ti];
        leak_ref_meas[ti] = leak_ref_now[ti] - leak_ref_snap_j[ti];
      }
      tile_acc->add_leakage_j(leak_meas);
      for (const power::PowerBreakdown& tile : tile_acc->tiles()) {
        result.power.datapath_j += tile.datapath_j;
        result.power.clock_j += tile.clock_j;
        result.power.leakage_j += tile.leakage_j;
      }
      result.power.elapsed_ps = clock_.now() - measure_start_ps;

      result.thermal.enabled = true;
      result.thermal.peak_temp_c = therm->window_peak_c();
      result.thermal.mean_temp_c = therm->window_mean_c();
      result.thermal.final_peak_temp_c = therm->peak_temp_c();
      result.thermal.final_mean_temp_c = therm->mean_temp_c();
      result.thermal.tile_peak_temp_c = therm->tile_peak_c();
      for (const double j : leak_meas) result.thermal.leakage_j += j;
      for (const double j : leak_ref_meas) result.thermal.leakage_ref_j += j;
      const double dur_ps = static_cast<double>(clock_.now() - measure_start_ps);
      double residency_nodes = 0.0;
      for (int i = 0; i < n_islands; ++i) {
        const std::size_t ii = static_cast<std::size_t>(i);
        result.thermal.throttle_events += guard->engage_count(i);
        if (dur_ps > 0.0) {
          residency_nodes += static_cast<double>(throttled_ps[ii]) / dur_ps *
                             static_cast<double>(win[ii].nodes);
        }
      }
      result.thermal.throttle_residency = residency_nodes / static_cast<double>(n_nodes);
    }
    result.measure_node_cycles = clock_.node_cycles() - measure_start_node;
    result.measure_noc_cycles = clock_.noc_cycles(0) - measure_start_noc;
    result.measure_duration_ps = clock_.now() - measure_start_ps;

    result.packets_delivered = delay_stats.count();
    result.avg_delay_ns = delay_stats.mean();
    result.min_delay_ns = delay_stats.min();
    result.max_delay_ns = delay_stats.max();
    result.p50_delay_ns = delay_hist.quantile(0.50);
    result.p95_delay_ns = delay_hist.quantile(0.95);
    result.p99_delay_ns = delay_hist.quantile(0.99);
    result.avg_latency_cycles = latency_stats.mean();
    result.avg_hops = hops_stats.mean();
    result.max_hops =
        hops_stats.count() > 0 ? static_cast<std::uint64_t>(hops_stats.max()) : 0;
    result.avg_class0_delay_ns = class_delay_stats[0].mean();
    result.class0_packets = class_delay_stats[0].count();
    result.avg_class1_delay_ns = class_delay_stats[1].mean();
    result.class1_packets = class_delay_stats[1].count();

    const std::uint64_t gen_delta = net_.total_flits_generated() - measure_start_gen;
    const std::uint64_t ej_delta = net_.total_flits_ejected() - measure_start_ej;
    result.measured_offered_lambda =
        static_cast<double>(gen_delta) /
        (static_cast<double>(n_nodes) * static_cast<double>(result.measure_node_cycles));
    result.delivered_flits_per_node_cycle =
        static_cast<double>(ej_delta) /
        (static_cast<double>(n_nodes) * static_cast<double>(result.measure_node_cycles));
    result.delivered_flits_per_noc_cycle =
        result.measure_noc_cycles > 0
            ? static_cast<double>(ej_delta) /
                  (static_cast<double>(n_nodes) * static_cast<double>(result.measure_noc_cycles))
            : 0.0;
    if (n_islands == 1) {
      result.avg_buffer_occupancy =
          result.measure_noc_cycles > 0
              ? static_cast<double>(meas[0].occupancy_sum) /
                    (static_cast<double>(result.measure_noc_cycles) * win[0].buffer_capacity)
              : 0.0;
      result.avg_frequency_hz = meas[0].freq_avg.average(t_end_s);
      result.avg_voltage = meas[0].volt_avg.average(t_end_s);
      result.final_frequency_hz = bank_.manager(0).current_frequency();
      result.vf_trace = bank_.manager(0).trace();
    } else {
      // Cross-island summaries: occupancy weighted by sampled capacity,
      // frequency/voltage weighted by island node count. Exact per-island
      // values live in result.islands.
      double occ_num = 0.0, occ_den = 0.0;
      double f_num = 0.0, v_num = 0.0;
      for (int i = 0; i < n_islands; ++i) {
        const std::uint64_t cyc = clock_.noc_cycles(i) - meas[static_cast<std::size_t>(i)].start_noc;
        occ_num += static_cast<double>(meas[static_cast<std::size_t>(i)].occupancy_sum);
        occ_den += static_cast<double>(cyc) * win[static_cast<std::size_t>(i)].buffer_capacity;
        const double nodes = static_cast<double>(win[static_cast<std::size_t>(i)].nodes);
        f_num += meas[static_cast<std::size_t>(i)].freq_avg.average(t_end_s) * nodes;
        v_num += meas[static_cast<std::size_t>(i)].volt_avg.average(t_end_s) * nodes;
      }
      result.avg_buffer_occupancy = occ_den > 0.0 ? occ_num / occ_den : 0.0;
      result.avg_frequency_hz = f_num / static_cast<double>(n_nodes);
      result.avg_voltage = v_num / static_cast<double>(n_nodes);
      double f_final_nodes = 0.0;
      for (int i = 0; i < n_islands; ++i) {
        f_final_nodes += bank_.manager(i).current_frequency() *
                         static_cast<double>(win[static_cast<std::size_t>(i)].nodes);
      }
      result.final_frequency_hz = f_final_nodes / static_cast<double>(n_nodes);
      // Convention: the global trace is island 0's (the domain the global
      // cycle-denominated metrics are counted in); every island's own
      // trace lives in result.islands[i].vf_trace.
      result.vf_trace = bank_.manager(0).trace();
    }

    const double delivered_bits =
        static_cast<double>(ej_delta) * static_cast<double>(cfg_.flit_bits);
    result.energy_per_bit_pj =
        delivered_bits > 0.0 ? result.power.total_j() * 1e12 / delivered_bits : 0.0;
    result.energy_delay_product_js = result.power.total_j() * result.avg_delay_ns * 1e-9;

    const std::uint64_t backlog_end = net_.total_source_backlog_flits();
    result.backlog_growth_flits = static_cast<std::int64_t>(backlog_end) -
                                  static_cast<std::int64_t>(measure_start_backlog);
    // Fault accounting (all zero on a fault-free run).
    result.dropped_packets = net_.total_packets_dropped();
    result.dropped_flits = net_.total_flits_dropped();
    result.unreachable_pairs = net_.unreachable_pairs();
    result.rerouted_pairs = net_.rerouted_pairs();
    result.failed_links = net_.failed_links();
    result.failed_routers = net_.failed_routers();
    // Saturated: the source queues grew materially (more than ~5% of the
    // traffic generated, and more than transient jitter of a couple of
    // packets per node), or delivery lagged generation by > 5%. Flits
    // dropped under faults were never deliverable, so they count against
    // neither side of the delivery ratio.
    const std::uint64_t dropped_delta = net_.total_flits_dropped() - measure_start_dropped;
    const std::uint64_t deliverable_delta = gen_delta - std::min(gen_delta, dropped_delta);
    const double growth_floor =
        std::max(2.0 * n_nodes * 20.0, 0.05 * static_cast<double>(gen_delta));
    const bool backlog_saturated =
        static_cast<double>(result.backlog_growth_flits) > growth_floor;
    const bool delivery_saturated =
        deliverable_delta > 0 &&
        static_cast<double>(ej_delta) < 0.95 * static_cast<double>(deliverable_delta);
    result.saturated = backlog_saturated || delivery_saturated;

    result.islands.resize(static_cast<std::size_t>(n_islands));
    for (int i = 0; i < n_islands; ++i) {
      IslandResult& isl = result.islands[static_cast<std::size_t>(i)];
      const IslandMeasure& m_state = meas[static_cast<std::size_t>(i)];
      isl.island = i;
      isl.nodes = win[static_cast<std::size_t>(i)].nodes;
      isl.policy = bank_.manager(i).controller().name();
      isl.packets_delivered = m_state.delay_stats.count();
      isl.avg_delay_ns = m_state.delay_stats.mean();
      isl.avg_frequency_hz = m_state.freq_avg.average(t_end_s);
      isl.avg_voltage = m_state.volt_avg.average(t_end_s);
      isl.final_frequency_hz = bank_.manager(i).current_frequency();
      isl.vf_trace = bank_.manager(i).trace();
      isl.freq_residency = m_state.residency.levels();
      isl.measure_noc_cycles = clock_.noc_cycles(i) - m_state.start_noc;
      isl.avg_buffer_occupancy =
          isl.measure_noc_cycles > 0
              ? static_cast<double>(m_state.occupancy_sum) /
                    (static_cast<double>(isl.measure_noc_cycles) *
                     win[static_cast<std::size_t>(i)].buffer_capacity)
              : 0.0;
      if (!thermal_on) {
        isl.power = power_accs[static_cast<std::size_t>(i)].breakdown();
      } else {
        isl.power.elapsed_ps = clock_.now() - measure_start_ps;
        for (const noc::NodeId id : net_.island_members(i)) {
          const power::PowerBreakdown& tile =
              tile_acc->tiles()[static_cast<std::size_t>(id)];
          isl.power.datapath_j += tile.datapath_j;
          isl.power.clock_j += tile.clock_j;
          isl.power.leakage_j += tile.leakage_j;
          isl.peak_temp_c = std::max(
              isl.peak_temp_c, result.thermal.tile_peak_temp_c[static_cast<std::size_t>(id)]);
        }
        const double dur_ps = static_cast<double>(clock_.now() - measure_start_ps);
        isl.throttle_residency =
            dur_ps > 0.0 ? static_cast<double>(throttled_ps[static_cast<std::size_t>(i)]) / dur_ps
                         : 0.0;
        isl.throttle_events = guard->engage_count(i);
      }
    }

    if (hist_on) {
      // Histogram slices record integer picoseconds; the result slice
      // reports ns like every other delay field (exact /1000 in doubles).
      auto ns_slice = [](const obs::LatencyHistogram& h) {
        DelayDistResult::Slice s;
        s.count = h.count();
        if (!h.empty()) {
          s.min = static_cast<double>(h.min()) * 1e-3;
          s.max = static_cast<double>(h.max()) * 1e-3;
          s.p50 = static_cast<double>(h.quantile(0.50)) * 1e-3;
          s.p90 = static_cast<double>(h.quantile(0.90)) * 1e-3;
          s.p95 = static_cast<double>(h.quantile(0.95)) * 1e-3;
          s.p99 = static_cast<double>(h.quantile(0.99)) * 1e-3;
          s.p999 = static_cast<double>(h.quantile(0.999)) * 1e-3;
        }
        return s;
      };
      DelayDistResult& dd = result.delay_dist;
      dd.enabled = true;
      dd.delay_ns = ns_slice(hist_delay_ps);
      dd.latency_cycles.count = hist_latency_cycles.count();
      if (!hist_latency_cycles.empty()) {
        dd.latency_cycles.min = static_cast<double>(hist_latency_cycles.min());
        dd.latency_cycles.max = static_cast<double>(hist_latency_cycles.max());
        dd.latency_cycles.p50 = static_cast<double>(hist_latency_cycles.quantile(0.50));
        dd.latency_cycles.p90 = static_cast<double>(hist_latency_cycles.quantile(0.90));
        dd.latency_cycles.p95 = static_cast<double>(hist_latency_cycles.quantile(0.95));
        dd.latency_cycles.p99 = static_cast<double>(hist_latency_cycles.quantile(0.99));
        dd.latency_cycles.p999 = static_cast<double>(hist_latency_cycles.quantile(0.999));
      }
      for (const obs::LatencyHistogram& h : hist_island_delay) {
        dd.island_delay_ns.push_back(ns_slice(h));
      }
      for (const obs::LatencyHistogram& h : hist_hop_delay) {
        dd.hop_delay_ns.push_back(ns_slice(h));
      }
    }

    if (telem_on) {
      telemetry_drain_faults();
      // Close the run with one final window (no control update runs at
      // this boundary) so the timeline's column sums equal the live
      // whole-run counters exactly.
      timeline.window_t_ps.push_back(static_cast<std::uint64_t>(clock_.now()));
      telem_sampler->sample();
      for (int i = 0; i < n_islands; ++i) {
        const IslandWindow& w = win[static_cast<std::size_t>(i)];
        const std::uint64_t gen = net_.island_flits_generated(i);
        const std::uint64_t wcyc = clock_.noc_cycles(i) - w.start_noc_cycles;
        obs::IslandWindowRow row;
        row.f_hz = bank_.manager(i).current_frequency();
        row.vdd = bank_.manager(i).current_voltage();
        row.avg_delay_ns =
            w.packets > 0 ? w.delay_sum_ns / static_cast<double>(w.packets) : 0.0;
        row.lambda_offered = static_cast<double>(gen - w.start_gen) /
                             (static_cast<double>(w.nodes) * static_cast<double>(period));
        row.occupancy = wcyc > 0 ? static_cast<double>(w.occupancy_sum) /
                                       (static_cast<double>(wcyc) * w.buffer_capacity)
                                 : 0.0;
        row.ctrl_error = bank_.manager(i).controller().last_error();
        row.throttled = static_cast<std::uint8_t>((thermal_on && guard->throttled(i)) ? 1 : 0);
        timeline.island_rows.push_back(row);
      }
      timeline.events.push_back({obs::EventKind::MeasureEnd, -1,
                                 static_cast<std::uint64_t>(clock_.now()), 0.0, 0.0});
      telem_sampler->finish(timeline);

      // --- RunResult summary slice ---
      TelemetryResult& tr = result.telemetry;
      tr.enabled = true;
      tr.mode = obs::to_string(cfg_.telemetry.mode);
      tr.windows = static_cast<std::uint64_t>(timeline.windows());
      const int nr = net_.num_routers();
      std::vector<TelemetryResult::HotTile> tiles;
      tiles.reserve(static_cast<std::size_t>(nr));
      for (int r = 0; r < nr; ++r) {
        const noc::Router& rt = net_.router_at(r);
        const noc::RouterStallCounters& st = rt.stalls();
        tr.stall_route += st.route;
        tr.stall_vc_alloc += st.vc_alloc;
        tr.stall_switch += st.sw;
        tr.stall_credit += st.credit;
        tr.stall_drop += st.drop;
        tr.busy_vc_cycles += st.busy_vc_cycles;
        const std::uint64_t fw = rt.activity().crossbar_traversals;
        tr.flits_forwarded += fw;
        tiles.push_back({r, fw});
      }
      const std::size_t top_k =
          static_cast<std::size_t>(std::max(0, cfg_.telemetry.top_k));
      std::sort(tiles.begin(), tiles.end(),
                [](const TelemetryResult::HotTile& a, const TelemetryResult::HotTile& b) {
                  return a.flits != b.flits ? a.flits > b.flits : a.tile < b.tile;
                });
      if (tiles.size() > top_k) tiles.resize(top_k);
      tr.top_tiles = std::move(tiles);

      std::vector<TelemetryResult::HotLink> links;
      links.reserve(net_.link_table().size());
      for (const obs::LinkInfo& li : net_.link_table()) {
        links.push_back({li.src_router, li.dst_router,
                         net_.router_at(li.src_router).port_flits_forwarded(li.src_port)});
      }
      std::sort(links.begin(), links.end(),
                [](const TelemetryResult::HotLink& a, const TelemetryResult::HotLink& b) {
                  if (a.flits != b.flits) return a.flits > b.flits;
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                });
      if (links.size() > top_k) links.resize(top_k);
      tr.top_links = std::move(links);

      // Timeline v2 sections: sampled flights (complete and still in
      // flight) and the histogram snapshots, so nocdvfs_report can
      // re-derive the percentile tables offline.
      if (flight_rec) timeline.flights = flight_rec->take_flights();
      if (hist_on) {
        timeline.histograms.push_back(hist_delay_ps.snapshot("delay_ps"));
        timeline.histograms.push_back(hist_latency_cycles.snapshot("latency_cycles"));
        for (int i = 0; i < n_islands; ++i) {
          timeline.histograms.push_back(hist_island_delay[static_cast<std::size_t>(i)]
                                            .snapshot("island" + std::to_string(i) +
                                                      "_delay_ps"));
        }
        for (std::size_t h = 0; h < hist_hop_delay.size(); ++h) {
          if (hist_hop_delay[h].empty()) continue;
          timeline.histograms.push_back(
              hist_hop_delay[h].snapshot("hops" + std::to_string(h) + "_delay_ps"));
        }
      }

      // The file export happens after the main loop (below), once the
      // host profile and manifest have been attached to the timeline.
    }
  };

  std::uint64_t measure_end_node = 0;
  {
    // The root phase: everything the main loop and finalize do, so the
    // profile's inclusive root tracks the run's wall time.
    PROF_SCOPE("run");
    while (true) {
      const auto edge = clock_.advance();
      if (edge.node) {
        {
          PROF_SCOPE("node_domain");
          traffic_->node_tick(clock_.now(), clock_.noc_cycles(0), net_);
        }
        if (clock_.node_cycles() % period == 0) {
          // Drain fault epochs first: their timestamps fall inside the
          // elapsed window, before anything stamped at this boundary.
          if (telem_on) {
            PROF_SCOPE("telemetry_sample");
            telemetry_drain_faults();
          }
          if (thermal_on) {
            PROF_SCOPE("thermal_step");
            thermal_boundary();
          }
          if (measuring && clock_.node_cycles() >= measure_end_node) {
            PROF_SCOPE("finalize");
            finalize();
            break;
          }
          {
            PROF_SCOPE("control_window");
            do_control_updates();
          }
          if (telem_on) {
            PROF_SCOPE("telemetry_sample");
            telemetry_boundary();
          }
          if (!measuring) {
            const std::uint64_t cycles = clock_.node_cycles();
            const bool warm = cycles >= warmup_target;
            const bool ready = !phases.adaptive_warmup || settled() || cycles >= max_warmup;
            if (warm && ready) {
              begin_measurement();
              measure_end_node = clock_.node_cycles() + measure_span;
            }
          }
        }
      }
      if (edge.noc_any) {
        // Tick every fired island before any island's phases run, so a CDC
        // push at this instant never sees the reader's same-instant tick.
        {
          PROF_SCOPE("channel_tick");
          for (const int d : clock_.fired()) net_.tick_island(d);
        }
        for (const int d : clock_.fired()) {
          PROF_SCOPE_ID("island_step", d);
          net_.run_island_phases(d, clock_.now());
          const std::uint64_t occ = net_.island_buffered_flits_now(d);
          win[static_cast<std::size_t>(d)].occupancy_sum += occ;
          if (measuring) meas[static_cast<std::size_t>(d)].occupancy_sum += occ;
          {
            PROF_SCOPE("deliveries");
            process_delivered();
          }
        }
      }
    }
  }

  // --- host observability epilogue (never feeds back into the metrics) ---
  if (cfg_.prof) {
    prof_collector.uninstall();
    result.host.profile = prof_collector.take();
  }
  result.host.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0).count();
  result.host.peak_rss_bytes = obs::sample_process_memory().peak_rss_bytes;

  // Run-provenance manifest: scenario keys + seed (sufficient to re-run
  // the point), build info, host facts, and the mem=on byte breakdown.
  for (const auto& [k, v] : cfg_.manifest_keys) result.manifest.set("scenario." + k, v);
  obs::fill_build_info(result.manifest);
  if (cfg_.prof) {
    // The ~0.2 s spin runs once per process, and only for profiled runs,
    // so it never pollutes a timed region.
    result.manifest.set_double("host.calib_mops", obs::host_calib_mops());
  }
  result.manifest.set_double("host.wall_s", result.host.wall_s);
  result.manifest.set("host.peak_rss_bytes", result.host.peak_rss_bytes);
  if (cfg_.mem) {
    obs::MemBreakdown mem;
    // Router slabs are allocated at full capacity up front; source queues
    // hold one PendingPacket entry per queued packet; the packet table holds
    // every slot it ever grew to.
    std::uint64_t ring_slots = 0, slab_bytes = 0;
    for (int r = 0; r < net_.num_routers(); ++r) {
      const noc::Router& router = net_.router_at(r);
      ring_slots += static_cast<std::uint64_t>(router.radix()) *
                    static_cast<std::uint64_t>(router.config().num_vcs) *
                    static_cast<std::uint64_t>(router.config().vc_buffer_depth);
      slab_bytes += router.slab_bytes();
    }
    mem.add("router_buffers", ring_slots, slab_bytes);
    std::uint64_t queued = 0, queue_bytes = 0;
    for (noc::NodeId n = 0; n < net_.num_nodes(); ++n) {
      queued += net_.ni(n).source_queue_packets();
      queue_bytes += net_.ni(n).source_queue_bytes();
    }
    mem.add("source_queues", queued, queue_bytes);
    mem.add("packet_table", net_.packet_table().capacity(), net_.packet_table().bytes());
    std::uint64_t tl_bytes = timeline.window_t_ps.size() * sizeof(std::uint64_t) +
                             timeline.island_rows.size() * sizeof(obs::IslandWindowRow) +
                             timeline.events.size() * sizeof(obs::TimelineEvent);
    for (const obs::MetricSeries& s : timeline.series) {
      tl_bytes += s.counts.size() * sizeof(std::uint64_t) + s.gauges.size() * sizeof(double);
    }
    std::uint64_t flight_bytes = timeline.flights.size() * sizeof(obs::FlightRecord);
    for (const obs::FlightRecord& f : timeline.flights) {
      flight_bytes += f.events.size() * sizeof(obs::FlightEvent);
    }
    mem.add("timeline", timeline.series.size(), tl_bytes);
    mem.add("flight_recorder", timeline.flights.size(), flight_bytes);
    mem.add("histogram_pool",
            hist_on ? 2 + hist_island_delay.size() + hist_hop_delay.size() : 0,
            hist_on ? (2 + hist_island_delay.size() + hist_hop_delay.size()) *
                          sizeof(obs::LatencyHistogram)
                    : 0);
    std::uint64_t trace_points = result.vf_trace.size();
    for (const IslandResult& isl : result.islands) trace_points += isl.vf_trace.size();
    mem.add("vf_traces", trace_points, trace_points * sizeof(dvfs::VfTracePoint));
    mem.add("window_trace", result.window_trace.size(),
            result.window_trace.size() * sizeof(WindowSample));
    for (const obs::MemOwner& o : mem.owners) {
      result.manifest.set("mem." + o.name + ".objects", o.objects);
      result.manifest.set("mem." + o.name + ".bytes", o.bytes);
    }
    result.manifest.set("mem.total_bytes", mem.total_bytes());
  }

  if (telem_on && !cfg_.telemetry.out_base.empty()) {
    // Attach the v3 host sections, then export (moved out of finalize so
    // the files carry the completed profile + manifest).
    timeline.manifest = result.manifest.entries;
    timeline.host_phases = result.host.profile.phases;
    obs::write_timeline_binary(timeline, cfg_.telemetry.out_base + ".nocobs");
    obs::write_timeline_perfetto(timeline, cfg_.telemetry.out_base + ".json");
  }
  return result;
}

}  // namespace nocdvfs::sim
