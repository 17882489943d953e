#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

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

int island_nodes(const noc::Network& net, int island) {
  return static_cast<int>(net.island_members(island).size());
}

// Run state. `Simulator::run` calls these objects at fixed points of its
// stepping loop; at a control boundary the order is fault drain → thermal
// → finalize-or-control → telemetry sample (docs/ARCHITECTURE.md, "Run
// loop"). They share no base class: the loop, not an interface, owns it.

/// What one island's control update measured and applied.
struct ControlStep {
  dvfs::WindowMeasurements window;
  common::Hertz before = 0.0;
  common::Hertz applied = 0.0;

  /// The update moved the frequency enough to retune the island's clock.
  bool actuated() const noexcept { return std::abs(applied - before) > 1e3; }
};

/// Control windows, the settle → measure protocol, and everything measured
/// over the measurement window, filled into `result()`.
class Measurement {
 public:
  Measurement(const SimulatorConfig& cfg, const RunPhases& phases, noc::Network& net,
              vfi::IslandControlBank& bank, const power::EnergyModel& energy, MultiClock& clock,
              traffic::TrafficModel& traffic)
      : cfg_(cfg),
        phases_(phases),
        net_(net),
        bank_(bank),
        clock_(clock),
        traffic_(traffic),
        n_islands_(bank.num_islands()),
        n_nodes_(net.num_nodes()),
        period_(bank.control_period_node_cycles()),
        warmup_target_(round_up_to_period(phases.warmup_node_cycles, period_)),
        max_warmup_(std::max(round_up_to_period(phases.max_warmup_node_cycles, period_),
                             warmup_target_)),
        measure_span_(round_up_to_period(phases.measure_node_cycles, period_)),
        isl_(static_cast<std::size_t>(n_islands_)) {
    power_accs_.reserve(static_cast<std::size_t>(n_islands_));
    for (int i = 0; i < n_islands_; ++i) {
      IslandState& s = isl_[static_cast<std::size_t>(i)];
      s.buffer_capacity = static_cast<double>(net_.island_buffer_capacity_flits(i));
      s.nodes = island_nodes(net_, i);
      if (!cfg_.thermal.enabled) power_accs_.emplace_back(energy, net_.island_inventory(i));
    }
    if (cfg_.hist) hist_island_delay_.resize(static_cast<std::size_t>(n_islands_));
    result_.offered_lambda = traffic_.offered_flits_per_node_cycle();
  }

  /// Per NoC edge: sample island `island`'s buffer occupancy after its
  /// phases ran.
  void on_island_cycle(int island) {
    IslandState& s = isl_[static_cast<std::size_t>(island)];
    const std::uint64_t occ = net_.island_buffered_flits_now(island);
    s.occupancy_sum += occ;
    if (measuring_) s.measure_occupancy_sum += occ;
  }

  /// Per NoC edge: account every packet delivered since the last call.
  void process_delivered() {
    if (net_.delivered().empty()) return;
    for (const noc::PacketRecord& rec : net_.delivered()) on_delivery(rec);
    net_.delivered().clear();
  }

  bool measuring() const noexcept { return measuring_; }
  /// The measurement window has run its span: finalize at this boundary.
  bool done() const noexcept { return measuring_ && clock_.node_cycles() >= end_node_; }
  Picoseconds start_ps() const noexcept { return start_ps_; }
  RunResult& result() noexcept { return result_; }

  /// Island `island`'s applied frequency stayed within the settle tolerance
  /// over the last `settle_windows` windows.
  bool island_settled(int island) const {
    const auto& freqs = isl_[static_cast<std::size_t>(island)].recent_freqs;
    if (static_cast<int>(freqs.size()) < phases_.settle_windows) return false;
    const auto [lo, hi] = std::minmax_element(freqs.begin(), freqs.end());
    return (*hi - *lo) <= phases_.settle_tol * (*hi);
  }

  /// The open window's measurements, as the next control update sees them.
  dvfs::WindowMeasurements window(int island) const {
    const IslandState& s = isl_[static_cast<std::size_t>(island)];
    dvfs::WindowMeasurements m;
    m.window_node_cycles = period_;
    m.window_noc_cycles = clock_.noc_cycles(island) - s.start_noc_cycles;
    m.lambda_node_offered =
        static_cast<double>(net_.island_flits_generated(island) - s.start_gen) /
        (static_cast<double>(s.nodes) * static_cast<double>(period_));
    m.lambda_noc_injected =
        m.window_noc_cycles > 0
            ? static_cast<double>(net_.island_flits_injected(island) - s.start_inj) /
                  (static_cast<double>(s.nodes) * static_cast<double>(m.window_noc_cycles))
            : 0.0;
    m.packets_delivered = s.packets;
    m.avg_delay_ns = s.packets > 0 ? s.delay_sum_ns / static_cast<double>(s.packets) : 0.0;
    m.avg_buffer_occupancy =
        m.window_noc_cycles > 0
            ? static_cast<double>(s.occupancy_sum) /
                  (static_cast<double>(m.window_noc_cycles) * s.buffer_capacity)
            : 0.0;
    return m;
  }

  /// Run island `island`'s controller on its window under frequency cap
  /// `cap` (0 = none), retune its clock, and open its next window.
  ControlStep control_update(int island, common::Hertz cap) {
    IslandState& s = isl_[static_cast<std::size_t>(island)];
    dvfs::DvfsManager& manager = bank_.manager(island);
    ControlStep step;
    step.window = window(island);
    window_delay_sum_ += s.delay_sum_ns;
    window_packets_ += s.packets;
    step.before = manager.current_frequency();
    step.applied = bank_.apply_update(island, clock_.now(), step.window, cap);
    if (step.actuated()) {
      clock_.set_noc_frequency(island, step.applied);
      if (measuring_) {
        if (!cfg_.thermal.enabled) {
          power_accs_[static_cast<std::size_t>(island)].change_operating_point(
              clock_.now(), net_.island_activity(island), clock_.noc_cycles(island),
              manager.current_voltage(), step.applied);
        }
        s.freq_avg.set(common::seconds_from_ps(clock_.now()), step.applied);
        s.volt_avg.set(common::seconds_from_ps(clock_.now()), manager.current_voltage());
        s.residency.on_change(clock_.now(), step.applied);
      }
    }
    s.recent_freqs.push_back(step.applied);
    while (static_cast<int>(s.recent_freqs.size()) > phases_.settle_windows) {
      s.recent_freqs.pop_front();
    }
    window_freq_nodes_ += manager.current_frequency() * static_cast<double>(s.nodes);

    s.start_gen = net_.island_flits_generated(island);
    s.start_inj = net_.island_flits_injected(island);
    s.start_noc_cycles = clock_.noc_cycles(island);
    s.delay_sum_ns = 0.0;
    s.packets = 0;
    s.occupancy_sum = 0;
    return step;
  }

  /// Append the cross-island window sample once every island updated.
  void close_window() {
    WindowSample sample;
    sample.t = clock_.now();
    sample.packets = window_packets_;
    sample.avg_delay_ns =
        window_packets_ > 0 ? window_delay_sum_ / static_cast<double>(window_packets_) : 0.0;
    // One island: the frequency itself (a node-weighted mean of one value
    // need not round back to it).
    sample.f_applied = n_islands_ == 1 ? bank_.manager(0).current_frequency()
                                       : window_freq_nodes_ / static_cast<double>(n_nodes_);
    result_.window_trace.push_back(sample);
    window_delay_sum_ = 0.0;
    window_packets_ = 0;
    window_freq_nodes_ = 0.0;
  }

  /// Open the measurement phase once warmup is long enough and (with
  /// adaptive warmup) every island settled. True when it opened.
  bool begin_if_ready() {
    if (measuring_) return false;
    const std::uint64_t cycles = clock_.node_cycles();
    const bool ready = !phases_.adaptive_warmup || settled() || cycles >= max_warmup_;
    if (cycles < warmup_target_ || !ready) return false;
    measuring_ = true;
    end_node_ = cycles + measure_span_;
    start_node_ = cycles;
    start_noc_ = clock_.noc_cycles(0);
    start_ps_ = clock_.now();
    start_gen_ = net_.total_flits_generated();
    start_ej_ = net_.total_flits_ejected();
    start_backlog_ = net_.total_source_backlog_flits();
    start_dropped_ = net_.total_flits_dropped();
    for (int i = 0; i < n_islands_; ++i) {
      IslandState& s = isl_[static_cast<std::size_t>(i)];
      const common::Hertz f = bank_.manager(i).current_frequency();
      const double v = bank_.manager(i).current_voltage();
      if (!cfg_.thermal.enabled) {
        power_accs_[static_cast<std::size_t>(i)].start(clock_.now(), net_.island_activity(i),
                                                       clock_.noc_cycles(i), v, f);
      }
      s.freq_avg.set(common::seconds_from_ps(clock_.now()), f);
      s.volt_avg.set(common::seconds_from_ps(clock_.now()), v);
      s.residency.begin(clock_.now(), f);
      s.start_noc = clock_.noc_cycles(i);
    }
    result_.warmup_node_cycles_used = cycles;
    result_.controller_settled = settled() || !phases_.adaptive_warmup;
    return true;
  }

  /// Close the measurement window into `result()`. With thermal on, the
  /// thermal loop must have filled the power and thermal slices first.
  void finish();

  /// Latency histograms for the telemetry timeline (empty with hist=off).
  std::vector<obs::HistogramSnapshot> histogram_snapshots() const {
    std::vector<obs::HistogramSnapshot> out;
    if (!cfg_.hist) return out;
    out.push_back(hist_delay_ps_.snapshot("delay_ps"));
    out.push_back(hist_latency_cycles_.snapshot("latency_cycles"));
    for (std::size_t i = 0; i < hist_island_delay_.size(); ++i) {
      out.push_back(hist_island_delay_[i].snapshot("island" + std::to_string(i) + "_delay_ps"));
    }
    for (std::size_t h = 0; h < hist_hop_delay_.size(); ++h) {
      if (hist_hop_delay_[h].empty()) continue;
      out.push_back(hist_hop_delay_[h].snapshot("hops" + std::to_string(h) + "_delay_ps"));
    }
    return out;
  }

 private:
  struct IslandState {
    // Control window (reset at every control boundary).
    double delay_sum_ns = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t start_gen = 0;
    std::uint64_t start_inj = 0;
    std::uint64_t start_noc_cycles = 0;
    std::uint64_t occupancy_sum = 0;  ///< Σ buffered flits, one sample per island cycle
    double buffer_capacity = 0.0;
    int nodes = 0;
    std::deque<double> recent_freqs;  ///< applied frequency, last settle_windows windows
    // Measurement phase (opened by begin_if_ready).
    std::uint64_t start_noc = 0;
    std::uint64_t measure_occupancy_sum = 0;
    common::RunningStats delay_stats;
    common::TimeWeightedAverage freq_avg;
    common::TimeWeightedAverage volt_avg;
    vfi::FreqResidency residency;
  };
  /// Hop counts above this share the last bucket (fixed memory; a packet
  /// cannot take more hops than this on any supported topology/size).
  static constexpr std::size_t kMaxHopSlices = 64;

  void on_delivery(const noc::PacketRecord& rec) {
    const double d_ns = rec.delay_ns();
    // The receiving nodes report delay (the paper's DMSD measurement
    // path), so a packet belongs to its destination's island.
    const int isl = net_.island_of(rec.dst);
    IslandState& s = isl_[static_cast<std::size_t>(isl)];
    s.delay_sum_ns += d_ns;
    ++s.packets;
    if (measuring_) {
      delay_stats_.add(d_ns);
      latency_stats_.add(static_cast<double>(rec.latency_cycles()));
      hops_stats_.add(static_cast<double>(rec.hops));
      class_delay_stats_[rec.traffic_class == 0 ? 0 : 1].add(d_ns);
      s.delay_stats.add(d_ns);
      // Integer picoseconds: timestamps are integer ps, so this is the
      // exact delay (the double d_ns above is the same quantity scaled).
      const auto d_ps = static_cast<std::uint64_t>(rec.eject_time_ps - rec.create_time_ps);
      hist_delay_ps_.record(d_ps);
      if (cfg_.hist) {
        hist_latency_cycles_.record(rec.latency_cycles());
        hist_island_delay_[static_cast<std::size_t>(isl)].record(d_ps);
        const std::size_t h = std::min(static_cast<std::size_t>(rec.hops), kMaxHopSlices - 1);
        if (h >= hist_hop_delay_.size()) hist_hop_delay_.resize(h + 1);
        hist_hop_delay_[h].record(d_ps);
      }
    }
    // Closed-loop workloads (request–reply) react to deliveries.
    traffic_.on_packet_delivered(rec, clock_.now());
  }

  bool settled() const {
    for (int i = 0; i < n_islands_; ++i) {
      if (!island_settled(i)) return false;
    }
    return true;
  }

  void finish_islands();

  const SimulatorConfig& cfg_;
  const RunPhases& phases_;
  noc::Network& net_;
  vfi::IslandControlBank& bank_;
  MultiClock& clock_;
  traffic::TrafficModel& traffic_;
  const int n_islands_;
  const int n_nodes_;
  const std::uint64_t period_;
  const std::uint64_t warmup_target_;
  const std::uint64_t max_warmup_;
  const std::uint64_t measure_span_;

  std::vector<IslandState> isl_;
  /// Thermal off only: with thermal on the per-tile accumulator is the sole
  /// energy path (tiles sum to islands sum to the total).
  std::vector<power::PowerAccumulator> power_accs_;
  /// Cross-island sums of the window being closed (see close_window).
  double window_delay_sum_ = 0.0;
  std::uint64_t window_packets_ = 0;
  double window_freq_nodes_ = 0.0;

  bool measuring_ = false;
  std::uint64_t end_node_ = 0;
  std::uint64_t start_node_ = 0;
  std::uint64_t start_noc_ = 0;
  Picoseconds start_ps_ = 0;
  std::uint64_t start_gen_ = 0;
  std::uint64_t start_ej_ = 0;
  std::uint64_t start_backlog_ = 0;
  std::uint64_t start_dropped_ = 0;
  common::RunningStats delay_stats_;
  common::RunningStats latency_stats_;
  common::RunningStats hops_stats_;
  common::RunningStats class_delay_stats_[2];
  /// End-to-end delay in integer ps, always on: the headline percentiles.
  obs::LatencyHistogram hist_delay_ps_;
  obs::LatencyHistogram hist_latency_cycles_;
  std::vector<obs::LatencyHistogram> hist_island_delay_;  ///< by destination island
  std::vector<obs::LatencyHistogram> hist_hop_delay_;     ///< by hop count, grown on demand

  RunResult result_;
};

void Measurement::finish() {
  RunResult& r = result_;
  for (int i = 0; i < n_islands_; ++i) {
    if (!cfg_.thermal.enabled) {
      power_accs_[static_cast<std::size_t>(i)].stop(clock_.now(), net_.island_activity(i),
                                                    clock_.noc_cycles(i));
    }
    isl_[static_cast<std::size_t>(i)].residency.end(clock_.now());
  }
  if (!cfg_.thermal.enabled) {
    for (const auto& acc : power_accs_) {
      r.power.datapath_j += acc.breakdown().datapath_j;
      r.power.clock_j += acc.breakdown().clock_j;
      r.power.leakage_j += acc.breakdown().leakage_j;
    }
    r.power.elapsed_ps += power_accs_.front().breakdown().elapsed_ps;
  }
  r.measure_node_cycles = clock_.node_cycles() - start_node_;
  r.measure_noc_cycles = clock_.noc_cycles(0) - start_noc_;
  r.measure_duration_ps = clock_.now() - start_ps_;

  r.packets_delivered = delay_stats_.count();
  r.avg_delay_ns = delay_stats_.mean();
  r.min_delay_ns = delay_stats_.min();
  r.max_delay_ns = delay_stats_.max();
  r.p50_delay_ns = static_cast<double>(hist_delay_ps_.quantile(0.50)) * 1e-3;
  r.p95_delay_ns = static_cast<double>(hist_delay_ps_.quantile(0.95)) * 1e-3;
  r.p99_delay_ns = static_cast<double>(hist_delay_ps_.quantile(0.99)) * 1e-3;
  r.avg_latency_cycles = latency_stats_.mean();
  r.avg_hops = hops_stats_.mean();
  r.max_hops = hops_stats_.count() > 0 ? static_cast<std::uint64_t>(hops_stats_.max()) : 0;
  r.avg_class0_delay_ns = class_delay_stats_[0].mean();
  r.class0_packets = class_delay_stats_[0].count();
  r.avg_class1_delay_ns = class_delay_stats_[1].mean();
  r.class1_packets = class_delay_stats_[1].count();

  const double nodes = static_cast<double>(n_nodes_);
  const std::uint64_t gen_delta = net_.total_flits_generated() - start_gen_;
  const std::uint64_t ej_delta = net_.total_flits_ejected() - start_ej_;
  r.measured_offered_lambda =
      static_cast<double>(gen_delta) / (nodes * static_cast<double>(r.measure_node_cycles));
  r.delivered_flits_per_node_cycle =
      static_cast<double>(ej_delta) / (nodes * static_cast<double>(r.measure_node_cycles));
  r.delivered_flits_per_noc_cycle =
      r.measure_noc_cycles > 0
          ? static_cast<double>(ej_delta) / (nodes * static_cast<double>(r.measure_noc_cycles))
          : 0.0;
  const double delivered_bits =
      static_cast<double>(ej_delta) * static_cast<double>(cfg_.flit_bits);
  r.energy_per_bit_pj = delivered_bits > 0.0 ? r.power.total_j() * 1e12 / delivered_bits : 0.0;
  r.energy_delay_product_js = r.power.total_j() * r.avg_delay_ns * 1e-9;

  r.backlog_growth_flits = static_cast<std::int64_t>(net_.total_source_backlog_flits()) -
                           static_cast<std::int64_t>(start_backlog_);
  // Fault accounting (all zero on a fault-free run).
  r.dropped_packets = net_.total_packets_dropped();
  r.dropped_flits = net_.total_flits_dropped();
  r.unreachable_pairs = net_.unreachable_pairs();
  r.rerouted_pairs = net_.rerouted_pairs();
  r.failed_links = net_.failed_links();
  r.failed_routers = net_.failed_routers();
  // Saturated: the source queues grew materially (more than ~5% of the
  // traffic generated, and more than transient jitter of a couple of
  // packets per node), or delivery lagged generation by > 5%. Flits
  // dropped under faults were never deliverable, so they count against
  // neither side of the delivery ratio.
  const std::uint64_t dropped_delta = net_.total_flits_dropped() - start_dropped_;
  const std::uint64_t deliverable_delta = gen_delta - std::min(gen_delta, dropped_delta);
  const double growth_floor =
      std::max(2.0 * n_nodes_ * 20.0, 0.05 * static_cast<double>(gen_delta));
  const bool backlog_saturated = static_cast<double>(r.backlog_growth_flits) > growth_floor;
  const bool delivery_saturated =
      deliverable_delta > 0 &&
      static_cast<double>(ej_delta) < 0.95 * static_cast<double>(deliverable_delta);
  r.saturated = backlog_saturated || delivery_saturated;

  finish_islands();
  if (!cfg_.hist) return;
  // Histogram slices record integer picoseconds; the result slice reports
  // ns like every other delay field (exact /1000 in doubles).
  const auto slice = [](const obs::LatencyHistogram& h, double scale) {
    DelayDistResult::Slice s;
    s.count = h.count();
    if (!h.empty()) {
      s.min = static_cast<double>(h.min()) * scale;
      s.max = static_cast<double>(h.max()) * scale;
      s.p50 = static_cast<double>(h.quantile(0.50)) * scale;
      s.p90 = static_cast<double>(h.quantile(0.90)) * scale;
      s.p95 = static_cast<double>(h.quantile(0.95)) * scale;
      s.p99 = static_cast<double>(h.quantile(0.99)) * scale;
      s.p999 = static_cast<double>(h.quantile(0.999)) * scale;
    }
    return s;
  };
  DelayDistResult& dd = r.delay_dist;
  dd.enabled = true;
  dd.delay_ns = slice(hist_delay_ps_, 1e-3);
  dd.latency_cycles = slice(hist_latency_cycles_, 1.0);
  for (const auto& h : hist_island_delay_) dd.island_delay_ns.push_back(slice(h, 1e-3));
  for (const auto& h : hist_hop_delay_) dd.hop_delay_ns.push_back(slice(h, 1e-3));
}

void Measurement::finish_islands() {
  RunResult& r = result_;
  const double t_end_s = common::seconds_from_ps(clock_.now());
  const double nodes = static_cast<double>(n_nodes_);
  if (n_islands_ == 1) {
    const IslandState& s = isl_[0];
    r.avg_buffer_occupancy =
        r.measure_noc_cycles > 0
            ? static_cast<double>(s.measure_occupancy_sum) /
                  (static_cast<double>(r.measure_noc_cycles) * s.buffer_capacity)
            : 0.0;
    r.avg_frequency_hz = s.freq_avg.average(t_end_s);
    r.avg_voltage = s.volt_avg.average(t_end_s);
    r.final_frequency_hz = bank_.manager(0).current_frequency();
  } else {
    // Cross-island summaries: occupancy weighted by sampled capacity,
    // frequency/voltage weighted by island node count. Exact per-island
    // values live in result.islands.
    double occ_num = 0.0, occ_den = 0.0, f_num = 0.0, v_num = 0.0, f_final = 0.0;
    for (int i = 0; i < n_islands_; ++i) {
      const IslandState& s = isl_[static_cast<std::size_t>(i)];
      occ_num += static_cast<double>(s.measure_occupancy_sum);
      occ_den += static_cast<double>(clock_.noc_cycles(i) - s.start_noc) * s.buffer_capacity;
      f_num += s.freq_avg.average(t_end_s) * static_cast<double>(s.nodes);
      v_num += s.volt_avg.average(t_end_s) * static_cast<double>(s.nodes);
      f_final += bank_.manager(i).current_frequency() * static_cast<double>(s.nodes);
    }
    r.avg_buffer_occupancy = occ_den > 0.0 ? occ_num / occ_den : 0.0;
    r.avg_frequency_hz = f_num / nodes;
    r.avg_voltage = v_num / nodes;
    r.final_frequency_hz = f_final / nodes;
  }
  // Convention: the global trace is island 0's (the domain the global
  // cycle-denominated metrics are counted in); every island's own trace
  // lives in result.islands[i].vf_trace.
  r.vf_trace = bank_.manager(0).trace();

  r.islands.resize(static_cast<std::size_t>(n_islands_));
  for (int i = 0; i < n_islands_; ++i) {
    const IslandState& s = isl_[static_cast<std::size_t>(i)];
    IslandResult& out = r.islands[static_cast<std::size_t>(i)];
    out.island = i;
    out.nodes = s.nodes;
    out.policy = bank_.manager(i).controller().name();
    out.packets_delivered = s.delay_stats.count();
    out.avg_delay_ns = s.delay_stats.mean();
    out.avg_frequency_hz = s.freq_avg.average(t_end_s);
    out.avg_voltage = s.volt_avg.average(t_end_s);
    out.final_frequency_hz = bank_.manager(i).current_frequency();
    out.vf_trace = bank_.manager(i).trace();
    out.freq_residency = s.residency.levels();
    out.measure_noc_cycles = clock_.noc_cycles(i) - s.start_noc;
    out.avg_buffer_occupancy =
        out.measure_noc_cycles > 0
            ? static_cast<double>(s.measure_occupancy_sum) /
                  (static_cast<double>(out.measure_noc_cycles) * s.buffer_capacity)
            : 0.0;
    // With thermal on, the thermal loop already charged the island's tiles.
    if (!cfg_.thermal.enabled) out.power = power_accs_[static_cast<std::size_t>(i)].breakdown();
  }
}

class TelemetryRecorder;

/// The RC thermal network, per-tile power and the thermal guard, advanced
/// once per control boundary (thermal=on only).
class ThermalLoop {
 public:
  ThermalLoop(const SimulatorConfig& cfg, const noc::Network& net,
              const vfi::IslandControlBank& bank, const power::EnergyModel& energy,
              const MultiClock& clock)
      : cfg_(cfg.thermal),
        net_(net),
        bank_(bank),
        clock_(clock),
        n_islands_(bank.num_islands()),
        n_nodes_(net.num_nodes()),
        model_(cfg.network.width, cfg.network.height, cfg.thermal.params, cfg.thermal.step_ps),
        tile_acc_(energy, tile_inventories(net)),
        guard_(cfg.thermal.guard, n_islands_),
        tile_activity_(static_cast<std::size_t>(n_nodes_)),
        tile_cycles_(static_cast<std::size_t>(n_nodes_)),
        tile_vdd_(static_cast<std::size_t>(n_nodes_)),
        caps_(static_cast<std::size_t>(n_islands_), 0.0),
        throttled_ps_(static_cast<std::size_t>(n_islands_), 0) {
    snapshot_tiles();
    tile_acc_.start(clock_.now(), tile_activity_, tile_cycles_);
  }

  /// Before the control updates: close the elapsed per-tile power interval
  /// (constant (V, F) per tile over it), integrate the RC network up to
  /// now under that zero-order-hold drive, account throttle residency for
  /// the elapsed interval, and refresh the per-island guard caps the
  /// updates will apply. Throttle transitions go to `telemetry` if set.
  void step(bool measuring, TelemetryRecorder* telemetry);

  /// Frequency cap the guard imposes on `island` (0 = none).
  common::Hertz cap(int island) const { return caps_[static_cast<std::size_t>(island)]; }
  bool throttled(int island) const { return guard_.throttled(island); }

  /// Warmup temperatures carry over (the die does not cool between
  /// phases); only the statistics and energy counters reset.
  void begin_measurement() {
    tile_acc_.reset_energy();
    model_.reset_stats();
    leak_snap_j_ = model_.tile_leakage_j();
    leak_ref_snap_j_ = model_.tile_leakage_ref_j();
    std::fill(throttled_ps_.begin(), throttled_ps_.end(), Picoseconds{0});
  }

  /// Fill the power and thermal slices, run totals and per island, for the
  /// measurement window that opened at `start_ps`.
  void finish(Picoseconds start_ps, RunResult& result) {
    // Temperature-resolved attribution: charge each tile the leakage the
    // RC integration accumulated at its actual temperatures over the
    // window, then sum tiles into the run total and into islands, so
    // islands still sum to the total exactly.
    const Picoseconds elapsed = clock_.now() - start_ps;
    std::vector<double> leak_meas(static_cast<std::size_t>(n_nodes_), 0.0);
    std::vector<double> leak_ref_meas(static_cast<std::size_t>(n_nodes_), 0.0);
    for (std::size_t t = 0; t < leak_meas.size(); ++t) {
      leak_meas[t] = model_.tile_leakage_j()[t] - leak_snap_j_[t];
      leak_ref_meas[t] = model_.tile_leakage_ref_j()[t] - leak_ref_snap_j_[t];
    }
    tile_acc_.add_leakage_j(leak_meas);
    for (const power::PowerBreakdown& tile : tile_acc_.tiles()) {
      result.power.datapath_j += tile.datapath_j;
      result.power.clock_j += tile.clock_j;
      result.power.leakage_j += tile.leakage_j;
    }
    result.power.elapsed_ps = elapsed;

    ThermalResult& th = result.thermal;
    th.enabled = true;
    th.peak_temp_c = model_.window_peak_c();
    th.mean_temp_c = model_.window_mean_c();
    th.final_peak_temp_c = model_.peak_temp_c();
    th.final_mean_temp_c = model_.mean_temp_c();
    th.tile_peak_temp_c = model_.tile_peak_c();
    for (const double j : leak_meas) th.leakage_j += j;
    for (const double j : leak_ref_meas) th.leakage_ref_j += j;

    const double dur_ps = static_cast<double>(elapsed);
    double residency_nodes = 0.0;
    result.islands.resize(static_cast<std::size_t>(n_islands_));
    for (int i = 0; i < n_islands_; ++i) {
      const double throttled_ps = static_cast<double>(throttled_ps_[static_cast<std::size_t>(i)]);
      th.throttle_events += guard_.engage_count(i);
      if (dur_ps > 0.0) {
        residency_nodes += throttled_ps / dur_ps * static_cast<double>(island_nodes(net_, i));
      }
      IslandResult& isl = result.islands[static_cast<std::size_t>(i)];
      isl.power.elapsed_ps = elapsed;
      for (const noc::NodeId id : net_.island_members(i)) {
        const std::size_t t = static_cast<std::size_t>(id);
        isl.power.datapath_j += tile_acc_.tiles()[t].datapath_j;
        isl.power.clock_j += tile_acc_.tiles()[t].clock_j;
        isl.power.leakage_j += tile_acc_.tiles()[t].leakage_j;
        isl.peak_temp_c = std::max(isl.peak_temp_c, th.tile_peak_temp_c[t]);
      }
      isl.throttle_residency = dur_ps > 0.0 ? throttled_ps / dur_ps : 0.0;
      isl.throttle_events = guard_.engage_count(i);
    }
    th.throttle_residency = residency_nodes / static_cast<double>(n_nodes_);
  }

 private:
  static std::vector<power::TileInventory> tile_inventories(const noc::Network& net) {
    std::vector<power::TileInventory> tiles;
    tiles.reserve(static_cast<std::size_t>(net.num_nodes()));
    for (noc::NodeId id = 0; id < net.num_nodes(); ++id) tiles.push_back(net.node_inventory(id));
    return tiles;
  }

  void snapshot_tiles() {
    for (noc::NodeId id = 0; id < n_nodes_; ++id) {
      const std::size_t t = static_cast<std::size_t>(id);
      const int isl = net_.island_of(id);
      tile_activity_[t] = net_.node_activity(id);
      tile_cycles_[t] = clock_.noc_cycles(isl);
      tile_vdd_[t] = bank_.manager(isl).current_voltage();
    }
  }

  const ThermalConfig& cfg_;
  const noc::Network& net_;
  const vfi::IslandControlBank& bank_;
  const MultiClock& clock_;
  const int n_islands_;
  const int n_nodes_;
  thermal::ThermalModel model_;
  power::TilePowerAccumulator tile_acc_;
  dvfs::ThermalGuard guard_;
  std::vector<power::ActivityCounters> tile_activity_;
  std::vector<std::uint64_t> tile_cycles_;
  std::vector<double> tile_vdd_;
  std::vector<common::Hertz> caps_;
  std::vector<Picoseconds> throttled_ps_;
  std::vector<double> leak_snap_j_, leak_ref_snap_j_;  ///< per tile, at measurement start
  Picoseconds last_boundary_ps_ = 0;
};

/// Windowed telemetry, the event timeline and sampled packet flights
/// (telemetry on only).
class TelemetryRecorder {
 public:
  TelemetryRecorder(const SimulatorConfig& cfg, noc::Network& net,
                    const vfi::IslandControlBank& bank, const MultiClock& clock)
      : cfg_(cfg),
        net_(net),
        bank_(bank),
        clock_(clock),
        registry_(network_metrics(net, cfg.telemetry.mode == obs::TelemetryMode::Full)),
        sampler_(registry_),
        settled_(static_cast<std::size_t>(bank.num_islands()), 0) {
    timeline_.width = cfg.network.width;
    timeline_.height = cfg.network.height;
    timeline_.num_routers = net.num_routers();
    timeline_.num_islands = bank.num_islands();
    timeline_.concentration = cfg.network.concentration;
    timeline_.f_node_hz = cfg.f_node;
    timeline_.control_period_node_cycles = bank.control_period_node_cycles();
    for (int i = 0; i < bank.num_islands(); ++i) {
      timeline_.island_policy.push_back(bank.manager(i).controller().name());
      timeline_.island_nodes.push_back(island_nodes(net, i));
    }
    if (cfg.telemetry.mode == obs::TelemetryMode::Full) timeline_.links = net.link_table();
    if (cfg.pkt_trace) {
      obs::FlightRecorder::Config fr_cfg;
      fr_cfg.rate = std::max<std::uint64_t>(cfg.pkt_trace_rate, 1);
      flights_ = std::make_unique<obs::FlightRecorder>(fr_cfg);
      net.set_flight_recorder(flights_.get());
    }
  }
  ~TelemetryRecorder() {
    // The network outlives the run; never leave it pointing at our recorder.
    if (flights_) net_.set_flight_recorder(nullptr);
  }
  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  /// Append FaultEpoch/Reroute events for every fault epoch the network
  /// applied since the last drain (timestamped at the epoch itself, which
  /// generally falls inside the preceding window).
  void drain_faults() {
    const auto& epochs = net_.fault_epochs();
    for (; fault_epochs_seen_ < epochs.size(); ++fault_epochs_seen_) {
      const noc::Network::FaultEpochRecord& ep = epochs[fault_epochs_seen_];
      const auto t = static_cast<std::uint64_t>(ep.t_ps);
      timeline_.events.push_back({obs::EventKind::FaultEpoch, -1, t,
                                  static_cast<double>(ep.failed_links),
                                  static_cast<double>(ep.failed_routers)});
      timeline_.events.push_back({obs::EventKind::Reroute, -1, t,
                                  static_cast<double>(ep.rerouted_pairs),
                                  static_cast<double>(ep.unreachable_pairs)});
    }
  }

  void on_throttle(int island, bool engaged, double peak_c) {
    event(engaged ? obs::EventKind::ThrottleEngage : obs::EventKind::ThrottleRelease, island,
          peak_c, 0.0);
  }

  /// After island `island`'s control update: its actuation and window row.
  void on_control_update(int island, const ControlStep& step, bool throttled) {
    if (step.actuated()) event(obs::EventKind::DvfsActuation, island, step.applied, step.before);
    row(island, step.window, throttled);
  }

  /// After every control update: stamp the window end, snapshot every
  /// registered metric, and record each island's first settle instant.
  void sample(const Measurement& measurement) {
    timeline_.window_t_ps.push_back(static_cast<std::uint64_t>(clock_.now()));
    sampler_.sample();
    for (int i = 0; i < bank_.num_islands(); ++i) {
      if (!settled_[static_cast<std::size_t>(i)] && measurement.island_settled(i)) {
        settled_[static_cast<std::size_t>(i)] = 1;
        event(obs::EventKind::Settled, i, bank_.manager(i).current_frequency(), 0.0);
      }
    }
  }

  void on_measure_start() { event(obs::EventKind::MeasureStart, -1, 0.0, 0.0); }

  /// Close the run with one final window (no control update runs at this
  /// boundary) so the timeline's column sums equal the live whole-run
  /// counters exactly, and fill `measurement.result().telemetry`.
  void finish(Measurement& measurement, const ThermalLoop* thermal) {
    timeline_.window_t_ps.push_back(static_cast<std::uint64_t>(clock_.now()));
    sampler_.sample();
    for (int i = 0; i < bank_.num_islands(); ++i) {
      row(i, measurement.window(i), thermal && thermal->throttled(i));
    }
    event(obs::EventKind::MeasureEnd, -1, 0.0, 0.0);
    sampler_.finish(timeline_);
    summarize(measurement.result().telemetry);
    // Sampled flights (complete and in flight) and histogram snapshots let
    // nocdvfs_report re-derive the percentile tables offline.
    if (flights_) timeline_.flights = flights_->take_flights();
    timeline_.histograms = measurement.histogram_snapshots();
  }

  obs::Timeline& timeline() noexcept { return timeline_; }

 private:
  static obs::TelemetryRegistry network_metrics(noc::Network& net, bool full) {
    net.set_stall_tracking(true);
    obs::TelemetryRegistry registry;
    net.register_telemetry(registry, full);
    return registry;
  }

  void event(obs::EventKind kind, int island, double a, double b) {
    timeline_.events.push_back({kind, island, static_cast<std::uint64_t>(clock_.now()), a, b});
  }

  void row(int island, const dvfs::WindowMeasurements& m, bool throttled) {
    const dvfs::DvfsManager& manager = bank_.manager(island);
    obs::IslandWindowRow r;
    r.f_hz = manager.current_frequency();
    r.vdd = manager.current_voltage();
    r.avg_delay_ns = m.avg_delay_ns;
    r.lambda_offered = m.lambda_node_offered;
    r.occupancy = m.avg_buffer_occupancy;
    r.ctrl_error = manager.controller().last_error();
    r.throttled = static_cast<std::uint8_t>(throttled ? 1 : 0);
    timeline_.island_rows.push_back(r);
  }

  /// The RunResult summary slice: stall totals and the top-k tiles/links.
  void summarize(TelemetryResult& tr) const {
    tr.enabled = true;
    tr.mode = obs::to_string(cfg_.telemetry.mode);
    tr.windows = static_cast<std::uint64_t>(timeline_.windows());
    std::vector<TelemetryResult::HotTile> tiles;
    tiles.reserve(static_cast<std::size_t>(net_.num_routers()));
    for (int r = 0; r < net_.num_routers(); ++r) {
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
    const std::size_t top_k = static_cast<std::size_t>(std::max(0, cfg_.telemetry.top_k));
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
  }

  const SimulatorConfig& cfg_;
  noc::Network& net_;
  const vfi::IslandControlBank& bank_;
  const MultiClock& clock_;
  obs::TelemetryRegistry registry_;
  obs::TelemetrySampler sampler_;  ///< reads registry_, declared after it
  obs::Timeline timeline_;
  std::unique_ptr<obs::FlightRecorder> flights_;
  std::vector<std::uint8_t> settled_;  ///< first-settle instant already recorded
  std::size_t fault_epochs_seen_ = 0;
};

void ThermalLoop::step(bool measuring, TelemetryRecorder* telemetry) {
  const Picoseconds now = clock_.now();
  snapshot_tiles();
  tile_acc_.sample(now, tile_activity_, tile_cycles_, tile_vdd_, measuring);
  model_.advance(now, tile_acc_.dynamic_w(), tile_acc_.leakage_nominal_w());
  for (int i = 0; i < n_islands_; ++i) {
    if (measuring && guard_.throttled(i)) {
      throttled_ps_[static_cast<std::size_t>(i)] += now - last_boundary_ps_;
    }
  }
  last_boundary_ps_ = now;
  for (int i = 0; i < n_islands_; ++i) {
    double peak = cfg_.params.ambient_c;
    for (const noc::NodeId id : net_.island_members(i)) {
      peak = std::max(peak, model_.tile_temp_c(id));
    }
    const bool was_throttled = guard_.throttled(i);
    const bool throttle = guard_.observe(i, peak);
    if (telemetry && throttle != was_throttled) telemetry->on_throttle(i, throttle, peak);
    const common::Hertz f_throttle =
        cfg_.guard.f_throttle > 0.0 ? cfg_.guard.f_throttle : bank_.manager(i).f_min();
    caps_[static_cast<std::size_t>(i)] = throttle ? f_throttle : 0.0;
  }
}

/// Host facts once the loop ended: the phase profile, wall time and peak
/// RSS, the run-provenance manifest (with the mem=on byte breakdown), and
/// the telemetry file export. Never feeds back into the metrics.
void host_epilogue(const SimulatorConfig& cfg, const noc::Network& net,
                   TelemetryRecorder* telemetry, obs::prof::Collector& prof,
                   std::chrono::steady_clock::time_point t0, RunResult& result) {
  if (cfg.prof) {
    prof.uninstall();
    result.host.profile = prof.take();
  }
  result.host.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.host.peak_rss_bytes = obs::sample_process_memory().peak_rss_bytes;

  // Run-provenance manifest: scenario keys + seed (sufficient to re-run
  // the point), build info, host facts, and the mem=on byte breakdown.
  for (const auto& [k, v] : cfg.manifest_keys) result.manifest.set("scenario." + k, v);
  obs::fill_build_info(result.manifest);
  if (cfg.prof) {
    // The ~0.2 s spin runs once per process, and only for profiled runs,
    // so it never pollutes a timed region.
    result.manifest.set_double("host.calib_mops", obs::host_calib_mops());
  }
  result.manifest.set_double("host.wall_s", result.host.wall_s);
  result.manifest.set("host.peak_rss_bytes", result.host.peak_rss_bytes);
  if (cfg.mem) {
    obs::MemBreakdown mem;
    // Router slabs are allocated at full capacity up front; source queues
    // hold one PendingPacket entry per queued packet; the packet table holds
    // every slot it ever grew to.
    std::uint64_t ring_slots = 0, slab_bytes = 0;
    for (int r = 0; r < net.num_routers(); ++r) {
      const noc::Router& router = net.router_at(r);
      ring_slots += static_cast<std::uint64_t>(router.radix()) *
                    static_cast<std::uint64_t>(router.config().num_vcs) *
                    static_cast<std::uint64_t>(router.config().vc_buffer_depth);
      slab_bytes += router.slab_bytes();
    }
    mem.add("router_buffers", ring_slots, slab_bytes);
    std::uint64_t queued = 0, queue_bytes = 0;
    for (noc::NodeId n = 0; n < net.num_nodes(); ++n) {
      queued += net.ni(n).source_queue_packets();
      queue_bytes += net.ni(n).source_queue_bytes();
    }
    mem.add("source_queues", queued, queue_bytes);
    mem.add("packet_table", net.packet_table().capacity(), net.packet_table().bytes());
    const obs::Timeline no_timeline;
    const obs::Timeline& tl = telemetry ? telemetry->timeline() : no_timeline;
    std::uint64_t tl_bytes = tl.window_t_ps.size() * sizeof(std::uint64_t) +
                             tl.island_rows.size() * sizeof(obs::IslandWindowRow) +
                             tl.events.size() * sizeof(obs::TimelineEvent);
    for (const obs::MetricSeries& s : tl.series) {
      tl_bytes += s.counts.size() * sizeof(std::uint64_t) + s.gauges.size() * sizeof(double);
    }
    std::uint64_t flight_bytes = tl.flights.size() * sizeof(obs::FlightRecord);
    for (const obs::FlightRecord& f : tl.flights) {
      flight_bytes += f.events.size() * sizeof(obs::FlightEvent);
    }
    mem.add("timeline", tl.series.size(), tl_bytes);
    mem.add("flight_recorder", tl.flights.size(), flight_bytes);
    // The delay histogram is always on; hist=on adds one per further slice.
    const DelayDistResult& dd = result.delay_dist;
    const std::size_t hists =
        1 + (dd.enabled ? 1 + dd.island_delay_ns.size() + dd.hop_delay_ns.size() : 0);
    mem.add("histogram_pool", hists, hists * sizeof(obs::LatencyHistogram));
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

  if (telemetry && !cfg.telemetry.out_base.empty()) {
    // The v3 host sections carry the completed profile and manifest.
    obs::Timeline& timeline = telemetry->timeline();
    timeline.manifest = result.manifest.entries;
    timeline.host_phases = result.host.profile.phases;
    obs::write_timeline_binary(timeline, cfg.telemetry.out_base + ".nocobs");
    obs::write_timeline_perfetto(timeline, cfg.telemetry.out_base + ".json");
  }
}

}  // namespace

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
  const int n_islands = bank_.num_islands();
  Measurement measurement(cfg_, phases, net_, bank_, energy_, clock_, *traffic_);
  // Thermal and telemetry state exist only when enabled; the off paths are
  // untouched.
  std::optional<ThermalLoop> thermal;
  if (cfg_.thermal.enabled) thermal.emplace(cfg_, net_, bank_, energy_, clock_);
  std::optional<TelemetryRecorder> telemetry;
  if (cfg_.telemetry.enabled()) telemetry.emplace(cfg_, net_, bank_, clock_);
  TelemetryRecorder* const telemetry_ptr = telemetry ? &*telemetry : nullptr;

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
          if (telemetry) {
            PROF_SCOPE("telemetry_sample");
            telemetry->drain_faults();
          }
          if (thermal) {
            PROF_SCOPE("thermal_step");
            thermal->step(measurement.measuring(), telemetry_ptr);
          }
          if (measurement.done()) {
            PROF_SCOPE("finalize");
            if (thermal) thermal->finish(measurement.start_ps(), measurement.result());
            measurement.finish();
            if (telemetry) telemetry->finish(measurement, thermal ? &*thermal : nullptr);
            break;
          }
          {
            PROF_SCOPE("control_window");
            for (int i = 0; i < n_islands; ++i) {
              const ControlStep step =
                  measurement.control_update(i, thermal ? thermal->cap(i) : 0.0);
              if (telemetry) {
                telemetry->on_control_update(i, step, thermal && thermal->throttled(i));
              }
            }
            measurement.close_window();
          }
          if (telemetry) {
            PROF_SCOPE("telemetry_sample");
            telemetry->sample(measurement);
          }
          if (measurement.begin_if_ready()) {
            if (thermal) thermal->begin_measurement();
            if (telemetry) telemetry->on_measure_start();
          }
        }
      }
      if (edge.noc_any) {
        // Tick every fired island before any island's phases run, so a CDC
        // push at this instant is timed from the reader's cycle count after
        // its same-instant edge, never before it.
        {
          PROF_SCOPE("channel_tick");
          for (const int d : clock_.fired()) net_.tick_island(d);
        }
        for (const int d : clock_.fired()) {
          PROF_SCOPE_ID("island_step", d);
          net_.run_island_phases(d, clock_.now());
          measurement.on_island_cycle(d);
          {
            PROF_SCOPE("deliveries");
            measurement.process_delivered();
          }
        }
      }
    }
  }

  RunResult result = std::move(measurement.result());
  host_epilogue(cfg_, net_, telemetry_ptr, prof_collector, host_t0, result);
  return result;
}

}  // namespace nocdvfs::sim
