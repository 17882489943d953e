#pragma once

/// \file bench.hpp
/// Pieces of the nocbench program that its tests exercise too: the metric
/// tables, the timing decorator around a traffic model, the per-run work
/// counters read from the network, the headline-result digest and the
/// flit-conservation check. Everything here calls only the simulator's
/// public API.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "traffic/traffic_model.hpp"

namespace nocbench {

namespace sim = nocdvfs::sim;
namespace noc = nocdvfs::noc;
namespace traffic = nocdvfs::traffic;

// ---------------------------------------------------------------------------
// Metric tables. nocbench emits exactly these names, in this order, and
// nothing else: end-to-end metrics with --trace 0, per-layer with --trace 1.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"node_cycles_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"noc.island_step_ms", "ms"},
    {"noc.ns_per_tile_step", "ns"},
    {"noc.tile_steps", "count"},
    {"noc.flit_hops", "count"},
    {"noc.crossbar_traversals", "count"},
    {"noc.alloc_requests", "count"},
    {"noc.alloc_grant_ratio", "ratio"},
    {"noc.flits_ejected", "count"},
    {"noc.tile_steps_skipped", "count"},
    {"noc.skip_ratio", "ratio"},
    {"noc.channel_tick_ms", "ms"},
    {"traffic.node_tick_ms", "ms"},
    {"traffic.node_ticks", "count"},
    {"traffic.ns_per_node_tick", "ns"},
    {"traffic.packets_generated", "count"},
    {"sim.run_ms", "ms"},
    {"sim.loop_self_ms", "ms"},
    {"sim.deliveries_ms", "ms"},
    {"sim.noc_edges", "count"},
    {"dvfs.control_ms", "ms"},
    {"dvfs.updates", "count"},
    {"dvfs.actuations", "count"},
    {"thermal.step_ms", "ms"},
    {"thermal.steps", "count"},
    {"sweep.wall_s", "s"},
    {"sweep.points", "count"},
    {"sweep.point_s_p50", "s"},
    {"sweep.point_s_max", "s"},
    {"sweep.worker_util", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// Work counters of one run, read through Network's public accessors.
// ---------------------------------------------------------------------------

struct NetCounts {
  std::uint64_t noc_edges = 0;        ///< Σ island cycles
  std::uint64_t tile_slots = 0;       ///< Σ island cycles × island tiles
  std::uint64_t tile_steps_skipped = 0;
  nocdvfs::power::ActivityCounters activity;
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_generated = 0;

  std::uint64_t tile_steps() const { return tile_slots - tile_steps_skipped; }
  bool operator==(const NetCounts& o) const {
    const auto& a = activity;
    const auto& b = o.activity;
    return noc_edges == o.noc_edges && tile_slots == o.tile_slots &&
           tile_steps_skipped == o.tile_steps_skipped && flits_ejected == o.flits_ejected &&
           packets_generated == o.packets_generated && a.buffer_writes == b.buffer_writes &&
           a.buffer_reads == b.buffer_reads && a.crossbar_traversals == b.crossbar_traversals &&
           a.vc_alloc_grants == b.vc_alloc_grants && a.sw_alloc_grants == b.sw_alloc_grants &&
           a.alloc_requests == b.alloc_requests && a.link_flit_hops == b.link_flit_hops &&
           a.local_flit_hops == b.local_flit_hops;
  }

  NetCounts& operator+=(const NetCounts& o) {
    noc_edges += o.noc_edges;
    tile_slots += o.tile_slots;
    tile_steps_skipped += o.tile_steps_skipped;
    activity += o.activity;
    flits_ejected += o.flits_ejected;
    packets_generated += o.packets_generated;
    return *this;
  }
};

inline NetCounts read_counts(const noc::Network& net) {
  NetCounts c;
  for (int i = 0; i < net.num_islands(); ++i) {
    const std::uint64_t cycles = net.island_cycles(i);
    c.noc_edges += cycles;
    c.tile_slots += cycles * net.island_tiles(i).size();
  }
  c.tile_steps_skipped = net.idle_steps_skipped();
  c.activity = net.total_activity();
  c.flits_ejected = net.total_flits_ejected();
  c.packets_generated = net.total_packets_generated();
  return c;
}

/// Flit conservation: every generated flit is ejected, inside the network,
/// still queued at its source, or dropped.
inline bool flits_conserved(const noc::Network& net) {
  return net.total_flits_generated() == net.total_flits_ejected() + net.flits_in_network() +
                                            net.total_source_backlog_flits() +
                                            net.total_flits_dropped();
}

// ---------------------------------------------------------------------------
// Timing decorator around the real traffic model.
// ---------------------------------------------------------------------------

/// What one decorated run observed. `net` is the network's counters at the
/// most recent control-period boundary: a run always ends on one, right
/// after the node tick, so after the run `net` equals the final counters —
/// which makes them readable for SweepRunner points too, whose simulators
/// the caller never sees.
struct TrafficTally {
  std::uint64_t node_ticks = 0;
  std::uint64_t node_tick_ns = 0;
  NetCounts net;
  bool conserved = true;  ///< flits_conserved at every boundary seen
};

/// Forwards every call to the wrapped model unchanged and times
/// `node_tick`. The simulated results are bit-identical to running the
/// wrapped model directly (checked by the benchmark's tests and on every
/// traced run).
class TimedTraffic final : public traffic::TrafficModel {
 public:
  TimedTraffic(std::unique_ptr<traffic::TrafficModel> inner, std::uint64_t control_period,
               TrafficTally& tally)
      : inner_(std::move(inner)), control_period_(control_period), tally_(tally) {}

  void node_tick(nocdvfs::common::Picoseconds now, std::uint64_t noc_cycle,
                 noc::Network& net) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->node_tick(now, noc_cycle, net);
    const auto t1 = std::chrono::steady_clock::now();
    tally_.node_tick_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (++tally_.node_ticks % control_period_ == 0) {
      tally_.net = read_counts(net);
      tally_.conserved = tally_.conserved && flits_conserved(net);
    }
  }
  void on_packet_delivered(const noc::PacketRecord& record,
                           nocdvfs::common::Picoseconds now) override {
    inner_->on_packet_delivered(record, now);
  }
  double offered_flits_per_node_cycle() const noexcept override {
    return inner_->offered_flits_per_node_cycle();
  }
  const char* name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<traffic::TrafficModel> inner_;
  std::uint64_t control_period_;
  TrafficTally& tally_;
};

/// The SyntheticTraffic a `workload=synthetic` scenario builds.
inline std::unique_ptr<traffic::TrafficModel> make_synthetic(const sim::Scenario& s) {
  noc::MeshTopology topo(s.network.width, s.network.height);
  traffic::SyntheticTrafficParams tp;
  tp.lambda = s.lambda;
  tp.packet_size = s.packet_size;
  tp.pattern = s.pattern;
  tp.process = s.process;
  tp.seed = s.seed;
  tp.hotspot_fraction = s.hotspot_fraction;
  return std::make_unique<traffic::SyntheticTraffic>(topo, tp);
}

/// One tally per simulator the factory builds. SweepRunner calls the
/// factory from its worker threads, so slot creation is locked; each slot
/// is then written by the one thread running that point and read only
/// after SweepRunner::run has joined its workers.
class TallyPool {
 public:
  TrafficTally& add() {
    std::lock_guard<std::mutex> lock(mu_);
    return tallies_.emplace_back();
  }
  /// Sum over every run; call only once no run is in flight.
  TrafficTally total() const {
    std::lock_guard<std::mutex> lock(mu_);
    TrafficTally t;
    for (const TrafficTally& x : tallies_) {
      t.node_ticks += x.node_ticks;
      t.node_tick_ns += x.node_tick_ns;
      t.net += x.net;
      t.conserved = t.conserved && x.conserved;
    }
    return t;
  }

 private:
  mutable std::mutex mu_;
  std::deque<TrafficTally> tallies_;  ///< deque: slots never move
};

/// `s` turned into a custom workload whose traffic is the scenario's own
/// synthetic model behind the timing decorator. `pool` must outlive every
/// run of the returned scenario.
inline sim::Scenario timed(sim::Scenario s, TallyPool& pool) {
  s.workload = sim::Scenario::Workload::Custom;
  s.traffic_factory = [&pool](const sim::Scenario& point) {
    return std::make_unique<TimedTraffic>(make_synthetic(point), point.control_period,
                                          pool.add());
  };
  return s;
}

// ---------------------------------------------------------------------------
// Headline-result digest.
// ---------------------------------------------------------------------------

/// Hexfloat rendering of the headline RunResult fields: packets delivered,
/// average delay, average frequency, total power and delivered flits per
/// node cycle (the measured ejection rate). Equal strings mean
/// bit-identical results.
inline std::string digest(const sim::RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "pkts=%llu delay_ns=%a freq_hz=%a power_mw=%a flits_pnc=%a",
                static_cast<unsigned long long>(r.packets_delivered), r.avg_delay_ns,
                r.avg_frequency_hz, r.power_mw(), r.delivered_flits_per_node_cycle);
  return buf;
}

}  // namespace nocbench
