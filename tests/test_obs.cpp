// Telemetry subsystem tests: registry/sampler semantics, binary timeline
// round-trip, Perfetto writer structure, and — the load-bearing part —
// exact conservation between the sampled per-tile series and the
// network's live counters (stall taxonomy included) across mesh, torus,
// faulted, and multi-island scenarios.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

namespace fs = std::filesystem;

std::string temp_base(const std::string& name) {
  return (fs::temp_directory_path() / ("nocdvfs_test_obs_" + name)).string();
}

// ---------------------------------------------------------------------------
// Registry & sampler
// ---------------------------------------------------------------------------

TEST(TelemetryMode, StringRoundTripAndErrors) {
  using obs::TelemetryMode;
  EXPECT_EQ(obs::telemetry_mode_from_string("off"), TelemetryMode::Off);
  EXPECT_EQ(obs::telemetry_mode_from_string("Windows"), TelemetryMode::Windows);
  EXPECT_EQ(obs::telemetry_mode_from_string("FULL"), TelemetryMode::Full);
  EXPECT_STREQ(obs::to_string(TelemetryMode::Windows), "windows");
  EXPECT_THROW(obs::telemetry_mode_from_string("on"), std::invalid_argument);
  EXPECT_THROW(obs::telemetry_mode_from_string(""), std::invalid_argument);
}

TEST(TelemetryRegistry, RejectsDuplicatesAndBadEntities) {
  obs::TelemetryRegistry reg;
  reg.register_counter("c", obs::MetricScope::Tile, 4, [](int) { return 0ull; });
  EXPECT_THROW(
      reg.register_counter("c", obs::MetricScope::Node, 4, [](int) { return 0ull; }),
      std::invalid_argument);
  EXPECT_THROW(
      reg.register_gauge("g", obs::MetricScope::Tile, 0, [](int) { return 0.0; }),
      std::invalid_argument);
  EXPECT_THROW(
      reg.register_counter("", obs::MetricScope::Tile, 1, [](int) { return 0ull; }),
      std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(TelemetrySampler, CounterDeltasSumToLiveValue) {
  std::vector<std::uint64_t> live = {10, 20};  // baseline, taken at construction
  double gauge_value = 1.5;
  obs::TelemetryRegistry reg;
  reg.register_counter("flits", obs::MetricScope::Tile, 2,
                       [&](int e) { return live[static_cast<std::size_t>(e)]; });
  reg.register_gauge("occ", obs::MetricScope::Island, 1, [&](int) { return gauge_value; });
  obs::TelemetrySampler sampler(reg);

  live = {13, 20};
  sampler.sample();  // deltas {3, 0}
  live = {14, 27};
  gauge_value = 2.5;
  sampler.sample();  // deltas {1, 7}

  obs::Timeline tl;
  sampler.finish(tl);
  ASSERT_EQ(tl.series.size(), 2u);
  const obs::MetricSeries& flits = tl.series[0];
  EXPECT_EQ(flits.kind, obs::MetricKind::Counter);
  EXPECT_EQ(flits.count_at(0, 0), 3u);
  EXPECT_EQ(flits.count_at(1, 1), 7u);
  // Column sums reproduce the live counters minus the construction baseline.
  EXPECT_EQ(flits.entity_total(0), live[0] - 10);
  EXPECT_EQ(flits.entity_total(1), live[1] - 20);
  const obs::MetricSeries& occ = tl.series[1];
  EXPECT_EQ(occ.kind, obs::MetricKind::Gauge);
  EXPECT_DOUBLE_EQ(occ.gauge_at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(occ.gauge_at(1, 0), 2.5);
}

// ---------------------------------------------------------------------------
// Binary timeline round-trip
// ---------------------------------------------------------------------------

obs::Timeline synthetic_timeline() {
  obs::Timeline tl;
  tl.width = 3;
  tl.height = 2;
  tl.num_routers = 6;
  tl.num_islands = 2;
  tl.concentration = 1;
  tl.f_node_hz = 1e9;
  tl.control_period_node_cycles = 10000;
  tl.island_policy = {"rmsd", "dmsd"};
  tl.island_nodes = {3, 3};
  tl.window_t_ps = {10'000'000, 20'000'000};
  tl.island_rows = {{5e8, 0.9, 120.0, 0.2, 0.1, -0.05, 0},
                    {6e8, 0.95, 130.0, 0.25, 0.12, 0.02, 1},
                    {5.5e8, 0.92, 121.0, 0.21, 0.11, -0.01, 0},
                    {6.1e8, 0.96, 131.0, 0.26, 0.13, 0.03, 0}};
  tl.links = {{0, 1, 1}, {1, 3, 0}};
  obs::MetricSeries s;
  s.name = "flits_forwarded";
  s.scope = obs::MetricScope::Tile;
  s.kind = obs::MetricKind::Counter;
  s.entities = 6;
  s.counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  tl.series.push_back(s);
  obs::MetricSeries g;
  g.name = "cdc_occupancy";
  g.scope = obs::MetricScope::Island;
  g.kind = obs::MetricKind::Gauge;
  g.entities = 2;
  g.gauges = {0.5, 1.5, 2.5, 3.5};
  tl.series.push_back(g);
  tl.events = {{obs::EventKind::DvfsActuation, 0, 10'000'000, 5e8, 1e9},
               {obs::EventKind::FaultEpoch, -1, 15'000'000, 2.0, 0.0},
               {obs::EventKind::Settled, 1, 20'000'000, 6e8, 0.0}};
  // v2 sections: one complete two-hop packet flight and one histogram.
  obs::FlightRecord fl;
  fl.packet_id = 42;
  fl.src = 0;
  fl.dst = 1;
  fl.size_flits = 20;
  fl.traffic_class = 1;
  fl.create_t_ps = 900;
  fl.events = {{1000, -1, 0, obs::FlightStage::Inject},
               {1100, 0, 0, obs::FlightStage::RouterArrive},
               {1200, 0, 2, obs::FlightStage::RouteComputed},
               {1300, 0, 1, obs::FlightStage::VcGranted},
               {1400, 0, 2, obs::FlightStage::RouterDepart},
               {1500, 1, 1, obs::FlightStage::RouterArrive},
               {1600, 1, 4, obs::FlightStage::RouteComputed},
               {1700, 1, 0, obs::FlightStage::VcGranted},
               {1900, 1, 4, obs::FlightStage::RouterDepart},
               {2000, -1, 0, obs::FlightStage::Eject}};
  tl.flights.push_back(fl);
  obs::HistogramSnapshot hs;
  hs.label = "delay_ps";
  hs.count = 3;
  hs.min = 100;
  hs.max = 4000;
  hs.bucket_index = {13, 23};
  hs.bucket_count = {2, 1};
  tl.histograms.push_back(hs);
  return tl;
}

TEST(TimelineBinary, RoundTripsEveryField) {
  const obs::Timeline tl = synthetic_timeline();
  const std::string path = temp_base("roundtrip") + ".nocobs";
  obs::write_timeline_binary(tl, path);
  const obs::Timeline rt = obs::read_timeline_binary(path);

  EXPECT_EQ(rt.width, tl.width);
  EXPECT_EQ(rt.height, tl.height);
  EXPECT_EQ(rt.num_routers, tl.num_routers);
  EXPECT_EQ(rt.num_islands, tl.num_islands);
  EXPECT_EQ(rt.concentration, tl.concentration);
  EXPECT_DOUBLE_EQ(rt.f_node_hz, tl.f_node_hz);
  EXPECT_EQ(rt.control_period_node_cycles, tl.control_period_node_cycles);
  EXPECT_EQ(rt.island_policy, tl.island_policy);
  EXPECT_EQ(rt.island_nodes, tl.island_nodes);
  EXPECT_EQ(rt.window_t_ps, tl.window_t_ps);
  ASSERT_EQ(rt.island_rows.size(), tl.island_rows.size());
  for (std::size_t i = 0; i < tl.island_rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rt.island_rows[i].f_hz, tl.island_rows[i].f_hz);
    EXPECT_DOUBLE_EQ(rt.island_rows[i].ctrl_error, tl.island_rows[i].ctrl_error);
    EXPECT_EQ(rt.island_rows[i].throttled, tl.island_rows[i].throttled);
  }
  ASSERT_EQ(rt.links.size(), tl.links.size());
  EXPECT_EQ(rt.links[1].src_router, 1);
  EXPECT_EQ(rt.links[1].src_port, 3);
  ASSERT_EQ(rt.series.size(), tl.series.size());
  EXPECT_EQ(rt.series[0].name, "flits_forwarded");
  EXPECT_EQ(rt.series[0].counts, tl.series[0].counts);
  EXPECT_EQ(rt.series[1].gauges, tl.series[1].gauges);
  ASSERT_EQ(rt.events.size(), tl.events.size());
  EXPECT_EQ(rt.events[1].kind, obs::EventKind::FaultEpoch);
  EXPECT_EQ(rt.events[1].island, -1);
  EXPECT_EQ(rt.events[2].t_ps, 20'000'000u);
  EXPECT_DOUBLE_EQ(rt.events[0].b, 1e9);
  // v2 sections.
  EXPECT_EQ(rt.version, obs::Timeline::kVersion);
  ASSERT_EQ(rt.flights.size(), tl.flights.size());
  EXPECT_EQ(rt.flights[0].packet_id, 42u);
  EXPECT_EQ(rt.flights[0].src, 0);
  EXPECT_EQ(rt.flights[0].dst, 1);
  EXPECT_EQ(rt.flights[0].size_flits, 20);
  EXPECT_EQ(rt.flights[0].traffic_class, 1);
  EXPECT_EQ(rt.flights[0].create_t_ps, 900u);
  ASSERT_EQ(rt.flights[0].events.size(), tl.flights[0].events.size());
  EXPECT_EQ(rt.flights[0].events[1].stage, obs::FlightStage::RouterArrive);
  EXPECT_EQ(rt.flights[0].events[4].arg, 2);
  EXPECT_EQ(rt.flights[0].events.back().t_ps, 2000u);
  EXPECT_EQ(rt.flights[0].events.back().stage, obs::FlightStage::Eject);
  ASSERT_EQ(rt.histograms.size(), 1u);
  EXPECT_EQ(rt.histograms[0].label, "delay_ps");
  EXPECT_EQ(rt.histograms[0].count, 3u);
  EXPECT_EQ(rt.histograms[0].min, 100u);
  EXPECT_EQ(rt.histograms[0].max, 4000u);
  EXPECT_EQ(rt.histograms[0].bucket_index, tl.histograms[0].bucket_index);
  EXPECT_EQ(rt.histograms[0].bucket_count, tl.histograms[0].bucket_count);
  fs::remove(path);
}

TEST(TimelineBinary, RejectsTruncatedAndForeignFiles) {
  const obs::Timeline tl = synthetic_timeline();
  const std::string path = temp_base("truncate") + ".nocobs";
  obs::write_timeline_binary(tl, path);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW(obs::read_timeline_binary(path), std::runtime_error);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not a timeline";
  }
  EXPECT_THROW(obs::read_timeline_binary(path), std::runtime_error);
  EXPECT_THROW(obs::read_timeline_binary(temp_base("missing") + ".nocobs"),
               std::runtime_error);
  // A histogram bucket the reader's LatencyHistogram does not have.
  obs::Timeline bad = synthetic_timeline();
  bad.histograms[0].bucket_index.back() = obs::LatencyHistogram::kNumBuckets;
  obs::write_timeline_binary(bad, path);
  EXPECT_THROW(obs::read_timeline_binary(path), std::runtime_error);
  fs::remove(path);
}

TEST(TimelinePerfetto, EmitsStructuredTraceEvents) {
  const obs::Timeline tl = synthetic_timeline();
  std::ostringstream os;
  obs::write_timeline_perfetto(tl, os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  // One X span per (window, island) on the control-window track, plus the
  // flight's two hop spans and its source-queue wait (inject > create).
  std::size_t spans = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos) {
    ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(tl.windows() * tl.num_islands) + 3);
  // The complete journey is stitched with flow events keyed on the packet
  // id: one start at injection, one step per mid-journey hop, one end.
  const auto count_of = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0; (pos = json.find(needle, pos)) != std::string::npos; ++pos) ++n;
    return n;
  };
  EXPECT_EQ(count_of("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of("\"ph\":\"t\""), 2u);
  EXPECT_EQ(count_of("\"ph\":\"f\""), 1u);
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":42"), std::string::npos);
  std::size_t instants = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"i\"", pos)) != std::string::npos;
       ++pos) {
    ++instants;
  }
  EXPECT_EQ(instants, tl.events.size());
  // Balanced braces/brackets outside strings (metric/event names contain
  // neither) — a cheap structural sanity check.
  long depth = 0;
  for (const char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Conservation against the live network, across scenario shapes
// ---------------------------------------------------------------------------

sim::Scenario small_base() {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.lambda = 0.15;
  s.policy.policy = sim::Policy::Rmsd;
  s.phases.warmup_node_cycles = 20000;
  s.phases.measure_node_cycles = 20000;
  s.phases.max_warmup_node_cycles = 40000;
  s.telemetry = "full";
  return s;
}

/// Runs the scenario, then asserts the router-level stall conservation law
/// and the timeline-vs-live-counter identities. `name` keys the temp file.
void check_conservation(const sim::Scenario& s, const std::string& name) {
  SCOPED_TRACE(name);
  sim::Scenario scenario = s;
  const std::string base = temp_base(name);
  scenario.telemetry_out = base;
  auto simulator = sim::make_simulator(scenario);
  const sim::RunResult r = simulator->run(scenario.phases);
  const noc::Network& net = simulator->network();

  // Per-router: every busy VC-cycle is either a forward or exactly one
  // stall cause, and the forwarded count is traversals + fault drains.
  std::uint64_t traversals = 0, dropped = 0, busy = 0, stall_sum = 0;
  for (int rt = 0; rt < net.num_routers(); ++rt) {
    const noc::Router& router = net.router_at(rt);
    const noc::RouterStallCounters& st = router.stalls();
    EXPECT_EQ(st.busy_vc_cycles, st.forwarded + st.stall_sum()) << "router " << rt;
    EXPECT_EQ(st.forwarded,
              router.activity().crossbar_traversals + router.dropped_flits())
        << "router " << rt;
    traversals += router.activity().crossbar_traversals;
    dropped += router.dropped_flits();
    busy += st.busy_vc_cycles;
    stall_sum += st.stall_sum();
  }
  // RunResult summary slice mirrors the same totals.
  EXPECT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.busy_vc_cycles, busy);
  EXPECT_EQ(r.telemetry.flits_forwarded, traversals);
  EXPECT_EQ(r.telemetry.busy_vc_cycles,
            r.telemetry.flits_forwarded + dropped + r.telemetry.stall_route +
                r.telemetry.stall_vc_alloc + r.telemetry.stall_switch +
                r.telemetry.stall_credit + r.telemetry.stall_drop)
      << "summary-level conservation";
  EXPECT_EQ(stall_sum, r.telemetry.stall_route + r.telemetry.stall_vc_alloc +
                           r.telemetry.stall_switch + r.telemetry.stall_credit +
                           r.telemetry.stall_drop);

  // Heatmap conservation: the sampled columns sum to the live counters
  // exactly (counters are delta-sampled with a closing sample).
  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  EXPECT_EQ(tl.windows(), static_cast<int>(r.telemetry.windows));
  EXPECT_EQ(tl.island_rows.size(),
            static_cast<std::size_t>(tl.windows() * tl.num_islands));
  for (std::size_t w = 1; w < tl.window_t_ps.size(); ++w) {
    EXPECT_LT(tl.window_t_ps[w - 1], tl.window_t_ps[w]);
  }

  const obs::MetricSeries* fw = tl.find_series("flits_forwarded");
  ASSERT_NE(fw, nullptr);
  std::uint64_t fw_sum = 0;
  for (int e = 0; e < fw->entities; ++e) fw_sum += fw->entity_total(e);
  EXPECT_EQ(fw_sum, traversals);

  const obs::MetricSeries* dropped_series = tl.find_series("flits_dropped");
  ASSERT_NE(dropped_series, nullptr);
  std::uint64_t drop_sum = 0;
  for (int e = 0; e < dropped_series->entities; ++e) {
    drop_sum += dropped_series->entity_total(e);
  }
  EXPECT_EQ(drop_sum, dropped);

  for (const char* name_and_total :
       {"flits_generated", "flits_injected", "flits_ejected", "refused_flits"}) {
    const obs::MetricSeries* series = tl.find_series(name_and_total);
    ASSERT_NE(series, nullptr) << name_and_total;
    EXPECT_EQ(series->scope, obs::MetricScope::Node);
    std::uint64_t sum = 0;
    for (int e = 0; e < series->entities; ++e) sum += series->entity_total(e);
    if (std::string(name_and_total) == "flits_generated") {
      EXPECT_EQ(sum, net.total_flits_generated());
    } else if (std::string(name_and_total) == "flits_ejected") {
      EXPECT_EQ(sum, net.total_flits_ejected());
    }
  }

  // Stall series sum to the router counters per cause.
  const struct {
    const char* series;
    std::uint64_t expected;
  } stalls[] = {{"stall_route", r.telemetry.stall_route},
                {"stall_vc_alloc", r.telemetry.stall_vc_alloc},
                {"stall_switch", r.telemetry.stall_switch},
                {"stall_credit", r.telemetry.stall_credit},
                {"stall_drop", r.telemetry.stall_drop},
                {"busy_vc_cycles", r.telemetry.busy_vc_cycles}};
  for (const auto& [series_name, expected] : stalls) {
    const obs::MetricSeries* series = tl.find_series(series_name);
    ASSERT_NE(series, nullptr) << series_name;
    std::uint64_t sum = 0;
    for (int e = 0; e < series->entities; ++e) sum += series->entity_total(e);
    EXPECT_EQ(sum, expected) << series_name;
  }

  // Link columns (telemetry=full): per-link totals match the source
  // routers' per-port counters, and every link's flits are part of the
  // forwarding total.
  const obs::MetricSeries* link_flits = tl.find_series("link_flits");
  ASSERT_NE(link_flits, nullptr);
  ASSERT_EQ(static_cast<std::size_t>(link_flits->entities), tl.links.size());
  for (int e = 0; e < link_flits->entities; ++e) {
    const obs::LinkInfo& li = tl.links[static_cast<std::size_t>(e)];
    EXPECT_EQ(link_flits->entity_total(e),
              net.router_at(li.src_router).port_flits_forwarded(li.src_port));
  }

  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
}

TEST(TelemetryConservation, Mesh) { check_conservation(small_base(), "mesh"); }

TEST(TelemetryConservation, TorusAdaptive) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  check_conservation(s, "torus");
}

TEST(TelemetryConservation, FaultedTorus) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  s.network.faults = "links:2@0+links:1@30000";
  check_conservation(s, "faulted");
}

TEST(TelemetryConservation, MultiIsland) {
  sim::Scenario s = small_base();
  s.islands = "quadrants";
  s.island_policies = "rmsd,dmsd,rmsd,qbsd";
  check_conservation(s, "islands");
}

// ---------------------------------------------------------------------------
// Events & off-path identity
// ---------------------------------------------------------------------------

TEST(TelemetryEvents, FaultEpochsAndMeasureMarkersAppear) {
  sim::Scenario s = small_base();
  s.network.topology = topo::TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Adaptive;
  s.network.faults = "links:2@0";
  const std::string base = temp_base("events");
  s.telemetry_out = base;
  (void)sim::run(s);
  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  int faults = 0, reroutes = 0, starts = 0, ends = 0, actuations = 0;
  std::uint64_t last_t = 0;
  for (const obs::TimelineEvent& ev : tl.events) {
    switch (ev.kind) {
      case obs::EventKind::FaultEpoch: ++faults; break;
      case obs::EventKind::Reroute: ++reroutes; break;
      case obs::EventKind::MeasureStart: ++starts; break;
      case obs::EventKind::MeasureEnd: ++ends; break;
      case obs::EventKind::DvfsActuation: ++actuations; break;
      default: break;
    }
    EXPECT_GE(ev.t_ps, ev.kind == obs::EventKind::FaultEpoch ||
                               ev.kind == obs::EventKind::Reroute
                           ? 0
                           : last_t);
    if (ev.kind != obs::EventKind::FaultEpoch && ev.kind != obs::EventKind::Reroute) {
      last_t = ev.t_ps;
    }
  }
  EXPECT_EQ(faults, 1);  // the at-start epoch
  EXPECT_EQ(reroutes, 1);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_GT(actuations, 0);
  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
}

/// telemetry=windows must not perturb the simulation: every headline
/// metric is bitwise identical to the telemetry=off run.
TEST(TelemetryOffPath, WindowsModeIsMetricsInvisible) {
  sim::Scenario off = small_base();
  off.telemetry = "off";
  sim::Scenario windows = small_base();
  windows.telemetry = "windows";
  const sim::RunResult a = sim::run(off);
  const sim::RunResult b = sim::run(windows);
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  EXPECT_EQ(bits(a.avg_delay_ns), bits(b.avg_delay_ns));
  EXPECT_EQ(bits(a.p99_delay_ns), bits(b.p99_delay_ns));
  EXPECT_EQ(bits(a.avg_frequency_hz), bits(b.avg_frequency_hz));
  EXPECT_EQ(bits(a.avg_voltage), bits(b.avg_voltage));
  EXPECT_EQ(bits(a.power.total_j()), bits(b.power.total_j()));
  EXPECT_EQ(bits(a.energy_per_bit_pj), bits(b.energy_per_bit_pj));
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measure_noc_cycles, b.measure_noc_cycles);
  EXPECT_FALSE(a.telemetry.enabled);
  EXPECT_TRUE(b.telemetry.enabled);
  EXPECT_GT(b.telemetry.busy_vc_cycles, 0u);
  // windows mode records no link table (that's full's job).
  EXPECT_TRUE(b.telemetry.top_links.size() > 0);  // summary links come from live counters
}

TEST(TelemetryScenario, ValidatesModeAndDefaultsOff) {
  sim::Scenario s = small_base();
  s.telemetry = "bogus";
  EXPECT_FALSE(sim::scenario_problem(s).empty());
  EXPECT_THROW(sim::make_simulator(s), std::invalid_argument);
  sim::Scenario d;
  EXPECT_EQ(d.telemetry, "off");
  EXPECT_TRUE(sim::scenario_problem(d).empty());
}

}  // namespace
}  // namespace nocdvfs
