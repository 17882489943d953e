// Golden bit-identity suite — the in-tree form of the hexfloat-diff
// discipline PRs 4–5 ran only in CI: a fixed-seed scenario matrix
// (policy × pattern × island layout × thermal) is executed and every
// headline RunResult metric is compared *textually* against a checked-in
// golden file, doubles rendered as hexfloat so the comparison is exact to
// the last bit. Any rewrite of the simulator hot path (skip-idle stepping,
// storage layouts, batching) must reproduce this file bit-for-bit.
//
// Regenerating the golden (one command, from the repo root):
//
//   NOCDVFS_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics
//
// which rewrites tests/golden/golden_metrics.txt in the source tree.
// Regeneration is only legitimate when the *simulated behaviour* is meant
// to change (new subsystem defaults, a physics fix); a perf-only PR that
// needs it has a correctness bug.
//
// The same command rewrites tests/golden/work_counts.txt, the work-count
// golden: exact work counters (island edges, tile steps, allocator and
// crossbar activity, flit hops, packets) of short versions of the
// nocbench workloads. They are host-independent, so a skip-idle, wake or
// allocator regression that leaves the headline metrics alone still fails
// here on any machine. Wall time is nocbench's job, not this file's.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

#ifndef NOCDVFS_GOLDEN_DIR
#error "NOCDVFS_GOLDEN_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace nocdvfs::sim {
namespace {

constexpr const char* kGoldenPath = NOCDVFS_GOLDEN_DIR "/golden_metrics.txt";
constexpr const char* kWorkCountsPath = NOCDVFS_GOLDEN_DIR "/work_counts.txt";

/// The fixed-seed scenario matrix. Short fixed phases (no adaptive warmup)
/// keep the whole matrix a few seconds while still exercising every
/// policy's control loop, the quadrant island partition (CDC crossings and
/// per-island control), and the thermal subsystem's feedback path.
std::vector<Scenario> golden_matrix() {
  std::vector<Scenario> out;
  for (const Policy policy : {Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd, Policy::Qbsd}) {
    for (const char* pattern : {"hotspot", "transpose"}) {
      for (const char* islands : {"global", "quadrants"}) {
        for (const bool thermal : {false, true}) {
          Scenario s;
          s.pattern = pattern;
          s.lambda = 0.15;
          s.packet_size = 20;
          s.network.width = 5;
          s.network.height = 5;
          s.policy.policy = policy;
          s.islands = islands;
          s.thermal = thermal;
          s.seed = 1;
          s.control_period = 5000;
          s.phases.warmup_node_cycles = 20000;
          s.phases.measure_node_cycles = 20000;
          s.phases.adaptive_warmup = false;
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

std::string scenario_name(const Scenario& s) {
  std::string name = to_string(s.policy.policy);
  name += '-';
  name += s.pattern;
  name += '-';
  name += s.islands;
  name += s.thermal ? "-thermal" : "-cold";
  return name;
}

/// One scenario's headline metrics as a single text line: doubles in
/// hexfloat (exact), counters in decimal. The golden file is these lines
/// in matrix order.
std::string metrics_line(const std::string& name, const RunResult& r) {
  std::ostringstream os;
  os << name << std::hexfloat;
  os << " packets=" << r.packets_delivered;
  os << " avg_delay_ns=" << r.avg_delay_ns;
  os << " min_delay_ns=" << r.min_delay_ns;
  os << " max_delay_ns=" << r.max_delay_ns;
  os << " p50=" << r.p50_delay_ns;
  os << " p95=" << r.p95_delay_ns;
  os << " p99=" << r.p99_delay_ns;
  os << " latency_cycles=" << r.avg_latency_cycles;
  os << " hops=" << r.avg_hops;
  os << " offered=" << r.measured_offered_lambda;
  os << " thr_node=" << r.delivered_flits_per_node_cycle;
  os << " thr_noc=" << r.delivered_flits_per_noc_cycle;
  os << " occupancy=" << r.avg_buffer_occupancy;
  os << " f_avg=" << r.avg_frequency_hz;
  os << " v_avg=" << r.avg_voltage;
  os << " f_final=" << r.final_frequency_hz;
  os << " datapath_j=" << r.power.datapath_j;
  os << " clock_j=" << r.power.clock_j;
  os << " leakage_j=" << r.power.leakage_j;
  os << " epb_pj=" << r.energy_per_bit_pj;
  os << " edp_js=" << r.energy_delay_product_js;
  os << " noc_cycles=" << r.measure_noc_cycles;
  os << " backlog=" << r.backlog_growth_flits;
  os << " saturated=" << (r.saturated ? 1 : 0);
  os << " peak_temp_c=" << r.thermal.peak_temp_c;
  os << " throttle_res=" << r.thermal.throttle_residency;
  return os.str();
}

/// The matrix's lines, every scenario run with `tile_workers` (0 = the
/// default, auto).
std::vector<std::string> compute_lines(int tile_workers = 0) {
  std::vector<std::string> lines;
  for (Scenario s : golden_matrix()) {
    s.network.tile_workers = tile_workers;
    lines.push_back(metrics_line(scenario_name(s), run(s)));
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool update_mode() {
  const char* v = std::getenv("NOCDVFS_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) != "0";
}

/// Compares `fresh` line by line with the golden file at `path`, or
/// rewrites the file with `fresh` under NOCDVFS_UPDATE_GOLDEN=1.
void expect_matches_golden(const char* path, const std::vector<std::string>& fresh) {
  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    for (const std::string& line : fresh) out << line << '\n';
    std::cout << "[golden] wrote " << fresh.size() << " scenario lines to " << path << "\n";
    return;
  }

  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << "golden file missing or empty: " << path
      << "\nregenerate with: NOCDVFS_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics";
  ASSERT_EQ(golden.size(), fresh.size()) << "scenario matrix size changed; regenerate the "
                                            "golden if the change is intentional";
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(golden[i], fresh[i])
        << path << " diverged (scenario " << i
        << "). If this PR was meant to be metrics-preserving this is a bug; if the "
           "behaviour change is intentional, regenerate with NOCDVFS_UPDATE_GOLDEN=1.";
  }
}

TEST(GoldenMetrics, MatrixMatchesCheckedInGolden) {
  expect_matches_golden(kGoldenPath, compute_lines());
}

/// Tile-parallel stepping must be metrically invisible: the whole matrix
/// stepped on 3 workers per island cycle (25 tiles, or 6–7 per quadrant,
/// split unevenly) reproduces the checked-in golden unchanged.
TEST(GoldenMetrics, TileParallelMatrixMatchesCheckedInGolden) {
  const std::vector<std::string> golden = read_lines(kGoldenPath);
  const std::vector<std::string> fresh = compute_lines(3);
  ASSERT_EQ(golden.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(golden[i], fresh[i]) << "tile_workers=3 diverged from the golden (scenario " << i
                                   << ")";
  }
}

/// A saturated 16×16 mesh is where auto mode actually goes parallel: its
/// headline line and every router's activity counters equal a serial
/// (tile_workers=1) run, with skip-idle on and off and on quadrant islands.
TEST(GoldenMetrics, SaturatedMeshAutoWorkersMatchSerial) {
  struct Case {
    const char* islands;
    bool skip_idle;
  };
  for (const Case c : {Case{"global", true}, Case{"global", false}, Case{"quadrants", true}}) {
    Scenario s;
    s.pattern = "uniform";
    s.lambda = 0.5;
    s.network.width = 16;
    s.network.height = 16;
    s.islands = c.islands;
    s.skip_idle = c.skip_idle;
    s.control_period = 1000;
    s.phases.warmup_node_cycles = 1000;
    s.phases.measure_node_cycles = 1000;
    s.phases.adaptive_warmup = false;
    Scenario serial_s = s;
    serial_s.network.tile_workers = 1;
    const std::string name = std::string(c.islands) + (c.skip_idle ? "-skip" : "-always");
    const std::unique_ptr<Simulator> par = make_simulator(s);
    const std::unique_ptr<Simulator> serial = make_simulator(serial_s);
    const RunResult r_par = par->run(s.phases);
    const RunResult r_serial = serial->run(s.phases);
    EXPECT_EQ(metrics_line(name, r_par), metrics_line(name, r_serial));
    const noc::Network& a = par->network();
    const noc::Network& b = serial->network();
    for (int r = 0; r < a.num_routers(); ++r) {
      const power::ActivityCounters& x = a.router_at(r).activity();
      const power::ActivityCounters& y = b.router_at(r).activity();
      ASSERT_TRUE(x.buffer_writes == y.buffer_writes && x.buffer_reads == y.buffer_reads &&
                  x.crossbar_traversals == y.crossbar_traversals &&
                  x.vc_alloc_grants == y.vc_alloc_grants &&
                  x.sw_alloc_grants == y.sw_alloc_grants &&
                  x.alloc_requests == y.alloc_requests &&
                  x.link_flit_hops == y.link_flit_hops &&
                  x.local_flit_hops == y.local_flit_hops)
          << name << ": router " << r << " activity differs from the serial run";
    }
  }
}

/// The always-step escape hatch must be metrically invisible: a
/// representative slice of the matrix re-run with skip_idle=false (the
/// pre-optimization stepping discipline) produces byte-identical headline
/// lines. This is the in-tree gate that the activity-list hot path is an
/// optimization, not a behaviour change.
TEST(GoldenMetrics, SkipIdleOffIsBitIdentical) {
  const std::vector<Scenario> matrix = golden_matrix();
  // One scenario per policy, covering both island layouts and thermal on.
  for (const std::size_t i : {0u, 7u, 17u, 22u, 30u}) {
    ASSERT_LT(i, matrix.size());
    Scenario on = matrix[i];
    Scenario off = matrix[i];
    on.skip_idle = true;
    off.skip_idle = false;
    const std::string name = scenario_name(on);
    EXPECT_EQ(metrics_line(name, run(on)), metrics_line(name, run(off)))
        << "skip-idle stepping diverged from the always-step path for " << name;
  }
}

/// The host profiler and memory accounting must be metrically invisible:
/// a slice of the matrix re-run with prof=on mem=on produces byte-identical
/// headline lines. Host observability reads the wall clock and /proc, never
/// simulator state that feeds back into the run.
TEST(GoldenMetrics, ProfilingIsBitIdentical) {
  const std::vector<Scenario> matrix = golden_matrix();
  for (const std::size_t i : {0u, 7u, 17u, 30u}) {
    ASSERT_LT(i, matrix.size());
    Scenario off = matrix[i];
    Scenario on = matrix[i];
    on.prof = "on";
    on.mem = "on";
    const std::string name = scenario_name(on);
    const RunResult r_on = run(on);
    EXPECT_FALSE(r_on.host.profile.empty())
        << "prof=on produced no host profile for " << name;
    EXPECT_EQ(metrics_line(name, r_on), metrics_line(name, run(off)))
        << "prof=on mem=on changed headline metrics for " << name;
  }
}

// ---------------------------------------------------------------------------
// Work-count golden
// ---------------------------------------------------------------------------

/// Exact work counters of one run, read through Network's public
/// accessors (the ones nocbench's read_counts uses).
struct WorkCounts {
  std::uint64_t noc_edges = 0;   ///< Σ island cycles
  std::uint64_t tile_slots = 0;  ///< Σ island cycles × island tiles
  std::uint64_t tile_steps_skipped = 0;
  power::ActivityCounters activity;
  std::uint64_t packets_generated = 0;
};

std::string work_line(const std::string& name, const WorkCounts& c) {
  std::ostringstream os;
  os << name << " noc_edges=" << c.noc_edges << " tile_slots=" << c.tile_slots
     << " tile_steps_skipped=" << c.tile_steps_skipped
     << " crossbar_traversals=" << c.activity.crossbar_traversals
     << " alloc_requests=" << c.activity.alloc_requests
     << " link_flit_hops=" << c.activity.link_flit_hops
     << " local_flit_hops=" << c.activity.local_flit_hops
     << " packets_generated=" << c.packets_generated;
  return os.str();
}

WorkCounts run_counts(const Scenario& s) {
  const std::unique_ptr<Simulator> simulator = make_simulator(s);
  simulator->run(s.phases);
  const noc::Network& net = simulator->network();
  WorkCounts c;
  for (int i = 0; i < net.num_islands(); ++i) {
    c.noc_edges += net.island_cycles(i);
    c.tile_slots += net.island_cycles(i) * net.island_tiles(i).size();
  }
  c.tile_steps_skipped = net.idle_steps_skipped();
  c.activity = net.total_activity();
  c.packets_generated = net.total_packets_generated();
  return c;
}

RunPhases fixed_phases(std::uint64_t warmup, std::uint64_t measure) {
  RunPhases p;
  p.warmup_node_cycles = warmup;
  p.measure_node_cycles = measure;
  p.adaptive_warmup = false;
  return p;
}

/// Short versions of the four nocbench workloads (same meshes, loads,
/// policies and island layouts; fewer cycles), open-loop uniform Bernoulli
/// traffic as there.
std::vector<std::pair<std::string, Scenario>> work_scenarios() {
  Scenario base;
  base.pattern = "uniform";
  base.process = "bernoulli";
  base.seed = 1;

  Scenario sat = base;
  sat.network.width = sat.network.height = 16;
  sat.lambda = 0.5;
  sat.control_period = 500;
  sat.phases = fixed_phases(500, 1000);

  Scenario sparse = base;
  sparse.network.width = sparse.network.height = 32;
  sparse.lambda = 0.002;
  sparse.policy.policy = Policy::Dmsd;
  sparse.control_period = 2000;
  sparse.phases = fixed_phases(2000, 4000);

  Scenario vfi = base;
  vfi.network.width = vfi.network.height = 8;
  vfi.islands = "per_router";
  vfi.thermal = true;
  vfi.lambda = 0.1;
  vfi.policy.policy = Policy::Dmsd;
  vfi.control_period = 2000;
  vfi.phases = fixed_phases(2000, 4000);

  // One point of the paper_sweep5 λ × policy grid, adaptive warmup on.
  Scenario paper = base;
  paper.lambda = 0.15;
  paper.policy.policy = Policy::Dmsd;
  paper.control_period = 2000;
  paper.phases.warmup_node_cycles = 4000;
  paper.phases.measure_node_cycles = 4000;
  paper.phases.max_warmup_node_cycles = 20000;
  paper.phases.adaptive_warmup = true;

  return {{"sat_mesh16", sat},
          {"sparse_mesh32", sparse},
          {"vfi_per_router8", vfi},
          {"paper_sweep5", paper}};
}

TEST(WorkCounts, MatchCheckedInGolden) {
  std::vector<std::string> lines;
  WorkCounts sparse;
  Scenario sparse_s;
  for (const auto& [name, s] : work_scenarios()) {
    const WorkCounts c = run_counts(s);
    lines.push_back(work_line(name, c));
    if (name == "sparse_mesh32") {
      sparse = c;
      sparse_s = s;
    }
  }
  EXPECT_GT(sparse.tile_steps_skipped, 0u) << "the sparse run elided no tile steps";

  // The always-step twin does exactly the skip-idle run's work: every count
  // is equal except the skipped tile steps, which are 0.
  sparse_s.skip_idle = false;
  const WorkCounts always = run_counts(sparse_s);
  lines.push_back(work_line("sparse_mesh32_alwaysstep", always));
  EXPECT_EQ(always.tile_steps_skipped, 0u);
  WorkCounts expected = sparse;
  expected.tile_steps_skipped = 0;
  EXPECT_EQ(work_line("twin", always), work_line("twin", expected))
      << "always-step did different work from skip-idle";

  expect_matches_golden(kWorkCountsPath, lines);
}

}  // namespace
}  // namespace nocdvfs::sim
