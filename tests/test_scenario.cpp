// Scenario-layer tests: the declarative experiment value type, its
// two-way common::Config binding, and the workload variants
// (synthetic / app / trace / custom).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "traffic/request_reply.hpp"

namespace nocdvfs::sim {
namespace {

RunPhases short_phases() {
  RunPhases phases;
  phases.warmup_node_cycles = 8000;
  phases.measure_node_cycles = 12000;
  phases.adaptive_warmup = false;
  return phases;
}

Scenario small_synthetic() {
  Scenario s;
  s.network.width = 3;
  s.network.height = 3;
  s.packet_size = 4;
  s.lambda = 0.1;
  s.control_period = 2000;
  s.phases = short_phases();
  return s;
}

bool results_identical(const RunResult& a, const RunResult& b) {
  return a.avg_delay_ns == b.avg_delay_ns && a.packets_delivered == b.packets_delivered &&
         a.avg_latency_cycles == b.avg_latency_cycles &&
         a.avg_frequency_hz == b.avg_frequency_hz && a.power_mw() == b.power_mw() &&
         a.delivered_flits_per_node_cycle == b.delivered_flits_per_node_cycle &&
         a.vf_trace.size() == b.vf_trace.size() &&
         a.window_trace.size() == b.window_trace.size();
}

TEST(ScenarioConfig, DeclareAndFromConfigRoundTrip) {
  Scenario defaults = small_synthetic();
  defaults.pattern = "tornado";
  defaults.policy.policy = Policy::Dmsd;
  defaults.policy.target_delay_ns = 123.5;
  defaults.seed = 9;

  common::Config c;
  Scenario::declare_keys(c, defaults);
  const Scenario round = Scenario::from_config(c);

  EXPECT_EQ(round.workload, Scenario::Workload::Synthetic);
  EXPECT_EQ(round.pattern, "tornado");
  EXPECT_EQ(round.network.width, 3);
  EXPECT_EQ(round.packet_size, 4);
  EXPECT_DOUBLE_EQ(round.lambda, 0.1);
  EXPECT_EQ(round.policy.policy, Policy::Dmsd);
  EXPECT_DOUBLE_EQ(round.policy.target_delay_ns, 123.5);
  EXPECT_EQ(round.control_period, 2000u);
  EXPECT_EQ(round.seed, 9u);
  EXPECT_EQ(round.phases.warmup_node_cycles, 8000u);
  EXPECT_EQ(round.phases.measure_node_cycles, 12000u);
  EXPECT_FALSE(round.phases.adaptive_warmup);
}

TEST(ScenarioConfig, KeyValueOverridesReachTheScenario) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* argv[] = {"prog",   "workload=app", "app=vce",    "speed=0.5",
                        "vcs=4",  "policy=QBSD",  "lambda=0.3", "seed=77"};
  c.parse_args(8, argv);
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.workload, Scenario::Workload::App);
  EXPECT_EQ(s.app, "vce");
  EXPECT_DOUBLE_EQ(s.speed, 0.5);
  EXPECT_EQ(s.network.num_vcs, 4);
  EXPECT_EQ(s.policy.policy, Policy::Qbsd);  // case-insensitive
  EXPECT_DOUBLE_EQ(s.lambda, 0.3);
  EXPECT_EQ(s.seed, 77u);
}

TEST(ScenarioConfig, UnknownWorkloadRejected) {
  common::Config c;
  Scenario::declare_keys(c);
  c.set("workload", "magic");
  EXPECT_THROW(Scenario::from_config(c), std::invalid_argument);
}

TEST(ScenarioConfig, NegativeUnsignedKeysRejected) {
  for (const char* key : {"measure", "warmup", "max_warmup", "control_period", "seed",
                          "fault_seed", "pkt_trace_rate", "vf_trace_max"}) {
    common::Config c;
    Scenario::declare_keys(c);
    c.set(key, "-1");
    try {
      Scenario::from_config(c);
      ADD_FAILURE() << key << "=-1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"), std::string::npos)
          << e.what();
    }
    c.set(key, "0");
    EXPECT_NO_THROW(Scenario::from_config(c)) << key;
  }
}

TEST(ScenarioRun, RerunIsBitIdentical) {
  Scenario s = small_synthetic();
  s.policy.policy = Policy::Rmsd;
  s.policy.lambda_max = 0.4;
  const RunResult a = run(s);
  const RunResult b = run(s);
  EXPECT_TRUE(results_identical(a, b));
}

TEST(ScenarioConfig, TraceAndRecordKeysRoundTrip) {
  common::Config c;
  Scenario::declare_keys(c);
  const char* argv[] = {"prog", "workload=trace", "trace=run.noctrace",
                        "trace_scale=1.5", "trace_loop=1", "record=out.noctrace"};
  c.parse_args(6, argv);
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.workload, Scenario::Workload::Trace);
  EXPECT_EQ(s.trace_path, "run.noctrace");
  EXPECT_DOUBLE_EQ(s.trace_scale, 1.5);
  EXPECT_TRUE(s.trace_loop);
  EXPECT_EQ(s.record_path, "out.noctrace");
}

TEST(ScenarioRun, TraceWorkloadWithoutPathThrows) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Trace;
  EXPECT_THROW(run(s), std::invalid_argument);
  EXPECT_THROW(mean_lambda(s), std::invalid_argument);
}

TEST(ScenarioRun, CustomWorkloadRunsThroughFactory) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  s.traffic_factory = [](const Scenario& sc) -> std::unique_ptr<traffic::TrafficModel> {
    noc::MeshTopology topo(sc.network.width, sc.network.height);
    traffic::RequestReplyParams rr;
    rr.request_rate = 0.01;
    rr.seed = sc.seed;
    return std::make_unique<traffic::RequestReplyTraffic>(topo, rr);
  };
  const RunResult r = run(s);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.class1_packets, 0u);  // replies flowed, so the factory was honored
}

TEST(ScenarioRun, CustomWorkloadWithoutFactoryThrows) {
  Scenario s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  EXPECT_THROW(run(s), std::invalid_argument);
}

TEST(ScenarioMeanLambda, PerWorkloadSemantics) {
  Scenario s = small_synthetic();
  EXPECT_DOUBLE_EQ(mean_lambda(s), s.lambda);

  s.workload = Scenario::Workload::App;
  s.app = "h264";
  s.speed = 1.0;
  s.traffic_scale = 1.0;
  const double base = mean_lambda(s);
  EXPECT_GT(base, 0.0);
  s.speed = 2.0;
  EXPECT_NEAR(mean_lambda(s), 2.0 * base, 1e-12);

  s.workload = Scenario::Workload::Custom;
  EXPECT_THROW(mean_lambda(s), std::invalid_argument);
}

TEST(ScenarioSimulator, MakeSimulatorExposesComposition) {
  const Scenario s = small_synthetic();
  const auto simulator = make_simulator(s);
  ASSERT_NE(simulator, nullptr);
  EXPECT_EQ(simulator->config().network.width, 3);
  EXPECT_EQ(simulator->config().control_period_node_cycles, 2000u);
}

TEST(ScenarioValidation, SimulatorAndSweepReportTheSameProblem) {
  // One bad scenario per validated area; both entry points must surface
  // scenario_problem's text verbatim.
  struct Case {
    const char* area;
    Scenario scenario;
  };
  std::vector<Case> cases;
  Scenario s = small_synthetic();
  s.islands = "bogus";
  cases.push_back({"islands", s});
  s = small_synthetic();
  s.thermal = true;
  s.rc_lateral = 0.0;
  cases.push_back({"thermal", s});
  s = small_synthetic();
  s.network.faults = "links:nope";
  cases.push_back({"topology", s});
  s = small_synthetic();
  s.hist = "maybe";
  cases.push_back({"telemetry", s});
  s = small_synthetic();
  s.workload = Scenario::Workload::Custom;
  cases.push_back({"custom workload", s});
  s = small_synthetic();
  s.workload = Scenario::Workload::Trace;
  cases.push_back({"trace workload", s});

  for (const Case& c : cases) {
    const std::string problem = scenario_problem(c.scenario);
    ASSERT_FALSE(problem.empty()) << c.area;
    std::string from_simulator, from_sweep;
    try {
      make_simulator(c.scenario);
    } catch (const std::invalid_argument& e) {
      from_simulator = e.what();
    }
    try {
      SweepRunner runner;
      runner.run(c.scenario, {});
    } catch (const std::invalid_argument& e) {
      from_sweep = e.what();
    }
    EXPECT_EQ(from_simulator, "Scenario: " + problem) << c.area;
    const std::string tail = ": " + problem;
    ASSERT_GE(from_sweep.size(), tail.size()) << c.area << ": " << from_sweep;
    EXPECT_EQ(from_sweep.substr(from_sweep.size() - tail.size()), tail) << c.area;
    EXPECT_EQ(from_sweep.rfind("SweepRunner: cannot run sweep point #0", 0), 0u) << from_sweep;
  }
  EXPECT_EQ(scenario_problem(small_synthetic()), "");
}

}  // namespace
}  // namespace nocdvfs::sim
