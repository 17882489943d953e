/// \file test_bench.cpp
/// Tests of the benchmark's own machinery (exit 0 = pass):
///  1. the TimedTraffic decorator, with and without prof=on, leaves the
///     simulated results bit-identical — for a single global run, a
///     multi-island thermal run and a two-thread SweepRunner sweep — and
///     its boundary snapshot equals the network's counters after the run;
///  2. every metric in nocbench's tables has a valid name and unit, and
///     names are unique.

#include <cstdio>
#include <set>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace nocbench;

/// Metric names must match [A-Za-z0-9_.-]+ and start with a letter or digit.
bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units are 1..16 characters from letters, digits and `_ / % . -`.
bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

sim::Scenario tiny() {
  sim::Scenario s;
  s.network.width = s.network.height = 4;
  s.lambda = 0.2;
  s.seed = 11;
  s.control_period = 1000;
  s.phases.warmup_node_cycles = 2000;
  s.phases.measure_node_cycles = 4000;
  s.phases.adaptive_warmup = false;
  return s;
}

void decorator_is_transparent(const std::string& label, const sim::Scenario& plain) {
  auto reference = sim::make_simulator(plain);
  const sim::RunResult want = reference->run(plain.phases);
  check(flits_conserved(reference->network()), label + ": flit conservation");
  for (const char* prof : {"off", "on"}) {
    TallyPool pool;
    sim::Scenario s = timed(plain, pool);
    s.prof = prof;
    auto simulator = sim::make_simulator(s);
    const sim::RunResult got = simulator->run(s.phases);
    const std::string tag = label + " prof=" + prof;
    check(digest(got) == digest(want), tag + ": digest " + digest(got) + " != " + digest(want));
    const TrafficTally t = pool.total();
    check(t.net == read_counts(simulator->network()),
          tag + ": boundary snapshot differs from the final counters");
    check(t.node_ticks == got.warmup_node_cycles_used + got.measure_node_cycles,
          tag + ": one timed node tick per node cycle");
    check(t.conserved, tag + ": conservation at every boundary");
  }
}

void sweep_decorator_is_transparent() {
  sim::Scenario base = tiny();
  base.phases.adaptive_warmup = true;
  base.phases.max_warmup_node_cycles = 8000;
  const std::vector<sim::SweepAxis> axes = {
      sim::SweepAxis::lambda({0.1, 0.3}),
      sim::SweepAxis::policies({sim::Policy::Rmsd, sim::Policy::Dmsd})};
  sim::SweepRunner runner(sim::SweepRunner::Options{2});
  const auto want = runner.run(base, axes);
  TallyPool pool;
  sim::Scenario s = timed(base, pool);
  s.prof = "on";
  const auto got = runner.run(s, axes);
  check(got.size() == want.size(), "sweep: point count");
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    check(digest(got[i].result) == digest(want[i].result),
          "sweep point " + std::to_string(i) + ": digest");
    cycles += got[i].result.warmup_node_cycles_used + got[i].result.measure_node_cycles;
  }
  check(pool.total().node_ticks == cycles, "sweep: one timed node tick per node cycle");
}

void metric_tables_are_valid() {
  std::set<std::string> seen;
  const auto check_table = [&](const auto& table) {
    for (const MetricDef& d : table) {
      check(valid_metric_name(d.name), std::string("metric name '") + d.name + "'");
      check(valid_unit(d.unit), std::string("unit '") + d.unit + "' of " + d.name);
      check(seen.insert(d.name).second, std::string("duplicate metric ") + d.name);
    }
  };
  check_table(kEndToEnd);
  check_table(kPerLayer);
  check(!valid_metric_name("bad name") && !valid_metric_name(".x") && !valid_unit(""),
        "validators reject malformed names");
}

}  // namespace

int main() {
  decorator_is_transparent("global", tiny());
  sim::Scenario islands = tiny();
  islands.islands = "quadrants";
  islands.thermal = true;
  islands.policy.policy = sim::Policy::Dmsd;
  decorator_is_transparent("quadrants+thermal", islands);
  sweep_decorator_is_transparent();
  metric_tables_are_valid();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
