// SweepRunner tests: cross-product expansion order, axis factories,
// serial-vs-parallel determinism (the same Scenario + seed must produce
// bit-identical RunResults regardless of thread count), sink output, and
// error propagation out of the worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/sweep.hpp"

namespace nocdvfs::sim {
namespace {

Scenario tiny() {
  Scenario s;
  s.network.width = 3;
  s.network.height = 3;
  s.packet_size = 4;
  s.lambda = 0.08;
  s.control_period = 2000;
  s.phases.warmup_node_cycles = 5000;
  s.phases.measure_node_cycles = 8000;
  s.phases.adaptive_warmup = false;
  return s;
}

TEST(SweepExpand, RowMajorCrossProduct) {
  const auto points = SweepRunner::expand(
      tiny(), {SweepAxis::lambda({0.05, 0.1}),
               SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd})});
  ASSERT_EQ(points.size(), 6u);
  // Outer axis (lambda) varies slowest.
  EXPECT_DOUBLE_EQ(points[0].scenario.lambda, 0.05);
  EXPECT_EQ(points[0].scenario.policy.policy, Policy::NoDvfs);
  EXPECT_EQ(points[2].scenario.policy.policy, Policy::Dmsd);
  EXPECT_DOUBLE_EQ(points[3].scenario.lambda, 0.1);
  EXPECT_EQ(points[3].scenario.policy.policy, Policy::NoDvfs);
  // Coordinates carry the axis labels in axis order.
  ASSERT_EQ(points[5].coordinates.size(), 2u);
  EXPECT_EQ(points[5].coordinates[1], "dmsd");
  EXPECT_EQ(points[5].index, 5u);
}

TEST(SweepExpand, SeedAxisAndEmptyAxisRejection) {
  const auto points = SweepRunner::expand(tiny(), {SweepAxis::seeds(3, 10)});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario.seed, 10u);
  EXPECT_EQ(points[2].scenario.seed, 12u);

  EXPECT_THROW(SweepRunner::expand(tiny(), {SweepAxis::lambda({})}),
               std::invalid_argument);
}

TEST(SweepExpand, NoAxesMeansSingleBasePoint) {
  const auto points = SweepRunner::expand(tiny(), {});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].coordinates.empty());
}

// The determinism contract of the issue: the same Scenario + seed produces
// bit-identical RunResults whether executed serially or through the
// multi-threaded SweepRunner (threads only change who runs which index,
// never the per-run RNG streams or the result order).
TEST(SweepRun, ParallelMatchesSerialBitIdentically) {
  const Scenario base = tiny();
  const std::vector<SweepAxis> axes = {
      SweepAxis::lambda({0.05, 0.1, 0.15}),
      SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd})};

  SweepRunner::Options serial_opt;
  serial_opt.threads = 1;
  SweepRunner serial(serial_opt);
  const auto serial_recs = serial.run(base, axes);

  SweepRunner::Options parallel_opt;
  parallel_opt.threads = 4;
  SweepRunner parallel(parallel_opt);
  const auto parallel_recs = parallel.run(base, axes);

  ASSERT_EQ(serial_recs.size(), parallel_recs.size());
  for (std::size_t i = 0; i < serial_recs.size(); ++i) {
    const RunResult& a = serial_recs[i].result;
    const RunResult& b = parallel_recs[i].result;
    EXPECT_EQ(a.avg_delay_ns, b.avg_delay_ns) << "point " << i;
    EXPECT_EQ(a.p99_delay_ns, b.p99_delay_ns) << "point " << i;
    EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles) << "point " << i;
    EXPECT_EQ(a.packets_delivered, b.packets_delivered) << "point " << i;
    EXPECT_EQ(a.avg_frequency_hz, b.avg_frequency_hz) << "point " << i;
    EXPECT_EQ(a.avg_voltage, b.avg_voltage) << "point " << i;
    EXPECT_EQ(a.power_mw(), b.power_mw()) << "point " << i;
    EXPECT_EQ(a.delivered_flits_per_node_cycle, b.delivered_flits_per_node_cycle)
        << "point " << i;
    EXPECT_EQ(a.measured_offered_lambda, b.measured_offered_lambda) << "point " << i;
    ASSERT_EQ(a.vf_trace.size(), b.vf_trace.size()) << "point " << i;
    for (std::size_t j = 0; j < a.vf_trace.size(); ++j) {
      EXPECT_EQ(a.vf_trace[j].t, b.vf_trace[j].t);
      EXPECT_EQ(a.vf_trace[j].f, b.vf_trace[j].f);
      EXPECT_EQ(a.vf_trace[j].vdd, b.vf_trace[j].vdd);
    }
  }
}

TEST(SweepRun, RecordsArriveInRowMajorOrderRegardlessOfCompletion) {
  // Mix cheap and expensive points so completion order differs from index
  // order; records must still come back row-major.
  SweepRunner::Options opt;
  opt.threads = 4;
  SweepRunner runner(opt);
  Scenario slow = tiny();
  slow.phases.measure_node_cycles = 20000;
  const auto recs =
      runner.run(slow, {SweepAxis::lambda({0.15, 0.05, 0.1}), SweepAxis::seeds(2, 1)});
  ASSERT_EQ(recs.size(), 6u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].point.index, i);
  }
  EXPECT_DOUBLE_EQ(recs[0].point.scenario.lambda, 0.15);
  EXPECT_EQ(recs[1].point.scenario.seed, 2u);
  EXPECT_DOUBLE_EQ(recs[4].point.scenario.lambda, 0.1);
}

TEST(SweepRun, WorkerExceptionsPropagate) {
  Scenario bad = tiny();
  bad.pattern = "vortex";  // unknown pattern → the run throws in a worker
  SweepRunner::Options opt;
  opt.threads = 2;
  SweepRunner runner(opt);
  EXPECT_THROW(runner.run(bad, {SweepAxis::seeds(4, 1)}), std::invalid_argument);
}

TEST(SweepSinks, CsvHasHeaderAndOneRowPerRun) {
  std::ostringstream csv;
  CsvResultSink sink(csv);
  SweepRunner runner;
  runner.add_sink(sink);
  runner.run(tiny(), {SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd})}, "unit-test");

  std::istringstream in(csv.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  EXPECT_EQ(lines[0].rfind("group,index,point", 0), 0u);
  EXPECT_NE(lines[1].find("unit-test,0,"), std::string::npos);
  EXPECT_NE(lines[1].find("nodvfs"), std::string::npos);
  EXPECT_NE(lines[2].find("rmsd"), std::string::npos);
}

TEST(SweepSinks, JsonlCarriesTrajectories) {
  std::ostringstream jsonl;
  JsonlResultSink sink(jsonl, /*include_traces=*/true);
  SweepRunner runner;
  runner.add_sink(sink);
  runner.run(tiny(), {SweepAxis::policies({Policy::Rmsd})}, "unit-test");

  const std::string out = jsonl.str();
  EXPECT_NE(out.find("\"group\":\"unit-test\""), std::string::npos);
  EXPECT_NE(out.find("\"policy\":\"rmsd\""), std::string::npos);
  EXPECT_NE(out.find("\"window_trace\":["), std::string::npos);
  EXPECT_NE(out.find("\"vf_trace\":["), std::string::npos);
  // The percentile resolution rides next to the percentile.
  EXPECT_NE(out.find(",\"quantile_rel_err\":0.03125,"), std::string::npos);
  // One JSON object per line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

/// Feeds the sink a hand-built record whose escaped string fields carry
/// every character class the escaper must handle: the stream must stay one
/// valid JSON object per line.
TEST(SweepSinks, JsonlEscapesHostileStrings) {
  std::ostringstream jsonl;
  JsonlResultSink sink(jsonl, /*include_traces=*/false);
  sink.begin_sweep("group \"quoted\"\\back", {});

  SweepRecord rec;
  rec.point.index = 0;
  rec.point.coordinates = {"label\twith\ttabs", "newline\nlabel"};
  rec.point.scenario.pattern = "uni\xc3\xa9orm";          // "uniéorm": UTF-8 passthrough
  rec.point.scenario.app = "app\\path\"x\"";              // backslashes + quotes
  rec.point.scenario.islands = "quad\x01rants";           // C0 control char
  rec.point.scenario.network.faults = "links:1";
  sink.on_result(rec);

  const std::string out = jsonl.str();
  ASSERT_EQ(std::count(out.begin(), out.end(), '\n'), 1);

  // Escaped forms appear; raw unescaped forms don't.
  EXPECT_NE(out.find("\"group \\\"quoted\\\"\\\\back\""), std::string::npos) << out;
  EXPECT_NE(out.find("label\\twith\\ttabs"), std::string::npos) << out;
  EXPECT_NE(out.find("newline\\nlabel"), std::string::npos) << out;
  EXPECT_NE(out.find("app\\\\path\\\"x\\\""), std::string::npos) << out;
  EXPECT_NE(out.find("quad\\u0001rants"), std::string::npos) << out;
  EXPECT_NE(out.find("uni\xc3\xa9orm"), std::string::npos) << out;  // bytes intact
  EXPECT_EQ(out.find('\t'), std::string::npos);
  EXPECT_EQ(out.find('\x01'), std::string::npos);

  // Structural sanity: no control characters inside, and the line's quotes
  // are balanced once escapes are discounted.
  std::size_t unescaped_quotes = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char ch = out[i];
    if (static_cast<unsigned char>(ch) < 0x20 && ch != '\n') {
      ADD_FAILURE() << "raw control char at offset " << i;
    }
    if (ch == '\\') {
      ++i;  // skip escaped char
    } else if (ch == '"') {
      ++unescaped_quotes;
    }
  }
  EXPECT_EQ(unescaped_quotes % 2, 0u);
}

TEST(SweepPointLabel, JoinsAxisNamesAndCoordinates) {
  const auto points = SweepRunner::expand(
      tiny(), {SweepAxis::lambda({0.05}), SweepAxis::policies({Policy::Dmsd})});
  const std::vector<SweepAxis> axes = {SweepAxis::lambda({0.05}),
                                       SweepAxis::policies({Policy::Dmsd})};
  EXPECT_EQ(points[0].label(axes), "lambda=0.05 policy=dmsd");
}

}  // namespace
}  // namespace nocdvfs::sim
