// Host-observability suite: the phase profiler's accounting and off-mode
// guarantees, the run-provenance manifest, the .nocobs v3 host sections,
// the cross-tool magic diagnostics, and the SweepRunner host report.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "obs/manifest.hpp"
#include "obs/memstats.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "trace/trace.hpp"

namespace {

// ---------------------------------------------------------------------------
// Global allocation counter (for the off-mode zero-allocation test). The
// replacement operators delegate to malloc/free, so every other test runs
// through them too — harmless, they only add a relaxed counter bump.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nocdvfs {
namespace {

using obs::PhaseStats;
using obs::Profile;
using obs::RunManifest;
using obs::Timeline;

void spin_for(std::chrono::microseconds d) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < d) {
  }
}

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A small, fast scenario for end-to-end host-observability checks.
sim::Scenario small_scenario() {
  sim::Scenario s;
  s.network.width = 5;
  s.network.height = 5;
  s.lambda = 0.05;
  s.seed = 1;
  s.control_period = 5000;
  s.phases.warmup_node_cycles = 5000;
  s.phases.measure_node_cycles = 10000;
  s.phases.adaptive_warmup = false;
  return s;
}

// ---------------------------------------------------------------------------
// Profiler accounting
// ---------------------------------------------------------------------------

TEST(ProfCollector, NestedScopesAccountInclusiveAndExclusive) {
  obs::prof::Collector c;
  c.install();
  {
    PROF_SCOPE("outer");
    spin_for(std::chrono::microseconds(200));
    {
      PROF_SCOPE("inner");
      spin_for(std::chrono::microseconds(200));
    }
    {
      PROF_SCOPE("inner");
      spin_for(std::chrono::microseconds(200));
    }
  }
  c.uninstall();
  const Profile p = c.take();

  ASSERT_EQ(p.phases.size(), 2u);
  const PhaseStats& outer = p.phases[0];
  const PhaseStats& inner = p.phases[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.calls, 2u);  // same (name, id) → one node, two calls

  // Inclusive covers the children; exclusive is exactly the remainder.
  EXPECT_GE(outer.inclusive_ns, inner.inclusive_ns);
  EXPECT_EQ(outer.exclusive_ns, outer.inclusive_ns - inner.inclusive_ns);
  // A leaf's exclusive time is its inclusive time.
  EXPECT_EQ(inner.exclusive_ns, inner.inclusive_ns);
  // Both phases really measured the spins.
  EXPECT_GE(outer.exclusive_ns, 100'000u);
  EXPECT_GE(inner.inclusive_ns, 300'000u);
}

TEST(ProfCollector, PerIdScopesBecomeDistinctPhases) {
  obs::prof::Collector c;
  c.install();
  {
    PROF_SCOPE("run");
    for (int rep = 0; rep < 3; ++rep) {
      for (int island = 0; island < 2; ++island) {
        PROF_SCOPE_ID("island_step", island);
        spin_for(std::chrono::microseconds(50));
      }
    }
  }
  c.uninstall();
  const Profile p = c.take();

  ASSERT_EQ(p.phases.size(), 3u);
  EXPECT_EQ(p.phases[0].name, "run");
  EXPECT_EQ(p.phases[1].name, "island_step#0");
  EXPECT_EQ(p.phases[1].calls, 3u);
  EXPECT_EQ(p.phases[2].name, "island_step#1");
  EXPECT_EQ(p.phases[2].calls, 3u);
  EXPECT_EQ(p.root_inclusive_ns(), p.phases[0].inclusive_ns);
}

TEST(ProfProfile, MergeIsDeterministicAndSums) {
  const auto mk = [](std::vector<PhaseStats> phases) {
    Profile p;
    p.phases = std::move(phases);
    return p;
  };
  const Profile p1 = mk({{"run", 0, 1, 100, 40}, {"a", 1, 2, 30, 30}, {"b", 1, 1, 30, 30}});
  const Profile p2 = mk({{"run", 0, 1, 200, 80}, {"b", 1, 3, 60, 60}, {"c", 1, 1, 60, 60}});

  Profile m = p1;
  m.merge(p2);
  ASSERT_EQ(m.phases.size(), 4u);
  // First profile's order is preserved; new phases append in encounter order.
  EXPECT_EQ(m.phases[0].name, "run");
  EXPECT_EQ(m.phases[1].name, "a");
  EXPECT_EQ(m.phases[2].name, "b");
  EXPECT_EQ(m.phases[3].name, "c");
  EXPECT_EQ(m.phases[0].calls, 2u);
  EXPECT_EQ(m.phases[0].inclusive_ns, 300u);
  EXPECT_EQ(m.phases[0].exclusive_ns, 120u);
  EXPECT_EQ(m.phases[2].calls, 4u);
  EXPECT_EQ(m.phases[2].inclusive_ns, 90u);
  EXPECT_EQ(m.phases[3].calls, 1u);

  // Merging the same inputs again yields the identical result.
  Profile m2 = p1;
  m2.merge(p2);
  ASSERT_EQ(m2.phases.size(), m.phases.size());
  for (std::size_t i = 0; i < m.phases.size(); ++i) {
    EXPECT_EQ(m2.phases[i].name, m.phases[i].name);
    EXPECT_EQ(m2.phases[i].calls, m.phases[i].calls);
    EXPECT_EQ(m2.phases[i].inclusive_ns, m.phases[i].inclusive_ns);
    EXPECT_EQ(m2.phases[i].exclusive_ns, m.phases[i].exclusive_ns);
  }
}

TEST(ProfScope, OffModeAllocatesNothing) {
  ASSERT_FALSE(obs::prof::globally_enabled());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    PROF_SCOPE("never_recorded");
    PROF_SCOPE_ID("never_recorded_id", i);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "prof=off scopes must not allocate";
}

// ---------------------------------------------------------------------------
// Manifest & memstats
// ---------------------------------------------------------------------------

TEST(RunManifest, SetOverwritesInPlaceAndFindsKeys) {
  RunManifest m;
  m.set("a", std::string("1"));
  m.set("b", std::uint64_t{2});
  m.set("a", std::string("3"));  // overwrite keeps position
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].first, "a");
  EXPECT_EQ(m.entries[0].second, "3");
  ASSERT_NE(m.find("b"), nullptr);
  EXPECT_EQ(*m.find("b"), "2");
  EXPECT_EQ(m.find("missing"), nullptr);
}

TEST(RunManifest, BuildInfoNamesCompilerAndGit) {
  RunManifest m;
  obs::fill_build_info(m);
  ASSERT_NE(m.find("build.compiler"), nullptr);
  ASSERT_NE(m.find("build.git"), nullptr);
  ASSERT_NE(m.find("build.asserts"), nullptr);
  EXPECT_FALSE(m.find("build.compiler")->empty());
}

TEST(MemStats, ProcessMemorySamplesNonZeroOnLinux) {
#if defined(__linux__)
  const obs::MemSample s = obs::sample_process_memory();
  EXPECT_GT(s.peak_rss_bytes, 0u);
  EXPECT_GT(s.current_rss_bytes, 0u);
#else
  GTEST_SKIP() << "peak-RSS sampling is Linux-only";
#endif
}

TEST(HostResult, RunAttachesWallTimeManifestAndProfile) {
  sim::Scenario s = small_scenario();
  s.prof = "on";
  s.mem = "on";
  const sim::RunResult r = sim::run(s);

  EXPECT_GT(r.host.wall_s, 0.0);
#if defined(__linux__)
  EXPECT_GT(r.host.peak_rss_bytes, 0u);
#endif

  // The manifest re-runs the point: scenario keys + seed are all present.
  ASSERT_NE(r.manifest.find("scenario.seed"), nullptr);
  EXPECT_EQ(*r.manifest.find("scenario.seed"), "1");
  ASSERT_NE(r.manifest.find("scenario.lambda"), nullptr);
  ASSERT_NE(r.manifest.find("scenario.prof"), nullptr);
  ASSERT_NE(r.manifest.find("build.compiler"), nullptr);
  ASSERT_NE(r.manifest.find("host.wall_s"), nullptr);
  ASSERT_NE(r.manifest.find("host.calib_mops"), nullptr);
  ASSERT_NE(r.manifest.find("mem.total_bytes"), nullptr);

  // mem=on sizes the NoC's storage from what actually holds it: router
  // slabs (allocated whole at construction), source-queue entries, and
  // the packet table's lazily grown slots.
  const auto mem_value = [&r](const std::string& key) -> std::uint64_t {
    const std::string* v = r.manifest.find("mem." + key);
    EXPECT_NE(v, nullptr) << key;
    return v ? std::stoull(*v) : 0;
  };
  EXPECT_EQ(r.manifest.find("mem.flits_in_flight.bytes"), nullptr);
  const noc::Network reference(s.network);
  std::uint64_t slab_bytes = 0;
  for (int i = 0; i < reference.num_routers(); ++i) {
    slab_bytes += reference.router_at(i).slab_bytes();
  }
  const std::uint64_t ring_slots = 25u * noc::kMeshPorts *
                                   static_cast<std::uint64_t>(s.network.num_vcs) *
                                   static_cast<std::uint64_t>(s.network.vc_buffer_depth);
  EXPECT_EQ(mem_value("router_buffers.objects"), ring_slots);
  EXPECT_EQ(mem_value("router_buffers.bytes"), slab_bytes);
  EXPECT_GE(slab_bytes, ring_slots * sizeof(noc::Flit));
  const std::uint64_t table_slots = mem_value("packet_table.objects");
  EXPECT_GT(table_slots, 0u);
  EXPECT_LT(table_slots, r.packets_delivered) << "the table grows to the packets in flight";
  EXPECT_GE(mem_value("packet_table.bytes"), table_slots * sizeof(noc::PacketInfo));
  if (mem_value("source_queues.objects") == 0) {
    EXPECT_EQ(mem_value("source_queues.bytes"), 0u);
  }

  // prof=on yields a profile rooted at the main loop's "run" phase, and
  // the root's inclusive time is bounded by the measured host wall time.
  ASSERT_FALSE(r.host.profile.empty());
  EXPECT_EQ(r.host.profile.phases.front().name, "run");
  EXPECT_GT(r.host.profile.root_inclusive_ns(), 0u);
  EXPECT_LE(static_cast<double>(r.host.profile.root_inclusive_ns()) * 1e-9,
            r.host.wall_s * 1.05);
}

TEST(HostResult, ProfOffLeavesProfileEmptyButManifestPresent) {
  const sim::RunResult r = sim::run(small_scenario());
  EXPECT_TRUE(r.host.profile.empty());
  EXPECT_GT(r.host.wall_s, 0.0);
  ASSERT_NE(r.manifest.find("scenario.seed"), nullptr);
  EXPECT_EQ(r.manifest.find("host.calib_mops"), nullptr);  // prof-gated spin
  EXPECT_EQ(r.manifest.find("mem.total_bytes"), nullptr);  // mem=off
}

// ---------------------------------------------------------------------------
// .nocobs v3 round-trip & cross-tool magic diagnostics
// ---------------------------------------------------------------------------

Timeline host_only_timeline() {
  Timeline tl;
  tl.manifest = {{"scenario.seed", "1"}, {"build.compiler", "test"}};
  tl.host_phases = {{"run", 0, 1, 5000, 2000}, {"island_step#0", 1, 10, 3000, 3000}};
  tl.host_spans = {{0, 0, 100, 200}, {1, 1, 120, 260}};
  tl.host_workers = {{0, 1, 100}, {1, 1, 140}};
  return tl;
}

TEST(TimelineV3, HostSectionsRoundTrip) {
  const std::string path = tmp_path("nocdvfs_test_host_sections.nocobs");
  const Timeline tl = host_only_timeline();
  obs::write_timeline_binary(tl, path);
  const Timeline back = obs::read_timeline_binary(path);

  EXPECT_EQ(back.version, Timeline::kVersion);
  ASSERT_EQ(back.manifest.size(), tl.manifest.size());
  EXPECT_EQ(back.manifest[0].first, "scenario.seed");
  EXPECT_EQ(back.manifest[0].second, "1");
  ASSERT_EQ(back.host_phases.size(), 2u);
  EXPECT_EQ(back.host_phases[0].name, "run");
  EXPECT_EQ(back.host_phases[1].name, "island_step#0");
  EXPECT_EQ(back.host_phases[1].depth, 1);
  EXPECT_EQ(back.host_phases[1].calls, 10u);
  EXPECT_EQ(back.host_phases[1].inclusive_ns, 3000u);
  ASSERT_EQ(back.host_spans.size(), 2u);
  EXPECT_EQ(back.host_spans[1].worker, 1);
  EXPECT_EQ(back.host_spans[1].t1_ns, 260u);
  ASSERT_EQ(back.host_workers.size(), 2u);
  EXPECT_EQ(back.host_workers[1].busy_ns, 140u);
  std::filesystem::remove(path);
}

TEST(TimelineV3, ExportedRunCarriesManifestAndPhases) {
  const std::string base = tmp_path("nocdvfs_test_prof_export");
  sim::Scenario s = small_scenario();
  s.prof = "on";
  s.telemetry = "windows";
  s.telemetry_out = base;
  sim::run(s);

  const Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  EXPECT_FALSE(tl.manifest.empty());
  ASSERT_FALSE(tl.host_phases.empty());
  EXPECT_EQ(tl.host_phases.front().name, "run");

  // The Perfetto export gained a "host" process with the phase spans.
  std::ifstream json(base + ".json");
  ASSERT_TRUE(json);
  std::stringstream buf;
  buf << json.rdbuf();
  const std::string j = buf.str();
  EXPECT_NE(j.find("\"name\":\"host\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"host\""), std::string::npos);
  std::filesystem::remove(base + ".nocobs");
  std::filesystem::remove(base + ".json");
}

TEST(MagicMismatch, TimelineReaderNamesTheTraceToolForNoctraceFiles) {
  const std::string path = tmp_path("nocdvfs_test_magic.noctrace");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "NOCTRACE";
    const std::string zeros(32, '\0');
    os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  try {
    obs::read_timeline_binary(path);
    FAIL() << "expected a magic-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NOCT"), std::string::npos) << msg;
    EXPECT_NE(msg.find("NOCO"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nocdvfs_trace"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(MagicMismatch, TraceReaderNamesTheReportToolForNocobsFiles) {
  const std::string path = tmp_path("nocdvfs_test_magic.nocobs");
  obs::write_timeline_binary(host_only_timeline(), path);
  try {
    trace::TraceReader reader(path);
    FAIL() << "expected a magic-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NOCO"), std::string::npos) << msg;
    EXPECT_NE(msg.find("NOCTRACE"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nocdvfs_report"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SweepRunner host report & sinks
// ---------------------------------------------------------------------------

TEST(SweepHost, RunnerReportsWorkerSpansAndMergedProfile) {
  sim::Scenario base = small_scenario();
  base.prof = "on";
  sim::SweepRunner::Options opt;
  opt.threads = 2;
  sim::SweepRunner runner(opt);
  const auto records = runner.run(base, {sim::SweepAxis::seeds(4)}, "host_report");
  ASSERT_EQ(records.size(), 4u);

  const sim::SweepHostReport& report = runner.host_report();
  EXPECT_GT(report.wall_s, 0.0);
  ASSERT_EQ(report.spans.size(), 4u);
  std::uint64_t points = 0;
  for (const obs::HostWorkerStats& w : report.workers) points += w.points;
  EXPECT_EQ(points, 4u);
  for (const obs::HostWorkerSpan& span : report.spans) {
    EXPECT_GE(span.t1_ns, span.t0_ns);
    EXPECT_LT(span.point, 4u);
  }
  ASSERT_FALSE(report.profile.empty());
  EXPECT_EQ(report.profile.phases.front().name, "run");
  EXPECT_EQ(report.profile.phases.front().calls, 4u);  // one root per point

  // The host-only timeline export round-trips the report.
  const std::string base_path = tmp_path("nocdvfs_test_sweep_host");
  sim::write_sweep_host_timeline(report, base_path);
  const Timeline tl = obs::read_timeline_binary(base_path + ".nocobs");
  EXPECT_EQ(tl.host_spans.size(), 4u);
  EXPECT_EQ(tl.host_workers.size(), report.workers.size());
  EXPECT_EQ(tl.host_phases.size(), report.profile.phases.size());
  std::filesystem::remove(base_path + ".nocobs");
  std::filesystem::remove(base_path + ".json");
}

TEST(SweepHost, CsvSinkAppendsHostColumns) {
  std::ostringstream csv;
  sim::CsvResultSink sink(csv);
  sim::SweepRunner::Options opt;
  opt.threads = 1;
  sim::SweepRunner runner(opt);
  runner.add_sink(sink);
  runner.run(small_scenario(), {sim::SweepAxis::seeds(1)}, "host_cols");

  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find(",host_wall_s,peak_rss_mb,manifest"), std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_NE(row.find("scenario.seed=1"), std::string::npos)
      << "the manifest cell must carry the scenario keys";
}

TEST(SweepHost, JsonlSinkCarriesHostAndManifestObjects) {
  std::ostringstream jsonl;
  sim::JsonlResultSink sink(jsonl, /*include_traces=*/false);
  sim::SweepRunner::Options opt;
  opt.threads = 1;
  sim::SweepRunner runner(opt);
  runner.add_sink(sink);
  runner.run(small_scenario(), {sim::SweepAxis::seeds(1)}, "host_jsonl");

  const std::string line = jsonl.str();
  EXPECT_NE(line.find("\"host\":{\"wall_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"manifest\":{"), std::string::npos);
  EXPECT_NE(line.find("\"scenario.seed\":\"1\""), std::string::npos);
}

}  // namespace
}  // namespace nocdvfs
