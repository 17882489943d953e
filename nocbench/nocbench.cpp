/// \file nocbench.cpp
/// nocbench: runs one named workload back to back for a fixed host time
/// and prints its metrics. See README.md for the workloads, the metrics
/// and why each workload was chosen.
///
///   nocbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 times untraced repetitions and reports the end-to-end
/// metrics. --trace 1 alternates untraced and traced repetitions (traced =
/// prof=on plus the TimedTraffic decorator) and reports the per-layer
/// metrics. End-to-end timings are scaled to a nominal host speed (see
/// time_reference). Every repetition is checked: it must not throw, must
/// conserve flits, and must reproduce the first repetition's hexfloat
/// digest. The last stdout line is one JSON object {correct, attempted,
/// failed, metrics}; the lines before it are a human-readable summary.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "common/log.hpp"
#include "obs/memstats.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace nocbench;
namespace obs = nocdvfs::obs;
using Clock = std::chrono::steady_clock;

/// FNV-1a 64 of a string, for folding many digests into one line.
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every workload is open-loop Bernoulli traffic, uniform destinations.
struct Workload {
  sim::Scenario base;
  std::vector<sim::SweepAxis> axes;  ///< empty = one Simulator::run per repetition
  int threads = 1;                   ///< SweepRunner workers (sweep workloads)
};

sim::RunPhases fixed_phases(std::uint64_t warmup, std::uint64_t measure) {
  sim::RunPhases p;
  p.warmup_node_cycles = warmup;
  p.measure_node_cycles = measure;
  p.adaptive_warmup = false;
  return p;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  sim::Scenario& s = w.base;
  s.seed = seed;
  s.pattern = "uniform";
  s.process = "bernoulli";
  if (name == "sat_mesh16") {
    // Saturated: the router pipeline does nearly all the work.
    s.network.width = s.network.height = 16;
    s.lambda = 0.5;
    s.control_period = 2500;
    s.phases = fixed_phases(2500, 5000);
  } else if (name == "sparse_mesh32") {
    // Nearly idle: skip-idle elides most tile steps; traffic draws dominate.
    s.network.width = s.network.height = 32;
    s.lambda = 0.002;
    s.policy.policy = sim::Policy::Dmsd;
    s.phases = fixed_phases(10000, 20000);
  } else if (name == "vfi_per_router8") {
    // 64 clock domains: every link is a CDC FIFO, island steps are tiny.
    s.network.width = s.network.height = 8;
    s.islands = "per_router";
    s.thermal = true;
    s.lambda = 0.1;
    s.policy.policy = sim::Policy::Dmsd;
    s.phases = fixed_phases(10000, 20000);
  } else if (name == "paper_sweep5") {
    // Fig. 4 shape on the 5×5 paper mesh: λ × policy with adaptive warmup.
    s.phases.warmup_node_cycles = 10000;
    s.phases.measure_node_cycles = 10000;
    s.phases.max_warmup_node_cycles = 60000;
    w.axes = {sim::SweepAxis::lambda({0.05, 0.1, 0.15, 0.2, 0.25, 0.3}),
              sim::SweepAxis::policies(
                  {sim::Policy::NoDvfs, sim::Policy::Rmsd, sim::Policy::Dmsd})};
    w.threads = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct Rep {
  double run_s = 0.0;  ///< Simulator::run or SweepRunner::run wall time
  std::uint64_t node_cycles = 0;
  std::string digest;  ///< one line per simulated run
  bool conserved = true;

  // traced repetitions only
  TrafficTally tally;
  obs::Profile profile;
  std::uint64_t islands = 0;     ///< VF islands of each run (same for all)
  std::uint64_t actuations = 0;  ///< Σ VF-trace points over runs and islands
  std::vector<double> point_s;   ///< sweep point wall times
  double worker_busy_s = 0.0;
};

void add_result(Rep& rep, const sim::RunResult& r, const std::string& label) {
  rep.node_cycles += r.warmup_node_cycles_used + r.measure_node_cycles;
  rep.digest += (label.empty() ? "" : label + " ") + digest(r) + "\n";
  rep.islands = r.islands.size();
  for (const sim::IslandResult& isl : r.islands) rep.actuations += isl.vf_trace.size();
}

Rep run_single(const sim::Scenario& s) {
  Rep rep;
  const std::unique_ptr<sim::Simulator> simulator = sim::make_simulator(s);
  const auto t0 = Clock::now();
  const sim::RunResult r = simulator->run(s.phases);
  rep.run_s = seconds_since(t0);
  add_result(rep, r, "");
  rep.conserved = flits_conserved(simulator->network());
  rep.profile = r.host.profile;
  return rep;
}

Rep run_sweep(const Workload& w, const sim::Scenario& base) {
  Rep rep;
  sim::SweepRunner runner(sim::SweepRunner::Options{w.threads});
  const auto t0 = Clock::now();
  const std::vector<sim::SweepRecord> records = runner.run(base, w.axes);
  rep.run_s = seconds_since(t0);
  for (const sim::SweepRecord& rec : records) {
    add_result(rep, rec.result, rec.point.label(w.axes));
    rep.conserved = rep.conserved && rec.result.dropped_flits == 0;
  }
  const sim::SweepHostReport& host = runner.host_report();
  rep.profile = host.profile;
  for (const obs::HostWorkerSpan& span : host.spans) {
    rep.point_s.push_back(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-9);
  }
  for (const obs::HostWorkerStats& ws : host.workers) {
    rep.worker_busy_s += static_cast<double>(ws.busy_ns) * 1e-9;
  }
  return rep;
}

Rep run_rep(const Workload& w, bool traced) {
  if (!traced) return w.axes.empty() ? run_single(w.base) : run_sweep(w, w.base);
  TallyPool pool;
  sim::Scenario s = timed(w.base, pool);
  s.prof = "on";
  Rep rep = w.axes.empty() ? run_single(s) : run_sweep(w, s);
  rep.tally = pool.total();
  rep.conserved = rep.conserved && rep.tally.conserved;
  return rep;
}

/// Mean host seconds of sim::make_simulator on the base scenario over a
/// batch that runs until `budget_s` is spent (at least 3 calls), one
/// simulator alive at a time. On a shared 4-vCPU Xeon VM single calls are
/// bimodal: they switch between a fast and a slow mode every few dozen calls.
/// A median of single calls flips between the modes from run to run; the
/// batch mean moves only with the share of slow calls.
double time_setups(const sim::Scenario& base, double budget_s) {
  const auto t_start = Clock::now();
  double total_s = 0.0;
  int n = 0;
  for (; n < 3 || seconds_since(t_start) < budget_s; ++n) {
    const auto t0 = Clock::now();
    const std::unique_ptr<sim::Simulator> simulator = sim::make_simulator(base);
    total_s += seconds_since(t0);
  }
  return total_s / n;
}

// ---------------------------------------------------------------------------
// Host-load correction
// ---------------------------------------------------------------------------

/// A shared host, such as a cloud VM, drifts in speed for memory-bound code
/// with its neighbours' load: by ±15% over minutes on a 4-vCPU Xeon VM,
/// where longer runs did not average it out. A fixed reference kernel slows
/// down with it: sorting the same 200k pseudo-random keys. Sampled next to
/// every repetition, its median time over the nominal time estimates the
/// run's host slowdown, and the reported timings are scaled to the nominal
/// host speed. On that VM this cut the run-to-run spread two- to
/// four-fold. The kernel is benchmark code, so a change to the simulator
/// cannot move it.
constexpr double kReferenceNominalS = 0.0135;  ///< quiet-host time on a 2.1 GHz Xeon VM

/// Appends timed reference sorts until `budget_s` is spent (at least 3).
void time_reference(double budget_s, std::vector<double>& samples) {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(200000);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& v : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return k;
  }();
  std::vector<std::uint32_t> scratch;
  const auto t_start = Clock::now();
  for (int n = 0; n < 3 || seconds_since(t_start) < budget_s; ++n) {
    scratch = keys;
    const auto t0 = Clock::now();
    std::sort(scratch.begin(), scratch.end());
    samples.push_back(seconds_since(t0));
  }
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile of a sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct PhaseSum {
  double incl_ms = 0.0;
  double excl_ms = 0.0;
  std::uint64_t calls = 0;
};

/// Sum of every profile phase named `name` or `name#<id>`.
PhaseSum phase(const obs::Profile& p, const std::string& name) {
  PhaseSum s;
  for (const obs::PhaseStats& ph : p.phases) {
    if (ph.name != name && ph.name.rfind(name + "#", 0) != 0) continue;
    s.incl_ms += static_cast<double>(ph.inclusive_ns) * 1e-6;
    s.excl_ms += static_cast<double>(ph.exclusive_ns) * 1e-6;
    s.calls += ph.calls;
  }
  return s;
}

/// Per-layer metric values of one traced repetition, by metric name.
std::map<std::string, double> layer_values(const Rep& rep, const Workload& w) {
  const NetCounts& c = rep.tally.net;
  const auto& a = c.activity;
  const PhaseSum island = phase(rep.profile, "island_step");
  const PhaseSum deliveries = phase(rep.profile, "deliveries");
  const PhaseSum control = phase(rep.profile, "control_window");
  const PhaseSum thermal = phase(rep.profile, "thermal_step");
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double tile_slots = static_cast<double>(c.tile_slots);
  const double tile_steps = static_cast<double>(c.tile_steps());
  const double tick_ms = static_cast<double>(rep.tally.node_tick_ns) * 1e-6;
  // Island-step self time: the nested deliveries phase is the sim layer's.
  const double island_ms = island.incl_ms - deliveries.incl_ms;

  std::map<std::string, double> m;
  m["noc.island_step_ms"] = island_ms;
  m["noc.ns_per_tile_step"] = ratio(island_ms * 1e6, tile_steps);
  m["noc.tile_steps"] = tile_steps;
  m["noc.flit_hops"] = static_cast<double>(a.link_flit_hops);
  m["noc.crossbar_traversals"] = static_cast<double>(a.crossbar_traversals);
  m["noc.alloc_requests"] = static_cast<double>(a.alloc_requests);
  m["noc.alloc_grant_ratio"] =
      ratio(static_cast<double>(a.vc_alloc_grants + a.sw_alloc_grants),
            static_cast<double>(a.alloc_requests));
  m["noc.flits_ejected"] = static_cast<double>(c.flits_ejected);
  m["noc.tile_steps_skipped"] = static_cast<double>(c.tile_steps_skipped);
  m["noc.skip_ratio"] = ratio(static_cast<double>(c.tile_steps_skipped), tile_slots);
  m["noc.channel_tick_ms"] = phase(rep.profile, "channel_tick").incl_ms;
  m["traffic.node_tick_ms"] = tick_ms;
  m["traffic.node_ticks"] = static_cast<double>(rep.tally.node_ticks);
  m["traffic.ns_per_node_tick"] =
      ratio(tick_ms * 1e6, static_cast<double>(rep.tally.node_ticks));
  m["traffic.packets_generated"] = static_cast<double>(c.packets_generated);
  const PhaseSum run = phase(rep.profile, "run");
  m["sim.run_ms"] = run.incl_ms;
  m["sim.loop_self_ms"] = run.excl_ms;
  m["sim.deliveries_ms"] = deliveries.incl_ms;
  m["sim.noc_edges"] = static_cast<double>(c.noc_edges);
  m["dvfs.control_ms"] = control.incl_ms;
  // Every control window updates each island's controller once.
  m["dvfs.updates"] = static_cast<double>(control.calls * rep.islands);
  m["dvfs.actuations"] = static_cast<double>(rep.actuations);
  m["thermal.step_ms"] = thermal.incl_ms;
  m["thermal.steps"] = static_cast<double>(thermal.calls);
  const bool sweep = !w.axes.empty();
  m["sweep.wall_s"] = sweep ? rep.run_s : 0.0;
  m["sweep.points"] = static_cast<double>(rep.point_s.size());
  m["sweep.point_s_p50"] = median(rep.point_s);
  m["sweep.point_s_max"] =
      rep.point_s.empty() ? 0.0 : *std::max_element(rep.point_s.begin(), rep.point_s.end());
  m["sweep.worker_util"] =
      sweep ? ratio(rep.worker_busy_s, static_cast<double>(w.threads) * rep.run_s) : 0.0;
  return m;
}

/// Per-layer metrics whose value is a deterministic count.
bool is_count(const MetricDef& d) { return std::strcmp(d.unit, "count") == 0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(val, "1") == 0;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: nocbench --workload <sat_mesh16|sparse_mesh32|vfi_per_router8|"
                 "paper_sweep5> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::optional<Workload> workload = make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "nocbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  nocdvfs::common::set_log_level(nocdvfs::common::LogLevel::Warn);

  constexpr std::uint64_t kMinReps = 3;
  // Before each repetition, reference sorts and set-ups each take about 5%
  // of the previous repetition's time (at least 20 ms), so their samples
  // spread over the run.
  constexpr double kSampleShare = 0.05;
  constexpr double kMinSampleS = 0.02;
  std::vector<double> setup_s;  // per repetition: mean of its set-up batch
  std::vector<double> reference_s;
  std::vector<double> rate;            // node cycles per host second, untraced
  std::vector<double> untraced_run_s;  // for the tracing overhead
  std::vector<double> traced_run_s;
  std::map<std::string, std::vector<double>> layer;
  std::optional<std::map<std::string, double>> first_counts;
  std::string reference_digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const auto t_start = Clock::now();
  while (attempted < kMinReps || seconds_since(t_start) < opt.seconds) {
    // With --trace 1, odd repetitions are traced.
    const bool traced = opt.trace && attempted % 2 == 1;
    ++attempted;
    try {
      if (!opt.trace) {
        const double budget_s = std::max(
            kMinSampleS, kSampleShare * (untraced_run_s.empty() ? 0.0 : untraced_run_s.back()));
        time_reference(budget_s, reference_s);
        setup_s.push_back(time_setups(w.base, budget_s));
      }
      const Rep rep = run_rep(w, traced);
      bool ok = rep.conserved;
      if (reference_digest.empty()) reference_digest = rep.digest;
      ok = ok && rep.digest == reference_digest;
      if (traced) {
        traced_run_s.push_back(rep.run_s);
        std::map<std::string, double> values = layer_values(rep, w);
        std::map<std::string, double> counts;
        for (const MetricDef& d : kPerLayer) {
          if (is_count(d)) counts[d.name] = values[d.name];
          layer[d.name].push_back(values[d.name]);
        }
        if (!first_counts) first_counts = counts;
        ok = ok && counts == *first_counts;
      } else {
        untraced_run_s.push_back(rep.run_s);
        rate.push_back(static_cast<double>(rep.node_cycles) / rep.run_s);
      }
      std::printf("rep %llu traced=%d run_s=%.6f node_cycles=%llu ok=%d\n",
                  static_cast<unsigned long long>(attempted), traced ? 1 : 0, rep.run_s,
                  static_cast<unsigned long long>(rep.node_cycles), ok ? 1 : 0);
      if (!ok) {
        ++failed;
        std::printf("FAILED rep=%llu traced=%d conserved=%d digest:\n%s",
                    static_cast<unsigned long long>(attempted), traced ? 1 : 0,
                    rep.conserved ? 1 : 0, rep.digest.c_str());
      }
    } catch (const std::exception& e) {
      ++failed;
      std::printf("FAILED rep=%llu: %s\n", static_cast<unsigned long long>(attempted), e.what());
    }
  }

  std::printf("workload=%s seed=%llu trace=%d reps=%llu failed=%llu failed_frac=%.17g\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("digest fnv1a=%016llx\n%s",
              static_cast<unsigned long long>(fnv1a(reference_digest)),
              reference_digest.c_str());

  std::map<std::string, double> out;
  std::map<std::string, std::vector<double>> samples;
  if (!opt.trace) {
    samples["raw.node_cycles_per_s"] = rate;
    samples["raw.setup_s"] = setup_s;
    samples["reference_s"] = reference_s;
    samples["peak_rss_mb"] = {
        static_cast<double>(obs::sample_process_memory().peak_rss_bytes) / (1024.0 * 1024.0)};
  } else {
    samples = layer;
    const double untraced = median(untraced_run_s);
    samples["obs.trace_overhead_frac"] = {
        untraced > 0.0 ? (median(traced_run_s) - untraced) / untraced : 0.0};
  }
  for (const auto& [name, v] : samples) {
    out[name] = median(v);
    std::printf("metric %-26s median=%.6g p25=%.6g p75=%.6g n=%zu\n", name.c_str(),
                median(v), quantile(v, 0.25), quantile(v, 0.75), v.size());
  }
  if (!opt.trace) {
    const double slowdown = out["reference_s"] / kReferenceNominalS;
    out["node_cycles_per_s"] = out["raw.node_cycles_per_s"] * slowdown;
    out["setup_s"] = out["raw.setup_s"] / slowdown;
    std::printf("host slowdown %.4f (reference median / %.4f s): node_cycles_per_s=%.6g setup_s=%.6g\n",
                slowdown, kReferenceNominalS, out["node_cycles_per_s"], out["setup_s"]);
  } else {
    std::printf(
        "note: per-layer *_ms values come from prof=on runs, which took %.1f%% longer than "
        "untraced runs; the split is biased by that overhead.\n",
        100.0 * out["obs.trace_overhead_frac"]);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", d.name,
                out[d.name], d.unit);
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  std::printf("}}\n");
  return 0;
}
