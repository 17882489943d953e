#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "common/log.hpp"
#include "common/table.hpp"
#include "obs/timeline.hpp"
#include "vfi/residency.hpp"

namespace nocdvfs::sim {

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

SweepAxis SweepAxis::lambda(const std::vector<double>& values) {
  SweepAxis axis;
  axis.name = "lambda";
  for (const double v : values) {
    axis.points.push_back({fmt_double(v), [v](Scenario& s) { s.lambda = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::policies(const std::vector<Policy>& values) {
  SweepAxis axis;
  axis.name = "policy";
  for (const Policy p : values) {
    axis.points.push_back({to_string(p), [p](Scenario& s) { s.policy.policy = p; }});
  }
  return axis;
}

SweepAxis SweepAxis::speed(const std::vector<double>& values) {
  SweepAxis axis;
  axis.name = "speed";
  for (const double v : values) {
    axis.points.push_back({fmt_double(v), [v](Scenario& s) { s.speed = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::control_period(const std::vector<std::uint64_t>& values) {
  SweepAxis axis;
  axis.name = "control_period";
  for (const std::uint64_t v : values) {
    axis.points.push_back(
        {std::to_string(v), [v](Scenario& s) { s.control_period = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::vf_levels(const std::vector<int>& values) {
  SweepAxis axis;
  axis.name = "vf_levels";
  for (const int v : values) {
    axis.points.push_back({v == 0 ? "cont." : std::to_string(v),
                           [v](Scenario& s) { s.vf_levels = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::seeds(int count, std::uint64_t base_seed) {
  SweepAxis axis;
  axis.name = "seed";
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    axis.points.push_back({std::to_string(seed), [seed](Scenario& s) { s.seed = seed; }});
  }
  return axis;
}

SweepAxis SweepAxis::islands(const std::vector<std::string>& values) {
  SweepAxis axis;
  axis.name = "islands";
  for (const std::string& v : values) {
    axis.points.push_back({v, [v](Scenario& s) { s.islands = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::custom(std::string name, std::vector<Point> points) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.points = std::move(points);
  return axis;
}

std::string SweepPoint::label(const std::vector<SweepAxis>& axes) const {
  std::ostringstream os;
  for (std::size_t a = 0; a < coordinates.size(); ++a) {
    if (a > 0) os << ' ';
    os << (a < axes.size() ? axes[a].name : "axis") << '=' << coordinates[a];
  }
  return os.str();
}

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(options) {}

void SweepRunner::add_sink(ResultSink& sink) { sinks_.push_back(&sink); }

std::vector<SweepPoint> SweepRunner::expand(const Scenario& base,
                                            const std::vector<SweepAxis>& axes) {
  for (const SweepAxis& axis : axes) {
    if (axis.points.empty()) {
      throw std::invalid_argument("SweepRunner: axis '" + axis.name + "' has no points");
    }
  }
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepPoint point;
    point.index = index;
    point.scenario = base;
    point.coordinates.resize(axes.size());
    // Row-major decode: the first axis varies slowest.
    std::vector<std::size_t> idx(axes.size());
    std::size_t rem = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      idx[a] = rem % axes[a].size();
      rem /= axes[a].size();
    }
    // Apply outer-to-inner so inner axes win field conflicts predictably.
    for (std::size_t a = 0; a < axes.size(); ++a) {
      point.coordinates[a] = axes[a].points[idx[a]].label;
      axes[a].points[idx[a]].apply(point.scenario);
    }
    points.push_back(std::move(point));
  }
  return points;
}

int SweepRunner::resolved_threads(std::size_t num_points) const {
  int n = options_.threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  if (static_cast<std::size_t>(n) > num_points) n = static_cast<int>(num_points);
  return n;
}

namespace {

/// Lexically-normalized absolute form, so "out.noctrace" and
/// "./out.noctrace" (or different relative prefixes) compare equal.
std::string normalized_path(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path abs = std::filesystem::absolute(path, ec);
  if (ec) return path;
  return abs.lexically_normal().string();
}

/// "" unless `p` writes a file another point also writes or reads.
/// `record_paths` and `telemetry_paths` collect the paths seen so far.
std::string path_collision(const SweepPoint& p, std::size_t num_points,
                           const std::set<std::string>& trace_paths,
                           std::set<std::string>& record_paths,
                           std::set<std::string>& telemetry_paths) {
  const Scenario& s = p.scenario;
  // telemetry_out= is inert with telemetry=off, so only an exporting
  // point can collide (the record_path rule, same rationale).
  if (!s.telemetry_out.empty() &&
      obs::telemetry_mode_from_string(s.telemetry) != obs::TelemetryMode::Off &&
      !telemetry_paths.insert(normalized_path(s.telemetry_out)).second) {
    return "two sweep points export telemetry to the same basename (parallel workers "
           "would clobber the .json/.nocobs pair); vary telemetry_out per point or "
           "export a single run";
  }
  if (s.record_path.empty()) return "";
  const std::string record = normalized_path(s.record_path);
  if (!record_paths.insert(record).second) {
    return "two sweep points record to the same .noctrace path (parallel workers "
           "would clobber it); vary record_path per point or record a single run";
  }
  if (num_points > 1 && trace_paths.count(record) > 0) {
    return "a sweep point records to a .noctrace another point replays (the writer "
           "would truncate the file mid-sweep); use distinct paths";
  }
  return "";
}

/// Reject unrunnable points before any worker starts, naming the exact
/// sweep point (axis coordinates + group) instead of faulting mid-run.
void validate_points(const std::vector<SweepPoint>& points,
                     const std::vector<SweepAxis>& axes, const std::string& group) {
  std::set<std::string> trace_paths;
  for (const SweepPoint& p : points) {
    if (p.scenario.workload == Scenario::Workload::Trace && !p.scenario.trace_path.empty()) {
      trace_paths.insert(normalized_path(p.scenario.trace_path));
    }
  }
  std::set<std::string> record_paths;
  std::set<std::string> telemetry_paths;
  for (const SweepPoint& p : points) {
    std::string problem = scenario_problem(p.scenario);
    if (problem.empty()) {
      problem = path_collision(p, points.size(), trace_paths, record_paths, telemetry_paths);
    }
    if (problem.empty()) continue;
    std::ostringstream os;
    os << "SweepRunner: cannot run sweep point #" << p.index;
    const std::string label = p.label(axes);
    if (!label.empty()) os << " (" << label << ")";
    if (!group.empty()) os << " of sweep '" << group << "'";
    os << ": " << problem;
    throw std::invalid_argument(os.str());
  }
}

}  // namespace

std::vector<SweepRecord> SweepRunner::run(const Scenario& base,
                                          const std::vector<SweepAxis>& axes,
                                          const std::string& group) {
  std::vector<SweepPoint> points = expand(base, axes);
  validate_points(points, axes, group);
  std::vector<RunResult> results(points.size());

  const int threads = resolved_threads(points.size());
  // Points already run in parallel: stepping each one's tiles on more
  // threads would only oversubscribe the host.
  if (threads >= 2) {
    for (SweepPoint& p : points) {
      if (p.scenario.network.tile_workers == 0) p.scenario.network.tile_workers = 1;
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::string sweep_name = group.empty() ? "sweep" : "sweep '" + group + "'";

  // Per-worker span logs (worker-private, so no contention); merged into
  // host_report_ after the pool drains.
  const auto sweep_t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<obs::HostWorkerSpan>> worker_spans(
      static_cast<std::size_t>(threads));

  auto worker = [&](int wid) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error) return;
      }
      try {
        const auto t0 = std::chrono::steady_clock::now();
        results[i] = sim::run(points[i].scenario);
        const auto t1 = std::chrono::steady_clock::now();
        const auto wall_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
        obs::HostWorkerSpan span;
        span.worker = wid;
        span.point = i;
        span.t0_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - sweep_t0).count());
        span.t1_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - sweep_t0).count());
        worker_spans[static_cast<std::size_t>(wid)].push_back(span);
        const std::size_t done = completed.fetch_add(1) + 1;
        common::log_info(sweep_name, ": ", done, "/", points.size(), " done (point #", i,
                         !points[i].label(axes).empty() ? " " + points[i].label(axes) : "",
                         ", ", wall_ms, " ms)");
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  host_report_ = SweepHostReport{};
  host_report_.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - sweep_t0)
          .count();
  for (int t = 0; t < threads; ++t) {
    const auto& spans = worker_spans[static_cast<std::size_t>(t)];
    obs::HostWorkerStats stats;
    stats.worker = t;
    for (const obs::HostWorkerSpan& span : spans) {
      ++stats.points;
      stats.busy_ns += span.t1_ns - span.t0_ns;
      host_report_.spans.push_back(span);
    }
    host_report_.workers.push_back(stats);
  }
  // Merge per-run profiles in row-major point order: deterministic phase
  // ordering regardless of which worker ran which point.
  for (const RunResult& r : results) {
    if (!r.host.profile.empty()) host_report_.profile.merge(r.host.profile);
  }

  std::vector<SweepRecord> records;
  records.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    records.push_back(SweepRecord{std::move(points[i]), std::move(results[i])});
  }

  for (ResultSink* sink : sinks_) sink->begin_sweep(group, axes);
  for (const SweepRecord& record : records) {
    for (ResultSink* sink : sinks_) sink->on_result(record);
  }
  for (ResultSink* sink : sinks_) sink->end_sweep();
  return records;
}

void write_sweep_host_timeline(const SweepHostReport& report, const std::string& out_base) {
  obs::Timeline tl;  // host-only: no islands, no windows, no series
  tl.host_phases = report.profile.phases;
  tl.host_spans = report.spans;
  tl.host_workers = report.workers;
  obs::write_timeline_binary(tl, out_base + ".nocobs");
  obs::write_timeline_perfetto(tl, out_base + ".json");
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

/// "i0=600MHz:0.250|1000MHz:0.750;i1=..." — one entry per island.
std::string residency_cell(const RunResult& r) {
  std::string out;
  for (const IslandResult& isl : r.islands) {
    if (!out.empty()) out += ';';
    out += 'i' + std::to_string(isl.island) + '=' +
           vfi::residency_to_string(isl.freq_residency, r.measure_duration_ps);
  }
  return out;
}

/// "seed=1;scenario.lambda=0.1;..." — the full run-provenance manifest in
/// one cell (';'-joined key=value pairs; csv_escape handles embedded
/// commas in values like island_policies).
std::string manifest_cell(const obs::RunManifest& m) {
  std::string out;
  for (const auto& [key, value] : m.entries) {
    if (!out.empty()) out += ';';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

/// "i0=12.4;i1=..." — per-island average power in mW.
std::string island_power_cell(const RunResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.islands.size(); ++i) {
    if (i > 0) os << ';';
    os << 'i' << r.islands[i].island << '=' << r.islands[i].power.average_power_mw();
  }
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        // Remaining C0 control bytes must be \u-escaped; bytes >= 0x80
        // (UTF-8 continuation/lead bytes) pass through verbatim — JSON
        // strings are UTF-8.
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

CsvResultSink::CsvResultSink(std::ostream& os) : os_(os) {}

void CsvResultSink::begin_sweep(const std::string& group,
                                const std::vector<SweepAxis>& axes) {
  (void)axes;
  group_ = group;
  if (!header_written_) {
    // New columns are appended (never inserted) so fixed-index consumers
    // of the scenario/metric prefix keep working across versions.
    os_ << "group,index,point,workload,pattern,app,lambda,speed,policy,seed,"
           "control_period,vf_levels,avg_delay_ns,p50_delay_ns,p95_delay_ns,"
           "p99_delay_ns,avg_latency_cycles,avg_hops,avg_frequency_ghz,avg_voltage,"
           "power_mw,energy_per_bit_pj,energy_delay_product_js,"
           "delivered_flits_per_node_cycle,avg_buffer_occupancy,"
           "packets_delivered,saturated,controller_settled,warmup_node_cycles_used,"
           "islands,num_islands,freq_residency,island_power_mw,"
           "thermal,peak_temp_c,mean_temp_c,throttle_residency,leakage_j,leakage_ref_j,"
           "topology,routing,faults,max_hops,dropped_packets,unreachable_pairs,"
           "rerouted_pairs,"
           "telemetry,stall_route,stall_vc_alloc,stall_switch,stall_credit,"
           "stall_drop,hot_tile,hot_tile_flits,hot_link,hot_link_flits,"
           "min_delay_ns,max_delay_ns,hist,dist_p50_ns,dist_p90_ns,dist_p95_ns,"
           "dist_p99_ns,dist_p999_ns,dist_max_ns,"
           "host_wall_s,peak_rss_mb,manifest\n";
    header_written_ = true;
  }
}

void CsvResultSink::on_result(const SweepRecord& record) {
  const Scenario& s = record.point.scenario;
  const RunResult& r = record.result;
  std::string point_label;
  for (std::size_t i = 0; i < record.point.coordinates.size(); ++i) {
    if (i > 0) point_label += ' ';
    point_label += record.point.coordinates[i];
  }
  std::ostringstream row;
  row << csv_escape(group_) << ',' << record.point.index << ',' << csv_escape(point_label)
      << ',' << to_string(s.workload) << ',' << csv_escape(s.pattern) << ','
      << csv_escape(s.app) << ',' << s.lambda << ',' << s.speed << ','
      << to_string(s.policy.policy) << ',' << s.seed << ',' << s.control_period << ','
      << s.vf_levels << ',' << r.avg_delay_ns << ',' << r.p50_delay_ns << ','
      << r.p95_delay_ns << ',' << r.p99_delay_ns << ',' << r.avg_latency_cycles << ','
      << r.avg_hops << ',' << r.avg_frequency_ghz() << ',' << r.avg_voltage << ','
      << r.power_mw() << ',' << r.energy_per_bit_pj << ',' << r.energy_delay_product_js
      << ',' << r.delivered_flits_per_node_cycle << ','
      << r.avg_buffer_occupancy << ',' << r.packets_delivered << ','
      << (r.saturated ? 1 : 0) << ',' << (r.controller_settled ? 1 : 0) << ','
      << r.warmup_node_cycles_used << ',' << csv_escape(s.islands) << ','
      << r.islands.size() << ',' << csv_escape(residency_cell(r)) << ','
      << csv_escape(island_power_cell(r)) << ',' << (r.thermal.enabled ? 1 : 0) << ','
      << r.thermal.peak_temp_c << ',' << r.thermal.mean_temp_c << ','
      << r.thermal.throttle_residency << ',' << r.thermal.leakage_j << ','
      << r.thermal.leakage_ref_j << ',' << topo::to_string(s.network.topology) << ','
      << noc::to_string(s.network.routing) << ','
      << csv_escape(s.network.faults.empty() ? "off" : s.network.faults) << ','
      << r.max_hops << ',' << r.dropped_packets << ',' << r.unreachable_pairs << ','
      << r.rerouted_pairs;
  const TelemetryResult& tel = r.telemetry;
  row << ',' << tel.mode << ',' << tel.stall_route << ',' << tel.stall_vc_alloc << ','
      << tel.stall_switch << ',' << tel.stall_credit << ',' << tel.stall_drop << ','
      << (tel.top_tiles.empty() ? -1 : tel.top_tiles.front().tile) << ','
      << (tel.top_tiles.empty() ? 0 : tel.top_tiles.front().flits) << ',';
  if (tel.top_links.empty()) {
    row << ",0";
  } else {
    row << tel.top_links.front().src << "->" << tel.top_links.front().dst << ','
        << tel.top_links.front().flits;
  }
  const DelayDistResult& dd = r.delay_dist;
  row << ',' << r.min_delay_ns << ',' << r.max_delay_ns << ','
      << (dd.enabled ? "on" : "off") << ',' << dd.delay_ns.p50 << ','
      << dd.delay_ns.p90 << ',' << dd.delay_ns.p95 << ',' << dd.delay_ns.p99 << ','
      << dd.delay_ns.p999 << ',' << dd.delay_ns.max;
  row << ',' << r.host.wall_s << ','
      << static_cast<double>(r.host.peak_rss_bytes) / (1024.0 * 1024.0) << ','
      << csv_escape(manifest_cell(r.manifest));
  row << '\n';
  os_ << row.str();
}

JsonlResultSink::JsonlResultSink(std::ostream& os, bool include_traces)
    : os_(os), include_traces_(include_traces) {}

void JsonlResultSink::begin_sweep(const std::string& group,
                                  const std::vector<SweepAxis>& axes) {
  (void)axes;
  group_ = group;
}

void JsonlResultSink::on_result(const SweepRecord& record) {
  const Scenario& s = record.point.scenario;
  const RunResult& r = record.result;
  std::ostringstream os;
  os << "{\"group\":\"" << json_escape(group_) << "\",\"index\":" << record.point.index
     << ",\"coordinates\":[";
  for (std::size_t i = 0; i < record.point.coordinates.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << json_escape(record.point.coordinates[i]) << '"';
  }
  os << "],\"scenario\":{\"workload\":\"" << to_string(s.workload) << "\",\"pattern\":\""
     << json_escape(s.pattern) << "\",\"app\":\"" << json_escape(s.app)
     << "\",\"lambda\":" << s.lambda << ",\"speed\":" << s.speed << ",\"policy\":\""
     << to_string(s.policy.policy) << "\",\"seed\":" << s.seed
     << ",\"control_period\":" << s.control_period << ",\"vf_levels\":" << s.vf_levels
     << ",\"width\":" << s.network.width << ",\"height\":" << s.network.height
     << ",\"islands\":\"" << json_escape(s.islands) << "\",\"cdc_sync_cycles\":"
     << s.cdc_sync_cycles << ",\"topology\":\"" << topo::to_string(s.network.topology)
     << "\",\"routing\":\"" << noc::to_string(s.network.routing)
     << "\",\"concentration\":" << s.network.concentration << ",\"faults\":\""
     << json_escape(s.network.faults.empty() ? "off" : s.network.faults) << "\"}"
     << ",\"result\":{\"avg_delay_ns\":" << r.avg_delay_ns
     << ",\"min_delay_ns\":" << r.min_delay_ns
     << ",\"max_delay_ns\":" << r.max_delay_ns
     << ",\"p99_delay_ns\":" << r.p99_delay_ns
     << ",\"avg_latency_cycles\":" << r.avg_latency_cycles
     << ",\"avg_frequency_ghz\":" << r.avg_frequency_ghz()
     << ",\"avg_voltage\":" << r.avg_voltage << ",\"power_mw\":" << r.power_mw()
     << ",\"energy_per_bit_pj\":" << r.energy_per_bit_pj
     << ",\"energy_delay_product_js\":" << r.energy_delay_product_js
     << ",\"delivered_flits_per_node_cycle\":" << r.delivered_flits_per_node_cycle
     << ",\"avg_buffer_occupancy\":" << r.avg_buffer_occupancy
     << ",\"packets_delivered\":" << r.packets_delivered
     << ",\"saturated\":" << (r.saturated ? "true" : "false")
     << ",\"controller_settled\":" << (r.controller_settled ? "true" : "false")
     << ",\"max_hops\":" << r.max_hops
     << ",\"dropped_packets\":" << r.dropped_packets
     << ",\"dropped_flits\":" << r.dropped_flits
     << ",\"unreachable_pairs\":" << r.unreachable_pairs
     << ",\"rerouted_pairs\":" << r.rerouted_pairs
     << ",\"failed_links\":" << r.failed_links
     << ",\"failed_routers\":" << r.failed_routers << "}"
     << ",\"thermal\":{\"enabled\":" << (r.thermal.enabled ? "true" : "false")
     << ",\"peak_temp_c\":" << r.thermal.peak_temp_c
     << ",\"mean_temp_c\":" << r.thermal.mean_temp_c
     << ",\"final_peak_temp_c\":" << r.thermal.final_peak_temp_c
     << ",\"throttle_residency\":" << r.thermal.throttle_residency
     << ",\"throttle_events\":" << r.thermal.throttle_events
     << ",\"leakage_j\":" << r.thermal.leakage_j
     << ",\"leakage_ref_j\":" << r.thermal.leakage_ref_j << "}"
     << ",\"telemetry\":{\"enabled\":" << (r.telemetry.enabled ? "true" : "false")
     << ",\"mode\":\"" << json_escape(r.telemetry.mode)
     << "\",\"windows\":" << r.telemetry.windows
     << ",\"stall_route\":" << r.telemetry.stall_route
     << ",\"stall_vc_alloc\":" << r.telemetry.stall_vc_alloc
     << ",\"stall_switch\":" << r.telemetry.stall_switch
     << ",\"stall_credit\":" << r.telemetry.stall_credit
     << ",\"stall_drop\":" << r.telemetry.stall_drop
     << ",\"busy_vc_cycles\":" << r.telemetry.busy_vc_cycles
     << ",\"flits_forwarded\":" << r.telemetry.flits_forwarded << ",\"top_tiles\":[";
  for (std::size_t i = 0; i < r.telemetry.top_tiles.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"tile\":" << r.telemetry.top_tiles[i].tile
       << ",\"flits\":" << r.telemetry.top_tiles[i].flits << "}";
  }
  os << "],\"top_links\":[";
  for (std::size_t i = 0; i < r.telemetry.top_links.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"src\":" << r.telemetry.top_links[i].src
       << ",\"dst\":" << r.telemetry.top_links[i].dst
       << ",\"flits\":" << r.telemetry.top_links[i].flits << "}";
  }
  os << "]}";
  const DelayDistResult& dd = r.delay_dist;
  auto dist_slice = [&os](const char* name, const DelayDistResult::Slice& sl) {
    os << '"' << name << "\":{\"count\":" << sl.count << ",\"min\":" << sl.min
       << ",\"max\":" << sl.max << ",\"p50\":" << sl.p50 << ",\"p90\":" << sl.p90
       << ",\"p95\":" << sl.p95 << ",\"p99\":" << sl.p99 << ",\"p999\":" << sl.p999
       << "}";
  };
  os << ",\"delay_dist\":{\"enabled\":" << (dd.enabled ? "true" : "false") << ',';
  dist_slice("delay_ns", dd.delay_ns);
  os << ',';
  dist_slice("latency_cycles", dd.latency_cycles);
  os << ",\"island_delay_ns\":[";
  for (std::size_t i = 0; i < dd.island_delay_ns.size(); ++i) {
    if (i > 0) os << ',';
    os << '{';
    dist_slice("dist", dd.island_delay_ns[i]);
    os << '}';
  }
  os << "],\"hop_delay_ns\":[";
  for (std::size_t i = 0; i < dd.hop_delay_ns.size(); ++i) {
    if (i > 0) os << ',';
    os << '{';
    dist_slice("dist", dd.hop_delay_ns[i]);
    os << '}';
  }
  os << "]}"
     << ",\"islands\":[";
  for (std::size_t i = 0; i < r.islands.size(); ++i) {
    const IslandResult& isl = r.islands[i];
    if (i > 0) os << ',';
    os << "{\"island\":" << isl.island << ",\"nodes\":" << isl.nodes << ",\"policy\":\""
       << json_escape(isl.policy) << "\",\"packets_delivered\":" << isl.packets_delivered
       << ",\"avg_delay_ns\":" << isl.avg_delay_ns
       << ",\"avg_frequency_ghz\":" << isl.avg_frequency_hz * 1e-9
       << ",\"avg_voltage\":" << isl.avg_voltage
       << ",\"final_frequency_ghz\":" << isl.final_frequency_hz * 1e-9
       << ",\"measure_noc_cycles\":" << isl.measure_noc_cycles
       << ",\"avg_buffer_occupancy\":" << isl.avg_buffer_occupancy
       << ",\"power_mw\":" << isl.power.average_power_mw()
       << ",\"peak_temp_c\":" << isl.peak_temp_c
       << ",\"throttle_residency\":" << isl.throttle_residency << ",\"freq_residency\":[";
    for (std::size_t l = 0; l < isl.freq_residency.size(); ++l) {
      if (l > 0) os << ',';
      os << "{\"f_hz\":" << isl.freq_residency[l].f_hz
         << ",\"dwell_ps\":" << isl.freq_residency[l].dwell_ps << "}";
    }
    os << ']';
    if (include_traces_) {
      os << ",\"vf_trace\":[";
      for (std::size_t p = 0; p < isl.vf_trace.size(); ++p) {
        if (p > 0) os << ',';
        os << "{\"t_ps\":" << isl.vf_trace[p].t << ",\"f_hz\":" << isl.vf_trace[p].f
           << ",\"vdd\":" << isl.vf_trace[p].vdd << "}";
      }
      os << ']';
    }
    os << '}';
  }
  os << ']';
  if (include_traces_) {
    os << ",\"window_trace\":[";
    for (std::size_t i = 0; i < r.window_trace.size(); ++i) {
      const WindowSample& w = r.window_trace[i];
      if (i > 0) os << ',';
      os << "{\"t_ps\":" << w.t << ",\"avg_delay_ns\":" << w.avg_delay_ns
         << ",\"packets\":" << w.packets << ",\"f_hz\":" << w.f_applied << "}";
    }
    os << "],\"vf_trace\":[";
    for (std::size_t i = 0; i < r.vf_trace.size(); ++i) {
      const auto& p = r.vf_trace[i];
      if (i > 0) os << ',';
      os << "{\"t_ps\":" << p.t << ",\"f_hz\":" << p.f << ",\"vdd\":" << p.vdd << "}";
    }
    os << ']';
  }
  os << ",\"host\":{\"wall_s\":" << r.host.wall_s
     << ",\"peak_rss_bytes\":" << r.host.peak_rss_bytes << "},\"manifest\":{";
  for (std::size_t i = 0; i < r.manifest.entries.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << json_escape(r.manifest.entries[i].first) << "\":\""
       << json_escape(r.manifest.entries[i].second) << '"';
  }
  os << '}';
  os << "}\n";
  os_ << os.str();
}

}  // namespace nocdvfs::sim
