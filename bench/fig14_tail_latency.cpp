/// \file fig14_tail_latency.cpp
/// Extension figure: what do the control policies do to the *tail* of the
/// delay distribution? The paper compares RMSD and DMSD on mean delay
/// (Fig. 4/5); this bench re-asks the question at p50/p95/p99/p99.9 using
/// the streaming latency histograms (`hist=on`). Rate sensing clocks for
/// the average flit — it tolerates a long tail as long as injected flits
/// keep fitting the λ_max budget — while delay sensing reacts to the same
/// congestion transients that stretch the tail, so the interesting number
/// is the p99/p50 ratio per policy, across shapes with different path
/// diversity (mesh vs torus).
///
/// Accepts `key=value` overrides and `help=1`; `topologies=` slices the
/// matrix; `csv=`/`json=` write machine-readable rows with the appended
/// hist/dist_* columns. The matrix is hist × topology × policy with the
/// hist=off mesh rows first, and a `baseline` sweep group repeats the
/// policy sweep through a scenario that never touches the hist or topology
/// keys — its rows must match the hist=off topology=mesh rows bit-for-bit
/// (CI asserts this: the histogram layer off IS the seed simulator).
/// A `fig14-seeds` group re-runs topology × policy over 5 seeds and prints
/// each cell's p50, p99 and p99/p50 as mean [min–max]; the closing
/// conclusion check calls the policy signature per topology from whether
/// the two policies' ratio ranges overlap.
///
/// With `telemetry=windows|full telemetry_out=<base>` a dedicated export
/// run re-runs the mesh/RMSD cell with `hist=on pkt_trace=on` and writes
/// the timeline (histograms + sampled packet flights) that
/// `nocdvfs_report percentiles` and the Perfetto exporter render.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace nocdvfs;

namespace {

sim::SweepAxis topology_axis(const std::vector<std::string>& names) {
  std::vector<sim::SweepAxis::Point> points;
  for (const std::string& name : names) {
    if (name == "mesh") {
      // Deliberately a no-op so the hist=off mesh rows stay bit-identical
      // to the `baseline` group.
      points.push_back({"mesh", [](sim::Scenario&) {}});
    } else if (name == "torus") {
      points.push_back({"torus", [](sim::Scenario& s) {
                          s.network.topology = topo::TopologyKind::Torus;
                        }});
    } else if (name == "cmesh") {
      points.push_back({"cmesh", [](sim::Scenario& s) {
                          s.network.topology = topo::TopologyKind::Cmesh;
                          s.network.width = 6;
                          s.network.height = 4;
                          s.network.concentration = 4;
                        }});
    } else {
      std::cerr << "unknown topology '" << name << "' (skipping)\n";
    }
  }
  return sim::SweepAxis::custom("topology", std::move(points));
}

sim::SweepAxis hist_axis() {
  std::vector<sim::SweepAxis::Point> points;
  // The off point must not touch the key at all: its rows are the
  // CI bit-identity reference against the `baseline` group.
  points.push_back({"off", [](sim::Scenario&) {}});
  points.push_back({"on", [](sim::Scenario& s) { s.hist = "on"; }});
  return sim::SweepAxis::custom("hist", std::move(points));
}

std::string ratio_fmt(double num, double den) {
  return den > 0.0 ? common::Table::fmt(num / den, 2) : "-";
}

/// Seeds per (topology, policy) cell of the tail-signature table: one run
/// is one sample, so the p99/p50 ratio is reported with its spread.
constexpr int kTailSeeds = 5;

/// "mean [min–max]" of `values`.
std::string spread_fmt(const std::vector<double>& values, int digits) {
  if (values.empty()) return "-";
  double sum = 0.0;
  double lo = values.front();
  double hi = values.front();
  for (const double v : values) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return common::Table::fmt(sum / static_cast<double>(values.size()), digits) + " [" +
         common::Table::fmt(lo, digits) + "-" + common::Table::fmt(hi, digits) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("Figure 14 (extension)",
                   "tail latency (p50/p95/p99/p99.9) under RMSD vs DMSD");
  h.config().declare("topologies", "mesh,torus",
                     "comma list of topologies (mesh,torus,cmesh)");
  if (!h.parse(argc, argv)) return h.exit_code();

  const auto topologies = common::split_csv(h.config().get_string("topologies"));
  const std::vector<sim::Policy> policies = {sim::Policy::Rmsd, sim::Policy::Dmsd};

  // One anchor set, derived on the paper's mesh, shared by every cell so
  // tail differences are attributable to the policy and the shape alone.
  const bench::Anchors anchors = bench::compute_anchors(h.scenario());
  auto anchored_base = [&] {
    sim::Scenario s = h.scenario();
    s.lambda = 0.6 * anchors.lambda_sat;
    // Sweeps share one base scenario; a telemetry_out here would collide
    // across points. The dedicated export run below honours it instead.
    s.telemetry_out.clear();
    return bench::anchored(s, anchors);
  };
  std::cout << "lambda_sat(mesh) = " << common::Table::fmt(anchors.lambda_sat, 3)
            << "   lambda_max = " << common::Table::fmt(anchors.lambda_max, 3)
            << "   DMSD target = " << common::Table::fmt(anchors.target_delay_ns, 1)
            << " ns\n";

  // --- hist x topology x policy matrix ------------------------------------
  // hist is the outer axis: rows 0..(T*P-1) are hist=off and the first P of
  // them are the mesh rows the baseline group must reproduce bit-for-bit.
  const auto recs = h.sweep(
      anchored_base(),
      {hist_axis(), topology_axis(topologies), sim::SweepAxis::policies(policies)},
      "fig14-tail");

  common::Table table({"topology", "policy", "mean ns", "p50 ns", "p95 ns", "p99 ns",
                       "p99.9 ns", "max ns", "p99/p50", "sat"});
  const std::size_t on_base = topologies.size() * policies.size();
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const std::size_t i = on_base + t * policies.size() + p;
      if (i >= recs.size()) continue;
      const sim::RunResult& r = recs[i].result;
      const sim::DelayDistResult::Slice& d = r.delay_dist.delay_ns;
      table.add_row({topologies[t], sim::to_string(policies[p]),
                     common::Table::fmt(r.avg_delay_ns, 1), common::Table::fmt(d.p50, 1),
                     common::Table::fmt(d.p95, 1), common::Table::fmt(d.p99, 1),
                     common::Table::fmt(d.p999, 1), common::Table::fmt(d.max, 1),
                     ratio_fmt(d.p99, d.p50), r.saturated ? "y" : "n"});
    }
  }
  std::cout << "\n--- tail latency (hist=on rows; every quantile within 3.1% of the "
               "exact order statistic) ---\n";
  table.print(std::cout);

  // --- tail signature across seeds -----------------------------------------
  // The headline p50/p99 come from the always-on delay histogram, so these
  // runs need no hist key. Seed is the innermost axis.
  const sim::Scenario seed_base = anchored_base();
  const auto seed_recs = h.sweep(
      seed_base,
      {topology_axis(topologies), sim::SweepAxis::policies(policies),
       sim::SweepAxis::seeds(kTailSeeds, seed_base.seed)},
      "fig14-seeds");
  common::Table spread({"topology", "policy", "mean ns", "p50 ns", "p99 ns", "p99/p50",
                        "sat runs"});
  // ratios[t][p]: per-seed p99/p50, for the conclusion check below.
  std::vector<std::vector<std::vector<double>>> ratios(
      topologies.size(), std::vector<std::vector<double>>(policies.size()));
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<double> mean, p50, p99;
      int saturated = 0;
      for (int k = 0; k < kTailSeeds; ++k) {
        const std::size_t i = (t * policies.size() + p) * kTailSeeds + static_cast<std::size_t>(k);
        if (i >= seed_recs.size()) continue;
        const sim::RunResult& r = seed_recs[i].result;
        mean.push_back(r.avg_delay_ns);
        p50.push_back(r.p50_delay_ns);
        p99.push_back(r.p99_delay_ns);
        if (r.p50_delay_ns > 0.0) ratios[t][p].push_back(r.p99_delay_ns / r.p50_delay_ns);
        saturated += r.saturated ? 1 : 0;
      }
      spread.add_row({topologies[t], sim::to_string(policies[p]), spread_fmt(mean, 1),
                      spread_fmt(p50, 1), spread_fmt(p99, 1), spread_fmt(ratios[t][p], 2),
                      std::to_string(saturated) + "/" + std::to_string(mean.size())});
    }
  }
  std::cout << "\n--- tail signature over " << kTailSeeds
            << " seeds: mean [min-max] ---\n";
  spread.print(std::cout);

  // --- dedicated export run: histograms + sampled packet flights ----------
  if (h.scenario().telemetry != "off" && !h.scenario().telemetry_out.empty()) {
    sim::Scenario s = anchored_base();
    s.policy.policy = sim::Policy::Rmsd;
    s.hist = "on";
    s.pkt_trace = "on";
    s.pkt_trace_rate = h.scenario().pkt_trace_rate;
    s.telemetry = h.scenario().telemetry;
    s.telemetry_out = h.scenario().telemetry_out;
    const sim::RunResult r = sim::run(s);
    std::cout << "\ntelemetry export (mesh rmsd hist=on pkt_trace=on): "
              << s.telemetry_out << ".nocobs + .json   windows="
              << r.telemetry.windows << "   p99=" << common::Table::fmt(
                     r.delay_dist.delay_ns.p99, 1)
              << " ns\n";
  }

  // Baseline rows for the CI identity check: the same policy sweep built
  // from a Scenario that never touches hist or the topology keys. Bit-equal
  // to the hist=off topology=mesh rows above, or the off path regressed.
  h.sweep(anchored_base(), {sim::SweepAxis::policies(policies)}, "baseline");

  std::cout << "\nConclusion check: RMSD clocks the network for the offered rate and lets\n"
               "congestion transients stretch p99; DMSD senses delay, transients\n"
               "included, so its p99/p50 should be lower. Mean delays differ between the\n"
               "policies as well, so the ratio, not the absolute p99, is the signature.\n"
               "It holds on a topology only if the per-seed ratio ranges do not overlap:\n";
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const std::vector<double>& rmsd = ratios[t][0];
    const std::vector<double>& dmsd = ratios[t][1];
    if (rmsd.empty() || dmsd.empty()) continue;
    const bool separated =
        *std::min_element(rmsd.begin(), rmsd.end()) > *std::max_element(dmsd.begin(), dmsd.end());
    std::cout << "  " << topologies[t] << ": rmsd " << spread_fmt(rmsd, 2) << " vs dmsd "
              << spread_fmt(dmsd, 2) << " -> "
              << (separated ? "RMSD's tail is wider on every seed"
                            : "ranges overlap, no policy signature at this seed count")
              << "\n";
  }
  return 0;
}
