// Randomized property test of the router's credit loop: drive a single
// router with protocol-respecting but randomly timed traffic and a sink
// that returns credits after random delays, asserting the conservation
// invariant every cycle:
//
//   for every output VC:  router credits + credits in flight back to the
//   router + flits the sink has not yet credited == buffer depth
//
// and, at the end, complete in-order delivery of every packet. Every fuzz
// suite here also runs Router::check_invariants() on every router every
// cycle: the incrementally kept VC masks and counters must equal a full
// rescan of the VC state.

#include <gtest/gtest.h>

#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "noc/packet_table.hpp"
#include "noc/router.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::noc {
namespace {

struct FuzzParams {
  int num_vcs;
  int depth;
  std::uint64_t seed;
};

class RouterFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(RouterFuzz, CreditLoopConservesAndDeliversInOrder) {
  const auto [num_vcs, depth, seed] = GetParam();
  RouterConfig cfg;
  cfg.num_vcs = num_vcs;
  cfg.vc_buffer_depth = depth;
  const auto topo = topo::Topology::make(topo::TopologyKind::Mesh, 2, 1, 1);
  const topo::RoutingEngine engine(*topo, RoutingAlgo::XY, num_vcs);
  PacketTable packets;
  Router router(0, topo->radix(0), cfg, packets);
  router.set_routing_engine(&engine);
  router.set_first_local_port(topo->num_net_ports(0));

  std::uint64_t clock = 0;  // the channels read it instead of being ticked
  FlitChannel in_local(1, &clock), out_east(1, &clock), in_east(1, &clock),
      out_local(1, &clock);
  CreditChannel credit_src(1, &clock), credit_sink(1, &clock), credit_src_e(1, &clock),
      credit_sink_l(1, &clock);
  router.connect_input(PortDir::Local, &in_local, &credit_src);
  router.connect_output(PortDir::East, &out_east, &credit_sink);
  router.connect_input(PortDir::East, &in_east, &credit_src_e);
  router.connect_output(PortDir::Local, &out_local, &credit_sink_l);

  common::Rng rng(seed);
  // Upstream state: our credit view of the router's Local input buffer.
  std::vector<int> up_credits(static_cast<std::size_t>(num_vcs), depth);
  // Sink state: flits received per East VC not yet credited (with a random
  // return delay queue).
  std::vector<std::deque<int>> pending_credit_delay(static_cast<std::size_t>(num_vcs));

  struct SendState {
    std::uint64_t packet = 0;
    std::uint32_t slot = 0;
    int flit = 0;
    int size = 0;
    int vc = -1;
    bool active = false;
  } send;
  std::uint64_t next_packet_id = 1;
  constexpr std::uint64_t kPackets = 60;

  std::map<std::uint64_t, int> received_flits;  // packet id -> next expected index
  std::uint64_t packets_done = 0;

  for (int cyc = 0; cyc < 20000 && packets_done < kPackets; ++cyc) {
    ++clock;

    // Upstream: receive returned credits.
    if (auto c = credit_src.pop()) {
      ++up_credits[c->vc];
      ASSERT_LE(up_credits[c->vc], depth);
    }
    router.receive_phase();
    router.compute_phase();
    ASSERT_NO_THROW(router.check_invariants()) << "cycle " << cyc;

    // Sink: receive flits, schedule credit return 1..4 cycles later.
    if (auto f = out_east.pop()) {
      auto& exp = received_flits[packets[f->slot].id];
      ASSERT_EQ(exp, f->flit_index) << "out-of-order flit within packet";
      ++exp;
      if (f->tail) {
        ++packets_done;
        packets.release(f->slot);
      }
      pending_credit_delay[f->vc].push_back(1 + static_cast<int>(rng.uniform_below(4)));
    }
    // Age the pending credits; return those that mature (≤1 per cycle per
    // the channel's capacity — extras wait one more cycle).
    bool pushed_credit = false;
    for (int v = 0; v < num_vcs; ++v) {
      auto& q = pending_credit_delay[static_cast<std::size_t>(v)];
      for (auto& d : q) d = d > 0 ? d - 1 : 0;
      if (!pushed_credit && !q.empty() && q.front() == 0) {
        q.pop_front();
        credit_sink.push(Credit{static_cast<std::uint8_t>(v)});
        pushed_credit = true;
      }
    }

    // Upstream: maybe start / continue a packet (random stalls included).
    if (!send.active && next_packet_id <= kPackets && rng.bernoulli(0.4)) {
      const int vc = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(num_vcs)));
      if (up_credits[static_cast<std::size_t>(vc)] > 0) {
        send.active = true;
        send.vc = vc;
        send.packet = next_packet_id++;
        send.flit = 0;
        send.size = 1 + static_cast<int>(rng.uniform_below(9));
        send.slot = packets.acquire(
            PacketInfo{send.packet, 0, 0, 0, 1, static_cast<std::uint16_t>(send.size), 0});
      }
    }
    if (send.active && up_credits[static_cast<std::size_t>(send.vc)] > 0 &&
        rng.bernoulli(0.8)) {
      Flit f;
      f.slot = send.slot;  // src 0, dst 1: always routed East
      f.flit_index = static_cast<std::uint16_t>(send.flit);
      f.head = (send.flit == 0);
      f.tail = (send.flit + 1 == send.size);
      f.vc = static_cast<std::uint8_t>(send.vc);
      in_local.push(f);
      --up_credits[static_cast<std::size_t>(send.vc)];
      if (++send.flit == send.size) send.active = false;
    }

    // The conservation invariant, every cycle, every East output VC:
    // router-held credits + credits in the return channel + sink flits not
    // yet credited + flits in the forward link == depth is NOT directly
    // observable (in-flight flits occupy no downstream slot yet), but the
    // router's credit counter must never exceed depth or go negative —
    // and the sum of credits it *could* reclaim is bounded by depth.
    for (int v = 0; v < num_vcs; ++v) {
      const int held = router.output_credits(PortDir::East, v);
      ASSERT_GE(held, 0);
      ASSERT_LE(held, depth);
      const auto owed =
          static_cast<int>(pending_credit_delay[static_cast<std::size_t>(v)].size()) +
          static_cast<int>(credit_sink.in_flight());
      ASSERT_LE(held + owed, depth + num_vcs)  // channel holds ≤1, shared bound
          << "credit overcount on VC " << v;
    }
  }
  EXPECT_EQ(packets_done, kPackets) << "fuzz run failed to deliver all packets";
  EXPECT_EQ(packets.live(), 0u) << "every delivered packet released its table slot";
}

// --- skip-idle activity-list fuzz -----------------------------------------
//
// Bursty on/off traffic over a whole mesh, in lockstep against the
// always-step discipline. The on/off envelope repeatedly drives nodes
// into quiescence and drags them back out — including routers that parked
// while credit-starved and can only re-activate through the credit push of
// a downstream traversal. Properties checked:
//
//   * conservation every cycle: generated == ejected + in-network + backlog;
//   * no stuck router: everything injected is eventually delivered;
//   * bit-identity: the skip-idle net's delivery stream matches always-step.
//
// The skip-idle net may step its tiles on several workers; the always-step
// reference is always serial, so the same check also holds tile-parallel
// stepping to serial.

struct ActivityFuzzParams {
  int width;
  int height;
  int packet_size;  ///< > vc_buffer_depth forces multi-router credit stalls
  std::uint64_t seed;
  int tile_workers = 1;  ///< of the skip-idle net (NetworkConfig::tile_workers)
};

/// Every case of `base` once per worker count in `workers`.
template <typename Params>
std::vector<Params> with_workers(const std::vector<Params>& base,
                                 std::initializer_list<int> workers) {
  std::vector<Params> out;
  for (const int w : workers) {
    for (Params p : base) {
      p.tile_workers = w;
      out.push_back(p);
    }
  }
  return out;
}

std::string workers_suffix(int tile_workers) {
  return tile_workers == 1 ? "" : "_w" + std::to_string(tile_workers);
}

class ActivityFuzz : public ::testing::TestWithParam<ActivityFuzzParams> {};

TEST_P(ActivityFuzz, BurstyOnOffConservesAndMatchesAlwaysStep) {
  const auto [width, height, packet_size, seed, tile_workers] = GetParam();
  NetworkConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.num_vcs = 2;
  cfg.vc_buffer_depth = 2;  // shallow: credit backpressure everywhere
  cfg.skip_idle = true;
  cfg.tile_workers = tile_workers;
  NetworkConfig cfg_off = cfg;
  cfg_off.skip_idle = false;
  cfg_off.tile_workers = 1;
  Network on(cfg);
  Network off(cfg_off);

  common::Rng rng(seed);
  const int n = cfg.num_nodes();
  bool burst = false;
  int phase_left = 0;
  std::uint64_t generated_packets = 0;

  const std::uint64_t active_cycles = 4000;
  const std::uint64_t drain_cycles = 4000;
  for (std::uint64_t c = 1; c <= active_cycles + drain_cycles; ++c) {
    if (c <= active_cycles) {
      if (phase_left == 0) {
        // Alternate bursts (5..40 cycles) and silences (20..120 cycles) —
        // silences long enough for the whole mesh to park mid-run.
        burst = !burst;
        phase_left = burst ? 5 + static_cast<int>(rng.uniform_below(36))
                           : 20 + static_cast<int>(rng.uniform_below(101));
      }
      --phase_left;
      if (burst && rng.bernoulli(0.7)) {
        const auto src = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto dst = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto now = static_cast<common::Picoseconds>(c) * 1000;
        on.ni(src).enqueue_packet(dst, packet_size, now, c);
        off.ni(src).enqueue_packet(dst, packet_size, now, c);
        ++generated_packets;
      }
    }
    on.step_island(0, static_cast<common::Picoseconds>(c) * 1000);
    off.step_island(0, static_cast<common::Picoseconds>(c) * 1000);
    for (int r = 0; r < on.num_routers(); ++r) {
      ASSERT_NO_THROW(on.router_at(r).check_invariants()) << "cycle " << c;
      ASSERT_NO_THROW(off.router_at(r).check_invariants()) << "cycle " << c;
    }

    // Conservation on the skip-idle network, every cycle: no flit may be
    // lost in a parked corner of the mesh.
    ASSERT_EQ(on.total_flits_generated(),
              on.total_flits_ejected() + on.flits_in_network() +
                  on.total_source_backlog_flits())
        << "conservation violated at cycle " << c;
  }

  // No stuck router: the silence tail drains everything.
  EXPECT_EQ(on.total_packets_ejected(), generated_packets);
  EXPECT_EQ(on.flits_in_network(), 0u);
  EXPECT_EQ(on.island_active_nodes(0), 0);
  EXPECT_EQ(on.packet_table().live(), 0u);

  // Bit-identity against the always-step discipline, packet by packet.
  ASSERT_EQ(on.delivered().size(), off.delivered().size());
  for (std::size_t i = 0; i < on.delivered().size(); ++i) {
    const PacketRecord& pa = on.delivered()[i];
    const PacketRecord& pb = off.delivered()[i];
    ASSERT_EQ(pa.packet_id, pb.packet_id) << "record " << i;
    ASSERT_EQ(pa.eject_noc_cycle, pb.eject_noc_cycle) << "record " << i;
    ASSERT_EQ(pa.hops, pb.hops) << "record " << i;
  }
}

const std::vector<ActivityFuzzParams> kActivityCases = {
    {4, 4, 5, 21}, {6, 6, 9, 22}, {5, 3, 13, 23}};

std::string activity_case_name(const ::testing::TestParamInfo<ActivityFuzzParams>& info) {
  return std::to_string(info.param.width) + "x" + std::to_string(info.param.height) + "_p" +
         std::to_string(info.param.packet_size) + "_s" + std::to_string(info.param.seed) +
         workers_suffix(info.param.tile_workers);
}

INSTANTIATE_TEST_SUITE_P(Meshes, ActivityFuzz, ::testing::ValuesIn(kActivityCases),
                         activity_case_name);
INSTANTIATE_TEST_SUITE_P(TileParallel, ActivityFuzz,
                         ::testing::ValuesIn(with_workers(kActivityCases, {2, 3})),
                         activity_case_name);

// --- topology / fault-reroute fuzz ----------------------------------------
//
// Bursty uniform-random traffic over every topology kind and routing
// algorithm, with link/router faults firing mid-burst. Properties checked
// every cycle:
//
//   * fault-aware conservation: generated == ejected + in-network +
//     source backlog + dropped (NI-refused plus router-drained) — a fault
//     may destroy flits but never lose them from the ledger;
//   * progress watchdog: while anything is in flight, the ejected+dropped
//     ledger must advance within a bounded window (a routing cycle or a
//     credit deadlock would stall it forever);
//   * full drain: after the burst, everything generated is either
//     delivered or accounted as dropped, and the network empties;
//   * serial bit-identity: a serial twin (tile_workers=1) fed the same
//     packets delivers the same records and drops the same packets — with
//     several workers, drop drains release table slots from worker threads.

struct TopologyFuzzParams {
  topo::TopologyKind kind;
  int width;
  int height;
  int concentration;
  RoutingAlgo routing;
  int num_vcs;
  const char* faults;  ///< "" = fault-free
  std::uint64_t seed;
  int tile_workers = 1;
};

class TopologyFuzz : public ::testing::TestWithParam<TopologyFuzzParams> {};

TEST_P(TopologyFuzz, FaultAwareConservationAndProgress) {
  const TopologyFuzzParams p = GetParam();
  NetworkConfig cfg;
  cfg.width = p.width;
  cfg.height = p.height;
  cfg.topology = p.kind;
  cfg.concentration = p.concentration;
  cfg.routing = p.routing;
  cfg.num_vcs = p.num_vcs;
  cfg.vc_buffer_depth = 2;  // shallow: credit backpressure everywhere
  cfg.faults = p.faults;
  cfg.fault_seed = p.seed;
  cfg.tile_workers = p.tile_workers;
  NetworkConfig cfg_serial = cfg;
  cfg_serial.tile_workers = 1;
  Network net(cfg);
  Network serial(cfg_serial);

  common::Rng rng(p.seed);
  const int n = cfg.num_nodes();
  bool burst = false;
  int phase_left = 0;

  const std::uint64_t active_cycles = 3000;
  const std::uint64_t max_cycles = 30000;
  constexpr std::uint64_t kWatchdogCycles = 2000;
  std::uint64_t last_progress_cycle = 0;
  std::uint64_t last_ledger = 0;

  std::uint64_t c = 1;
  for (; c <= max_cycles; ++c) {
    if (c <= active_cycles) {
      if (phase_left == 0) {
        burst = !burst;
        phase_left = burst ? 5 + static_cast<int>(rng.uniform_below(36))
                           : 20 + static_cast<int>(rng.uniform_below(101));
      }
      --phase_left;
      if (burst && rng.bernoulli(0.7)) {
        const auto src = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto dst = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        net.ni(src).enqueue_packet(dst, 5, static_cast<common::Picoseconds>(c) * 1000, c);
        serial.ni(src).enqueue_packet(dst, 5, static_cast<common::Picoseconds>(c) * 1000, c);
      }
    }
    net.step_island(0, static_cast<common::Picoseconds>(c) * 1000);
    serial.step_island(0, static_cast<common::Picoseconds>(c) * 1000);
    for (int r = 0; r < net.num_routers(); ++r) {
      ASSERT_NO_THROW(net.router_at(r).check_invariants()) << "cycle " << c;
    }

    // Fault-aware conservation, every cycle.
    ASSERT_EQ(net.total_flits_generated(),
              net.total_flits_ejected() + net.flits_in_network() +
                  net.total_source_backlog_flits() + net.total_flits_dropped())
        << "conservation violated at cycle " << c;

    // Watchdog: anything in flight must keep the ledger moving.
    const std::uint64_t ledger = net.total_flits_ejected() + net.total_flits_dropped();
    const std::uint64_t outstanding =
        net.flits_in_network() + net.total_source_backlog_flits();
    if (ledger != last_ledger || outstanding == 0) {
      last_ledger = ledger;
      last_progress_cycle = c;
    }
    ASSERT_LT(c - last_progress_cycle, kWatchdogCycles)
        << "no ejection/drop progress since cycle " << last_progress_cycle << " with "
        << outstanding << " flits outstanding — routing cycle or credit deadlock";

    if (c > active_cycles && outstanding == 0) break;
  }

  // Full drain: everything generated was delivered or accounted as dropped.
  ASSERT_LE(c, max_cycles) << "network failed to drain";
  EXPECT_EQ(net.total_flits_generated(),
            net.total_flits_ejected() + net.total_flits_dropped());
  EXPECT_EQ(net.flits_in_network(), 0u);
  EXPECT_EQ(net.packet_table().live(), 0u) << "ejection and drop drains free every slot";
  EXPECT_GT(net.total_packets_ejected(), 0u);
  if (cfg.faults.empty()) {
    EXPECT_EQ(net.total_flits_dropped(), 0u);
  } else {
    // The fault fired and the reroute machinery engaged.
    EXPECT_GT(net.failed_links() + net.failed_routers(), 0);
  }

  // Serial bit-identity, packet by packet and drop by drop.
  EXPECT_EQ(net.total_packets_dropped(), serial.total_packets_dropped());
  EXPECT_EQ(net.total_flits_dropped(), serial.total_flits_dropped());
  ASSERT_EQ(net.delivered().size(), serial.delivered().size());
  for (std::size_t i = 0; i < net.delivered().size(); ++i) {
    const PacketRecord& pa = net.delivered()[i];
    const PacketRecord& pb = serial.delivered()[i];
    ASSERT_EQ(pa.packet_id, pb.packet_id) << "record " << i;
    ASSERT_EQ(pa.eject_noc_cycle, pb.eject_noc_cycle) << "record " << i;
    ASSERT_EQ(pa.hops, pb.hops) << "record " << i;
  }
}

const std::vector<TopologyFuzzParams> kTopologyCases = {
    {topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::XY, 2, "", 31},
    {topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::Adaptive, 3, "links:2@1000", 32},
    {topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::Ugal, 4, "links:1@500+routers:1@2000",
     33},
    {topo::TopologyKind::Cmesh, 4, 4, 4, RoutingAlgo::XY, 1, "routers:1@1500", 34},
    {topo::TopologyKind::Cmesh, 6, 4, 2, RoutingAlgo::Adaptive, 2, "links:2@0", 35},
    {topo::TopologyKind::Dragonfly, 4, 3, 1, RoutingAlgo::XY, 2, "", 36},
    {topo::TopologyKind::Dragonfly, 6, 4, 2, RoutingAlgo::Ugal, 4, "links:1@1000", 37},
    {topo::TopologyKind::Mesh, 4, 4, 1, RoutingAlgo::Adaptive, 2, "routers:1@1000", 38}};

std::string topology_case_name(const ::testing::TestParamInfo<TopologyFuzzParams>& info) {
  return std::string(topo::to_string(info.param.kind)) + "_" + to_string(info.param.routing) +
         "_s" + std::to_string(info.param.seed) + workers_suffix(info.param.tile_workers);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyFuzz, ::testing::ValuesIn(kTopologyCases),
                         topology_case_name);
INSTANTIATE_TEST_SUITE_P(TileParallel, TopologyFuzz,
                         ::testing::ValuesIn(with_workers(kTopologyCases, {2, 3})),
                         topology_case_name);

INSTANTIATE_TEST_SUITE_P(Shapes, RouterFuzz,
                         ::testing::Values(FuzzParams{1, 1, 11}, FuzzParams{2, 2, 12},
                                           FuzzParams{4, 4, 13}, FuzzParams{8, 2, 14},
                                           FuzzParams{3, 7, 15}, FuzzParams{16, 4, 16}),
                         [](const ::testing::TestParamInfo<FuzzParams>& info) {
                           return "vc" + std::to_string(info.param.num_vcs) + "_d" +
                                  std::to_string(info.param.depth) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace nocdvfs::noc
