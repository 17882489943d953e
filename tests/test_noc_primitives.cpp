// Unit tests for the NoC building blocks below the router: arbiters, the
// separable allocator, mesh topology, dimension-ordered routing, and the
// pipelined channels.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "noc/allocator.hpp"
#include "noc/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/packet_table.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/worker_pool.hpp"

namespace nocdvfs::noc {
namespace {

// ------------------------------------------------------------ arbiter ----

TEST(RoundRobinArbiter, GrantsSingleRequester) {
  RoundRobinArbiter arb(4);
  arb.add_request(2);
  EXPECT_EQ(arb.arbitrate(), 2);
  EXPECT_EQ(arb.arbitrate(), -1);  // requests consumed
}

TEST(RoundRobinArbiter, RotatesAfterGrant) {
  RoundRobinArbiter arb(3);
  // All requesting every cycle: grants must cycle 0, 1, 2, 0, ...
  std::vector<int> grants;
  for (int i = 0; i < 6; ++i) {
    arb.add_request(0);
    arb.add_request(1);
    arb.add_request(2);
    grants.push_back(arb.arbitrate());
  }
  EXPECT_EQ(grants, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobinArbiter, FairUnderContention) {
  RoundRobinArbiter arb(4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    for (int r = 0; r < 4; ++r) arb.add_request(r);
    ++wins[arb.arbitrate()];
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(wins[r], 100) << "requester " << r;
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  arb.add_request(1);
  arb.add_request(3);
  EXPECT_EQ(arb.arbitrate(), 1);
  arb.add_request(1);
  arb.add_request(3);
  EXPECT_EQ(arb.arbitrate(), 3);  // priority moved past 1
}

TEST(RoundRobinArbiter, InvalidConstructionAndRequests) {
  EXPECT_THROW(RoundRobinArbiter(0), std::invalid_argument);
  RoundRobinArbiter arb(2);
  EXPECT_THROW(arb.add_request(2), common::InvariantViolation);
  EXPECT_THROW(arb.add_request(-1), common::InvariantViolation);
}

TEST(MatrixArbiter, LeastRecentlyServedWins) {
  MatrixArbiter arb(3);
  arb.add_request(0);
  arb.add_request(1);
  EXPECT_EQ(arb.arbitrate(), 0);  // initial priority favors low index
  arb.add_request(0);
  arb.add_request(1);
  EXPECT_EQ(arb.arbitrate(), 1);  // 0 dropped to lowest priority
  arb.add_request(0);
  arb.add_request(2);
  EXPECT_EQ(arb.arbitrate(), 2);  // 2 untouched, still beats both served ones
}

TEST(MatrixArbiter, FairUnderContention) {
  MatrixArbiter arb(4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    for (int r = 0; r < 4; ++r) arb.add_request(r);
    ++wins[arb.arbitrate()];
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(wins[r], 100);
}

TEST(ArbiterFactory, CreatesByNameAndRejectsUnknown) {
  EXPECT_NE(Arbiter::create("roundrobin", 3), nullptr);
  EXPECT_NE(Arbiter::create("matrix", 3), nullptr);
  EXPECT_THROW(Arbiter::create("priority", 3), std::invalid_argument);
}

// ---------------------------------------------------------- allocator ----

TEST(SeparableAllocator, SingleRequestGranted) {
  SeparableAllocator alloc(4, 1, 4);
  alloc.add_request(1, 0, 1u << 2);
  const auto& grants = alloc.allocate();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], (std::pair<int, int>{1, 2}));
}

TEST(SeparableAllocator, ResourcesAreNumberedByGroup) {
  SeparableAllocator alloc(2, 3, 4);  // resources 0..11, groups of 4
  alloc.add_request(1, 2, 1u << 1);
  const auto& grants = alloc.allocate();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], (std::pair<int, int>{1, 9}));
}

TEST(SeparableAllocator, MatchingIsValid) {
  // Every agent requests every resource; the result must be a matching.
  SeparableAllocator alloc(4, 1, 4);
  for (int round = 0; round < 20; ++round) {
    for (int a = 0; a < 4; ++a) alloc.add_request(a, 0, 0xf);
    const auto& grants = alloc.allocate();
    std::set<int> agents, resources;
    for (const auto& [a, r] : grants) {
      EXPECT_TRUE(agents.insert(a).second) << "agent granted twice";
      EXPECT_TRUE(resources.insert(r).second) << "resource granted twice";
    }
    EXPECT_GE(grants.size(), 1u);
  }
}

TEST(SeparableAllocator, ConflictResolvedToOneWinner) {
  SeparableAllocator alloc(3, 1, 3);
  alloc.add_request(0, 0, 1u << 1);
  alloc.add_request(2, 0, 1u << 1);
  const auto& grants = alloc.allocate();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].second, 1);
}

TEST(SeparableAllocator, RepeatedConflictAlternates) {
  // Under persistent 2-way conflict the rotating pointers must alternate
  // winners (starvation freedom).
  SeparableAllocator alloc(2, 1, 1);
  std::map<int, int> wins;
  for (int i = 0; i < 100; ++i) {
    alloc.add_request(0, 0, 1);
    alloc.add_request(1, 0, 1);
    const auto& grants = alloc.allocate();
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].first];
  }
  EXPECT_EQ(wins[0], 50);
  EXPECT_EQ(wins[1], 50);
}

TEST(SeparableAllocator, MatchesCyclicNearestOracle) {
  // Reference: the allocator defined over flat resource lists — stage 1
  // picks the requested resource at the smallest cyclic distance from the
  // agent's pointer, stage 2 the claimant at the smallest cyclic distance
  // from the resource's pointer; grants in first-claim order. The mask
  // form must reproduce its grants exactly, round after round.
  constexpr int kAgents = 12, kGroups = 3, kWidth = 5, kResources = kGroups * kWidth;
  std::vector<int> agent_ptr(kAgents, 0), resource_ptr(kResources, 0);
  SeparableAllocator alloc(kAgents, kGroups, kWidth);
  common::Rng rng(7);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::pair<int, int>> expected;
    std::vector<int> winner(kResources, -1), claim_order;
    for (int a = 0; a < kAgents; ++a) {
      if (!rng.bernoulli(0.6)) continue;
      const int g = static_cast<int>(rng.uniform_below(kGroups));
      const auto mask = 1 + rng.uniform_below((1u << kWidth) - 1);
      alloc.add_request(a, g, mask);
      int best = -1, best_dist = kResources;
      for (int b = 0; b < kWidth; ++b) {
        if (((mask >> b) & 1u) == 0) continue;
        const int r = g * kWidth + b;
        const int dist = (r - agent_ptr[a] + kResources) % kResources;
        if (dist < best_dist) {
          best_dist = dist;
          best = r;
        }
      }
      if (winner[best] < 0) {
        winner[best] = a;
        claim_order.push_back(best);
      } else {
        const int d_new = (a - resource_ptr[best] + kAgents) % kAgents;
        const int d_old = (winner[best] - resource_ptr[best] + kAgents) % kAgents;
        if (d_new < d_old) winner[best] = a;
      }
    }
    for (const int r : claim_order) {
      expected.emplace_back(winner[r], r);
      agent_ptr[winner[r]] = (r + 1) % kResources;
      resource_ptr[r] = (winner[r] + 1) % kAgents;
    }
    ASSERT_EQ(alloc.allocate(), expected) << "round " << round;
  }
}

TEST(SeparableAllocator, ClearDropsRequests) {
  SeparableAllocator alloc(2, 1, 2);
  alloc.add_request(0, 0, 1);
  alloc.clear_requests();
  EXPECT_TRUE(alloc.allocate().empty());
}

TEST(SeparableAllocator, InvalidSizesRejected) {
  EXPECT_THROW(SeparableAllocator(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(SeparableAllocator(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(SeparableAllocator(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(SeparableAllocator(1, 1, 65), std::invalid_argument);
  SeparableAllocator alloc(2, 2, 4);
  EXPECT_THROW(alloc.add_request(0, 0, 0), common::InvariantViolation);
  EXPECT_THROW(alloc.add_request(0, 0, 1u << 4), common::InvariantViolation);
  EXPECT_THROW(alloc.add_request(0, 2, 1), common::InvariantViolation);
  alloc.add_request(0, 0, 1);
  EXPECT_THROW(alloc.add_request(0, 1, 1), common::InvariantViolation);
}

// ----------------------------------------------------------- topology ----

TEST(MeshTopology, CoordinateRoundTrip) {
  MeshTopology topo(5, 4);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(topo.node_at(topo.coord_of(n)), n);
  }
  EXPECT_EQ(topo.num_nodes(), 20);
}

TEST(MeshTopology, NeighborsAtCornersAndCenter) {
  MeshTopology topo(3, 3);
  const NodeId corner = topo.node_at({0, 0});
  EXPECT_FALSE(topo.has_neighbor(corner, PortDir::West));
  EXPECT_FALSE(topo.has_neighbor(corner, PortDir::South));
  EXPECT_TRUE(topo.has_neighbor(corner, PortDir::East));
  EXPECT_TRUE(topo.has_neighbor(corner, PortDir::North));

  const NodeId center = topo.node_at({1, 1});
  for (PortDir d : {PortDir::North, PortDir::East, PortDir::South, PortDir::West}) {
    EXPECT_TRUE(topo.has_neighbor(center, d));
  }
  EXPECT_FALSE(topo.has_neighbor(center, PortDir::Local));
  EXPECT_EQ(topo.neighbor(center, PortDir::North), topo.node_at({1, 2}));
  EXPECT_EQ(topo.neighbor(center, PortDir::South), topo.node_at({1, 0}));
  EXPECT_EQ(topo.neighbor(center, PortDir::East), topo.node_at({2, 1}));
  EXPECT_EQ(topo.neighbor(center, PortDir::West), topo.node_at({0, 1}));
}

TEST(MeshTopology, NeighborThrowsOffMesh) {
  MeshTopology topo(2, 2);
  EXPECT_THROW(topo.neighbor(0, PortDir::West), std::out_of_range);
  EXPECT_THROW(topo.coord_of(4), std::out_of_range);
  EXPECT_THROW(topo.node_at({2, 0}), std::out_of_range);
}

TEST(MeshTopology, LinkCountFormula) {
  EXPECT_EQ(MeshTopology(5, 5).num_directed_links(), 80);
  EXPECT_EQ(MeshTopology(4, 4).num_directed_links(), 48);
  EXPECT_EQ(MeshTopology(8, 8).num_directed_links(), 224);
  EXPECT_EQ(MeshTopology(2, 1).num_directed_links(), 2);
}

TEST(MeshTopology, ManhattanDistance) {
  EXPECT_EQ(MeshTopology::manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(MeshTopology::manhattan({2, 2}, {2, 2}), 0);
}

TEST(MeshTopology, DegenerateSizesRejected) {
  EXPECT_THROW(MeshTopology(0, 5), std::invalid_argument);
  EXPECT_THROW(MeshTopology(1, 1), std::invalid_argument);
}

// ------------------------------------------------------------ routing ----

TEST(Routing, XYGoesXFirst) {
  MeshTopology topo(5, 5);
  const NodeId src = topo.node_at({1, 1});
  EXPECT_EQ(route_dor(RoutingAlgo::XY, topo, src, topo.node_at({3, 3})), PortDir::East);
  EXPECT_EQ(route_dor(RoutingAlgo::XY, topo, src, topo.node_at({0, 3})), PortDir::West);
  EXPECT_EQ(route_dor(RoutingAlgo::XY, topo, src, topo.node_at({1, 3})), PortDir::North);
  EXPECT_EQ(route_dor(RoutingAlgo::XY, topo, src, topo.node_at({1, 0})), PortDir::South);
  EXPECT_EQ(route_dor(RoutingAlgo::XY, topo, src, src), PortDir::Local);
}

TEST(Routing, YXGoesYFirst) {
  MeshTopology topo(5, 5);
  const NodeId src = topo.node_at({1, 1});
  EXPECT_EQ(route_dor(RoutingAlgo::YX, topo, src, topo.node_at({3, 3})), PortDir::North);
  EXPECT_EQ(route_dor(RoutingAlgo::YX, topo, src, topo.node_at({3, 1})), PortDir::East);
}

TEST(Routing, EveryPairReachesDestinationMinimally) {
  // Property: following the routing function hop by hop reaches dst in
  // exactly manhattan-distance steps, for both dimension orders.
  MeshTopology topo(4, 3);
  for (const RoutingAlgo algo : {RoutingAlgo::XY, RoutingAlgo::YX}) {
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      for (NodeId d = 0; d < topo.num_nodes(); ++d) {
        NodeId here = s;
        int steps = 0;
        while (here != d) {
          const PortDir dir = route_dor(algo, topo, here, d);
          ASSERT_NE(dir, PortDir::Local);
          here = topo.neighbor(here, dir);
          ASSERT_LE(++steps, topo.hop_distance(s, d)) << "non-minimal route";
        }
        EXPECT_EQ(steps, topo.hop_distance(s, d));
        EXPECT_EQ(route_dor(algo, topo, here, d), PortDir::Local);
      }
    }
  }
}

TEST(Routing, StringConversions) {
  EXPECT_EQ(routing_algo_from_string("xy"), RoutingAlgo::XY);
  EXPECT_EQ(routing_algo_from_string("yx"), RoutingAlgo::YX);
  EXPECT_EQ(routing_algo_from_string("adaptive"), RoutingAlgo::Adaptive);
  EXPECT_EQ(routing_algo_from_string("ugal"), RoutingAlgo::Ugal);
  // Case-insensitive, and unknown names report the offender + valid set.
  EXPECT_EQ(routing_algo_from_string("XY"), RoutingAlgo::XY);
  EXPECT_EQ(routing_algo_from_string("UGAL"), RoutingAlgo::Ugal);
  try {
    routing_algo_from_string("westfirst");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("westfirst"), std::string::npos);
    EXPECT_NE(msg.find("valid"), std::string::npos);
  }
  EXPECT_STREQ(to_string(RoutingAlgo::XY), "xy");
  EXPECT_STREQ(to_string(RoutingAlgo::Adaptive), "adaptive");
  EXPECT_STREQ(to_string(RoutingAlgo::Ugal), "ugal");
}

// ------------------------------------------------------------ channel ----

// Channels are tick-free: they read their reader's cycle counter, so each
// test owns a local counter and advances it where the Network would run an
// island edge.

TEST(DelayLine, DeliversAfterLatency) {
  std::uint64_t now = 0;
  DelayLine<int> ch(2, &now);
  ch.push(42);
  ++now;
  EXPECT_FALSE(ch.pop().has_value());
  ++now;
  const auto v = ch.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(DelayLine, PipelinedBackToBack) {
  // One push per cycle; each arrives exactly `latency` cycles later — for
  // rings held inline (latency <= 3) and spilled to the heap (5).
  for (const int latency : {1, 3, 5}) {
    std::uint64_t now = 0;
    DelayLine<int> ch(latency, &now);
    std::vector<int> received;
    std::vector<std::uint64_t> arrival;
    for (int i = 0; i < 20; ++i) {
      ++now;
      if (auto v = ch.pop()) {
        received.push_back(*v);
        arrival.push_back(now);
      }
      if (i < 12) ch.push(i);
    }
    ASSERT_EQ(received.size(), 12u) << "latency " << latency;
    for (std::size_t k = 0; k < received.size(); ++k) {
      EXPECT_EQ(received[k], static_cast<int>(k)) << "latency " << latency;
      EXPECT_EQ(arrival[k], k + 1 + static_cast<std::uint64_t>(latency)) << "latency " << latency;
    }
  }
}

TEST(DelayLine, DoublePushSameCycleViolatesInvariant) {
  std::uint64_t now = 0;
  DelayLine<int> ch(1, &now);
  ch.push(1);
  EXPECT_THROW(ch.push(2), common::InvariantViolation);
  ++now;
  EXPECT_NO_THROW(ch.push(3)) << "one push per cycle is the link bandwidth";
}

TEST(DelayLine, OverwritingUndeliveredItemViolatesInvariant) {
  std::uint64_t now = 0;
  DelayLine<int> ch(1, &now);
  ch.push(1);  // due at cycle 1, but the reader never pops it
  ++now;
  ch.push(2);
  ++now;
  EXPECT_THROW(ch.push(3), common::InvariantViolation);
}

TEST(DelayLine, InFlightCount) {
  std::uint64_t now = 0;
  DelayLine<int> ch(2, &now);
  EXPECT_EQ(ch.in_flight(), 0u);
  ch.push(5);
  EXPECT_EQ(ch.in_flight(), 1u);
  now += 2;
  (void)ch.pop();
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(DelayLine, DueItemWaitsForNoTick) {
  // A reader that skipped cycles (a parked tile) still finds an item
  // exactly `latency` cycles after its push: the delay is measured on the
  // reader's clock, not in calls made on the line.
  std::uint64_t now = 100;
  DelayLine<int> ch(2, &now);
  ch.push(7);
  now = 101;
  EXPECT_FALSE(ch.pop().has_value());
  now = 102;
  EXPECT_EQ(ch.pop(), std::optional<int>(7));
}

TEST(DelayLine, Validation) {
  std::uint64_t now = 0;
  EXPECT_THROW(DelayLine<int>(0, &now), std::invalid_argument);
  EXPECT_THROW(DelayLine<int>(1, nullptr), std::invalid_argument);
}

// ------------------------------------------------------- packet table ----

TEST(PacketTable, ConcurrentAcquireReleaseKeepsEveryEntry) {
  // Four threads churn slots at once, as tile-parallel workers do: each
  // entry reads back what its acquirer wrote, and the table ends empty.
  PacketTable table;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &mismatches, t] {
      std::vector<std::uint32_t> held;
      for (int i = 0; i < kPerThread; ++i) {
        const PacketId id = static_cast<PacketId>(t) * kPerThread + static_cast<PacketId>(i);
        held.push_back(table.acquire(PacketInfo{id, 0, 0, t, 0, 1, 0}));
        if (held.size() == 40) {  // release in bursts so slots get reused
          for (const std::uint32_t slot : held) {
            if (table[slot].src != t) mismatches.fetch_add(1);
            table.release(slot);
          }
          held.clear();
        }
      }
      for (const std::uint32_t slot : held) table.release(slot);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_LE(table.capacity(), static_cast<std::size_t>(kThreads * 40));
  EXPECT_GE(table.bytes(), table.capacity() * sizeof(PacketInfo));
}

TEST(PacketTable, SlotsSpanChunksWithStableEntries) {
  PacketTable table;
  std::vector<const PacketInfo*> where;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(table.acquire(PacketInfo{i, 0, 0, 0, 0, 1, 0}), i);
    where.push_back(&table[i]);
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(&table[i], where[i]) << "entries never move once allocated";
    EXPECT_EQ(table[i].id, i);
  }
  table.release(17);
  EXPECT_EQ(table.acquire(PacketInfo{5000, 0, 0, 0, 0, 1, 0}), 17u) << "LIFO reuse";
  EXPECT_EQ(table.capacity(), 1000u);
}

// -------------------------------------------------------- worker pool ----

TEST(WorkerPool, RunsEachRequestedWorkerOncePerJob) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4);
  for (int round = 0; round < 200; ++round) {
    const int n = 1 + round % 4;
    std::vector<int> calls(4, 0);
    auto job = [&calls](int w) { ++calls[static_cast<std::size_t>(w)]; };
    pool.run(n, job);
    for (int w = 0; w < 4; ++w) {
      ASSERT_EQ(calls[static_cast<std::size_t>(w)], w < n ? 1 : 0)
          << "round " << round << ", worker " << w;
    }
  }
  auto noop = [](int) {};
  EXPECT_THROW(pool.run(0, noop), std::invalid_argument);
  EXPECT_THROW(pool.run(5, noop), std::invalid_argument);
  EXPECT_THROW(WorkerPool(0), std::invalid_argument);
  EXPECT_THROW(WorkerPool(WorkerPool::kMaxSize + 1), std::invalid_argument);
}

TEST(WorkerPool, RethrowsTheLowestWorkersExceptionAndStaysUsable) {
  WorkerPool pool(4);
  auto failing = [](int w) {
    if (w >= 2) throw std::runtime_error("worker " + std::to_string(w));
  };
  try {
    pool.run(4, failing);
    FAIL() << "a helper's exception must reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2");
  }
  auto caller_fails = [](int w) {
    if (w == 0 || w == 3) throw std::runtime_error("worker " + std::to_string(w));
  };
  try {
    pool.run(4, caller_fails);
    FAIL() << "the caller's own exception must propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 0");
  }
  std::atomic<int> sum{0};
  auto ok = [&sum](int w) { sum.fetch_add(w + 1); };
  pool.run(4, ok);
  EXPECT_EQ(sum.load(), 10) << "no stale error survives into the next job";
}

}  // namespace
}  // namespace nocdvfs::noc
