#pragma once

/// \file network.hpp
/// The assembled NoC: routers, inter-router links, credit wires and
/// per-node network interfaces, partitioned into one or more clock islands.
///
/// The physical structure comes from a `topo::Topology` (mesh, torus,
/// concentrated mesh or dragonfly — see src/topo/). Terminology: a *node*
/// is a network interface (always `width × height`, row-major, exactly the
/// historical mesh ids); a *tile* is one router together with the NIs that
/// hang off its local ports, identified by the router id. On the plain
/// mesh every tile holds one NI and tile ids equal node ids, so everything
/// below degenerates to the historical behaviour bit-for-bit.
///
/// With a single island (the default, and the paper's configuration)
/// `step_island(0, now)` advances exactly one NoC clock cycle; the clock
/// kernel decides *when* those cycles happen in master (picosecond) time —
/// that separation is what lets the DVFS controller slow the network relative
/// to the nodes (the paper's central mechanism).
///
/// With a voltage–frequency-island partition (`NetworkConfig::island_of`)
/// each island is stepped independently via `step_island()` whenever *its*
/// clock fires. Links whose endpoints live in different islands become
/// clock-domain crossings: an asynchronous FIFO (`CdcFifo`) timed by the
/// receiving domain's cycle count, charging `cdc_sync_cycles` receiver
/// cycles of synchronizer latency on top of the link pipeline — in both the
/// flit direction and the reverse credit direction. All NIs of a tile must
/// share their router's island (the partition may not split a tile).
///
/// One island cycle steps each awake tile in one fused pass — router
/// receive → NI receive → router compute → NI inject — and splits the
/// awake tiles into contiguous ranges run on a persistent worker pool
/// (`NetworkConfig::tile_workers`). Every channel delivers at least one
/// reader cycle after its push, so no tile can observe another tile's
/// pushes of the same cycle, and the result is bit-identical to stepping
/// the tiles one by one.
///
/// A `FaultModel` (NetworkConfig::faults) injects link/router failures at
/// construction or mid-run, keyed to island 0's clock. When an epoch
/// fires, the routing engine rebuilds its up*/down* reroute tables,
/// routers start reporting traversals, and packets without a surviving
/// route drain into drop counters (at the source NI for packets enqueued
/// after the epoch, inside routers for packets already in flight).

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "noc/channel.hpp"
#include "noc/network_interface.hpp"
#include "noc/packet_table.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/worker_pool.hpp"
#include "obs/telemetry.hpp"
#include "power/activity.hpp"
#include "power/power_model.hpp"
#include "topo/fault_model.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::noc {

struct NetworkConfig {
  int width = 5;
  int height = 5;
  int num_vcs = 8;
  int vc_buffer_depth = 4;
  RoutingAlgo routing = RoutingAlgo::XY;
  int link_latency = 1;  ///< cycles on inter-router links

  /// Physical topology; width/height always count NIs (nodes), and
  /// `concentration` NIs share one router on concentrated topologies.
  topo::TopologyKind topology = topo::TopologyKind::Mesh;
  int concentration = 1;

  /// Fault-injection spec for topo::FaultModel ("" / "off" / "none" =
  /// fault-free), e.g. "links:2@0+routers:1@5000".
  std::string faults;
  std::uint64_t fault_seed = 1;

  /// Node→island assignment in row-major node order; empty means one
  /// global island (ids must be contiguous 0..K-1; see vfi::IslandMap).
  std::vector<int> island_of;
  /// Synchronizer penalty on island-boundary links, in receiver-domain
  /// cycles (applies to flits and returning credits alike).
  int cdc_sync_cycles = 2;

  /// Skip router/NI phases for quiescent tiles (empty buffers, idle NIs,
  /// nothing in flight on any channel the tile reads). Bit-identical to
  /// always-stepping — the golden-metrics suite gates that — but far
  /// cheaper at low load. `false` restores the step-everything discipline
  /// (the in-tree comparison path).
  bool skip_idle = true;

  /// Workers that step one island cycle's awake tiles in parallel (the
  /// calling thread is one of them). 0 = auto: min(hardware threads,
  /// awake tiles / K) with K awake tiles per worker measured once (see
  /// ARCHITECTURE "Tile-parallel stepping"), so small or idle islands
  /// stay serial. N >= 1 = N workers whenever the island has at least N
  /// awake tiles (1 = always serial); at most WorkerPool::kMaxSize.
  /// Metrics-invisible for every value. A sweep that already runs points
  /// on several threads sets 1 for its points.
  int tile_workers = 0;

  int num_nodes() const noexcept { return width * height; }
  int num_islands() const noexcept;
};

/// Implements WakeSink: routers and NIs report every push towards another
/// tile's inputs, which is what keeps the per-island activity lists exact
/// without any per-cycle scan. Wake targets are *tile* (router) ids.
class Network : public WakeSink {
 public:
  explicit Network(const NetworkConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advance island `island` by one cycle of its own clock at master time
  /// `now`: advance its cycle count, then run the router/NI phases of its
  /// awake tiles. When several islands fire at the same instant, use the
  /// split form below instead.
  void step_island(int island, common::Picoseconds now);

  /// Split form for coincident edges: tick *every* fired island first,
  /// then run every fired island's phases. `tick_island` advances the
  /// island's cycle count (which every channel it reads is timed by),
  /// admits the tiles woken since its last edge and counts the skipped
  /// tile steps. Ticking before any phases guarantees that a CDC fifo
  /// push at instant t is timed from the reader's cycle count *after* its
  /// edge at t — otherwise a crossing from an island stepped earlier in
  /// the same instant would deliver one receiver cycle early (zero link
  /// latency at cdc_sync_cycles=0).
  void tick_island(int island);
  /// One fused pass over the island's awake tiles, on up to
  /// `tile_workers` threads. An exception thrown while stepping any tile
  /// (an invariant violation) is rethrown here on the calling thread.
  void run_island_phases(int island, common::Picoseconds now);

  std::uint64_t cycle() const noexcept { return island_cycles_[0]; }
  const NetworkConfig& config() const noexcept { return cfg_; }
  /// Legacy NI-grid mesh view (node coordinates / hop distance). Only the
  /// plain-mesh topology routes by it; prefer `topology_model()`.
  const MeshTopology& topology() const noexcept { return topo_; }
  /// The physical topology the network is actually wired from.
  const topo::Topology& topology_model() const noexcept { return *topol_; }
  int num_nodes() const noexcept { return topo_.num_nodes(); }
  int num_routers() const noexcept { return static_cast<int>(routers_.size()); }

  // --- island structure ---
  int num_islands() const noexcept { return static_cast<int>(islands_.size()); }
  int island_of(NodeId node) const { return island_of_.at(static_cast<std::size_t>(node)); }
  /// Ascending node (NI) ids of one island.
  const std::vector<NodeId>& island_members(int island) const {
    return islands_.at(static_cast<std::size_t>(island)).members;
  }
  /// Ascending tile (router) ids of one island.
  const std::vector<NodeId>& island_tiles(int island) const {
    return islands_.at(static_cast<std::size_t>(island)).tiles;
  }
  /// Cycles island `island` has executed (its local clock count).
  std::uint64_t island_cycles(int island) const {
    return island_cycles_.at(static_cast<std::size_t>(island));
  }
  /// Directed inter-router links that cross an island boundary.
  int num_boundary_links() const noexcept { return num_boundary_links_; }

  // --- skip-idle stepping (see NetworkConfig::skip_idle) ---
  bool skip_idle() const noexcept { return skip_idle_; }
  /// Tiles on island `island`'s activity list right now (== its tile
  /// count when skip_idle is off).
  int island_active_nodes(int island) const;
  /// Tile step pairs elided since construction on one island / in total:
  /// each cycle an island advances, every member tile *not* on its
  /// activity list counts one skipped step. Always 0 with skip_idle off —
  /// the quiescence property tests key on this being large and exact.
  std::uint64_t island_idle_steps_skipped(int island) const;
  std::uint64_t idle_steps_skipped() const;

  /// WakeSink: put tile `tile` on its island's activity list at that
  /// island's next clock edge (no-op while the tile is already awake).
  /// Routers/NIs call this on every push towards the tile.
  void wake(NodeId tile) override;

  NetworkInterface& ni(NodeId node) { return *nis_.at(static_cast<std::size_t>(node)); }
  const NetworkInterface& ni(NodeId node) const {
    return *nis_.at(static_cast<std::size_t>(node));
  }
  /// The router serving node `node` (its tile's router).
  const Router& router(NodeId node) const {
    return *routers_.at(static_cast<std::size_t>(topol_->router_of(node)));
  }
  /// Direct router access by router id (`0 <= r < num_routers()`).
  const Router& router_at(int r) const { return *routers_.at(static_cast<std::size_t>(r)); }
  /// Packet-invariant fields of every packet with flits in the network.
  const PacketTable& packet_table() const noexcept { return packets_; }

  // --- fault & routing introspection ---
  const topo::RoutingEngine& routing_engine() const noexcept { return *engine_; }
  /// Null when the network is fault-free.
  const topo::FaultModel* fault_model() const noexcept { return faults_.get(); }
  /// Packets/flits dropped anywhere: refused at a source NI (destination
  /// unreachable at enqueue) or drained inside a router (no surviving
  /// route once in flight).
  std::uint64_t total_packets_dropped() const;
  std::uint64_t total_flits_dropped() const;
  long long unreachable_pairs() const noexcept {
    return engine_->unreachable_pairs();
  }
  long long rerouted_pairs() const noexcept { return engine_->rerouted_pairs(); }
  int failed_links() const noexcept { return faults_ ? faults_->failed_links() : 0; }
  int failed_routers() const noexcept { return faults_ ? faults_->failed_routers() : 0; }

  /// One record per fired fault epoch (including at-start failures, at
  /// t_ps 0), with the fault/reroute totals after the table rebuild —
  /// telemetry drains these into the event timeline.
  struct FaultEpochRecord {
    std::uint64_t cycle = 0;          ///< island-0 cycle the epoch fired on
    common::Picoseconds t_ps = 0;
    int failed_links = 0;
    int failed_routers = 0;
    long long rerouted_pairs = 0;
    long long unreachable_pairs = 0;
  };
  const std::vector<FaultEpochRecord>& fault_epochs() const noexcept { return fault_epochs_; }

  // --- telemetry (src/obs/) ---
  /// Enable/disable the per-router stall-cause taxonomy network-wide.
  void set_stall_tracking(bool on);
  /// Directed inter-router links in wiring order — the entity table behind
  /// every link-scoped metric.
  const std::vector<obs::LinkInfo>& link_table() const noexcept { return net_links_; }
  /// Flits queued in the boundary CDC fifos island `island` reads.
  std::uint64_t island_cdc_flit_occupancy(int island) const;
  /// Register this network's counters and gauges: tile-scoped router
  /// counters (forwarded flits, stall taxonomy, drops) and occupancy
  /// gauges, node-scoped NI counters (generation, ejection, refusals) and
  /// backlog gauges, island-scoped CDC occupancy — plus, with `full`, the
  /// per-directed-link forwarded-flit counters and backlog gauges.
  void register_telemetry(obs::TelemetryRegistry& registry, bool full) const;

  /// Packets delivered since the caller last cleared this vector.
  std::vector<PacketRecord>& delivered() noexcept { return delivered_; }

  /// Install (or clear, with an empty function) the observer invoked for
  /// every packet entering any source queue — the trace-recording hook.
  void set_injection_observer(InjectionObserver observer);

  /// Install (or clear, with nullptr) the packet flight recorder on every
  /// router and NI, and hand it the router→island map so it can synthesize
  /// clock-domain-crossing events. Same one-branch-when-off discipline as
  /// the injection observer.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  // --- aggregate measurement (whole network) ---
  power::ActivityCounters total_activity() const;
  power::NetworkInventory inventory() const;
  std::uint64_t total_flits_generated() const;
  std::uint64_t total_flits_injected() const;
  std::uint64_t total_flits_ejected() const;
  std::uint64_t total_packets_generated() const;
  std::uint64_t total_packets_ejected() const;
  std::uint64_t total_source_backlog_flits() const;
  /// Flits inside router buffers and on links (conservation checks).
  std::uint64_t flits_in_network() const;
  /// O(routers) snapshot of router-buffer occupancy (excludes link
  /// pipelines); cheap enough to sample every NoC cycle.
  std::uint64_t buffered_flits_now() const;
  /// Total flit capacity of all wired input buffers.
  std::uint64_t buffer_capacity_flits() const;

  // --- per-tile measurement (the thermal subsystem's attribution scope) ---
  /// Activity of node `node`'s tile: its router plus its own NI. Only
  /// meaningful at concentration 1 (thermal's validated scope), where
  /// tiles and nodes coincide.
  power::ActivityCounters node_activity(NodeId node) const;
  /// Structures attributed to one tile: the router, the directed
  /// inter-router links it drives, and the node's two local channels.
  /// Summed over an island's members this equals `island_inventory` at
  /// concentration 1.
  power::TileInventory node_inventory(NodeId node) const;

  // --- per-island measurement (same definitions, island scope) ---
  power::ActivityCounters island_activity(int island) const;
  /// Inventory attributed to one island: its routers/NIs plus the directed
  /// links *sourced* in it (so island inventories sum to `inventory()`).
  power::NetworkInventory island_inventory(int island) const;
  std::uint64_t island_flits_generated(int island) const;
  std::uint64_t island_flits_injected(int island) const;
  std::uint64_t island_flits_ejected(int island) const;
  std::uint64_t island_source_backlog_flits(int island) const;
  std::uint64_t island_buffered_flits_now(int island) const;
  std::uint64_t island_buffer_capacity_flits(int island) const;

 private:
  struct Island {
    std::vector<NodeId> members;             ///< ascending node (NI) ids
    std::vector<NodeId> tiles;               ///< ascending tile (router) ids
    std::vector<FlitCdcFifo*> cdc_flit_in;   ///< boundary flit fifos this island reads
    int links_sourced = 0;  ///< directed inter-router links driven by this island

    // Skip-idle state, in tile ids. `active` is kept sorted ascending so
    // the pass visits awake tiles in exactly the tile order — the
    // delivered-record sequence (and with it every order-sensitive float
    // accumulation in the metrics layer) is bit-identical to stepping
    // everyone. `newly_awake` absorbs wake() calls between this island's
    // edges and is merged in at the next tick; parking happens after the
    // phases of the same cycle that drained a tile. No per-cycle
    // membership scan anywhere.
    std::vector<NodeId> active;
    std::vector<NodeId> newly_awake;
    std::uint64_t idle_steps_skipped = 0;
    std::size_t last_pass_tiles = 0;  ///< tiles stepped in the previous cycle
  };

  /// Records wakes for replay into `Network::wake` after the join.
  struct WakeBuffer final : WakeSink {
    std::vector<NodeId> tiles;
    void wake(NodeId tile) override { tiles.push_back(tile); }
  };
  /// A helper worker's private sinks for one parallel pass: the wakes and
  /// delivered records of the tiles it stepped, merged after the join.
  struct WorkerSinks {
    WakeBuffer wakes;
    std::vector<PacketRecord> delivered;
  };

  FlitChannel& new_flit_channel(int latency, int island);
  CreditChannel& new_credit_channel(int latency, int island);
  FlitCdcFifo& new_cdc_flit_channel(int ready_delay, int reader_island);
  CreditCdcFifo& new_cdc_credit_channel(int ready_delay, int reader_island);

  /// Workers for a pass over `awake` tiles when the island's previous
  /// pass stepped `previous` (1 = serial; see tile_workers).
  int workers_for(std::size_t awake, std::size_t previous) const;
  /// One tile's cycle: router receive → NI receive → router compute → NI
  /// inject, with the router's wakes and the NIs' deliveries sent to the
  /// stepping worker's sinks.
  void step_tile(NodeId tile, WakeSink* wakes, std::vector<PacketRecord>* delivered,
                 common::Picoseconds now, std::uint64_t cycle);

  /// Sorted-merge `newly_awake` into `active` (amortized O(new·log new)).
  void admit_woken(Island& isl);
  /// Drop tiles that ended the cycle with no work anywhere: empty router
  /// buffers, idle NIs, nothing in flight on any channel the tile reads.
  void park_quiescent(Island& isl);
  bool tile_quiescent(NodeId tile) const;
  /// Fire every fault event due at island-0 cycle `cycle` (master time
  /// `now`) and rebuild the reroute tables.
  void apply_due_faults(std::uint64_t cycle, common::Picoseconds now);

  NetworkConfig cfg_;
  MeshTopology topo_;  ///< NI-grid view (legacy accessor; mesh routing)
  std::unique_ptr<topo::Topology> topol_;
  std::unique_ptr<topo::RoutingEngine> engine_;
  std::unique_ptr<topo::FaultModel> faults_;
  ReachabilityFn reachable_fn_;  ///< NI enqueue-time delivery check
  bool fault_pending_ = false;   ///< unfired fault events remain

  PacketTable packets_;  ///< shared by every router and NI of this network
  std::vector<std::unique_ptr<Router>> routers_;  ///< by router id
  std::vector<std::unique_ptr<NetworkInterface>> nis_;  ///< by node id
  // deques: stable element addresses across push_back during wiring
  std::deque<FlitChannel> flit_channels_;
  std::deque<CreditChannel> credit_channels_;
  std::deque<FlitCdcFifo> cdc_flit_channels_;
  std::deque<CreditCdcFifo> cdc_credit_channels_;
  std::vector<PacketRecord> delivered_;
  InjectionObserver injection_observer_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  std::uint64_t next_packet_id_ = 0;  ///< shared NI counter: globally unique ids
  std::vector<int> island_of_;  ///< resolved node→island (size num_nodes)
  std::vector<int> router_island_;  ///< tile→island (size num_routers)
  std::vector<std::vector<NodeId>> tile_nis_;  ///< tile → ascending node ids
  std::vector<Island> islands_;
  std::vector<std::uint64_t> island_cycles_;
  int num_boundary_links_ = 0;
  std::vector<obs::LinkInfo> net_links_;  ///< directed links in wiring order
  std::vector<FaultEpochRecord> fault_epochs_;

  /// Created at the first parallel pass (never during construction, which
  /// the set-up time includes); helpers 1..n−1 of a pass use
  /// `worker_sinks_[w]`, worker 0 the network's own sinks.
  std::unique_ptr<WorkerPool> pool_;
  std::vector<WorkerSinks> worker_sinks_;

  bool skip_idle_ = true;
  std::vector<std::uint8_t> node_awake_;  ///< per tile: on an active/newly_awake list
  /// Per tile: every channel popped in that tile's clock domain (its
  /// router's flit/credit inputs plus its NIs' eject/credit inputs) — the
  /// in-flight half of the parking condition.
  std::vector<std::vector<ChannelBase*>> node_read_;
};

}  // namespace nocdvfs::noc
