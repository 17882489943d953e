#include "noc/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace nocdvfs::noc {

namespace {

/// Auto mode's minimum awake tiles per worker (K in ARCHITECTURE
/// "Tile-parallel stepping", where its measurement is recorded).
constexpr std::size_t kTilesPerWorker = 64;

/// Hardware threads, read once per process: the query can cost a file
/// read, and auto mode would otherwise make it on every island step.
int hardware_workers() {
  static const int n = static_cast<int>(std::clamp(
      std::thread::hardware_concurrency(), 1u, static_cast<unsigned>(WorkerPool::kMaxSize)));
  return n;
}

}  // namespace

int NetworkConfig::num_islands() const noexcept {
  if (island_of.empty()) return 1;
  return *std::max_element(island_of.begin(), island_of.end()) + 1;
}

Network::Network(const NetworkConfig& cfg) : cfg_(cfg), topo_(cfg.width, cfg.height) {
  if (cfg.link_latency < 1) throw std::invalid_argument("Network: link_latency must be >= 1");
  if (cfg.cdc_sync_cycles < 0) {
    throw std::invalid_argument("Network: cdc_sync_cycles must be >= 0");
  }
  if (cfg.tile_workers < 0 || cfg.tile_workers > WorkerPool::kMaxSize) {
    throw std::invalid_argument("Network: tile_workers must be in [0, 255]");
  }
  // Physical structure (validates width/height/concentration per kind).
  topol_ = topo::Topology::make(cfg.topology, cfg.width, cfg.height, cfg.concentration);
  const int n = topol_->num_nodes();
  const int num_r = topol_->num_routers();

  // Resolve the island partition (empty config = one global island) and
  // validate it the same way vfi::IslandMap does: contiguous non-empty ids.
  if (cfg.island_of.empty()) {
    island_of_.assign(static_cast<std::size_t>(n), 0);
  } else if (static_cast<int>(cfg.island_of.size()) != n) {
    throw std::invalid_argument("Network: island_of must have one entry per node");
  } else {
    island_of_ = cfg.island_of;
  }
  const int k = *std::max_element(island_of_.begin(), island_of_.end()) + 1;
  if (*std::min_element(island_of_.begin(), island_of_.end()) < 0) {
    throw std::invalid_argument("Network: negative island id");
  }
  islands_.resize(static_cast<std::size_t>(k));
  island_cycles_.assign(static_cast<std::size_t>(k), 0);
  for (NodeId id = 0; id < n; ++id) {
    islands_[static_cast<std::size_t>(island_of_[static_cast<std::size_t>(id)])]
        .members.push_back(id);
  }
  for (int isl = 0; isl < k; ++isl) {
    if (islands_[static_cast<std::size_t>(isl)].members.empty()) {
      throw std::invalid_argument("Network: island ids must be contiguous (island " +
                                  std::to_string(isl) + " has no nodes)");
    }
  }

  // Tiles: the NIs behind each router, in ascending node order (which is
  // also local-port order — Topology guarantees it). A clock island may
  // not split a tile: the router and all its NIs share one domain.
  tile_nis_.resize(static_cast<std::size_t>(num_r));
  for (NodeId id = 0; id < n; ++id) {
    tile_nis_[static_cast<std::size_t>(topol_->router_of(id))].push_back(id);
  }
  router_island_.resize(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    const auto& members = tile_nis_[static_cast<std::size_t>(r)];
    const int isl = island_of_[static_cast<std::size_t>(members.front())];
    for (const NodeId id : members) {
      if (island_of_[static_cast<std::size_t>(id)] != isl) {
        throw std::invalid_argument(
            "Network: island partition splits tile " + std::to_string(r) +
            " (a router and all its NIs must share one island)");
      }
    }
    router_island_[static_cast<std::size_t>(r)] = isl;
    islands_[static_cast<std::size_t>(isl)].tiles.push_back(r);
  }

  // Routing engine (validates the VC budget against the class discipline)
  // and, when requested, the fault model.
  engine_ = std::make_unique<topo::RoutingEngine>(*topol_, cfg.routing, cfg.num_vcs);
  if (!topo::FaultModel::spec_is_off(cfg.faults)) {
    faults_ = std::make_unique<topo::FaultModel>(*topol_, cfg.faults, cfg.fault_seed);
    engine_->set_fault_model(faults_.get());
  }

  RouterConfig rcfg;
  rcfg.num_vcs = cfg.num_vcs;
  rcfg.vc_buffer_depth = cfg.vc_buffer_depth;

  NiConfig ncfg;
  ncfg.num_vcs = cfg.num_vcs;
  ncfg.vc_buffer_depth = cfg.vc_buffer_depth;

  routers_.reserve(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    routers_.push_back(std::make_unique<Router>(r, topol_->radix(r), rcfg, packets_));
    routers_.back()->set_routing_engine(engine_.get());
    routers_.back()->set_first_local_port(topol_->num_net_ports(r));
  }
  nis_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    nis_.push_back(std::make_unique<NetworkInterface>(id, ncfg, &delivered_, &packets_));
    nis_.back()->set_wake_id(topol_->router_of(id));
    nis_.back()->set_packet_id_source(&next_packet_id_);
  }

  // Inter-router links: one flit channel and one reverse credit channel per
  // directed edge, wired in ascending (router, port) order — on the mesh
  // this replays the historical node/direction order exactly. A link whose
  // endpoints live in different islands becomes a CDC fifo pair: the flit
  // fifo is read (and therefore clocked) by the receiver's island, the
  // credit fifo by the sender's. Each channel is also indexed by the tile
  // that pops it — flits by the downstream tile, credits by the upstream —
  // which is the per-tile quiescence set of the skip-idle path.
  node_read_.resize(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    // Every tile reads a flit and a credit channel per network port, and
    // four channels per NI (reserved up front: set-up time is measured).
    node_read_[static_cast<std::size_t>(r)].reserve(
        2 * static_cast<std::size_t>(topol_->num_net_ports(r)) +
        4 * tile_nis_[static_cast<std::size_t>(r)].size());
  }
  for (int r = 0; r < num_r; ++r) {
    const int src_island = router_island_[static_cast<std::size_t>(r)];
    const int net_ports = topol_->num_net_ports(r);
    for (int p = 0; p < net_ports; ++p) {
      const topo::PortPeer far = topol_->peer(r, p);
      if (!far.valid()) continue;
      const int dst_island = router_island_[static_cast<std::size_t>(far.router)];
      islands_[static_cast<std::size_t>(src_island)].links_sourced += 1;
      net_links_.push_back(obs::LinkInfo{r, p, far.router});
      FlitPort* flit_ch = nullptr;
      CreditPort* credit_ch = nullptr;
      if (src_island == dst_island) {
        flit_ch = &new_flit_channel(cfg.link_latency, src_island);
        credit_ch = &new_credit_channel(1, src_island);
      } else {
        ++num_boundary_links_;
        flit_ch = &new_cdc_flit_channel(cfg.link_latency + cfg.cdc_sync_cycles,
                                        dst_island);
        credit_ch = &new_cdc_credit_channel(1 + cfg.cdc_sync_cycles, src_island);
      }
      routers_[static_cast<std::size_t>(r)]->connect_output(p, flit_ch, credit_ch);
      routers_[static_cast<std::size_t>(far.router)]->connect_input(far.port, flit_ch,
                                                                    credit_ch);
      routers_[static_cast<std::size_t>(r)]->set_port_peer(p, far.router);
      node_read_[static_cast<std::size_t>(far.router)].push_back(flit_ch);
      node_read_[static_cast<std::size_t>(r)].push_back(credit_ch);
    }
  }

  // Local ports: injection (NI -> router) and ejection (router -> NI);
  // always intra-island, so all four channels belong to the NI's tile.
  for (NodeId id = 0; id < n; ++id) {
    const int r = topol_->router_of(id);
    const int lp = topol_->local_port(id);
    const int isl = island_of_[static_cast<std::size_t>(id)];
    auto& inject_flit = new_flit_channel(1, isl);
    auto& inject_credit = new_credit_channel(1, isl);
    auto& eject_flit = new_flit_channel(1, isl);
    auto& eject_credit = new_credit_channel(1, isl);
    routers_[static_cast<std::size_t>(r)]->connect_input(lp, &inject_flit, &inject_credit);
    routers_[static_cast<std::size_t>(r)]->connect_output(lp, &eject_flit, &eject_credit);
    nis_[static_cast<std::size_t>(id)]->connect(&inject_flit, &inject_credit, &eject_flit,
                                                &eject_credit);
    auto& reads = node_read_[static_cast<std::size_t>(r)];
    reads.push_back(&inject_flit);
    reads.push_back(&inject_credit);
    reads.push_back(&eject_flit);
    reads.push_back(&eject_credit);
  }

  // Skip-idle stepping: every tile starts awake (the first quiet cycles
  // park them) and every component reports its pushes. With skip_idle off
  // the sinks stay null and every tile is stepped every cycle.
  skip_idle_ = cfg.skip_idle;
  node_awake_.assign(static_cast<std::size_t>(num_r), skip_idle_ ? 1 : 0);
  if (skip_idle_) {
    for (auto& isl : islands_) isl.active = isl.tiles;
    for (auto& r : routers_) r->set_wake_sink(this);
    for (auto& ni : nis_) ni->set_wake_sink(this);
  }

  // Fault bring-up: the enqueue-time delivery check, plus any events due
  // before the first cycle (at-start failures).
  if (faults_) {
    reachable_fn_ = [this](NodeId src, NodeId dst) { return engine_->reachable(src, dst); };
    for (auto& ni : nis_) ni->set_reachability(&reachable_fn_);
    if (faults_->due(0)) apply_due_faults(0, 0);
    fault_pending_ = faults_->has_pending();
  }
}

void Network::apply_due_faults(std::uint64_t cycle, common::Picoseconds now) {
  faults_->advance_to(cycle);
  engine_->rebuild_tables();
  if (engine_->hook_active()) {
    for (auto& r : routers_) r->set_traverse_hook(true);
  }
  fault_pending_ = faults_->has_pending();
  fault_epochs_.push_back(FaultEpochRecord{cycle, now, faults_->failed_links(),
                                           faults_->failed_routers(), engine_->rerouted_pairs(),
                                           engine_->unreachable_pairs()});
}

FlitChannel& Network::new_flit_channel(int latency, int island) {
  return flit_channels_.emplace_back(latency, &island_cycles_[static_cast<std::size_t>(island)]);
}

CreditChannel& Network::new_credit_channel(int latency, int island) {
  return credit_channels_.emplace_back(latency,
                                       &island_cycles_[static_cast<std::size_t>(island)]);
}

FlitCdcFifo& Network::new_cdc_flit_channel(int ready_delay, int reader_island) {
  const auto i = static_cast<std::size_t>(reader_island);
  FlitCdcFifo& ch = cdc_flit_channels_.emplace_back(
      ready_delay, cfg_.num_vcs * cfg_.vc_buffer_depth + 2, &island_cycles_[i]);
  islands_[i].cdc_flit_in.push_back(&ch);
  return ch;
}

CreditCdcFifo& Network::new_cdc_credit_channel(int ready_delay, int reader_island) {
  return cdc_credit_channels_.emplace_back(ready_delay,
                                           cfg_.num_vcs * cfg_.vc_buffer_depth + 2,
                                           &island_cycles_[static_cast<std::size_t>(reader_island)]);
}

void Network::set_injection_observer(InjectionObserver observer) {
  injection_observer_ = std::move(observer);
  const InjectionObserver* ptr = injection_observer_ ? &injection_observer_ : nullptr;
  for (auto& ni : nis_) ni->set_injection_observer(ptr);
}

void Network::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_recorder_ = recorder;
  if (recorder != nullptr) recorder->set_router_islands(
      std::vector<std::int32_t>(router_island_.begin(), router_island_.end()));
  for (auto& r : routers_) r->set_flight_recorder(recorder);
  for (auto& ni : nis_) ni->set_flight_recorder(recorder);
}

void Network::step_island(int island, common::Picoseconds now) {
  tick_island(island);
  run_island_phases(island, now);
}

void Network::tick_island(int island) {
  Island& isl = islands_.at(static_cast<std::size_t>(island));
  ++island_cycles_[static_cast<std::size_t>(island)];
  if (!skip_idle_) return;
  // Admit tiles woken since the previous edge. Channels need no advancing:
  // they read this island's cycle count, and wake-on-push guarantees a
  // parked reader is awake again from the edge after any push — before its
  // item can be due, since every channel delays by at least one cycle.
  if (!isl.newly_awake.empty()) admit_woken(isl);
  isl.idle_steps_skipped +=
      static_cast<std::uint64_t>(isl.tiles.size() - isl.active.size());
}

int Network::workers_for(std::size_t awake, std::size_t previous) const {
  if (flight_recorder_ != nullptr || awake < 2) return 1;
  if (cfg_.tile_workers > 0) {
    return static_cast<int>(std::min(awake, static_cast<std::size_t>(cfg_.tile_workers)));
  }
  // Auto mode sizes the pass by the smaller of this pass and the previous
  // one: a one-cycle spike of idle tiles (every tile is awake on the first
  // cycle, then parks) is not worth starting — or creating — the pool.
  const std::size_t by_work = std::min(awake, previous) / kTilesPerWorker;
  if (by_work < 2) return 1;
  return static_cast<int>(std::min(by_work, static_cast<std::size_t>(hardware_workers())));
}

void Network::step_tile(NodeId tile, WakeSink* wakes, std::vector<PacketRecord>* delivered,
                        common::Picoseconds now, std::uint64_t cycle) {
  Router& r = *routers_[static_cast<std::size_t>(tile)];
  const std::vector<NodeId>& nis = tile_nis_[static_cast<std::size_t>(tile)];
  r.set_wake_sink(wakes);
  r.receive_phase();
  for (const NodeId nd : nis) {
    NetworkInterface& ni = *nis_[static_cast<std::size_t>(nd)];
    ni.set_delivered_sink(delivered);
    ni.receive_phase(now, cycle);
  }
  r.compute_phase();
  for (const NodeId nd : nis) nis_[static_cast<std::size_t>(nd)]->inject_phase();
}

void Network::run_island_phases(int island, common::Picoseconds now) {
  Island& isl = islands_.at(static_cast<std::size_t>(island));
  const std::uint64_t cycle = island_cycles_[static_cast<std::size_t>(island)];
  if (flight_recorder_) flight_recorder_->set_now(static_cast<std::uint64_t>(now));
  // Fault epochs are keyed to island 0's clock; fire them before the
  // phases of the cycle they are due.
  if (fault_pending_ && island == 0 && faults_->due(cycle)) apply_due_faults(cycle, now);
  // `active` is sorted ascending, so with skip-idle on the awake tiles are
  // stepped in exactly the order the full tile list would visit them.
  const std::vector<NodeId>& tiles = skip_idle_ ? isl.active : isl.tiles;
  const int workers = workers_for(tiles.size(), isl.last_pass_tiles);
  isl.last_pass_tiles = tiles.size();
  // Contiguous ranges in ascending tile order: worker w's delivered
  // records all precede worker w+1's, so concatenating the buffers in
  // worker order replays the serial delivery sequence.
  const std::size_t n = tiles.size();
  auto job = [&](int w) {
    const auto wi = static_cast<std::size_t>(w);
    WakeSink* wakes = skip_idle_ ? this : nullptr;
    std::vector<PacketRecord>* delivered = &delivered_;
    if (w != 0) {
      WorkerSinks& sinks = worker_sinks_[wi];
      sinks.wakes.tiles.clear();
      sinks.delivered.clear();
      if (skip_idle_) wakes = &sinks.wakes;
      delivered = &sinks.delivered;
    }
    const std::size_t end = n * (wi + 1) / static_cast<std::size_t>(workers);
    for (std::size_t i = n * wi / static_cast<std::size_t>(workers); i < end; ++i) {
      step_tile(tiles[i], wakes, delivered, now, cycle);
    }
  };
  if (workers == 1) {
    job(0);
  } else {
    if (!pool_) {
      pool_ = std::make_unique<WorkerPool>(cfg_.tile_workers > 0 ? cfg_.tile_workers
                                                                : hardware_workers());
      worker_sinks_.resize(static_cast<std::size_t>(pool_->size()));
    }
    pool_->run(workers, job);
    for (int w = 1; w < workers; ++w) {
      const WorkerSinks& sinks = worker_sinks_[static_cast<std::size_t>(w)];
      for (const NodeId t : sinks.wakes.tiles) wake(t);
      delivered_.insert(delivered_.end(), sinks.delivered.begin(), sinks.delivered.end());
    }
  }
  if (skip_idle_) park_quiescent(isl);
}

void Network::wake(NodeId tile) {
  auto& awake = node_awake_[static_cast<std::size_t>(tile)];
  if (awake) return;
  awake = 1;
  islands_[static_cast<std::size_t>(router_island_[static_cast<std::size_t>(tile)])]
      .newly_awake.push_back(tile);
}

void Network::admit_woken(Island& isl) {
  std::sort(isl.newly_awake.begin(), isl.newly_awake.end());
  const auto mid = static_cast<std::ptrdiff_t>(isl.active.size());
  isl.active.insert(isl.active.end(), isl.newly_awake.begin(), isl.newly_awake.end());
  std::inplace_merge(isl.active.begin(), isl.active.begin() + mid, isl.active.end());
  isl.newly_awake.clear();
}

void Network::park_quiescent(Island& isl) {
  std::size_t kept = 0;
  for (const NodeId id : isl.active) {
    if (tile_quiescent(id)) {
      node_awake_[static_cast<std::size_t>(id)] = 0;
    } else {
      isl.active[kept++] = id;
    }
  }
  isl.active.resize(kept);
}

bool Network::tile_quiescent(NodeId tile) const {
  const auto i = static_cast<std::size_t>(tile);
  if (routers_[i]->buffered_now() != 0) return false;
  for (const NodeId nd : tile_nis_[i]) {
    if (!nis_[static_cast<std::size_t>(nd)]->idle()) return false;
  }
  // Covers arriving flits, returning credits and the local inject/eject
  // loops. A router waiting only on downstream credits is parked safely:
  // the credit push at the downstream traversal wakes it (see traverse).
  for (const ChannelBase* ch : node_read_[i]) {
    if (ch->in_flight() != 0) return false;
  }
  return true;
}

int Network::island_active_nodes(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  return skip_idle_ ? static_cast<int>(isl.active.size())
                    : static_cast<int>(isl.tiles.size());
}

std::uint64_t Network::island_idle_steps_skipped(int island) const {
  return islands_.at(static_cast<std::size_t>(island)).idle_steps_skipped;
}

std::uint64_t Network::idle_steps_skipped() const {
  std::uint64_t n = 0;
  for (const Island& isl : islands_) n += isl.idle_steps_skipped;
  return n;
}

power::ActivityCounters Network::total_activity() const {
  power::ActivityCounters total;
  for (const auto& r : routers_) total += r->activity();
  for (const auto& ni : nis_) total += ni->activity();
  return total;
}

power::NetworkInventory Network::inventory() const {
  power::NetworkInventory inv;
  inv.num_routers = static_cast<int>(routers_.size());
  inv.num_links = topol_->num_directed_links();
  inv.num_local_links = 2 * topol_->num_nodes();
  return inv;
}

power::ActivityCounters Network::island_activity(int island) const {
  power::ActivityCounters total;
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  for (const NodeId id : isl.tiles) total += routers_[static_cast<std::size_t>(id)]->activity();
  for (const NodeId id : isl.members) total += nis_[static_cast<std::size_t>(id)]->activity();
  return total;
}

power::ActivityCounters Network::node_activity(NodeId node) const {
  const auto r = static_cast<std::size_t>(topol_->router_of(node));
  power::ActivityCounters total = routers_.at(r)->activity();
  total += nis_.at(static_cast<std::size_t>(node))->activity();
  return total;
}

power::TileInventory Network::node_inventory(NodeId node) const {
  power::TileInventory inv;
  inv.links_sourced = topol_->router_net_degree(topol_->router_of(node));
  inv.local_links = 2;
  return inv;
}

power::NetworkInventory Network::island_inventory(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  power::NetworkInventory inv;
  inv.num_routers = static_cast<int>(isl.tiles.size());
  inv.num_links = isl.links_sourced;
  inv.num_local_links = 2 * static_cast<int>(isl.members.size());
  return inv;
}

std::uint64_t Network::total_flits_generated() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_generated();
  return n;
}

std::uint64_t Network::total_flits_injected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_injected();
  return n;
}

std::uint64_t Network::total_flits_ejected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_ejected();
  return n;
}

std::uint64_t Network::total_packets_generated() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->packets_generated();
  return n;
}

std::uint64_t Network::total_packets_ejected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->packets_ejected();
  return n;
}

std::uint64_t Network::total_source_backlog_flits() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->source_backlog_flits();
  return n;
}

std::uint64_t Network::total_packets_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += r->dropped_packets();
  for (const auto& ni : nis_) n += ni->dropped_packets();
  return n;
}

std::uint64_t Network::total_flits_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += r->dropped_flits();
  for (const auto& ni : nis_) n += ni->dropped_flits();
  return n;
}

std::uint64_t Network::buffered_flits_now() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += static_cast<std::uint64_t>(r->buffered_now());
  return n;
}

std::uint64_t Network::buffer_capacity_flits() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += static_cast<std::uint64_t>(r->buffer_capacity());
  return n;
}

std::uint64_t Network::island_flits_generated(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->flits_generated();
  }
  return n;
}

std::uint64_t Network::island_flits_injected(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->flits_injected();
  }
  return n;
}

std::uint64_t Network::island_flits_ejected(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->flits_ejected();
  }
  return n;
}

std::uint64_t Network::island_source_backlog_flits(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->source_backlog_flits();
  }
  return n;
}

std::uint64_t Network::island_buffered_flits_now(int island) const {
  // Sampled every cycle by the occupancy window. Parked tiles buffer
  // nothing by definition, so with skip-idle on the activity list is the
  // exact support of this sum — O(awake) instead of O(tiles).
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  const std::vector<NodeId>& tiles = skip_idle_ ? isl.active : isl.tiles;
  std::uint64_t n = 0;
  for (const NodeId id : tiles) {
    n += static_cast<std::uint64_t>(routers_[static_cast<std::size_t>(id)]->buffered_now());
  }
  return n;
}

std::uint64_t Network::island_buffer_capacity_flits(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  std::uint64_t n = 0;
  for (const NodeId id : isl.tiles) {
    n += static_cast<std::uint64_t>(routers_[static_cast<std::size_t>(id)]->buffer_capacity());
  }
  return n;
}

std::uint64_t Network::flits_in_network() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += static_cast<std::uint64_t>(r->buffered_flits());
  for (const auto& ch : flit_channels_) n += ch.in_flight();
  for (const auto& ch : cdc_flit_channels_) n += ch.in_flight();
  return n;
}

void Network::set_stall_tracking(bool on) {
  for (auto& r : routers_) r->set_stall_tracking(on);
}

std::uint64_t Network::island_cdc_flit_occupancy(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  std::uint64_t n = 0;
  for (const FlitCdcFifo* ch : isl.cdc_flit_in) n += ch->in_flight();
  return n;
}

void Network::register_telemetry(obs::TelemetryRegistry& reg, bool full) const {
  using obs::MetricScope;
  const int nr = num_routers();
  const int nn = num_nodes();
  const int ni_count = num_islands();

  // Tile scope: the router-side story. The stall columns are all zero
  // unless stall tracking is on, but registering them unconditionally
  // keeps the timeline schema independent of the mode.
  reg.register_counter("flits_forwarded", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->activity().crossbar_traversals;
  });
  reg.register_counter("flits_dropped", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->dropped_flits();
  });
  reg.register_counter("stall_route", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().route;
  });
  reg.register_counter("stall_vc_alloc", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().vc_alloc;
  });
  reg.register_counter("stall_switch", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().sw;
  });
  reg.register_counter("stall_credit", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().credit;
  });
  reg.register_counter("stall_drop", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().drop;
  });
  reg.register_counter("busy_vc_cycles", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().busy_vc_cycles;
  });
  reg.register_gauge("buffer_occupancy", MetricScope::Tile, nr, [this](int r) {
    return static_cast<double>(routers_[static_cast<std::size_t>(r)]->buffered_now());
  });

  // Node scope: the NI-side story (distinct from tiles on concentrated
  // topologies).
  reg.register_counter("flits_generated", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_generated();
  });
  reg.register_counter("flits_injected", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_injected();
  });
  reg.register_counter("flits_ejected", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_ejected();
  });
  reg.register_counter("refused_packets", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->dropped_packets();
  });
  reg.register_counter("refused_flits", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->dropped_flits();
  });
  reg.register_gauge("source_backlog", MetricScope::Node, nn, [this](int n) {
    return static_cast<double>(nis_[static_cast<std::size_t>(n)]->source_backlog_flits());
  });
  reg.register_gauge("peak_source_backlog", MetricScope::Node, nn, [this](int n) {
    return static_cast<double>(nis_[static_cast<std::size_t>(n)]->peak_source_backlog_flits());
  });

  // Island scope: clock-domain-crossing pressure.
  reg.register_gauge("cdc_occupancy", MetricScope::Island, ni_count,
                     [this](int i) { return static_cast<double>(island_cdc_flit_occupancy(i)); });

  if (full && !net_links_.empty()) {
    const int nl = static_cast<int>(net_links_.size());
    reg.register_counter("link_flits", MetricScope::Link, nl, [this](int l) {
      const obs::LinkInfo& link = net_links_[static_cast<std::size_t>(l)];
      return routers_[static_cast<std::size_t>(link.src_router)]->port_flits_forwarded(
          link.src_port);
    });
    reg.register_gauge("link_backlog", MetricScope::Link, nl, [this](int l) {
      const obs::LinkInfo& link = net_links_[static_cast<std::size_t>(l)];
      return static_cast<double>(
          routers_[static_cast<std::size_t>(link.src_router)]->downstream_backlog(
              link.src_port));
    });
  }
}

}  // namespace nocdvfs::noc
