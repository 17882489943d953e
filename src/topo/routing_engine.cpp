#include "topo/routing_engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "topo/fault_model.hpp"

namespace nocdvfs::topo {

using noc::kMaxPorts;
using noc::NodeId;
using noc::RoutingAlgo;

RoutingEngine::RoutingEngine(const Topology& topo, RoutingAlgo algo, int num_vcs)
    : topo_(&topo),
      algo_(algo),
      det_algo_(algo == RoutingAlgo::YX ? RoutingAlgo::YX : RoutingAlgo::XY),
      num_vcs_(num_vcs),
      total_classes_(required_vcs(topo, algo)),
      all_mask_(num_vcs >= 64 ? ~0ull : ((1ull << num_vcs) - 1)),
      dragonfly_minimal_(algo == RoutingAlgo::Adaptive &&
                         topo.kind() == TopologyKind::Dragonfly),
      down_ports_(static_cast<size_t>(topo.num_routers()), 0) {
  if (num_vcs_ < total_classes_) {
    std::ostringstream msg;
    msg << "routing=" << noc::to_string(algo) << " on topology=" << to_string(topo.kind())
        << " needs at least " << total_classes_ << " virtual channels for its VC-class"
        << " discipline; got vcs=" << num_vcs_;
    throw std::invalid_argument(msg.str());
  }
}

int RoutingEngine::required_vcs(const Topology& topo, RoutingAlgo algo) {
  const int classes = topo.num_dor_classes();
  switch (algo) {
    case RoutingAlgo::XY:
    case RoutingAlgo::YX: return classes;
    case RoutingAlgo::Adaptive:
      // Dragonfly has a single canonical minimal path: adaptive degrades to
      // deterministic and needs no extra adaptive class.
      return topo.kind() == TopologyKind::Dragonfly ? classes : 1 + classes;
    case RoutingAlgo::Ugal: return 2 * classes;
  }
  return classes;
}

bool RoutingEngine::adaptive_escape() const noexcept {
  return algo_ == RoutingAlgo::Adaptive && !dragonfly_minimal_ && !table_mode_;
}

std::uint64_t RoutingEngine::class_mask(int cls, int total) const {
  const int lo = cls * num_vcs_ / total;
  const int hi = (cls + 1) * num_vcs_ / total;
  const std::uint64_t upper = hi >= 64 ? ~0ull : ((1ull << hi) - 1);
  const std::uint64_t lower = lo >= 64 ? ~0ull : ((1ull << lo) - 1);
  return upper & ~lower;
}

RouteDecision RoutingEngine::route(int router, noc::Flit& head, const noc::PacketInfo& pkt,
                                   const RouterView& view, bool force_escape) const {
  const int dst_router = topo_->router_of(pkt.dst);
  if (table_mode_) return route_table(router, head, pkt.dst, dst_router);
  switch (algo_) {
    case RoutingAlgo::XY:
    case RoutingAlgo::YX: return route_deterministic(router, pkt.dst, dst_router);
    case RoutingAlgo::Adaptive:
      if (dragonfly_minimal_) return route_deterministic(router, pkt.dst, dst_router);
      return route_adaptive(router, pkt.dst, dst_router, view, force_escape);
    case RoutingAlgo::Ugal: return route_ugal(router, head, pkt, dst_router, view);
  }
  return route_deterministic(router, pkt.dst, dst_router);
}

RouteDecision RoutingEngine::route_deterministic(int router, noc::NodeId dst,
                                                 int dst_router) const {
  if (router == dst_router) return {topo_->local_port(dst), all_mask_};
  const int port = topo_->dor_port(det_algo_, router, dst_router);
  if (total_classes_ == 1) return {port, all_mask_};  // mesh/cmesh fast path
  return {port,
          class_mask(topo_->dor_vc_class(det_algo_, router, dst_router), total_classes_)};
}

RouteDecision RoutingEngine::route_adaptive(int router, noc::NodeId dst, int dst_router,
                                            const RouterView& view, bool force_escape) const {
  if (router == dst_router) return {topo_->local_port(dst), all_mask_};
  const int dor = topo_->dor_port(det_algo_, router, dst_router);
  // Classes: 0 = adaptive, 1.. = the deterministic escape classes.
  const int esc = 1 + topo_->dor_vc_class(det_algo_, router, dst_router);
  if (force_escape) return {dor, class_mask(esc, total_classes_)};
  std::array<int, kMaxPorts> cands{};
  const int n = topo_->minimal_ports(router, dst_router, cands);
  int best = cands[0];
  int best_q = view.downstream_backlog(best);
  for (int i = 1; i < n; ++i) {
    const int q = view.downstream_backlog(cands[i]);
    // Least backlog; ties prefer the escape (DOR) port, then lowest index.
    if (q < best_q || (q == best_q && cands[i] == dor && best != dor)) {
      best = cands[i];
      best_q = q;
    }
  }
  std::uint64_t mask = class_mask(0, total_classes_);
  if (best == dor) mask |= class_mask(esc, total_classes_);
  return {best, mask};
}

void RoutingEngine::ugal_decide(int router, noc::Flit& head, const noc::PacketInfo& pkt,
                                int dst_router, const RouterView& view) const {
  head.route_flags |= noc::kRouteFlagUgalDecided;
  const int num_routers = topo_->num_routers();
  if (router == dst_router || num_routers < 3) return;
  // Deterministic Valiant intermediate: hash of (packet, src, dst) so the
  // same seed always probes the same candidate, independent of timing.
  common::SplitMix64 mix(pkt.id * 0x9E3779B97F4A7C15ULL ^
                         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pkt.src))
                          << 32) ^
                         static_cast<std::uint32_t>(pkt.dst));
  int intm = static_cast<int>(mix.next() % static_cast<std::uint64_t>(num_routers));
  while (intm == router || intm == dst_router) intm = (intm + 1) % num_routers;
  const long long d_min = topo_->hop_distance(router, dst_router);
  const long long d_val =
      topo_->hop_distance(router, intm) + topo_->hop_distance(intm, dst_router);
  const long long q_min =
      view.downstream_backlog(topo_->dor_port(det_algo_, router, dst_router));
  const long long q_val = view.downstream_backlog(topo_->dor_port(det_algo_, router, intm));
  // UGAL-L: route minimally unless the minimal queue's cost (backlog ×
  // distance) exceeds the Valiant path's.
  if (q_min * d_min <= q_val * d_val) return;
  head.intm = intm;
}

RouteDecision RoutingEngine::route_ugal(int router, noc::Flit& head, const noc::PacketInfo& pkt,
                                        int dst_router, const RouterView& view) const {
  const int phase_classes = total_classes_ / 2;
  if (head.hops == 0 && !(head.route_flags & noc::kRouteFlagUgalDecided)) {
    ugal_decide(router, head, pkt, dst_router, view);
  }
  if (head.intm >= 0 && !(head.route_flags & noc::kRouteFlagPhase1) &&
      router == head.intm) {
    head.route_flags |= noc::kRouteFlagPhase1;
  }
  const bool phase1 =
      head.intm < 0 || (head.route_flags & noc::kRouteFlagPhase1) != 0;
  const int target = phase1 ? dst_router : static_cast<int>(head.intm);
  if (router == target) return {topo_->local_port(pkt.dst), all_mask_};
  const int port = topo_->dor_port(det_algo_, router, target);
  // Valiant leg 1 rides classes [0, K), leg 2 (and minimal packets) classes
  // [K, 2K): classes only ever increase along a path, so each leg's DOR
  // acyclicity makes the whole scheme deadlock-free.
  const int cls = (phase1 ? phase_classes : 0) +
                  topo_->dor_vc_class(det_algo_, router, target);
  return {port, class_mask(cls, total_classes_)};
}

RouteDecision RoutingEngine::route_table(int router, noc::Flit& head, noc::NodeId dst,
                                         int dst_router) const {
  if (faults_->router_failed(router) || faults_->router_failed(dst_router)) {
    return {-1, 0};
  }
  if (router == dst_router) return {topo_->local_port(dst), all_mask_};
  const int num_routers = topo_->num_routers();
  const std::size_t idx =
      static_cast<std::size_t>(router) * static_cast<std::size_t>(num_routers) +
      static_cast<std::size_t>(dst_router);
  int port;
  if (head.route_flags & noc::kRouteFlagWentDown) {
    port = next_port_[1][idx];
    if (port < 0) {
      // A mid-run epoch invalidated this packet's pure-down position:
      // restart it in the up phase of the new tables.
      head.route_flags &= static_cast<std::uint8_t>(~noc::kRouteFlagWentDown);
      port = next_port_[0][idx];
    }
  } else {
    port = next_port_[0][idx];
  }
  if (port < 0) return {-1, 0};
  return {port, all_mask_};
}

bool RoutingEngine::reachable(NodeId src, NodeId dst) const {
  if (!table_mode_) return true;
  const int s = topo_->router_of(src);
  const int d = topo_->router_of(dst);
  if (faults_ != nullptr && (faults_->router_failed(s) || faults_->router_failed(d))) {
    return false;
  }
  if (s == d) return true;
  return next_port_[0][static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(topo_->num_routers()) +
                       static_cast<std::size_t>(d)] >= 0;
}

void RoutingEngine::build_updown(const FaultModel* faults,
                                 std::vector<std::int16_t>& next_up,
                                 std::vector<std::int16_t>& next_down,
                                 std::vector<std::uint32_t>& down_ports) const {
  const int num_routers = topo_->num_routers();
  const auto dead = [&](int r) { return faults != nullptr && faults->router_failed(r); };
  const auto edge_ok = [&](int r, int p, const PortPeer& far) {
    return far.valid() && !dead(far.router) &&
           !(faults != nullptr && faults->link_failed(r, p));
  };

  // BFS levels per connected component, each rooted at its lowest live id.
  constexpr int kInf = 1 << 29;
  std::vector<int> level(static_cast<size_t>(num_routers), -1);
  std::vector<int> queue;
  queue.reserve(static_cast<size_t>(num_routers));
  for (int root = 0; root < num_routers; ++root) {
    if (dead(root) || level[static_cast<size_t>(root)] >= 0) continue;
    level[static_cast<size_t>(root)] = 0;
    queue.clear();
    queue.push_back(root);
    for (std::size_t at = 0; at < queue.size(); ++at) {
      const int r = queue[at];
      const int net = topo_->num_net_ports(r);
      for (int p = 0; p < net; ++p) {
        const PortPeer far = topo_->peer(r, p);
        if (!edge_ok(r, p, far) || level[static_cast<size_t>(far.router)] >= 0) continue;
        level[static_cast<size_t>(far.router)] = level[static_cast<size_t>(r)] + 1;
        queue.push_back(far.router);
      }
    }
  }

  // A directed edge r→y is "up" when y is closer to the root (lower level,
  // ties to the lower id); everything else is "down".
  const auto is_up = [&](int r, int y) {
    return level[static_cast<size_t>(y)] < level[static_cast<size_t>(r)] ||
           (level[static_cast<size_t>(y)] == level[static_cast<size_t>(r)] && y < r);
  };
  down_ports.assign(static_cast<size_t>(num_routers), 0);
  for (int r = 0; r < num_routers; ++r) {
    if (dead(r)) continue;
    const int net = topo_->num_net_ports(r);
    for (int p = 0; p < net; ++p) {
      const PortPeer far = topo_->peer(r, p);
      if (edge_ok(r, p, far) && !is_up(r, far.router)) {
        down_ports[static_cast<size_t>(r)] |= 1u << p;
      }
    }
  }

  // Live routers in ascending (level, id): up edges point strictly earlier
  // in this order, down edges strictly later — both DP sweeps below are
  // single-pass.
  std::vector<int> order;
  order.reserve(static_cast<size_t>(num_routers));
  for (int r = 0; r < num_routers; ++r) {
    if (!dead(r)) order.push_back(r);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return level[static_cast<size_t>(a)] < level[static_cast<size_t>(b)] ||
           (level[static_cast<size_t>(a)] == level[static_cast<size_t>(b)] && a < b);
  });

  const std::size_t table = static_cast<std::size_t>(num_routers) *
                            static_cast<std::size_t>(num_routers);
  next_up.assign(table, -1);
  next_down.assign(table, -1);
  std::vector<int> dist_up(static_cast<size_t>(num_routers));
  std::vector<int> dist_down(static_cast<size_t>(num_routers));
  for (int d = 0; d < num_routers; ++d) {
    if (dead(d)) continue;
    std::fill(dist_up.begin(), dist_up.end(), kInf);
    std::fill(dist_down.begin(), dist_down.end(), kInf);
    dist_down[static_cast<size_t>(d)] = 0;
    dist_up[static_cast<size_t>(d)] = 0;
    // Pure-down distances, farthest-from-root first.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int r = *it;
      if (r == d) continue;
      const int net = topo_->num_net_ports(r);
      for (int p = 0; p < net; ++p) {
        if (!((down_ports[static_cast<size_t>(r)] >> p) & 1u)) continue;
        const PortPeer far = topo_->peer(r, p);
        const int cand = dist_down[static_cast<size_t>(far.router)];
        if (cand != kInf && cand + 1 < dist_down[static_cast<size_t>(r)]) {
          dist_down[static_cast<size_t>(r)] = cand + 1;
          next_down[static_cast<size_t>(r) * static_cast<size_t>(num_routers) +
                    static_cast<size_t>(d)] = static_cast<std::int16_t>(p);
        }
      }
    }
    // Up-phase distances (may turn down at any point), closest-first.
    for (const int r : order) {
      if (r == d) continue;
      const int net = topo_->num_net_ports(r);
      for (int p = 0; p < net; ++p) {
        const PortPeer far = topo_->peer(r, p);
        if (!edge_ok(r, p, far)) continue;
        const bool down = (down_ports[static_cast<size_t>(r)] >> p) & 1u;
        const int cand = down ? dist_down[static_cast<size_t>(far.router)]
                              : dist_up[static_cast<size_t>(far.router)];
        if (cand != kInf && cand + 1 < dist_up[static_cast<size_t>(r)]) {
          dist_up[static_cast<size_t>(r)] = cand + 1;
          next_up[static_cast<size_t>(r) * static_cast<size_t>(num_routers) +
                  static_cast<size_t>(d)] = static_cast<std::int16_t>(p);
        }
      }
    }
  }
}

void RoutingEngine::rebuild_tables() {
  if (baseline_next_.empty()) {
    std::vector<std::int16_t> base_down;
    std::vector<std::uint32_t> base_ports;
    build_updown(nullptr, baseline_next_, base_down, base_ports);
  }
  build_updown(faults_, next_port_[0], next_port_[1], down_ports_);
  table_mode_ = true;

  const int num_routers = topo_->num_routers();
  const int conc = topo_->concentration();
  rerouted_pairs_ = 0;
  unreachable_pairs_ = 0;
  for (int s = 0; s < num_routers; ++s) {
    const bool s_dead = faults_ != nullptr && faults_->router_failed(s);
    for (int d = 0; d < num_routers; ++d) {
      const bool d_dead = faults_ != nullptr && faults_->router_failed(d);
      const std::size_t idx = static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_routers) +
                              static_cast<std::size_t>(d);
      if (s != d && !s_dead && !d_dead && next_port_[0][idx] >= 0 &&
          next_port_[0][idx] != baseline_next_[idx]) {
        ++rerouted_pairs_;
      }
      const long long ni_pairs = s == d ? static_cast<long long>(conc) * (conc - 1)
                                        : static_cast<long long>(conc) * conc;
      if (s_dead || d_dead || (s != d && next_port_[0][idx] < 0)) {
        unreachable_pairs_ += ni_pairs;
      }
    }
  }
}

}  // namespace nocdvfs::topo
