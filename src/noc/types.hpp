#pragma once

/// \file types.hpp
/// Core vocabulary of the NoC substrate: node/packet identifiers, mesh
/// coordinates, ports, flits and credits.

#include <cstdint>

#include "common/units.hpp"

namespace nocdvfs::noc {

using NodeId = std::int32_t;      ///< 0 .. N-1, row-major over the mesh
using PacketId = std::uint64_t;

struct Coord {
  int x = 0;  ///< increases eastwards
  int y = 0;  ///< increases northwards
  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Router ports of a 2-D mesh. The numeric values index port arrays.
enum class PortDir : std::uint8_t { North = 0, East = 1, South = 2, West = 3, Local = 4 };

inline constexpr int kMeshPorts = 5;

/// Compile-time ceiling on router radix across all topologies (dragonfly
/// locals + globals + concentration). Router port arrays are sized to this
/// so generalizing the radix costs the mesh hot path nothing.
inline constexpr int kMaxPorts = 16;

/// Bits of Flit::route_flags — per-packet routing state carried in the
/// head flit and interpreted by topo::RoutingEngine.
inline constexpr std::uint8_t kRouteFlagPhase1 = 1;       ///< Valiant leg 2 (toward dst)
inline constexpr std::uint8_t kRouteFlagUgalDecided = 2;  ///< UGAL source choice made
inline constexpr std::uint8_t kRouteFlagWentDown = 4;     ///< took a down edge (up*/down*)

constexpr int port_index(PortDir d) noexcept { return static_cast<int>(d); }

constexpr PortDir port_dir(int index) noexcept { return static_cast<PortDir>(index); }

constexpr PortDir opposite(PortDir d) noexcept {
  switch (d) {
    case PortDir::North: return PortDir::South;
    case PortDir::South: return PortDir::North;
    case PortDir::East: return PortDir::West;
    case PortDir::West: return PortDir::East;
    case PortDir::Local: return PortDir::Local;
  }
  return PortDir::Local;
}

constexpr const char* port_name(PortDir d) noexcept {
  switch (d) {
    case PortDir::North: return "N";
    case PortDir::East: return "E";
    case PortDir::South: return "S";
    case PortDir::West: return "W";
    case PortDir::Local: return "L";
  }
  return "?";
}

/// Receiver of node wake-up notifications — implemented by the Network's
/// skip-idle stepping. Routers and NIs call `wake(target)` whenever they
/// push an item towards `target`'s clock-domain inputs (a flit downstream,
/// a credit upstream, a packet into a source queue), so a quiescent node
/// rejoins the activity list at its very next clock edge. Wiring is
/// optional: an unwired component (unit tests, skip_idle=false) pays one
/// null-pointer branch per push.
class WakeSink {
 public:
  virtual void wake(NodeId node) = 0;

 protected:
  ~WakeSink() = default;
};

/// Packet-invariant fields, written once when the NI starts injecting the
/// packet and read at every router (routing, flight recorder) and at the
/// ejecting NI. Stored once per packet in a PacketTable; flits refer to it
/// by slot.
struct PacketInfo {
  PacketId id = 0;
  common::Picoseconds create_time_ps = 0;  ///< generation instant (node domain)
  std::uint64_t create_noc_cycle = 0;      ///< NoC cycle count at generation
  NodeId src = -1;
  NodeId dst = -1;
  std::uint16_t size = 0;  ///< total flits in the packet
  /// Workload-defined label carried end to end (e.g. 0 = request, 1 =
  /// reply); the metrics layer splits delay statistics per class.
  std::uint8_t traffic_class = 0;
};

/// One flow-control unit: 16 bytes, so a 4-deep VC ring is one cache line.
/// Everything that is the same for all flits of a packet lives in the
/// network's PacketTable under `slot`; the flit keeps only per-flit state
/// and the routing state routers mutate in flight. `route_flags` must stay
/// per flit because up*/down* routing sets `WentDown` on *every* traversed
/// flit (RoutingEngine::on_traverse) and reads it at the head; `intm` is
/// written only through head flits (UGAL source decision) but rides along
/// in otherwise-padding bytes.
struct Flit {
  std::uint32_t slot = 0;           ///< PacketTable slot of the packet
  /// Valiant intermediate *router* for UGAL non-minimal routing; -1 when
  /// the packet routes minimally. Set once at the source router.
  NodeId intm = -1;
  std::uint16_t flit_index = 0;  ///< position within the packet
  std::uint16_t hops = 0;        ///< routers traversed so far
  std::uint8_t vc = 0;           ///< VC on the link being traversed
  std::uint8_t route_flags = 0;  ///< kRouteFlag* bits (routing-engine state)
  bool head = false;
  bool tail = false;
};
static_assert(sizeof(Flit) == 16, "Flit must stay 16 bytes (router ring density)");

/// Credit returned upstream when a buffer slot frees.
struct Credit {
  std::uint8_t vc = 0;
};

/// Completed-packet record produced at the ejection side; the raw material
/// for both the metrics layer and the DMSD delay measurement.
struct PacketRecord {
  PacketId packet_id = 0;
  NodeId src = -1;
  NodeId dst = -1;
  std::uint16_t size = 0;
  std::uint16_t hops = 0;
  std::uint8_t traffic_class = 0;
  common::Picoseconds create_time_ps = 0;
  common::Picoseconds eject_time_ps = 0;
  std::uint64_t create_noc_cycle = 0;
  std::uint64_t eject_noc_cycle = 0;

  double delay_ns() const noexcept {
    return common::ns_from_ps(eject_time_ps - create_time_ps);
  }
  /// Latency in NoC cycles. With voltage–frequency islands the creation
  /// stamp counts the reference domain while ejection counts the
  /// destination island's (possibly slower) clock, so the difference is
  /// clamped at zero; `delay_ns` is the exact cross-domain measure.
  std::uint64_t latency_cycles() const noexcept {
    return eject_noc_cycle >= create_noc_cycle ? eject_noc_cycle - create_noc_cycle : 0;
  }
};

}  // namespace nocdvfs::noc
