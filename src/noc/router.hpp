#pragma once

/// \file router.hpp
/// Input-queued virtual-channel router with the canonical 4-stage pipeline:
///
///   RC  — a head flit reaching the front of an Idle VC computes its output
///         port (and the VC-class mask VA may use) via the routing engine;
///   VA  — the VC requests an output VC (within its class mask) through a
///         separable input-first allocator; body flits inherit the grant;
///   SA  — per-cycle switch allocation: one flit per input port and per
///         output port, round-robin at both stages, credit-gated;
///   ST  — the granted flit crosses the switch onto the output link and a
///         credit returns upstream for the freed buffer slot.
///
/// Stage separation is enforced by executing SA→VA→RC in reverse order each
/// cycle, so a flit advances at most one control stage per cycle (head-flit
/// hop latency: 3 router cycles + link latency). The output VC is held from
/// VA grant until the tail flit traverses.
///
/// Credit-based flow control: each output VC mirrors the downstream buffer
/// as a credit counter, initialized to the buffer depth and replenished by
/// the reverse credit channel.
///
/// The radix is dynamic (up to kMaxPorts) so one implementation serves
/// mesh, torus, concentrated-mesh and dragonfly routers. Under an active
/// FaultModel a VC can enter the Drop state: its packet has no surviving
/// route, and the flits drain out of the buffer (one per port per cycle,
/// credits returned upstream) into the dropped-flit counters instead of
/// the crossbar.
///
/// Hot-path layout: all per-VC state lives in one slab per router, indexed
/// `p * num_vcs + v` — input-VC metadata, the flit rings (`vc_buffer_depth`
/// 16-byte flits per VC) and the output-VC credit/owner records — and every
/// pipeline stage walks per-input-port VC bitmasks that are updated at each
/// state transition instead of scanning VC states. `check_invariants()`
/// recomputes every mask and counter from the slab.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/allocator.hpp"
#include "noc/channel.hpp"
#include "noc/packet_table.hpp"
#include "noc/types.hpp"
#include "power/activity.hpp"
#include "topo/routing_engine.hpp"

namespace nocdvfs::obs {
class FlightRecorder;
}

namespace nocdvfs::noc {

struct RouterConfig {
  int num_vcs = 8;
  int vc_buffer_depth = 4;  ///< flits per VC FIFO
};

enum class VcStateKind : std::uint8_t {
  Idle,     ///< no packet; head at front (if any) awaits RC
  Waiting,  ///< routed; awaiting an output VC (VA)
  Active,   ///< output VC held; flits compete for the switch (SA)
  Drop,     ///< unroutable under faults; buffer drains to the drop counters
};

/// Why a buffered flit did *not* advance, attributed per VC-cycle. Every
/// cycle, every VC holding at least one flit contributes exactly one count:
/// either it forwarded a flit (`forwarded`) or it stalled for exactly one
/// of the taxonomy reasons — so the exact conservation law
///
///     busy_vc_cycles == forwarded + route + vc_alloc + credit + sw + drop
///
/// holds at all times, and `forwarded` equals crossbar traversals plus
/// drop-drained flits (asserted in test_obs). Maintained only under
/// `set_stall_tracking(true)`; the classification happens before the
/// pipeline stages run, so the attribution reflects what the VC could have
/// done this cycle, not what later stages changed.
struct RouterStallCounters {
  std::uint64_t route = 0;     ///< Idle with a buffered head: awaiting RC
  std::uint64_t vc_alloc = 0;  ///< Waiting: routed, no output VC granted yet
  std::uint64_t credit = 0;    ///< Active but the held output VC has no credits
  std::uint64_t sw = 0;        ///< switch-eligible, lost switch allocation
  std::uint64_t drop = 0;      ///< Drop VC whose flits were not drained this cycle
  std::uint64_t busy_vc_cycles = 0;  ///< VC-cycles with >= 1 buffered flit
  std::uint64_t forwarded = 0;       ///< SA grants + drop drains

  std::uint64_t stall_sum() const noexcept { return route + vc_alloc + credit + sw + drop; }
};

class Router : public topo::RouterView {
 public:
  /// `radix` ports, initially all self-peered. Flits refer to `packets` for
  /// their packet-invariant fields; a routing engine is required
  /// (set_routing_engine before the first cycle).
  Router(NodeId id, int radix, const RouterConfig& cfg, PacketTable& packets);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) = delete;
  Router& operator=(Router&&) = delete;

  /// Wire one input port: incoming flits and the reverse credit channel.
  void connect_input(int port, FlitPort* flit_in, CreditPort* credit_out);
  void connect_input(PortDir port, FlitPort* flit_in, CreditPort* credit_out) {
    connect_input(port_index(port), flit_in, credit_out);
  }
  /// Wire one output port: outgoing flits and the incoming credit channel.
  void connect_output(int port, FlitPort* flit_out, CreditPort* credit_in);
  void connect_output(PortDir port, FlitPort* flit_out, CreditPort* credit_in) {
    connect_output(port_index(port), flit_out, credit_in);
  }

  /// Install the skip-idle wake receiver (nullptr = no notifications).
  /// Each flit/credit push in `traverse` then wakes the tile that reads
  /// the far end of that channel — the neighbour behind the port, or this
  /// tile itself for local ports.
  void set_wake_sink(WakeSink* sink) noexcept { wake_ = sink; }
  /// Tile whose clock reads the channels behind `port` (wake target).
  void set_port_peer(int port, NodeId tile) {
    port_peer_[static_cast<std::size_t>(port)] = tile;
  }
  /// First NI-local port index (ports below it are network links); splits
  /// the local/link hop activity counters.
  void set_first_local_port(int port) noexcept { first_local_port_ = port; }
  /// The route computation every head flit goes through.
  void set_routing_engine(const topo::RoutingEngine* engine);
  /// Fault mode: every traversed flit is reported to the engine (up*/down*
  /// phase tracking). Toggled by Network on fault epochs.
  void set_traverse_hook(bool active) noexcept { traverse_hook_ = active; }
  /// Enable the per-cycle stall-cause taxonomy (telemetry). Off by default:
  /// the hot path then pays a single predictable branch per compute_phase.
  /// Enable before the first cycle for the `forwarded == traversals +
  /// drops` identity to hold from counter zero.
  void set_stall_tracking(bool on) noexcept { stall_tracking_ = on; }
  bool stall_tracking() const noexcept { return stall_tracking_; }
  /// Non-owning; nullptr (the default) records nothing. The recorder is
  /// told about head-flit pipeline milestones (arrival, RC, VA, ST) and
  /// filters to its sampled packet set — one branch per milestone when off,
  /// the set_traverse_hook pattern.
  void set_flight_recorder(obs::FlightRecorder* recorder) noexcept {
    flight_recorder_ = recorder;
  }

  /// Phase 1 of a network cycle: latch arriving credits and flits.
  void receive_phase();
  /// Phase 2: SA+ST, drop drain, then VA, then RC (reverse pipeline order).
  void compute_phase();

  NodeId id() const noexcept { return id_; }
  int radix() const noexcept { return radix_; }
  const RouterConfig& config() const noexcept { return cfg_; }
  const power::ActivityCounters& activity() const noexcept { return activity_; }

  /// topo::RouterView — occupied downstream slots behind an output port
  /// (buffer capacity minus credits), the congestion signal adaptive and
  /// UGAL route selection reads.
  int downstream_backlog(int port) const override;

  // --- introspection for tests and invariant checks ---
  int buffered_flits() const noexcept;
  /// O(1) occupancy snapshot (the maintained counter behind the stage
  /// early-outs); sampled every cycle by the occupancy-based controller.
  int buffered_now() const noexcept { return buffered_total_; }
  /// Flit slots across the wired input ports (occupancy denominator).
  int buffer_capacity() const noexcept {
    return static_cast<int>(wired_in_.size()) * cfg_.num_vcs * cfg_.vc_buffer_depth;
  }
  /// Heap bytes of this router's slab (VC metadata, flit rings, output-VC
  /// records) — all of its per-VC storage, allocated once at construction.
  std::size_t slab_bytes() const noexcept { return slab_bytes_; }
  int output_credits(PortDir port, int vc) const;
  bool output_vc_allocated(PortDir port, int vc) const;
  VcStateKind input_vc_state(PortDir port, int vc) const;
  int input_vc_occupancy(PortDir port, int vc) const;
  /// Flits/packets drained into the void because no route survived the
  /// active fault set (counted when the flit leaves the buffer).
  std::uint64_t dropped_flits() const noexcept { return dropped_flits_; }
  std::uint64_t dropped_packets() const noexcept { return dropped_packets_; }
  /// Stall-cause taxonomy (all zero unless stall tracking is enabled).
  const RouterStallCounters& stalls() const noexcept { return stalls_; }
  /// Flits that left through output port `port` (crossbar traversals only,
  /// not drop drains) — the per-directed-link heatmap source. Always
  /// maintained: one array increment inside the traversal bookkeeping.
  std::uint64_t port_flits_forwarded(int port) const {
    return port_flits_tx_[static_cast<std::size_t>(port)];
  }

  /// Recompute every incrementally maintained mask and counter by a full
  /// scan of the VC slab and throw common::InvariantViolation on the first
  /// mismatch (independent of NOCDVFS_ENABLE_ASSERTS). Also checks VC
  /// ownership symmetry and credit bounds. For tests; O(ports · VCs).
  void check_invariants() const;

 private:
  /// Input-VC metadata (slab region 1).
  struct InputVc {
    std::uint64_t vc_mask = ~std::uint64_t{0};  ///< VCs VA may claim (RC decision)
    std::int32_t wait_cycles = 0;  ///< VA starvation counter (adaptive escape re-route)
    std::uint16_t head = 0;        ///< ring index of the front flit
    std::uint16_t size = 0;        ///< buffered flits
    VcStateKind state = VcStateKind::Idle;
    std::int8_t out_port = -1;
    std::int8_t out_vc = -1;
  };
  /// Output-VC record (slab region 3): credits mirror the downstream
  /// buffer; the owner is the input VC holding it from VA grant to tail.
  struct OutputVc {
    std::int16_t credits = 0;
    std::int8_t owner_port = -1;  ///< -1: free
    std::int8_t owner_vc = -1;
  };
  struct Port {
    FlitPort* flit_in = nullptr;
    CreditPort* credit_out = nullptr;
    FlitPort* flit_out = nullptr;
    CreditPort* credit_in = nullptr;
  };

  static constexpr std::uint64_t bit(int v) noexcept { return std::uint64_t{1} << v; }
  int slot_of(int port, int vc) const noexcept { return port * cfg_.num_vcs + vc; }
  /// Ring slot `i` (0 <= i < depth) of input VC `idx`.
  Flit& ring(int idx, int i) noexcept {
    return flits_[static_cast<std::size_t>(idx) * static_cast<std::size_t>(cfg_.vc_buffer_depth) +
                  static_cast<std::size_t>(i)];
  }
  Flit& front(int idx) noexcept { return ring(idx, ivc_[idx].head); }
  Flit pop_front(int idx) noexcept;

  void switch_allocation_and_traversal();
  void drain_drops();
  void vc_allocation();
  void route_computation();
  void traverse(int in_port, int in_vc);
  /// compute_phase with the stall pre-classification wrapped around the
  /// same stage sequence (only entered when tracking is on and there is
  /// buffered or droppable work).
  void compute_phase_tracked();
  const InputVc& input_vc_at(PortDir port, int vc) const;
  const OutputVc& output_vc_at(PortDir port, int vc) const;

  NodeId id_;
  PacketTable* packets_;
  const topo::RoutingEngine* engine_ = nullptr;
  RouterConfig cfg_;
  int radix_;

  // The slab: one allocation holding ivc_[R·V], flits_[R·V·depth] and
  // ovc_[R·V] back to back.
  std::unique_ptr<std::byte[]> slab_;
  std::size_t slab_bytes_ = 0;
  InputVc* ivc_ = nullptr;
  Flit* flits_ = nullptr;
  OutputVc* ovc_ = nullptr;

  std::array<Port, kMaxPorts> ports_{};
  SeparableAllocator va_alloc_;
  std::array<int, kMaxPorts> sa_input_ptr_{};   ///< per input port: round-robin over VCs
  std::array<int, kMaxPorts> sa_output_ptr_{};  ///< per output port: round-robin over inputs
  power::ActivityCounters activity_;

  // Stage early-outs: a stage with no work is skipped entirely.
  int buffered_total_ = 0;  ///< flits in all input FIFOs (gates SA)
  int waiting_count_ = 0;   ///< VCs in Waiting state (gates VA)
  int rc_pending_ = 0;      ///< Idle VCs with a buffered head (gates RC)
  int drop_pending_ = 0;    ///< VCs in Drop state (gates the drain stage)

  // Per input port VC bitmasks (num_vcs <= 64 is enforced at
  // construction); each stage iterates the set bits in ascending VC order.
  std::array<std::uint64_t, kMaxPorts> rc_mask_{};    ///< Idle with a buffered head
  std::array<std::uint64_t, kMaxPorts> wait_mask_{};  ///< Waiting
  std::array<std::uint64_t, kMaxPorts> drop_mask_{};  ///< Drop
  /// Active with a buffered flit — SA candidates.
  std::array<std::uint64_t, kMaxPorts> sa_candidates_{};
  /// Active and the held output VC has credit. SA stage 1 picks from
  /// `sa_candidates_ & credit_ok_`. Kept through the output VC's owner: set
  /// at the VA grant (if credited) and when a credit reaches an owned
  /// output VC, cleared when a traversal takes the last credit and at the
  /// tail.
  std::array<std::uint64_t, kMaxPorts> credit_ok_{};
  /// Per output port: bit u set iff output VC u is unowned (VA requests
  /// AND it with the route's class mask).
  std::array<std::uint64_t, kMaxPorts> ovc_free_{};
  /// Per input port: a credit was pushed upstream this cycle (SA traversal
  /// or drop drain) — the drain stage respects the 1-credit/cycle channel
  /// budget. Only maintained while drop_pending_ > 0.
  std::array<std::uint8_t, kMaxPorts> credit_pushed_{};

  std::vector<int> wired_in_;   ///< indices of connected input ports
  std::vector<int> wired_out_;  ///< indices of connected output ports

  bool adaptive_escape_ = false;  ///< engine wants VA-starvation re-routes
  bool traverse_hook_ = false;    ///< report traversals to the engine
  bool stall_tracking_ = false;   ///< telemetry wants the stall taxonomy
  obs::FlightRecorder* flight_recorder_ = nullptr;  ///< sampled packet journeys
  int first_local_port_ = 0;      ///< ports >= this are NI-local
  std::uint64_t dropped_flits_ = 0;
  std::uint64_t dropped_packets_ = 0;
  RouterStallCounters stalls_;
  /// Flits forwarded per output port (always-on; feeds link heatmaps).
  std::array<std::uint64_t, kMaxPorts> port_flits_tx_{};

  WakeSink* wake_ = nullptr;
  /// Per port: the tile whose clock reads channels behind it (the
  /// neighbour, or this tile for locals) — precomputed so wake-on-push is
  /// a table lookup, not a topology query.
  std::array<NodeId, kMaxPorts> port_peer_{};
};

}  // namespace nocdvfs::noc
