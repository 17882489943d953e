#include "noc/router.hpp"

#include <array>
#include <bit>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"

namespace nocdvfs::noc {

namespace {
/// VA starvation bound: a Waiting VC that fails to win an output VC for
/// this many consecutive cycles is re-routed onto its deterministic escape
/// path (minimal-adaptive routing only).
constexpr int kEscapeWaitCycles = 64;

/// Credits and ring indices are 16-bit in the slab records.
constexpr int kMaxBufferDepth = 0x7fff;

// SA keeps per-output masks of requesting input ports in 32 bits, and the
// slab records hold port numbers in 8 bits.
static_assert(kMaxPorts <= 32, "SA port masks are 32-bit");

constexpr std::size_t align_up(std::size_t n, std::size_t a) noexcept {
  return (n + a - 1) / a * a;
}
}  // namespace

Router::Router(NodeId id, int radix, const RouterConfig& cfg, PacketTable& packets)
    : id_(id),
      packets_(&packets),
      cfg_(cfg),
      radix_(radix),
      va_alloc_(radix * cfg.num_vcs, radix, cfg.num_vcs) {
  if (cfg.num_vcs < 1 || cfg.num_vcs > 64) {
    throw std::invalid_argument("Router: num_vcs must be in [1, 64]");
  }
  if (cfg.vc_buffer_depth < 1 || cfg.vc_buffer_depth > kMaxBufferDepth) {
    throw std::invalid_argument("Router: vc_buffer_depth must be in [1, 32767]");
  }
  if (radix < 1 || radix > kMaxPorts) {
    throw std::invalid_argument("Router: radix must be in [1, kMaxPorts]");
  }

  const auto vcs = static_cast<std::size_t>(radix) * static_cast<std::size_t>(cfg.num_vcs);
  const std::size_t flits_off = align_up(vcs * sizeof(InputVc), alignof(Flit));
  const std::size_t ovc_off = align_up(
      flits_off + vcs * static_cast<std::size_t>(cfg.vc_buffer_depth) * sizeof(Flit),
      alignof(OutputVc));
  slab_bytes_ = ovc_off + vcs * sizeof(OutputVc);
  slab_ = std::make_unique<std::byte[]>(slab_bytes_);
  std::byte* const base = slab_.get();
  std::uninitialized_default_construct_n(reinterpret_cast<InputVc*>(base), vcs);
  std::uninitialized_default_construct_n(reinterpret_cast<Flit*>(base + flits_off),
                                         vcs * static_cast<std::size_t>(cfg.vc_buffer_depth));
  std::uninitialized_default_construct_n(reinterpret_cast<OutputVc*>(base + ovc_off), vcs);
  ivc_ = std::launder(reinterpret_cast<InputVc*>(base));
  flits_ = std::launder(reinterpret_cast<Flit*>(base + flits_off));
  ovc_ = std::launder(reinterpret_cast<OutputVc*>(base + ovc_off));

  port_peer_.fill(id);
  first_local_port_ = radix;  // no local ports until told otherwise
  wired_in_.reserve(static_cast<std::size_t>(radix));
  wired_out_.reserve(static_cast<std::size_t>(radix));
}

void Router::set_routing_engine(const topo::RoutingEngine* engine) {
  engine_ = engine;
  adaptive_escape_ = engine != nullptr && engine->adaptive_escape();
}

void Router::connect_input(int port, FlitPort* flit_in, CreditPort* credit_out) {
  if (port < 0 || port >= radix_) throw std::out_of_range("Router::connect_input: port");
  auto& pt = ports_[static_cast<std::size_t>(port)];
  NOCDVFS_ASSERT(pt.flit_in == nullptr, "input port wired twice");
  if (flit_in == nullptr || credit_out == nullptr) {
    throw std::invalid_argument("Router::connect_input: null channel");
  }
  pt.flit_in = flit_in;
  pt.credit_out = credit_out;
  wired_in_.push_back(port);
}

void Router::connect_output(int port, FlitPort* flit_out, CreditPort* credit_in) {
  if (port < 0 || port >= radix_) throw std::out_of_range("Router::connect_output: port");
  auto& pt = ports_[static_cast<std::size_t>(port)];
  NOCDVFS_ASSERT(pt.flit_out == nullptr, "output port wired twice");
  if (flit_out == nullptr || credit_in == nullptr) {
    throw std::invalid_argument("Router::connect_output: null channel");
  }
  pt.flit_out = flit_out;
  pt.credit_in = credit_in;
  wired_out_.push_back(port);
  // Credits mirror the downstream input buffer, one counter per VC; every
  // output VC starts unowned.
  for (int u = 0; u < cfg_.num_vcs; ++u) {
    ovc_[slot_of(port, u)].credits = static_cast<std::int16_t>(cfg_.vc_buffer_depth);
  }
  ovc_free_[static_cast<std::size_t>(port)] =
      cfg_.num_vcs == 64 ? ~std::uint64_t{0} : bit(cfg_.num_vcs) - 1;
}

Flit Router::pop_front(int idx) noexcept {
  InputVc& ivc = ivc_[idx];
  const Flit flit = ring(idx, ivc.head);
  if (++ivc.head == cfg_.vc_buffer_depth) ivc.head = 0;
  --ivc.size;
  --buffered_total_;
  return flit;
}

void Router::receive_phase() {
  for (const int q : wired_out_) {
    if (const auto credit = ports_[static_cast<std::size_t>(q)].credit_in->pop()) {
      OutputVc& ovc = ovc_[slot_of(q, credit->vc)];
      ++ovc.credits;
      NOCDVFS_ASSERT(ovc.credits <= cfg_.vc_buffer_depth, "credit counter overflow");
      if (ovc.owner_port >= 0) {
        credit_ok_[static_cast<std::size_t>(ovc.owner_port)] |= bit(ovc.owner_vc);
      }
    }
  }
  for (const int p : wired_in_) {
    const auto flit = ports_[static_cast<std::size_t>(p)].flit_in->pop();
    if (!flit) continue;
    const int v = flit->vc;
    NOCDVFS_ASSERT(v < cfg_.num_vcs, "flit arrived on a VC the router does not have");
    const int idx = slot_of(p, v);
    InputVc& ivc = ivc_[idx];
    NOCDVFS_ASSERT(ivc.size < cfg_.vc_buffer_depth,
                   "flit arrived to a full VC buffer (credit bug)");
    int pos = ivc.head + ivc.size;
    if (pos >= cfg_.vc_buffer_depth) pos -= cfg_.vc_buffer_depth;
    ring(idx, pos) = *flit;
    ++ivc.size;
    ++activity_.buffer_writes;
    ++buffered_total_;
    if (flight_recorder_ && flit->head) {
      flight_recorder_->on_router_arrive((*packets_)[flit->slot].id, id_);
    }
    if (ivc.state == VcStateKind::Idle && ivc.size == 1) {
      rc_mask_[static_cast<std::size_t>(p)] |= bit(v);
      ++rc_pending_;
    } else if (ivc.state == VcStateKind::Active) {
      sa_candidates_[static_cast<std::size_t>(p)] |= bit(v);
    }
    // Drop VCs just accumulate; the drain stage empties them.
  }
}

void Router::compute_phase() {
  if (stall_tracking_ && (buffered_total_ > 0 || drop_pending_ > 0)) {
    compute_phase_tracked();
    return;
  }
  if (drop_pending_ > 0) credit_pushed_.fill(0);
  if (buffered_total_ > 0) switch_allocation_and_traversal();
  if (drop_pending_ > 0) drain_drops();
  if (waiting_count_ > 0) vc_allocation();
  if (rc_pending_ > 0) route_computation();
}

void Router::compute_phase_tracked() {
  // Pre-classify every busy VC before any stage runs: what could this VC
  // have done this cycle? The classification is exact because nothing a
  // stage does can retroactively change it — credits only replenish in
  // receive_phase, VA/RC run *after* SA, an RC-created Drop VC cannot
  // drain in the same cycle, and the drain stage only empties
  // pre-classified Drop VCs. Every class is a mask population count: an
  // Idle VC holding flits is exactly an RC-pending one, a Waiting VC always
  // holds its head, and an Active VC with flits is an SA candidate.
  std::uint64_t n_route = 0, n_va = 0, n_credit = 0, n_eligible = 0, n_drop = 0;
  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    n_route += static_cast<std::uint64_t>(std::popcount(rc_mask_[pi]));
    n_va += static_cast<std::uint64_t>(std::popcount(wait_mask_[pi]));
    n_eligible += static_cast<std::uint64_t>(std::popcount(sa_candidates_[pi] & credit_ok_[pi]));
    n_credit += static_cast<std::uint64_t>(std::popcount(sa_candidates_[pi] & ~credit_ok_[pi]));
    for (std::uint64_t bits = drop_mask_[pi]; bits != 0; bits &= bits - 1) {
      if (ivc_[slot_of(p, std::countr_zero(bits))].size != 0) ++n_drop;
    }
  }

  const std::uint64_t grants_before = activity_.sw_alloc_grants;
  const std::uint64_t drops_before = dropped_flits_;
  if (drop_pending_ > 0) credit_pushed_.fill(0);
  if (buffered_total_ > 0) switch_allocation_and_traversal();
  if (drop_pending_ > 0) drain_drops();

  // Each SA grant consumed one pre-classified eligible VC (the allocator
  // never grants an input port twice per cycle), each drain emptied one
  // flit from a pre-classified Drop VC; the rest of each class stalled.
  const std::uint64_t granted = activity_.sw_alloc_grants - grants_before;
  const std::uint64_t drained = dropped_flits_ - drops_before;
  NOCDVFS_ASSERT(granted <= n_eligible, "SA granted more VCs than were eligible");
  NOCDVFS_ASSERT(drained <= n_drop, "drained more Drop VCs than were buffered");
  stalls_.route += n_route;
  stalls_.vc_alloc += n_va;
  stalls_.credit += n_credit;
  stalls_.sw += n_eligible - granted;
  stalls_.drop += n_drop - drained;
  stalls_.busy_vc_cycles += n_route + n_va + n_credit + n_eligible + n_drop;
  stalls_.forwarded += granted + drained;

  if (waiting_count_ > 0) vc_allocation();
  if (rc_pending_ > 0) route_computation();
}

void Router::switch_allocation_and_traversal() {
  // Stage 1 (input arbitration): each input port selects one SA-eligible VC
  // (Active, flit buffered, credit on the held output VC), round-robin from
  // its pointer: the lowest eligible VC at or above the pointer, else the
  // lowest eligible VC overall.
  std::array<int, kMaxPorts> chosen_vc{};
  std::array<std::uint32_t, kMaxPorts> requesters{};  ///< per output: requesting inputs
  std::uint32_t requested_outputs = 0;

  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    const std::uint64_t eligible = sa_candidates_[pi] & credit_ok_[pi];
    if (eligible == 0) continue;
    const std::uint64_t above = eligible & (~std::uint64_t{0} << sa_input_ptr_[pi]);
    const int v = std::countr_zero(above != 0 ? above : eligible);
    chosen_vc[pi] = v;
    const int q = ivc_[slot_of(p, v)].out_port;
    requesters[static_cast<std::size_t>(q)] |= std::uint32_t{1} << p;
    requested_outputs |= std::uint32_t{1} << q;
    ++activity_.alloc_requests;
  }

  // Stage 2 (output arbitration), outputs in ascending order: each grants
  // the requesting input port at or after its pointer, cyclically.
  // Pointers advance only on a grant (iSLIP discipline).
  while (requested_outputs != 0) {
    const int q = std::countr_zero(requested_outputs);
    requested_outputs &= requested_outputs - 1;
    const auto qi = static_cast<std::size_t>(q);
    const std::uint32_t req = requesters[qi];
    const std::uint32_t above = req & (~std::uint32_t{0} << sa_output_ptr_[qi]);
    const int winner = std::countr_zero(above != 0 ? above : req);
    const auto wi = static_cast<std::size_t>(winner);
    sa_output_ptr_[qi] = winner + 1 == radix_ ? 0 : winner + 1;
    sa_input_ptr_[wi] = chosen_vc[wi] + 1 == cfg_.num_vcs ? 0 : chosen_vc[wi] + 1;
    ++activity_.sw_alloc_grants;
    traverse(winner, chosen_vc[wi]);
  }
}

void Router::traverse(int in_port, int in_vc) {
  const auto pi = static_cast<std::size_t>(in_port);
  const int idx = slot_of(in_port, in_vc);
  InputVc& ivc = ivc_[idx];
  const int out_port = ivc.out_port;
  const int out_vc = ivc.out_vc;
  OutputVc& ovc = ovc_[slot_of(out_port, out_vc)];

  Flit flit = pop_front(idx);
  if (ivc.size == 0) sa_candidates_[pi] &= ~bit(in_vc);
  ++activity_.buffer_reads;
  ++activity_.crossbar_traversals;
  ++port_flits_tx_[static_cast<std::size_t>(out_port)];

  NOCDVFS_ASSERT(ovc.credits > 0, "switch traversal without credit");
  if (--ovc.credits == 0) credit_ok_[pi] &= ~bit(in_vc);
  flit.vc = static_cast<std::uint8_t>(out_vc);
  ++flit.hops;
  if (traverse_hook_) engine_->on_traverse(id_, out_port, flit);
  if (flight_recorder_ && flit.head) {
    flight_recorder_->on_depart((*packets_)[flit.slot].id, id_, out_port);
  }
  if (out_port >= first_local_port_) {
    ++activity_.local_flit_hops;
  } else {
    ++activity_.link_flit_hops;
  }
  ports_[static_cast<std::size_t>(out_port)].flit_out->push(flit);

  // Freed buffer slot: credit flows back to the upstream sender.
  ports_[pi].credit_out->push(Credit{static_cast<std::uint8_t>(in_vc)});
  if (drop_pending_ > 0) credit_pushed_[pi] = 1;

  if (wake_ != nullptr) {
    // Both pushes target another clock domain's inputs: the flit wakes the
    // downstream tile, the credit the upstream one (the only mechanism by
    // which a drained-but-credit-starved router ever resumes).
    wake_->wake(port_peer_[static_cast<std::size_t>(out_port)]);
    wake_->wake(port_peer_[pi]);
  }

  if (flit.tail) {
    ovc.owner_port = -1;
    ovc.owner_vc = -1;
    ovc_free_[static_cast<std::size_t>(out_port)] |= bit(out_vc);
    ivc.state = VcStateKind::Idle;
    ivc.out_port = -1;
    ivc.out_vc = -1;
    sa_candidates_[pi] &= ~bit(in_vc);
    credit_ok_[pi] &= ~bit(in_vc);
    if (ivc.size != 0) {
      NOCDVFS_ASSERT(front(idx).head, "flit following a tail must be a head");
      rc_mask_[pi] |= bit(in_vc);
      ++rc_pending_;  // the next packet's head awaits route computation
    }
  }
}

void Router::drain_drops() {
  // One flit per input port per cycle leaves a Drop VC: the buffer read and
  // upstream credit mimic a normal dequeue (so flow control stays exact),
  // but the flit lands in the drop counters instead of the crossbar.
  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    if (credit_pushed_[pi] != 0) continue;
    for (std::uint64_t bits = drop_mask_[pi]; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const int idx = slot_of(p, v);
      InputVc& ivc = ivc_[idx];
      if (ivc.size == 0) continue;
      const Flit flit = pop_front(idx);
      ++activity_.buffer_reads;
      ++dropped_flits_;
      if (flit.head) ++dropped_packets_;
      if (flight_recorder_ && flit.head) {
        flight_recorder_->on_drop((*packets_)[flit.slot].id, id_);
      }
      ports_[pi].credit_out->push(Credit{static_cast<std::uint8_t>(v)});
      credit_pushed_[pi] = 1;
      if (wake_ != nullptr) wake_->wake(port_peer_[pi]);
      if (flit.tail) {
        packets_->release(flit.slot);  // the packet never reaches an NI
        ivc.state = VcStateKind::Idle;
        ivc.out_port = -1;
        ivc.out_vc = -1;
        ivc.vc_mask = ~std::uint64_t{0};
        drop_mask_[pi] &= ~bit(v);
        --drop_pending_;
        if (ivc.size != 0) {
          NOCDVFS_ASSERT(front(idx).head, "flit following a tail must be a head");
          rc_mask_[pi] |= bit(v);
          ++rc_pending_;
        }
      }
      break;  // port's credit budget for this cycle is spent
    }
  }
}

void Router::vc_allocation() {
  const int v_count = cfg_.num_vcs;
  bool any_request = false;
  for (const int p : wired_in_) {
    for (std::uint64_t bits = wait_mask_[static_cast<std::size_t>(p)]; bits != 0;
         bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const int idx = slot_of(p, v);
      InputVc& ivc = ivc_[idx];
      if (adaptive_escape_ && ++ivc.wait_cycles >= kEscapeWaitCycles) {
        // Starved of an output VC: abandon the adaptive choice and confine
        // the packet to its deterministic escape path, whose VC class the
        // Duato argument keeps deadlock-free.
        Flit& head = front(idx);
        const topo::RouteDecision escape =
            engine_->route(id_, head, (*packets_)[head.slot], *this, true);
        NOCDVFS_ASSERT(escape.out_port >= 0, "escape re-route found no port");
        ivc.out_port = static_cast<std::int8_t>(escape.out_port);
        ivc.vc_mask = escape.vc_mask;
        ivc.wait_cycles = 0;
      }
      const std::uint64_t request = ivc.vc_mask & ovc_free_[static_cast<std::size_t>(ivc.out_port)];
      if (request == 0) continue;
      va_alloc_.add_request(idx, ivc.out_port, request);
      activity_.alloc_requests += static_cast<std::uint64_t>(std::popcount(request));
      any_request = true;
    }
  }
  if (!any_request) return;

  for (const auto& [agent, resource] : va_alloc_.allocate()) {
    const int p = agent / v_count;
    const int v = agent % v_count;
    const int q = resource / v_count;
    const int u = resource % v_count;
    InputVc& ivc = ivc_[agent];
    OutputVc& ovc = ovc_[resource];
    const auto pi = static_cast<std::size_t>(p);
    NOCDVFS_ASSERT(ivc.state == VcStateKind::Waiting, "VA grant to non-waiting VC");
    NOCDVFS_ASSERT(ovc.owner_port < 0, "VA granted an allocated output VC");
    NOCDVFS_ASSERT(q == ivc.out_port, "VA grant on wrong output port");
    ivc.state = VcStateKind::Active;
    wait_mask_[pi] &= ~bit(v);
    --waiting_count_;
    // A Waiting VC always still buffers its head flit, so it becomes an SA
    // candidate immediately.
    sa_candidates_[pi] |= bit(v);
    if (ovc.credits > 0) credit_ok_[pi] |= bit(v);
    if (flight_recorder_) {
      flight_recorder_->on_vc_grant((*packets_)[front(agent).slot].id, id_, u);
    }
    ivc.out_vc = static_cast<std::int8_t>(u);
    ovc.owner_port = static_cast<std::int8_t>(p);
    ovc.owner_vc = static_cast<std::int8_t>(v);
    ovc_free_[static_cast<std::size_t>(q)] &= ~bit(u);
    ++activity_.vc_alloc_grants;
  }
}

void Router::route_computation() {
  NOCDVFS_ASSERT(engine_ != nullptr, "Router: no routing engine installed");
  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    for (std::uint64_t bits = rc_mask_[pi]; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      const int idx = slot_of(p, v);
      InputVc& ivc = ivc_[idx];
      Flit& head = front(idx);
      NOCDVFS_ASSERT(head.head, "non-head flit at the front of an Idle VC");
      const PacketInfo& pkt = (*packets_)[head.slot];
      const topo::RouteDecision decision = engine_->route(id_, head, pkt, *this, false);
      rc_mask_[pi] &= ~bit(v);
      --rc_pending_;
      if (decision.out_port < 0) {
        // No surviving route: drain the packet into the drop counters.
        ivc.state = VcStateKind::Drop;
        drop_mask_[pi] |= bit(v);
        ++drop_pending_;
        continue;
      }
      ivc.out_port = static_cast<std::int8_t>(decision.out_port);
      ivc.vc_mask = decision.vc_mask;
      if (flight_recorder_) flight_recorder_->on_route(pkt.id, id_, decision.out_port);
      NOCDVFS_ASSERT(ports_[static_cast<std::size_t>(decision.out_port)].flit_out != nullptr,
                     "route computed towards an unwired port");
      ivc.wait_cycles = 0;
      ivc.state = VcStateKind::Waiting;
      wait_mask_[pi] |= bit(v);
      ++waiting_count_;
    }
  }
}

int Router::downstream_backlog(int port) const {
  int backlog = 0;
  for (int u = 0; u < cfg_.num_vcs; ++u) {
    backlog += cfg_.vc_buffer_depth - ovc_[slot_of(port, u)].credits;
  }
  return backlog;
}

int Router::buffered_flits() const noexcept {
  int n = 0;
  for (int i = 0; i < radix_ * cfg_.num_vcs; ++i) n += ivc_[i].size;
  return n;
}

const Router::InputVc& Router::input_vc_at(PortDir port, int vc) const {
  const int p = port_index(port);
  if (p >= radix_ || vc < 0 || vc >= cfg_.num_vcs) throw std::out_of_range("Router: input VC");
  return ivc_[slot_of(p, vc)];
}

const Router::OutputVc& Router::output_vc_at(PortDir port, int vc) const {
  const int p = port_index(port);
  if (p >= radix_ || vc < 0 || vc >= cfg_.num_vcs) throw std::out_of_range("Router: output VC");
  return ovc_[slot_of(p, vc)];
}

int Router::output_credits(PortDir port, int vc) const { return output_vc_at(port, vc).credits; }

bool Router::output_vc_allocated(PortDir port, int vc) const {
  return output_vc_at(port, vc).owner_port >= 0;
}

VcStateKind Router::input_vc_state(PortDir port, int vc) const {
  return input_vc_at(port, vc).state;
}

int Router::input_vc_occupancy(PortDir port, int vc) const { return input_vc_at(port, vc).size; }

void Router::check_invariants() const {
  const auto fail = [this](const std::string& what, int port) {
    std::ostringstream os;
    os << "router " << id_ << " port " << port << ": " << what;
    throw common::InvariantViolation(os.str());
  };
  const int vcs = cfg_.num_vcs;
  const int depth = cfg_.vc_buffer_depth;
  int buffered = 0, rc = 0, waiting = 0, dropping = 0;
  for (int p = 0; p < radix_; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    std::uint64_t want_rc = 0, want_wait = 0, want_drop = 0, want_sa = 0, want_ok = 0;
    std::uint64_t want_free = 0;
    for (int v = 0; v < vcs; ++v) {
      const InputVc& in = ivc_[p * vcs + v];
      const std::uint64_t m = std::uint64_t{1} << v;
      if (in.size > depth || in.head >= depth) fail("ring index out of range", p);
      buffered += in.size;
      switch (in.state) {
        case VcStateKind::Idle:
          if (in.size > 0) {
            want_rc |= m;
            ++rc;
          }
          if (in.out_port != -1 || in.out_vc != -1) fail("Idle VC holds a route", p);
          break;
        case VcStateKind::Waiting:
          want_wait |= m;
          ++waiting;
          if (in.size == 0) fail("Waiting VC without its head flit", p);
          break;
        case VcStateKind::Active: {
          if (in.size > 0) want_sa |= m;
          if (in.out_port < 0 || in.out_port >= radix_ || in.out_vc < 0 || in.out_vc >= vcs) {
            fail("Active VC without an output VC", p);
          }
          const OutputVc& held = ovc_[in.out_port * vcs + in.out_vc];
          if (held.owner_port != p || held.owner_vc != v) fail("Active VC not the owner", p);
          if (held.credits > 0) want_ok |= m;
          break;
        }
        case VcStateKind::Drop:
          want_drop |= m;
          ++dropping;
          break;
      }
      const OutputVc& out = ovc_[p * vcs + v];
      if (out.credits < 0 || out.credits > depth) fail("credit count out of range", p);
      if (out.owner_port < 0) {
        if (ports_[pi].flit_out != nullptr) want_free |= m;
      } else {
        const InputVc& owner = ivc_[out.owner_port * vcs + out.owner_vc];
        if (owner.state != VcStateKind::Active || owner.out_port != p || owner.out_vc != v) {
          fail("output VC owned by a VC that does not hold it", p);
        }
      }
    }
    if (rc_mask_[pi] != want_rc) fail("RC-pending mask mismatch", p);
    if (wait_mask_[pi] != want_wait) fail("waiting mask mismatch", p);
    if (drop_mask_[pi] != want_drop) fail("drop mask mismatch", p);
    if (sa_candidates_[pi] != want_sa) fail("SA-candidate mask mismatch", p);
    if (credit_ok_[pi] != want_ok) fail("credit-ok mask mismatch", p);
    if (ovc_free_[pi] != want_free) fail("free output-VC mask mismatch", p);
  }
  if (buffered != buffered_total_) fail("buffered_total_ mismatch", -1);
  if (rc != rc_pending_) fail("rc_pending_ mismatch", -1);
  if (waiting != waiting_count_) fail("waiting_count_ mismatch", -1);
  if (dropping != drop_pending_) fail("drop_pending_ mismatch", -1);
}

}  // namespace nocdvfs::noc
