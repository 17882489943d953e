#include "noc/network_interface.hpp"

#include <stdexcept>

#include "obs/flight_recorder.hpp"

namespace nocdvfs::noc {

NetworkInterface::NetworkInterface(NodeId node, const NiConfig& cfg,
                                   std::vector<PacketRecord>* delivered_sink,
                                   PacketTable* packets)
    : node_(node), cfg_(cfg), delivered_sink_(delivered_sink), packets_(packets), wake_id_(node) {
  if (cfg.num_vcs < 1 || cfg.vc_buffer_depth < 1) {
    throw std::invalid_argument("NetworkInterface: degenerate VC configuration");
  }
  if (delivered_sink == nullptr) {
    throw std::invalid_argument("NetworkInterface: delivered sink must not be null");
  }
  if (packets == nullptr) {
    throw std::invalid_argument("NetworkInterface: packet table must not be null");
  }
  credits_.assign(static_cast<std::size_t>(cfg.num_vcs), cfg.vc_buffer_depth);
  assembly_.assign(static_cast<std::size_t>(cfg.num_vcs), Reassembly{});
}

void NetworkInterface::connect(FlitPort* inject_out, CreditPort* inject_credit_in,
                               FlitPort* eject_in, CreditPort* eject_credit_out) {
  if (!inject_out || !inject_credit_in || !eject_in || !eject_credit_out) {
    throw std::invalid_argument("NetworkInterface::connect: null channel");
  }
  inject_out_ = inject_out;
  inject_credit_in_ = inject_credit_in;
  eject_in_ = eject_in;
  eject_credit_out_ = eject_credit_out;
}

void NetworkInterface::enqueue_packet(NodeId dst, int size_flits,
                                      common::Picoseconds create_time_ps,
                                      std::uint64_t create_noc_cycle,
                                      std::uint8_t traffic_class) {
  NOCDVFS_ASSERT(size_flits >= 1, "packet must have at least one flit");
  // Globally unique ids when the network installed a shared counter;
  // legacy node-unique ids (high bits carry the source node) otherwise.
  const PacketId pid =
      packet_id_source_
          ? (*packet_id_source_)++
          : (static_cast<PacketId>(static_cast<std::uint32_t>(node_)) << 40) |
                next_packet_seq_;
  ++next_packet_seq_;
  if (reachable_ != nullptr && !(*reachable_)(node_, dst)) {
    // No surviving route at enqueue time: the packet is offered load (it
    // counts as generated) but goes straight to the drop counters instead
    // of the source queue, so backlog cannot grow without bound behind a
    // destination that will never drain. It still consumed an id, so the
    // observer's record ordinal stays equal to the id.
    ++packets_generated_;
    flits_generated_ += static_cast<std::uint64_t>(size_flits);
    ++dropped_packets_;
    dropped_flits_ += static_cast<std::uint64_t>(size_flits);
    if (injection_observer_) (*injection_observer_)(pid, node_, dst, size_flits, traffic_class);
    return;
  }
  PendingPacket p;
  p.id = pid;
  p.dst = dst;
  p.size = static_cast<std::uint16_t>(size_flits);
  p.create_time_ps = create_time_ps;
  p.create_noc_cycle = create_noc_cycle;
  p.traffic_class = traffic_class;
  source_queue_.push_back(p);
  ++packets_generated_;
  flits_generated_ += static_cast<std::uint64_t>(size_flits);
  if (const std::uint64_t backlog = source_backlog_flits(); backlog > peak_backlog_flits_) {
    peak_backlog_flits_ = backlog;
  }
  if (wake_ != nullptr) wake_->wake(wake_id_);
  if (injection_observer_) (*injection_observer_)(pid, node_, dst, size_flits, traffic_class);
}

void NetworkInterface::receive_phase(common::Picoseconds now, std::uint64_t noc_cycle) {
  if (auto credit = inject_credit_in_->pop()) {
    auto& c = credits_[credit->vc];
    ++c;
    NOCDVFS_ASSERT(c <= cfg_.vc_buffer_depth, "NI credit counter overflow");
  }
  if (auto flit = eject_in_->pop()) {
    ++flits_ejected_;
    auto& asm_state = assembly_[flit->vc];
    if (flit->head) {
      NOCDVFS_ASSERT(!asm_state.open, "head flit while a packet is open on this VC");
      asm_state.open = true;
      asm_state.slot = flit->slot;
      asm_state.received = 0;
    }
    NOCDVFS_ASSERT(asm_state.open && asm_state.slot == flit->slot,
                   "flit interleaving within a VC");
    NOCDVFS_ASSERT(flit->flit_index == asm_state.received, "out-of-order flit within a VC");
    ++asm_state.received;

    // The sink drains instantly: credit back to the router's Local output.
    eject_credit_out_->push(Credit{flit->vc});

    if (flit->tail) {
      const PacketInfo& pkt = (*packets_)[flit->slot];
      NOCDVFS_ASSERT(asm_state.received == pkt.size, "tail before all flits arrived");
      asm_state.open = false;
      ++packets_ejected_;
      PacketRecord rec;
      rec.packet_id = pkt.id;
      rec.src = pkt.src;
      rec.dst = pkt.dst;
      rec.size = pkt.size;
      rec.hops = flit->hops;
      rec.traffic_class = pkt.traffic_class;
      rec.create_time_ps = pkt.create_time_ps;
      rec.eject_time_ps = now;
      rec.create_noc_cycle = pkt.create_noc_cycle;
      rec.eject_noc_cycle = noc_cycle;
      delivered_sink_->push_back(rec);
      if (flight_recorder_) flight_recorder_->on_eject(pkt.id);
      packets_->release(flit->slot);
    }
  }
}

void NetworkInterface::inject_phase() {
  if (!sending_ && !source_queue_.empty()) {
    // New packet: pick a VC with at least one credit, round-robin so all
    // VCs are exercised evenly.
    const int v_count = cfg_.num_vcs;
    for (int off = 0; off < v_count; ++off) {
      const int v = (vc_rr_ptr_ + off) % v_count;
      if (credits_[static_cast<std::size_t>(v)] > 0) {
        sending_ = true;
        current_ = source_queue_.front();
        source_queue_.pop_front();
        current_slot_ = packets_->acquire(PacketInfo{current_.id, current_.create_time_ps,
                                                     current_.create_noc_cycle, node_,
                                                     current_.dst, current_.size,
                                                     current_.traffic_class});
        active_vc_ = v;
        next_flit_index_ = 0;
        vc_rr_ptr_ = (v + 1) % v_count;
        break;
      }
    }
  }
  if (!sending_) return;
  auto& credit = credits_[static_cast<std::size_t>(active_vc_)];
  if (credit <= 0) return;

  Flit f;
  f.slot = current_slot_;
  f.flit_index = next_flit_index_;
  f.head = (next_flit_index_ == 0);
  f.tail = (next_flit_index_ + 1 == current_.size);
  f.vc = static_cast<std::uint8_t>(active_vc_);

  inject_out_->push(f);
  if (flight_recorder_ && f.head) {
    flight_recorder_->on_inject(current_.id, node_, current_.dst, current_.size,
                                current_.traffic_class,
                                static_cast<std::uint64_t>(current_.create_time_ps));
  }
  --credit;
  ++flits_injected_;
  ++activity_.local_flit_hops;  // injection link toggle
  ++next_flit_index_;
  if (f.tail) {
    sending_ = false;
    active_vc_ = -1;
  }
}

std::uint64_t NetworkInterface::source_backlog_flits() const noexcept {
  // Every generated flit that has not yet entered the network is backlog,
  // whether it sits in the queue or in the partially sent current packet.
  // Flits refused at enqueue time never become backlog.
  return flits_generated_ - flits_injected_ - dropped_flits_;
}

}  // namespace nocdvfs::noc
