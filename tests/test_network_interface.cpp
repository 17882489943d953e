// Network-interface tests: the injection FSM (credit protocol, VC choice,
// packet serialization), the ejection-side reassembly, the measurement
// counters and the failure modes at the node↔NoC boundary.

#include <gtest/gtest.h>

#include <optional>

#include "noc/network_interface.hpp"

namespace nocdvfs::noc {
namespace {

class NiHarness {
 public:
  explicit NiHarness(NiConfig cfg = NiConfig{4, 2})
      : cfg_(cfg), ni_(7, cfg, &delivered_, &packets_) {
    ni_.connect(&inject_flit, &inject_credit, &eject_flit, &eject_credit);
  }

  /// One NoC cycle as the Network would run it for the NI.
  void cycle(common::Picoseconds now = 0, std::uint64_t noc_cycle = 0) {
    ++clock_;
    ni_.receive_phase(now, noc_cycle);
    ni_.inject_phase();
  }

  /// Packet-table entry for flits the tests hand to the ejection side.
  std::uint32_t packet(PacketId id, NodeId src, NodeId dst, int size,
                       common::Picoseconds create_ps = 0, std::uint64_t create_cycle = 0) {
    return packets_.acquire(PacketInfo{id, create_ps, create_cycle, src, dst,
                                       static_cast<std::uint16_t>(size), 0});
  }

  NiConfig cfg_;
  std::vector<PacketRecord> delivered_;
  PacketTable packets_;
  std::uint64_t clock_ = 0;  ///< the NoC clock every channel reads
  FlitChannel inject_flit{1, &clock_}, eject_flit{1, &clock_};
  CreditChannel inject_credit{1, &clock_}, eject_credit{1, &clock_};
  NetworkInterface ni_;
};

TEST(NetworkInterface, SerializesPacketOneFlitPerCycle) {
  NiHarness h;
  h.ni_.enqueue_packet(3, 4, 100, 5);
  std::vector<Flit> sent;
  for (int cyc = 0; cyc < 10; ++cyc) {
    h.cycle();
    if (auto f = h.inject_flit.pop()) {
      sent.push_back(*f);
      // Router side dequeues promptly and returns the credit.
      h.inject_credit.push(Credit{f->vc});
    }
  }
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_TRUE(sent.front().head);
  EXPECT_TRUE(sent.back().tail);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(sent[i].flit_index, i);
    EXPECT_EQ(sent[i].vc, sent.front().vc) << "packet must stay on one VC";
    EXPECT_EQ(sent[i].slot, sent.front().slot) << "one packet-table entry per packet";
  }
  // The packet's invariant fields live in the table entry, acquired when
  // the NI started serializing it.
  ASSERT_EQ(h.packets_.live(), 1u);
  const PacketInfo& pkt = h.packets_[sent.front().slot];
  EXPECT_EQ(pkt.src, 7);
  EXPECT_EQ(pkt.dst, 3);
  EXPECT_EQ(pkt.size, 4);
  EXPECT_EQ(pkt.create_time_ps, 100u);
  EXPECT_EQ(pkt.create_noc_cycle, 5u);
  EXPECT_EQ(h.ni_.flits_injected(), 4u);
  EXPECT_EQ(h.ni_.source_backlog_flits(), 0u);
}

TEST(NetworkInterface, RespectsCreditLimit) {
  NiHarness h(NiConfig{2, 2});  // 2 VCs × 2 credits
  h.ni_.enqueue_packet(1, 6, 0, 0);
  int sent = 0;
  for (int cyc = 0; cyc < 10; ++cyc) {
    h.cycle();
    if (h.inject_flit.pop()) ++sent;
  }
  EXPECT_EQ(sent, 2) << "without credit returns only the buffer depth may enter";
  // Return one credit on the VC it used: exactly one more flit.
  h.inject_credit.push(Credit{0});
  for (int cyc = 0; cyc < 4; ++cyc) {
    h.cycle();
    if (h.inject_flit.pop()) ++sent;
  }
  EXPECT_EQ(sent, 3);
}

TEST(NetworkInterface, RoundRobinsVcsAcrossPackets) {
  NiHarness h(NiConfig{4, 4});
  for (int p = 0; p < 4; ++p) h.ni_.enqueue_packet(1, 1, 0, 0);
  std::vector<int> vcs;
  for (int cyc = 0; cyc < 12 && vcs.size() < 4; ++cyc) {
    h.cycle();
    if (auto f = h.inject_flit.pop()) vcs.push_back(f->vc);
  }
  ASSERT_EQ(vcs.size(), 4u);
  EXPECT_EQ(vcs, (std::vector<int>{0, 1, 2, 3})) << "fresh credits: VCs used in rotation";
}

TEST(NetworkInterface, BacklogTracksQueueAndPartialPacket) {
  NiHarness h;
  h.ni_.enqueue_packet(1, 6, 0, 0);
  h.ni_.enqueue_packet(2, 4, 0, 0);
  EXPECT_EQ(h.ni_.source_backlog_flits(), 10u);
  EXPECT_EQ(h.ni_.packets_generated(), 2u);
  EXPECT_EQ(h.ni_.flits_generated(), 10u);
  h.cycle();  // first flit leaves
  EXPECT_EQ(h.ni_.source_backlog_flits(), 9u);
}

TEST(NetworkInterface, EjectionReassemblesAndRecordsDelay) {
  NiHarness h;
  // Deliver a 3-flit packet interleaved over 3 cycles on VC 2.
  const std::uint32_t slot = h.packet(99, 1, 7, 3, 1000, 10);
  for (int i = 0; i < 3; ++i) {
    Flit f;
    f.slot = slot;
    f.flit_index = static_cast<std::uint16_t>(i);
    f.head = (i == 0);
    f.tail = (i == 2);
    f.vc = 2;
    f.hops = 4;
    h.eject_flit.push(f);
    h.cycle(5000 + 1000 * static_cast<common::Picoseconds>(i), 20 + static_cast<std::uint64_t>(i));
    (void)h.eject_credit.pop();  // the router side consumes the returned credit
  }
  ASSERT_EQ(h.delivered_.size(), 1u);
  const PacketRecord& rec = h.delivered_.front();
  EXPECT_EQ(rec.packet_id, 99u);
  EXPECT_EQ(rec.src, 1);
  EXPECT_EQ(rec.dst, 7);
  EXPECT_EQ(rec.size, 3);
  EXPECT_EQ(rec.hops, 4);
  EXPECT_EQ(rec.create_time_ps, 1000u);
  EXPECT_EQ(rec.eject_time_ps, 7000u);
  EXPECT_NEAR(rec.delay_ns(), 6.0, 1e-9);
  EXPECT_EQ(rec.latency_cycles(), 12u);
  EXPECT_EQ(h.ni_.packets_ejected(), 1u);
  EXPECT_EQ(h.ni_.flits_ejected(), 3u);
  EXPECT_EQ(h.packets_.live(), 0u) << "the tail releases the packet-table slot";
}

TEST(NetworkInterface, EjectionReturnsCreditPerFlit) {
  NiHarness h;
  Flit f;
  f.slot = h.packet(1, 0, 7, 1);
  f.head = f.tail = true;
  f.vc = 3;
  h.eject_flit.push(f);
  h.cycle();
  ++h.clock_;
  const auto credit = h.eject_credit.pop();
  ASSERT_TRUE(credit.has_value());
  EXPECT_EQ(credit->vc, 3);
}

TEST(NetworkInterface, OutOfOrderFlitViolatesInvariant) {
  NiHarness h;
  Flit f;
  f.slot = h.packet(5, 0, 7, 3);
  f.flit_index = 1;  // body arrives with no open packet on the VC
  f.vc = 0;
  h.eject_flit.push(f);
  EXPECT_THROW(h.cycle(), common::InvariantViolation);
}

TEST(NetworkInterface, InterleavedPacketsOnOneVcViolateInvariant) {
  NiHarness h;
  Flit a;
  a.slot = h.packet(1, 0, 7, 2);
  a.flit_index = 0;
  a.head = true;
  a.vc = 0;
  h.eject_flit.push(a);
  h.cycle();
  (void)h.eject_credit.pop();
  Flit b = a;
  b.slot = h.packet(2, 0, 7, 2);  // a second head on the same VC before the first tail
  h.eject_flit.push(b);
  EXPECT_THROW(h.cycle(), common::InvariantViolation);
}

TEST(NetworkInterface, ConstructionValidation) {
  std::vector<PacketRecord> sink;
  PacketTable packets;
  EXPECT_THROW(NetworkInterface(0, NiConfig{0, 4}, &sink, &packets), std::invalid_argument);
  EXPECT_THROW(NetworkInterface(0, NiConfig{4, 0}, &sink, &packets), std::invalid_argument);
  EXPECT_THROW(NetworkInterface(0, NiConfig{4, 4}, nullptr, &packets), std::invalid_argument);
  EXPECT_THROW(NetworkInterface(0, NiConfig{4, 4}, &sink, nullptr), std::invalid_argument);
  NetworkInterface ni(0, NiConfig{4, 4}, &sink, &packets);
  std::uint64_t clock = 0;
  FlitChannel f(1, &clock);
  CreditChannel c(1, &clock);
  EXPECT_THROW(ni.connect(nullptr, &c, &f, &c), std::invalid_argument);
}

TEST(NetworkInterface, PacketIdsAreNodeUnique) {
  std::vector<PacketRecord> sink;
  PacketTable packets;
  NetworkInterface a(1, NiConfig{2, 2}, &sink, &packets);
  NetworkInterface b(2, NiConfig{2, 2}, &sink, &packets);
  std::uint64_t clock = 0;
  FlitChannel fa(1, &clock), fb(1, &clock), ea(1, &clock), eb(1, &clock);
  CreditChannel ca(1, &clock), cb(1, &clock), ka(1, &clock), kb(1, &clock);
  a.connect(&fa, &ca, &ea, &ka);
  b.connect(&fb, &cb, &eb, &kb);
  a.enqueue_packet(0, 1, 0, 0);
  b.enqueue_packet(0, 1, 0, 0);
  ++clock;
  a.inject_phase();
  b.inject_phase();
  ++clock;
  const auto flit_a = fa.pop();
  const auto flit_b = fb.pop();
  ASSERT_TRUE(flit_a && flit_b);
  EXPECT_NE(flit_a->slot, flit_b->slot);
  EXPECT_NE(packets[flit_a->slot].id, packets[flit_b->slot].id);
}

}  // namespace
}  // namespace nocdvfs::noc
