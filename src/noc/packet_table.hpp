#pragma once

/// \file packet_table.hpp
/// Per-network store of packet-invariant fields (PacketInfo), indexed by
/// the 32-bit slot every Flit carries.
///
/// Lifecycle: a source NI acquires a slot when it starts serializing a
/// packet into flits (queued packets are not in the table), and the slot is
/// released when the packet's tail leaves the network — ejected at the
/// destination NI, or drained by a router whose packet lost its route
/// under faults. Released slots are reused LIFO from a free list, so the
/// table grows lazily to the peak number of packets in flight and never
/// shrinks; slot numbers are not observable in any result.

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

class PacketTable {
 public:
  std::uint32_t acquire(const PacketInfo& info) {
    ++live_;
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = info;
      return slot;
    }
    slots_.push_back(info);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release(std::uint32_t slot) {
    NOCDVFS_ASSERT(slot < slots_.size() && live_ > 0, "PacketTable: release of a free slot");
    --live_;
    free_.push_back(slot);
  }

  const PacketInfo& operator[](std::uint32_t slot) const {
    NOCDVFS_ASSERT(slot < slots_.size(), "PacketTable: slot out of range");
    return slots_[slot];
  }

  /// Packets currently holding a slot.
  std::size_t live() const noexcept { return live_; }
  /// Slots ever created (the high-water mark of `live()`).
  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Heap bytes held by the table (slab plus free list).
  std::size_t bytes() const noexcept {
    return slots_.capacity() * sizeof(PacketInfo) + free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<PacketInfo> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace nocdvfs::noc
