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
///
/// Thread safety: tile-parallel stepping acquires and releases from
/// several workers at once, so both take a mutex. Storage is a list of
/// doubling chunks that never move once allocated, so `operator[]` needs
/// no lock: a slot's entry is written by its acquirer before the slot
/// number reaches any other thread (inside a flit, across a step barrier).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

class PacketTable {
 public:
  std::uint32_t acquire(const PacketInfo& info) {
    std::uint32_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++live_;
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
      } else {
        slot = size_.load();
        const auto c = static_cast<std::size_t>(chunk_of(slot));
        if (!owned_[c]) {
          owned_[c] = std::make_unique<PacketInfo[]>(chunk_size(static_cast<int>(c)));
          chunks_[c].store(owned_[c].get());
        }
        size_.store(slot + 1);
      }
    }
    entry(slot) = info;  // the slot is this caller's alone until released
    return slot;
  }

  void release(std::uint32_t slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    NOCDVFS_ASSERT(slot < size_.load() && live_ > 0, "PacketTable: release of a free slot");
    --live_;
    free_.push_back(slot);
  }

  const PacketInfo& operator[](std::uint32_t slot) const {
    NOCDVFS_ASSERT(slot < size_.load(), "PacketTable: slot out of range");
    return entry(slot);
  }

  /// Packets currently holding a slot.
  std::size_t live() const noexcept { return live_; }
  /// Slots ever created (the high-water mark of `live()`).
  std::size_t capacity() const noexcept { return size_.load(); }
  /// Heap bytes held by the table (allocated chunks plus free list).
  std::size_t bytes() const noexcept {
    std::size_t n = free_.capacity() * sizeof(std::uint32_t);
    for (int c = 0; c < kChunks; ++c) {
      if (owned_[static_cast<std::size_t>(c)]) n += chunk_size(c) * sizeof(PacketInfo);
    }
    return n;
  }

 private:
  /// Chunk c holds kFirstChunk << c slots, starting at slot
  /// kFirstChunk · (2^c − 1); 27 chunks cover the whole 32-bit slot space.
  static constexpr std::uint32_t kFirstChunk = 64;
  static constexpr int kChunks = 27;

  static int chunk_of(std::uint32_t slot) noexcept {
    return std::bit_width(static_cast<std::uint64_t>(slot) / kFirstChunk + 1) - 1;
  }
  static std::size_t chunk_size(int c) noexcept { return std::size_t{kFirstChunk} << c; }

  PacketInfo& entry(std::uint32_t slot) const noexcept {
    const int c = chunk_of(slot);
    const std::uint64_t first = std::uint64_t{kFirstChunk} * ((std::uint64_t{1} << c) - 1);
    return chunks_[static_cast<std::size_t>(c)].load()[slot - first];
  }

  std::mutex mutex_;  ///< guards the four members below
  std::array<std::unique_ptr<PacketInfo[]>, kChunks> owned_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::atomic<std::uint32_t> size_{0};  ///< slots ever created; written under the lock
  /// `owned_` as plain pointers, read without the lock; a chunk is
  /// published before any slot in it is handed out.
  std::array<std::atomic<PacketInfo*>, kChunks> chunks_{};
};

}  // namespace nocdvfs::noc
