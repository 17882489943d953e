#pragma once

/// \file channel.hpp
/// Point-to-point channels between routers and network interfaces.
///
/// `Channel<T>` is the minimal port-facing interface (push / pop /
/// in_flight); routers and NIs hold `Channel<T>*` so a link can be either
/// of two concrete kinds:
///
///  * `DelayLine<T>` — a synchronous pipelined link inside one clock
///    domain. It carries at most one item per cycle and delivers it
///    `latency` cycles after it was pushed, modeling a registered link
///    (flits) or the reverse credit wire. Pushing twice in a cycle, or
///    failing to pop a due flit (credits guarantee buffer space), violates
///    an invariant.
///
///  * `CdcFifo<T>` — a clock-domain-crossing link on an island-boundary
///    edge (see src/vfi/). The writer pushes in its own clock domain at
///    any rate the credit loop allows; an item becomes poppable
///    `ready_delay` *reader* cycles after it was pushed — the brute-force
///    synchronizer penalty plus the link pipeline. At most one item is
///    delivered per reader cycle (the link still has single-flit
///    bandwidth); occupancy is bounded by the credit loop and enforced
///    with an invariant check.
///
/// Channels are tick-free: both kinds read their reader's cycle counter
/// (the Network hands each channel a pointer to its reader island's entry
/// of the island cycle counts) instead of keeping a clock of their own.
/// Nothing advances a channel; a push files the item under the reader
/// cycle it is due, and a pop looks up the current one.

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

/// Type-erased channel surface: the occupancy query. The Network's
/// skip-idle stepping keeps one flat list of these per tile — every
/// channel the tile pops from, flit and credit alike — so testing a
/// tile's quiescence needs no knowledge of the payload type.
class ChannelBase {
 public:
  virtual ~ChannelBase() = default;

  virtual std::size_t in_flight() const noexcept = 0;
};

template <typename T>
class Channel : public ChannelBase {
 public:
  virtual void push(T item) = 0;
  virtual std::optional<T> pop() = 0;
};

/// Cycle value no clock reaches: the "never" of the per-cycle checks.
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

template <typename T>
class DelayLine final : public Channel<T> {
 public:
  /// `clock` — the reader's cycle counter; it must outlive the line.
  DelayLine(int latency, const std::uint64_t* clock) : latency_(latency), clock_(clock) {
    if (latency < 1) throw std::invalid_argument("DelayLine: latency must be >= 1");
    if (clock == nullptr) throw std::invalid_argument("DelayLine: null clock");
    // A power-of-two ring above the latency: the push slot (now + latency)
    // and the pop slot (now) never coincide, so writer and reader touch
    // different slots within a cycle. Latencies up to 3 (every link a
    // Network builds by default) fit the inline slots: no allocation, and
    // the slots share cache lines with the counters every push/pop reads.
    const std::size_t n = std::bit_ceil(static_cast<std::size_t>(latency) + 1);
    if (n > inline_.size()) {
      spill_.resize(n);
      slots_ = spill_.data();
    }
    mask_ = n - 1;
  }

  // `slots_` may point into this object.
  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  int latency() const noexcept { return latency_; }

  void push(T item) override {
    const std::uint64_t now = *clock_;
    NOCDVFS_ASSERT(now != last_push_, "DelayLine: two pushes in one cycle");
    last_push_ = now;
    Slot& s = slots_[(now + static_cast<std::uint64_t>(latency_)) & mask_];
    NOCDVFS_ASSERT(!s.valid, "DelayLine: overwriting undelivered item");
    s.item = std::move(item);
    s.valid = true;
    ++pushed_;
  }

  std::optional<T> pop() noexcept override {
    Slot& s = slots_[*clock_ & mask_];
    if (!s.valid) return std::nullopt;
    s.valid = false;
    ++popped_;
    return std::move(s.item);
  }

  /// O(1): the difference of a writer-side and a reader-side count (no
  /// counter is shared by both ends), read by the reader's quiescence
  /// check after the cycle's phases.
  std::size_t in_flight() const noexcept override {
    return static_cast<std::size_t>(pushed_ - popped_);
  }

 private:
  struct Slot {
    T item{};
    bool valid = false;
  };

  int latency_;
  const std::uint64_t* clock_;
  std::array<Slot, 4> inline_{};
  std::vector<Slot> spill_;  ///< the ring when it outgrows `inline_`
  Slot* slots_ = inline_.data();
  std::uint64_t mask_ = 0;
  std::uint64_t pushed_ = 0;  ///< writer side
  std::uint64_t last_push_ = kNoCycle;  ///< writer side
  std::uint64_t popped_ = 0;  ///< reader side
};

template <typename T>
class CdcFifo final : public Channel<T> {
 public:
  /// `ready_delay` — reader cycles between push and the item becoming
  /// poppable (link pipeline + synchronizer). `capacity` — occupancy bound
  /// the credit loop guarantees (violations are invariant failures, not
  /// backpressure: the NoC's credits must already prevent them) and the
  /// size of the fixed ring. `reader_clock` — the reader's cycle counter; it
  /// must outlive the fifo.
  CdcFifo(int ready_delay, int capacity, const std::uint64_t* reader_clock)
      : ready_delay_(ready_delay), clock_(reader_clock) {
    if (ready_delay < 1) throw std::invalid_argument("CdcFifo: ready_delay must be >= 1");
    if (capacity < 1) throw std::invalid_argument("CdcFifo: capacity must be >= 1");
    if (reader_clock == nullptr) throw std::invalid_argument("CdcFifo: null clock");
    ring_.resize(static_cast<std::size_t>(capacity));
  }

  int ready_delay() const noexcept { return ready_delay_; }

  /// Writer-domain side: any number of pushes may land between two reader
  /// cycles (the domains are asynchronous); FIFO order is preserved.
  void push(T item) override {
    NOCDVFS_ASSERT(pushed_ - popped_ < ring_.size(),
                   "CdcFifo: occupancy exceeds the credit bound");
    ring_[tail_] = Slot{std::move(item), *clock_ + static_cast<std::uint64_t>(ready_delay_)};
    if (++tail_ == ring_.size()) tail_ = 0;
    ++pushed_;
  }

  std::optional<T> pop() override {
    const std::uint64_t now = *clock_;
    if (now == last_pop_ || popped_ == pushed_) return std::nullopt;
    Slot& front = ring_[head_];
    if (now < front.ready_cycle) return std::nullopt;
    last_pop_ = now;
    if (++head_ == ring_.size()) head_ = 0;
    ++popped_;
    return std::move(front.item);
  }

  std::size_t in_flight() const noexcept override {
    return static_cast<std::size_t>(pushed_ - popped_);
  }

 private:
  struct Slot {
    T item{};
    std::uint64_t ready_cycle = 0;  ///< reader cycle at which the item is stable
  };

  int ready_delay_;
  const std::uint64_t* clock_;
  std::vector<Slot> ring_;  ///< `capacity` slots
  std::size_t tail_ = 0;      ///< writer side: next slot to fill
  std::uint64_t pushed_ = 0;  ///< writer side
  std::size_t head_ = 0;      ///< reader side: oldest item
  std::uint64_t popped_ = 0;  ///< reader side
  std::uint64_t last_pop_ = kNoCycle;  ///< reader side
};

// Concrete intra-domain links (the common case, and what unit tests build).
using FlitChannel = DelayLine<Flit>;
using CreditChannel = DelayLine<Credit>;

// Port-facing interface types routers and NIs are wired with.
using FlitPort = Channel<Flit>;
using CreditPort = Channel<Credit>;

using FlitCdcFifo = CdcFifo<Flit>;
using CreditCdcFifo = CdcFifo<Credit>;

}  // namespace nocdvfs::noc
