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
///    (flits) or the reverse credit wire. Operation per network cycle:
///    `tick()` first (advances the delay line), then the receiver may
///    `pop()` the item due this cycle, then the sender may `push()` a new
///    item. Pushing twice in a cycle, or failing to pop a due flit
///    (credits guarantee buffer space), violates an invariant.
///
///  * `CdcFifo<T>` — a clock-domain-crossing link on an island-boundary
///    edge (see src/vfi/). The writer pushes in its own clock domain at
///    any rate the credit loop allows; `tick()` belongs to the *reader's*
///    clock and an item becomes poppable `ready_delay` reader ticks after
///    it was pushed — the brute-force synchronizer penalty plus the link
///    pipeline. At most one item is delivered per reader tick (the link
///    still has single-flit bandwidth); occupancy is bounded by the credit
///    loop and enforced with an invariant check.

#include <deque>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

/// Type-erased channel surface: the reader-side clock edge and the
/// occupancy query. The Network's skip-idle stepping keeps one flat list
/// of these per node — every channel a node pops from, flit and credit
/// alike — so ticking a node's inputs and testing its quiescence need no
/// knowledge of the payload type. A channel whose reader is asleep is not
/// ticked at all; that is unobservable because both concrete kinds measure
/// delivery delay in *reader ticks since the push* (DelayLine slots are
/// relative to `now_`, CdcFifo ready_ticks to `ticks_`), and wake-on-push
/// guarantees the reader resumes ticking at the first edge after any push.
class ChannelBase {
 public:
  virtual ~ChannelBase() = default;

  /// Reader-domain clock edge.
  virtual void tick() noexcept = 0;
  virtual std::size_t in_flight() const noexcept = 0;
};

template <typename T>
class Channel : public ChannelBase {
 public:
  virtual void push(T item) = 0;
  virtual std::optional<T> pop() = 0;
};

template <typename T>
class DelayLine final : public Channel<T> {
 public:
  explicit DelayLine(int latency) : latency_(latency) {
    if (latency < 1) throw std::invalid_argument("DelayLine: latency must be >= 1");
    slots_.resize(static_cast<std::size_t>(latency) + 1);
  }

  int latency() const noexcept { return latency_; }

  void tick() noexcept override {
    ++now_;
    if (now_ == slots_.size()) now_ = 0;
    pushed_this_cycle_ = false;
  }

  void push(T item) override {
    NOCDVFS_ASSERT(!pushed_this_cycle_, "DelayLine: two pushes in one cycle");
    std::size_t slot = now_ + static_cast<std::size_t>(latency_);
    if (slot >= slots_.size()) slot -= slots_.size();
    NOCDVFS_ASSERT(!slots_[slot].valid, "DelayLine: overwriting undelivered item");
    slots_[slot].item = std::move(item);
    slots_[slot].valid = true;
    pushed_this_cycle_ = true;
    ++occupancy_;
  }

  std::optional<T> pop() noexcept override {
    Slot& s = slots_[now_];
    if (!s.valid) return std::nullopt;
    s.valid = false;
    --occupancy_;
    return std::move(s.item);
  }

  /// O(1): maintained at push/pop, not a slot scan — it runs in every
  /// quiescence check of the reader's node.
  std::size_t in_flight() const noexcept override { return occupancy_; }

 private:
  struct Slot {
    T item{};
    bool valid = false;
  };

  int latency_;
  std::vector<Slot> slots_;
  std::size_t now_ = 0;
  std::size_t occupancy_ = 0;
  bool pushed_this_cycle_ = false;
};

template <typename T>
class CdcFifo final : public Channel<T> {
 public:
  /// `ready_delay` — reader ticks between push and the item becoming
  /// poppable (link pipeline + synchronizer). `capacity` — occupancy bound
  /// the credit loop guarantees (violations are invariant failures, not
  /// backpressure: the NoC's credits must already prevent them).
  CdcFifo(int ready_delay, int capacity) : ready_delay_(ready_delay), capacity_(capacity) {
    if (ready_delay < 1) throw std::invalid_argument("CdcFifo: ready_delay must be >= 1");
    if (capacity < 1) throw std::invalid_argument("CdcFifo: capacity must be >= 1");
  }

  int ready_delay() const noexcept { return ready_delay_; }

  /// Reader-domain clock edge.
  void tick() noexcept override {
    ++ticks_;
    popped_this_tick_ = false;
  }

  /// Writer-domain side: any number of pushes may land between two reader
  /// ticks (the domains are asynchronous); FIFO order is preserved.
  void push(T item) override {
    NOCDVFS_ASSERT(queue_.size() < static_cast<std::size_t>(capacity_),
                   "CdcFifo: occupancy exceeds the credit bound");
    queue_.push_back(Slot{std::move(item), ticks_ + static_cast<std::uint64_t>(ready_delay_)});
  }

  std::optional<T> pop() override {
    if (popped_this_tick_ || queue_.empty() || ticks_ < queue_.front().ready_tick) {
      return std::nullopt;
    }
    popped_this_tick_ = true;
    std::optional<T> out(std::move(queue_.front().item));
    queue_.pop_front();
    return out;
  }

  std::size_t in_flight() const noexcept override { return queue_.size(); }

 private:
  struct Slot {
    T item;
    std::uint64_t ready_tick = 0;  ///< reader tick count at which the item is stable
  };

  int ready_delay_;
  int capacity_;
  std::deque<Slot> queue_;
  std::uint64_t ticks_ = 0;
  bool popped_this_tick_ = false;
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
