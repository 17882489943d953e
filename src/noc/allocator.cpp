#include "noc/allocator.hpp"

#include <bit>
#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::noc {

SeparableAllocator::SeparableAllocator(int num_agents, int num_groups, int group_width)
    : num_agents_(num_agents), group_width_(group_width), num_resources_(num_groups * group_width) {
  if (num_agents <= 0 || num_groups <= 0 || group_width <= 0) {
    throw std::invalid_argument("SeparableAllocator: sizes must be positive");
  }
  if (group_width > 64) {
    throw std::invalid_argument("SeparableAllocator: group_width must be <= 64");
  }
  agent_ptr_.assign(static_cast<std::size_t>(num_agents), 0);
  resource_ptr_.assign(static_cast<std::size_t>(num_resources_), 0);
  resource_winner_.assign(static_cast<std::size_t>(num_resources_), -1);
  agent_requested_.assign(static_cast<std::size_t>(num_agents), 0);
  requests_.reserve(static_cast<std::size_t>(num_agents));
  resource_claimants_.reserve(static_cast<std::size_t>(num_resources_));
}

void SeparableAllocator::add_request(int agent, int group, std::uint64_t mask) {
  NOCDVFS_ASSERT(agent >= 0 && agent < num_agents_, "allocator agent out of range");
  NOCDVFS_ASSERT(group >= 0 && group * group_width_ < num_resources_,
                 "allocator group out of range");
  NOCDVFS_ASSERT(mask != 0 && (group_width_ == 64 || (mask >> group_width_) == 0),
                 "allocator request mask empty or wider than the group");
  NOCDVFS_ASSERT(!agent_requested_[static_cast<std::size_t>(agent)],
                 "allocator agent filed two requests in one round");
  agent_requested_[static_cast<std::size_t>(agent)] = 1;
  requests_.push_back(Request{agent, group, mask});
}

const std::vector<std::pair<int, int>>& SeparableAllocator::allocate() {
  grants_.clear();

  // Stage 1 (input arbitration): each agent picks the requested resource
  // closest at-or-after its rotating pointer (cyclically over all
  // resources). Within one group that is the lowest requested bit at or
  // above the pointer when the pointer falls inside the group, else — the
  // pointer lies before the group, or the wrap-around is shorter — the
  // lowest requested bit.
  // Stage 2 (output arbitration): each contended resource picks the agent
  // closest at-or-after its rotating pointer among stage-1 claimants.
  for (const Request& req : requests_) {
    const int base = req.group * group_width_;
    const int off = agent_ptr_[static_cast<std::size_t>(req.agent)] - base;
    std::uint64_t pick = req.mask;
    if (off > 0 && off < group_width_) {
      const std::uint64_t above = req.mask & (~std::uint64_t{0} << off);
      if (above != 0) pick = above;
    }
    const int best = base + std::countr_zero(pick);
    const auto rbest = static_cast<std::size_t>(best);
    if (resource_winner_[rbest] == -1) {
      resource_winner_[rbest] = req.agent;
      resource_claimants_.push_back(best);
    } else {
      // Contention: keep the agent nearest the resource's rotating pointer.
      const int incumbent = resource_winner_[rbest];
      const int rptr = resource_ptr_[rbest];
      int d_new = req.agent - rptr;
      if (d_new < 0) d_new += num_agents_;
      int d_old = incumbent - rptr;
      if (d_old < 0) d_old += num_agents_;
      if (d_new < d_old) resource_winner_[rbest] = req.agent;
    }
  }

  for (const int resource : resource_claimants_) {
    const int agent = resource_winner_[static_cast<std::size_t>(resource)];
    NOCDVFS_ASSERT(agent >= 0, "claimed resource without winner");
    grants_.emplace_back(agent, resource);
    // iSLIP pointer update: only on grant, move past the served party.
    agent_ptr_[static_cast<std::size_t>(agent)] = resource + 1 == num_resources_ ? 0 : resource + 1;
    resource_ptr_[static_cast<std::size_t>(resource)] = agent + 1 == num_agents_ ? 0 : agent + 1;
    resource_winner_[static_cast<std::size_t>(resource)] = -1;
  }
  resource_claimants_.clear();
  clear_requests();
  return grants_;
}

void SeparableAllocator::clear_requests() {
  for (const Request& req : requests_) agent_requested_[static_cast<std::size_t>(req.agent)] = 0;
  requests_.clear();
  for (const int resource : resource_claimants_) {
    resource_winner_[static_cast<std::size_t>(resource)] = -1;
  }
  resource_claimants_.clear();
}

}  // namespace nocdvfs::noc
