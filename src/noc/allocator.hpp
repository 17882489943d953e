#pragma once

/// \file allocator.hpp
/// Separable input-first allocator (iSLIP-style, single iteration): the
/// matching engine behind VC allocation. Agents (input VCs) request
/// resources (output VCs); each agent first narrows to one resource via a
/// private rotating pointer, then per-resource round-robin arbiters resolve
/// conflicts. Pointers advance only on a final grant, preserving the
/// starvation-freedom argument of iSLIP.
///
/// Resources come in groups of `group_width` <= 64 (one group per router
/// output port, one resource per output VC), numbered `group *
/// group_width + bit`. An agent files at most one request per round: a
/// bitmask over the resources of a single group — a VC requests output VCs
/// of the one port its route chose.

#include <cstdint>
#include <utility>
#include <vector>

namespace nocdvfs::noc {

class SeparableAllocator {
 public:
  SeparableAllocator(int num_agents, int num_groups, int group_width);

  int num_agents() const noexcept { return num_agents_; }
  int num_resources() const noexcept { return num_resources_; }

  /// Register that `agent` could use any resource `group * group_width +
  /// b` with bit b set in `mask` this round (mask != 0, one call per agent
  /// per round).
  void add_request(int agent, int group, std::uint64_t mask);

  /// Run one allocation round; returns (agent, resource) grants in the
  /// order their resources were first claimed. Each agent receives at most
  /// one resource and vice versa. Requests are consumed.
  const std::vector<std::pair<int, int>>& allocate();

  void clear_requests();

 private:
  struct Request {
    int agent;
    int group;
    std::uint64_t mask;
  };

  int num_agents_;
  int group_width_;
  int num_resources_;
  std::vector<Request> requests_;             ///< this round, in filing order
  std::vector<int> agent_ptr_;                ///< per-agent rotating resource pointer
  std::vector<int> resource_ptr_;             ///< per-resource rotating agent pointer
  std::vector<int> resource_winner_;          ///< scratch: chosen agent per resource
  std::vector<int> resource_claimants_;       ///< scratch: resources contended this round
  std::vector<std::uint8_t> agent_requested_;  ///< scratch: one request per agent per round
  std::vector<std::pair<int, int>> grants_;
};

}  // namespace nocdvfs::noc
