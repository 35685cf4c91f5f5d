// The expected-benefit algorithm (paper Figure 5).
//
// Modeling insight (§3.5): the benefit of (re)moving a problematic
// operation is NOT its duration — removing a wait lets the next
// synchronization grow to absorb the freed time (Figure 4's
// limited-benefit case). With only the CPU graph, the achievable benefit
// of removing a wait is bounded by how much CPU-side work (CWork +
// CLaunch) sits between it and the next synchronization: that work is
// the most the GPU could have been kept busy, hence the most idle time
// that can contract.
//
// The three problem-type transforms follow the pseudocode exactly:
//   RemoveSyncronization    benefit = min(est-max-GPU-idle, wait);
//                           overflow is added to the next sync's wait
//                           (this += is also what carries unrealized
//                           savings forward through a sequence, §3.5.2)
//   MoveSynchronization     benefit = FirstUseTime; the wait shrinks by
//                           FirstUseTime (optionally capped at the wait
//                           duration — the paper's pseudocode is uncapped;
//                           see BenefitOptions)
//   RemoveMemoryTransfer    benefit = the CLaunch duration, removed
#pragma once

#include <span>
#include <vector>

#include "core/graph.h"

namespace diog::ffm {

struct BenefitOptions {
  // Cap a misplaced synchronization's benefit at its wait duration.
  // Figure 5's pseudocode returns FirstUseTime uncapped; the cap is the
  // physically-meaningful variant and the default here. The ablation
  // bench contrasts the two.
  bool cap_misplaced_at_duration = true;
};

struct NodeBenefit {
  std::size_t node = 0;
  Duration benefit{0};
  ProblemType problem = ProblemType::kNone;
};

struct BenefitReport {
  std::vector<NodeBenefit> per_node;
  Duration total{0};
  Duration sync_benefit{0};      // unnecessary + misplaced syncs
  Duration transfer_benefit{0};  // unnecessary transfers

  [[nodiscard]] Duration benefit_of(std::size_t node_index) const;
};

// The individual transforms of Figure 5. Each rewrites `d`, a replay's
// copy of g.durations() (the only state Figure 5 mutates), and returns
// node i's estimated benefit. Exposed for unit tests and the figure
// benches.
Duration remove_synchronization(const ExecutionGraph& g,
                                std::vector<Duration>& d, std::size_t i);
Duration move_synchronization(const ExecutionGraph& g,
                              std::vector<Duration>& d, std::size_t i,
                              const BenefitOptions& opts);
Duration remove_memory_transfer(const ExecutionGraph& g,
                                std::vector<Duration>& d, std::size_t i);

// ExpectedBenefit over every problematic node, in graph order, replayed
// on a copy of the graph's durations.
BenefitReport expected_benefit(const ExecutionGraph& g,
                               const BenefitOptions& opts = {});

// ExpectedBenefit restricted to a subset of problematic node indices
// (must be sorted ascending). Other problematic nodes are treated as
// left unfixed. This powers group, sequence and subsequence estimates —
// including the paper's "evaluate a subsequence without additional data
// collection".
BenefitReport expected_benefit_subset(const ExecutionGraph& g,
                                      std::span<const std::size_t> nodes,
                                      const BenefitOptions& opts = {});

}  // namespace diog::ffm
