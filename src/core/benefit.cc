#include "core/benefit.h"

#include <algorithm>

#include "support/error.h"

namespace diog::ffm {

Duration BenefitReport::benefit_of(std::size_t node_index) const {
  for (const NodeBenefit& nb : per_node) {
    if (nb.node == node_index) return nb.benefit;
  }
  return Duration{0};
}

Duration remove_synchronization(const ExecutionGraph& g,
                                std::vector<Duration>& d, std::size_t i) {
  DIOG_CHECK(i < g.size() && d.size() == g.size() &&
                 g.nodes()[i].is_sync_node(),
             "remove_synchronization on a non-sync node");
  const std::optional<std::size_t> next = g.next_sync_after(i);
  const std::size_t end = next.value_or(g.size());

  // EstMaxGPUIdle: all CLaunch/CWork duration between this sync and the
  // next — the upper bound on GPU idle contraction (Fig 5 line 16).
  const Duration est_max_idle = g.work_between(i, end, d);
  const Duration benefit = std::min(est_max_idle, d[i]);

  // The next synchronization absorbs what could not be saved (line 19).
  if (next.has_value()) {
    const Duration overflow = d[i] - benefit;
    if (overflow > Duration{0}) d[*next] += overflow;
  }
  d[i] = Duration{0};  // line 21
  return benefit;
}

Duration move_synchronization(const ExecutionGraph& g,
                              std::vector<Duration>& d, std::size_t i,
                              const BenefitOptions& opts) {
  DIOG_CHECK(i < g.size() && d.size() == g.size() &&
                 g.nodes()[i].is_sync_node(),
             "move_synchronization on a non-sync node");
  const Duration first_use = g.nodes()[i].first_use_time;
  Duration benefit = first_use;  // line 25
  if (opts.cap_misplaced_at_duration) benefit = std::min(benefit, d[i]);
  // line 26: the wait shrinks by the first-use gap.
  d[i] = std::max(Duration{0}, d[i] - first_use);
  return benefit;
}

Duration remove_memory_transfer(const ExecutionGraph& g,
                                std::vector<Duration>& d, std::size_t i) {
  DIOG_CHECK(i < g.size() && d.size() == g.size(), "bad node index");
  const Duration benefit = d[i];  // line 31
  d[i] = Duration{0};             // line 32
  return benefit;
}

namespace {

BenefitReport evaluate(const ExecutionGraph& g,
                       std::span<const std::size_t> targets,
                       const BenefitOptions& opts) {
  std::vector<Duration> d = g.durations();
  BenefitReport report;
  report.per_node.reserve(targets.size());
  for (const std::size_t i : targets) {
    const ProblemType problem = g.nodes()[i].problem;
    Duration b{0};
    switch (problem) {
      case ProblemType::kUnnecessarySync:
        b = remove_synchronization(g, d, i);
        break;
      case ProblemType::kMisplacedSync:
        b = move_synchronization(g, d, i, opts);
        break;
      case ProblemType::kUnnecessaryTransfer:
        b = remove_memory_transfer(g, d, i);
        break;
      case ProblemType::kNone:
        continue;
    }
    report.per_node.push_back(NodeBenefit{i, b, problem});
    report.total += b;
    if (problem == ProblemType::kUnnecessaryTransfer) {
      report.transfer_benefit += b;
    } else {
      report.sync_benefit += b;
    }
  }
  return report;
}

}  // namespace

BenefitReport expected_benefit(const ExecutionGraph& g,
                               const BenefitOptions& opts) {
  return evaluate(g, g.problematic_indices(), opts);
}

BenefitReport expected_benefit_subset(const ExecutionGraph& g,
                                      std::span<const std::size_t> nodes,
                                      const BenefitOptions& opts) {
  DIOG_CHECK(std::is_sorted(nodes.begin(), nodes.end()),
             "subset indices must be sorted (graph order)");
  return evaluate(g, nodes, opts);
}

}  // namespace diog::ffm
