// The application execution graph of §3.5.
//
// The paper models execution as G = (N, V) with CPU and GPU node sets;
// its key insight is that the expected-benefit estimate needs only the
// CPU side ("an effective estimate ... can be made with only the CPU
// graph"). The CPU side is a chain of nodes in time order, each carrying
// the paper's attributes (NType, STime, Problem, FirstUseTime) plus the
// label of its out-edge to the next CPU node (Duration) — in a chain,
// OutCPUEdge(N).duration is simply N.duration.
//
// Construction from a stage-2 trace:
//   * each traced call contributes a CLaunch node for its non-blocked
//     portion (setup + asynchronous submission) and, if it blocked, a
//     CWait node for the blocked portion;
//   * the gap between consecutive traced calls becomes a CWork node
//     (pure CPU computation, which subsumes untraced cheap calls such as
//     cudaLaunchKernel — Diogenes deliberately collects nothing on
//     calls that neither synchronize nor transfer);
//   * a zero-duration terminal CWait marks program exit (the implicit
//     join with the device).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/model.h"
#include "eventstore/run.h"

namespace diog::ffm {

enum class NType : std::uint8_t { kCWork, kCLaunch, kCWait };
std::string_view to_string(NType t);

struct Node {
  NType type = NType::kCWork;
  ProblemType problem = ProblemType::kNone;
  // Provenance (absent for synthesized CWork / terminal nodes). `stack`
  // is the run's interned stack id: it indexes the owning graph's stack
  // table (ExecutionGraph::stack_of), so a node holds no heap data.
  hooks::Fn api = hooks::Fn::kCount_;
  evstore::StackId stack = evstore::kEmptyStack;
  std::int64_t op_index = -1;

  TimePoint stime{0};
  Duration duration{0};  // the out-CPU-edge label
  Duration first_use_time{0};

  [[nodiscard]] bool is_sync_node() const { return type == NType::kCWait; }
  [[nodiscard]] bool is_problematic() const {
    return problem != ProblemType::kNone;
  }
};

class ExecutionGraph {
 public:
  ExecutionGraph() = default;
  // `stacks` is the table Node::stack indexes (entry 0, the empty stack,
  // may be omitted). A graph is immutable once built: the benefit
  // replays rewrite a copy of durations(), never the nodes.
  explicit ExecutionGraph(std::vector<Node> nodes, Duration exec_time,
                          std::vector<trace::StackTrace> stacks = {});

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Duration exec_time() const { return exec_time_; }

  // The provenance stack of `n` (empty when absent or out of the table).
  [[nodiscard]] const trace::StackTrace& stack_of(const Node& n) const;

  // Every node's duration, in node order: the edge labels Figure 5's
  // transforms rewrite. A replay copies this array, not the graph.
  [[nodiscard]] const std::vector<Duration>& durations() const {
    return durations_;
  }

  // GetNextSyncNode(Node): index of the next CWait node strictly after
  // `i`, or nullopt (callers treat program exit as an implicit join).
  [[nodiscard]] std::optional<std::size_t> next_sync_after(
      std::size_t i) const;

  // SumDuration(CPUNodesBetween(a, b, CLaunch|CWork)): total duration of
  // the non-waiting nodes strictly between indices a and b — the paper's
  // upper bound on how much GPU idle time can contract. `durations`
  // (indexed like nodes()) is a replay's current edge labels; the
  // two-argument form reads the graph's own.
  [[nodiscard]] Duration work_between(
      std::size_t a, std::size_t b,
      std::span<const Duration> durations) const;
  [[nodiscard]] Duration work_between(std::size_t a, std::size_t b) const {
    return work_between(a, b, durations_);
  }

  // Indices of the problematic nodes, ascending (computed once, at
  // construction).
  [[nodiscard]] const std::vector<std::size_t>& problematic_indices() const {
    return problems_;
  }

  // Sum of all node durations (== exec time when built from a trace).
  [[nodiscard]] Duration total_duration() const;

  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<Node> nodes_;
  Duration exec_time_{0};
  std::vector<trace::StackTrace> stacks_;
  std::vector<Duration> durations_;
  std::vector<std::size_t> problems_;
};

// A graph's stack table for nodes that carry `dict`'s ids: every
// interned stack, indexed by its id (a run has a few dozen).
std::vector<trace::StackTrace> stack_table(const evstore::StackDict& dict);

// Assemble the graph from a run. kOp events provide timing and node
// structure; kSyncClassification events classify problems; kSyncUse
// events supply FirstUseTime. `misplaced_threshold` separates
// required-but-misplaced synchronizations from healthy ones. This is the
// primary construction path: it consumes the event store through typed
// cursors, so it works identically on a live run and on one reopened
// from disk.
ExecutionGraph build_graph(const evstore::TraceRun& run,
                           Duration misplaced_threshold);

// Legacy-shape adapter: assembles a transient run from the stage values
// and delegates to the cursor-based builder above.
ExecutionGraph build_graph(const Stage2Result& s2, const Stage3Result& s3,
                           const Stage4Result& s4,
                           Duration misplaced_threshold);

}  // namespace diog::ffm
