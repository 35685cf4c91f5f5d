#include <gtest/gtest.h>

#include "core/benefit.h"

#include <optional>

#include "core/groupings.h"
#include "support/error.h"
#include "support/rng.h"

namespace diog::ffm {
namespace {

Node work(Duration d) {
  Node n;
  n.type = NType::kCWork;
  n.duration = d;
  return n;
}

Node launch(Duration d, ProblemType p = ProblemType::kNone) {
  Node n;
  n.type = NType::kCLaunch;
  n.duration = d;
  n.problem = p;
  return n;
}

Node wait(Duration d, ProblemType p = ProblemType::kNone,
          Duration first_use = Duration{0}) {
  Node n;
  n.type = NType::kCWait;
  n.duration = d;
  n.problem = p;
  n.first_use_time = first_use;
  return n;
}

ExecutionGraph make_graph(std::vector<Node> nodes,
                          std::vector<trace::StackTrace> stacks = {}) {
  Duration total{0};
  TimePoint t{0};
  for (Node& n : nodes) {
    n.stime = t;
    t += n.duration;
    total += n.duration;
  }
  return ExecutionGraph(std::move(nodes), total, std::move(stacks));
}

// --- The Figure 4 scenarios ---------------------------------------------------
// Both remove a CWait of identical duration (18 units); the surrounding
// structure decides whether the removal pays.

constexpr Duration u(int v) { return ms(v); }  // "1 unit" = 1 ms

TEST(Fig4, LargeBenefitWhenWorkFillsTheGap) {
  // CWork(5) CLaunch(1) [CWait 18 *unnecessary*] CWork(10) CLaunch(1)
  // CWork(10) CWait(4 healthy) ...
  // Between the removed wait and the next sync sit 21 units of CPU work:
  // the GPU can stay busy the whole time, so the full 18 come back.
  ExecutionGraph g = make_graph({
      work(u(5)),
      launch(u(1)),
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(10)),
      launch(u(1)),
      work(u(10)),
      wait(u(4)),
      work(u(4)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(18));
}

TEST(Fig4, SmallBenefitWhenNextWaitGrows) {
  // Identical removed wait (18), but only 3 units of CPU work before the
  // next synchronization: the next wait absorbs the other 15.
  ExecutionGraph g = make_graph({
      work(u(5)),
      launch(u(1)),
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(2)),
      launch(u(1)),
      wait(u(10)),
      work(u(7)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(3));
}

TEST(Fig4, NextWaitDurationGrowsByUnrealizedPortion) {
  ExecutionGraph g = make_graph({
      wait(u(18), ProblemType::kUnnecessarySync),
      work(u(3)),
      wait(u(10)),
      wait(Duration{0}),
  });
  std::vector<Duration> d = g.durations();
  (void)remove_synchronization(g, d, 0);
  EXPECT_EQ(d[0], Duration{0});
  EXPECT_EQ(d[2], u(25));  // 10 + (18 - 3)
}

// --- RemoveSyncronization (Figure 5 lines 15-22) ---------------------------------

TEST(RemoveSync, BenefitCappedByWaitDuration) {
  ExecutionGraph g = make_graph({
      wait(u(2), ProblemType::kUnnecessarySync),
      work(u(50)),
      wait(u(1)),
      wait(Duration{0}),
  });
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(remove_synchronization(g, d, 0), u(2));
  EXPECT_EQ(d[2], u(1));  // no overflow
}

TEST(RemoveSync, NoWorkMeansNoBenefit) {
  ExecutionGraph g = make_graph({
      wait(u(9), ProblemType::kUnnecessarySync),
      wait(u(1)),
      wait(Duration{0}),
  });
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(remove_synchronization(g, d, 0), Duration{0});
  EXPECT_EQ(d[1], u(10));  // full overflow
}

TEST(RemoveSync, NoNextSyncUsesEndOfProgram) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(7)),
  });
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(remove_synchronization(g, d, 0), u(5));
}

TEST(RemoveSync, OnNonSyncNodeThrows) {
  ExecutionGraph g = make_graph({work(u(1))});
  std::vector<Duration> d = g.durations();
  EXPECT_THROW((void)remove_synchronization(g, d, 0), Error);
}

// --- MoveSynchronization (misplaced; Figure 5 lines 24-27) -------------------------

TEST(MoveSync, BenefitIsFirstUseTime) {
  ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kMisplacedSync, /*first_use=*/u(4)),
      wait(Duration{0}),
  });
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(move_synchronization(g, d, 0, {}), u(4));
  EXPECT_EQ(d[0], u(6));  // wait shrinks by first-use
}

TEST(MoveSync, CappedVariantLimitsToWaitDuration) {
  ExecutionGraph g = make_graph({
      wait(u(3), ProblemType::kMisplacedSync, /*first_use=*/u(10)),
      wait(Duration{0}),
  });
  BenefitOptions capped;
  capped.cap_misplaced_at_duration = true;
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(move_synchronization(g, d, 0, capped), u(3));
  EXPECT_EQ(d[0], Duration{0});
}

TEST(MoveSync, UncappedVariantIsPaperFaithful) {
  ExecutionGraph g = make_graph({
      wait(u(3), ProblemType::kMisplacedSync, /*first_use=*/u(10)),
      wait(Duration{0}),
  });
  BenefitOptions paper;
  paper.cap_misplaced_at_duration = false;
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(move_synchronization(g, d, 0, paper), u(10));
  EXPECT_EQ(d[0], Duration{0});  // max(0, 3-10)
}

// --- RemoveMemoryTransfer (Figure 5 lines 29-32) -------------------------------------

TEST(RemoveTransfer, BenefitIsLaunchDuration) {
  ExecutionGraph g = make_graph({
      launch(u(2), ProblemType::kUnnecessaryTransfer),
      wait(Duration{0}),
  });
  std::vector<Duration> d = g.durations();
  EXPECT_EQ(remove_memory_transfer(g, d, 0), u(2));
  EXPECT_EQ(d[0], Duration{0});
}

// --- ExpectedBenefit (whole-graph pass) -----------------------------------------------

TEST(ExpectedBenefit, MixedProblemsAccumulateByKind) {
  ExecutionGraph g = make_graph({
      launch(u(2), ProblemType::kUnnecessaryTransfer),
      work(u(5)),
      wait(u(3), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(u(6), ProblemType::kMisplacedSync, u(1)),
      work(u(2)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.transfer_benefit, u(2));
  EXPECT_EQ(r.sync_benefit, u(3) + u(1));
  EXPECT_EQ(r.total, u(6));
  EXPECT_EQ(r.per_node.size(), 3u);
  EXPECT_EQ(r.benefit_of(0), u(2));
  EXPECT_EQ(r.benefit_of(2), u(3));
  EXPECT_EQ(r.benefit_of(4), u(1));
  EXPECT_EQ(r.benefit_of(6), Duration{0});  // non-problem node
}

TEST(ExpectedBenefit, EvaluationOrderPropagatesThroughChain) {
  // Three back-to-back unnecessary waits; work only at the end. The
  // overflow must flow through the chain and be recovered by the last
  // window.
  ExecutionGraph g = make_graph({
      wait(u(4), ProblemType::kUnnecessarySync),
      wait(u(4), ProblemType::kUnnecessarySync),
      wait(u(4), ProblemType::kUnnecessarySync),
      work(u(100)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.total, u(12));
}

TEST(ExpectedBenefit, TransferRemovalShrinksLaterWindows) {
  // A problematic transfer inside a later sync's window: once removed,
  // the window shrinks and the sync recovers less.
  ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kUnnecessarySync),
      launch(u(6), ProblemType::kUnnecessaryTransfer),
      work(u(1)),
      wait(u(5)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  // Evaluation order is graph order: the wait sees the launch still
  // present (window 7) -> 7; then the transfer recovers its 6.
  EXPECT_EQ(r.benefit_of(0), u(7));
  EXPECT_EQ(r.benefit_of(1), u(6));
}

TEST(ExpectedBenefitSubset, OnlySelectedNodesEvaluated) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(u(7), ProblemType::kUnnecessarySync),
      work(u(10)),
      wait(Duration{0}),
  });
  const std::vector<std::size_t> only{2};
  const BenefitReport r = expected_benefit_subset(g, only);
  EXPECT_EQ(r.total, u(7));
  EXPECT_EQ(r.per_node.size(), 1u);
}

TEST(ExpectedBenefitSubset, UnsortedSubsetRejected) {
  ExecutionGraph g = make_graph({
      wait(u(5), ProblemType::kUnnecessarySync),
      wait(u(5), ProblemType::kUnnecessarySync),
  });
  const std::vector<std::size_t> bad{1, 0};
  EXPECT_THROW((void)expected_benefit_subset(g, bad), Error);
}

TEST(ExpectedBenefit, EmptyGraphNoBenefit) {
  const BenefitReport r = expected_benefit(ExecutionGraph{});
  EXPECT_EQ(r.total, Duration{0});
  EXPECT_TRUE(r.per_node.empty());
}

// Figure 5 as written: the transforms rewrite the durations of a copy of
// the graph's nodes in place, in the order given. The durations-array
// replay must reproduce it exactly. `left` receives the durations the
// replay leaves behind.
BenefitReport reference_replay(const ExecutionGraph& g,
                               const std::vector<std::size_t>& targets,
                               const BenefitOptions& opts = {},
                               std::vector<Duration>* left = nullptr) {
  std::vector<Node> nodes = g.nodes();
  BenefitReport r;
  for (const std::size_t i : targets) {
    Node& n = nodes[i];
    Duration b{0};
    switch (n.problem) {
      case ProblemType::kUnnecessarySync: {
        std::optional<std::size_t> next;
        for (std::size_t j = i + 1; j < nodes.size() && !next; ++j) {
          if (nodes[j].type == NType::kCWait) next = j;
        }
        Duration idle{0};
        for (std::size_t j = i + 1; j < next.value_or(nodes.size()); ++j) {
          if (nodes[j].type != NType::kCWait) idle += nodes[j].duration;
        }
        b = std::min(idle, n.duration);
        if (next && n.duration > b) nodes[*next].duration += n.duration - b;
        n.duration = Duration{0};
        break;
      }
      case ProblemType::kMisplacedSync:
        b = n.first_use_time;
        if (opts.cap_misplaced_at_duration) b = std::min(b, n.duration);
        n.duration = std::max(Duration{0}, n.duration - n.first_use_time);
        break;
      case ProblemType::kUnnecessaryTransfer:
        b = n.duration;
        n.duration = Duration{0};
        break;
      case ProblemType::kNone:
        continue;
    }
    r.per_node.push_back(NodeBenefit{i, b, n.problem});
    r.total += b;
    (n.problem == ProblemType::kUnnecessaryTransfer ? r.transfer_benefit
                                                    : r.sync_benefit) += b;
  }
  if (left != nullptr) {
    left->clear();
    for (const Node& n : nodes) left->push_back(n.duration);
  }
  return r;
}

// The same targets, in the same order, through the public primitives on
// one durations array.
BenefitReport primitive_replay(const ExecutionGraph& g,
                               const std::vector<std::size_t>& targets,
                               const BenefitOptions& opts,
                               std::vector<Duration>& d) {
  d = g.durations();
  BenefitReport r;
  for (const std::size_t i : targets) {
    const ProblemType p = g.nodes()[i].problem;
    Duration b{0};
    if (p == ProblemType::kUnnecessarySync) {
      b = remove_synchronization(g, d, i);
    } else if (p == ProblemType::kMisplacedSync) {
      b = move_synchronization(g, d, i, opts);
    } else if (p == ProblemType::kUnnecessaryTransfer) {
      b = remove_memory_transfer(g, d, i);
    } else {
      continue;
    }
    r.per_node.push_back(NodeBenefit{i, b, p});
    r.total += b;
    (p == ProblemType::kUnnecessaryTransfer ? r.transfer_benefit
                                            : r.sync_benefit) += b;
  }
  return r;
}

void expect_same_report(const BenefitReport& got, const BenefitReport& want) {
  ASSERT_EQ(got.per_node.size(), want.per_node.size());
  for (std::size_t k = 0; k < got.per_node.size(); ++k) {
    EXPECT_EQ(got.per_node[k].node, want.per_node[k].node);
    EXPECT_EQ(got.per_node[k].benefit, want.per_node[k].benefit);
    EXPECT_EQ(got.per_node[k].problem, want.per_node[k].problem);
  }
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.sync_benefit, want.sync_benefit);
  EXPECT_EQ(got.transfer_benefit, want.transfer_benefit);
}

// --- The durations replay against Figure 5 as written -------------------------------
// Hand-built cases for the interactions a durations-only replay could
// get wrong.

TEST(DurationsReplay, OverflowIsAbsorbedByTheNextSync) {
  // The first removal recovers only 2 of its 10; the other 8 land on
  // the next (also unnecessary) wait, which then recovers 5 + 8.
  const ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kUnnecessarySync),
      work(u(2)),
      wait(u(5), ProblemType::kUnnecessarySync),
      work(u(100)),
      wait(Duration{0}),
  });
  const BenefitReport r = expected_benefit(g);
  EXPECT_EQ(r.benefit_of(0), u(2));
  EXPECT_EQ(r.benefit_of(2), u(13));
  expect_same_report(r, reference_replay(g, g.problematic_indices()));
  // g itself is untouched: a replay rewrites a copy of its durations.
  EXPECT_EQ(g.durations()[2], u(5));
  EXPECT_EQ(g.nodes()[2].duration, u(5));
}

TEST(DurationsReplay, TransferZeroedBeforeALaterWorkBetween) {
  // Zeroing the transfer first shrinks the wait's window from 7 to 1.
  const ExecutionGraph g = make_graph({
      wait(u(10), ProblemType::kUnnecessarySync),
      launch(u(6), ProblemType::kUnnecessaryTransfer),
      work(u(1)),
      wait(u(5)),
      wait(Duration{0}),
  });
  const std::vector<std::size_t> order{1, 0};
  std::vector<Duration> want;
  std::vector<Duration> got;
  const BenefitReport ref = reference_replay(g, order, {}, &want);
  const BenefitReport r = primitive_replay(g, order, {}, got);
  expect_same_report(r, ref);
  EXPECT_EQ(got, want);
  EXPECT_EQ(r.benefit_of(1), u(6));
  EXPECT_EQ(r.benefit_of(0), u(1));
  EXPECT_EQ(got[3], u(14));  // 5 + (10 - 1)
}

TEST(DurationsReplay, TerminalWaitAbsorbsTheLastOverflow) {
  const ExecutionGraph g = make_graph({
      work(u(4)),
      wait(u(10), ProblemType::kUnnecessarySync),
      work(u(3)),
      wait(Duration{0}),  // program exit
  });
  std::vector<Duration> want;
  std::vector<Duration> got;
  const BenefitReport ref =
      reference_replay(g, g.problematic_indices(), {}, &want);
  expect_same_report(primitive_replay(g, g.problematic_indices(), {}, got),
                     ref);
  expect_same_report(expected_benefit(g), ref);
  EXPECT_EQ(ref.total, u(3));
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.back(), u(7));
}

// --- Property tests over randomized graphs ---------------------------------------------

std::vector<Node> random_nodes(Rng& rng, std::size_t n_nodes) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const int kind = static_cast<int>(rng.next_below(3));
    const Duration d = us(rng.next_in(0, 5000));
    if (kind == 0) {
      nodes.push_back(work(d));
    } else if (kind == 1) {
      nodes.push_back(launch(
          d, rng.next_bool(0.3) ? ProblemType::kUnnecessaryTransfer
                                : ProblemType::kNone));
    } else {
      ProblemType p = ProblemType::kNone;
      Duration first_use{0};
      const int roll = static_cast<int>(rng.next_below(3));
      if (roll == 1) {
        p = ProblemType::kUnnecessarySync;
      } else if (roll == 2) {
        p = ProblemType::kMisplacedSync;
        first_use = us(rng.next_in(0, 2000));
      }
      nodes.push_back(wait(d, p, first_use));
    }
  }
  nodes.push_back(wait(Duration{0}));  // terminal join
  return nodes;
}

ExecutionGraph random_graph(Rng& rng, std::size_t n_nodes) {
  return make_graph(random_nodes(rng, n_nodes));
}

class BenefitPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenefitPropertyTest, InvariantsHoldOnRandomGraphs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionGraph g = random_graph(rng, 1 + rng.next_below(60));
    const Duration exec = g.total_duration();
    const BenefitReport r = expected_benefit(g);

    // Benefit is never negative and never exceeds total execution time
    // (with capped misplaced handling, the default).
    EXPECT_GE(r.total.count(), 0);
    EXPECT_LE(r.total, exec);
    EXPECT_EQ(r.total, r.sync_benefit + r.transfer_benefit);

    // Per-node benefits are individually sane.
    Duration sum{0};
    for (const NodeBenefit& nb : r.per_node) {
      EXPECT_GE(nb.benefit.count(), 0);
      sum += nb.benefit;
      EXPECT_NE(nb.problem, ProblemType::kNone);
    }
    EXPECT_EQ(sum, r.total);
  }
}

TEST_P(BenefitPropertyTest, SubsetNeverBeatsFullSet) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int trial = 0; trial < 25; ++trial) {
    const ExecutionGraph g = random_graph(rng, 5 + rng.next_below(40));
    const auto problems = g.problematic_indices();
    if (problems.empty()) continue;

    // Pick a random subset (in order).
    std::vector<std::size_t> subset;
    for (const std::size_t p : problems) {
      if (rng.next_bool(0.5)) subset.push_back(p);
    }
    const Duration full = expected_benefit(g).total;
    const Duration part = expected_benefit_subset(g, subset).total;
    EXPECT_LE(part, full);
  }
}

TEST_P(BenefitPropertyTest, EvaluationIsDeterministic) {
  Rng rng(GetParam() + 17);
  const ExecutionGraph g = random_graph(rng, 30);
  EXPECT_EQ(expected_benefit(g).total, expected_benefit(g).total);
}

TEST_P(BenefitPropertyTest, DurationsReplayMatchesReference) {
  Rng rng(GetParam() * 7919 + 3);
  BenefitOptions paper;
  paper.cap_misplaced_at_duration = false;
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionGraph g = random_graph(rng, 1 + rng.next_below(80));
    const std::vector<std::size_t>& problems = g.problematic_indices();
    std::vector<std::size_t> subset;
    for (const std::size_t p : problems) {
      if (rng.next_bool(0.5)) subset.push_back(p);
    }
    for (const BenefitOptions& opts : {BenefitOptions{}, paper}) {
      expect_same_report(expected_benefit(g, opts),
                         reference_replay(g, problems, opts));
      expect_same_report(expected_benefit_subset(g, subset, opts),
                         reference_replay(g, subset, opts));
    }
  }
}

TEST_P(BenefitPropertyTest, PrimitivesMatchReferenceInAnyOrder) {
  // The primitives take targets in any order (the figure bench applies
  // them one at a time); the array they leave must be Figure 5's too.
  Rng rng(GetParam() * 104729 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionGraph g = random_graph(rng, 1 + rng.next_below(60));
    std::vector<std::size_t> order = g.problematic_indices();
    for (std::size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.next_below(k)]);
    }
    std::vector<Duration> want;
    std::vector<Duration> got;
    const BenefitReport ref = reference_replay(g, order, {}, &want);
    expect_same_report(primitive_replay(g, order, {}, got), ref);
    EXPECT_EQ(got, want);
  }
}

TEST_P(BenefitPropertyTest, ReportOverloadsMatchOneArgumentGroupings) {
  // run_analysis groups its one ExpectedBenefit pass; the one-argument
  // forms replay their own. Both must give the same groups, byte for
  // byte, on graphs with repeated sites.
  Rng rng(GetParam() ^ 0x5EED);
  evstore::StackDict dict;
  std::vector<evstore::StackId> sites{evstore::kEmptyStack};
  for (int k = 0; k < 4; ++k) {
    std::vector<const trace::Frame*> frames{
        trace::FrameTable::instance().intern("main", "app.cc", 1),
        trace::FrameTable::instance().intern(
            k % 2 == 0 ? "solve<float>" : "solve<double>", "s.cc", 10 + k)};
    sites.push_back(dict.intern(trace::StackTrace(std::move(frames))));
  }
  const hooks::Fn apis[] = {hooks::Fn::kCudaFree, hooks::Fn::kCudaMemcpy,
                            hooks::Fn::kCudaDeviceSynchronize};
  BenefitOptions paper;
  paper.cap_misplaced_at_duration = false;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Node> nodes = random_nodes(rng, 10 + rng.next_below(60));
    for (Node& n : nodes) {
      if (!n.is_problematic()) continue;
      n.api = apis[rng.next_below(3)];
      n.stack = sites[rng.next_below(sites.size())];
    }
    const ExecutionGraph g = make_graph(std::move(nodes), stack_table(dict));
    for (const BenefitOptions& opts : {BenefitOptions{}, paper}) {
      const BenefitReport report = expected_benefit(g, opts);
      const auto dump = [](const std::vector<Group>& groups) {
        json::Array arr;
        for (const Group& grp : groups) arr.push_back(grp.to_json());
        return json::Value(std::move(arr)).dump();
      };
      EXPECT_EQ(dump(single_point_groups(g, report)),
                dump(single_point_groups(g, opts)));
      EXPECT_EQ(dump(folded_api_groups(g, report)),
                dump(folded_api_groups(g, opts)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenefitPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace diog::ffm
