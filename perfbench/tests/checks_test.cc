// Every correctness check of the benchmark must be able to fail: each
// test feeds one a deliberately broken input and expects a complaint,
// next to the unbroken input it must accept.
//
// Build and run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.h"
#include "eventstore/aggregate.h"
#include "eventstore/event_store.h"
#include "trace/callstack.h"

namespace pb {
namespace {

namespace ev = diog::evstore;

std::vector<ev::Event> sample_rows() {
  std::vector<ev::Event> rows;
  for (int i = 0; i < 10000; ++i) {
    ev::Event e;
    e.kind = i % 7 == 0 ? ev::EventKind::kSyncUse : ev::EventKind::kOp;
    e.set_fn(i % 3 == 0 ? diog::hooks::Fn::kCudaDeviceSynchronize
                        : diog::hooks::Fn::kCudaMemcpyAsync);
    if (i % 5 == 0) e.set(ev::flag::kPerformedSync);
    e.op_index = static_cast<std::uint64_t>(i);
    e.t_start = i * 100;
    e.t_end = i * 100 + 40;
    e.bytes = static_cast<std::uint64_t>(i) * 8;
    e.stack = 1;
    rows.push_back(e);
  }
  return rows;
}

// A store holding `rows`, with one interned stack (id 1).
void fill(ev::EventStore& s, const std::vector<ev::Event>& rows,
          const char* frame = "main") {
  const diog::trace::Frame* f =
      diog::trace::FrameTable::instance().intern(frame, "t.cc", 1);
  (void)s.intern_stack(diog::trace::StackTrace({f}));
  for (const ev::Event& e : rows) s.append(e);
}

TEST(BenefitBounds, AcceptsValidAndRejectsEachViolation) {
  EXPECT_EQ(check::benefit_bounds(50, 100, {10, 40, 0}), "");
  EXPECT_NE(check::benefit_bounds(0, 100, {0}), "");        // not positive
  EXPECT_NE(check::benefit_bounds(101, 100, {101}), "");    // above exec time
  EXPECT_NE(check::benefit_bounds(50, 100, {60, -10}), "");  // negative node
}

TEST(FixedTwin, RejectsAFixThatSavesNothing) {
  EXPECT_EQ(check::fixed_twin_less("app", 100, 10), "");
  EXPECT_NE(check::fixed_twin_less("app", 100, 100), "");
  EXPECT_NE(check::fixed_twin_less("app", 100, 120), "");
}

TEST(PlantedCounts, RejectsAPredicateCountOffByOne) {
  EXPECT_EQ(check::counts_equal("syncs", 800, 800), "");
  EXPECT_NE(check::counts_equal("syncs", 800, 801), "");
  EXPECT_NE(check::counts_equal("syncs", 800, 799), "");
}

TEST(StoresEqual, RejectsAReopenedStoreWithOneRowChanged) {
  const std::vector<ev::Event> rows = sample_rows();
  ev::EventStore a;
  ev::EventStore b;
  fill(a, rows);
  fill(b, rows);
  EXPECT_EQ(check::stores_equal(a, b), "");

  std::vector<ev::Event> changed = rows;
  changed[4321].t_end += 1;
  ev::EventStore c;
  fill(c, changed);
  EXPECT_NE(check::stores_equal(a, c), "");

  ev::EventStore shorter;
  fill(shorter, std::vector<ev::Event>(rows.begin(), rows.end() - 1));
  EXPECT_NE(check::stores_equal(a, shorter), "");
}

TEST(StoresEqual, RejectsADifferentStackDictionary) {
  const std::vector<ev::Event> rows = sample_rows();
  ev::EventStore a;
  ev::EventStore b;
  fill(a, rows, "main");
  fill(b, rows, "not_main");
  EXPECT_NE(check::stores_equal(a, b), "");
}

TEST(CursorCounts, NaiveLoopAgreesWithTheCursorAndCatchesAnOffByOne) {
  ev::EventStore s;
  fill(s, sample_rows());
  check::Filter f;
  f.kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
  f.api = static_cast<int>(diog::hooks::Fn::kCudaDeviceSynchronize);
  f.flags_all = ev::flag::kPerformedSync;
  f.t_min = 100000;
  f.t_max = 700000;
  const std::uint64_t naive = check::naive_count(s, f);
  ev::Cursor c = f.cursor(s);
  const std::uint64_t cursor = c.count();
  EXPECT_GT(naive, 0u);
  EXPECT_EQ(check::counts_equal(f.describe(), naive, cursor), "");
  EXPECT_NE(check::counts_equal(f.describe(), naive, cursor + 1), "");
}

TEST(BinsCover, RejectsTimelineBinsThatLoseAnEvent) {
  ev::EventStore s;
  fill(s, sample_rows());
  check::Filter lane;
  lane.kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
  lane.t_min = 0;
  lane.t_max = 1000000;
  const std::uint64_t in_range = check::naive_count(s, lane);
  ev::BinnedSpans b = ev::bin_events(
      s, ev::Cursor(s).kind(ev::EventKind::kOp), lane.t_min, lane.t_max, 64);
  EXPECT_EQ(check::bins_cover(b, in_range), "");
  for (ev::TimeBin& bin : b.data) {
    if (bin.count > 0) {
      --bin.count;
      break;
    }
  }
  EXPECT_NE(check::bins_cover(b, in_range), "");
}

TEST(ArchiveMatches, RejectsTamperedMissingAndExtraObjects) {
  const std::map<std::string, check::Blob> pushed = {{"a1", {11, 100}},
                                                     {"b2", {22, 200}}};
  EXPECT_EQ(check::archive_matches(pushed, pushed), "");
  auto tampered = pushed;
  tampered["b2"].hash ^= 1;
  EXPECT_NE(check::archive_matches(pushed, tampered), "");
  auto missing = pushed;
  missing.erase("a1");
  EXPECT_NE(check::archive_matches(pushed, missing), "");
  auto extra = pushed;
  extra["c3"] = {33, 300};
  EXPECT_NE(check::archive_matches(pushed, extra), "");
}

TEST(SameBytes, RejectsOneFlippedByteAndATruncation) {
  const std::string saved(4096, 'x');
  EXPECT_EQ(check::same_bytes("file", saved, saved), "");
  std::string flipped = saved;
  flipped[1000] = 'y';
  EXPECT_NE(check::same_bytes("file", saved, flipped), "");
  EXPECT_NE(check::same_bytes("file", saved, saved.substr(0, 4095)), "");
}

TEST(JsonResponses, RejectsBadStatusAndMalformedBodies) {
  EXPECT_EQ(check::json_response_ok("r", 200, R"({"a": [1, 2.5e3, "x\n"]})"),
            "");
  EXPECT_NE(check::json_response_ok("r", 500, "{}"), "");
  EXPECT_NE(check::json_response_ok("r", 200, R"({"a": [1, 2})"), "");
  EXPECT_NE(check::json_response_ok("r", 200, R"({"a": 01})"), "");
  EXPECT_NE(check::json_response_ok("r", 200, "{} trailing"), "");
  EXPECT_NE(check::json_response_ok("r", 200, ""), "");
}

TEST(Prometheus, ReadsUnlabelledSamplesOnly) {
  const std::string text =
      "# TYPE diogenes_hub_bytes counter\n"
      "diogenes_hub_bytes 1234\n"
      "diogenes_hub_bytes_total 9\n"
      "diogenes_x{quantile=\"0.5\"} 3\n";
  EXPECT_EQ(check::prometheus_value(text, "diogenes_hub_bytes"), 1234);
  EXPECT_EQ(check::prometheus_value(text, "diogenes_hub_sessions"), -1);
}

}  // namespace
}  // namespace pb
