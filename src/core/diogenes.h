// Diogenes: the FFM driver (paper §4).
//
// Orchestrates the four collection runs and the analysis stage with no
// user interaction between stages, mirroring the real tool's automated
// multi-run flow. Stage outputs are (optionally) persisted as JSON files
// between runs; the analysis consumes only the serialized stage data.
#pragma once

#include <string>
#include <vector>

#include "core/benefit.h"
#include "core/graph.h"
#include "core/groupings.h"
#include "core/model.h"
#include "core/tool_config.h"
#include "core/workload.h"

namespace diog::ffm {

struct AnalysisResult {
  std::string workload_name;

  // The run the analysis consumed: every observed event in the columnar
  // store plus run-level metadata. Kept by shared_ptr inside TraceRun,
  // so copying the result does not copy columns.
  evstore::TraceRun run;

  // Per-stage outputs, materialized as views over `run` (run_convert.h).
  // The legacy shapes survive for JSON round-trip and existing
  // consumers; `run` is the source of truth.
  Stage1Result s1;
  // Stage 2 carries exec_time only; `ops` stays empty. The op records
  // (one per traced call, each with its own stack) are what the graph
  // is built from, straight off the store, and nothing else in the
  // analysis reads them. Call stage2_view(run) for them.
  Stage2Result s2;
  Stage3Result s3;
  Stage4Result s4;

  // Analysis-stage products.
  ExecutionGraph graph;
  BenefitReport benefit;  // one ExpectedBenefit pass over all problems
  std::vector<Group> single_points;
  std::vector<Group> folds;
  std::vector<Group> sequences;

  // Overhead accounting (§5.3): total collection time across the four
  // runs, relative to the baseline-stage execution time.
  Duration collection_time{0};
  double overhead_factor = 0.0;

  // The denominator for "% of execution time" displays: the baseline
  // (stage 1) measurement, which is designed to run near-native.
  [[nodiscard]] Duration exec_time() const { return s1.exec_time; }
  [[nodiscard]] double fraction_of_exec(Duration d) const {
    return s1.exec_time.count() > 0
               ? static_cast<double>(d.count()) /
                     static_cast<double>(s1.exec_time.count())
               : 0.0;
  }

  // Per-API estimated savings (the Diogenes column of Table 2), sorted
  // by descending savings.
  struct ApiSavings {
    hooks::Fn api;
    Duration savings{0};
    std::size_t problem_count = 0;
  };
  [[nodiscard]] std::vector<ApiSavings> api_savings() const;
};

// Stage 5 in isolation: build the graph, run the expected-benefit pass,
// compute the groupings, and fill the overhead bookkeeping. This is the
// single analysis implementation; it consumes the run through cursors,
// so a run reopened from disk (eventstore/run_io.h) produces the
// byte-identical result of the in-memory pipeline.
AnalysisResult run_analysis(const evstore::TraceRun& run,
                            const ToolConfig& cfg);

// Legacy-shape adapter: assembles a run from the stage values and
// delegates to run_analysis. Used by offline JSON replay
// (core/replay.h) and older embedders.
AnalysisResult run_analysis_stage(std::string workload_name,
                                  Stage1Result s1, Stage2Result s2,
                                  Stage3Result s3, Stage4Result s4,
                                  const ToolConfig& cfg);

class Diogenes {
 public:
  explicit Diogenes(Workload workload, ToolConfig cfg = {});

  // Run all five stages and return the complete analysis.
  AnalysisResult analyze();

 private:
  void maybe_persist(const std::string& stage, const json::Value& v) const;

  Workload workload_;
  ToolConfig cfg_;
};

}  // namespace diog::ffm
