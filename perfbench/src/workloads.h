// The four workloads and the per-layer metric table they share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/diogenes.h"
#include "eventstore/run.h"
#include "trace/callstack.h"
#include "spans.h"

namespace pb {

// Per-layer figures of a traced run. Every workload reports the whole
// table (kLayerMetrics) so runs of different workloads compare column
// for column; a layer the workload never calls reads 0.
//
// Values are collected per round and reduced to the median over rounds,
// so one slow round does not move them.
class Layers {
 public:
  // Adds `v` to metric `name` within the current round.
  void add(const std::string& name, double v) { round_[name] += v; }
  // Closes the round; each metric's round total is divided by `ops` (the
  // operations the round ran) before it joins the per-round samples.
  void end_round(double ops);
  // Sets a metric outright (whole-run figures such as scraped counters).
  void set(const std::string& name, double v) { fixed_[name] = v; }
  void report(Result& r) const;

 private:
  std::map<std::string, double> round_;
  std::map<std::string, std::vector<double>> rounds_;
  std::map<std::string, double> fixed_;
};

struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

// What a workload run produces: check outcomes and operation counts,
// the end-to-end figures (reported untraced) and the per-layer table
// (reported traced).
struct Outcome {
  Result result;
  EndToEnd e2e;
  Layers layers;
  // Traced runs only, for trace.overhead_pct: wall time of a traced
  // operation over that of the same operation with the tracer paused,
  // one entry per traced/untraced pair.
  std::vector<double> trace_cost;
};

// A generated run: rows plus the dictionaries they reference (stack ids
// and name ids are 1-based positions in `stacks` and `names`).
struct GeneratedRun {
  std::vector<diog::trace::StackTrace> stacks;
  std::vector<std::string> names;
  std::vector<diog::evstore::Event> rows;
  diog::evstore::RunMeta meta;
};
// Exactly `events` rows shaped like a traced application; a pure
// function of its arguments.
GeneratedRun generate_run(std::uint64_t seed, std::uint64_t events,
                          const std::string& workload);
// The program's append path: intern the dictionaries, append every row.
diog::evstore::TraceRun append_run(const GeneratedRun& in);

// Runs `fn` inside a span named `name` and adds its wall time (and,
// with `with_usage`, process CPU and minor faults) to `layers` as
// <name>_s, <name>_cpu_s and <name>_minflt.
template <typename F>
void timed_layer(Layers& layers, const char* name, F&& fn,
                 bool with_usage = true) {
  const double t0 = now_s();
  const Usage u0 = usage_self();
  {
    Span s(name);
    fn();
  }
  const double dt = now_s() - t0;
  const Usage du = usage_self() - u0;
  const std::string n(name);
  layers.add(n + "_s", dt);
  if (with_usage) {
    layers.add(n + "_cpu_s", du.cpu_s);
    layers.add(n + "_minflt", du.minflt);
  }
}

// Stage 5 as run_analysis performs it, one span per step (views,
// build_graph, expected_benefit, the three grouping families).
diog::ffm::AnalysisResult traced_stage5(const diog::evstore::TraceRun& run,
                                        const diog::ffm::ToolConfig& cfg,
                                        Layers& layers);

// Each runs its workload for opts.seconds, in whole rounds.
void run_ffm_transfers(const RunOptions& opts, Outcome& out);
void run_ffm_syncs(const RunOptions& opts, Outcome& out);
void run_trace_roundtrip(const RunOptions& opts, Outcome& out);
void run_serve_mixed(const RunOptions& opts, Outcome& out);

}  // namespace pb
