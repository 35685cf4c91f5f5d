// perfbench: one benchmark for the whole Diogenes tool.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --threads T --tmp DIR --diogenes PATH --out DIR
//
// Normally started by run.py, which builds it and provides a fresh
// temporary directory. Prints the result object as the last line of
// standard output; diagnostics go to standard error.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "common.h"
#include "parallel/thread_pool.h"
#include "spans.h"
#include "workloads.h"

namespace pb {

const std::vector<LayerMetric> kLayerMetrics = {
    // gpusim: the uninstrumented run, the floor under every stage.
    {"gpusim.native_s", "s"},
    {"gpusim.transfer_bytes", "bytes"},
    // core: the FFM stages, timed around run_stage1/collect_stage2..4 and
    // the stage-5 calls (process CPU and minor faults alongside).
    {"core.stage1_s", "s"},
    {"core.stage1_cpu_s", "s"},
    {"core.stage1_minflt", "count"},
    {"core.stage2_s", "s"},
    {"core.stage2_cpu_s", "s"},
    {"core.stage2_minflt", "count"},
    {"core.stage3_s", "s"},
    {"core.stage3_cpu_s", "s"},
    {"core.stage3_minflt", "count"},
    {"core.stage4_s", "s"},
    {"core.stage4_cpu_s", "s"},
    {"core.stage4_minflt", "count"},
    {"core.stage5_s", "s"},
    {"core.stage5_cpu_s", "s"},
    {"core.stage5_minflt", "count"},
    {"core.stage5.build_graph_s", "s"},
    {"core.stage5.expected_benefit_s", "s"},
    {"core.stage5.groupings_s", "s"},
    {"core.graph_nodes", "count"},
    {"core.problematic_nodes", "count"},
    // hashing, hooks, memtrace: work counts read from the run and the
    // telemetry registry after each analysis.
    {"hashing.bytes_hashed", "bytes"},
    {"hashing.duplicate_transfers", "count"},
    {"hooks.probes_fired", "count"},
    {"memtrace.required_syncs", "count"},
    {"memtrace.sync_uses", "count"},
    // eventstore: append, save_run/open_run, cursors, bin_events.
    {"eventstore.events", "count"},
    {"eventstore.append_s", "s"},
    {"eventstore.save_s", "s"},
    {"eventstore.save_cpu_s", "s"},
    {"eventstore.save_minflt", "count"},
    {"eventstore.open_s", "s"},
    {"eventstore.open_cpu_s", "s"},
    {"eventstore.open_minflt", "count"},
    {"eventstore.scan_full_s", "s"},
    {"eventstore.scan_filtered_s", "s"},
    {"eventstore.segments_skipped", "count"},
    {"eventstore.blocks_skipped", "count"},
    {"eventstore.compression_ratio", "ratio"},
    {"eventstore.file_bytes_per_event", "bytes"},
    {"eventstore.bin_events_ms", "ms"},
    // parallel: the pool's own busy/wall accounting (obs registry).
    {"parallel.busy_s", "s"},
    {"parallel.wall_s", "s"},
    // hub, explore, archive, obs: client-side latency per call, and the
    // hub counters scraped from /metrics.
    {"hub.push_ms", "ms"},
    {"hub.push_late_ms", "ms"},
    {"hub.push_runs_per_s", "1/s"},
    {"hub.bytes", "bytes"},
    {"hub.events", "count"},
    {"hub.dedup", "count"},
    {"hub.server_cpu_s", "s"},
    {"explore.runs_ms", "ms"},
    {"explore.timeline_ms", "ms"},
    {"explore.flame_ms", "ms"},
    {"explore.findings_ms", "ms"},
    {"explore.read_late_ms", "ms"},
    {"explore.request_p50_ms", "ms"},
    {"explore.request_p99_ms", "ms"},
    {"archive.history_ms", "ms"},
    {"archive.regressions_ms", "ms"},
    {"obs.metrics_ms", "ms"},
    // The whole process (serve_mixed: the larger of harness and server),
    // and the wall-clock counterparts of the end-to-end CPU figures.
    {"process.peak_rss_mb", "MiB"},
    {"process.setup_wall_s", "s"},
    {"process.round_wall_s", "s"},
    {"process.op_wall_ms", "ms"},
    // The host-speed calibration the end-to-end figures are scaled by.
    {"process.calibration_ms", "ms"},
    // The tracer itself.
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

void Layers::end_round(double ops) {
  for (auto& [name, v] : round_) rounds_[name].push_back(v / ops);
  round_.clear();
}

void Layers::report(Result& r) const {
  for (const LayerMetric& m : kLayerMetrics) {
    double v = 0;
    if (const auto it = fixed_.find(m.name); it != fixed_.end()) {
      v = it->second;
    } else if (const auto jt = rounds_.find(m.name); jt != rounds_.end()) {
      v = median(jt->second);
    }
    r.add(m.name, v, m.unit);
  }
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --threads T --tmp DIR --diogenes PATH "
               "--out DIR\n");
  return 2;
}

// Share of root-span time that no child span accounts for, and the
// traced run's cost over the untraced one (the median over the run's
// traced/untraced pairs), both in %.
void add_trace_figures(const Tracer& t, const Outcome& out, Layers& layers) {
  const std::vector<SpanRecord> all = t.spans();
  const std::vector<double> self = t.self_times();
  std::vector<bool> has_children(all.size(), false);
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) has_children[static_cast<std::size_t>(s.parent)] = true;
  }
  double root_total = 0;
  double root_self = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0 || !has_children[i]) continue;
    root_total += all[i].duration_s();
    root_self += self[i];
  }
  layers.set("trace.unattributed_pct",
             root_total > 0 ? 100.0 * root_self / root_total : 0.0);
  layers.set("trace.overhead_pct",
             out.trace_cost.empty() ? 0.0
                                    : 100.0 * (median(out.trace_cost) - 1.0));
}

}  // namespace

}  // namespace pb

int main(int argc, char** argv) {
  pb::RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else if (k == "--threads") o.threads = std::strtoul(v, nullptr, 10);
    else if (k == "--tmp") o.tmp = v;
    else if (k == "--diogenes") o.diogenes = v;
    else if (k == "--out") o.out = v;
    else return pb::usage();
  }
  if (o.workload.empty() || o.tmp.empty() || o.seconds <= 0 ||
      o.threads == 0) {
    return pb::usage();
  }
  diog::par::set_threads(o.threads);

  std::unique_ptr<pb::Tracer> tracer;
  if (o.trace) tracer = std::make_unique<pb::Tracer>();

  pb::Outcome out;
  try {
    if (o.workload == "ffm_transfers") pb::run_ffm_transfers(o, out);
    else if (o.workload == "ffm_syncs") pb::run_ffm_syncs(o, out);
    else if (o.workload == "trace_roundtrip") pb::run_trace_roundtrip(o, out);
    else if (o.workload == "serve_mixed") pb::run_serve_mixed(o, out);
    else return pb::usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  if (tracer) {
    pb::add_trace_figures(*tracer, out, out.layers);
    out.layers.set("process.peak_rss_mb", pb::peak_rss_mb());
    out.layers.set("process.setup_wall_s", out.e2e.setup_wall_s);
    out.layers.set("process.round_wall_s", pb::median(out.e2e.round_s));
    out.layers.set("process.op_wall_ms", pb::median(out.e2e.op_ms));
    out.layers.set("process.calibration_ms",
                   pb::median(out.e2e.calibration_ms));
    out.layers.report(out.result);
    ::mkdir(o.out.c_str(), 0755);
    const std::string path = o.out + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".spans.json";
    tracer->write(path, o.workload, o.seed);
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  } else {
    out.e2e.report(out.result);
  }
  std::fprintf(stderr,
               "perfbench: calibration %.3f ms (median of %zu), CPU figures "
               "scaled by %.4f to the reference speed\n",
               pb::median(out.e2e.calibration_ms),
               out.e2e.calibration_ms.size(), 1.0 / out.e2e.slowdown());
  std::printf("%s\n", out.result.to_json().c_str());
  return 0;
}
