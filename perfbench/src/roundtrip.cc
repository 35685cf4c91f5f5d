// trace_roundtrip: one seeded run of about a million events through the
// event store and back, with no app running.
//
// A round appends the generated rows into a fresh store, saves it
// (save_run), reopens it (open_run), scans it with full and filtered
// cursors, bins the op lane for a timeline (bin_events) and runs stage 5
// on the reopened run — what `diogenes trace analyze` and the explorer's
// cold /api/findings cost. The user-visible operation (op_cpu_ms) is the
// reopen plus analysis. Traced runs pause the tracer every other round
// for their untraced baseline.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "eventstore/aggregate.h"
#include "eventstore/run_io.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "spans.h"
#include "workloads.h"

namespace pb {

namespace {

namespace ffm = diog::ffm;
namespace ev = diog::evstore;
using diog::hooks::Fn;

constexpr std::uint64_t kEvents = 1000000;
constexpr std::int64_t kFooterWallMs = 1700000000000;  // pinned: stable bytes
// Each full/filtered scan of the store takes about a millisecond, so a
// round repeats them to time something measurable.
constexpr int kScanRepeats = 20;



// The filters the explorer and `trace dump` issue: by kind, by API, by
// flag, and a time window that pushdown can skip around.
std::vector<check::Filter> filters(const GeneratedRun& in) {
  const std::int64_t t_end = in.rows.back().t_start;
  std::vector<check::Filter> f(4);
  f[0].kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
  f[0].api = static_cast<int>(Fn::kCudaStreamSynchronize);
  f[1].kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
  f[1].flags_all = ev::flag::kPerformedSync;
  f[2].kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kSyncUse);
  f[3].kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
  f[3].t_min = t_end / 3;
  f[3].t_max = t_end / 3 + t_end / 50;
  return f;
}

}  // namespace

void run_trace_roundtrip(const RunOptions& o, Outcome& out) {
  const GeneratedRun in = generate_run(o.seed, kEvents, "bench_roundtrip");
  const ffm::ToolConfig cfg;
  Result& res = out.result;
  const std::string path = o.tmp + "/roundtrip.dgtrace";
  const ev::SaveOptions save_opts{.chunk_rows = ev::kSegmentRows,
                                  .footer_wall_ms = kFooterWallMs};

  // Reference values computed apart from the cursors under test: naive
  // filter counts over an in-memory store and its analysis (which is
  // also set-up's discarded warm-up). Later rounds compare against them.
  const std::vector<check::Filter> fs = filters(in);
  std::vector<std::uint64_t> naive;
  check::Filter op_lane;
  std::uint64_t naive_in_range = 0;
  std::string reference_export;
  {
    const ev::TraceRun reference = append_run(in);
    for (const check::Filter& f : fs) {
      naive.push_back(check::naive_count(*reference.store, f));
    }
    const ev::TimeExtent extent =
        ev::time_extent(*reference.store,
                        ev::Cursor(*reference.store).kind(ev::EventKind::kOp));
    op_lane.kinds_mask = 1u << static_cast<unsigned>(ev::EventKind::kOp);
    op_lane.t_min = extent.t_min;
    op_lane.t_max = extent.t_max + 1;
    naive_in_range = check::naive_count(*reference.store, op_lane);
    reference_export =
        ffm::export_json(ffm::run_analysis(reference, cfg)).dump();
  }
  out.e2e.setup_wall_s = since_process_start_s();
  out.e2e.setup_cpu_s = usage_self().cpu_s;

  std::string saved_bytes;  // round 0's file; later saves must match
  const double deadline = now_s() + o.seconds;
  std::size_t round = 0;
  do {
    // Traced runs pause the tracer in half the rounds, in the order
    // traced, paused, paused, traced, so that a drift over the run
    // cancels out; the paused rounds are the untraced baseline of
    // trace.overhead_pct and report no layers.
    const bool traced = o.trace && (round % 4 == 0 || round % 4 == 3);
    if (o.trace) Tracer::set_paused(!traced);
    Layers untraced_layers;
    Layers& L = o.trace && !traced ? untraced_layers : out.layers;
    const double busy0 = telemetry_counter("parallel.busy_ns");
    const double wall0 = telemetry_counter("parallel.wall_ns");
    const Usage u0 = usage_self();
    const double r0 = now_s();
    double op_s = 0;
    double op_cpu = 0;

    ev::TraceRun appended;
    timed_layer(L, "eventstore.append", [&] { appended = append_run(in); },
                false);
    timed_layer(L, "eventstore.save",
                [&] { ev::save_run(path, appended, save_opts); });
    ev::TraceRun reopened;
    ev::RunFileInfo info;
    double t = now_s();
    Usage u = usage_self();
    timed_layer(L, "eventstore.open", [&] {
      reopened = ev::open_run(path, ev::ReadMode::kAuto, &info);
    });
    op_s += now_s() - t;
    op_cpu += (usage_self() - u).cpu_s;

    // Checks that need the appended store happen here, off the clock
    // (wall and CPU), so that store can be released before stage 5.
    double paused = now_s();
    const Usage pause_u0 = usage_self();
    const std::string bytes = read_file(path);
    res.check(check::stores_equal(*appended.store, *reopened.store));
    if (round == 0) {
      // The saved bytes must not depend on the thread count.
      const std::string serial_path = o.tmp + "/roundtrip-1thread.dgtrace";
      diog::par::set_threads(1);
      ev::save_run(serial_path, appended, save_opts);
      diog::par::set_threads(o.threads);
      res.check(check::same_bytes("saved bytes, 1 thread vs " +
                                    std::to_string(o.threads),
                                read_file(serial_path), bytes));
      saved_bytes = bytes;
    } else {
      res.check(check::same_bytes("saved bytes vs round 1", saved_bytes, bytes));
    }
    appended = ev::TraceRun();
    paused = now_s() - paused;
    const double paused_cpu = (usage_self() - pause_u0).cpu_s;

    std::vector<std::uint64_t> counts(fs.size());
    std::uint64_t full = 0;
    timed_layer(L, "eventstore.scan_full", [&] {
      for (int k = 0; k < kScanRepeats; ++k) {
        std::uint64_t bytes = 0;
        ev::Cursor(*reopened.store).for_each([&](const ev::Event& e) {
          bytes += e.bytes;
        });
        full += bytes > 0 ? 1 : 0;
      }
    }, false);
    double skipped_segments = 0;
    double skipped_blocks = 0;
    timed_layer(L, "eventstore.scan_filtered", [&] {
      for (int k = 0; k < kScanRepeats; ++k) {
        for (std::size_t i = 0; i < fs.size(); ++i) {
          ev::Cursor c = fs[i].cursor(*reopened.store);
          counts[i] = c.count();
          skipped_segments += static_cast<double>(c.segments_skipped());
          skipped_blocks += static_cast<double>(c.blocks_skipped());
        }
      }
    }, false);
    ev::BinnedSpans bins;
    const double b0 = now_s();
    {
      Span s("eventstore.bin_events");
      bins = ev::bin_events(*reopened.store,
                            ev::Cursor(*reopened.store).kind(ev::EventKind::kOp),
                            op_lane.t_min, op_lane.t_max, 1024);
    }
    L.add("eventstore.bin_events_ms", (now_s() - b0) * 1e3);

    ffm::AnalysisResult analysis;
    t = now_s();
    u = usage_self();
    timed_layer(L, "core.stage5", [&] {
      analysis = traced ? traced_stage5(reopened, cfg, L)
                        : ffm::run_analysis(reopened, cfg);
    });
    op_s += now_s() - t;
    op_cpu += (usage_self() - u).cpu_s;
    const double round_s = now_s() - r0 - paused;
    out.e2e.round_s.push_back(round_s);
    if (o.trace && round % 2 == 1) {  // closes a traced/paused pair
      const double other = out.e2e.round_s.end()[-2];
      out.trace_cost.push_back(traced ? round_s / other : other / round_s);
    }
    out.e2e.round_cpu_s.push_back((usage_self() - u0).cpu_s - paused_cpu);
    out.e2e.op_ms.push_back(op_s * 1e3);
    out.e2e.op_cpu_ms["reopen+analyse"].push_back(op_cpu * 1e3);
    res.attempted += 1;

    L.add("parallel.busy_s", (telemetry_counter("parallel.busy_ns") - busy0) * 1e-9);
    L.add("parallel.wall_s", (telemetry_counter("parallel.wall_ns") - wall0) * 1e-9);
    L.add("eventstore.events", static_cast<double>(reopened.store->size()));
    L.add("eventstore.segments_skipped", skipped_segments / kScanRepeats);
    L.add("eventstore.blocks_skipped", skipped_blocks / kScanRepeats);
    L.add("eventstore.compression_ratio", info.compression_ratio());
    L.add("core.graph_nodes", static_cast<double>(analysis.graph.size()));
    L.add("core.problematic_nodes",
          static_cast<double>(analysis.graph.problematic_indices().size()));

    L.add("eventstore.file_bytes_per_event",
          static_cast<double>(bytes.size()) / static_cast<double>(kEvents));
    res.check(check::counts_equal("full scans", kScanRepeats, full));
    for (std::size_t i = 0; i < fs.size(); ++i) {
      res.check(check::counts_equal("cursor " + fs[i].describe(), naive[i],
                                  counts[i]));
    }
    res.check(check::bins_cover(bins, naive_in_range));
    res.check(check::same_bytes("stage-5 export_json, reopened vs in-memory",
                              reference_export,
                              ffm::export_json(analysis).dump()));
    L.end_round(1);
    ++round;
    out.e2e.calibrate(o.threads);
  } while (now_s() < deadline || (o.trace && round < 2));
  Tracer::set_paused(false);
}

}  // namespace pb
