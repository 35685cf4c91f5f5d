// ffm_transfers and ffm_syncs: complete FFM analyses (stages 1-5) of
// seeded app configurations.
//
// A round analyses every generated app once. Untraced, each analysis is
// one Diogenes::analyze call. Traced, the harness makes the same calls
// analyze() makes — run_stage1, collect_stage2/3/4, then the stage-5
// steps of run_analysis — each inside its own span, plus one
// run_uninstrumented per app for the gpusim floor; each traced analysis
// is paired with an untraced analyze() of the same app (before it in even
// rounds, after it in odd ones), which is both the baseline of
// trace.overhead_pct and the reference the traced calls must reproduce.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "checks.h"
#include "common.h"
#include "core/diogenes.h"
#include "core/report.h"
#include "core/run_convert.h"
#include "core/stage1_baseline.h"
#include "core/stage2_tracing.h"
#include "core/stage3_memhash.h"
#include "core/stage4_syncuse.h"
#include "eventstore/cursor.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "spans.h"
#include "workloads.h"

namespace pb {

namespace {

namespace ffm = diog::ffm;
namespace ev = diog::evstore;
using diog::hooks::Fn;
using diog::ms;
using diog::us;

// One generated app: both variants and the problem counts planted in it,
// computed from its config alone.
struct App {
  std::string label;
  std::string config;  // the generated knobs, for the log
  ffm::Workload pathological;
  ffm::Workload fixed;
  std::vector<std::pair<Fn, std::uint64_t>> planted_ops;  // stage-2 ops
  std::int64_t planted_duplicates = -1;  // stage 3; -1 = none planted
  // The calls the fix removes; the fixed twin must be estimated to save
  // less on them than the pathological app.
  std::vector<Fn> fixed_apis;
};

// cumf_als family: a few large transfers per iteration. The data volume
// and buffer shapes are fixed (about 440 MB moved per analysis), so
// every seed costs the same; the seed draws the solver temporaries and
// the virtual GPU/CPU durations, which decide what the analysis finds.
// ffm_transfers is left out of BENCHMARK.json: copying and hashing that
// much makes its CPU time follow the host's memory traffic too closely
// to gate on (README).
std::vector<App> transfer_apps(SeedRng& rng) {
  std::vector<App> apps;
  for (int i = 0; i < 2; ++i) {
    diog::apps::CumfAlsConfig c;
    c.iterations = 24;
    c.tile_elems = 640 * 1024;
    c.result_elems = 640 * 1024;
    c.batch_elems = 2560 * 1024;
    c.x_temp_count = static_cast<std::size_t>(rng.in(4, 10));
    c.theta_temp_count = static_cast<std::size_t>(rng.in(6, 14));
    c.temp_elems = static_cast<std::size_t>(rng.in(16, 64)) * 1024;
    c.batch1_gpu = us(rng.in(8000, 20000));
    c.batch2_gpu = us(rng.in(8000, 20000));
    c.batch3_gpu = us(rng.in(40000, 120000));
    c.assemble_x_cpu = us(rng.in(6000, 18000));
    c.assemble_theta_cpu = us(rng.in(6000, 18000));
    c.post_solve_cpu = us(rng.in(1000, 4000));
    App a;
    a.label = "cumf_als#" + std::to_string(i);
    a.config = "iterations=" + std::to_string(c.iterations) +
               " tile=" + std::to_string(c.tile_elems) +
               " batch=" + std::to_string(c.batch_elems) +
               " result=" + std::to_string(c.result_elems) +
               " temps=" + std::to_string(c.x_temp_count) + "+" +
               std::to_string(c.theta_temp_count);
    a.pathological = diog::apps::make_cumf_als(c, false);
    a.fixed = diog::apps::make_cumf_als(c, true);
    // Two tile uploads per iteration; every one after the first
    // iteration repeats bytes already moved. Two device syncs per
    // iteration (update_x and update_theta).
    a.planted_duplicates = 2 * static_cast<std::int64_t>(c.iterations - 1);
    // Every temporary is freed once per iteration and once at exit, plus
    // the four long-lived buffers.
    const std::size_t temps = c.x_temp_count + c.theta_temp_count;
    a.planted_ops = {{Fn::kCudaDeviceSynchronize, 2 * c.iterations},
                     {Fn::kCudaFree, (c.iterations + 1) * temps + 4}};
    a.fixed_apis = {Fn::kCudaFree, Fn::kCudaMemcpy};
    apps.push_back(std::move(a));
  }
  return apps;
}

// cuIBM / AMG / Rodinia families, scaled up: thousands of small sync,
// free and memset calls. The seed moves step counts by at most 1 % (so
// every config costs about the same) and draws the per-step structure
// and the virtual durations freely.
std::vector<App> sync_apps(SeedRng& rng) {
  std::vector<App> apps;
  {
    diog::apps::CuibmConfig c;
    c.timesteps = static_cast<std::size_t>(rng.in(416, 424));
    // 22 small API calls per step either way: every public call passes
    // the memtrace guard, so the split moves structure, not cost.
    c.func_attr_calls_per_step = static_cast<std::size_t>(rng.in(8, 16));
    c.boundary_kernels_per_step = 22 - c.func_attr_calls_per_step;
    c.residual_check_interval = 20;
    c.reduce_kernel_gpu = us(rng.in(150, 350));
    c.minmax_kernel_gpu = us(rng.in(200, 400));
    c.multiply_kernel_gpu = us(rng.in(100, 220));
    c.velocity_kernel_gpu = us(rng.in(250, 450));
    c.pressure_kernel_gpu = us(rng.in(150, 350));
    c.step_cpu = us(rng.in(300, 600));
    App a;
    a.label = "cuIBM";
    a.config = "steps=" + std::to_string(c.timesteps) +
               " func_attr=" + std::to_string(c.func_attr_calls_per_step) +
               " boundary=" + std::to_string(c.boundary_kernels_per_step) +
               " check_every=" + std::to_string(c.residual_check_interval);
    a.pathological = diog::apps::make_cuibm(c, false);
    a.fixed = diog::apps::make_cuibm(c, true);
    // One blanket device sync and one default-stream sync per step.
    a.planted_ops = {{Fn::kCudaDeviceSynchronize, c.timesteps},
                     {Fn::kCudaStreamSynchronize, c.timesteps}};
    a.fixed_apis = {Fn::kCudaFree};
    apps.push_back(std::move(a));
  }
  {
    diog::apps::AmgConfig c;
    c.levels = 3;
    c.solve_iterations = static_cast<std::size_t>(rng.in(655, 665));
    c.relax_kernel_gpu = us(rng.in(200, 400));
    c.boundary_kernel_gpu = us(rng.in(1500, 3000));
    c.cycle_cpu = us(rng.in(1000, 3000));
    App a;
    a.label = "AMG";
    a.config = "levels=" + std::to_string(c.levels) +
               " iterations=" + std::to_string(c.solve_iterations);
    a.pathological = diog::apps::make_amg(c, false);
    a.fixed = diog::apps::make_amg(c, true);
    // One managed-memory memset per level per solve cycle.
    a.planted_ops = {{Fn::kCudaMemset, c.solve_iterations * c.levels}};
    a.fixed_apis = {Fn::kCudaMemset};
    apps.push_back(std::move(a));
  }
  {
    diog::apps::RodiniaGaussianConfig c;
    c.matrix_dim = static_cast<std::size_t>(rng.in(31840, 32160));
    c.fan1_gpu = us(rng.in(1500, 3000));
    c.fan2_gpu = us(rng.in(2500, 4500));
    c.row_cpu = us(rng.in(60, 160));
    App a;
    a.label = "Rodinia";
    a.config = "dim=" + std::to_string(c.matrix_dim);
    a.pathological = diog::apps::make_rodinia_gaussian(c, false);
    a.fixed = diog::apps::make_rodinia_gaussian(c, true);
    // Two thread syncs per eliminated row (after Fan1 and Fan2).
    a.planted_ops = {{Fn::kCudaThreadSynchronize, 2 * c.matrix_dim}};
    a.fixed_apis = {Fn::kCudaThreadSynchronize};
    apps.push_back(std::move(a));
  }
  return apps;
}

double gauge(const std::string& name) {
  return static_cast<double>(
      diog::obs::Telemetry::global().metrics().gauge(name).value());
}

}  // namespace

ffm::AnalysisResult traced_stage5(const ev::TraceRun& run,
                                  const ffm::ToolConfig& cfg,
                                  Layers& layers) {
  ffm::AnalysisResult r;
  r.workload_name = run.meta.workload;
  r.run = run;
  {
    Span views("core.stage5.views");
    r.s1 = ffm::stage1_view(run);
    r.s2 = ffm::stage2_view(run);
    r.s3 = ffm::stage3_view(run);
    r.s4 = ffm::stage4_view(run);
  }
  timed_layer(layers, "core.stage5.build_graph",
              [&] { r.graph = ffm::build_graph(run, cfg.misplaced_threshold); },
              false);
  timed_layer(layers, "core.stage5.expected_benefit",
              [&] { r.benefit = ffm::expected_benefit(r.graph); }, false);
  timed_layer(layers, "core.stage5.groupings", [&] {
    const std::int64_t parent = Span::current();
    diog::par::parallel_for(3, [&](std::size_t task) {
      switch (task) {
        case 0: {
          Span s("core.stage5.single_point_groups", parent);
          r.single_points = ffm::single_point_groups(r.graph);
          break;
        }
        case 1: {
          Span s("core.stage5.folded_api_groups", parent);
          r.folds = ffm::folded_api_groups(r.graph);
          break;
        }
        default: {
          Span s("core.stage5.sequence_groups", parent);
          r.sequences = ffm::sequence_groups(r.graph);
          break;
        }
      }
    });
  }, false);
  r.collection_time = run.collection_time();
  r.overhead_factor =
      r.s1.exec_time.count() > 0
          ? static_cast<double>(r.collection_time.count()) /
                static_cast<double>(r.s1.exec_time.count())
          : 0.0;
  return r;
}

namespace {

// The calls Diogenes::analyze makes, one span per layer call.
ffm::AnalysisResult traced_analyze(const ffm::Workload& w,
                                   const ffm::ToolConfig& cfg,
                                   Layers& layers) {
  Span root("ffm.analyze");
  ev::TraceRun run;
  run.meta.workload = w.name;
  ffm::Stage1Result s1;
  timed_layer(layers, "core.stage1", [&] {
    s1 = ffm::run_stage1(w, cfg);
    ffm::append_stage1(run, s1);
  });
  timed_layer(layers, "core.stage2",
              [&] { ffm::collect_stage2(w, cfg, s1, run); });
  timed_layer(layers, "core.stage3", [&] { ffm::collect_stage3(w, cfg, run); });
  timed_layer(layers, "core.stage4", [&] { ffm::collect_stage4(w, cfg, run); });

  ffm::AnalysisResult r;
  timed_layer(layers, "core.stage5",
              [&] { r = traced_stage5(run, cfg, layers); });
  return r;
}

// Work counts of one analysis, read from its run, its result and the
// telemetry registry the stages publish into.
void add_work_counts(const ffm::AnalysisResult& r, Layers& layers) {
  const ev::EventStore& store = *r.run.store;
  double transfer_bytes = 0;
  ev::ops(store)
      .flags_all(ev::flag::kPerformedTransfer)
      .for_each([&](const ev::Event& e) {
        transfer_bytes += static_cast<double>(e.bytes);
      });
  layers.add("gpusim.transfer_bytes", transfer_bytes);
  layers.add("hashing.bytes_hashed",
             static_cast<double>(r.run.meta.bytes_hashed));
  layers.add("hashing.duplicate_transfers",
             static_cast<double>(r.s3.duplicate_transfers.size()));
  double probes = 0;
  for (int s = 1; s <= 4; ++s) {
    probes += gauge("stage" + std::to_string(s) + ".probes_fired");
  }
  layers.add("hooks.probes_fired", probes);
  layers.add("memtrace.required_syncs",
             static_cast<double>(ev::sync_classifications(store)
                                     .flags_all(ev::flag::kSyncRequired)
                                     .count()));
  layers.add("memtrace.sync_uses",
             static_cast<double>(ev::sync_uses(store).count()));
  layers.add("eventstore.events", static_cast<double>(store.size()));
  layers.add("core.graph_nodes", static_cast<double>(r.graph.size()));
  layers.add("core.problematic_nodes",
             static_cast<double>(r.graph.problematic_indices().size()));
}

// Checks that hold for every analysis of an app.
void check_analysis(const App& app, const ffm::AnalysisResult& r,
                    Result& res) {
  std::vector<std::int64_t> per_node;
  for (const ffm::NodeBenefit& nb : r.benefit.per_node) {
    per_node.push_back(nb.benefit.count());
  }
  if (const std::string e = check::benefit_bounds(
          r.benefit.total.count(), r.exec_time().count(), per_node);
      !e.empty()) {
    res.fail(app.label + ": " + e);
  }
  const ev::EventStore& store = *r.run.store;
  for (const auto& [fn, expected] : app.planted_ops) {
    res.check(check::counts_equal(
        app.label + " stage-2 " + std::string(diog::hooks::fn_name(fn)) +
            " calls",
        expected, ev::ops(store).api(fn).count()));
  }
  if (app.planted_duplicates >= 0) {
    res.check(check::counts_equal(
        app.label + " stage-3 duplicate transfers",
        static_cast<std::uint64_t>(app.planted_duplicates),
        r.s3.duplicate_transfers.size()));
  }
}

// The simulated statistics of one analysis: virtual execution time of
// every collection run, traced calls per API, bytes moved and hashed.
// The simulation is deterministic, so repetitions must agree exactly.
std::string simulated_stats(const ffm::AnalysisResult& r) {
  const ev::RunMeta& m = r.run.meta;
  std::string out = std::to_string(m.s1_exec.count()) + " " +
                    std::to_string(m.s2_exec.count()) + " " +
                    std::to_string(m.s3_exec.count()) + " " +
                    std::to_string(m.s4_exec.count()) + " " +
                    std::to_string(m.transfers_hashed) + " " +
                    std::to_string(m.bytes_hashed);
  std::map<std::uint16_t, std::uint64_t> calls;
  std::uint64_t bytes = 0;
  ev::ops(*r.run.store).for_each([&](const ev::Event& e) {
    ++calls[e.api];
    bytes += e.bytes;
  });
  for (const auto& [api, n] : calls) {
    out += " " + std::to_string(api) + ":" + std::to_string(n);
  }
  return out + " " + std::to_string(bytes);
}

// Estimated savings attributed to the APIs a fix removes.
std::int64_t savings_on(const ffm::AnalysisResult& r,
                        const std::vector<Fn>& apis) {
  std::int64_t ns = 0;
  for (const auto& s : r.api_savings()) {
    for (const Fn f : apis) {
      if (s.api == f) ns += s.savings.count();
    }
  }
  return ns;
}

void run_ffm(const RunOptions& o, Outcome& out, bool transfers) {
  SeedRng rng(o.seed);
  std::vector<App> apps = transfers ? transfer_apps(rng) : sync_apps(rng);
  const ffm::ToolConfig cfg;
  Result& res = out.result;

  // Set-up ends with one discarded analysis of each app: the first-touch
  // cost every CLI invocation pays.
  for (const App& app : apps) {
    (void)ffm::Diogenes(app.pathological, cfg).analyze();
  }
  out.e2e.setup_wall_s = since_process_start_s();
  out.e2e.setup_cpu_s = usage_self().cpu_s;

  std::vector<std::string> stats(apps.size());
  std::vector<std::vector<double>> app_s(apps.size());
  const double deadline = now_s() + o.seconds;
  std::size_t round = 0;
  do {
    double round_s = 0;
    double round_cpu = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const App& app = apps[i];
      // Traced runs pair each traced analysis with an untraced one of the
      // same app, tracer paused, alternating which runs first: the
      // baseline of trace.overhead_pct and the reference the traced
      // calls must reproduce.
      std::string plain_stats;
      double plain_s = 0;
      const auto untraced = [&] {
        Tracer::set_paused(true);
        const double t = now_s();
        plain_stats =
            simulated_stats(ffm::Diogenes(app.pathological, cfg).analyze());
        plain_s = now_s() - t;
        Tracer::set_paused(false);
        ++res.attempted;
      };
      if (o.trace && round % 2 == 0) untraced();
      const double busy0 = telemetry_counter("parallel.busy_ns");
      const double wall0 = telemetry_counter("parallel.wall_ns");
      const Usage u0 = usage_self();
      const double t0 = now_s();
      ffm::AnalysisResult r;
      if (o.trace) {
        r = traced_analyze(app.pathological, cfg, out.layers);
      } else {
        r = ffm::Diogenes(app.pathological, cfg).analyze();
      }
      const double dt = now_s() - t0;
      const double cpu = (usage_self() - u0).cpu_s;
      ++res.attempted;
      round_s += dt;
      round_cpu += cpu;
      out.e2e.op_cpu_ms[app.label].push_back(cpu * 1e3);
      app_s[i].push_back(dt);
      out.e2e.op_ms.push_back(dt * 1e3);
      if (o.trace) {
        if (round % 2 == 1) untraced();
        out.trace_cost.push_back(dt / plain_s);
        out.layers.add("parallel.busy_s",
                       (telemetry_counter("parallel.busy_ns") - busy0) * 1e-9);
        out.layers.add("parallel.wall_s",
                       (telemetry_counter("parallel.wall_ns") - wall0) * 1e-9);
        add_work_counts(r, out.layers);
        timed_layer(out.layers, "gpusim.native",
              [&] { (void)ffm::run_uninstrumented(app.pathological); },
              false);
        // The traced calls are a copy of what analyze() does; they must
        // give what the program gives.
        res.check(check::same_bytes(
            app.label + " simulated statistics, traced calls vs analyze()",
            plain_stats, simulated_stats(r)));
        res.check(check::same_bytes(
            app.label + " export_json, traced stage 5 vs run_analysis()",
            ffm::export_json(ffm::run_analysis(r.run, cfg)).dump(),
            ffm::export_json(r).dump()));
      }

      check_analysis(app, r, res);
      if (round == 0) {
        stats[i] = simulated_stats(r);
        // Once per app: the fixed twin must leave less to recover.
        const ffm::AnalysisResult f =
            ffm::Diogenes(app.fixed, cfg).analyze();
        ++res.attempted;
        res.check(check::fixed_twin_less(app.label,
                                         savings_on(r, app.fixed_apis),
                                         savings_on(f, app.fixed_apis)));
      } else {
        res.check(check::same_bytes(
            app.label + " simulated statistics vs repetition 1", stats[i],
            simulated_stats(r)));
      }
    }
    out.e2e.round_s.push_back(round_s);
    out.e2e.round_cpu_s.push_back(round_cpu);
    out.layers.end_round(static_cast<double>(apps.size()));
    ++round;
    out.e2e.calibrate(o.threads);
  } while (now_s() < deadline);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::fprintf(stderr,
                 "perfbench: %s (%s): median analysis %.1f ms over %zu\n",
                 apps[i].label.c_str(), apps[i].config.c_str(),
                 median(app_s[i]) * 1e3, app_s[i].size());
  }
}

}  // namespace

void run_ffm_transfers(const RunOptions& opts, Outcome& out) {
  run_ffm(opts, out, true);
}

void run_ffm_syncs(const RunOptions& opts, Outcome& out) {
  run_ffm(opts, out, false);
}

}  // namespace pb
