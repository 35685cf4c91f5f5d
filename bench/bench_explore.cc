// Explorer endpoint benchmark: warm latency and response bytes for the
// timeline / flame / findings views over a million-event run.
//
// The explorer's promise is that interaction cost is bounded by the
// viewport, not the run: any timeline request over a 1M-event run must
// answer from a few hundred KB of JSON in interactive time. This bench
// measures exactly that promise — a cold first request (cache fill +
// lazy analysis), then the warm steady state a user actually scrubs
// through — and writes BENCH_explore.json with the budget verdict the
// acceptance gate reads (timeline <= 512 KiB and < 50 ms warm).
//
//   bench_explore [--out FILE] [--events N] [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "eventstore/run_io.h"
#include "explore/http.h"
#include "explore/service.h"
#include "json/json.h"
#include "testkit/synth_run.h"

namespace diog::explore {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kTimelineByteBudget = 512 * 1024;
constexpr double kTimelineWarmMsBudget = 50.0;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HttpRequest request_for(const std::string& target) {
  HttpRequest req;
  if (!parse_request_line("GET " + target + " HTTP/1.1", req)) {
    std::fprintf(stderr, "bad bench target: %s\n", target.c_str());
    std::exit(2);
  }
  return req;
}

int run(const std::string& out_path, std::uint64_t events,
        std::size_t reps) {
  const std::string dir =
      (fs::temp_directory_path() / "diog_bench_explore").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string run_path = dir + "/bench.dgtrace";

  double t = now_ms();
  const evstore::TraceRun run =
      testkit::make_synthetic_run({.events = events});
  const double build_ms = now_ms() - t;
  t = now_ms();
  evstore::save_run(run_path, run);
  const double save_ms = now_ms() - t;

  Service svc({.root = dir, .config = {}, .archive_root = {}});

  struct Target {
    const char* label;
    std::string target;
  };
  const std::vector<Target> targets = {
      {"timeline_full", "/api/timeline?run=bench&px=1024"},
      {"timeline_zoom",
       "/api/timeline?run=bench&px=1024&t0=0&t1=1000000&tracks=op"},
      {"flame", "/api/flame?run=bench"},
      {"findings", "/api/findings?run=bench"},
  };

  bool within_budget = true;
  json::Array rows;
  for (const Target& tg : targets) {
    const HttpRequest req = request_for(tg.target);

    t = now_ms();
    const HttpResponse first = svc.handle(req);
    const double cold_ms = now_ms() - t;
    if (first.status != 200) {
      std::fprintf(stderr, "%s answered %d: %s\n", tg.target.c_str(),
                   first.status, first.body.c_str());
      return 1;
    }

    std::vector<double> warm;
    warm.reserve(reps);
    std::size_t bytes = first.body.size();
    for (std::size_t r = 0; r < reps; ++r) {
      t = now_ms();
      const HttpResponse resp = svc.handle(req);
      warm.push_back(now_ms() - t);
      bytes = resp.body.size();
    }
    std::sort(warm.begin(), warm.end());
    const double p50 = warm[warm.size() / 2];
    double mean = 0;
    for (const double w : warm) mean += w;
    mean /= static_cast<double>(warm.size());

    const bool is_timeline =
        std::string_view(tg.label).starts_with("timeline");
    const bool ok = !is_timeline || (bytes <= kTimelineByteBudget &&
                                     p50 < kTimelineWarmMsBudget);
    within_budget = within_budget && ok;

    std::printf("%-14s %8zu bytes  cold %8.2f ms  warm p50 %7.3f ms%s\n",
                tg.label, bytes, cold_ms, p50,
                ok ? "" : "  ** OVER BUDGET **");

    json::Object row;
    row["label"] = std::string(tg.label);
    row["target"] = tg.target;
    row["bytes"] = static_cast<std::int64_t>(bytes);
    row["cold_ms"] = cold_ms;
    row["warm_ms_p50"] = p50;
    row["warm_ms_mean"] = mean;
    row["reps"] = static_cast<std::int64_t>(reps);
    row["within_budget"] = ok;
    rows.emplace_back(std::move(row));
  }

  json::Object root;
  root["bench"] = std::string("explore");
  root["events"] = static_cast<std::int64_t>(events);
  root["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  root["build_type"] = std::string(DIOG_BUILD_TYPE);
  root["build_ms"] = build_ms;
  root["save_ms"] = save_ms;
  json::Object budget;
  budget["timeline_max_bytes"] =
      static_cast<std::int64_t>(kTimelineByteBudget);
  budget["timeline_warm_ms"] = kTimelineWarmMsBudget;
  budget["within_budget"] = within_budget;
  root["budget"] = std::move(budget);
  root["endpoints"] = std::move(rows);
  json::save_file(out_path, json::Value(std::move(root)));
  std::printf("wrote %s\n", out_path.c_str());

  fs::remove_all(dir);
  return within_budget ? 0 : 1;
}

}  // namespace
}  // namespace diog::explore

int main(int argc, char** argv) {
  std::string out_path = "BENCH_explore.json";
  std::uint64_t events = 1'000'000;
  std::size_t reps = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_explore [--out FILE] [--events N] "
                   "[--reps N]\n");
      return 2;
    }
  }
  return diog::explore::run(out_path, events, reps);
}
