// Shared helpers for the benchmark harness: clocks, resource usage,
// order statistics, the seeded input generator, and the result object
// every run prints as its last line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

// Seconds on the steady clock since an arbitrary epoch.
double now_s();
// Seconds since this process started (captured during static init).
double since_process_start_s();

// Process-wide resource usage (all threads): CPU seconds (user + system)
// and minor page faults.
struct Usage {
  double cpu_s = 0.0;
  double minflt = 0.0;
};
Usage usage_self();
inline Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_s - b.cpu_s, a.minflt - b.minflt};
}
// Peak resident set of this process, in MiB.
double peak_rss_mb();

// Order statistics. Both return 0 for an empty sample.
double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// The whole file as bytes; empty when it cannot be read.
std::string read_file(const std::string& path);

// Current value of a counter in the tool's telemetry registry.
double telemetry_counter(const char* name);

// 64-bit FNV-1a, used to compare byte streams without keeping them.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// splitmix64: the harness's own input generator (independent of the
// program's RNG, so the program only ever sees generated values).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next();
  // Uniform in [lo, hi], inclusive.
  std::int64_t in(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t s_;
};

// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 1;
  std::string tmp;       // fresh, empty, removed by the caller afterwards
  std::string diogenes;  // the built CLI (serve_mixed runs it as a child)
  std::string out = ".bench_out";  // where traced runs write span files
};

// The object printed as the run's last line.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness check (message goes to stderr).
  void fail(const std::string& what);
  // Records `error` as a failure unless it is empty (a check's result).
  void check(const std::string& error) {
    if (!error.empty()) fail(error);
  }
  [[nodiscard]] bool correct() const { return correct_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// The end-to-end figures every workload records. They are CPU time (user
// + system, all threads, plus the serve child's), not wall time: on a
// shared VM the host steals 5-55 % of wall time in bursts, which moves
// wall figures far more than any change under test, and CPU time does
// not count stolen time. CPU time still moves by up to +-20 % over
// minutes with what other tenants run on the same cores and caches, so
// each figure is scaled to a reference host speed: the run's median
// calibration time (see calibrate()) over kReferenceCalibrationMs. Wall
// figures and the calibration itself are kept for the traced run's table.
struct EndToEnd {
  double setup_cpu_s = 0;   // process start to end of set-up
  double setup_wall_s = 0;
  std::vector<double> round_cpu_s;  // each round
  std::vector<double> round_s;      // each round, wall
  // Each user-visible operation, keyed by its kind (the FFM workloads
  // analyse several apps of different cost; the others have one kind).
  std::map<std::string, std::vector<double>> op_cpu_ms;
  std::vector<double> op_ms;        // each user-visible operation, wall
  std::vector<double> calibration_ms;  // each calibration sample

  // Runs the calibration task once and records its time. Call it outside
  // the timed windows: between rounds, or around a run whose clients
  // must not be disturbed.
  void calibrate(std::size_t threads);
  // Reference speed over this run's speed (the median calibration sample).
  [[nodiscard]] double slowdown() const;
  // setup_s, round_cpu_s (median over rounds) and op_cpu_ms (the mean
  // over kinds of each kind's median, so the figure does not jump between
  // apps when a pooled median would fall between two of them), each
  // divided by slowdown().
  void report(Result& r) const;
};

// Per-thread CPU milliseconds of one calibration task run on `threads`
// threads at once: an integer hash loop, eight copies of a 4 MiB buffer,
// and faulting in then unmapping 16 MiB of fresh pages — the kinds of
// work the program does (compute, memory traffic, page faults), in code
// of the harness's own and on memory it maps itself, so no change to the
// program can change it.
double calibrate(std::size_t threads);
// The host speed the end-to-end figures are expressed at: a round figure
// near calibrate()'s readings on the reference machine (README).
inline constexpr double kReferenceCalibrationMs = 20.0;

}  // namespace pb
