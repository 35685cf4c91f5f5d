#include "common.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/telemetry.h"

namespace pb {

namespace {

const double g_process_start = now_s();

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double since_process_start_s() { return now_s() - g_process_start; }

Usage usage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {tv_s(ru.ru_utime) + tv_s(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // reaped children (serve)
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

double telemetry_counter(const char* name) {
  return static_cast<double>(
      diog::obs::Telemetry::global().metrics().counter(name).value());
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t SeedRng::in(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

std::string Result::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct_ ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
      << format_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

double calibrate(std::size_t threads) {
  constexpr std::size_t kBytes = std::size_t{4} << 20;
  const auto map = [] {
    void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? nullptr : static_cast<unsigned char*>(p);
  };
  const auto thread_cpu_ms = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  };
  std::vector<double> ms(threads, 0.0);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      unsigned char* a = map();
      unsigned char* b = map();
      if (a == nullptr || b == nullptr) {
        ms[i] = -1;
        return;
      }
      std::memset(a, static_cast<int>(i + 1), kBytes);  // untimed first touch
      std::memset(b, 0, kBytes);
      const double t0 = thread_cpu_ms();
      std::uint64_t x = 0x9e3779b97f4a7c15ull + i;
      for (int k = 0; k < 3000000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0xbf58476d1ce4e5b9ull;
      }
      for (int k = 0; k < 8; ++k) {
        std::memcpy(b, a, kBytes);
        a[static_cast<std::size_t>(k)] = static_cast<unsigned char>(x >> k);
      }
      bool mapped = true;
      for (int k = 0; k < 4; ++k) {
        unsigned char* f = map();
        if (f == nullptr) {
          mapped = false;
          break;
        }
        for (std::size_t o = 0; o < kBytes; o += 4096) f[o] = b[o];
        ::munmap(f, kBytes);
      }
      ms[i] = mapped ? thread_cpu_ms() - t0 : -1;
      ::munmap(a, kBytes);
      ::munmap(b, kBytes);
    });
  }
  for (std::thread& t : pool) t.join();
  double total = 0;
  for (const double v : ms) {
    if (v < 0) throw std::runtime_error("calibration: mmap failed");
    total += v;
  }
  return total / static_cast<double>(threads);
}

void EndToEnd::calibrate(std::size_t threads) {
  calibration_ms.push_back(pb::calibrate(threads));
}

double EndToEnd::slowdown() const {
  const double c = median(calibration_ms);
  return c > 0 ? c / kReferenceCalibrationMs : 1.0;
}

void EndToEnd::report(Result& r) const {
  const double k = 1.0 / slowdown();
  r.add("setup_s", setup_cpu_s * k, "s");
  r.add("round_cpu_s", median(round_cpu_s) * k, "s");
  double per_kind = 0;
  for (const auto& [kind, ms] : op_cpu_ms) per_kind += median(ms);
  r.add("op_cpu_ms",
        op_cpu_ms.empty()
            ? 0.0
            : per_kind / static_cast<double>(op_cpu_ms.size()) * k,
        "ms");
}

}  // namespace pb
