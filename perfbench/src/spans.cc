#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "common.h"

namespace pb {

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<bool> g_paused{false};
thread_local std::vector<std::int64_t> t_open;

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next++;
  return id;
}

// Length of the union of [a, b) intervals, each clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double cur_lo = 0;
  double cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (!open || a > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() { g_active.store(this); }

Tracer::~Tracer() { g_active.store(nullptr); }

Tracer* Tracer::active() {
  return g_paused.load() ? nullptr : g_active.load();
}

void Tracer::set_paused(bool paused) { g_paused.store(paused); }

std::int64_t Tracer::open(const char* name, std::int64_t parent) {
  const Usage u = usage_self();
  SpanRecord r;
  r.name = name;
  r.parent = parent;
  r.thread = thread_ordinal();
  r.cpu_s = u.cpu_s;
  r.minflt = u.minflt;
  std::lock_guard<std::mutex> lock(mu_);
  r.start_s = now_s();
  spans_.push_back(std::move(r));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t index) {
  const double end = now_s();
  const Usage u = usage_self();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& r = spans_[static_cast<std::size_t>(index)];
  r.end_s = end;
  r.cpu_s = u.cpu_s - r.cpu_s;
  r.minflt = u.minflt - r.minflt;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::self_times() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<double, double>>> kids(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                            s.end_s);
    }
  }
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].duration_s() -
              covered(kids[i], all[i].start_s, all[i].end_s);
  }
  return self;
}

std::vector<SpanSummary> Tracer::summarize() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times();
  std::vector<bool> parent(all.size(), false);
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) parent[static_cast<std::size_t>(s.parent)] = true;
  }
  std::map<std::string, SpanSummary> by_name;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto [it, fresh] = by_name.try_emplace(all[i].name);
    if (fresh) order.push_back(all[i].name);
    SpanSummary& s = it->second;
    s.name = all[i].name;
    ++s.count;
    s.total_s += all[i].duration_s();
    s.self_s += self[i];
    s.has_children = s.has_children || parent[i];
  }
  std::vector<SpanSummary> out;
  for (const std::string& n : order) out.push_back(by_name[n]);
  return out;
}

void Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times();
  const double epoch = all.empty() ? 0.0 : all.front().start_s;
  std::ofstream o(path);
  char buf[512];
  o << "{\"schema\": \"perfbench.spans.v1\", \"workload\": \""
    << json_escape(workload) << "\", \"seed\": " << seed
    << ",\n \"summary\": [";
  const std::vector<SpanSummary> sum = summarize();
  for (std::size_t i = 0; i < sum.size(); ++i) {
    const SpanSummary& s = sum[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"name\": \"%s\", \"count\": %zu, \"total_ms\": "
                  "%.6f, \"self_ms\": %.6f, \"unattributed_ms\": %s}",
                  i ? "," : "", json_escape(s.name).c_str(), s.count,
                  s.total_s * 1e3, s.self_s * 1e3,
                  s.has_children
                      ? std::to_string(s.self_s * 1e3).c_str()
                      : "null");
    o << buf;
  }
  o << "],\n \"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": "
                  "%.6f, \"self_ms\": %.6f, \"parent\": %lld, \"thread\": %u, "
                  "\"cpu_ms\": %.3f, \"minflt\": %.0f}",
                  i ? "," : "", json_escape(s.name).c_str(),
                  (s.start_s - epoch) * 1e3, (s.end_s - epoch) * 1e3,
                  self[i] * 1e3, static_cast<long long>(s.parent), s.thread,
                  s.cpu_s * 1e3, s.minflt);
    o << buf;
  }
  o << "]}\n";
}

Span::Span(const char* name) : Span(name, current()) {}

Span::Span(const char* name, std::int64_t parent)
    : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->open(name, parent);
  t_open.push_back(index_);
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  t_open.pop_back();
  tracer_->close(index_);
}

std::int64_t Span::current() { return t_open.empty() ? -1 : t_open.back(); }

}  // namespace pb
