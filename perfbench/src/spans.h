// Layer spans for the traced run (--trace 1).
//
// The harness wraps each call it makes into a layer's public API in a
// Span: name, start, end, parent, plus the process CPU time and minor
// page faults consumed while it was open. Spans live in memory and are
// written out once, when the run ends. Nothing inside the program is
// instrumented: a layer's time is whatever its public call took.
//
// A span's self time is its duration minus the part of its interval that
// its children cover; for a span with children, that self time is the
// unattributed remainder — time inside the parent that no layer call
// accounts for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct SpanRecord {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  std::int64_t parent = -1;  // index into the tracer, -1 for roots
  std::uint32_t thread = 0;
  double cpu_s = 0;   // process CPU consumed while open (all threads)
  double minflt = 0;  // process minor faults while open
  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
  bool has_children = false;  // self_s is then the unattributed remainder
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The installed tracer, or nullptr when the run is untraced or the
  // tracer is paused.
  static Tracer* active();
  // Pauses or resumes span recording for the whole process. Traced runs
  // pause it for their untraced comparison rounds; spans already open
  // still close normally.
  static void set_paused(bool paused);

  std::int64_t open(const char* name, std::int64_t parent);
  void close(std::int64_t index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  // Self time of every span, in record order.
  [[nodiscard]] std::vector<double> self_times() const;
  [[nodiscard]] std::vector<SpanSummary> summarize() const;
  // Writes every span plus the per-name summary as one JSON document.
  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a no-op when no tracer is installed. The parent defaults to
// the innermost open span on the calling thread.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::int64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Innermost open span on this thread (-1 if none); lets work fanned
  // out to pool threads name its parent explicitly.
  static std::int64_t current();

 private:
  Tracer* tracer_ = nullptr;
  std::int64_t index_ = -1;
};

}  // namespace pb
