// Correctness checks on the program's outputs.
//
// Every check compares an output against a value computed apart from the
// program, or against a property the method must have, and returns an
// empty string when it holds or a one-line description of the mismatch.
// None of them depends on timing, thread count or files left by an
// earlier run. tests/checks_test.cc feeds each one a deliberately broken
// input and expects it to fail.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "eventstore/aggregate.h"
#include "eventstore/cursor.h"
#include "eventstore/event_store.h"

namespace pb::check {

// --- generic -----------------------------------------------------------------
std::string counts_equal(const std::string& what, std::uint64_t expected,
                         std::uint64_t actual);
std::string same_bytes(const std::string& what, const std::string& expected,
                       const std::string& actual);

// --- FFM analyses --------------------------------------------------------------
// 0 < total <= stage-1 exec time, and every node's benefit is >= 0.
std::string benefit_bounds(std::int64_t total_ns, std::int64_t exec_ns,
                           const std::vector<std::int64_t>& per_node_ns);
// The fixed twin must leave less to recover than the pathological app.
std::string fixed_twin_less(const std::string& app,
                            std::int64_t pathological_ns,
                            std::int64_t fixed_ns);

// --- event store -----------------------------------------------------------------
// Column by column, row by row, plus the stack and name dictionaries.
std::string stores_equal(const diog::evstore::EventStore& expected,
                         const diog::evstore::EventStore& actual);

// A cursor predicate, evaluated both by the store's Cursor (pushdown +
// SIMD kernels) and by a plain loop over materialized rows.
struct Filter {
  std::uint32_t kinds_mask = ~0u;
  std::int32_t api = -1;  // -1 = any
  std::uint32_t flags_all = 0;
  std::int64_t t_min = std::numeric_limits<std::int64_t>::min();
  std::int64_t t_max = std::numeric_limits<std::int64_t>::max();  // exclusive

  [[nodiscard]] diog::evstore::Cursor cursor(
      const diog::evstore::EventStore& s) const;
  [[nodiscard]] bool matches(const diog::evstore::Event& e) const;
  [[nodiscard]] std::string describe() const;
};
std::uint64_t naive_count(const diog::evstore::EventStore& s, const Filter& f);

// Timeline bins must hold exactly the events in range, each once.
std::string bins_cover(const diog::evstore::BinnedSpans& b,
                       std::uint64_t events_in_range);

// --- serving ------------------------------------------------------------------
// What a client pushed or found archived, keyed by run id: FNV-1a of the
// bytes (computed by the harness, not the program) and the byte count.
struct Blob {
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
  bool operator==(const Blob&) const = default;
};
// Every archived object equals the file pushed under its id, and the
// archive holds exactly the distinct runs pushed.
std::string archive_matches(const std::map<std::string, Blob>& pushed,
                            const std::map<std::string, Blob>& archived);
// A response must be 200 with a syntactically valid JSON body.
std::string json_response_ok(const std::string& what, int status,
                             const std::string& body);
// Independent JSON syntax check (RFC 8259 grammar, no values kept).
bool json_valid(const std::string& text);
// The value of an unlabelled sample in Prometheus text exposition;
// -1 when absent.
double prometheus_value(const std::string& text, const std::string& name);

}  // namespace pb::check
