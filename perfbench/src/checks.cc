#include "checks.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace pb::check {

namespace ev = diog::evstore;

std::string counts_equal(const std::string& what, std::uint64_t expected,
                         std::uint64_t actual) {
  if (expected == actual) return "";
  return what + ": expected " + std::to_string(expected) + ", got " +
         std::to_string(actual);
}

std::string same_bytes(const std::string& what, const std::string& expected,
                       const std::string& actual) {
  if (expected == actual) return "";
  std::size_t i = 0;
  while (i < expected.size() && i < actual.size() && expected[i] == actual[i]) {
    ++i;
  }
  return what + ": differs at byte " + std::to_string(i) + " (sizes " +
         std::to_string(expected.size()) + " vs " +
         std::to_string(actual.size()) + ")";
}

std::string benefit_bounds(std::int64_t total_ns, std::int64_t exec_ns,
                           const std::vector<std::int64_t>& per_node_ns) {
  if (total_ns <= 0) {
    return "total estimated benefit " + std::to_string(total_ns) +
           " ns is not positive";
  }
  if (total_ns > exec_ns) {
    return "total estimated benefit " + std::to_string(total_ns) +
           " ns exceeds the stage-1 execution time " +
           std::to_string(exec_ns) + " ns";
  }
  for (std::size_t i = 0; i < per_node_ns.size(); ++i) {
    if (per_node_ns[i] < 0) {
      return "node benefit #" + std::to_string(i) + " is negative (" +
             std::to_string(per_node_ns[i]) + " ns)";
    }
  }
  return "";
}

std::string fixed_twin_less(const std::string& app,
                            std::int64_t pathological_ns,
                            std::int64_t fixed_ns) {
  if (fixed_ns < pathological_ns) return "";
  return app + ": fixed twin's benefit " + std::to_string(fixed_ns) +
         " ns is not below the pathological app's " +
         std::to_string(pathological_ns) + " ns";
}

namespace {

std::string frame_text(const diog::trace::Frame* f) {
  if (f == nullptr) return "<null>";
  return f->function + "@" + f->file + ":" + std::to_string(f->line);
}

}  // namespace

std::string stores_equal(const ev::EventStore& expected,
                         const ev::EventStore& actual) {
  if (expected.size() != actual.size()) {
    return counts_equal("store rows", expected.size(), actual.size());
  }
  for (std::uint64_t i = 0; i < expected.size(); ++i) {
    const ev::Event a = expected.event(i);
    const ev::Event b = actual.event(i);
    const char* col = nullptr;
    if (a.kind != b.kind) col = "kind";
    else if (a.api != b.api) col = "api";
    else if (a.flags != b.flags) col = "flags";
    else if (a.stream != b.stream) col = "stream";
    else if (a.stack != b.stack) col = "stack";
    else if (a.aux_stack != b.aux_stack) col = "aux_stack";
    else if (a.name != b.name) col = "name";
    else if (a.op_index != b.op_index) col = "op_index";
    else if (a.t_start != b.t_start) col = "t_start";
    else if (a.t_end != b.t_end) col = "t_end";
    else if (a.aux_time != b.aux_time) col = "aux_time";
    else if (a.gpu_time != b.gpu_time) col = "gpu_time";
    else if (a.bytes != b.bytes) col = "bytes";
    else if (a.value != b.value) col = "value";
    else if (a.link != b.link) col = "link";
    if (col != nullptr) {
      return std::string("column ") + col + " differs at row " +
             std::to_string(i);
    }
  }
  const ev::StackDict& sa = expected.stacks();
  const ev::StackDict& sb = actual.stacks();
  if (sa.stack_count() != sb.stack_count()) {
    return counts_equal("stack dictionary entries", sa.stack_count(),
                        sb.stack_count());
  }
  for (ev::StackId id = 0; id < sa.stack_count(); ++id) {
    if (sa.depth(id) != sb.depth(id)) {
      return "stack " + std::to_string(id) + " depth differs";
    }
    for (std::size_t f = 0; f < sa.depth(id); ++f) {
      if (frame_text(sa.frame(id, f)) != frame_text(sb.frame(id, f))) {
        return "stack " + std::to_string(id) + " frame " + std::to_string(f) +
               " differs";
      }
    }
  }
  if (expected.name_count() != actual.name_count()) {
    return counts_equal("name dictionary entries", expected.name_count(),
                        actual.name_count());
  }
  for (ev::NameId id = 0; id < expected.name_count(); ++id) {
    if (expected.name(id) != actual.name(id)) {
      return "name " + std::to_string(id) + " differs";
    }
  }
  return "";
}

ev::Cursor Filter::cursor(const ev::EventStore& s) const {
  ev::Cursor c(s);
  if (kinds_mask != ~0u) {
    for (std::size_t k = 0; k < ev::kEventKindCount; ++k) {
      if (kinds_mask == (1u << k)) c.kind(static_cast<ev::EventKind>(k));
    }
  }
  if (api >= 0) c.api(static_cast<diog::hooks::Fn>(api));
  if (flags_all != 0) c.flags_all(flags_all);
  c.t_start_at_least(t_min).t_start_below(t_max);
  return c;
}

bool Filter::matches(const ev::Event& e) const {
  return (kinds_mask & (1u << static_cast<std::uint32_t>(e.kind))) != 0 &&
         (api < 0 || e.api == static_cast<std::uint16_t>(api)) &&
         (e.flags & flags_all) == flags_all && e.t_start >= t_min &&
         e.t_start < t_max;
}

std::string Filter::describe() const {
  std::ostringstream o;
  o << "filter(kinds=0x" << std::hex << kinds_mask << std::dec
    << ", api=" << api << ", flags=0x" << std::hex << flags_all << std::dec
    << ", t=[" << t_min << "," << t_max << "))";
  return o.str();
}

std::uint64_t naive_count(const ev::EventStore& s, const Filter& f) {
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < s.size(); ++i) {
    if (f.matches(s.event(i))) ++n;
  }
  return n;
}

std::string bins_cover(const ev::BinnedSpans& b,
                       std::uint64_t events_in_range) {
  std::uint64_t sum = 0;
  for (const ev::TimeBin& bin : b.data) sum += bin.count;
  if (sum != events_in_range) {
    return "timeline bins hold " + std::to_string(sum) + " events, " +
           std::to_string(events_in_range) + " lie in range";
  }
  return counts_equal("timeline matched", events_in_range, b.matched);
}

std::string archive_matches(const std::map<std::string, Blob>& pushed,
                            const std::map<std::string, Blob>& archived) {
  for (const auto& [id, blob] : pushed) {
    const auto it = archived.find(id);
    if (it == archived.end()) return "pushed run " + id + " is not archived";
    if (!(it->second == blob)) {
      return "archived object " + id + " differs from the pushed bytes";
    }
  }
  for (const auto& [id, blob] : archived) {
    if (pushed.count(id) == 0) return "archive holds unpushed object " + id;
  }
  return "";
}

namespace {

// Recursive-descent JSON recogniser; advances `i` past one value.
class JsonScan {
 public:
  explicit JsonScan(const std::string& s) : s_(s) {}

  bool document() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value(int depth) {
    if (depth > 256 || i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object(int depth) {
    ++i_;
    ws();
    if (peek('}')) return ++i_, true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!peek(':')) return false;
      ++i_;
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek('}')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool array(int depth) {
    ++i_;
    ws();
    if (peek(']')) return ++i_, true;
    for (;;) {
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek(']')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool string() {
    if (!peek('"')) return false;
    ++i_;
    while (i_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_++]))) {
            return false;
          }
        }
      } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek('-')) ++i_;
    if (peek('0')) {
      ++i_;
    } else if (!digits()) {
      return false;
    }
    if (peek('.')) {
      ++i_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digits()) return false;
    }
    return i_ > start;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(i_, l.size(), l) != 0) return false;
    i_ += l.size();
    return true;
  }
  void ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
            s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) { return JsonScan(text).document(); }

std::string json_response_ok(const std::string& what, int status,
                             const std::string& body) {
  if (status != 200) return what + ": HTTP status " + std::to_string(status);
  if (!json_valid(body)) return what + ": body is not valid JSON";
  return "";
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return -1;
}

}  // namespace pb::check
