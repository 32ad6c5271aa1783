#include "trace.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace v6bench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Trace::SpanId Trace::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<SpanId>(spans_.size() + 1);
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Trace::end(SpanId id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace spans must close innermost first");
  }
  open_.pop_back();
  spans_[id - 1].end_ns = now_ns();
}

std::uint64_t Trace::children_ns(SpanId id) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) sum += s.end_ns - s.start_ns;
  }
  return sum;
}

std::uint64_t Trace::self_ns(SpanId id) const {
  const Span& s = spans_[id - 1];
  return s.end_ns - s.start_ns - children_ns(id);
}

std::string Trace::layer_table() const {
  struct Row {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    ++r.calls;
    r.total_ns += s.end_ns - s.start_ns;
    r.self_ns += self_ns(s.id);
  }
  std::string out = "span                    calls    total_s     self_s\n";
  char line[128];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-22s %6llu %10.4f %10.4f\n", name.c_str(),
                  static_cast<unsigned long long>(r.calls),
                  static_cast<double>(r.total_ns) * 1e-9,
                  static_cast<double>(r.self_ns) * 1e-9);
    out += line;
  }
  return out;
}

void Trace::write_chrome_json(std::ostream& out, const std::string& metadata_json) const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are v6bench's own identifiers: no JSON escaping needed.
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                  "\"end_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                  static_cast<double>(s.end_ns - t0) * 1e-3);
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json << "}\n";
}

}  // namespace v6bench
