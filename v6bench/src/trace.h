#pragma once

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each v6mon layer, kept in memory and written at exit as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace v6bench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

class Trace {
 public:
  using SpanId = std::uint32_t;
  static constexpr SpanId kNoSpan = 0;

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;  ///< The span open when this one began.
  };

  /// Open a span nested in the innermost open one.
  SpanId begin(std::string name);
  /// Close the innermost open span, which must be `id`.
  void end(SpanId id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration of `id` minus the time its direct children cover.
  [[nodiscard]] std::uint64_t self_ns(SpanId id) const;
  /// Summed duration of the direct children of `id`.
  [[nodiscard]] std::uint64_t children_ns(SpanId id) const;

  /// Per-name table: calls, total and self time in seconds.
  [[nodiscard]] std::string layer_table() const;
  /// {"traceEvents": [...complete events...], "otherData": <metadata>}.
  /// `metadata_json` must be a JSON object.
  void write_chrome_json(std::ostream& out, const std::string& metadata_json) const;

 private:
  std::vector<Span> spans_;  ///< spans_[id - 1]; ids start at 1.
  std::vector<SpanId> open_;
};

/// Times one call from outside. With a trace it also records the call
/// as a span; without one it only reads the clock.
class Timed {
 public:
  Timed(Trace* trace, const char* name)
      : trace_(trace),
        id_(trace != nullptr ? trace->begin(name) : Trace::kNoSpan),
        start_ns_(now_ns()) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() { stop(); }

  /// End the measurement (first call only) and return it in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = static_cast<double>(now_ns() - start_ns_) * 1e-9;
      if (trace_ != nullptr) trace_->end(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Trace* trace_;
  Trace::SpanId id_;
  std::uint64_t start_ns_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace v6bench
