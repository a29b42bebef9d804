// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed from the benchmark's own thread, around
// calls into the library's public entry points; nothing inside src/ is
// instrumented. Each span carries its name, start, end, parent span,
// workload and operation id. At exit the whole list is written as one
// Chrome trace-event file (Perfetto / chrome://tracing open it).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;  ///< index into the span list, -1 for a root
  long op = -1;      ///< operation id, -1 when the span is not one operation's
  double seconds() const { return (end_us - start_us) * 1e-6; }
};

class Tracer {
 public:
  explicit Tracer(std::string workload, bool enabled)
      : workload_(std::move(workload)), enabled_(enabled),
        origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when tracing is off).
  long begin(const std::string& name, long op = -1);
  void end(long id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per parent-span name: the share of its time its direct children
  /// cover (children run sequentially on this thread, so their durations
  /// add up without overlap).
  std::map<std::string, double> child_coverage() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const;

  std::string workload_;
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<long> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, long op = -1)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

}  // namespace perfbench
