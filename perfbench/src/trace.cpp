#include "trace.hpp"

#include <cstdio>

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

long Tracer::begin(const std::string& name, long op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = now_us();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const long id = static_cast<long>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(long id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans nest strictly (RAII), so the closing span is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::child_coverage() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    has_child[static_cast<std::size_t>(s.parent)] = true;
  }
  std::map<std::string, std::pair<double, double>> sums;  // name -> (children, self+children)
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!has_child[i]) continue;
    auto& entry = sums[spans_[i].name];
    entry.first += child_seconds[i];
    entry.second += spans_[i].seconds();
  }
  std::map<std::string, double> coverage;
  for (const auto& [name, sum] : sums)
    coverage[name] = sum.second > 0.0 ? sum.first / sum.second : 0.0;
  return coverage;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, \"parent\": %ld, "
                 "\"workload\": \"%s\", \"op\": %ld}}%s\n",
                 s.name.c_str(), s.start_us, s.end_us - s.start_us, i, s.parent,
                 workload_.c_str(), s.op, i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
