// dpv_perfbench: the repo's end-to-end benchmark program.
//
//   dpv_perfbench --workload <model-release|recertify|deep-proof>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--inputs primary|heldout] [--out-dir DIR] [--threads N]
//                 [--derive-answers]
//
// Runs one workload's set-up, then whole passes over its operations
// until `--seconds` have elapsed (a pass started in time always
// finishes), and writes into --out-dir:
//   result-<workload>.json   metrics, operation counts, replay checks
//   answers-<workload>.txt   the first pass's verdict text
//   trace-<workload>.json    Chrome trace events (traced runs only)
// perfbench/run.py builds this program, compares the verdict text with
// the committed known answers and prints the final result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  return best;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  const auto next = [&state]() {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

double speed_probe_seconds() {
  constexpr std::size_t n = 1 << 19;
  std::vector<std::uint32_t> next(n);
  std::vector<double> value(n);
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
    value[i] = 0.5 + static_cast<double>(i % 7) * 0.1;
  }
  std::uint64_t state = 88172645463325252ULL;  // xorshift: a fixed random cycle
  for (std::size_t i = n - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::swap(next[i], next[state % i]);
  }
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto start = Clock::now();
    double x = 1.0, acc = 0.0;
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t step = 0; step < 8000000; ++step) {
      x = x * 1.0000001 + 1e-9;
      h = (h ^ step) * 1099511628211ULL;
      if (h & 1) x -= 1e-10;
    }
    std::uint32_t p = 0;
    for (std::size_t step = 0; step < 6000000; ++step) {
      const double v = value[p];
      acc += v > 0.8 ? v * 1.0000001 : -v * 0.9999999;
      p = next[p];
    }
    volatile double sink = x + acc;
    (void)sink;
    best = std::min(best, seconds_since(start));
  }
  return best;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: dpv_perfbench --workload <model-release|recertify|deep-proof> "
               "--seed N --seconds S --trace 0|1 [--inputs primary|heldout] "
               "[--out-dir DIR] [--threads N] [--derive-answers]\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--derive-answers") {
      options.derive_answers = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") options.workload = v;
    else if (arg == "--seed") options.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atof(v);
    else if (arg == "--trace") options.trace = std::strcmp(v, "0") != 0;
    else if (arg == "--inputs") options.inputs = v;
    else if (arg == "--out-dir") options.out_dir = v;
    else if (arg == "--threads") options.threads = std::strtoul(v, nullptr, 10);
    else return false;
  }
  return !options.workload.empty() && options.seconds > 0.0 && options.threads > 0 &&
         (options.inputs == "primary" || options.inputs == "heldout");
}

/// The probe time the normalized metrics are expressed at: seconds "on a
/// machine where speed_probe_seconds() reads 0.25 s".
constexpr double kProbeNominal = 0.25;

double speed_scale(double probe_seconds) { return kProbeNominal / probe_seconds; }

std::vector<double> normalized(const std::vector<double>& seconds,
                               const std::vector<double>& probes) {
  std::vector<double> out;
  for (std::size_t i = 0; i < seconds.size(); ++i)
    out.push_back(seconds[i] * speed_scale(probes[i]));
  return out;
}

void put(std::FILE* f, const char* key, double value, bool last = false) {
  std::fprintf(f, "    \"%s\": %.9g%s\n", key, value, last ? "" : ",");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  options.threads = std::min<std::size_t>(
      options.threads, std::max(1u, std::thread::hardware_concurrency()));

  Tracer tracer(options.workload, options.trace);
  RunResult r;
  if (options.workload == "model-release") r = run_model_release(options, tracer);
  else if (options.workload == "recertify") r = run_recertify(options, tracer);
  else if (options.workload == "deep-proof") r = run_deep_proof(options, tracer);
  else {
    usage();
    return 2;
  }
  const double rss = peak_rss_mb();

  const std::string tag = options.workload + (options.inputs == "heldout" ? "-heldout" : "");
  {
    std::ofstream answers(options.out_dir + "/answers-" + tag + ".txt");
    answers << r.answers;
    if (!answers) {
      std::fprintf(stderr, "cannot write answers into %s\n", options.out_dir.c_str());
      return 1;
    }
  }
  if (options.derive_answers) return 0;

  // Latency over every untraced pass, each sample normalized by the probe
  // taken before its pass. The tail percentile is fixed by the operations
  // of the two passes every run makes, so it does not move with the
  // number of passes that fit into --seconds.
  std::vector<double> latencies, raw_latencies;
  for (std::size_t pass = 0; pass < r.pass_latencies_ms.size(); ++pass)
    for (const double ms : r.pass_latencies_ms[pass]) {
      raw_latencies.push_back(ms);
      latencies.push_back(ms * speed_scale(r.pass_probe_seconds[pass]));
    }
  const std::size_t per_pass = r.pass_latencies_ms.empty() ? 0 : r.pass_latencies_ms[0].size();
  const double tail_p = tail_percentile(2 * per_pass);
  const double decided =
      r.attempted > 0
          ? static_cast<double>(r.attempted - r.undecided) / static_cast<double>(r.attempted)
          : 0.0;

  const std::string result_path = options.out_dir + "/result-" + tag + ".json";
  std::FILE* f = std::fopen(result_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"passes\": %zu,\n", options.workload.c_str(),
               r.pass_seconds.size());
  std::fprintf(f, "  \"attempted\": %zu,\n  \"undecided\": %zu,\n", r.attempted, r.undecided);
  std::fprintf(f, "  \"answers_consistent\": %s,\n", r.answers_consistent ? "true" : "false");
  std::fprintf(f, "  \"replays\": %zu,\n  \"replay_mismatches\": %zu,\n", r.replays,
               r.replay_mismatches);
  std::fprintf(f, "  \"tail_percentile\": %g,\n  \"latency_samples\": %zu,\n", tail_p,
               latencies.size());
  std::fprintf(f, "  \"passes_s\": [");
  for (std::size_t i = 0; i < r.pass_seconds.size(); ++i)
    std::fprintf(f, "%s%.4f", i ? ", " : "", r.pass_seconds[i]);
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"raw\": {\n");
  put(f, "probe_s", median(r.pass_probe_seconds));
  put(f, "setup_s", median(r.setup_seconds));
  put(f, "table_s", median(r.pass_seconds));
  put(f, "verdict_p50_ms", median(raw_latencies));
  put(f, "verdict_tail_ms", percentile(raw_latencies, tail_p), true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"end_to_end\": {\n");
  put(f, "setup_s", median(normalized(r.setup_seconds, r.setup_probe_seconds)));
  put(f, "table_s", median(normalized(r.pass_seconds, r.pass_probe_seconds)));
  put(f, "verdict_p50_ms", median(latencies));
  put(f, "verdict_tail_ms", percentile(latencies, tail_p));
  put(f, "certified_frac", r.certified_frac);
  put(f, "decided_frac", decided);
  put(f, "peak_rss_mb", rss, true);
  std::fprintf(f, "  },\n  \"per_layer\": {\n");
  if (options.trace) {
    r.layer["trace.overhead_frac"] =
        r.traced_pass_seconds.empty()
            ? 0.0
            : median(r.traced_pass_seconds) / median(r.pass_seconds) - 1.0;
    double min_cover = 1.0;
    for (const auto& [name, cover] : tracer.child_coverage()) min_cover = std::min(min_cover, cover);
    r.layer["trace.min_child_cover"] = min_cover;
    std::size_t i = 0;
    for (const auto& [name, value] : r.layer) put(f, name.c_str(), value, ++i == r.layer.size());
  }
  std::fprintf(f, "  },\n  \"child_coverage\": {\n");
  {
    const auto coverage = tracer.child_coverage();
    std::size_t i = 0;
    for (const auto& [name, cover] : coverage) put(f, name.c_str(), cover, ++i == coverage.size());
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  if (options.trace) {
    const std::string trace_path = options.out_dir + "/trace-" + tag + ".json";
    if (!tracer.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(), trace_path.c_str());
  }
  return 0;
}
