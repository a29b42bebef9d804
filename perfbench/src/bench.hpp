// Shared types of the repo benchmark: command-line options, the result
// every workload fills in, and the small statistics helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "primary" (the committed battery) or "heldout" (a second battery
  /// with its own committed answers, kept for confirming later claims).
  std::string inputs = "primary";
  std::string out_dir = ".bench_out";
  /// Run every query once with the dense-tableau LP engine instead of
  /// measuring, and write the verdicts (the known-answer derivation).
  bool derive_answers = false;
  std::size_t threads = 4;
};

/// Everything one workload run reports back to main().
struct RunResult {
  std::vector<double> setup_seconds;  ///< one entry per set-up repetition
  std::vector<double> pass_seconds;   ///< untraced passes only
  /// speed_probe_seconds() taken just before each set-up repetition and
  /// each untraced pass (the time metrics are normalized by them).
  std::vector<double> setup_probe_seconds;
  std::vector<double> pass_probe_seconds;
  std::vector<double> traced_pass_seconds;
  /// Per-pass TailVerifier::verify latencies in milliseconds.
  std::vector<std::vector<double>> pass_latencies_ms;
  std::size_t attempted = 0;   ///< operations over all passes
  std::size_t undecided = 0;   ///< operations left UNKNOWN
  double certified_frac = 0.0;
  /// The verdict text of the first pass (compared against the committed
  /// known answers); `answers_consistent` is false when any later pass
  /// produced a different text.
  std::string answers;
  bool answers_consistent = true;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layer;
  std::size_t replays = 0;
  std::size_t replay_mismatches = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A fixed kernel compiled into the benchmark, independent of the
/// library: a scalar floating-point and hashing chain plus a pointer chase
/// over a 4 MiB random cycle, best of three rounds. It measures how fast
/// this machine runs right now.
double speed_probe_seconds();

double median(std::vector<double> values);
/// Linear-interpolated percentile (p in [0, 100]).
double percentile(std::vector<double> values, double p);
/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that still has at
/// least ten of `n` samples beyond it (50 when none does).
double tail_percentile(std::size_t n);

/// Deterministic Fisher-Yates permutation of 0..n-1 from `seed`: the
/// order in which a workload issues its operations.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// What one pass over a workload's operations produced.
struct PassOutcome {
  std::string answers;  ///< verdict text, compared with the known answers
  std::vector<double> latencies_ms;  ///< TailVerifier::verify latency per query
  std::size_t operations = 0;
  std::size_t undecided = 0;
};

/// Whole passes until `options.seconds` are spent: a pass started in time
/// always finishes, and every run makes at least two untraced passes.
/// Traced runs alternate untraced and traced passes; the untraced ones
/// give the end-to-end numbers, and the pair gives the tracing overhead.
template <typename PassFn>
void run_passes(const Options& options, Tracer& tracer, RunResult& result, PassFn&& one_pass) {
  const auto loop_start = Clock::now();
  for (std::size_t pass = 0; result.pass_seconds.size() < 2 ||
                             (options.trace && result.traced_pass_seconds.empty()) ||
                             seconds_since(loop_start) < options.seconds;
       ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    if (!traced) result.pass_probe_seconds.push_back(speed_probe_seconds());
    const auto pass_start = Clock::now();
    PassOutcome outcome;
    {
      const Scope span(tracer, "pass");
      outcome = one_pass();
    }
    const double wall = seconds_since(pass_start);
    if (traced) {
      result.traced_pass_seconds.push_back(wall);
      continue;
    }
    result.pass_seconds.push_back(wall);
    result.pass_latencies_ms.push_back(std::move(outcome.latencies_ms));
    result.attempted += outcome.operations;
    result.undecided += outcome.undecided;
    if (result.answers.empty()) result.answers = outcome.answers;
    else if (outcome.answers != result.answers) result.answers_consistent = false;
  }
  tracer.set_enabled(options.trace);
}

RunResult run_model_release(const Options& options, Tracer& tracer);
RunResult run_recertify(const Options& options, Tracer& tracer);
RunResult run_deep_proof(const Options& options, Tracer& tracer);

}  // namespace perfbench
