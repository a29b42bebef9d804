// The process-wide worker pool: one fixed set of threads for every
// parallel loop in the library.
//
// Training (sample-parallel layer passes), data rendering, campaign
// feature extraction, run_parallel_pass and the parallel branch and
// bound all fan out through `parallel_for`. Helper threads start once,
// on first use, and park between calls, so a call costs a wake-up rather
// than a thread creation (and the fresh malloc arena each new thread
// brings).
//
// Semantics of one call:
//   * The calling thread takes part. Helpers join while free slots
//     remain and claim indices off one atomic counter, so which thread
//     runs an index is schedule-dependent; callers that need
//     deterministic results write each index's result to its own slot.
//   * A call waits only for indices that some thread has claimed. A
//     thread blocked in the middle of a call never waits for an index
//     nobody has started, so nested calls (a job that itself calls
//     parallel_for) and jobs that wait on each other's *running*
//     siblings cannot deadlock, even when every helper is busy: the
//     caller then runs its whole loop alone.
//   * The first exception thrown by `fn` stops the claiming of further
//     work (already-running indices finish) and is rethrown on the
//     caller.
//
// The width is std::thread::hardware_concurrency() (at least 1), fixed
// when the pool starts. No setting changes it: results never depend on
// it, only wall time does.
#pragma once

#include <cstddef>
#include <functional>

namespace dpv {

/// Threads one call can use at most, the calling thread included.
std::size_t pool_width();

/// Runs `fn(i)` once for every i in [0, count) on at most `max_threads`
/// threads (capped by pool_width(); <= 1 runs inline on the caller) and
/// returns when every claimed index has finished. Rethrows the first
/// exception `fn` threw; indices not yet claimed at that point are
/// skipped.
void parallel_for(std::size_t count, std::size_t max_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dpv
