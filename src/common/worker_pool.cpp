#include "common/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dpv {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// How long a helper looks for the next job, and a caller for its job's
/// end, before blocking. Fork-joins in training come every few hundred
/// microseconds, so a short spin saves most futex round trips.
constexpr std::chrono::microseconds kSpin{50};

/// Spins on `ready` for up to kSpin; false means the caller should block.
template <class Ready>
bool spin_until(Ready&& ready) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (unsigned n = 1;; ++n) {
    if (ready()) return true;
    cpu_relax();
    if (n % 64 == 0 && std::chrono::steady_clock::now() >= until) return false;
  }
}

/// One parallel_for call. Shared with the helpers that joined it, so a
/// helper may finish touching it after the caller has returned.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t helper_slots = 0;  ///< helpers that may still join; pool mutex
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;  ///< guards `error` and the completion wait
  std::condition_variable finished;
  std::exception_ptr error;

  /// Claims and runs indices until none is left, then reports how many
  /// this thread finished (a failed job skips the rest but counts them).
  void work() {
    std::size_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count; ++ran) {
      if (failed.load(std::memory_order_relaxed)) continue;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    if (ran > 0 && done.fetch_add(ran, std::memory_order_acq_rel) + ran == count) {
      std::lock_guard<std::mutex> lock(mutex);
      finished.notify_all();
    }
  }
};

class WorkerPool {
 public:
  WorkerPool() : width_(std::max(1u, std::thread::hardware_concurrency())) {
    helpers_.reserve(width_ - 1);
    for (std::size_t t = 1; t < width_; ++t) helpers_.emplace_back([this] { helper_loop(); });
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  std::size_t width() const { return width_; }

  void run(std::size_t count, std::size_t max_threads,
           const std::function<void(std::size_t)>& fn) {
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->count = count;
    job->helper_slots = std::min({max_threads, width_, count}) - 1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(job);
      queued_.fetch_add(1);
    }
    if (sleepers_.load() > 0) wake_.notify_all();
    job->work();
    {
      // Every index is claimed by now; helpers that have not joined yet
      // must not start on a finished job.
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = std::find(queue_.begin(), queue_.end(), job);
      if (it != queue_.end()) {
        queue_.erase(it);
        queued_.fetch_sub(1);
      }
    }
    const auto all_done = [&] { return job->done.load(std::memory_order_acquire) == count; };
    if (!spin_until(all_done)) {
      std::unique_lock<std::mutex> lock(job->mutex);
      job->finished.wait(lock, all_done);
    }
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  void helper_loop() {
    while (true) {
      spin_until([&] { return queued_.load(std::memory_order_relaxed) > 0; });
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (queue_.empty() && !stopping_) {
          sleepers_.fetch_add(1);
          wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
          sleepers_.fetch_sub(1);
        }
        if (stopping_) return;
        job = queue_.front();
        if (--job->helper_slots == 0) {
          queue_.pop_front();
          queued_.fetch_sub(1);
        }
      }
      job->work();
    }
  }

  const std::size_t width_;
  std::vector<std::thread> helpers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> queue_;  ///< jobs with free helper slots
  std::atomic<std::size_t> queued_{0};      ///< queue_.size(), for the spin
  std::atomic<std::size_t> sleepers_{0};    ///< helpers blocked on wake_
  bool stopping_ = false;
};

WorkerPool& pool() {
  static WorkerPool instance;
  return instance;
}

}  // namespace

std::size_t pool_width() { return pool().width(); }

void parallel_for(std::size_t count, std::size_t max_threads,
                  const std::function<void(std::size_t)>& fn) {
  // Serial callers never start the pool.
  if (count > 1 && max_threads > 1 && pool().width() > 1)
    return pool().run(count, max_threads, fn);
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace dpv
