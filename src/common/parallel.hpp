#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edsim {

/// Worker count used when a caller passes 0: the EDSIM_THREADS environment
/// variable if set (>= 1), otherwise std::thread::hardware_concurrency(),
/// never less than 1. Read once at first use.
unsigned default_threads();

/// Small fixed-size thread pool, deliberately work-stealing-free: a job is
/// one index space [0, n) handed out through a single atomic counter, so
/// there are no per-worker deques to steal from and no ordering surprises.
/// Determinism contract: fn(i) must only write state owned by index i
/// (e.g. results[i]); then the output is identical for every worker count,
/// which is what the sweep/yield determinism tests pin down.
///
/// The calling thread participates as a worker, so a pool of size 1 runs
/// jobs inline with zero synchronization traffic.
class ThreadPool {
 public:
  /// threads == 0 picks default_threads(). The pool spawns threads - 1
  /// workers; the caller is the remaining worker.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, caller included.
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Invoke fn(i) for every i in [0, n); blocks until all calls returned.
  /// At most `max_workers` threads participate (0 = all; 1 = inline).
  /// The first exception thrown by fn is rethrown here after the index
  /// space is drained.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn,
                      unsigned max_workers = 0);

  /// Process-wide shared pool, built lazily with default_threads().
  static ThreadPool& global();

 private:
  struct Job {
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<unsigned> slots{0};  ///< pool workers still allowed to join
    std::atomic<unsigned> active{0};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void worker_loop();
  static void drain(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;          ///< current job, guarded by mutex_
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Run fn(i) for i in [0, n) on the global pool. threads == 0 uses the
/// default; threads == 1 runs inline (no pool traffic). Results must be
/// placement-deterministic (fn(i) writes only slot i), making the outcome
/// independent of the thread count.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace edsim
