#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

namespace edsim {

unsigned default_threads() {
  static const unsigned value = [] {
    if (const char* env = std::getenv("EDSIM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
  }();
  return value;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::drain(Job& job) {
  // Hand out indices through one shared counter; each worker owns exactly
  // the indices it claims, so output placement never depends on timing.
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
      // Claim the rest of the index space so everyone winds down quickly.
      job.next.store(job.n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || (job_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      job = job_;
      // Respect the caller's worker cap: claim a participation slot or
      // sit this job out.
      unsigned slots = job->slots.load(std::memory_order_relaxed);
      while (slots > 0 &&
             !job->slots.compare_exchange_weak(slots, slots - 1,
                                               std::memory_order_relaxed)) {
      }
      if (slots == 0) continue;
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    drain(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->active.fetch_sub(1, std::memory_order_relaxed);
    }
    done_.notify_all();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn,
                                unsigned max_workers) {
  if (n == 0) return;
  const bool inline_only =
      workers_.empty() || max_workers == 1 || n == 1;
  Job job;
  job.n = n;
  job.fn = &fn;
  const unsigned pool_cap = static_cast<unsigned>(workers_.size());
  job.slots.store(max_workers == 0 ? pool_cap
                                   : std::min(pool_cap, max_workers - 1),
                  std::memory_order_relaxed);
  if (!inline_only) {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
    wake_.notify_all();
  }
  drain(job);
  if (!inline_only) {
    std::unique_lock<std::mutex> lock(mutex_);
    // Unpublish, then wait for workers that already picked the job up.
    job_ = nullptr;
    done_.wait(lock, [&] {
      return job.active.load(std::memory_order_relaxed) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (n == 0) return;
  if (threads == 0) threads = default_threads();
  if (threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::global().for_each_index(n, fn, threads);
}

}  // namespace edsim
