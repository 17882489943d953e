#pragma once

/// \file worker_pool.hpp
/// Persistent fork–join pool behind tile-parallel island stepping.
///
/// The calling thread is worker 0 and the pool owns `size − 1` helper
/// threads that live as long as it does. `run(n, job)` is one fork and one
/// join: it starts `job(w)` on helpers 1..n−1, runs `job(0)` itself, and
/// returns once every worker has finished. Between jobs a helper spins
/// on pause instructions, then yields its core, and after a bounded number
/// of both blocks on a C++20 `atomic::wait`, so an idle pool costs no CPU
/// and an oversubscribed host (many pools, few cores) does not starve the
/// threads doing real work.
///
/// An exception thrown by a job is caught on its worker and rethrown by
/// `run` on the calling thread after the join — worker 0's first, then the
/// lowest-numbered helper's — and the pool stays usable and joinable.

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace nocdvfs::noc {

class WorkerPool {
 public:
  /// Most workers one pool can run (the job word keeps the count in 8 bits).
  static constexpr int kMaxSize = 255;

  /// `size` workers in all, counting the calling thread (1..kMaxSize).
  explicit WorkerPool(int size);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const noexcept { return static_cast<int>(threads_.size()) + 1; }

  /// Run `job(w)` for every w in [0, n), 1 <= n <= size(), with w = 0 on
  /// the calling thread; return when all n have finished.
  template <typename Job>
  void run(int n, Job& job) {
    run_erased(n, [](void* ctx, int w) { (*static_cast<Job*>(ctx))(w); }, &job);
  }

 private:
  using JobFn = void (*)(void*, int);

  void run_erased(int n, JobFn fn, void* ctx);
  /// Store the next job word for `n` workers (0 = stop) and wake helpers.
  void publish(int n);
  void helper_loop(int w);

  std::vector<std::exception_ptr> errors_;  ///< per worker, set by a failed job

  // The current job; written by the caller before the job word that
  // publishes it, read only by the helpers that take part in it.
  JobFn fn_ = nullptr;
  void* ctx_ = nullptr;

  /// (job sequence number << 8) | worker count, 0 = stop. The count
  /// travels in the same word as the sequence number, so a helper that
  /// sits a job out never reads state the caller may already be
  /// rewriting for the next one.
  std::atomic<std::uint32_t> job_{0};
  std::atomic<int> pending_{0};  ///< helpers still running the current job

  std::vector<std::thread> threads_;  ///< last: the helpers use every member above
};

}  // namespace nocdvfs::noc
