#include "noc/worker_pool.hpp"

#include <stdexcept>

namespace nocdvfs::noc {

namespace {

/// A waiter first spins on pause instructions (~20 µs on a 2.1 GHz Xeon),
/// then yields its core in a loop (a few ms), and only then blocks. The
/// yield phase matters twice: a blocked thread takes tens of µs to wake on
/// a VM, and if both sides of the fork–join keep missing each other's
/// spin window every island cycle pays two such wake-ups; while on an
/// oversubscribed host a yielding waiter hands its core to the thread
/// that has the work.
constexpr int kPauseSpins = 1 << 10;
constexpr int kYieldSpins = 1 << 12;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `value` differs from `old` (acquire): spin, yield, block.
template <typename T>
T await_change(const std::atomic<T>& value, T old) noexcept {
  for (int i = 0; i < kPauseSpins + kYieldSpins; ++i) {
    const T now = value.load(std::memory_order_acquire);
    if (now != old) return now;
    if (i < kPauseSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  for (;;) {
    value.wait(old, std::memory_order_acquire);
    const T now = value.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

WorkerPool::WorkerPool(int size) {
  if (size < 1 || size > kMaxSize) {
    throw std::invalid_argument("WorkerPool: size must be in [1, 255]");
  }
  errors_.resize(static_cast<std::size_t>(size));
  threads_.reserve(static_cast<std::size_t>(size - 1));
  for (int w = 1; w < size; ++w) threads_.emplace_back([this, w] { helper_loop(w); });
}

WorkerPool::~WorkerPool() {
  publish(0);
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::publish(int n) {
  const std::uint32_t seq = (job_.load(std::memory_order_relaxed) >> 8) + 1;
  job_.store((seq << 8) | static_cast<std::uint32_t>(n), std::memory_order_release);
  job_.notify_all();
}

void WorkerPool::helper_loop(int w) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(job_, seen);
    const int n = static_cast<int>(seen & 0xffu);
    if (n == 0) return;  // stop
    if (w >= n) continue;  // not part of this job
    try {
      fn_(ctx_, w);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
  }
}

void WorkerPool::run_erased(int n, JobFn fn, void* ctx) {
  if (n < 1 || n > size()) throw std::invalid_argument("WorkerPool::run: bad worker count");
  fn_ = fn;
  ctx_ = ctx;
  pending_.store(n - 1, std::memory_order_relaxed);
  if (n > 1) publish(n);
  std::exception_ptr error;
  try {
    fn(ctx, 0);
  } catch (...) {
    error = std::current_exception();
  }
  for (int left = pending_.load(std::memory_order_acquire); left != 0;
       left = pending_.load(std::memory_order_acquire)) {
    await_change(pending_, left);
  }
  for (int w = 1; w < n && !error; ++w) {
    std::swap(error, errors_[static_cast<std::size_t>(w)]);
  }
  for (std::exception_ptr& e : errors_) e = nullptr;
  if (error) std::rethrow_exception(error);
}

}  // namespace nocdvfs::noc
