#ifndef TSG_BASE_THREAD_POOL_H_
#define TSG_BASE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace tsg::base {

/// Point-in-time utilization counters for a ThreadPool (all cumulative since
/// process start). These depend on the pool width and on scheduling luck —
/// helper tasks race the calling thread for chunks — so they are observability
/// data, never inputs to anything that must be deterministic.
struct ThreadPoolStats {
  int64_t tasks_scheduled = 0;  ///< Tasks handed to Schedule().
  int64_t tasks_executed = 0;   ///< Tasks completed by worker threads.
  int64_t idle_waits = 0;       ///< Times a worker went to sleep on an empty queue.
  int64_t parallel_loops = 0;   ///< ParallelFor calls fanned out to the pool.
  int64_t serial_loops = 0;     ///< ParallelFor calls that ran inline instead.
  int64_t loop_chunks = 0;      ///< Chunks produced across all parallel loops.
};

/// Fixed-size worker pool behind ParallelFor. The process-wide instance is created
/// lazily on first use and sized from the TSG_THREADS environment variable when set
/// (a whole number >= 1, clamped to 256; any other value exits 2), otherwise
/// std::thread::hardware_concurrency(). Callers of
/// ParallelFor participate in the loop themselves, so a pool configured for N-way
/// parallelism holds N - 1 worker threads.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool. Intentionally leaked: worker threads must stay valid through
  /// static destruction, and the OS reclaims them at process exit.
  static ThreadPool& Global();

  /// Degree of concurrency ParallelFor may use (including the calling thread).
  int max_parallelism() const {
    return max_parallelism_.load(std::memory_order_relaxed);
  }

  /// Overrides the concurrency degree at runtime (determinism tests, thread-count
  /// sweeps in benches). n <= 0 restores the configured size. Grows the worker set
  /// when asked for more than was configured; never shrinks it (idle workers sleep).
  void SetMaxParallelism(int n);

  /// Enqueues one task for a worker thread. ParallelFor is the main client; exposed
  /// for ad-hoc background work.
  void Schedule(std::function<void()> task);

  /// Guarantees at least `count` worker threads exist so Schedule()d tasks make
  /// progress even when max_parallelism() == 1 (a 1-wide pool holds zero workers
  /// — ParallelFor runs inline — so scheduled work would otherwise sit queued
  /// forever). Does NOT change max_parallelism: loops stay as serial as
  /// configured; only the background-task capacity grows. Never shrinks.
  void EnsureScheduleWorkers(int count);

  /// Worker threads the pool holds now. Zero for a 1-wide pool that no caller
  /// grew: a task Schedule()d there would never run. Never decreases.
  int worker_count() const;

  /// Snapshot of the cumulative utilization counters (relaxed reads).
  ThreadPoolStats stats() const;

  /// Instrumentation hook used by ParallelFor to attribute one loop dispatch
  /// (inline or fanned out) to this pool's stats. Inline: the serial path runs
  /// once per kernel launch, and tiny-GEMM workloads launch millions.
  void NoteLoop(bool parallel, int64_t chunks) {
    (parallel ? parallel_loops_ : serial_loops_)
        .fetch_add(1, std::memory_order_relaxed);
    loop_chunks_.fetch_add(chunks, std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();
  void EnsureWorkersLocked(int count);

  const int configured_;
  std::atomic<int> max_parallelism_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::atomic<int64_t> tasks_scheduled_{0};
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> idle_waits_{0};
  std::atomic<int64_t> parallel_loops_{0};
  std::atomic<int64_t> serial_loops_{0};
  std::atomic<int64_t> loop_chunks_{0};
};

/// True while the calling thread is executing a ParallelFor body. Nested parallel
/// constructs check this and run serially instead of blocking on a pool whose
/// workers may all be occupied by the outer loop.
bool InParallelRegion();

/// Marks the calling thread as inside a parallel region for the guard's
/// lifetime, so every ParallelFor it reaches runs inline. Required whenever a
/// long-running task is Schedule()d onto a pool worker (the tsgd daemon's job
/// execution): if such a task fanned a nested loop onto the pool while sibling
/// tasks occupy every worker, the fan-out's helper tasks could never run and
/// the workers would deadlock waiting on each other. Inline execution is safe
/// because ParallelFor results are bit-identical at any parallelism.
class ParallelRegionGuard {
 public:
  ParallelRegionGuard();
  ~ParallelRegionGuard();
  ParallelRegionGuard(const ParallelRegionGuard&) = delete;
  ParallelRegionGuard& operator=(const ParallelRegionGuard&) = delete;

 private:
  bool saved_;
};

/// One task offered to an idle pool worker ahead of need; the owner collects
/// its result with Take(). Exactly one thread runs the task, chosen by one
/// compare-and-swap: a worker that dequeues it first runs it under a
/// ParallelRegionGuard (as the daemon's jobs run, so a loop inside it cannot
/// fan out to a pool whose workers are all busy and deadlock), and otherwise
/// Take() runs it inline on the calling thread. A pool without workers is
/// never handed the task, since nothing would dequeue it; Take() runs it. An
/// exception from the task is rethrown by Take().
///
/// Destroying a Lookahead that was not taken cancels a task no worker has
/// started (a worker that dequeues it later does nothing) and waits for one a
/// worker is running, so what the task refers to need only outlive the
/// Lookahead. A result or exception nobody took is dropped.
template <typename T>
class Lookahead {
 public:
  Lookahead(ThreadPool& pool, std::function<T()> task)
      : state_(std::make_shared<State>()) {
    state_->task = std::move(task);
    if (pool.worker_count() == 0) return;
    pool.Schedule([state = state_] {
      if (!state->Claim(kWorker)) return;
      const ParallelRegionGuard guard;
      std::optional<T> value;
      std::exception_ptr error;
      try {
        // The task dies with this statement, before the owner can see `done`.
        value.emplace(std::exchange(state->task, nullptr)());
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      state->value = std::move(value);
      state->error = error;
      state->done = true;
      state->done_cv.notify_all();
    });
  }

  ~Lookahead() {
    if (taken_) return;
    if (state_->Claim(kOwner)) {
      state_->task = nullptr;  // Cancelled: release what it captured now.
      return;
    }
    Wait();
  }

  Lookahead(const Lookahead&) = delete;
  Lookahead& operator=(const Lookahead&) = delete;

  /// The task's result: runs the task inline unless a worker claimed it
  /// first, in which case waits for that worker. Call at most once.
  T Take() {
    taken_ = true;
    if (state_->Claim(kOwner)) {
      ran_inline_ = true;
      return std::exchange(state_->task, nullptr)();
    }
    Wait();
    if (state_->error) std::rethrow_exception(state_->error);
    return std::move(*state_->value);
  }

  /// True once Take() has run the task on the calling thread; false while it
  /// has not been taken or when a worker ran it.
  bool ran_inline() const { return ran_inline_; }

 private:
  enum Claimant : int { kOffered, kWorker, kOwner };

  /// Shared with the queued entry, which may outlive the Lookahead.
  struct State {
    std::function<T()> task;  ///< Read and reset only by the claimant.
    std::atomic<int> claimant{kOffered};
    std::mutex mu;
    std::condition_variable done_cv;
    bool done = false;  ///< Set by the worker once value/error are final.
    std::optional<T> value;
    std::exception_ptr error;

    bool Claim(Claimant who) {
      int expected = kOffered;
      return claimant.compare_exchange_strong(expected, who,
                                              std::memory_order_acq_rel);
    }
  };

  /// Blocks until the worker that claimed the task has finished it.
  void Wait() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->done_cv.wait(lock, [this] { return state_->done; });
  }

  std::shared_ptr<State> state_;
  bool taken_ = false;
  bool ran_inline_ = false;
};

namespace detail {
/// Fan-out path of ParallelFor; only reached when the loop actually forks, so
/// the std::function conversion (and its possible heap allocation) never
/// happens on the serial path — the training hot loop's zero-allocation
/// contract (tests/alloc_test.cc) depends on that.
void ParallelForFanOut(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& body);
}  // namespace detail

/// Runs body(chunk_begin, chunk_end) over a partition of [begin, end) using the
/// global pool, with chunks of at least `grain` items (grain <= 0 is treated as 1).
/// Runs serially inline when the range fits in one grain, the pool is capped at one
/// thread, or the caller is already inside a parallel region — without
/// type-erasing `body`, so a serial loop performs zero heap allocations.
///
/// Determinism contract: the body must write only state owned by its index range.
/// Cross-item reductions belong *after* the loop, folded in index order (see
/// ParallelMapReduce) — that is what keeps results bit-identical across thread
/// counts. The first exception thrown by any chunk is rethrown on the calling
/// thread; remaining chunks are skipped.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, const Body& body) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain <= 0) grain = 1;
  ThreadPool& pool = ThreadPool::Global();
  if (InParallelRegion() || pool.max_parallelism() <= 1 || n <= grain) {
    pool.NoteLoop(/*parallel=*/false, /*chunks=*/1);
    body(begin, end);
    return;
  }
  detail::ParallelForFanOut(begin, end, grain, body);
}

/// Evaluates map(i) for i in [0, n) in parallel and returns the results in index
/// order. T must be default-constructible and move-assignable.
template <typename T, typename MapFn>
std::vector<T> ParallelMap(int64_t n, int64_t grain, MapFn&& map) {
  std::vector<T> out(static_cast<size_t>(std::max<int64_t>(n, 0)));
  ParallelFor(0, n, grain, [&](int64_t chunk_begin, int64_t chunk_end) {
    for (int64_t i = chunk_begin; i < chunk_end; ++i) {
      out[static_cast<size_t>(i)] = map(i);
    }
  });
  return out;
}

/// Parallel map followed by a strictly index-ordered fold: the returned value is
/// reduce(...reduce(reduce(init, map(0)), map(1))..., map(n-1)). Because every
/// per-item value is computed independently and the fold order is fixed, the result
/// is bit-identical for any thread count or grain.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelMapReduce(int64_t n, int64_t grain, MapFn&& map, T init,
                    ReduceFn&& reduce) {
  std::vector<T> parts = ParallelMap<T>(n, grain, std::forward<MapFn>(map));
  T acc = std::move(init);
  for (T& part : parts) acc = reduce(std::move(acc), std::move(part));
  return acc;
}

/// Shorthand for the common ordered sum-of-doubles reduction.
template <typename MapFn>
double ParallelSum(int64_t n, int64_t grain, MapFn&& map) {
  return ParallelMapReduce<double>(n, grain, std::forward<MapFn>(map), 0.0,
                                   [](double acc, double v) { return acc + v; });
}

}  // namespace tsg::base

#endif  // TSG_BASE_THREAD_POOL_H_
