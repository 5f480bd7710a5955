#include "base/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/check.h"
#include "base/parse.h"

namespace tsg::base {

namespace {

thread_local bool t_in_parallel_region = false;

/// TSG_THREADS when set: a whole number >= 1 (clamped to 256). Anything else
/// exits 2 naming the variable, like a malformed TSGBENCH_SEED.
int ConfiguredThreads() {
  if (const char* env = std::getenv("TSG_THREADS")) {
    int parsed = 0;
    if (!ParseNumber(env, &parsed) || parsed < 1) {
      std::fprintf(stderr,
                   "invalid value for TSG_THREADS: '%s' (want a whole number >= 1)\n",
                   env);
      std::exit(2);
    }
    return std::min(parsed, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : configured_(std::max(1, num_threads)), max_parallelism_(configured_) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureWorkersLocked(configured_ - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(ConfiguredThreads());
  return *pool;
}

void ThreadPool::SetMaxParallelism(int n) {
  const int target = n <= 0 ? configured_ : std::min(n, 256);
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureWorkersLocked(target - 1);
  }
  max_parallelism_.store(target, std::memory_order_relaxed);
}

void ThreadPool::EnsureWorkersLocked(int count) {
  while (static_cast<int>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::EnsureScheduleWorkers(int count) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureWorkersLocked(std::min(count, 256));
}

int ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TSG_CHECK(!shutdown_) << "Schedule on a shut-down ThreadPool";
    queue_.push_back(std::move(task));
  }
  tasks_scheduled_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  out.tasks_scheduled = tasks_scheduled_.load(std::memory_order_relaxed);
  out.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  out.idle_waits = idle_waits_.load(std::memory_order_relaxed);
  out.parallel_loops = parallel_loops_.load(std::memory_order_relaxed);
  out.serial_loops = serial_loops_.load(std::memory_order_relaxed);
  out.loop_chunks = loop_chunks_.load(std::memory_order_relaxed);
  return out;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        idle_waits_.fetch_add(1, std::memory_order_relaxed);
        cv_.wait(lock);
      }
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool InParallelRegion() { return t_in_parallel_region; }

ParallelRegionGuard::ParallelRegionGuard() : saved_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

ParallelRegionGuard::~ParallelRegionGuard() { t_in_parallel_region = saved_; }

namespace {

/// Bookkeeping shared by the caller and the helper tasks of one ParallelFor.
/// Chunks are claimed from an atomic cursor so load imbalance between chunks does
/// not idle any participant.
struct LoopState {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;
  int64_t num_chunks = 0;
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  int pending = 0;
  std::exception_ptr error;

  void RunChunks() {
    const bool saved = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      if (failed.load(std::memory_order_relaxed)) break;
      const int64_t chunk_begin = begin + c * chunk;
      const int64_t chunk_end = std::min(end, chunk_begin + chunk);
      try {
        (*body)(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    t_in_parallel_region = saved;
  }
};

}  // namespace

namespace detail {

void ParallelForFanOut(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& body) {
  const int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t parallelism = pool.max_parallelism();
  if (parallelism <= 1) {  // Raced with SetMaxParallelism; run inline.
    pool.NoteLoop(/*parallel=*/false, /*chunks=*/1);
    body(begin, end);
    return;
  }

  // ~4 chunks per participant balances load without over-fragmenting the range.
  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->end = end;
  state->chunk = std::max(grain, (n + parallelism * 4 - 1) / (parallelism * 4));
  state->num_chunks = (n + state->chunk - 1) / state->chunk;
  state->body = &body;
  pool.NoteLoop(/*parallel=*/true, state->num_chunks);

  const int helpers =
      static_cast<int>(std::min<int64_t>(parallelism - 1, state->num_chunks - 1));
  state->pending = helpers;
  for (int i = 0; i < helpers; ++i) {
    pool.Schedule([state] {
      state->RunChunks();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->pending == 0) state->done_cv.notify_all();
    });
  }
  state->RunChunks();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->pending == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace detail

}  // namespace tsg::base
