#ifndef TSG_SERVE_JOB_QUEUE_H_
#define TSG_SERVE_JOB_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "serve/protocol.h"

namespace tsg::serve {

/// Lifecycle of one submitted job. Queued and running are the live states;
/// done/failed/cancelled/drained are terminal.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled, kDrained };

const char* JobStateName(JobState state);
bool IsTerminal(JobState state);

/// Everything the daemon tracks about one job. `result_json` is a raw JSON
/// object fragment (comma-led members, OkResponse form) on kDone; `error`
/// carries the failure on the other terminal states.
struct JobRecord {
  int64_t id = 0;  ///< Issued in submission order; the FIFO tiebreak.
  JobSpec spec;
  JobState state = JobState::kQueued;
  bool cancel_requested = false;
  std::string result_json;
  Status error;
};

/// Priority queue with per-tenant fairness and bounded in-flight work — the
/// scheduling half of the tsgd daemon, kept free of sockets and threads so the
/// policy is unit-testable. The server owns the loop: Submit from the protocol
/// handler, PopRunnable whenever capacity frees, run the popped job on the
/// thread pool, Complete from the worker.
///
/// PopRunnable picks among queued jobs whose tenant is below its in-flight cap:
/// highest priority first, then the tenant with the fewest running jobs (so a
/// tenant flooding the queue cannot starve the others), then submission order.
/// Queued ids are indexed by priority and tenant and running jobs are counted
/// per tenant, so a pop looks only at the head job of each tenant in one
/// priority level: its cost depends on the live priorities and tenants, never
/// on how many jobs the queue has served.
///
/// Retention is bounded: live (queued and running) records are always kept,
/// terminal ones only until 1024 later jobs have finished. An id that was
/// issued and then evicted reads as NotFound "job N expired".
/// All methods are thread-safe.
class JobQueue {
 public:
  struct Limits {
    int max_inflight = 2;             ///< Jobs running at once, all tenants.
    int max_inflight_per_tenant = 1;  ///< Running jobs per tenant.
    int64_t max_queued = 64;          ///< Waiting jobs; Submit rejects beyond.
  };

  explicit JobQueue(Limits limits);

  /// Enqueues a job and returns its id. FailedPrecondition when the backlog is
  /// at max_queued or the queue is draining.
  StatusOr<int64_t> Submit(JobSpec spec);

  /// Claims the next runnable job (marks it kRunning) per the policy above, or
  /// nullopt when nothing is runnable — backlog empty, in-flight caps reached,
  /// or draining.
  std::optional<JobRecord> PopRunnable();

  /// Resolves a running job. OK result -> kDone with its payload; error ->
  /// kCancelled when cancellation was requested, kDrained when the queue is
  /// draining (the job was stopped, not broken), kFailed otherwise.
  void Complete(int64_t id, const StatusOr<std::string>& result);

  /// Cancels a job: queued -> kCancelled immediately; running -> sets
  /// cancel_requested (the job's stop hook observes it and the job resolves
  /// through Complete). Returns NotFound(id) for ids Get does not hold and
  /// FailedPrecondition when the job is already terminal.
  Status Cancel(int64_t id);

  /// True when `id` is running with cancellation requested, or the queue is
  /// draining — the should_stop predicate handed to job runners.
  bool ShouldStop(int64_t id) const;

  /// Stops PopRunnable from issuing further work and fails every queued job as
  /// kDrained (their waiters are notified through the server's completion
  /// sweep). Running jobs keep going until their stop hook fires.
  void StartDrain();

  bool draining() const;

  std::optional<JobRecord> Get(int64_t id) const;
  /// The NotFound answer for an id Get does not hold: "job N expired ..." when
  /// N was issued and its terminal record has since been evicted, "no job N"
  /// when N was never issued.
  Status NotFound(int64_t id) const;
  /// Every retained record, submission order (status summaries, tests).
  std::vector<JobRecord> Snapshot() const;
  int running_count() const;
  int64_t queued_count() const;

 private:
  Status NotFoundLocked(int64_t id) const;
  /// Removes a queued job from ready_.
  void UnqueueLocked(const JobRecord& job);
  /// Appends a job that just turned terminal to retired_, then evicts the
  /// oldest terminal records beyond the retention bound.
  void RetireLocked(int64_t id);

  const Limits limits_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  bool draining_ = false;
  int running_ = 0;
  int64_t queued_ = 0;
  /// Live records plus the retained terminal ones.
  std::map<int64_t, JobRecord> jobs_;
  /// Queued ids: priority (highest first), then tenant, then submission order.
  std::map<int64_t, std::map<std::string, std::set<int64_t>>, std::greater<>>
      ready_;
  /// Running jobs per tenant; tenants with none have no entry.
  std::map<std::string, int> running_by_tenant_;
  /// Retained terminal ids, oldest completion first.
  std::deque<int64_t> retired_;
};

}  // namespace tsg::serve

#endif  // TSG_SERVE_JOB_QUEUE_H_
