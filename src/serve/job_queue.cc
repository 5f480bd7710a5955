#include "serve/job_queue.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace tsg::serve {

namespace {

/// Terminal records kept after their jobs finish, oldest evicted first. Live
/// records do not count against it.
constexpr int64_t kMaxRetained = 1024;

obs::Counter& QueueCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name);
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDrained: return "drained";
  }
  return "unknown";
}

bool IsTerminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

JobQueue::JobQueue(Limits limits) : limits_(limits) {}

StatusOr<int64_t> JobQueue::Submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::FailedPrecondition("daemon is draining; not accepting jobs");
  }
  if (queued_ >= limits_.max_queued) {
    QueueCounter("serve.queue.rejected").Add();
    return Status::FailedPrecondition(
        "job backlog full (" + std::to_string(limits_.max_queued) + " queued)");
  }
  const int64_t id = next_id_++;
  ready_[spec.priority][spec.tenant].insert(id);
  ++queued_;
  JobRecord& job = jobs_[id];
  job.id = id;
  job.spec = std::move(spec);
  QueueCounter("serve.queue.submitted").Add();
  return id;
}

void JobQueue::UnqueueLocked(const JobRecord& job) {
  auto level = ready_.find(job.spec.priority);
  auto tenant = level->second.find(job.spec.tenant);
  tenant->second.erase(job.id);
  if (tenant->second.empty()) level->second.erase(tenant);
  if (level->second.empty()) ready_.erase(level);
  --queued_;
}

void JobQueue::RetireLocked(int64_t id) {
  retired_.push_back(id);
  while (static_cast<int64_t>(retired_.size()) > kMaxRetained) {
    jobs_.erase(retired_.front());
    retired_.pop_front();
  }
}

std::optional<JobRecord> JobQueue::PopRunnable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || running_ >= limits_.max_inflight) return std::nullopt;
  // The highest priority level with an eligible tenant decides. Within it the
  // tenant with the fewest running jobs wins, ties going to the earliest head
  // id; each tenant's head is its earliest queued job at that level.
  for (const auto& [priority, tenants] : ready_) {
    int64_t best = 0;
    int best_running = 0;
    for (const auto& [tenant, ids] : tenants) {
      const auto running_it = running_by_tenant_.find(tenant);
      const int running =
          running_it == running_by_tenant_.end() ? 0 : running_it->second;
      if (running >= limits_.max_inflight_per_tenant) continue;
      const int64_t head = *ids.begin();
      if (best == 0 || running < best_running ||
          (running == best_running && head < best)) {
        best = head;
        best_running = running;
      }
    }
    if (best == 0) continue;
    JobRecord& job = jobs_.at(best);
    UnqueueLocked(job);
    job.state = JobState::kRunning;
    ++running_;
    ++running_by_tenant_[job.spec.tenant];
    QueueCounter("serve.queue.started").Add();
    return job;
  }
  return std::nullopt;
}

void JobQueue::Complete(int64_t id, const StatusOr<std::string>& result) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) return;
  JobRecord& job = it->second;
  --running_;
  auto tenant = running_by_tenant_.find(job.spec.tenant);
  if (--tenant->second == 0) running_by_tenant_.erase(tenant);
  if (result.ok()) {
    job.state = JobState::kDone;
    job.result_json = result.value();
    QueueCounter("serve.jobs.done").Add();
  } else if (job.cancel_requested) {
    job.state = JobState::kCancelled;
    job.error = Status::FailedPrecondition("job cancelled");
    QueueCounter("serve.jobs.cancelled").Add();
  } else if (draining_) {
    job.state = JobState::kDrained;
    job.error = Status::FailedPrecondition(
        "daemon drained before the job finished; resubmit to resume");
    QueueCounter("serve.jobs.drained").Add();
  } else {
    job.state = JobState::kFailed;
    job.error = result.status();
    QueueCounter("serve.jobs.failed").Add();
  }
  RetireLocked(id);
}

Status JobQueue::NotFoundLocked(int64_t id) const {
  if (id >= 1 && id < next_id_) {
    return Status::NotFound("job " + std::to_string(id) +
                            " expired: only the last " +
                            std::to_string(kMaxRetained) +
                            " finished jobs are kept");
  }
  return Status::NotFound("no job " + std::to_string(id));
}

Status JobQueue::NotFound(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return NotFoundLocked(id);
}

Status JobQueue::Cancel(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return NotFoundLocked(id);
  JobRecord& job = it->second;
  if (IsTerminal(job.state)) {
    return Status::FailedPrecondition("job " + std::to_string(id) +
                                      " already " + JobStateName(job.state));
  }
  job.cancel_requested = true;
  if (job.state == JobState::kQueued) {
    UnqueueLocked(job);
    job.state = JobState::kCancelled;
    job.error = Status::FailedPrecondition("job cancelled");
    QueueCounter("serve.jobs.cancelled").Add();
    RetireLocked(id);
  }
  return Status::Ok();
}

bool JobQueue::ShouldStop(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return true;
  auto it = jobs_.find(id);
  return it != jobs_.end() && it->second.cancel_requested;
}

void JobQueue::StartDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return;
  draining_ = true;
  std::vector<int64_t> queued;
  queued.reserve(static_cast<size_t>(queued_));
  for (const auto& [priority, tenants] : ready_) {
    for (const auto& [tenant, ids] : tenants) {
      queued.insert(queued.end(), ids.begin(), ids.end());
    }
  }
  ready_.clear();
  queued_ = 0;
  // Jobs retired together keep submission order, so a drain past the bound
  // evicts the oldest first.
  std::sort(queued.begin(), queued.end());
  for (const int64_t id : queued) {
    JobRecord& job = jobs_.at(id);
    job.state = JobState::kDrained;
    job.error = Status::FailedPrecondition(
        "daemon drained before the job started; resubmit to resume");
    QueueCounter("serve.jobs.drained").Add();
    RetireLocked(id);
  }
}

bool JobQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::optional<JobRecord> JobQueue::Get(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::vector<JobRecord> JobQueue::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job);
  return out;
}

int JobQueue::running_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int64_t JobQueue::queued_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace tsg::serve
