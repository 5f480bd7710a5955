// Tests for the tsgd daemon substrate (DESIGN.md §11): the line-protocol
// codec, the JobQueue scheduling policy and its bounded retention, and the
// Server poll loop exercised over a real Unix-domain socket with a scripted
// JobRunner.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv.h"
#include "base/stopwatch.h"
#include "core/method.h"
#include "io/atomic_file.h"
#include "io/json.h"
#include "io/json_parse.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "serve/bench_runner.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "streameval/stream_evaluator.h"

namespace tsg::serve {
namespace {

// ---- Protocol codec. ----

TEST(ProtocolTest, SubmitGenerateRoundTrips) {
  Request request;
  request.cmd = Request::Cmd::kSubmit;
  request.spec.kind = JobKind::kGenerate;
  request.spec.method = "TimeVAE";
  request.spec.dataset = "DLG";
  request.spec.count = 8;
  request.spec.gen_seed = 17;
  request.spec.tenant = "alice";
  request.spec.priority = 3;

  const auto parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Request& back = parsed.value();
  EXPECT_EQ(back.cmd, Request::Cmd::kSubmit);
  EXPECT_EQ(back.spec.kind, JobKind::kGenerate);
  EXPECT_EQ(back.spec.method, "TimeVAE");
  EXPECT_EQ(back.spec.dataset, "DLG");
  EXPECT_EQ(back.spec.count, 8);
  EXPECT_EQ(back.spec.gen_seed, 17u);
  EXPECT_EQ(back.spec.tenant, "alice");
  EXPECT_EQ(back.spec.priority, 3);
}

TEST(ProtocolTest, SubmitStreamEvalRoundTrips) {
  Request request;
  request.cmd = Request::Cmd::kSubmit;
  request.spec.kind = JobKind::kStreamEval;
  request.spec.method = "TimeVAE";
  request.spec.dataset = "DLG";
  request.spec.count = 96;
  request.spec.gen_seed = 11;
  request.spec.window = 24;
  request.spec.chunk = 5;
  request.spec.tenant = "alice";

  const auto parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Request& back = parsed.value();
  EXPECT_EQ(back.spec.kind, JobKind::kStreamEval);
  EXPECT_EQ(back.spec.method, "TimeVAE");
  EXPECT_EQ(back.spec.dataset, "DLG");
  EXPECT_EQ(back.spec.count, 96);
  EXPECT_EQ(back.spec.gen_seed, 11u);
  EXPECT_EQ(back.spec.window, 24);
  EXPECT_EQ(back.spec.chunk, 5);
  EXPECT_EQ(back.spec.tenant, "alice");
}

TEST(ProtocolTest, StreamEvalWindowAndChunkDefaultWhenOmitted) {
  const auto parsed = ParseRequest(
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"stream_eval\","
      "\"method\":\"M\",\"dataset\":\"D\",\"count\":32}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.window, JobSpec().window);
  EXPECT_EQ(parsed.value().spec.chunk, JobSpec().chunk);
}

TEST(ProtocolTest, SubmitGridRoundTripsMethodLists) {
  Request request;
  request.cmd = Request::Cmd::kSubmit;
  request.spec.kind = JobKind::kGrid;
  request.spec.methods = {"TimeVAE", "LS4"};
  request.spec.datasets = {"DLG", "Stock"};

  const auto parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.kind, JobKind::kGrid);
  EXPECT_EQ(parsed.value().spec.methods,
            (std::vector<std::string>{"TimeVAE", "LS4"}));
  EXPECT_EQ(parsed.value().spec.datasets,
            (std::vector<std::string>{"DLG", "Stock"}));
  EXPECT_EQ(parsed.value().spec.tenant, "default");
}

TEST(ProtocolTest, ControlCommandsRoundTrip) {
  for (const Request::Cmd cmd :
       {Request::Cmd::kMetrics, Request::Cmd::kPing, Request::Cmd::kShutdown}) {
    Request request;
    request.cmd = cmd;
    const auto parsed = ParseRequest(EncodeRequest(request));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().cmd, cmd);
  }
  Request result;
  result.cmd = Request::Cmd::kResult;
  result.job = 42;
  result.wait = true;
  const auto parsed = ParseRequest(EncodeRequest(result));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().job, 42);
  EXPECT_TRUE(parsed.value().wait);
}

TEST(ProtocolTest, RejectsInvalidRequests) {
  // Each line is a distinct contract violation the daemon must answer (not
  // crash on): bad JSON, wrong shapes, missing members, bad values.
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      "{\"cmd\":\"warp\"}",
      "{\"cmd\":\"submit\"}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"warp\"}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"fit\"}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"fit\",\"method\":\"M\"}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"generate\",\"method\":\"M\","
      "\"dataset\":\"D\"}}",  // Missing count.
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"generate\",\"method\":\"M\","
      "\"dataset\":\"D\",\"count\":2,\"gen_seed\":-1}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"fit\",\"method\":\"M\","
      "\"dataset\":\"D\",\"tenant\":\"\"}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"grid\",\"methods\":\"A\"}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"stream_eval\",\"method\":\"M\","
      "\"dataset\":\"D\"}}",  // Missing count.
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"stream_eval\",\"method\":\"M\","
      "\"dataset\":\"D\",\"count\":8,\"window\":0}}",
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"stream_eval\",\"method\":\"M\","
      "\"dataset\":\"D\",\"count\":8,\"chunk\":-3}}",
      "{\"cmd\":\"result\"}",  // result needs a job id.
      "{\"cmd\":\"cancel\"}",
  };
  for (const char* line : bad) {
    const auto parsed = ParseRequest(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

// A present optional member of the wrong JSON type (or a non-integral or
// out-of-range integer) is invalid_argument naming the member — never parsed
// as the member's default. One row per member.
TEST(ProtocolTest, MistypedOptionalMembersAreInvalidArgument) {
  const std::string generate =
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"generate\",\"method\":\"M\","
      "\"dataset\":\"D\",\"count\":4,";
  const std::string stream =
      "{\"cmd\":\"submit\",\"job\":{\"kind\":\"stream_eval\",\"method\":\"M\","
      "\"dataset\":\"D\",\"count\":32,";
  const struct {
    std::string line;
    std::string member;
  } cases[] = {
      {generate + "\"gen_seed\":\"7\"}}", "gen_seed"},
      {generate + "\"gen_seed\":7.5}}", "gen_seed"},
      {stream + "\"gen_seed\":1e300}}", "gen_seed"},
      {generate + "\"priority\":\"high\"}}", "priority"},
      {generate + "\"priority\":0.5}}", "priority"},
      {generate + "\"tenant\":5}}", "tenant"},
      {stream + "\"window\":\"64\"}}", "window"},
      {stream + "\"chunk\":true}}", "chunk"},
      {"{\"cmd\":\"result\",\"job\":3,\"wait\":\"true\"}", "wait"},
      {"{\"cmd\":\"status\",\"job\":\"3\"}", "job"},
      {"{\"cmd\":\"status\",\"job\":3.25}", "job"},
      {"{\"cmd\":\"status\",\"job\":-5}", "job"},
  };
  for (const auto& c : cases) {
    const auto parsed = ParseRequest(c.line);
    if (parsed.ok()) {
      ADD_FAILURE() << "accepted: " << c.line;
      continue;
    }
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(parsed.status().ToString().find("\"" + c.member + "\""),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ProtocolTest, ResponsesAreParseableJson) {
  const auto ok = io::JsonValue::Parse(OkResponse(",\"job\":7"));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().GetBool("ok", false));
  EXPECT_EQ(ok.value().GetInt("job", -1), 7);

  const auto err = io::JsonValue::Parse(
      ErrorResponse(Status::NotFound("no job 9")));
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().GetBool("ok", true));
  EXPECT_EQ(err.value().GetString("code", ""), "not_found");
  EXPECT_EQ(err.value().GetString("error", ""), "no job 9");
}

TEST(ProtocolTest, KindAndStateNamesRoundTrip) {
  for (const JobKind kind : {JobKind::kFit, JobKind::kGenerate,
                             JobKind::kEvaluate, JobKind::kGrid,
                             JobKind::kStreamEval}) {
    const auto parsed = ParseJobKind(JobKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseJobKind("warp").ok());
  EXPECT_STREQ(StatusCodeToken(StatusCode::kFailedPrecondition),
               "failed_precondition");
}

// The client dispatch, --help text, and README protocol table are all
// generated from ClientVerbs(); this pins the table to the two enums so a new
// JobKind or Cmd cannot ship without a client verb (and vice versa).
TEST(ProtocolTest, ClientVerbTableCoversEveryKindAndCommand) {
  const std::vector<VerbInfo>& verbs = ClientVerbs();
  auto find = [&](const std::string& verb) -> const VerbInfo* {
    for (const VerbInfo& v : verbs)
      if (verb == v.verb) return &v;
    return nullptr;
  };

  // Every JobKind wire token appears exactly once, flagged as a submit verb.
  for (const JobKind kind : {JobKind::kFit, JobKind::kGenerate,
                             JobKind::kEvaluate, JobKind::kGrid,
                             JobKind::kStreamEval}) {
    const VerbInfo* v = find(JobKindName(kind));
    ASSERT_NE(v, nullptr) << JobKindName(kind);
    EXPECT_TRUE(v->is_submit) << v->verb;
  }
  // Every client-reachable Cmd (all but kSubmit, which the submit verbs cover)
  // appears exactly once, flagged as a plain command.
  for (const Request::Cmd cmd :
       {Request::Cmd::kStatus, Request::Cmd::kResult, Request::Cmd::kCancel,
        Request::Cmd::kMetrics, Request::Cmd::kPing, Request::Cmd::kShutdown}) {
    const VerbInfo* v = find(CmdName(cmd));
    ASSERT_NE(v, nullptr) << CmdName(cmd);
    EXPECT_FALSE(v->is_submit) << v->verb;
  }
  // Table size pins the other direction: no verb without an enum value.
  EXPECT_EQ(verbs.size(), 5u + 6u);

  // Submit verbs sort first (ClientUsage renders them as one section), every
  // verb parses back to its enum, and the usage text mentions each verb.
  const std::string usage = ClientUsage();
  bool seen_plain = false;
  for (const VerbInfo& v : verbs) {
    if (!v.is_submit) seen_plain = true;
    EXPECT_FALSE(seen_plain && v.is_submit) << v.verb << " listed after plain";
    EXPECT_NE(usage.find(v.verb), std::string::npos) << v.verb;
    EXPECT_NE(usage.find(v.summary), std::string::npos) << v.verb;
    if (v.is_submit) {
      EXPECT_TRUE(ParseJobKind(v.verb).ok()) << v.verb;
    }
  }
}

// ---- JobQueue policy. ----

JobSpec Spec(const std::string& tenant, int64_t priority = 0) {
  return JobSpec{.kind = JobKind::kFit, .tenant = tenant, .priority = priority,
                 .method = "M", .dataset = "D", .methods = {}, .datasets = {}};
}

TEST(JobQueueTest, PopPrefersPriorityThenSubmissionOrder) {
  JobQueue queue({/*max_inflight=*/4, /*max_inflight_per_tenant=*/4, 64});
  const int64_t low = queue.Submit(Spec("t", 0)).value();
  const int64_t high = queue.Submit(Spec("t", 5)).value();
  const int64_t low2 = queue.Submit(Spec("t", 0)).value();

  EXPECT_EQ(queue.PopRunnable()->id, high);
  EXPECT_EQ(queue.PopRunnable()->id, low);   // FIFO among equal priorities.
  EXPECT_EQ(queue.PopRunnable()->id, low2);
  EXPECT_FALSE(queue.PopRunnable().has_value());
  EXPECT_EQ(queue.running_count(), 3);
}

TEST(JobQueueTest, PerTenantCapAndGlobalCapBoundInflight) {
  JobQueue queue({/*max_inflight=*/2, /*max_inflight_per_tenant=*/1, 64});
  const int64_t a1 = queue.Submit(Spec("a")).value();
  const int64_t a2 = queue.Submit(Spec("a")).value();
  const int64_t b1 = queue.Submit(Spec("b")).value();
  queue.Submit(Spec("c")).value();

  EXPECT_EQ(queue.PopRunnable()->id, a1);
  // a is at its per-tenant cap, so b's later submission runs next.
  EXPECT_EQ(queue.PopRunnable()->id, b1);
  // Global cap of two in flight: nothing else starts, c included.
  EXPECT_FALSE(queue.PopRunnable().has_value());

  queue.Complete(a1, std::string(",\"x\":1"));
  EXPECT_EQ(queue.Get(a1)->state, JobState::kDone);
  // a freed its slot; a2 and c are both idle tenants now, so FIFO decides.
  EXPECT_EQ(queue.PopRunnable()->id, a2);
  EXPECT_FALSE(queue.PopRunnable().has_value());  // Back at the global cap.
  queue.Complete(b1, std::string(""));
  const auto next = queue.PopRunnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->spec.tenant, "c");
}

TEST(JobQueueTest, FairnessPrefersTenantWithFewestRunning) {
  JobQueue queue({/*max_inflight=*/4, /*max_inflight_per_tenant=*/4, 64});
  const int64_t a1 = queue.Submit(Spec("a")).value();
  EXPECT_EQ(queue.PopRunnable()->id, a1);  // a now has one running.
  queue.Submit(Spec("a")).value();         // Earlier seq...
  const int64_t b1 = queue.Submit(Spec("b")).value();  // ...but b is idle.
  EXPECT_EQ(queue.PopRunnable()->id, b1);
}

TEST(JobQueueTest, BacklogLimitRejectsSubmit) {
  JobQueue queue({2, 2, /*max_queued=*/1});
  ASSERT_TRUE(queue.Submit(Spec("t")).ok());
  const auto rejected = queue.Submit(Spec("t"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.queued_count(), 1);
}

TEST(JobQueueTest, CancelQueuedResolvesImmediately) {
  JobQueue queue({2, 2, 64});
  const int64_t id = queue.Submit(Spec("t")).value();
  ASSERT_TRUE(queue.Cancel(id).ok());
  EXPECT_EQ(queue.Get(id)->state, JobState::kCancelled);
  EXPECT_FALSE(queue.PopRunnable().has_value());
  // Terminal jobs cannot be re-cancelled; unknown ids are NotFound.
  EXPECT_EQ(queue.Cancel(id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.Cancel(999).code(), StatusCode::kNotFound);
}

TEST(JobQueueTest, CancelRunningFlagsStopAndResolvesThroughComplete) {
  JobQueue queue({2, 2, 64});
  const int64_t id = queue.Submit(Spec("t")).value();
  ASSERT_TRUE(queue.PopRunnable().has_value());
  EXPECT_FALSE(queue.ShouldStop(id));
  ASSERT_TRUE(queue.Cancel(id).ok());
  EXPECT_EQ(queue.Get(id)->state, JobState::kRunning);  // Still running...
  EXPECT_TRUE(queue.ShouldStop(id));  // ...but told to stop.
  queue.Complete(id, Status::FailedPrecondition("stopped"));
  EXPECT_EQ(queue.Get(id)->state, JobState::kCancelled);
  EXPECT_EQ(queue.running_count(), 0);
}

TEST(JobQueueTest, CompleteMapsResultsToTerminalStates) {
  JobQueue queue({4, 4, 64});
  const int64_t done = queue.Submit(Spec("t")).value();
  const int64_t failed = queue.Submit(Spec("t")).value();
  ASSERT_TRUE(queue.PopRunnable().has_value());
  ASSERT_TRUE(queue.PopRunnable().has_value());

  queue.Complete(done, std::string(",\"answer\":42"));
  EXPECT_EQ(queue.Get(done)->state, JobState::kDone);
  EXPECT_EQ(queue.Get(done)->result_json, ",\"answer\":42");

  queue.Complete(failed, Status::Internal("boom"));
  EXPECT_EQ(queue.Get(failed)->state, JobState::kFailed);
  EXPECT_EQ(queue.Get(failed)->error.message(), "boom");
}

TEST(JobQueueTest, DrainFailsQueuedAndStopsRunning) {
  JobQueue queue({/*max_inflight=*/1, 1, 64});
  const int64_t running = queue.Submit(Spec("t")).value();
  const int64_t queued = queue.Submit(Spec("t")).value();
  ASSERT_TRUE(queue.PopRunnable().has_value());

  queue.StartDrain();
  EXPECT_TRUE(queue.draining());
  EXPECT_EQ(queue.Get(queued)->state, JobState::kDrained);
  EXPECT_TRUE(queue.ShouldStop(running));  // Drain reaches running jobs too.
  EXPECT_FALSE(queue.PopRunnable().has_value());
  const auto late = queue.Submit(Spec("t"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);

  queue.Complete(running, Status::FailedPrecondition("stopped at checkpoint"));
  EXPECT_EQ(queue.Get(running)->state, JobState::kDrained);
}

/// The scheduling policy as a full scan, the way the queue first implemented
/// it: every job in one map, and a pop that walks all queued jobs, counting
/// each one's tenant's running jobs with another walk. Kept as the reference
/// the indexed JobQueue must match; it never evicts.
class ScanQueue {
 public:
  explicit ScanQueue(JobQueue::Limits limits) : limits_(limits) {}

  bool Submit(const JobSpec& spec) {
    if (draining_ || queued_count() >= limits_.max_queued) return false;
    JobRecord& job = jobs_[next_id_];
    job.id = next_id_++;
    job.spec = spec;
    return true;
  }

  std::optional<int64_t> PopRunnable() {
    if (draining_ || running_count() >= limits_.max_inflight) return std::nullopt;
    JobRecord* best = nullptr;
    int best_tenant_running = 0;
    for (auto& [id, job] : jobs_) {
      if (job.state != JobState::kQueued) continue;
      const int tenant_running = RunningForTenant(job.spec.tenant);
      if (tenant_running >= limits_.max_inflight_per_tenant) continue;
      if (best == nullptr || job.spec.priority > best->spec.priority ||
          (job.spec.priority == best->spec.priority &&
           tenant_running < best_tenant_running)) {
        best = &job;
        best_tenant_running = tenant_running;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->state = JobState::kRunning;
    return best->id;
  }

  void Complete(int64_t id, bool ok) {
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kRunning) return;
    it->second.state = ok ? JobState::kDone
                          : (it->second.cancel_requested ? JobState::kCancelled
                                                         : JobState::kFailed);
  }

  bool Cancel(int64_t id) {
    auto it = jobs_.find(id);
    if (it == jobs_.end() || IsTerminal(it->second.state)) return false;
    it->second.cancel_requested = true;
    if (it->second.state == JobState::kQueued) {
      it->second.state = JobState::kCancelled;
    }
    return true;
  }

  void StartDrain() {
    draining_ = true;
    for (auto& [id, job] : jobs_) {
      if (job.state == JobState::kQueued) job.state = JobState::kDrained;
    }
  }

  int running_count() const {
    int n = 0;
    for (const auto& [id, job] : jobs_) n += job.state == JobState::kRunning;
    return n;
  }

  int64_t queued_count() const {
    int64_t n = 0;
    for (const auto& [id, job] : jobs_) n += job.state == JobState::kQueued;
    return n;
  }

 private:
  int RunningForTenant(const std::string& tenant) const {
    int n = 0;
    for (const auto& [id, job] : jobs_) {
      n += job.state == JobState::kRunning && job.spec.tenant == tenant;
    }
    return n;
  }

  const JobQueue::Limits limits_;
  int64_t next_id_ = 1;
  bool draining_ = false;
  std::map<int64_t, JobRecord> jobs_;
};

TEST(JobQueueTest, IndexedQueueSchedulesLikeTheReferenceScan) {
  int64_t pops = 0;
  int64_t evicting = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    const JobQueue::Limits limits{/*max_inflight=*/1 + pick(4),
                                  /*max_inflight_per_tenant=*/1 + pick(3),
                                  /*max_queued=*/1 + pick(24)};
    JobQueue queue(limits);
    ScanQueue reference(limits);
    const int tenants = 1 + pick(4);
    const int priorities = 1 + pick(3);
    // Every 100th sequence finishes more jobs than the queue retains.
    const int steps = seed % 100 == 0 ? 8000 : 400;
    std::vector<int64_t> running;
    int64_t issued = 0;
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const int op = pick(1000);
      if (op < 350) {
        const std::string tenant = "t" + std::to_string(pick(tenants));
        const JobSpec spec = Spec(tenant, pick(priorities) - 1);
        const StatusOr<int64_t> id = queue.Submit(spec);
        ASSERT_EQ(id.ok(), reference.Submit(spec));
        if (id.ok()) {
          ASSERT_EQ(id.value(), ++issued);
        }
      } else if (op < 600) {
        const std::optional<JobRecord> popped = queue.PopRunnable();
        const std::optional<int64_t> want = reference.PopRunnable();
        ASSERT_EQ(popped.has_value(), want.has_value());
        if (popped.has_value()) {
          ASSERT_EQ(popped->id, *want);
          running.push_back(*want);
          ++pops;
        }
      } else if (op < 900) {
        if (running.empty()) continue;
        const size_t at = static_cast<size_t>(pick(static_cast<int>(running.size())));
        const int64_t id = running[at];
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(at));
        const bool ok = pick(3) != 0;
        queue.Complete(id, ok ? StatusOr<std::string>(std::string(""))
                              : StatusOr<std::string>(Status::Internal("x")));
        reference.Complete(id, ok);
      } else if (op < 998 || step * 4 < steps * 3) {
        const int64_t id = 1 + pick(static_cast<int>(issued) + 2);
        ASSERT_EQ(queue.Cancel(id).ok(), reference.Cancel(id));
      } else {  // Drains happen only in a sequence's last quarter.
        queue.StartDrain();
        reference.StartDrain();
      }
      ASSERT_EQ(queue.queued_count(), reference.queued_count());
      ASSERT_EQ(queue.running_count(), reference.running_count());
    }
    evicting += static_cast<int64_t>(queue.Snapshot().size()) < issued;
  }
  EXPECT_GT(pops, 20000);
  EXPECT_EQ(evicting, 3);  // The long sequences ran past the bound.
}

TEST(JobQueueTest, RetainsOnlyTheLatestFinishedJobs) {
  JobQueue queue({/*max_inflight=*/2, /*max_inflight_per_tenant=*/1, 64});
  const int64_t running = queue.Submit(Spec("long")).value();
  ASSERT_EQ(queue.PopRunnable()->id, running);
  // Priority -1 puts this job behind every other one, so it stays queued.
  const int64_t queued = queue.Submit(Spec("idle", -1)).value();
  std::vector<int64_t> finished;
  for (int i = 0; i < 1024 + 10; ++i) {
    const int64_t id = queue.Submit(Spec("t")).value();
    ASSERT_EQ(queue.PopRunnable()->id, id);
    queue.Complete(id, std::string(""));
    finished.push_back(id);
  }

  const std::vector<JobRecord> records = queue.Snapshot();
  ASSERT_EQ(records.size(), 1024u + 2);  // 1024 terminal + the two live jobs.
  EXPECT_EQ(records[0].id, running);
  EXPECT_EQ(records[1].id, queued);
  EXPECT_EQ(records[2].id, finished[10]);
  EXPECT_EQ(queue.Get(running)->state, JobState::kRunning);
  EXPECT_EQ(queue.Get(queued)->state, JobState::kQueued);
  EXPECT_EQ(queue.Get(finished[10])->state, JobState::kDone);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(queue.Get(finished[i]).has_value()) << i;
    const Status expired = queue.NotFound(finished[i]);
    EXPECT_EQ(expired.code(), StatusCode::kNotFound);
    EXPECT_EQ(expired.message().rfind(
                  "job " + std::to_string(finished[i]) + " expired", 0),
              0u)
        << expired.message();
    EXPECT_EQ(queue.Cancel(finished[i]).message(), expired.message());
  }
  EXPECT_EQ(queue.NotFound(1000000).message(), "no job 1000000");
  EXPECT_EQ(queue.queued_count(), 1);
  EXPECT_EQ(queue.running_count(), 1);
}

// ---- Server over a real socket. ----

/// Scripted runner: the job's "method" selects its behavior. "block" spins
/// until the stop hook fires (a stand-in for a long grid job between
/// checkpoints); "fail" errors; anything else echoes back immediately.
class FakeRunner : public JobRunner {
 public:
  StatusOr<std::string> Run(
      const JobSpec& spec,
      const std::function<bool()>& should_stop) override {
    started.fetch_add(1);
    if (spec.method == "block") {
      while (!should_stop()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::FailedPrecondition("stopped at checkpoint");
    }
    if (spec.method == "fail") return Status::InvalidArgument("boom");
    return std::string(",\"echo\":\"" + spec.method + "\"");
  }

  std::atomic<int> started{0};
};

/// One blocking client session against the test server.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    // A wedged test should fail its expectations, not hang ctest.
    timeval timeout{/*tv_sec=*/20, /*tv_usec=*/0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  bool SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks for the next full response line; empty string on EOF/timeout.
  std::string ReadLine() {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Send one request, return the parsed response (null kind on failure).
  io::JsonValue Call(const Request& request) {
    if (!SendLine(EncodeRequest(request))) return {};
    const std::string line = ReadLine();
    auto parsed = io::JsonValue::Parse(line);
    return parsed.ok() ? parsed.value() : io::JsonValue();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Request SubmitRequest(const std::string& method,
                      const std::string& tenant = "default") {
  Request request;
  request.cmd = Request::Cmd::kSubmit;
  request.spec = JobSpec{.kind = JobKind::kFit, .tenant = tenant, .method = method,
                         .dataset = "D", .methods = {}, .datasets = {}};
  return request;
}

Request ResultRequest(int64_t job, bool wait) {
  Request request;
  request.cmd = Request::Cmd::kResult;
  request.job = job;
  request.wait = wait;
  return request;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(JobQueue::Limits limits) {
    static std::atomic<int> next_socket{0};
    // Keep the path short: sockaddr_un caps it around 107 bytes.
    socket_path_ = "/tmp/tsg_serve_test_" + std::to_string(getpid()) + "_" +
                   std::to_string(next_socket.fetch_add(1)) + ".sock";
    ServerOptions options;
    options.socket_path = socket_path_;
    options.limits = limits;
    server_ = std::make_unique<Server>(options, &runner_);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    serve_thread_ = std::thread([this] { jobs_done_ = server_->Serve(); });
  }

  void StopServer() {
    if (server_ != nullptr) server_->RequestStop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  void TearDown() override {
    StopServer();
    server_.reset();
    std::filesystem::remove(socket_path_);
  }

  /// Polls job status on `client` until the state matches (or ~10s pass).
  bool WaitForState(Client& client, int64_t job, const std::string& state) {
    Request status;
    status.cmd = Request::Cmd::kStatus;
    status.job = job;
    for (int i = 0; i < 2000; ++i) {
      const io::JsonValue response = client.Call(status);
      if (response.GetString("state", "") == state) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  FakeRunner runner_;
  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  int64_t jobs_done_ = -1;
};

TEST_F(ServerTest, PingAndMalformedLines) {
  StartServer({2, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());

  Request ping;
  ping.cmd = Request::Cmd::kPing;
  EXPECT_TRUE(client.Call(ping).GetBool("ok", false));

  ASSERT_TRUE(client.SendLine("this is not json"));
  const auto error = io::JsonValue::Parse(client.ReadLine());
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error.value().GetBool("ok", true));
  EXPECT_EQ(error.value().GetString("code", ""), "invalid_argument");

  // The session survives a malformed line; the next request still works.
  EXPECT_TRUE(client.Call(ping).GetBool("ok", false));
}

TEST_F(ServerTest, SubmitWaitDeliversResultAndFailure) {
  StartServer({2, 2, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());

  const io::JsonValue submitted = client.Call(SubmitRequest("echo-a"));
  ASSERT_TRUE(submitted.GetBool("ok", false));
  const int64_t job = submitted.GetInt("job", -1);
  ASSERT_GE(job, 1);

  const io::JsonValue result = client.Call(ResultRequest(job, /*wait=*/true));
  EXPECT_TRUE(result.GetBool("ok", false));
  EXPECT_EQ(result.GetString("state", ""), "done");
  EXPECT_EQ(result.GetString("echo", ""), "echo-a");  // The runner's payload.

  const io::JsonValue failed_submit = client.Call(SubmitRequest("fail"));
  ASSERT_TRUE(failed_submit.GetBool("ok", false));
  const io::JsonValue failure =
      client.Call(ResultRequest(failed_submit.GetInt("job", -1), true));
  EXPECT_FALSE(failure.GetBool("ok", true));
  EXPECT_EQ(failure.GetString("state", ""), "failed");
  EXPECT_EQ(failure.GetString("code", ""), "invalid_argument");
  EXPECT_EQ(failure.GetString("error", ""), "boom");
}

TEST_F(ServerTest, ThreeConcurrentSessionsEachGetTheirResult) {
  StartServer({/*max_inflight=*/3, /*max_inflight_per_tenant=*/1, 64});
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int64_t> jobs;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(socket_path_));
    ASSERT_TRUE(clients.back()->connected());
    const io::JsonValue submitted = clients.back()->Call(
        SubmitRequest("echo-" + std::to_string(i), "tenant" + std::to_string(i)));
    ASSERT_TRUE(submitted.GetBool("ok", false)) << i;
    jobs.push_back(submitted.GetInt("job", -1));
  }
  // All three wait concurrently; each session must get exactly its own job.
  std::vector<std::thread> waiters;
  std::vector<std::string> echoes(3);
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      const io::JsonValue result =
          clients[i]->Call(ResultRequest(jobs[i], /*wait=*/true));
      echoes[i] = result.GetString("echo", "");
    });
  }
  for (std::thread& t : waiters) t.join();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(echoes[i], "echo-" + std::to_string(i));
  }
}

TEST_F(ServerTest, ResultWithoutWaitOnLiveJobIsFailedPrecondition) {
  StartServer({1, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  const int64_t job =
      client.Call(SubmitRequest("block")).GetInt("job", -1);
  ASSERT_GE(job, 1);
  ASSERT_TRUE(WaitForState(client, job, "running"));

  const io::JsonValue response = client.Call(ResultRequest(job, false));
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code", ""), "failed_precondition");

  const io::JsonValue missing = client.Call(ResultRequest(12345, false));
  EXPECT_EQ(missing.GetString("code", ""), "not_found");

  // Unblock the runner so TearDown's drain is instant.
  Request cancel;
  cancel.cmd = Request::Cmd::kCancel;
  cancel.job = job;
  EXPECT_TRUE(client.Call(cancel).GetBool("ok", false));
  const io::JsonValue final_state = client.Call(ResultRequest(job, true));
  EXPECT_EQ(final_state.GetString("state", ""), "cancelled");
}

TEST_F(ServerTest, StatusSummaryCountsQueuedAndRunning) {
  StartServer({/*max_inflight=*/1, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  const int64_t running =
      client.Call(SubmitRequest("block")).GetInt("job", -1);
  ASSERT_TRUE(WaitForState(client, running, "running"));
  const int64_t queued =
      client.Call(SubmitRequest("echo-later")).GetInt("job", -1);
  ASSERT_GE(queued, 1);

  Request status;
  status.cmd = Request::Cmd::kStatus;
  const io::JsonValue summary = client.Call(status);
  EXPECT_TRUE(summary.GetBool("ok", false));
  EXPECT_EQ(summary.GetInt("running", -1), 1);
  EXPECT_EQ(summary.GetInt("queued", -1), 1);
  EXPECT_FALSE(summary.GetBool("draining", true));
  const io::JsonValue* jobs = summary.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->array_items().size(), 2u);
  EXPECT_EQ(jobs->array_items()[0].GetInt("job", -1), running);
  EXPECT_EQ(jobs->array_items()[0].GetString("state", ""), "running");
  EXPECT_EQ(jobs->array_items()[1].GetString("state", ""), "queued");

  Request cancel;
  cancel.cmd = Request::Cmd::kCancel;
  cancel.job = running;
  client.Call(cancel);
}

TEST_F(ServerTest, DrainStopsRunningJobAndFailsQueuedAsDrained) {
  StartServer({/*max_inflight=*/1, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  const int64_t running =
      client.Call(SubmitRequest("block")).GetInt("job", -1);
  ASSERT_TRUE(WaitForState(client, running, "running"));
  const int64_t queued =
      client.Call(SubmitRequest("never-runs")).GetInt("job", -1);

  // Subscribe to both outcomes, then pull the plug. The drain must answer the
  // waiters — the running job once its stop hook fires, the queued one
  // immediately — before Serve returns.
  ASSERT_TRUE(client.SendLine(EncodeRequest(ResultRequest(running, true))));
  ASSERT_TRUE(client.SendLine(EncodeRequest(ResultRequest(queued, true))));
  // Responses are answered in order within a session, so a ping round-trip
  // proves both subscriptions were registered before the stop lands.
  Request ping;
  ping.cmd = Request::Cmd::kPing;
  ASSERT_TRUE(client.Call(ping).GetBool("ok", false));
  server_->RequestStop();

  std::string state_running, state_queued;
  for (int i = 0; i < 2; ++i) {
    const auto parsed = io::JsonValue::Parse(client.ReadLine());
    ASSERT_TRUE(parsed.ok()) << "drain verdict " << i;
    const int64_t job = parsed.value().GetInt("job", -1);
    const std::string state = parsed.value().GetString("state", "");
    if (job == running) state_running = state;
    if (job == queued) state_queued = state;
  }
  EXPECT_EQ(state_running, "drained");
  EXPECT_EQ(state_queued, "drained");

  serve_thread_.join();
  EXPECT_EQ(jobs_done_, 0);  // Neither job completed normally.
  EXPECT_EQ(runner_.started.load(), 1);  // The queued job never started.
}

TEST_F(ServerTest, ShutdownCommandAcksThenDrains) {
  StartServer({2, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  const io::JsonValue done = client.Call(SubmitRequest("echo-z"));
  ASSERT_TRUE(done.GetBool("ok", false));
  ASSERT_TRUE(
      WaitForState(client, done.GetInt("job", -1), "done"));

  Request shutdown;
  shutdown.cmd = Request::Cmd::kShutdown;
  const io::JsonValue ack = client.Call(shutdown);
  EXPECT_TRUE(ack.GetBool("ok", false));
  EXPECT_TRUE(ack.GetBool("draining", false));

  serve_thread_.join();
  EXPECT_EQ(jobs_done_, 1);
  // The socket file is gone once the server object is destroyed.
  server_.reset();
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

TEST_F(ServerTest, ResultOnAnEvictedJobIsExpired) {
  StartServer({2, 1, 64});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  int64_t first = -1;
  for (int i = 0; i < 1024 + 1; ++i) {
    const int64_t job = client.Call(SubmitRequest("echo")).GetInt("job", -1);
    ASSERT_GE(job, 1);
    if (first < 0) first = job;
    ASSERT_EQ(client.Call(ResultRequest(job, true)).GetString("state", ""),
              "done");
  }

  const io::JsonValue expired = client.Call(ResultRequest(first, false));
  EXPECT_FALSE(expired.GetBool("ok", true));
  EXPECT_EQ(expired.GetString("code", ""), "not_found");
  EXPECT_EQ(expired.GetString("error", "")
                .rfind("job " + std::to_string(first) + " expired", 0),
            0u)
      << expired.GetString("error", "");
  Request status;
  status.cmd = Request::Cmd::kStatus;
  status.job = first;
  EXPECT_EQ(client.Call(status).GetString("error", ""),
            expired.GetString("error", ""));

  const io::JsonValue never = client.Call(ResultRequest(1000000, false));
  EXPECT_EQ(never.GetString("code", ""), "not_found");
  EXPECT_EQ(never.GetString("error", ""), "no job 1000000");
}

TEST_F(ServerTest, DrainAnswersAWaiterWhoseRecordWasEvicted) {
  StartServer({/*max_inflight=*/1, 1, /*max_queued=*/1100});
  Client client(socket_path_);
  ASSERT_TRUE(client.connected());
  const int64_t running =
      client.Call(SubmitRequest("block")).GetInt("job", -1);
  ASSERT_TRUE(WaitForState(client, running, "running"));
  int64_t oldest = -1;
  for (int i = 0; i < 1100; ++i) {
    const int64_t job =
        client.Call(SubmitRequest("never-runs")).GetInt("job", -1);
    ASSERT_GE(job, 1) << i;
    if (oldest < 0) oldest = job;
  }

  // The drain retires all 1100 queued jobs at once, more than the queue
  // retains, so the oldest one's record is gone before the sweep sees it.
  ASSERT_TRUE(client.SendLine(EncodeRequest(ResultRequest(oldest, true))));
  Request shutdown;
  shutdown.cmd = Request::Cmd::kShutdown;
  ASSERT_TRUE(client.SendLine(EncodeRequest(shutdown)));
  io::JsonValue verdict;
  for (int i = 0; i < 2; ++i) {
    const auto parsed = io::JsonValue::Parse(client.ReadLine());
    ASSERT_TRUE(parsed.ok()) << "reply " << i;
    if (!parsed.value().GetBool("draining", false)) verdict = parsed.value();
  }
  const bool drained = verdict.GetString("state", "") == "drained";
  const bool expired =
      verdict.GetString("code", "") == "not_found" &&
      verdict.GetString("error", "").find("expired") != std::string::npos;
  EXPECT_TRUE(drained || expired) << verdict.GetString("error", "");

  serve_thread_.join();
  EXPECT_EQ(jobs_done_, 0);
}

// A port outside [0, 65535] must not be narrowed to uint16_t (70000 would
// listen on 4464; -1 would turn TCP off). Start refuses it before it creates
// the pipe or any socket, so this test opens no connection.
TEST(ServerStartTest, RejectsAnOutOfRangeTcpPort) {
  FakeRunner runner;
  const std::string path =
      "/tmp/tsg_serve_port_test_" + std::to_string(getpid()) + ".sock";
  for (const int port : {70000, -1}) {
    ServerOptions options;
    options.socket_path = path;
    options.tcp_port = port;
    Server server(options, &runner);
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(started.message().find(std::to_string(port)), std::string::npos)
        << started.ToString();
    EXPECT_FALSE(std::filesystem::exists(path)) << port;
  }
}

// ---- The production job runner. ----

/// The runner's generate digest, restated: FNV-64 over the block's series
/// count, then each series' shape and row-major values, as 16 hex digits.
std::string GenerateDigest(const std::vector<linalg::Matrix>& series) {
  base::Fnv64 fnv;
  fnv.U64(series.size());
  for (const linalg::Matrix& s : series) {
    fnv.I64(s.rows()).I64(s.cols());
    fnv.Bytes(s.data(), static_cast<size_t>(s.size()) * sizeof(double));
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv.digest()));
  return hex;
}

/// Runs one job on `runner` and parses its comma-led result members.
io::JsonValue RunJob(BenchJobRunner& runner, JobKind kind,
                     const std::string& method, const std::string& dataset,
                     int64_t count = 0, uint64_t gen_seed = 0) {
  JobSpec spec;
  spec.kind = kind;
  spec.method = method;
  spec.dataset = dataset;
  spec.count = count;
  spec.gen_seed = gen_seed;
  const StatusOr<std::string> members = runner.Run(spec, nullptr);
  EXPECT_TRUE(members.ok()) << JobKindName(kind) << " " << method << " / "
                            << dataset << ": " << members.status().ToString();
  if (!members.ok()) return io::JsonValue();
  const StatusOr<io::JsonValue> parsed =
      io::JsonValue::Parse("{" + members.value().substr(1) + "}");
  EXPECT_TRUE(parsed.ok()) << members.value();
  return parsed.ok() ? parsed.value() : io::JsonValue();
}

TEST(BenchJobRunnerTest, JobsMatchGenerateAndShareArtifactsWithTheHarness) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  BenchJobRunner runner(config);
  store::ArtifactStore store(config.store_dir);
  const core::Preprocessed pre = bench::PrepareDataset(data::DatasetId::kStock, config);
  const core::FitOptions fit = bench::GridHarnessOptions(config).fit;

  for (const std::string& name : methods::AllMethodNames()) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(RunJob(runner, JobKind::kFit, name, "Stock").GetBool("trained", false));

    // Reference: a fresh instance restored from the artifact the fit job wrote.
    StatusOr<std::unique_ptr<core::TsgMethod>> method = methods::CreateMethod(name);
    ASSERT_TRUE(method.ok());
    const StatusOr<core::MethodSnapshot> snapshot =
        store.Load(core::ModelKey::For(*method.value(), pre.train, fit));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_TRUE(method.value()->Restore(snapshot.value()).ok());
    for (const uint64_t gen_seed : {5u, 6u}) {
      const io::JsonValue generated =
          RunJob(runner, JobKind::kGenerate, name, "Stock", 5, gen_seed);
      Rng rng(gen_seed);
      EXPECT_EQ(generated.GetInt("count", -1), 5);
      EXPECT_EQ(generated.GetString("digest", ""),
                GenerateDigest(method.value()->Generate(5, rng)))
          << "gen_seed " << gen_seed;
    }

    // The harness trains and publishes on an evaluate job's first visit to a
    // cell; a fit job for that cell must then find the harness's artifact.
    const io::JsonValue evaluated = RunJob(runner, JobKind::kEvaluate, name, "DLG");
    EXPECT_GT(evaluated.GetNumber("fit_seconds", 0.0), 0.0);
    EXPECT_FALSE(RunJob(runner, JobKind::kFit, name, "DLG").GetBool("trained", true));
  }
  std::filesystem::remove_all(root);
}


TEST(BenchJobRunnerTest, StoreHitFitOnAServedModelSkipsTheLoad) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_fit";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  BenchJobRunner runner(config);
  const io::JsonValue fitted = RunJob(runner, JobKind::kFit, "TimeVAE", "Stock");
  ASSERT_TRUE(fitted.GetBool("trained", false));
  const std::string path = fitted.GetString("path", "");
  const StatusOr<std::string> artifact = io::ReadFileToString(path);
  ASSERT_TRUE(artifact.ok()) << path;

  // The generate job restores the model into the serving cache; a fit on the
  // same key then answers from it without loading the artifact again.
  RunJob(runner, JobKind::kGenerate, "TimeVAE", "Stock", 4, 1);
  const obs::Counter& hits =
      obs::MetricRegistry::Global().GetCounter("store.hits");
  const int64_t hits_before = hits.value();
  EXPECT_FALSE(
      RunJob(runner, JobKind::kFit, "TimeVAE", "Stock").GetBool("trained", true));
  EXPECT_EQ(hits.value(), hits_before);

  // A deleted artifact is retrained and republished byte-identically.
  ASSERT_TRUE(std::filesystem::remove(path));
  EXPECT_TRUE(
      RunJob(runner, JobKind::kFit, "TimeVAE", "Stock").GetBool("trained", false));
  const StatusOr<std::string> republished = io::ReadFileToString(path);
  ASSERT_TRUE(republished.ok()) << path;
  EXPECT_TRUE(republished.value() == artifact.value());
  std::filesystem::remove_all(root);
}

// A fresh runner over a store that holds the model reads and restores it once:
// the fit job restores it into the serving cache, and generate serves that
// instance.
TEST(BenchJobRunnerTest, FreshRunnerReadsAStoredModelOnce) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_restore";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  std::string path;
  std::string digest;
  {
    BenchJobRunner runner(config);
    const io::JsonValue fitted = RunJob(runner, JobKind::kFit, "TimeVAE", "Stock");
    ASSERT_TRUE(fitted.GetBool("trained", false));
    path = fitted.GetString("path", "");
    digest = RunJob(runner, JobKind::kGenerate, "TimeVAE", "Stock", 4, 1)
                 .GetString("digest", "");
  }
  std::error_code ec;
  const int64_t artifact_bytes =
      static_cast<int64_t>(std::filesystem::file_size(path, ec));
  ASSERT_FALSE(ec) << path;

  BenchJobRunner runner(config);
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const int64_t hits_before = metrics.GetCounter("store.hits").value();
  const int64_t bytes_before = metrics.GetCounter("store.bytes_read").value();
  EXPECT_FALSE(
      RunJob(runner, JobKind::kFit, "TimeVAE", "Stock").GetBool("trained", true));
  EXPECT_EQ(RunJob(runner, JobKind::kGenerate, "TimeVAE", "Stock", 4, 1)
                .GetString("digest", "-"),
            digest);
  EXPECT_EQ(metrics.GetCounter("store.hits").value() - hits_before, 1);
  EXPECT_EQ(metrics.GetCounter("store.bytes_read").value() - bytes_before,
            artifact_bytes);
  std::filesystem::remove_all(root);
}

// An artifact that loads but does not restore is not a fitted model: the fit
// job retrains and republishes it, as a grid cell's harness does, and generate
// then serves it.
TEST(BenchJobRunnerTest, FitRetrainsAnArtifactThatDoesNotRestore) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_heal";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  std::string path;
  {
    BenchJobRunner runner(config);
    const io::JsonValue fitted = RunJob(runner, JobKind::kFit, "TimeVAE", "Stock");
    ASSERT_TRUE(fitted.GetBool("trained", false));
    path = fitted.GetString("path", "");
  }
  const StatusOr<std::string> artifact = io::ReadFileToString(path);
  ASSERT_TRUE(artifact.ok()) << path;

  // The same snapshot minus its last tensor: Load accepts it, Restore refuses it.
  store::ArtifactStore store(config.store_dir);
  const core::Preprocessed pre = bench::PrepareDataset(data::DatasetId::kStock, config);
  const StatusOr<std::unique_ptr<core::TsgMethod>> method =
      methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(method.ok());
  const core::ModelKey key = core::ModelKey::For(*method.value(), pre.train,
                                                 bench::GridHarnessOptions(config).fit);
  StatusOr<core::MethodSnapshot> snapshot = store.Load(key);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  snapshot.value().params.pop_back();
  ASSERT_TRUE(store.Save(key, snapshot.value()).ok());
  ASSERT_TRUE(store.Load(key).ok());
  ASSERT_FALSE(method.value()->Restore(store.Load(key).value()).ok());

  // A fresh runner holds nothing resident, so the fit goes to the store.
  BenchJobRunner runner(config);
  const obs::Counter& restore_failed =
      obs::MetricRegistry::Global().GetCounter("harness.store.restore_failed");
  const int64_t restore_failed_before = restore_failed.value();
  EXPECT_TRUE(
      RunJob(runner, JobKind::kFit, "TimeVAE", "Stock").GetBool("trained", false));
  EXPECT_EQ(restore_failed.value(), restore_failed_before + 1);
  const StatusOr<std::string> republished = io::ReadFileToString(path);
  ASSERT_TRUE(republished.ok()) << path;
  EXPECT_TRUE(republished.value() == artifact.value());
  EXPECT_EQ(RunJob(runner, JobKind::kGenerate, "TimeVAE", "Stock", 4, 1)
                .GetInt("count", -1),
            4);
  std::filesystem::remove_all(root);
}

/// The "scores" member of a stream_eval answer, as an in-process
/// StreamEvaluator reports it for the stream whose chunk b is
/// Generate(takes[b], Rng(gen_seed + b)) on `method`.
std::string StreamScoresMember(const core::TsgMethod& method,
                               const core::Dataset& train, int64_t window,
                               uint64_t gen_seed, const std::vector<int64_t>& takes) {
  streameval::StreamEvalOptions options;
  options.window = window;
  StatusOr<std::unique_ptr<streameval::StreamEvaluator>> eval =
      streameval::StreamEvaluator::Create(train, options);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
  if (!eval.ok()) return "-";
  for (size_t b = 0; b < takes.size(); ++b) {
    Rng rng(gen_seed + b);
    EXPECT_TRUE(eval.value()->Update(method.Generate(takes[b], rng)).ok());
  }
  io::JsonWriter json;
  json.BeginObject();
  json.Key("scores").BeginObject();
  for (const auto& [measure, score] : eval.value()->last_snapshot()) {
    json.Key(measure).Number(score);
  }
  json.EndObject();
  json.EndObject();
  return json.str().substr(1, json.str().size() - 2);
}

// A stream_eval job scores the stream an in-process evaluator sees when chunk b
// is Generate(take_b, Rng(gen_seed + b)) on the restored model, whichever
// thread generated each chunk. A drain stops at a window boundary with the
// scores of that truncated stream. The window (24) is not a multiple of the
// chunk (16), so a drain can shrink a chunk below the size generated ahead.
TEST(BenchJobRunnerTest, StreamEvalScoresTheStreamAnInProcessEvaluatorSees) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_stream";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  BenchJobRunner runner(config);
  JobSpec spec;
  spec.kind = JobKind::kStreamEval;
  spec.tenant = "lookahead";
  spec.method = "TimeVAE";
  spec.dataset = "DLG";
  spec.count = 100;
  spec.gen_seed = 9;
  spec.window = 24;
  spec.chunk = 16;
  const Stopwatch wall;
  const StatusOr<std::string> full = runner.Run(spec, nullptr);
  const double wall_s = wall.ElapsedSeconds();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // The job's seconds split into generation it ran, waits on a worker that
  // generated ahead, and evaluator Updates: all set, and within its wall time.
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const std::string snapshot = metrics.SnapshotJson(/*include_timings=*/true);
  double parts_s = 0.0;
  for (const char* part : {"generate_s", "wait_s", "update_s"}) {
    const std::string gauge = std::string("stream.lookahead.") + part;
    EXPECT_NE(snapshot.find("\"" + gauge + "\""), std::string::npos) << gauge;
    parts_s += metrics.GetGauge(gauge).value();
  }
  EXPECT_LE(parts_s, wall_s);

  // Reference: a fresh instance restored from the artifact the job wrote.
  const core::Preprocessed pre = bench::PrepareDataset(data::DatasetId::kDlg, config);
  StatusOr<std::unique_ptr<core::TsgMethod>> method = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(method.ok());
  const StatusOr<core::MethodSnapshot> stored =
      store::ArtifactStore(config.store_dir)
          .Load(core::ModelKey::For(*method.value(), pre.train,
                                    bench::GridHarnessOptions(config).fit));
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_TRUE(method.value()->Restore(stored.value()).ok());

  EXPECT_NE(full.value().find("\"series\":100,\"windows\":4,"), std::string::npos)
      << full.value();
  EXPECT_NE(full.value().find("\"drained\":false"), std::string::npos);
  EXPECT_NE(full.value().find(StreamScoresMember(*method.value(), pre.train, 24, 9,
                                                 {16, 16, 16, 16, 16, 16, 4})),
            std::string::npos)
      << full.value();

  // should_stop turns true at its polls_before_stop + 1-th poll, one per chunk.
  struct DrainCase {
    int polls_before_stop;
    std::vector<int64_t> takes;  // The truncated stream, chunk by chunk.
    int64_t windows;
  };
  for (const DrainCase& drain : {
           DrainCase{1, {16, 8}, 1},        // Shrinks the chunk generated ahead.
           DrainCase{2, {16, 16, 16}, 2},   // Takes the chunk generated ahead.
           DrainCase{3, {16, 16, 16}, 2}})  // Stops on a boundary; drops it.
  {
    SCOPED_TRACE(drain.polls_before_stop);
    int polls = 0;
    const StatusOr<std::string> drained = runner.Run(
        spec, [&polls, &drain] { return ++polls > drain.polls_before_stop; });
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    int64_t series = 0;
    for (const int64_t take : drain.takes) series += take;
    EXPECT_NE(drained.value().find("\"series\":" + std::to_string(series) +
                                   ",\"windows\":" + std::to_string(drain.windows) +
                                   ","),
              std::string::npos)
        << drained.value();
    EXPECT_NE(drained.value().find("\"drained\":true"), std::string::npos);
    EXPECT_NE(drained.value().find(StreamScoresMember(*method.value(), pre.train, 24,
                                                      9, drain.takes)),
              std::string::npos)
        << drained.value();
  }
  std::filesystem::remove_all(root);
}

// A malformed checkpoint is not a finished cell: the grid job's one sweep
// recomputes exactly that cell and answers with the summary RunGrid writes.
TEST(BenchJobRunnerTest, GridJobRecomputesAMalformedCheckpoint) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_grid";
  std::filesystem::remove_all(root);
  bench::BenchConfig reference;
  reference.scale = 0.05;
  reference.out_dir = root + "/ref";
  std::filesystem::create_directories(reference.out_dir);
  ASSERT_TRUE(bench::RunGrid(reference, {"TimeVAE"},
                             {data::DatasetId::kDlg, data::DatasetId::kStock})
                  .failures.empty());
  const StatusOr<std::string> summary =
      io::ReadFileToString(bench::GridSummaryPath(reference));
  ASSERT_TRUE(summary.ok());
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(base::Fnv64Bytes(
                    summary.value().data(), summary.value().size())));

  bench::BenchConfig config = reference;
  config.out_dir = root + "/out";
  config.store_dir = root + "/store";
  std::filesystem::create_directories(config.out_dir);
  std::filesystem::copy(bench::CheckpointDir(reference),
                        bench::CheckpointDir(config));
  // Names the cell and says "ok", but holds no scores.
  ASSERT_TRUE(io::WriteFileAtomic(
                  bench::CheckpointPath(config, "TimeVAE", "Stock"),
                  "{\"method\":\"TimeVAE\",\"dataset\":\"Stock\",\"status\":\"ok\"}\n")
                  .ok());

  BenchJobRunner runner(config);
  JobSpec spec;
  spec.kind = JobKind::kGrid;
  spec.methods = {"TimeVAE"};
  spec.datasets = {"DLG", "Stock"};
  const StatusOr<std::string> members = runner.Run(spec, nullptr);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  const StatusOr<io::JsonValue> result =
      io::JsonValue::Parse("{" + members.value().substr(1) + "}");
  ASSERT_TRUE(result.ok()) << members.value();
  EXPECT_EQ(result.value().GetInt("computed", -1), 1);
  EXPECT_EQ(result.value().GetInt("failed", -1), 0);
  EXPECT_EQ(result.value().GetString("digest", ""), digest);
  std::filesystem::remove_all(root);
}

// An evaluate job answers with the grid cell's record: apart from its trailing
// fit_seconds, the answer's members are the bytes of that cell's object in a
// RunGrid summary under the same config.
TEST(BenchJobRunnerTest, EvaluateAnswersWithTheGridCellsRecord) {
  const std::string root = ::testing::TempDir() + "tsg_bench_job_runner_evaluate";
  std::filesystem::remove_all(root);
  bench::BenchConfig config;
  config.scale = 0.05;
  config.out_dir = root + "/out";
  std::filesystem::create_directories(config.out_dir);
  ASSERT_TRUE(bench::RunGrid(config, {"TimeVAE"}, {data::DatasetId::kDlg})
                  .failures.empty());
  const StatusOr<std::string> summary =
      io::ReadFileToString(bench::GridSummaryPath(config));
  ASSERT_TRUE(summary.ok());

  // A store of its own, so the job trains the model instead of restoring the
  // grid's.
  config.store_dir = root + "/store";
  BenchJobRunner runner(config);
  JobSpec spec;
  spec.kind = JobKind::kEvaluate;
  spec.method = "TimeVAE";
  spec.dataset = "DLG";
  const StatusOr<std::string> members = runner.Run(spec, nullptr);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  const size_t fit = members.value().rfind(",\"fit_seconds\":");
  ASSERT_NE(fit, std::string::npos) << members.value();
  const std::string cell = "{" + members.value().substr(1, fit - 1) + "}";
  EXPECT_NE(cell.find("\"status\":\"ok\",\"scores\":{"), std::string::npos) << cell;
  EXPECT_NE(summary.value().find(cell), std::string::npos)
      << cell << "\nnot in\n" << summary.value();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace tsg::serve
