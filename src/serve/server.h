#ifndef TSG_SERVE_SERVER_H_
#define TSG_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "base/status.h"
#include "serve/bench_runner.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"

namespace tsg::serve {

struct ServerOptions {
  /// Unix-domain socket path. Required; kept short (sockaddr_un caps paths at
  /// ~107 bytes). An existing socket file is replaced — tsgd owns its path.
  std::string socket_path;
  /// Also listen on 127.0.0.1:<tcp_port> when > 0 (same protocol). 0 = off.
  /// Start rejects a value outside [0, 65535].
  int tcp_port = 0;
  /// Sessions idle this long are detached — except sessions with a result
  /// subscription outstanding, which legitimately sit silent for the whole job.
  double idle_timeout_seconds = 300.0;
  /// Scheduling policy knobs (see JobQueue).
  JobQueue::Limits limits;
};

/// The tsgd daemon core: one poll(2) loop multiplexing every client session,
/// a JobQueue scheduling submitted jobs onto base::ThreadPool workers, and a
/// self-pipe that lets both signal handlers and worker threads wake the loop.
///
/// The loop owns all session state (per-session read/write buffers, result
/// subscriptions, idle clocks) single-threadedly; worker threads touch only the
/// JobQueue and two atomic job counters, so no session data is ever locked.
/// Responses are queued on the session's write buffer and flushed as POLLOUT
/// allows — a slow reader never blocks the loop or other sessions.
///
/// Shutdown (RequestStop — signal-safe — or a shutdown command): the queue
/// drains (queued jobs fail as kDrained, running jobs see their stop hook and
/// halt at the next checkpoint boundary), waiters get their terminal responses,
/// buffers flush, and Serve returns. A SIGKILL instead of SIGTERM loses none of
/// the grid work either way — cells checkpoint as they finish — which the CI
/// kill/restart smoke test exercises.
class Server {
 public:
  Server(ServerOptions options, JobRunner* runner);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the configured sockets and creates the self-pipe.
  Status Start();

  /// Runs the poll loop until a stop request finishes draining. Returns the
  /// number of jobs that ran to kDone.
  int64_t Serve();

  /// Initiates shutdown. Async-signal-safe (atomic store + pipe write): tsgd's
  /// SIGTERM/SIGINT handlers call this directly.
  void RequestStop();

  /// The bound TCP port (after Start, when tcp_port was requested; else 0).
  int tcp_port() const { return bound_tcp_port_; }

  JobQueue& queue() { return queue_; }

 private:
  struct Session {
    int fd = -1;
    std::string in_buf;
    std::string out_buf;
    std::chrono::steady_clock::time_point last_activity;
    /// Jobs this session asked to wait on; resolved by the completion sweep.
    std::set<int64_t> waiting_jobs;
    bool closing = false;  ///< Close once out_buf flushes.
  };

  void AcceptSessions(int listen_fd);
  void CloseSession(int fd);
  /// Drains readable bytes, splits complete lines, handles each.
  void ReadSession(Session& session);
  void FlushSession(Session& session);
  void HandleLine(Session& session, const std::string& line);
  void Respond(Session& session, const std::string& response);
  /// One response object for a job's current state (terminal states include
  /// the result payload or error).
  std::string JobResponse(const JobRecord& job) const;

  /// Starts every runnable job on the pool (each wrapped to Complete + notify).
  void PumpQueue();
  /// Worker-thread hook: records a finished job (`done` when it ran to kDone)
  /// and wakes the loop.
  void NotifyJobFinished(bool done);
  /// Delivers terminal responses to subscribed sessions for finished jobs.
  void SweepCompletions();
  void CloseIdleSessions();
  bool DrainFinished();

  const ServerOptions options_;
  JobRunner* runner_;
  JobQueue queue_;

  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int bound_tcp_port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::atomic<int64_t> jobs_done_{0};
  std::atomic<int> jobs_in_flight_{0};

  std::map<int, Session> sessions_;
};

}  // namespace tsg::serve

#endif  // TSG_SERVE_SERVER_H_
