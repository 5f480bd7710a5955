#include "serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "io/json.h"
#include "obs/metrics.h"

namespace tsg::serve {

namespace {

/// A request line longer than this kills its session (malformed client).
constexpr size_t kMaxLineBytes = size_t{1} << 20;
/// Connections beyond this many live sessions are refused at accept.
constexpr int kMaxSessions = 64;

obs::Counter& ServeCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

Server::Server(ServerOptions options, JobRunner* runner)
    : options_(std::move(options)), runner_(runner), queue_(options_.limits) {}

Server::~Server() {
  for (auto& [fd, session] : sessions_) close(fd);
  if (unix_listen_fd_ >= 0) close(unix_listen_fd_);
  if (tcp_listen_fd_ >= 0) close(tcp_listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  if (!options_.socket_path.empty()) unlink(options_.socket_path.c_str());
}

Status Server::Start() {
  // First, so a bad port leaves no pipe, socket or socket file behind.
  if (options_.tcp_port < 0 || options_.tcp_port > 65535) {
    return Status::InvalidArgument("tcp_port " + std::to_string(options_.tcp_port) +
                                   " is outside [0, 65535]");
  }
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("socket_path is required");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long (" +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " byte limit): " + options_.socket_path);
  }

  // Self-pipe: written by signal handlers (RequestStop) and worker threads
  // (NotifyJobFinished) to interrupt poll(). Both halves non-blocking so a full
  // pipe can never wedge a writer — one pending byte is enough to wake.
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  TSG_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  TSG_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));

  unix_listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_listen_fd_ < 0) {
    return Status::IoError(std::string("socket(AF_UNIX): ") +
                           std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  unlink(options_.socket_path.c_str());
  if (bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::IoError("bind(" + options_.socket_path +
                           "): " + std::strerror(errno));
  }
  if (listen(unix_listen_fd_, 16) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  TSG_RETURN_IF_ERROR(SetNonBlocking(unix_listen_fd_));

  if (options_.tcp_port > 0) {
    tcp_listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) {
      return Status::IoError(std::string("socket(AF_INET): ") +
                             std::strerror(errno));
    }
    const int one = 1;
    setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in tcp_addr{};
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    tcp_addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&tcp_addr),
             sizeof(tcp_addr)) != 0 ||
        listen(tcp_listen_fd_, 16) != 0) {
      return Status::IoError("bind/listen 127.0.0.1:" +
                             std::to_string(options_.tcp_port) + ": " +
                             std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
    TSG_RETURN_IF_ERROR(SetNonBlocking(tcp_listen_fd_));
  }

  // Schedule()d jobs need dedicated workers: with TSG_THREADS=1 the pool holds
  // zero and queued jobs would never run.
  base::ThreadPool::Global().EnsureScheduleWorkers(options_.limits.max_inflight);
  return Status::Ok();
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 's';
    // Best effort: a full pipe already guarantees a pending wake-up.
    (void)!write(wake_write_fd_, &byte, 1);
  }
}

void Server::NotifyJobFinished(bool done) {
  if (done) jobs_done_.fetch_add(1, std::memory_order_relaxed);
  if (wake_write_fd_ >= 0) {
    const char byte = 'j';
    (void)!write(wake_write_fd_, &byte, 1);
  }
  // Last: once no job is in flight a draining Serve may return and the server
  // be destroyed, so nothing may touch `this` (or the pipe) after this.
  jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::PumpQueue() {
  while (auto job = queue_.PopRunnable()) {
    const int64_t id = job->id;
    const JobSpec spec = job->spec;
    jobs_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    base::ThreadPool::Global().Schedule([this, id, spec] {
      const StatusOr<std::string> result =
          runner_->Run(spec, [this, id] { return queue_.ShouldStop(id); });
      queue_.Complete(id, result);
      NotifyJobFinished(result.ok());
    });
  }
}

std::string Server::JobResponse(const JobRecord& job) const {
  if (job.state == JobState::kDone) {
    return OkResponse(",\"job\":" + std::to_string(job.id) +
                      ",\"state\":\"done\"" + job.result_json);
  }
  if (!IsTerminal(job.state)) {
    io::JsonWriter json;
    json.BeginObject();
    json.Key("ok").Bool(true);
    json.Key("job").Int(job.id);
    json.Key("state").String(JobStateName(job.state));
    json.EndObject();
    return json.str();
  }
  io::JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  json.Key("job").Int(job.id);
  json.Key("state").String(JobStateName(job.state));
  json.Key("code").String(StatusCodeToken(job.error.code()));
  json.Key("error").String(job.error.message());
  json.EndObject();
  return json.str();
}

void Server::Respond(Session& session, const std::string& response) {
  session.out_buf += response;
  session.out_buf += '\n';
}

void Server::HandleLine(Session& session, const std::string& line) {
  ServeCounter("serve.requests").Add();
  const StatusOr<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    ServeCounter("serve.requests.malformed").Add();
    Respond(session, ErrorResponse(parsed.status()));
    return;
  }
  const Request& request = parsed.value();
  switch (request.cmd) {
    case Request::Cmd::kSubmit: {
      const StatusOr<int64_t> id = queue_.Submit(request.spec);
      if (!id.ok()) {
        Respond(session, ErrorResponse(id.status()));
        return;
      }
      Respond(session, OkResponse(",\"job\":" + std::to_string(id.value())));
      return;
    }
    case Request::Cmd::kStatus: {
      if (request.job >= 0) {
        const auto job = queue_.Get(request.job);
        Respond(session, job.has_value()
                             ? JobResponse(*job)
                             : ErrorResponse(queue_.NotFound(request.job)));
        return;
      }
      io::JsonWriter json;
      json.BeginObject();
      json.Key("queued").Int(queue_.queued_count());
      json.Key("running").Int(queue_.running_count());
      json.Key("draining").Bool(queue_.draining());
      json.Key("jobs").BeginArray();
      for (const JobRecord& job : queue_.Snapshot()) {
        json.BeginObject();
        json.Key("job").Int(job.id);
        json.Key("kind").String(JobKindName(job.spec.kind));
        json.Key("tenant").String(job.spec.tenant);
        json.Key("state").String(JobStateName(job.state));
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
      const std::string& doc = json.str();
      Respond(session, OkResponse("," + doc.substr(1, doc.size() - 2)));
      return;
    }
    case Request::Cmd::kResult: {
      const auto job = queue_.Get(request.job);
      if (!job.has_value()) {
        Respond(session, ErrorResponse(queue_.NotFound(request.job)));
        return;
      }
      if (IsTerminal(job->state)) {
        Respond(session, JobResponse(*job));
        return;
      }
      if (request.wait) {
        // Deferred: the completion sweep answers when the job turns terminal.
        session.waiting_jobs.insert(request.job);
        return;
      }
      Respond(session,
              ErrorResponse(Status::FailedPrecondition(
                  "job " + std::to_string(request.job) + " still " +
                  JobStateName(job->state) + "; pass \"wait\":true to block")));
      return;
    }
    case Request::Cmd::kCancel: {
      const Status status = queue_.Cancel(request.job);
      Respond(session, status.ok() ? OkResponse() : ErrorResponse(status));
      return;
    }
    case Request::Cmd::kMetrics: {
      Respond(session,
              "{\"ok\":true,\"metrics\":" +
                  obs::MetricRegistry::Global().SnapshotJson(true) + "}");
      return;
    }
    case Request::Cmd::kPing:
      Respond(session, OkResponse());
      return;
    case Request::Cmd::kShutdown:
      Respond(session, OkResponse(",\"draining\":true"));
      RequestStop();
      return;
  }
}

void Server::AcceptSessions(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; poll retries.
    if (static_cast<int>(sessions_.size()) >= kMaxSessions) {
      ServeCounter("serve.sessions.rejected").Add();
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    ServeCounter("serve.sessions.accepted").Add();
    Session session;
    session.fd = fd;
    session.last_activity = std::chrono::steady_clock::now();
    sessions_.emplace(fd, std::move(session));
  }
}

void Server::CloseSession(int fd) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  close(fd);
  sessions_.erase(it);
  ServeCounter("serve.sessions.closed").Add();
}

void Server::ReadSession(Session& session) {
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(session.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session.in_buf.append(buf, static_cast<size_t>(n));
      session.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {  // Peer closed; flush what we owe, then detach.
      session.closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    session.closing = true;
    return;
  }
  size_t start = 0;
  for (;;) {
    const size_t newline = session.in_buf.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = session.in_buf.substr(start, newline - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = newline + 1;
    if (!line.empty()) HandleLine(session, line);
  }
  session.in_buf.erase(0, start);
  if (session.in_buf.size() > kMaxLineBytes) {
    Respond(session, ErrorResponse(Status::InvalidArgument(
                         "request line exceeds " + std::to_string(kMaxLineBytes) +
                         " bytes")));
    session.closing = true;
  }
}

void Server::FlushSession(Session& session) {
  while (!session.out_buf.empty()) {
    const ssize_t n = send(session.fd, session.out_buf.data(),
                           session.out_buf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.out_buf.erase(0, static_cast<size_t>(n));
      session.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    session.out_buf.clear();  // Broken pipe; nothing more to deliver.
    session.closing = true;
    return;
  }
}

void Server::SweepCompletions() {
  // Answer every subscription whose job reached a terminal state, including
  // jobs that drained straight from kQueued. A record can also be gone by the
  // time the sweep looks: a drain may retire more queued jobs at once than the
  // queue retains. Its waiter gets the expiry error instead of waiting forever.
  for (auto& [fd, session] : sessions_) {
    for (auto it = session.waiting_jobs.begin();
         it != session.waiting_jobs.end();) {
      const auto job = queue_.Get(*it);
      if (!job.has_value()) {
        Respond(session, ErrorResponse(queue_.NotFound(*it)));
      } else if (IsTerminal(job->state)) {
        Respond(session, JobResponse(*job));
      } else {
        ++it;
        continue;
      }
      it = session.waiting_jobs.erase(it);
    }
  }
}

void Server::CloseIdleSessions() {
  if (options_.idle_timeout_seconds <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> idle;
  for (const auto& [fd, session] : sessions_) {
    if (!session.waiting_jobs.empty()) continue;  // Blocked on a job; exempt.
    if (!session.out_buf.empty()) continue;
    const double idle_s = std::chrono::duration_cast<
                              std::chrono::duration<double>>(
                              now - session.last_activity)
                              .count();
    if (idle_s > options_.idle_timeout_seconds) idle.push_back(fd);
  }
  for (const int fd : idle) {
    ServeCounter("serve.sessions.idle_closed").Add();
    CloseSession(fd);
  }
}

bool Server::DrainFinished() {
  return jobs_in_flight_.load(std::memory_order_acquire) == 0;
}

int64_t Server::Serve() {
  bool drain_started = false;
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !drain_started) {
      drain_started = true;
      queue_.StartDrain();
      std::fprintf(stderr, "[tsgd] draining: %d running job(s)\n",
                   queue_.running_count());
    }
    if (!drain_started) PumpQueue();
    SweepCompletions();

    if (drain_started && DrainFinished()) {
      // Deliver the drain verdicts, give flushes a short grace, exit.
      SweepCompletions();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      for (auto& [fd, session] : sessions_) FlushSession(session);
      while (std::chrono::steady_clock::now() < deadline) {
        bool pending = false;
        for (auto& [fd, session] : sessions_) {
          if (!session.out_buf.empty()) pending = true;
        }
        if (!pending) break;
        pollfd pfds[kMaxSessions];
        nfds_t n = 0;
        for (auto& [fd, session] : sessions_) {
          if (!session.out_buf.empty() && n < kMaxSessions) {
            pfds[n].fd = fd;
            pfds[n].events = POLLOUT;
            pfds[n].revents = 0;
            ++n;
          }
        }
        if (poll(pfds, n, 100) <= 0) continue;
        for (nfds_t i = 0; i < n; ++i) {
          if (pfds[i].revents != 0) {
            auto it = sessions_.find(pfds[i].fd);
            if (it != sessions_.end()) FlushSession(it->second);
          }
        }
      }
      break;
    }

    std::vector<pollfd> pfds;
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    if (!drain_started) {
      pfds.push_back({unix_listen_fd_, POLLIN, 0});
      if (tcp_listen_fd_ >= 0) pfds.push_back({tcp_listen_fd_, POLLIN, 0});
    }
    for (const auto& [fd, session] : sessions_) {
      short events = POLLIN;
      if (!session.out_buf.empty()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }

    const int ready = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 250);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "[tsgd] poll: %s\n", std::strerror(errno));
      break;
    }

    size_t idx = 0;
    if (pfds[idx].revents & POLLIN) {
      char scratch[256];
      while (read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
    }
    ++idx;
    if (!drain_started) {
      if (pfds[idx].revents & POLLIN) AcceptSessions(unix_listen_fd_);
      ++idx;
      if (tcp_listen_fd_ >= 0) {
        if (pfds[idx].revents & POLLIN) AcceptSessions(tcp_listen_fd_);
        ++idx;
      }
    }
    std::vector<int> to_close;
    for (; idx < pfds.size(); ++idx) {
      auto it = sessions_.find(pfds[idx].fd);
      if (it == sessions_.end()) continue;
      Session& session = it->second;
      if (pfds[idx].revents & (POLLERR | POLLNVAL)) {
        to_close.push_back(session.fd);
        continue;
      }
      if (pfds[idx].revents & (POLLIN | POLLHUP)) ReadSession(session);
      if (pfds[idx].revents & POLLOUT || !session.out_buf.empty()) {
        FlushSession(session);
      }
      if (session.closing && session.out_buf.empty()) {
        to_close.push_back(session.fd);
      }
    }
    for (const int fd : to_close) CloseSession(fd);
    CloseIdleSessions();
  }

  for (auto& [fd, session] : sessions_) close(fd);
  sessions_.clear();
  const int64_t jobs_done = jobs_done_.load(std::memory_order_relaxed);
  std::fprintf(stderr, "[tsgd] drained; %lld job(s) completed\n",
               static_cast<long long>(jobs_done));
  return jobs_done;
}

}  // namespace tsg::serve
