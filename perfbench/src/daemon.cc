#include "daemon.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace perfbench {

using tsg::Status;
using tsg::StatusOr;

StatusOr<std::unique_ptr<LineClient>> LineClient::Connect(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IoError("connect(" + path + "): " + err);
  }
  return std::unique_ptr<LineClient>(new LineClient(fd));
}

LineClient::~LineClient() { close(fd_); }

Status LineClient::Send(const std::string& line) {
  const std::string wire = line + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

bool LineClient::ReadAvailable(std::vector<std::string>* lines) {
  char buf[65536];
  bool alive = true;
  for (;;) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) alive = false;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
    break;
  }
  size_t begin = 0;
  for (size_t nl = buffer_.find('\n'); nl != std::string::npos;
       nl = buffer_.find('\n', begin)) {
    lines->push_back(buffer_.substr(begin, nl - begin));
    begin = nl + 1;
  }
  buffer_.erase(0, begin);
  return alive;
}

StatusOr<tsg::io::JsonValue> LineClient::Call(const std::string& line) {
  TSG_RETURN_IF_ERROR(Send(line));
  std::vector<std::string> lines;
  while (lines.empty()) {
    pollfd pfd{fd_, POLLIN, 0};
    if (poll(&pfd, 1, 60000) <= 0) return Status::IoError("no reply within 60 s");
    if (!ReadAvailable(&lines) && lines.empty()) {
      return Status::IoError("daemon closed the connection");
    }
  }
  return tsg::io::JsonValue::Parse(lines.front());
}

std::string SubmitLine(const tsg::serve::JobSpec& spec) {
  tsg::serve::Request request;
  request.cmd = tsg::serve::Request::Cmd::kSubmit;
  request.spec = spec;
  return tsg::serve::EncodeRequest(request);
}

std::string WaitLine(int64_t job) {
  tsg::serve::Request request;
  request.cmd = tsg::serve::Request::Cmd::kResult;
  request.job = job;
  request.wait = true;
  return tsg::serve::EncodeRequest(request);
}

std::string CommandLine(tsg::serve::Request::Cmd cmd) {
  tsg::serve::Request request;
  request.cmd = cmd;
  return tsg::serve::EncodeRequest(request);
}

StatusOr<tsg::io::JsonValue> SubmitAndWait(LineClient& client,
                                           const tsg::serve::JobSpec& spec) {
  TSG_ASSIGN_OR_RETURN(const tsg::io::JsonValue ack, client.Call(SubmitLine(spec)));
  if (!ack.GetBool("ok", false)) {
    return Status::Internal("submit refused: " + ack.GetString("error", "?"));
  }
  TSG_ASSIGN_OR_RETURN(tsg::io::JsonValue reply,
                       client.Call(WaitLine(ack.GetInt("job", -1))));
  if (!reply.GetBool("ok", false)) {
    return Status::Internal(std::string(tsg::serve::JobKindName(spec.kind)) +
                            " job failed: " + reply.GetString("error", "?"));
  }
  return reply;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(const tsg::bench::BenchConfig& config,
                                                const std::string& socket_path,
                                                SpanLog* spans) {
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->socket_path_ = socket_path;
  daemon->bench_runner_ = std::make_unique<tsg::serve::BenchJobRunner>(config);
  tsg::serve::JobRunner* runner = daemon->bench_runner_.get();
  if (spans != nullptr) {
    daemon->tracer_ = std::make_unique<TracingRunner>(runner, spans);
    runner = daemon->tracer_.get();
  }
  tsg::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.limits.max_inflight = 3;
  daemon->server_ = std::make_unique<tsg::serve::Server>(options, runner);
  TSG_RETURN_IF_ERROR(daemon->server_->Start());
  tsg::serve::Server* server = daemon->server_.get();
  daemon->loop_ = std::thread([server] { server->Serve(); });
  return daemon;
}

StatusOr<std::string> TracingRunner::Run(const tsg::serve::JobSpec& spec,
                                         const std::function<bool()>& should_stop) {
  using tsg::serve::JobKind;
  int64_t request = -1;
  int64_t parent = -1;
  if (spec.tenant.rfind("setup", 0) != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spec.kind == JobKind::kGenerate || spec.kind == JobKind::kStreamEval) {
      request = static_cast<int64_t>(spec.gen_seed);
    } else {
      request = next_in_kind_[static_cast<int>(spec.kind)]++;
    }
    const auto it = parents_.find({static_cast<int>(spec.kind), request});
    if (it != parents_.end()) parent = it->second;
  }
  ScopedSpan span(log_, std::string("serve.runner.") + tsg::serve::JobKindName(spec.kind),
                  request, parent);
  return inner_->Run(spec, should_stop);
}

void TracingRunner::ExpectRequest(tsg::serve::JobKind kind, int64_t request,
                                  int64_t client_span) {
  std::lock_guard<std::mutex> lock(mu_);
  parents_[{static_cast<int>(kind), request}] = client_span;
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (!loop_.joinable()) return;
  server_->RequestStop();
  loop_.join();
}

}  // namespace perfbench
