// tsg_client: command-line client for the tsgd daemon. Opens one session on
// the daemon's Unix-domain socket (or 127.0.0.1:<port>), sends protocol lines
// built through serve::EncodeRequest, and prints each response line to stdout.
//
// The command set, --help text, and README protocol table all come from
// serve::ClientVerbs() — one table shared with the wire parser — so this file
// never lists verbs by hand and cannot drift from the protocol. Run
// `tsg_client --help` for the full synopsis.
//
// --wait on a submit sends {"cmd":"result","wait":true} for the new job and
// blocks until the daemon answers with the terminal state. Exit status: 0 when
// every response has "ok":true, 1 on a failed response or dead daemon, 2 on
// usage errors.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/json_parse.h"
#include "serve/protocol.h"

namespace {

using tsg::bench::ConsumeFlag;
using tsg::bench::ConsumeFlagValue;
using tsg::bench::ConsumeNumericFlag;
using tsg::bench::SplitCsvList;

int UsageError(const char* message) {
  std::fprintf(stderr, "%s\n%s", message, tsg::serve::ClientUsage().c_str());
  return 2;
}

int Connect(const std::string& socket_path, int port) {
  if (!socket_path.empty()) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      std::fprintf(stderr, "socket path too long: %s\n", socket_path.c_str());
      return -1;
    }
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::fprintf(stderr, "connect(%s): %s\n", socket_path.c_str(),
                   std::strerror(errno));
      close(fd);
      return -1;
    }
    return fd;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "connect(127.0.0.1:%d): %s\n", port,
                 std::strerror(errno));
    close(fd);
    return -1;
  }
  return fd;
}

bool SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = send(fd, framed.data() + sent, framed.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "send: %s\n", std::strerror(errno));
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Blocks until one full response line arrives (the daemon always answers in
/// order within a session). False on EOF/error.
bool ReadLine(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      *line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) std::fprintf(stderr, "recv: %s\n", std::strerror(errno));
    return false;
  }
}

/// Prints the response and reports whether it carried "ok":true.
bool PrintResponse(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  const auto parsed = tsg::io::JsonValue::Parse(line);
  return parsed.ok() && parsed.value().GetBool("ok", false);
}

}  // namespace

int main(int argc, char** argv) {
  if (ConsumeFlag(&argc, argv, "help")) {
    std::fputs(tsg::serve::ClientUsage().c_str(), stdout);
    return 0;
  }
  std::string socket_path;
  int port = 0;
  std::string value;
  ConsumeFlagValue(&argc, argv, "socket", &socket_path);
  const bool has_port = ConsumeNumericFlag(&argc, argv, "port", &port);
  const bool wait = ConsumeFlag(&argc, argv, "wait");

  tsg::serve::Request request;
  std::string flag_method, flag_dataset;
  int64_t flag_job = -1;
  ConsumeFlagValue(&argc, argv, "method", &flag_method);
  ConsumeFlagValue(&argc, argv, "dataset", &flag_dataset);
  ConsumeFlagValue(&argc, argv, "tenant", &request.spec.tenant);
  ConsumeNumericFlag(&argc, argv, "priority", &request.spec.priority);
  ConsumeNumericFlag(&argc, argv, "count", &request.spec.count);
  ConsumeNumericFlag(&argc, argv, "gen_seed", &request.spec.gen_seed);
  ConsumeNumericFlag(&argc, argv, "window", &request.spec.window);
  ConsumeNumericFlag(&argc, argv, "chunk", &request.spec.chunk);
  if (ConsumeFlagValue(&argc, argv, "methods", &value)) {
    request.spec.methods = SplitCsvList(value);
  }
  if (ConsumeFlagValue(&argc, argv, "datasets", &value)) {
    request.spec.datasets = SplitCsvList(value);
  }
  ConsumeNumericFlag(&argc, argv, "job", &flag_job);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, tsg::serve::ClientUsage()))
    return 2;
  if (argc != 2) return UsageError("expected exactly one command");
  if (socket_path.empty() != has_port) {
    return UsageError("pass exactly one of --socket / --port");
  }
  if (has_port && (port < 1 || port > 65535)) {
    std::fprintf(stderr, "--port=%d is outside [1, 65535]\n", port);
    return 2;
  }

  // Dispatch off the shared verb table: submit verbs are JobKind wire tokens,
  // plain verbs are Cmd wire tokens — so an unlisted command cannot exist.
  const std::string command = argv[1];
  const tsg::serve::VerbInfo* verb = nullptr;
  for (const tsg::serve::VerbInfo& v : tsg::serve::ClientVerbs()) {
    if (command == v.verb) {
      verb = &v;
      break;
    }
  }
  if (verb == nullptr) return UsageError("unknown command");

  bool is_submit = verb->is_submit;
  if (is_submit) {
    request.cmd = tsg::serve::Request::Cmd::kSubmit;
    const auto kind = tsg::serve::ParseJobKind(command);
    request.spec.kind = kind.value();
    request.spec.method = flag_method;
    request.spec.dataset = flag_dataset;
    if (command != "grid" && (flag_method.empty() || flag_dataset.empty())) {
      return UsageError("--method and --dataset are required");
    }
    if ((command == "generate" || command == "stream_eval") &&
        request.spec.count <= 0) {
      return UsageError("--count must be a positive integer");
    }
    if (command == "stream_eval" &&
        (request.spec.window <= 0 || request.spec.chunk <= 0)) {
      return UsageError("--window and --chunk must be positive integers");
    }
  } else if (command == "status") {
    request.cmd = tsg::serve::Request::Cmd::kStatus;
    request.job = flag_job;
  } else if (command == "result") {
    if (flag_job < 0) return UsageError("result requires --job");
    request.cmd = tsg::serve::Request::Cmd::kResult;
    request.job = flag_job;
    request.wait = wait;
  } else if (command == "cancel") {
    if (flag_job < 0) return UsageError("cancel requires --job");
    request.cmd = tsg::serve::Request::Cmd::kCancel;
    request.job = flag_job;
  } else if (command == "metrics") {
    request.cmd = tsg::serve::Request::Cmd::kMetrics;
  } else if (command == "ping") {
    request.cmd = tsg::serve::Request::Cmd::kPing;
  } else {
    request.cmd = tsg::serve::Request::Cmd::kShutdown;
  }

  const int fd = Connect(socket_path, port);
  if (fd < 0) return 1;

  std::string buffer;
  std::string line;
  bool ok = true;
  if (!SendLine(fd, tsg::serve::EncodeRequest(request)) ||
      !ReadLine(fd, &buffer, &line)) {
    close(fd);
    return 1;
  }
  ok = PrintResponse(line) && ok;

  if (ok && is_submit && wait) {
    // Follow the job to its terminal state over the same session.
    const auto submitted = tsg::io::JsonValue::Parse(line);
    const int64_t job_id =
        submitted.ok() ? submitted.value().GetInt("job", -1) : -1;
    if (job_id < 0) {
      close(fd);
      return 1;
    }
    tsg::serve::Request follow;
    follow.cmd = tsg::serve::Request::Cmd::kResult;
    follow.job = job_id;
    follow.wait = true;
    if (!SendLine(fd, tsg::serve::EncodeRequest(follow)) ||
        !ReadLine(fd, &buffer, &line)) {
      close(fd);
      return 1;
    }
    ok = PrintResponse(line) && ok;
  }

  close(fd);
  return ok ? 0 : 1;
}
