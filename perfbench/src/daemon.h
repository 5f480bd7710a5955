#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

// An in-process tsgd (serve::Server + serve::BenchJobRunner, exactly what the
// tsgd binary runs) plus a line-protocol client over its Unix socket.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/status.h"
#include "bench_util.h"
#include "io/json_parse.h"
#include "serve/bench_runner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {

/// One client connection speaking the tsgd line protocol.
class LineClient {
 public:
  static tsg::StatusOr<std::unique_ptr<LineClient>> Connect(const std::string& path);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  int fd() const { return fd_; }
  /// Writes one request line (newline appended); blocks until written.
  tsg::Status Send(const std::string& line);
  /// Reads what is available without blocking and appends each complete line
  /// to *lines. Returns false once the peer closed or the socket failed.
  bool ReadAvailable(std::vector<std::string>* lines);
  /// Sends `line` and blocks until one reply line arrives.
  tsg::StatusOr<tsg::io::JsonValue> Call(const std::string& line);

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

/// The wire line of a submit request for `spec`.
std::string SubmitLine(const tsg::serve::JobSpec& spec);
/// The wire line of {"cmd":"result","job":id,"wait":true}.
std::string WaitLine(int64_t job);
/// The wire line of a command without arguments (metrics, status, ping).
std::string CommandLine(tsg::serve::Request::Cmd cmd);

/// Submits `spec` and waits for its terminal reply; fails unless it is done.
tsg::StatusOr<tsg::io::JsonValue> SubmitAndWait(LineClient& client,
                                                const tsg::serve::JobSpec& spec);

/// Records a span around every job the daemon runs, linked to the client
/// request that caused it: generate and stream_eval jobs by their gen_seed,
/// fit and evaluate jobs by their order within their tenant (each traffic
/// tenant runs one job at a time, in submission order). Jobs of "setup"
/// tenants are timed but not linked.
class TracingRunner : public tsg::serve::JobRunner {
 public:
  TracingRunner(tsg::serve::JobRunner* inner, SpanLog* log) : inner_(inner), log_(log) {}

  tsg::StatusOr<std::string> Run(const tsg::serve::JobSpec& spec,
                                 const std::function<bool()>& should_stop) override;

  /// Declares the client span that will cause job (kind, request).
  void ExpectRequest(tsg::serve::JobKind kind, int64_t request, int64_t client_span);

 private:
  tsg::serve::JobRunner* inner_;
  SpanLog* log_;
  std::mutex mu_;
  std::map<int, int64_t> next_in_kind_;
  std::map<std::pair<int, int64_t>, int64_t> parents_;
};

/// A running daemon: a server loop thread plus the runner it calls.
class Daemon {
 public:
  /// Starts a server on `socket_path` with tsgd's limits except
  /// max_inflight = 3, running jobs through a BenchJobRunner over `config`;
  /// with a span log, through a TracingRunner around it that records there.
  static tsg::StatusOr<std::unique_ptr<Daemon>> Start(
      const tsg::bench::BenchConfig& config, const std::string& socket_path,
      SpanLog* spans = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  /// The runner that records job spans; nullptr when started without a log.
  TracingRunner* tracer() const { return tracer_.get(); }
  /// Stops the loop (drain) and joins it. Idempotent.
  void Stop();

 private:
  Daemon() = default;
  std::string socket_path_;
  std::unique_ptr<tsg::serve::BenchJobRunner> bench_runner_;
  std::unique_ptr<TracingRunner> tracer_;
  std::unique_ptr<tsg::serve::Server> server_;
  std::thread loop_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
