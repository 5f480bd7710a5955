#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The load generator: one thread driving several daemon connections. Requests
// are sent when due (open loop: a late reply never delays the next send), and
// each is timed from its scheduled send. A submit is followed by a result
// wait on the same connection as soon as its job id is known.

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "daemon.h"
#include "io/json_parse.h"
#include "stats.h"

namespace perfbench {

struct LoadRequest {
  int conn = 0;
  bool submit = true;   ///< Submit + result wait; false = one plain command.
  std::string line;     ///< The submit or command line.
  OpenLoopRecord record;
  int64_t job = -1;
  tsg::io::JsonValue reply;  ///< Terminal reply (result or command reply).
};

class LoadGenerator {
 public:
  explicit LoadGenerator(std::vector<LineClient*> conns) : conns_(std::move(conns)) {}

  /// Adds a request due at `scheduled_s` (NowSeconds() clock); returns its
  /// index. May be called from the completion callback (closed-loop tenants).
  size_t Add(LoadRequest request, double scheduled_s);

  /// Sends every request scheduled before `stop_sending_s` when it falls
  /// due, then waits for outstanding replies until `give_up_s`. `on_done(i)`
  /// runs when request i gets its terminal reply; it may set
  /// requests()[i].record.ok to false, add requests, or call StopSending().
  void Run(double stop_sending_s, double give_up_s,
           const std::function<void(size_t)>& on_done);

  /// Sends nothing more; requests not yet sent are dropped unsent.
  void StopSending() { stop_sending_ = true; }

  std::vector<LoadRequest>& requests() { return requests_; }
  /// Requests sent but unanswered when sending stopped.
  int64_t backlog_at_stop() const { return backlog_at_stop_; }

 private:
  std::vector<LineClient*> conns_;
  std::vector<LoadRequest> requests_;
  /// Unsent requests, earliest scheduled first.
  std::priority_queue<std::pair<double, size_t>, std::vector<std::pair<double, size_t>>,
                      std::greater<>>
      unsent_;
  int64_t backlog_at_stop_ = 0;
  bool stop_sending_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
