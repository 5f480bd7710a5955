#include "loadgen.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "spans.h"

namespace perfbench {

size_t LoadGenerator::Add(LoadRequest request, double scheduled_s) {
  request.record.scheduled_s = scheduled_s;
  requests_.push_back(std::move(request));
  unsent_.push({scheduled_s, requests_.size() - 1});
  return requests_.size() - 1;
}

void LoadGenerator::Run(double stop_sending_s, double give_up_s,
                        const std::function<void(size_t)>& on_done) {
  const size_t n_conns = conns_.size();
  // Per connection: requests awaiting their first reply (submit ack or
  // command reply) in send order, and job id -> request for result waits.
  std::vector<std::deque<size_t>> awaiting(n_conns);
  std::vector<std::map<int64_t, size_t>> by_job(n_conns);
  int64_t outstanding = 0;
  bool stopped = false;  // Every request due before the stop was sent.

  auto finish = [&](size_t i, const tsg::io::JsonValue& reply, double now) {
    LoadRequest& r = requests_[i];
    r.record.done_s = now;
    r.record.completed = true;
    r.record.ok = reply.GetBool("ok", false);
    r.reply = reply;
    --outstanding;
    on_done(i);
  };

  std::vector<std::string> lines;
  std::vector<pollfd> fds(n_conns);
  for (;;) {
    double now = NowSeconds();
    // Send everything due, earliest first: a request scheduled before the
    // stop goes out even when the generator reaches it late.
    while (!stop_sending_ && !unsent_.empty() && unsent_.top().first <= now &&
           unsent_.top().first < stop_sending_s) {
      const size_t i = unsent_.top().second;
      unsent_.pop();
      LoadRequest& r = requests_[i];
      r.record.sent_s = NowSeconds();
      r.record.sent = true;
      ++outstanding;
      if (!conns_[static_cast<size_t>(r.conn)]->Send(r.line).ok()) {
        r.record.completed = true;  // ok stays false: a failed send.
        --outstanding;
        on_done(i);
      } else {
        awaiting[static_cast<size_t>(r.conn)].push_back(i);
      }
      now = NowSeconds();
    }
    const bool more_to_send =
        !stop_sending_ && !unsent_.empty() && unsent_.top().first < stop_sending_s;
    if (!stopped && (!more_to_send || now >= stop_sending_s)) {
      stopped = true;
      backlog_at_stop_ = outstanding;
    }
    if (outstanding == 0 && !more_to_send) break;
    if (now >= give_up_s) break;
    const double next_due = more_to_send ? unsent_.top().first : give_up_s;

    const double wait_s = std::max(0.0, std::min(next_due, give_up_s) - NowSeconds());
    for (size_t c = 0; c < n_conns; ++c) fds[c] = pollfd{conns_[c]->fd(), POLLIN, 0};
    const int timeout_ms = static_cast<int>(std::ceil(wait_s * 1e3));
    if (poll(fds.data(), n_conns, timeout_ms) <= 0) continue;
    for (size_t c = 0; c < n_conns; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      conns_[c]->ReadAvailable(&lines);
      for (const std::string& line : lines) {
        const double t = NowSeconds();
        const auto parsed = tsg::io::JsonValue::Parse(line);
        const tsg::io::JsonValue reply =
            parsed.ok() ? parsed.value() : tsg::io::JsonValue();
        if (reply.Find("state") != nullptr) {
          // A terminal result for a job this connection waits on.
          const auto it = by_job[c].find(reply.GetInt("job", -1));
          if (it == by_job[c].end()) continue;
          const size_t i = it->second;
          by_job[c].erase(it);
          finish(i, reply, t);
          continue;
        }
        if (awaiting[c].empty()) continue;
        const size_t i = awaiting[c].front();
        awaiting[c].pop_front();
        LoadRequest& r = requests_[i];
        if (r.submit && reply.GetBool("ok", false)) {
          r.job = reply.GetInt("job", -1);
          by_job[c][r.job] = i;
          if (!conns_[c]->Send(WaitLine(r.job)).ok()) finish(i, tsg::io::JsonValue(), t);
          continue;
        }
        finish(i, reply, t);  // A command reply, or a refused submit.
      }
    }
  }
}

}  // namespace perfbench
