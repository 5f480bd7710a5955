#include "spans.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "io/atomic_file.h"
#include "io/json.h"

namespace perfbench {

namespace {

/// Open ScopedSpans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

}  // namespace

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

int64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::vector<double> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].push_back({s.start_s, s.end_s});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's: concurrent
    // children that overlap are counted once.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = ComputeSelfTimes(all);
  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("spans").BeginArray();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    json.BeginObject();
    json.Key("id").Int(s.id);
    json.Key("parent").Int(s.parent);
    json.Key("request").Int(s.request);
    json.Key("name").String(s.name);
    json.Key("start_s").Number(s.start_s);
    json.Key("end_s").Number(s.end_s);
    json.Key("self_s").Number(self[i]);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return tsg::io::WriteFileAtomic(path, json.str() + "\n").ok();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, int64_t request,
                       int64_t parent)
    : log_(log),
      name_(std::move(name)),
      request_(request),
      parent_(parent),
      start_s_(NowSeconds()) {
  if (log_ == nullptr) return;
  if (parent_ == kParentFromThread) {
    parent_ = t_open_spans.empty() ? -1 : t_open_spans.back();
  }
  id_ = log_->NextId();
  t_open_spans.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  t_open_spans.pop_back();
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.name = std::move(name_);
  span.start_s = start_s_;
  span.end_s = NowSeconds();
  log_->Record(std::move(span));
}

double ScopedSpan::Elapsed() const { return NowSeconds() - start_s_; }

}  // namespace perfbench
