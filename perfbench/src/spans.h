#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log for the traced run. Spans are recorded by the benchmark's
// own code around calls into the program's public functions (no program code
// is instrumented), kept in memory, and written once when the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   ///< Span id of the cause, -1 for a root.
  int64_t request = -1;  ///< Request id shared by one request's spans, -1 none.
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double duration_s() const { return end_s - start_s; }
};

/// Thread-safe span recorder. Each thread keeps a stack of its open
/// ScopedSpans, so a span begun inside another on the same thread gets it as
/// parent; spans caused on another thread (a job run for a client request)
/// name their parent explicitly.
class SpanLog {
 public:
  /// Reserves the id of a span about to begin.
  int64_t NextId();
  /// Records a finished span (its id from NextId()).
  void Record(Span span);
  /// Every span recorded so far, in id order.
  std::vector<Span> spans() const;
  /// Writes {"spans":[{id,parent,request,name,start_s,end_s,self_s},...]}.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Self time of each of `spans` (same order): its duration minus the part of
/// its interval covered by the union of its children's intervals.
std::vector<double> ComputeSelfTimes(const std::vector<Span>& spans);

/// Parent argument of ScopedSpan: the calling thread's innermost open span.
inline constexpr int64_t kParentFromThread = -2;

/// RAII span on the calling thread. With a null log it only measures, so an
/// untraced pass runs the same code path without recording anything.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t request = -1,
             int64_t parent = kParentFromThread);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since construction.
  double Elapsed() const;

 private:
  SpanLog* log_;
  std::string name_;
  int64_t request_;
  int64_t parent_;
  int64_t id_ = -1;
  double start_s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
