#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The metric catalog (every end-to-end and per-layer metric the benchmark
// reports, with its unit, section and the end-to-end metric it should move),
// the output checks, and the printed report whose last line is the result
// JSON.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string section;  ///< grid_cold, serve_mixed, stream_live or "all".
  std::string maps_to;  ///< Per-layer: the end-to-end metric it should move.
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, reported by every traced run.
const std::vector<MetricSpec>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric value with the number of samples behind it. The name
  /// must be in the catalog of the run's kind.
  void Set(const std::string& name, double value, int64_t samples,
           const std::string& note = "");
  /// Records an output check; a failed one fails the run.
  void Check(bool ok, const std::string& what);
  /// Adds operations attempted and failed (refused or erroring requests).
  void Ops(int64_t attempted, int64_t failed);
  /// Prints the human-readable table for `catalog` and, as the last line, the
  /// result JSON. Returns false when a check failed or a catalog metric is
  /// missing.
  bool Print(const std::vector<MetricSpec>& catalog);

  bool correct() const { return failed_checks_ == 0; }

 private:
  struct Value {
    double value = 0.0;
    int64_t samples = 0;
    std::string note;
  };
  std::map<std::string, Value> values_;
  int64_t failed_checks_ = 0;
  int64_t checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The hardware block: cores, CPU model and ISA flags, the kernel layer's
/// resolved dispatch, compiler and build type, and the pool width.
std::string HardwareJson(int tsg_threads);

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();
/// Resets the peak resident set to the current one (Linux clear_refs), so a
/// later PeakRssMb() covers only what ran in between.
void ResetPeakRss();

/// Verifies that BENCHMARK.json (when present in the working directory)
/// lists exactly the catalog's metrics; returns a description of any
/// difference, empty when they agree.
std::string CompareWithBenchmarkJson(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
