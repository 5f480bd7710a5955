// Streaming-evaluation micro-benchmark (DESIGN.md §12): feeds one synthetic
// generation stream through a streameval::StreamEvaluator and through the
// naive alternative — re-running the batch measure suite from scratch over the
// sliding window — and writes the per-snapshot costs and their ratio to
// <out_dir>/micro_stream.json. Each path is timed kRepeats times, alternating,
// with a fresh evaluator per run, and reported as the median run; the JSON
// records the repeat count and the pool width. Both paths report live: one
// snapshot per arriving chunk, the cadence a tenant watching METRICS actually
// gets. The streaming path does each expensive per-item computation (DTW
// tables, ACFs, histogram inserts) exactly once per series, so every live
// snapshot re-folds cached values, and MMD keeps the reference's distance
// block; the rescan redoes the per-item work for the whole window, and MMD's
// reference block, at every snapshot, costing roughly window/chunk times more
// on the cached measures.
//
// Both paths compute bit-identical values for the measures they share (the
// evaluator's VerifyExactAgainstBatch asserts it at the final window), so the
// comparison is pure bookkeeping cost, not accuracy traded for speed. The
// stream path also runs FGD, which has no batch counterpart in the rescan, so
// the reported speedup is a lower bound.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "core/dataset.h"
#include "core/measures.h"
#include "data/simulators.h"
#include "io/atomic_file.h"
#include "io/json.h"
#include "streameval/stream_evaluator.h"

namespace {

using tsg::core::Dataset;
using tsg::linalg::Matrix;

constexpr int64_t kReferenceSeries = 48;
constexpr int64_t kStreamSeries = 192;
constexpr int64_t kSeqLen = 96;
constexpr int64_t kFeatures = 3;
constexpr int64_t kWindow = 32;
constexpr int64_t kChunk = 8;
constexpr int kRepeats = 5;

/// The naive baseline: slide the window by hand and run the real batch
/// measures over it after every arriving chunk — exactly what a caller without
/// the streaming subsystem would do to get the same live numbers.
double BatchRescanSeconds(const Dataset& reference,
                          const std::vector<Matrix>& stream) {
  const tsg::core::EuclideanDistanceMeasure ed;
  const tsg::core::DtwDistanceMeasure dtw;
  const tsg::core::MarginalDistributionDifference mdd;
  const tsg::core::AutocorrelationDifference acd;
  const tsg::core::SkewnessDifference sd;
  const tsg::core::KurtosisDifference kd;
  const tsg::core::MmdMeasure mmd;

  tsg::Stopwatch watch;
  std::deque<Matrix> window;
  std::deque<int64_t> positions;
  double sink = 0.0;
  for (size_t p = 0; p < stream.size(); ++p) {
    window.push_back(stream[p]);
    positions.push_back(static_cast<int64_t>(p));
    if (static_cast<int64_t>(window.size()) > kWindow) {
      window.pop_front();
      positions.pop_front();
    }
    if ((p + 1) % kChunk != 0) continue;

    const Dataset window_ds(
        "window", std::vector<Matrix>(window.begin(), window.end()));
    std::vector<int64_t> pair_idx;
    for (const int64_t pos : positions) {
      pair_idx.push_back(pos % reference.num_samples());
    }
    const Dataset paired = reference.Select(pair_idx);

    tsg::core::MeasureContext paired_ctx;
    paired_ctx.real = &paired;
    paired_ctx.generated = &window_ds;
    tsg::core::MeasureContext full_ctx;
    full_ctx.real = &reference;
    full_ctx.generated = &window_ds;

    sink += ed.Evaluate(paired_ctx).value();
    sink += dtw.Evaluate(paired_ctx).value();
    sink += mdd.Evaluate(full_ctx).value();
    sink += acd.Evaluate(full_ctx).value();
    sink += sd.Evaluate(full_ctx).value();
    sink += kd.Evaluate(full_ctx).value();
    sink += mmd.Evaluate(full_ctx).value();
  }
  const double seconds = watch.ElapsedSeconds();
  std::fprintf(stderr, "[stream] batch rescan sink %.6f\n", sink);
  return seconds;
}

/// The streaming path: the evaluator consumes the stream in kChunk batches;
/// boundary snapshots (including drift tracking) happen inside Update.
double StreamingSeconds(tsg::streameval::StreamEvaluator& eval,
                        const std::vector<Matrix>& stream) {
  tsg::Stopwatch watch;
  for (size_t i = 0; i < stream.size(); i += kChunk) {
    const size_t take =
        std::min(static_cast<size_t>(kChunk), stream.size() - i);
    const std::vector<Matrix> batch(stream.begin() + i,
                                    stream.begin() + i + take);
    const tsg::Status status = eval.Update(batch);
    if (!status.ok()) {
      std::fprintf(stderr, "[stream] update failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    // Live per-chunk reporting, matching the rescan loop's cadence.
    const auto snapshot = eval.SnapshotNow();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "[stream] snapshot failed: %s\n",
                   snapshot.status().ToString().c_str());
      std::exit(1);
    }
  }
  return watch.ElapsedSeconds();
}

double Median(std::vector<double> samples) {
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv,
                                         "bench_streaming [--metrics_out=<path>]")) {
    return 2;
  }
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();

  const Dataset reference(
      "ref", tsg::data::SineBenchmark(kReferenceSeries, kSeqLen, kFeatures,
                                      /*seed=*/41));
  const std::vector<Matrix> stream =
      tsg::data::SineBenchmark(kStreamSeries, kSeqLen, kFeatures, /*seed=*/42);

  tsg::streameval::StreamEvalOptions options;
  options.window = kWindow;
  std::unique_ptr<tsg::streameval::StreamEvaluator> eval;
  std::vector<double> stream_runs;
  std::vector<double> batch_runs;
  for (int run = 0; run < kRepeats; ++run) {
    auto eval_or = tsg::streameval::StreamEvaluator::Create(reference, options);
    if (!eval_or.ok()) {
      std::fprintf(stderr, "[stream] create failed: %s\n",
                   eval_or.status().ToString().c_str());
      return 1;
    }
    eval = std::move(eval_or).value();
    stream_runs.push_back(StreamingSeconds(*eval, stream));
    batch_runs.push_back(BatchRescanSeconds(reference, stream));
  }
  const double stream_seconds = Median(stream_runs);
  const double batch_seconds = Median(batch_runs);

  // Both paths must agree bit for bit before the timings mean anything.
  const tsg::Status exact = eval->VerifyExactAgainstBatch();
  if (!exact.ok()) {
    std::fprintf(stderr, "[stream] exactness check failed: %s\n",
                 exact.ToString().c_str());
    return 1;
  }

  const int64_t windows = eval->windows_completed();
  const int64_t snapshots = kStreamSeries / kChunk;
  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("reference_series").Int(kReferenceSeries);
  json.Key("stream_series").Int(kStreamSeries);
  json.Key("seq_len").Int(kSeqLen);
  json.Key("features").Int(kFeatures);
  json.Key("window").Int(kWindow);
  json.Key("chunk").Int(kChunk);
  json.Key("windows").Int(windows);
  json.Key("snapshots").Int(snapshots);
  json.Key("threads").Int(tsg::base::ThreadPool::Global().max_parallelism());
  json.Key("repeats").Int(kRepeats);
  json.Key("streaming_seconds").Number(stream_seconds);
  json.Key("batch_rescan_seconds").Number(batch_seconds);
  json.Key("streaming_seconds_per_snapshot").Number(stream_seconds / snapshots);
  json.Key("batch_seconds_per_snapshot").Number(batch_seconds / snapshots);
  json.Key("speedup").Number(batch_seconds / stream_seconds);
  json.Key("exact").Bool(true);
  json.Key("final_snapshot").BeginObject();
  for (const auto& [name, value] : eval->last_snapshot()) {
    json.Key(name).Number(value);
  }
  json.EndObject();
  json.EndObject();

  const std::string path = config.out_dir + "/micro_stream.json";
  const tsg::Status s = tsg::io::WriteFileAtomic(path, json.str() + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "[stream] write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[stream] %lld windows  streaming %.4fs  rescan %.4fs (medians "
               "of %d)  speedup %.2fx  wrote %s\n",
               static_cast<long long>(windows), stream_seconds, batch_seconds,
               kRepeats, batch_seconds / stream_seconds, path.c_str());
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
