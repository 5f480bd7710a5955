// Micro-benchmarks (google-benchmark) for the substrates the paper's experiments
// stand on: dense kernels, autodiff step cost, recurrent cells, FFT, the distance
// measures, and one full training step per representative TSG method. These are the
// numbers behind the Figure 5 training-time row.
//
// In addition to the gbench suite, main() times the three parallelized hot paths
// (GEMM, per-pair DTW, the full measure suite) at 1 thread and at hardware
// concurrency and writes the timings to <out_dir>/micro_parallel.json, then times
// the kernel layer against its pre-kernel baselines (naive GEMM, scalar backend)
// and writes per-kernel GFLOP/s to <out_dir>/micro_kernels.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ag/ops.h"
#include "base/rng.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "core/dataset.h"
#include "core/harness.h"
#include "core/method.h"
#include "data/simulators.h"
#include "distance/distance.h"
#include "embed/tsne.h"
#include "io/atomic_file.h"
#include "io/json.h"
#include "kernels/kernels.h"
#include "linalg/decomp.h"
#include "linalg/matrix.h"
#include "methods/factory.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "signal/fft.h"

namespace {

using tsg::Rng;
using tsg::linalg::Matrix;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Forces the global pool to state.range(0)-way execution for one benchmark run.
/// Registered at Arg(1) and Arg(hardware_concurrency) so `benchmark_filter=Parallel`
/// shows the thread-scaling of each wired path directly.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int n) {
    tsg::base::ThreadPool::Global().SetMaxParallelism(n);
  }
  ~ScopedParallelism() { tsg::base::ThreadPool::Global().SetMaxParallelism(0); }
};

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  rng.FillNormal(m.data(), m.size());
  return m;
}

/// The pre-kernel-layer GEMM inner loop (the PR 1 linalg::MatMul body, run
/// serially): the baseline the kernel layer's >= 2x GFLOP/s criterion is
/// measured against in micro_kernels.json.
void NaiveGemmBaseline(const Matrix& a, const Matrix& b, Matrix* out) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  out->SetZero();
  for (int64_t i = 0; i < m; ++i) {
    double* out_row = out->data() + i * n;
    const double* a_row = a.data() + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const double aip = a_row[p];
      if (aip == 0.0) continue;
      const double* b_row = b.data() + p * n;
      for (int64_t j = 0; j < n; ++j) out_row[j] += aip * b_row[j];
    }
  }
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmKernel(benchmark::State& state) {
  ScopedParallelism scoped(1);
  const int64_t n = state.range(0);
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix out(n, n);
  for (auto _ : state) {
    out.SetZero();
    tsg::kernels::Gemm(n, n, n, a.data(), n, b.data(), n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(tsg::kernels::BackendName());
}
BENCHMARK(BM_GemmKernel)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix out(n, n);
  for (auto _ : state) {
    NaiveGemmBaseline(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_SymmetricEigen(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomMatrix(n, n, 3);
  const Matrix spd = tsg::linalg::MatMulTransA(a, a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::linalg::SymmetricEigen(spd));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(32);

void BM_Fft(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  std::vector<tsg::signal::Complex> x(static_cast<size_t>(n));
  for (auto& v : x) v = tsg::signal::Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    auto copy = x;
    tsg::signal::Fft(copy, false);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(125)->Arg(192);

void BM_GruCellStep(benchmark::State& state) {
  const int64_t batch = 32, n = 8, hidden = state.range(0);
  Rng rng(5);
  tsg::nn::GruCell cell(n, hidden, rng);
  const tsg::ag::Var x = tsg::ag::Var::Constant(RandomMatrix(batch, n, 6));
  for (auto _ : state) {
    tsg::ag::Var h = cell.InitialState(batch);
    benchmark::DoNotOptimize(cell.Forward(x, h));
  }
}
BENCHMARK(BM_GruCellStep)->Arg(16)->Arg(32);

void BM_AutodiffTrainingStep(benchmark::State& state) {
  // One forward+backward+Adam step of a 2-layer GRU over a 24-step sequence.
  Rng rng(7);
  tsg::nn::GruStack stack(6, 24, 2, rng);
  tsg::nn::Dense head(24, 6, rng);
  tsg::nn::Adam opt(tsg::nn::CollectParameters({&stack, &head}), 1e-3);
  std::vector<tsg::ag::Var> steps;
  for (int t = 0; t < 24; ++t) {
    steps.push_back(tsg::ag::Var::Constant(RandomMatrix(32, 6, 100 + t)));
  }
  for (auto _ : state) {
    opt.ZeroGrad();
    const auto outs = stack.Forward(steps);
    tsg::ag::Var loss = tsg::ag::MseLoss(head.Forward(outs.back()), steps[0]);
    tsg::ag::Backward(loss);
    opt.Step();
  }
}
BENCHMARK(BM_AutodiffTrainingStep);

void BM_Dtw(benchmark::State& state) {
  const int64_t l = state.range(0);
  const Matrix a = RandomMatrix(l, 6, 8);
  const Matrix b = RandomMatrix(l, 6, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::distance::DtwDistance(a, b));
  }
}
BENCHMARK(BM_Dtw)->Arg(24)->Arg(125)->Arg(192);

void BM_EuclideanDistance(benchmark::State& state) {
  const Matrix a = RandomMatrix(192, 11, 10);
  const Matrix b = RandomMatrix(192, 11, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::distance::EuclideanDistance(a, b));
  }
}
BENCHMARK(BM_EuclideanDistance);

void BM_FrechetDistance(benchmark::State& state) {
  const Matrix a = RandomMatrix(256, 16, 12);
  const Matrix b = RandomMatrix(256, 16, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::distance::FrechetDistance(a, b));
  }
}
BENCHMARK(BM_FrechetDistance);

void BM_Tsne(benchmark::State& state) {
  const Matrix data = RandomMatrix(80, 32, 14);
  tsg::embed::TsneOptions options;
  options.iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::embed::Tsne(data, options));
  }
}
BENCHMARK(BM_Tsne);

/// One abbreviated Fit per method on a tiny dataset: the relative cost ordering is
/// the Figure 5 training-time story (VAE/SSM fast, GANs slower, GT-GAN slowest).
void BM_MethodFit(benchmark::State& state, const std::string& name) {
  const tsg::core::Dataset train(
      "micro", tsg::data::SineBenchmark(32, 16, 3, /*seed=*/21));
  tsg::core::FitOptions options;
  options.epoch_scale = 0.05;
  options.batch_size = 16;
  for (auto _ : state) {
    auto method = tsg::methods::CreateMethod(name);
    benchmark::DoNotOptimize(method.value()->Fit(train, options));
  }
}
BENCHMARK_CAPTURE(BM_MethodFit, RGAN, std::string("RGAN"));
BENCHMARK_CAPTURE(BM_MethodFit, TimeGAN, std::string("TimeGAN"));
BENCHMARK_CAPTURE(BM_MethodFit, TimeVAE, std::string("TimeVAE"));
BENCHMARK_CAPTURE(BM_MethodFit, LS4, std::string("LS4"));
BENCHMARK_CAPTURE(BM_MethodFit, FourierFlow, std::string("FourierFlow"));
BENCHMARK_CAPTURE(BM_MethodFit, GT_GAN, std::string("GT-GAN"));

void BM_MatMulParallel(benchmark::State& state) {
  ScopedParallelism scoped(static_cast<int>(state.range(0)));
  const Matrix a = RandomMatrix(192, 192, 15);
  const Matrix b = RandomMatrix(192, 192, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsg::linalg::MatMul(a, b));
  }
}
BENCHMARK(BM_MatMulParallel)->Arg(1)->Arg(HardwareThreads());

void BM_DtwPairsParallel(benchmark::State& state) {
  ScopedParallelism scoped(static_cast<int>(state.range(0)));
  // The DTW measure's inner loop: one warped distance per (real, generated) pair.
  std::vector<Matrix> real, gen;
  for (int i = 0; i < 16; ++i) {
    real.push_back(RandomMatrix(96, 4, 200 + i));
    gen.push_back(RandomMatrix(96, 4, 300 + i));
  }
  for (auto _ : state) {
    const double total = tsg::base::ParallelSum(16, 1, [&](int64_t i) {
      return tsg::distance::DtwIndependent(real[static_cast<size_t>(i)],
                                           gen[static_cast<size_t>(i)]);
    });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DtwPairsParallel)->Arg(1)->Arg(HardwareThreads());

void BM_MeasureSuiteParallel(benchmark::State& state) {
  ScopedParallelism scoped(static_cast<int>(state.range(0)));
  const tsg::core::Dataset real("r", tsg::data::SineBenchmark(24, 16, 2, 41));
  const tsg::core::Dataset test("t", tsg::data::SineBenchmark(8, 16, 2, 42));
  const tsg::core::Dataset gen("g", tsg::data::SineBenchmark(24, 16, 2, 43));
  tsg::core::HarnessOptions options;
  options.stochastic_repeats = 2;
  options.embedder.epochs = 2;
  tsg::core::Harness harness(options);
  harness.EvaluateGenerated(real, test, gen, "micro");  // Warm the embedder cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.EvaluateGenerated(real, test, gen, "micro"));
  }
}
BENCHMARK(BM_MeasureSuiteParallel)->Arg(1)->Arg(HardwareThreads());

/// Best-of-`reps` wall time for `fn` at the given pool width.
double MinSeconds(int parallelism, int reps, const std::function<void()>& fn) {
  ScopedParallelism scoped(parallelism);
  fn();  // Warm-up.
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    tsg::Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Times the parallelized hot paths at 1 thread vs hardware concurrency and writes
/// <out_dir>/micro_parallel.json (the ISSUE acceptance artifact for the >= 1.5x
/// measure-suite speedup criterion on multi-core hosts).
void WriteParallelTimings() {
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const int hw = HardwareThreads();

  const Matrix ga = RandomMatrix(192, 192, 15);
  const Matrix gb = RandomMatrix(192, 192, 16);
  std::vector<Matrix> real, gen;
  for (int i = 0; i < 16; ++i) {
    real.push_back(RandomMatrix(96, 4, 200 + i));
    gen.push_back(RandomMatrix(96, 4, 300 + i));
  }
  const tsg::core::Dataset suite_real("r", tsg::data::SineBenchmark(24, 16, 2, 41));
  const tsg::core::Dataset suite_test("t", tsg::data::SineBenchmark(8, 16, 2, 42));
  const tsg::core::Dataset suite_gen("g", tsg::data::SineBenchmark(24, 16, 2, 43));
  tsg::core::HarnessOptions options;
  options.stochastic_repeats = 2;
  options.embedder.epochs = 2;
  tsg::core::Harness harness(options);
  harness.EvaluateGenerated(suite_real, suite_test, suite_gen, "micro");

  struct Case {
    std::string name;
    std::function<void()> fn;
  };
  const std::vector<Case> cases = {
      {"gemm_192", [&] { benchmark::DoNotOptimize(tsg::linalg::MatMul(ga, gb)); }},
      {"dtw_pairs_16",
       [&] {
         const double total = tsg::base::ParallelSum(16, 1, [&](int64_t i) {
           return tsg::distance::DtwIndependent(real[static_cast<size_t>(i)],
                                                gen[static_cast<size_t>(i)]);
         });
         benchmark::DoNotOptimize(total);
       }},
      {"measure_suite",
       [&] {
         benchmark::DoNotOptimize(
             harness.EvaluateGenerated(suite_real, suite_test, suite_gen, "micro"));
       }},
  };

  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("hardware_concurrency").Int(hw);
  json.Key("results").BeginArray();
  for (const Case& c : cases) {
    const double t1 = MinSeconds(1, 3, c.fn);
    const double thw = MinSeconds(hw, 3, c.fn);
    json.BeginObject();
    json.Key("name").String(c.name);
    json.Key("threads").Int(1);
    json.Key("seconds").Number(t1);
    json.EndObject();
    json.BeginObject();
    json.Key("name").String(c.name);
    json.Key("threads").Int(hw);
    json.Key("seconds").Number(thw);
    json.Key("speedup_vs_1").Number(t1 / thw);
    json.EndObject();
    std::fprintf(stderr, "[micro] %-14s 1t %.4fs  %dt %.4fs  speedup %.2fx\n",
                 c.name.c_str(), t1, hw, thw, t1 / thw);
  }
  json.EndArray();
  json.EndObject();
  const std::string path = config.out_dir + "/micro_parallel.json";
  const tsg::Status s = tsg::io::WriteFileAtomic(path, json.str() + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "[micro] write failed: %s\n", s.ToString().c_str());
  } else {
    std::fprintf(stderr, "[micro] wrote %s\n", path.c_str());
  }
}

/// Times each kernel against its pre-kernel-layer baseline at 1 thread and
/// writes <out_dir>/micro_kernels.json: per-shape GEMM GFLOP/s for the naive
/// loop, the scalar kernel backend, and the active backend (the scalar-vs-SIMD
/// comparison), plus dot/sqdist throughput. `speedup_vs_naive` on the GEMM rows
/// is the ISSUE acceptance number (>= 2x on at least one shape).
void WriteKernelTimings() {
  namespace kernels = tsg::kernels;
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();

  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("simd_enabled").Bool(kernels::SimdCompiled());
  json.Key("backend").String(kernels::BackendName());

  json.Key("gemm").BeginArray();
  for (const int64_t n : {int64_t{64}, int64_t{128}, int64_t{256}, int64_t{384}}) {
    const Matrix a = RandomMatrix(n, n, 400 + n);
    const Matrix b = RandomMatrix(n, n, 500 + n);
    Matrix out(n, n);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    const double t_naive = MinSeconds(1, 5, [&] {
      NaiveGemmBaseline(a, b, &out);
      benchmark::DoNotOptimize(out.data());
    });
    const double t_scalar = MinSeconds(1, 5, [&] {
      out.SetZero();
      kernels::scalar::Gemm(n, n, n, a.data(), n, b.data(), n, out.data(), n);
      benchmark::DoNotOptimize(out.data());
    });
    const double t_active = MinSeconds(1, 5, [&] {
      out.SetZero();
      kernels::Gemm(n, n, n, a.data(), n, b.data(), n, out.data(), n);
      benchmark::DoNotOptimize(out.data());
    });
    json.BeginObject();
    json.Key("shape").Int(static_cast<int>(n));
    json.Key("naive_gflops").Number(flops / t_naive / 1e9);
    json.Key("scalar_kernel_gflops").Number(flops / t_scalar / 1e9);
    json.Key("active_kernel_gflops").Number(flops / t_active / 1e9);
    json.Key("speedup_vs_naive").Number(t_naive / t_active);
    json.Key("simd_speedup_vs_scalar_kernel").Number(t_scalar / t_active);
    json.EndObject();
    std::fprintf(stderr,
                 "[micro] gemm_%-4lld naive %6.2f  scalar %6.2f  %s %6.2f GFLOP/s"
                 "  (%.2fx vs naive)\n",
                 static_cast<long long>(n), flops / t_naive / 1e9,
                 flops / t_scalar / 1e9, kernels::BackendName(),
                 flops / t_active / 1e9, t_naive / t_active);
  }
  json.EndArray();

  // Streaming primitives: repeat the call enough times per sample to be
  // measurable at microsecond resolution.
  const int64_t kVecLen = 4096;
  const int kVecReps = 2048;
  const Matrix va = RandomMatrix(1, kVecLen, 600);
  const Matrix vb = RandomMatrix(1, kVecLen, 601);
  json.Key("primitives").BeginArray();
  {
    const double t = MinSeconds(1, 5, [&] {
      double s = 0.0;
      for (int r = 0; r < kVecReps; ++r)
        s += kernels::Dot(va.data(), vb.data(), kVecLen);
      benchmark::DoNotOptimize(s);
    });
    json.BeginObject();
    json.Key("name").String("dot_4096");
    json.Key("gflops").Number(2.0 * kVecLen * kVecReps / t / 1e9);
    json.EndObject();
  }
  {
    const double t = MinSeconds(1, 5, [&] {
      double s = 0.0;
      for (int r = 0; r < kVecReps; ++r)
        s += kernels::SquaredDistance(va.data(), vb.data(), kVecLen);
      benchmark::DoNotOptimize(s);
    });
    json.BeginObject();
    json.Key("name").String("sqdist_4096");
    json.Key("gflops").Number(3.0 * kVecLen * kVecReps / t / 1e9);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const std::string path = config.out_dir + "/micro_kernels.json";
  const tsg::Status s = tsg::io::WriteFileAtomic(path, json.str() + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "[micro] write failed: %s\n", s.ToString().c_str());
  } else {
    std::fprintf(stderr, "[micro] wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteParallelTimings();
  WriteKernelTimings();
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
