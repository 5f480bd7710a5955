// Zero-allocation contract for the training hot path: after one warm-up step
// inside StepScope, further identical steps must perform literally zero heap
// allocations — nodes and temporaries replay out of the tape arena, GEMM
// packing reuses thread-local buffers, metric handles are pointer-cached, and
// optimizer state was sized at construction. This test instruments the global
// allocator and holds steady-state steps to a count of zero.
//
// Runs serially (max parallelism 1): the contract is about the autodiff
// substrate, not about worker threads, and idle workers must not contribute
// noise. Shapes are small so the whole step stays on the calling thread.

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <execinfo.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "ag/tape.h"
#include "ag/variable.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "kernels/kernels.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/train.h"

namespace {

std::atomic<int64_t> g_alloc_count{0};
std::atomic<bool> g_trace_allocs{false};

int64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

/// Debug aid for when a steady-state assertion regresses: while armed, every
/// heap allocation dumps a raw backtrace to stderr (pipe through c++filt /
/// addr2line to see the offender).
void ArmAllocTrace(bool on) {
  g_trace_allocs.store(on, std::memory_order_relaxed);
}

void MaybeTrace() {
#if defined(__GLIBC__)
  if (g_trace_allocs.load(std::memory_order_relaxed)) {
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, STDERR_FILENO);
    const char nl = '\n';
    (void)!write(STDERR_FILENO, &nl, 1);
  }
#endif
}

void* CountedAlloc(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  MaybeTrace();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(size_t size, size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  MaybeTrace();
  // aligned_alloc requires size to be a multiple of the alignment.
  const size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsg {
namespace {

using ag::StepScope;
using ag::Var;
using linalg::Matrix;
using nn::GuardedStep;

class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base::ThreadPool::Global().SetMaxParallelism(1);
  }
  void TearDown() override { base::ThreadPool::Global().SetMaxParallelism(0); }
};

TEST_F(AllocTest, DenseTrainingStepIsAllocationFreeInSteadyState) {
  Rng rng(7);
  nn::Mlp net({6, 16, 16, 1}, rng, nn::Activation::kTanh);
  nn::Adam opt(net.Parameters(), 1e-3);
  Matrix input(8, 6);
  Matrix target(8, 1);
  rng.FillNormal(input.data(), input.size());
  rng.FillNormal(target.data(), target.size());

  auto one_step = [&](int step) {
    const StepScope scope;
    const Var x = Var::Constant(ag::ScratchCopy(input));
    const Var y = Var::Constant(ag::ScratchCopy(target));
    const Var loss = ag::MseLoss(net.Forward(x), y);
    return GuardedStep(opt, loss, 5.0, {"AllocTest", "dense", step});
  };

  // Warm-up: arena chunks, TLS pack buffers, metric handles, Backward's
  // traversal scratch, and parameter gradient buffers all materialize here.
  for (int step = 0; step < 3; ++step) ASSERT_TRUE(one_step(step).ok());

  const int64_t before = AllocCount();
  ArmAllocTrace(std::getenv("TSG_ALLOC_BACKTRACE") != nullptr);
  for (int step = 3; step < 6; ++step) ASSERT_TRUE(one_step(step).ok());
  ArmAllocTrace(false);
  EXPECT_EQ(AllocCount() - before, 0)
      << "steady-state Dense training step allocated";
}

TEST_F(AllocTest, GruTrainingStepIsAllocationFreeInSteadyState) {
  Rng rng(8);
  nn::GruCell cell(4, 12, rng);
  nn::Dense head(12, 4, rng, nn::Activation::kSigmoid);
  nn::Adam opt(nn::CollectParameters({&cell, &head}), 1e-3);
  constexpr int kSteps = 5;
  Matrix inputs[kSteps];
  Matrix target(6, 4);
  for (auto& m : inputs) {
    m = Matrix(6, 4);
    rng.FillNormal(m.data(), m.size());
  }
  rng.FillNormal(target.data(), target.size());

  auto one_step = [&](int step) {
    const StepScope scope;
    Var h = Var::Constant(ag::ScratchZero(6, 12));
    for (const Matrix& x_t : inputs) {
      h = cell.Forward(Var::Constant(ag::ScratchCopy(x_t)), h);
    }
    const Var loss =
        ag::MseLoss(head.Forward(h), Var::Constant(ag::ScratchCopy(target)));
    return GuardedStep(opt, loss, 5.0, {"AllocTest", "gru", step});
  };

  for (int step = 0; step < 3; ++step) ASSERT_TRUE(one_step(step).ok());

  const int64_t before = AllocCount();
  for (int step = 3; step < 6; ++step) ASSERT_TRUE(one_step(step).ok());
  EXPECT_EQ(AllocCount() - before, 0)
      << "steady-state GRU training step allocated";
}

TEST_F(AllocTest, LstmTrainingStepIsAllocationFreeInSteadyState) {
  Rng rng(9);
  nn::LstmCell cell(4, 10, rng);
  nn::Dense head(10, 4, rng);
  nn::Adam opt(nn::CollectParameters({&cell, &head}), 1e-3);
  constexpr int kSteps = 4;
  Matrix inputs[kSteps];
  Matrix target(5, 4);
  for (auto& m : inputs) {
    m = Matrix(5, 4);
    rng.FillNormal(m.data(), m.size());
  }
  rng.FillNormal(target.data(), target.size());

  auto one_step = [&](int step) {
    const StepScope scope;
    nn::LstmCell::State state{Var::Constant(ag::ScratchZero(5, 10)),
                              Var::Constant(ag::ScratchZero(5, 10))};
    for (const Matrix& x_t : inputs) {
      state = cell.Forward(Var::Constant(ag::ScratchCopy(x_t)), state);
    }
    const Var loss = ag::MseLoss(head.Forward(state.h),
                                 Var::Constant(ag::ScratchCopy(target)));
    return GuardedStep(opt, loss, 5.0, {"AllocTest", "lstm", step});
  };

  for (int step = 0; step < 3; ++step) ASSERT_TRUE(one_step(step).ok());

  const int64_t before = AllocCount();
  for (int step = 3; step < 6; ++step) ASSERT_TRUE(one_step(step).ok());
  EXPECT_EQ(AllocCount() - before, 0)
      << "steady-state LSTM training step allocated";
}

TEST_F(AllocTest, ArenaReportsNoSteadyStateGrowth) {
  Rng rng(10);
  nn::Mlp net({5, 8, 1}, rng, nn::Activation::kRelu);
  nn::Sgd opt(net.Parameters(), 1e-2);
  Matrix input(4, 5, 0.25);
  Matrix target(4, 1, 0.5);

  // The thread's tape is shared across tests, so the steady-state counter may
  // already be nonzero (earlier tests grew the arena after their own warm-up).
  // The contract here is relative: replaying *this* graph after its first step
  // must not grow chunks further.
  int64_t after_warmup = -1;
  for (int step = 0; step < 4; ++step) {
    const StepScope scope;
    const Var loss = ag::MseLoss(net.Forward(Var::Constant(ag::ScratchCopy(input))),
                                 Var::Constant(ag::ScratchCopy(target)));
    ASSERT_TRUE(GuardedStep(opt, loss, 5.0, {"AllocTest", "sgd", step}).ok());
    ASSERT_NE(ag::Tape::Active(), nullptr);
    if (step == 0) {
      after_warmup = ag::Tape::Active()->steady_state_chunk_allocs();
    } else {
      EXPECT_EQ(ag::Tape::Active()->steady_state_chunk_allocs(), after_warmup);
    }
  }
}

}  // namespace
}  // namespace tsg
