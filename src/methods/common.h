#ifndef TSG_METHODS_COMMON_H_
#define TSG_METHODS_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ag/ops.h"
#include "ag/tape.h"
#include "base/status.h"
#include "core/dataset.h"
#include "core/method.h"
#include "nn/optimizer.h"
#include "nn/train.h"

namespace tsg::methods {

using ag::Var;
using core::Dataset;
using core::FitOptions;
using linalg::Matrix;

// The training-step and batching helpers live in nn; methods use them unqualified.
using nn::GuardedStep;
using nn::MiniBatcher;
using nn::SequenceBatch;

/// Converts per-step network outputs (each (batch x N)) back into `batch` samples of
/// shape (l x N), clamped into the [0, 1] data range.
std::vector<Matrix> StepsToSamples(const std::vector<Var>& steps);

/// A sequence of i.i.d. Gaussian noise inputs, one (batch x dim) Var per step.
std::vector<Var> NoiseSequence(int64_t steps, int64_t batch, int64_t dim, Rng& rng);

/// ---- Batched generation plumbing ----
///
/// The GenerateBatch contract splits the RNG stream by request: request j's
/// series must be exactly what `Generate(requests[j].count, Rng(requests[j].seed))`
/// produces. The packed helpers below preserve that by construction: every noise
/// tensor stacks the requests' row blocks, and block j is always filled from
/// rngs[j] in the same draw order as the sequential path (row-major fills of a
/// row-major matrix, so a block fill consumes the identical normal stream).
/// Because every network forward is row-independent (GEMM rows, biases,
/// activations, concat/slice), the packed forward then reproduces each
/// request's bytes while paying one kernel launch per step instead of one per
/// request.

/// Sum of all requested counts.
int64_t TotalCount(const std::vector<core::GenRequest>& requests);

/// One freshly seeded Rng per request (the stream split).
std::vector<Rng> RequestRngs(const std::vector<core::GenRequest>& requests);

/// Packed ag::Randn: a (TotalCount x dim) constant whose row block j carries the
/// bytes of `ag::Randn(requests[j].count, dim, rngs[j], stddev)`.
Var PackedRandn(const std::vector<core::GenRequest>& requests, int64_t dim,
                std::vector<Rng>& rngs, double stddev = 1.0);

/// Packed NoiseSequence: one (TotalCount x dim) Var per step, each packed as
/// PackedRandn — per request the draw order matches NoiseSequence exactly.
std::vector<Var> PackedNoiseSequence(int64_t steps,
                                     const std::vector<core::GenRequest>& requests,
                                     int64_t dim, std::vector<Rng>& rngs);

/// Splits a packed sample list (TotalCount samples in request order) back into
/// one list per request.
std::vector<std::vector<Matrix>> SplitByRequest(
    std::vector<Matrix> samples, const std::vector<core::GenRequest>& requests);

/// ---- Snapshot plumbing ----
///
/// Methods persist their fitted state as scalar config tokens (dims and
/// architecture sizes, enough for Restore to rebuild the networks) plus the
/// tensor list in CollectParameters order; non-Var state (codebooks, priors)
/// appends after the trainable parameters.

/// Adds an integer config entry.
void PutConfig(core::MethodSnapshot* snap, const std::string& key, int64_t value);

/// Reads an integer config entry into `*out`; fails when absent or malformed.
Status GetConfig(const core::MethodSnapshot& snap, const char* method,
                 const std::string& key, int64_t* out);

/// Copies the parameter values into the snapshot's tensor list.
void AppendParams(core::MethodSnapshot* snap, const std::vector<Var>& params);

/// Assigns snap.params[start .. start + params.size()) into `params`. Every
/// shape is validated before any parameter is written, so a mismatch leaves the
/// model untouched. `start` skips tensors a method consumed separately.
Status AssignParams(const core::MethodSnapshot& snap, const char* method,
                    size_t start, const std::vector<Var>& params);

/// Requires exactly `expected` tensors in the snapshot.
Status CheckParamCount(const core::MethodSnapshot& snap, const char* method,
                       size_t expected);

/// FNV-1a digest of a method's hyperparameter spec string — the
/// HyperparameterDigest building block. The spec should name every constant
/// that shapes the architecture or training schedule, so editing one changes
/// the artifact-store key.
uint64_t HyperDigest(std::string_view spec);

/// Effective epoch count: base scaled by FitOptions::epoch_scale, at least 1.
int ResolveEpochs(int base_epochs, const FitOptions& options);

}  // namespace tsg::methods

#endif  // TSG_METHODS_COMMON_H_
