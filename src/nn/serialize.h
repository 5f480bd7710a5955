#ifndef TSG_NN_SERIALIZE_H_
#define TSG_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "linalg/matrix.h"

namespace tsg::nn {

/// Tensor persistence: fitting a TSG method on a large dataset can dominate a
/// workflow (Figure 5's training-time row), so trained weights can be saved and
/// restored. The format is a small text header (magic, parameter count, per-tensor
/// shape) followed by the flat values; it round-trips bit-exactly via hex doubles.
/// It is the payload of the artifact store's TSGMODEL container
/// (store/artifact_store.h), the one model file format.

/// Renders `tensors` in the TSGPARAMS v1 text format. Deterministic: the same
/// tensors always produce the same bytes.
std::string SerializeTensors(const std::vector<linalg::Matrix>& tensors);

/// Parses a TSGPARAMS v1 blob back into tensors. Strict: fails on bad magic,
/// truncation, malformed values, implausible shapes, and — unlike a plain stream
/// read — on any non-whitespace bytes after the declared tensors, so concatenated
/// or trailing-garbage corruption cannot load "successfully". `origin` names the
/// blob in error messages (a path, or an artifact key).
StatusOr<std::vector<linalg::Matrix>> ParseTensors(const std::string& content,
                                                   const std::string& origin);

}  // namespace tsg::nn

#endif  // TSG_NN_SERIALIZE_H_
