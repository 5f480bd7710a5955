#include "nn/serialize.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace tsg::nn {

namespace {

constexpr char kMagic[] = "TSGPARAMS v1";

/// Upper bound on one tensor dimension accepted from a file. Real model tensors
/// are tiny (hundreds of rows); this only has to stop a corrupt header from
/// requesting a multi-gigabyte staging allocation before the value parse fails.
constexpr int64_t kMaxDim = int64_t{1} << 24;

}  // namespace

std::string SerializeTensors(const std::vector<linalg::Matrix>& tensors) {
  std::ostringstream out;
  out << kMagic << "\n" << tensors.size() << "\n";
  for (const linalg::Matrix& value : tensors) {
    out << value.rows() << " " << value.cols() << "\n";
    for (int64_t i = 0; i < value.size(); ++i) {
      // Hex float round-trips exactly.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%a", value[i]);
      out << buf << (i + 1 == value.size() ? "\n" : " ");
    }
    if (value.size() == 0) out << "\n";
  }
  return out.str();
}

StatusOr<std::vector<linalg::Matrix>> ParseTensors(const std::string& content,
                                                   const std::string& origin) {
  std::istringstream in(content);
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) return Status::InvalidArgument("bad magic in " + origin);
  size_t count = 0;
  if (!(in >> count)) {
    return Status::InvalidArgument("truncated header in " + origin);
  }
  std::vector<linalg::Matrix> tensors;
  tensors.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    int64_t rows = 0, cols = 0;
    if (!(in >> rows >> cols)) {
      return Status::InvalidArgument("truncated tensor header in " + origin);
    }
    if (rows < 0 || cols < 0 || rows > kMaxDim || cols > kMaxDim) {
      return Status::InvalidArgument("implausible tensor shape " +
                                     std::to_string(rows) + "x" +
                                     std::to_string(cols) + " in " + origin);
    }
    linalg::Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      std::string token;
      if (!(in >> token)) {
        return Status::InvalidArgument("truncated values in " + origin);
      }
      char* end = nullptr;
      m[i] = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad value '" + token + "' in " + origin);
      }
    }
    tensors.push_back(std::move(m));
  }
  // A well-formed blob ends after the declared tensors; anything else means a
  // concatenated, doubled, or garbage-appended file and must not load.
  char c = 0;
  while (in.get(c)) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("trailing bytes after " +
                                     std::to_string(count) + " tensors in " +
                                     origin);
    }
  }
  return tensors;
}

}  // namespace tsg::nn
