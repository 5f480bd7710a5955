#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"

namespace tsg::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int64_t>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int64_t>(rows.begin()->size());
  data_ = HeapAlloc(rows_ * cols_);
  double* dst = data_;
  for (const auto& row : rows) {
    TSG_CHECK_EQ(static_cast<int64_t>(row.size()), cols_) << "ragged initializer";
    dst = std::copy(row.begin(), row.end(), dst);
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  // Reuse the existing buffer (heap or borrowed) when the element count matches;
  // otherwise fall back to a fresh owning allocation.
  if (size() != other.size()) {
    Release();
    borrowed_ = false;
    data_ = HeapAlloc(other.size());
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  std::copy_n(other.data_, other.size(), data_);
  return *this;
}

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator*=(double s) {
  kernels::Scale(size(), s, data_);
  return *this;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  TSG_CHECK(SameShape(other)) << rows_ << "x" << cols_ << " += " << other.rows_ << "x"
                              << other.cols_;
  kernels::Axpy(size(), 1.0, other.data_, data_);
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  TSG_CHECK(SameShape(other));
  kernels::Axpy(size(), -1.0, other.data_, data_);
  return *this;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  // Blocked raw-pointer sweep: both the source row and the destination columns of a
  // 32x32 tile stay cache-resident, unlike the naive checked element loop.
  constexpr int64_t kBlock = 32;
  const double* src = data_;
  double* dst = t.data();
  for (int64_t i0 = 0; i0 < rows_; i0 += kBlock) {
    const int64_t i1 = std::min(rows_, i0 + kBlock);
    for (int64_t j0 = 0; j0 < cols_; j0 += kBlock) {
      const int64_t j1 = std::min(cols_, j0 + kBlock);
      for (int64_t i = i0; i < i1; ++i) {
        const double* src_row = src + i * cols_;
        for (int64_t j = j0; j < j1; ++j) dst[j * rows_ + i] = src_row[j];
      }
    }
  }
  return t;
}

Matrix Matrix::Row(int64_t i) const { return Block(i, 0, 1, cols_); }

Matrix Matrix::Col(int64_t j) const { return Block(0, j, rows_, 1); }

Matrix Matrix::Block(int64_t row0, int64_t col0, int64_t nrows, int64_t ncols) const {
  TSG_CHECK(row0 >= 0 && col0 >= 0 && row0 + nrows <= rows_ && col0 + ncols <= cols_)
      << "block (" << row0 << "," << col0 << "," << nrows << "," << ncols << ") of "
      << rows_ << "x" << cols_;
  Matrix out(nrows, ncols);
  for (int64_t i = 0; i < nrows; ++i) {
    const double* src = data_ + (row0 + i) * cols_ + col0;
    std::copy(src, src + ncols, out.data() + i * ncols);
  }
  return out;
}

void Matrix::SetBlock(int64_t row0, int64_t col0, const Matrix& block) {
  TSG_CHECK(row0 >= 0 && col0 >= 0 && row0 + block.rows() <= rows_ &&
            col0 + block.cols() <= cols_);
  const int64_t ncols = block.cols();
  for (int64_t i = 0; i < block.rows(); ++i) {
    const double* src = block.data() + i * ncols;
    std::copy(src, src + ncols, data_ + (row0 + i) * cols_ + col0);
  }
}

double Matrix::Sum() const {
  double s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i];
  return s;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (int64_t i = 0; i < size(); ++i) m = std::max(m, std::fabs(data_[i]));
  return m;
}

double Matrix::Norm() const {
  double s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i] * data_[i];
  return std::sqrt(s);
}

// The MatMul* family delegates to the kernel layer (kernels::Gemm*): packed,
// register-tiled, vectorized, and threaded internally. Matrix construction
// zero-fills the output, which the accumulating (C += A*B) kernels rely on.
// The kernels' ordering contract keeps results bit-identical for any thread
// count and between SIMD and scalar builds — see DESIGN.md §6.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  TSG_CHECK_EQ(a.cols(), b.rows()) << "matmul " << a.rows() << "x" << a.cols() << " * "
                                   << b.rows() << "x" << b.cols();
  Matrix out(a.rows(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  kernels::Gemm(m, n, k, a.data(), k, b.data(), n, out.data(), n);
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  TSG_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  // a is read down column i (stride m) inside the kernel — a^T is never built.
  kernels::GemmTransA(m, n, k, a.data(), m, b.data(), n, out.data(), n);
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  TSG_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  kernels::GemmTransB(m, n, k, a.data(), k, b.data(), k, out.data(), n);
  return out;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(const Matrix& a, double s) {
  Matrix out = a;
  out *= s;
  return out;
}

Matrix operator*(double s, const Matrix& a) { return a * s; }

Matrix ColMean(const Matrix& a) {
  Matrix out(1, a.cols());
  if (a.rows() == 0) return out;
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < a.cols(); ++j) out(0, j) += a(i, j);
  out *= 1.0 / static_cast<double>(a.rows());
  return out;
}

Matrix RowCovariance(const Matrix& a) {
  const int64_t n = a.rows(), d = a.cols();
  Matrix cov(d, d);
  if (n < 2) return cov;
  const Matrix mean = ColMean(a);
  Matrix centered = a;
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < d; ++j) centered(i, j) -= mean(0, j);
  cov = MatMulTransA(centered, centered);
  cov *= 1.0 / static_cast<double>(n - 1);
  return cov;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

bool AllFinite(const Matrix& a) {
  for (int64_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) return false;
  }
  return true;
}

}  // namespace tsg::linalg
