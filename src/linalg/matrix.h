#ifndef TSG_LINALG_MATRIX_H_
#define TSG_LINALG_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"

namespace tsg::linalg {

/// Dense row-major matrix of doubles. This is the single numeric container shared by
/// the autodiff engine, the neural-network layers, and the evaluation measures. The
/// benchmark's tensors are small (batch x hidden on the order of 128 x 128); the
/// multiply paths delegate to the in-repo kernel layer (src/kernels) rather than a
/// vendor BLAS so the determinism contract stays under our control.
///
/// Storage is a 64-byte-aligned heap buffer — or, for training-step temporaries, a
/// *borrowed* buffer bump-allocated from the autodiff tape's base::Arena
/// (Matrix::Borrowed). Borrowed matrices never free their storage; the arena reclaims
/// it wholesale at step-scope reset. Copies are always owning (deep), so a borrowed
/// matrix that must outlive the step is detached by copying it.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols) : Matrix(rows, cols, 0.0) {}
  Matrix(int64_t rows, int64_t cols, double fill)
      : rows_(rows), cols_(cols), data_(HeapAlloc(rows * cols)) {
    std::fill_n(data_, size(), fill);
  }
  /// Builds from nested braces: Matrix m = {{1, 2}, {3, 4}};
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  ~Matrix() { Release(); }

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(HeapAlloc(other.size())) {
    std::copy_n(other.data_, other.size(), data_);
  }
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::exchange(other.data_, nullptr)),
        borrowed_(std::exchange(other.borrowed_, false)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      Release();
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::exchange(other.data_, nullptr);
      borrowed_ = std::exchange(other.borrowed_, false);
    }
    return *this;
  }

  static Matrix Constant(int64_t rows, int64_t cols, double v) {
    return Matrix(rows, cols, v);
  }
  static Matrix Identity(int64_t n);
  /// Owning but *uninitialized* storage — for outputs that are fully overwritten.
  static Matrix Uninit(int64_t rows, int64_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = HeapAlloc(rows * cols);
    return m;
  }
  /// Non-owning view over `buf` (rows*cols doubles, uninitialized). The caller —
  /// in practice the autodiff tape's arena — owns the storage and must keep it
  /// alive for the matrix's lifetime. The destructor is a no-op for the buffer.
  static Matrix Borrowed(int64_t rows, int64_t cols, double* buf) {
    TSG_CHECK(buf != nullptr || rows * cols == 0);
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = buf;
    m.borrowed_ = true;
    return m;
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  /// True when the storage is arena-owned (see Borrowed).
  bool borrowed() const { return borrowed_; }

  double& operator()(int64_t i, int64_t j) {
    TSG_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_)
        << "index (" << i << "," << j << ") in " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }
  double operator()(int64_t i, int64_t j) const {
    TSG_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_)
        << "index (" << i << "," << j << ") in " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }
  /// Flat element access (row-major order).
  double& operator[](int64_t k) { return data_[k]; }
  double operator[](int64_t k) const { return data_[k]; }

  double* data() { return data_; }
  const double* data() const { return data_; }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// In-place scaling / addition used by optimizers and accumulators.
  Matrix& operator*=(double s);
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  void Fill(double v) { std::fill_n(data_, size(), v); }
  void SetZero() { Fill(0.0); }

  Matrix Transpose() const;
  /// Extracts row i as a 1 x cols matrix.
  Matrix Row(int64_t i) const;
  /// Extracts column j as a rows x 1 matrix.
  Matrix Col(int64_t j) const;
  /// Contiguous block copy.
  Matrix Block(int64_t row0, int64_t col0, int64_t nrows, int64_t ncols) const;
  /// Writes `block` into this matrix at (row0, col0).
  void SetBlock(int64_t row0, int64_t col0, const Matrix& block);

  double Sum() const;
  double Mean() const { return size() == 0 ? 0.0 : Sum() / static_cast<double>(size()); }
  double MaxAbs() const;
  /// Frobenius norm.
  double Norm() const;

 private:
  static constexpr size_t kAlignment = 64;

  static double* HeapAlloc(int64_t count) {
    TSG_CHECK_GE(count, 0);
    if (count == 0) return nullptr;
    return static_cast<double*>(::operator new(
        static_cast<size_t>(count) * sizeof(double), std::align_val_t{kAlignment}));
  }
  void Release() {
    if (data_ != nullptr && !borrowed_) {
      ::operator delete(data_, std::align_val_t{kAlignment});
    }
    data_ = nullptr;
  }

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  double* data_ = nullptr;
  bool borrowed_ = false;
};

/// out = a * b. Shapes must agree; result is (a.rows x b.cols). Backed by
/// kernels::Gemm: vectorized, threaded above ~64^3 multiply-adds, bit-identical
/// across thread counts and between the SIMD and scalar backends (DESIGN.md §6).
Matrix MatMul(const Matrix& a, const Matrix& b);
/// out = a^T * b without materializing the transpose; bit-identical to
/// MatMul(a.Transpose(), b).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// out = a * b^T without materializing the transpose (row-row dot products).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, double s);
Matrix operator*(double s, const Matrix& a);

/// Mean of each column -> 1 x cols.
Matrix ColMean(const Matrix& a);
/// Sample covariance of rows (each row is an observation) -> cols x cols.
Matrix RowCovariance(const Matrix& a);

/// True when all elements differ by at most `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol = 1e-9);

/// True when every element is finite (no NaN/Inf).
bool AllFinite(const Matrix& a);

}  // namespace tsg::linalg

#endif  // TSG_LINALG_MATRIX_H_
