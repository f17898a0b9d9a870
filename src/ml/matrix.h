#ifndef TASQ_ML_MATRIX_H_
#define TASQ_ML_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace tasq {

/// A dense row-major matrix of doubles — the value type of the autograd
/// engine. Sized for this library's models (feature batches of thousands of
/// rows, layers of tens of units): simple loops, no BLAS.
///
/// Layout contract (batch-major): storage is one contiguous
/// rows x cols span; row r occupies [r*cols, (r+1)*cols). A batch of
/// examples is stored one example per row, so every per-example kernel
/// pass (matmul row update, bias broadcast, activation) walks memory with
/// unit stride. The arithmetic lives in the __restrict raw-span kernels
/// of ml/kernels.h, whose TASQ_VEC loops are machine-checked against the
/// compiler's vectorizer report (scripts/tasq_check.py vec).
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;

  /// A rows x cols matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// A rows x cols matrix wrapping `data` (size must match).
  Matrix(size_t rows, size_t cols, std::vector<double> data);

  /// A values.size() x 1 column vector.
  static Matrix ColumnVector(std::vector<double> values);

  /// Glorot/Xavier-uniform initialization for a weight matrix.
  static Matrix GlorotUniform(size_t rows, size_t cols, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& At(size_t r, size_t c) {
    // Bounds are debug-only: At() sits in every training inner loop.
    TASQ_DCHECK_LT(r, rows_);
    TASQ_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    TASQ_DCHECK_LT(r, rows_);
    TASQ_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Contiguous raw span of row `r` (cols() doubles) — the handle the
  /// batch-major kernels take. Valid only while the shape is unchanged.
  double* Row(size_t r) {
    TASQ_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    TASQ_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Reshapes to rows x cols, reusing the existing storage when its
  /// capacity allows (contents are unspecified afterwards). Scratch
  /// matrices on the serving path Resize per batch and stop allocating
  /// once warm.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every element to zero.
  void SetZero();

  /// this += other (shapes must match).
  void AddInPlace(const Matrix& other);

  /// this += scale * other (shapes must match).
  void AddScaledInPlace(const Matrix& other, double scale);

  /// Returns this * other (inner dimensions must agree).
  Matrix MatMul(const Matrix& other) const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Sum of all elements, computed with the fixed-4-lane deterministic
  /// reduction (ml/kernels.h VecSum): lanes fold strided quarters, then
  /// combine as (l0+l1)+(l2+l3), tail left-to-right. Identical bits on
  /// every machine; for n < 4 it degenerates to the plain sequential sum.
  double Sum() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// A sparse matrix in compressed sparse row form: row r holds the entries
/// (col_index[e], values[e]) for e in [row_begin[r], row_begin[r + 1]),
/// with columns ascending. The GNN stores a mini-batch's block-diagonal
/// normalized adjacency this way (gnn/gnn_model.cc).
struct CsrMatrix {
  size_t rows = 0;
  size_t cols = 0;
  /// rows + 1 offsets into col_index / values.
  std::vector<size_t> row_begin = {0};
  std::vector<size_t> col_index;
  std::vector<double> values;

  /// Returns this * dense. Each output element adds its row's products in
  /// ascending column order, starting from zero: the order Matrix::MatMul
  /// uses on the dense matrix, minus the exact-zero entries, which add
  /// nothing. So a CSR of a dense matrix's non-zeros reproduces the dense
  /// product bit for bit on finite operands.
  Matrix MatMul(const Matrix& dense) const;

  /// out += thisᵀ * dense (a scatter over the stored entries).
  void TransposedMatMulAccum(const Matrix& dense, Matrix& out) const;
};

}  // namespace tasq

#endif  // TASQ_ML_MATRIX_H_
