#include "ml/matrix.h"

#include <cmath>

#include "common/check.h"
#include "common/fmath.h"
#include "ml/kernels.h"

namespace tasq {

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  // A wrapped buffer of the wrong size would alias out-of-bounds memory on
  // the first At(); fail at the construction site instead.
  TASQ_CHECK_EQ(data_.size(), rows_ * cols_);
}

Matrix Matrix::ColumnVector(std::vector<double> values) {
  size_t n = values.size();
  return Matrix(n, 1, std::move(values));
}

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  double limit = CheckedSqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) v = rng.Uniform(-limit, limit);
  return m;
}

void Matrix::SetZero() {
  for (double& v : data_) v = 0.0;
}

void Matrix::AddInPlace(const Matrix& other) {
  // Shape agreement is the op's contract; mismatched operands would read
  // past other.data_ rather than produce a wrong sum.
  TASQ_CHECK(SameShape(other));
  VecAddInPlace(data_.data(), other.data_.data(), data_.size());
}

void Matrix::AddScaledInPlace(const Matrix& other, double scale) {
  TASQ_CHECK(SameShape(other));
  VecAddScaledInPlace(data_.data(), other.data_.data(), scale, data_.size());
}

Matrix Matrix::MatMul(const Matrix& other) const {
  // Inner dimensions must agree or the k-loop walks off other's rows.
  TASQ_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  // The historical scalar path skipped exact-zero `a` operands; the
  // kernel multiplies through instead (o + 0.0*b == o bitwise for the
  // finite values this library trains on), keeping the k-unrolled loop
  // branch-free and vectorizable.
  MatMulAccum(out.data_.data(), data_.data(), other.data_.data(), rows_,
              cols_, other.cols_);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  }
  return out;
}

double Matrix::Sum() const {
  // Fixed-4-lane reduction (ml/kernels.h): deterministic bit-for-bit at
  // any vector width, vectorizable without FP reassociation. Lane order
  // differs from the old left-to-right sum, so the switch regenerated the
  // training goldens once (tests/golden, --update_golden).
  return VecSum(data_.data(), data_.size());
}

Matrix CsrMatrix::MatMul(const Matrix& dense) const {
  TASQ_CHECK_EQ(cols, dense.rows());
  TASQ_CHECK_EQ(row_begin.size(), rows + 1);
  size_t width = dense.cols();
  Matrix out(rows, width);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t e = row_begin[r]; e < row_begin[r + 1]; ++e) {
      VecAddScaledInPlace(out.Row(r), dense.Row(col_index[e]), values[e],
                          width);
    }
  }
  return out;
}

void CsrMatrix::TransposedMatMulAccum(const Matrix& dense, Matrix& out) const {
  TASQ_CHECK_EQ(rows, dense.rows());
  TASQ_CHECK_EQ(cols, out.rows());
  TASQ_CHECK_EQ(dense.cols(), out.cols());
  size_t width = dense.cols();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t e = row_begin[r]; e < row_begin[r + 1]; ++e) {
      VecAddScaledInPlace(out.Row(col_index[e]), dense.Row(r), values[e],
                          width);
    }
  }
}

}  // namespace tasq
