#include "ml/kernels.h"

#include "common/hot.h"

namespace tasq {

// Every TASQ_VEC loop below is verified vectorized by tasq_check.py vec
// against the compiler's own report (cmake -DTASQ_VEC_REPORT=ON). Keep
// the bodies call-free and unit-stride; the annotation is a contract, not
// a hint.

void VecAddInPlace(double* __restrict a, const double* __restrict b,
                   size_t n) {
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) a[i] += b[i];
}

void VecAddScaledInPlace(double* __restrict a, const double* __restrict b,
                         double scale, size_t n) {
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) a[i] += scale * b[i];
}

void VecMulInPlace(double* __restrict a, const double* __restrict b,
                   size_t n) {
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) a[i] *= b[i];
}

void VecScale(double* __restrict x, double s, size_t n) {
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

double VecSum(const double* __restrict x, size_t n) {
  // Four independent accumulators make the loop lane-parallel in source
  // order: the vectorizer needs no FP reassociation (illegal under strict
  // IEEE), and the result is identical on every machine and vector width.
  double l0 = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double l3 = 0.0;
  size_t n4 = n - n % 4;
  TASQ_VEC
  for (size_t i = 0; i < n4; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  double total = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double VecDot(const double* __restrict x, const double* __restrict y,
              size_t n) {
  double l0 = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double l3 = 0.0;
  size_t n4 = n - n % 4;
  TASQ_VEC
  for (size_t i = 0; i < n4; i += 4) {
    l0 += x[i] * y[i];
    l1 += x[i + 1] * y[i + 1];
    l2 += x[i + 2] * y[i + 2];
    l3 += x[i + 3] * y[i + 3];
  }
  double total = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) total += x[i] * y[i];
  return total;
}

void VecBiasRelu(double* __restrict o, const double* __restrict bias,
                 size_t n) {
  TASQ_VEC
  for (size_t j = 0; j < n; ++j) {
    double v = o[j] + bias[j];
    o[j] = v > 0.0 ? v : 0.0;
  }
}

void MatMulAccum(double* __restrict out, const double* __restrict a,
                 const double* __restrict b, size_t rows, size_t inner,
                 size_t cols) {
  // i,k,j order with k unrolled by 4: each output row is loaded/stored a
  // quarter as often. The unrolled update is a DEPENDENT chain
  //   v += a0*b0[j]; v += a1*b1[j]; v += a2*b2[j]; v += a3*b3[j];
  // not the fused `v += a0*b0[j] + ... + a3*b3[j]` — the fused form sums
  // the products first, a different association that changes low-order
  // bits vs four sequential axpy passes. The chain is exactly the
  // historical scalar order (bit-identical), and still vectorizes: the
  // j lanes are independent even though each j's adds are serial.
  size_t k4 = inner - inner % 4;
  for (size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * inner;
    double* orow = out + i * cols;
    size_t k = 0;
    for (; k < k4; k += 4) {
      const double a0 = arow[k];
      const double a1 = arow[k + 1];
      const double a2 = arow[k + 2];
      const double a3 = arow[k + 3];
      const double* b0 = b + k * cols;
      const double* b1 = b0 + cols;
      const double* b2 = b1 + cols;
      const double* b3 = b2 + cols;
      TASQ_VEC
      for (size_t j = 0; j < cols; ++j) {
        double v = orow[j];
        v += a0 * b0[j];
        v += a1 * b1[j];
        v += a2 * b2[j];
        v += a3 * b3[j];
        orow[j] = v;
      }
    }
    for (; k < inner; ++k) {
      const double ak = arow[k];
      const double* brow = b + k * cols;
      TASQ_VEC
      for (size_t j = 0; j < cols; ++j) orow[j] += ak * brow[j];
    }
  }
}

void MatMulAccumTransA(double* __restrict out, const double* __restrict a,
                       const double* __restrict b, size_t rows, size_t inner,
                       size_t cols) {
  // k-outer with k unrolled by 4: row k of `a` holds column k of aᵀ, so
  // each pass reads four rows of `a` and of `b` and updates every output
  // row with the same dependent chain as MatMulAccum (bit-identical).
  size_t k4 = inner - inner % 4;
  size_t k = 0;
  for (; k < k4; k += 4) {
    const double* a0 = a + k * rows;
    const double* a1 = a0 + rows;
    const double* a2 = a1 + rows;
    const double* a3 = a2 + rows;
    const double* b0 = b + k * cols;
    const double* b1 = b0 + cols;
    const double* b2 = b1 + cols;
    const double* b3 = b2 + cols;
    for (size_t i = 0; i < rows; ++i) {
      const double c0 = a0[i];
      const double c1 = a1[i];
      const double c2 = a2[i];
      const double c3 = a3[i];
      double* orow = out + i * cols;
      TASQ_VEC
      for (size_t j = 0; j < cols; ++j) {
        double v = orow[j];
        v += c0 * b0[j];
        v += c1 * b1[j];
        v += c2 * b2[j];
        v += c3 * b3[j];
        orow[j] = v;
      }
    }
  }
  for (; k < inner; ++k) {
    const double* arow = a + k * rows;
    const double* brow = b + k * cols;
    for (size_t i = 0; i < rows; ++i) {
      const double ak = arow[i];
      double* orow = out + i * cols;
      TASQ_VEC
      for (size_t j = 0; j < cols; ++j) orow[j] += ak * brow[j];
    }
  }
}

}  // namespace tasq
