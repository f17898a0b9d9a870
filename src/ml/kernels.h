#ifndef TASQ_ML_KERNELS_H_
#define TASQ_ML_KERNELS_H_

#include <cstddef>

namespace tasq {

/// Raw-span SIMD kernels for the dense-matrix layer (ml/matrix) and the
/// batched NN forward pass (nn/nn_model). Every loop marked TASQ_VEC in
/// kernels.cc is machine-checked against the compiler's vectorizer report
/// by `tasq_check.py vec` (cmake -DTASQ_VEC_REPORT=ON): a refactor that
/// silently de-vectorizes one fails CI with the compiler's reason.
///
/// Design rules (DESIGN.md, "Vectorization policy"):
///   - `__restrict`-qualified pointers: callers guarantee the spans do
///     not alias, so the vectorizer needs no runtime alias versioning.
///   - strict IEEE only — this repo never compiles with -ffast-math.
///     Elementwise kernels vectorize as-is; reductions (VecSum, VecDot)
///     use a FIXED 4-lane accumulator combined in a fixed order, so the
///     result is run-to-run (and compiler-flag) deterministic while the
///     lane-parallel source order is vectorizable without reassociation.
///   - no function calls inside annotated loops.
///
/// Determinism note: the 4-lane reductions produce different low-order
/// bits than a left-to-right scalar sum (lane order changes the rounding
/// sequence). The switch is a one-time, reviewed golden regeneration
/// (tests/golden, --update_golden); after it, results are bit-stable.

/// a[i] += b[i]. Spans must not alias.
void VecAddInPlace(double* __restrict a, const double* __restrict b,
                   size_t n);

/// a[i] += scale * b[i]. Spans must not alias.
void VecAddScaledInPlace(double* __restrict a, const double* __restrict b,
                         double scale, size_t n);

/// a[i] *= b[i]. Spans must not alias.
void VecMulInPlace(double* __restrict a, const double* __restrict b,
                   size_t n);

/// x[i] *= s.
void VecScale(double* __restrict x, double s, size_t n);

/// Fixed-4-lane sum: lanes accumulate strided quarters in source order,
/// then combine as (l0+l1)+(l2+l3); the tail (< 4 elements) folds in
/// left-to-right. Deterministic for a fixed n regardless of vector width.
double VecSum(const double* __restrict x, size_t n);

/// Fixed-4-lane dot product, same lane/combine order as VecSum.
double VecDot(const double* __restrict x, const double* __restrict y,
              size_t n);

/// o[j] = o[j] + bias[j] (row-broadcast bias add). Spans must not alias.
/// A named wrapper, not a second definition: an out-of-line copy would be
/// body-identical to VecAddInPlace and GCC's IPA-ICF would fold it away,
/// leaving its TASQ_VEC loop with no vectorizer verdict (vec-unresolved).
inline void VecBiasAdd(double* __restrict o, const double* __restrict bias,
                       size_t n) {
  VecAddInPlace(o, bias, n);
}

/// o[j] = max(o[j] + bias[j], 0) — bias add fused with ReLU, the hidden-
/// layer epilogue of the batched forward pass. Spans must not alias.
void VecBiasRelu(double* __restrict o, const double* __restrict bias,
                 size_t n);

/// out += a * b for row-major batch-major operands: `a` is rows x inner
/// (one batch row per matrix row, contiguous), `b` is inner x cols, `out`
/// is rows x cols and must be pre-zeroed (or hold a partial sum to
/// accumulate onto). Accumulation order per output element is k = 0, 1,
/// ..., inner-1 exactly — the same association as the historical scalar
/// i,k,j matmul, so the k-unrolled kernel is bit-identical to it for
/// finite inputs. Spans must not alias.
void MatMulAccum(double* __restrict out, const double* __restrict a,
                 const double* __restrict b, size_t rows, size_t inner,
                 size_t cols);

/// out += aᵀ * b, where `a` is stored row-major as inner x rows (so aᵀ is
/// rows x inner), `b` is inner x cols and `out` is rows x cols: the weight
/// gradient of a matrix product, without a transposed copy of `a`. The
/// loop is k-outer, so `out` (a weight-sized block) stays in cache while
/// `a` and `b` stream past once. Each output element accumulates in the
/// order k = 0, 1, ..., inner-1, exactly as MatMulAccum does on an
/// explicit transposed copy of `a`, so the two are bit-identical. Spans
/// must not alias.
void MatMulAccumTransA(double* __restrict out, const double* __restrict a,
                       const double* __restrict b, size_t rows, size_t inner,
                       size_t cols);

}  // namespace tasq

#endif  // TASQ_ML_KERNELS_H_
