// Dense-kernel library: the batched model math under the ML layer.
//
// Every kernel has two implementations behind a runtime-dispatched table:
//  * scalar — portable C++, compiled everywhere, and the reference
//    semantics (plain left-to-right accumulation, std::exp activations);
//  * avx2   — AVX2/FMA intrinsics compiled into dense_avx2.cpp with
//    -mavx2 -mfma (present only when the toolchain supports it and
//    LUMEN_NATIVE_SIMD is ON; chosen only when cpuid agrees at runtime).
//
// Dispatch is resolved once from simd::env_request() (LUMEN_SIMD=off forces
// scalar) but can be overridden in-process via set_backend / ScopedBackend,
// which the tests use to compare both paths and the benches use to measure
// the scalar baseline on the same build.
//
// Numerical policy: the AVX2 kernels reassociate sums (4-lane accumulators,
// blocked GEMM) and use a Cephes-style vector exp, so results may differ
// from scalar by a few ulps. Callers that calibrate thresholds must
// calibrate through the same path they score with (the ML layer does); the
// tests compare paths with explicit tolerances (see dense_test.cpp).
//
// Matrix convention: row-major everywhere, `ld*` = row stride (>= ncols).
#pragma once

#include <cstddef>
#include <vector>

namespace lumen::ml::dense {

enum class Backend {
  kAuto,    // resolve from LUMEN_SIMD + cpuid at first use
  kScalar,  // portable reference kernels
  kAvx2,    // AVX2/FMA kernels (requires avx2_available())
};

/// True when the AVX2 TU was compiled in AND the CPU can run it.
bool avx2_available();

/// The backend kernels actually execute right now.
Backend active_backend();
const char* backend_name(Backend b);

/// Process-wide override (kAuto returns control to LUMEN_SIMD + cpuid).
/// Takes effect for subsequent kernel calls; not intended to be flipped
/// while other threads are inside ML math (tests and benches only).
void set_backend(Backend b);

/// RAII backend override for tests/benches.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prev_(active_raw()) { set_backend(b); }
  ~ScopedBackend() { set_backend(prev_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  static Backend active_raw();  // the override slot, not the resolved value
  Backend prev_;
};

// ----------------------------------------------------------------- BLAS-1

/// sum_i x[i] * y[i]
double dot(size_t n, const double* x, const double* y);

/// y += alpha * x
void axpy(size_t n, double alpha, const double* x, double* y);

/// Plane rotation (BLAS drot): for each i,
///   x' = c*x - s*y ;  y' = s*x + c*y.
/// Strided form for the Jacobi eigen solver's column rotations; incx/incy
/// are element strides (1 = contiguous).
void rot(size_t n, double* x, size_t incx, double* y, size_t incy, double c,
         double s);

// ----------------------------------------------------------------- BLAS-2

/// y[m] = A[m x n] * x + (bias ? bias : 0). A row-major with stride lda.
void gemv(size_t m, size_t n, const double* a, size_t lda, const double* x,
          const double* bias, double* y);

/// y[n] = A^T * x where A is m x n row-major (stride lda); x has length m.
void gemv_t(size_t m, size_t n, const double* a, size_t lda, const double* x,
            double* y);

/// Rank-1 update A += alpha * x * y^T (A m x n row-major, stride lda).
void ger(size_t m, size_t n, double alpha, const double* x, const double* y,
         double* a, size_t lda);

// ----------------------------------------------------------------- BLAS-3

/// C[m x n] = A[m x k] * B[n x k]^T + (bias ? bias : 0), with bias
/// broadcast across rows (bias has length n). beta = 0 overwrites C,
/// beta = 1 accumulates into it. This is the batched-forward workhorse:
/// rows of A are samples, rows of B are a layer's `out x in` weights.
void gemm_nt(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, const double* bias, double beta,
             double* c, size_t ldc);

/// C[m x n] = A[m x k] * B[k x n] (beta as above). Backprop delta:
/// delta_prev[batch x in] = delta[batch x out] * W[out x in].
void gemm_nn(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, double beta, double* c, size_t ldc);

/// C[m x n] += alpha * A[k x m]^T * B[k x n]. Minibatch weight gradient:
/// W_grad[out x in] = delta[batch x out]^T * activations[batch x in].
void gemm_tn(size_t m, size_t n, size_t k, double alpha, const double* a,
             size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

// ------------------------------------------------------------- activations

/// x[i] = 1 / (1 + exp(-x[i]))
void sigmoid_sweep(size_t n, double* x);

/// x[i] = max(0, x[i])
void relu_sweep(size_t n, double* x);

/// x[i] = exp(x[i]). Inputs are clamped to +-708 (the finite double range).
void exp_sweep(size_t n, double* x);

// --------------------------------------------------------------- distances

/// out[i] = ||x - Y_i||^2 for each of the `rows` rows of Y (stride ldy).
void sq_dist(size_t rows, size_t n, const double* x, const double* y,
             size_t ldy, double* out);

/// Below this many query rows the GEMM expansion in sq_dist_batch costs
/// more than it saves (norm passes + finalize dominate), so it falls back
/// to the direct per-row sq_dist kernel. Exposed for the crossover tests.
constexpr size_t kSqDistBatchCrossover = 16;

/// D[m x r] = ||X_i - Y_j||^2 via the ||x||^2 + ||y||^2 - 2 x.y expansion
/// (one GEMM plus two norm passes; clamped at 0 against cancellation).
/// X is m x n (stride ldx), Y is r x n (stride ldy), D has stride ldd.
/// xn / yn may pass precomputed row norms (length m / r) or be null.
/// Batches of fewer than kSqDistBatchCrossover query rows are computed with
/// the direct-difference sq_dist kernel instead (bit-identical to calling
/// sq_dist once per row), which is faster there and slightly more accurate.
void sq_dist_batch(size_t m, size_t r, size_t n, const double* x, size_t ldx,
                   const double* y, size_t ldy, const double* xn,
                   const double* yn, double* d, size_t ldd);

/// out[i] = sum_j X[i][j]^2 for each of the m rows of X (stride ldx).
void row_sq_norms(size_t m, size_t n, const double* x, size_t ldx,
                  double* out);

// ---------------------------------------------------------------- batching

/// Fixed row-block size used by the batched score() paths. A constant (not
/// thread-count dependent) so blocked results are bit-identical no matter
/// how parallel_for chunks the blocks.
constexpr size_t kScoreBlock = 64;

/// Output-column padding of packed weight panels: a multiple of the AVX2
/// register width, so packed_apply never runs a scalar column tail.
constexpr size_t kPackPad = 4;

/// y[m x n_pad] (stride ldy) = x[m x k] (stride ldx) * wt[k x n_pad] +
/// bias[n_pad], where wt is an `out x k` weight matrix transposed once into
/// a zero-padded `k x n_pad` panel (bias padded likewise), so the kernel
/// runs broadcast-FMA over full vectors with no per-call transpose and no
/// column remainder — what gives the compiled plans' 8-64-row micro-batches
/// real SIMD utilization at KitNET-sized layers (~10 x 8). Contract: row i
/// of y depends only on row i of x — the per-element accumulation order is
/// fixed (bias + sequential k), so results are bit-identical no matter how
/// rows are grouped into batches. n_pad must be a multiple of kPackPad.
void packed_apply(size_t m, size_t n_pad, size_t k, const double* x,
                  size_t ldx, const double* wt, const double* bias, double* y,
                  size_t ldy);

// ------------------------------------------------------ dispatch internals

/// The kernel table one backend implements. Exposed so dense_test can pit
/// every compiled backend against the naive reference implementations.
struct Kernels {
  double (*dot)(size_t, const double*, const double*);
  void (*axpy)(size_t, double, const double*, double*);
  void (*rot)(size_t, double*, size_t, double*, size_t, double, double);
  void (*gemv)(size_t, size_t, const double*, size_t, const double*,
               const double*, double*);
  void (*gemv_t)(size_t, size_t, const double*, size_t, const double*,
                 double*);
  void (*ger)(size_t, size_t, double, const double*, const double*, double*,
              size_t);
  void (*gemm_nt)(size_t, size_t, size_t, const double*, size_t,
                  const double*, size_t, const double*, double, double*,
                  size_t);
  void (*gemm_nn)(size_t, size_t, size_t, const double*, size_t,
                  const double*, size_t, double, double*, size_t);
  void (*gemm_tn)(size_t, size_t, size_t, double, const double*, size_t,
                  const double*, size_t, double*, size_t);
  void (*sigmoid_sweep)(size_t, double*);
  void (*relu_sweep)(size_t, double*);
  void (*exp_sweep)(size_t, double*);
  void (*sq_dist)(size_t, size_t, const double*, const double*, size_t,
                  double*);
  void (*packed_apply)(size_t, size_t, size_t, const double*, size_t,
                       const double*, const double*, double*, size_t);
};

/// Backend tables (avx2_kernels() is null when unavailable on this build
/// or host). sq_dist_batch / row_sq_norms compose the table entries, so
/// they have no slot of their own.
const Kernels& scalar_kernels();
const Kernels* avx2_kernels();

}  // namespace lumen::ml::dense
