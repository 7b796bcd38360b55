#include "ml/dense.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/simd.h"

namespace lumen::ml::dense {

// ------------------------------------------------------------ scalar path
//
// These are the reference semantics: straight loops, left-to-right
// accumulation, std::exp activations. dense_test compares every other
// backend against naive re-implementations of the same contracts.

namespace scalar {

double dot_k(size_t n, const double* x, const double* y) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void axpy_k(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void rot_k(size_t n, double* x, size_t incx, double* y, size_t incy, double c,
           double s) {
  for (size_t i = 0; i < n; ++i) {
    double* px = x + i * incx;
    double* py = y + i * incy;
    const double xv = *px;
    const double yv = *py;
    *px = c * xv - s * yv;
    *py = s * xv + c * yv;
  }
}

void gemv_k(size_t m, size_t n, const double* a, size_t lda, const double* x,
            const double* bias, double* y) {
  for (size_t i = 0; i < m; ++i) {
    double s = bias != nullptr ? bias[i] : 0.0;
    const double* row = a + i * lda;
    for (size_t j = 0; j < n; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

void gemv_t_k(size_t m, size_t n, const double* a, size_t lda,
              const double* x, double* y) {
  for (size_t j = 0; j < n; ++j) y[j] = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* row = a + i * lda;
    const double xi = x[i];
    for (size_t j = 0; j < n; ++j) y[j] += row[j] * xi;
  }
}

void ger_k(size_t m, size_t n, double alpha, const double* x, const double* y,
           double* a, size_t lda) {
  for (size_t i = 0; i < m; ++i) {
    double* row = a + i * lda;
    const double ax = alpha * x[i];
    for (size_t j = 0; j < n; ++j) row[j] += ax * y[j];
  }
}

void gemm_nt_k(size_t m, size_t n, size_t k, const double* a, size_t lda,
               const double* b, size_t ldb, const double* bias, double beta,
               double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      double s = beta != 0.0 ? ci[j] : (bias != nullptr ? bias[j] : 0.0);
      const double* bj = b + j * ldb;
      for (size_t l = 0; l < k; ++l) s += ai[l] * bj[l];
      ci[j] = s;
    }
  }
}

void gemm_nn_k(size_t m, size_t n, size_t k, const double* a, size_t lda,
               const double* b, size_t ldb, double beta, double* c,
               size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    if (beta == 0.0) {
      for (size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    for (size_t l = 0; l < k; ++l) {
      const double ail = ai[l];
      const double* bl = b + l * ldb;
      for (size_t j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

void gemm_tn_k(size_t m, size_t n, size_t k, double alpha, const double* a,
               size_t lda, const double* b, size_t ldb, double* c,
               size_t ldc) {
  for (size_t l = 0; l < k; ++l) {
    const double* al = a + l * lda;
    const double* bl = b + l * ldb;
    for (size_t i = 0; i < m; ++i) {
      const double s = alpha * al[i];
      double* ci = c + i * ldc;
      for (size_t j = 0; j < n; ++j) ci[j] += s * bl[j];
    }
  }
}

void sigmoid_k(size_t n, double* x) {
  for (size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
}

void relu_k(size_t n, double* x) {
  for (size_t i = 0; i < n; ++i) x[i] = std::max(0.0, x[i]);
}

void exp_k(size_t n, double* x) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::exp(std::clamp(x[i], -708.0, 708.0));
  }
}

void sq_dist_k(size_t rows, size_t n, const double* x, const double* y,
               size_t ldy, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* yr = y + r * ldy;
    double d = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double diff = x[i] - yr[i];
      d += diff * diff;
    }
    out[r] = d;
  }
}

void packed_apply_k(size_t m, size_t np, size_t k, const double* x,
                    size_t ldx, const double* wt, const double* bias,
                    double* y, size_t ldy) {
  // Per element: y[i][j] = bias[j] + sum over l (sequential) — the fixed
  // accumulation order the packed_apply contract promises, so row i's
  // result never depends on m.
  for (size_t i = 0; i < m; ++i) {
    const double* xi = x + i * ldx;
    double* yi = y + i * ldy;
    for (size_t j = 0; j < np; ++j) yi[j] = bias[j];
    for (size_t l = 0; l < k; ++l) {
      const double xl = xi[l];
      const double* wl = wt + l * np;
      for (size_t j = 0; j < np; ++j) yi[j] += xl * wl[j];
    }
  }
}

}  // namespace scalar

const Kernels& scalar_kernels() {
  static const Kernels k = {
      scalar::dot_k,    scalar::axpy_k,    scalar::rot_k,
      scalar::gemv_k,   scalar::gemv_t_k,  scalar::ger_k,
      scalar::gemm_nt_k, scalar::gemm_nn_k, scalar::gemm_tn_k,
      scalar::sigmoid_k, scalar::relu_k,   scalar::exp_k,
      scalar::sq_dist_k, scalar::packed_apply_k,
  };
  return k;
}

#ifdef LUMEN_DENSE_HAVE_AVX2
// Defined in dense_avx2.cpp (compiled with -mavx2 -mfma).
const Kernels& avx2_kernels_impl();
#endif

const Kernels* avx2_kernels() {
#ifdef LUMEN_DENSE_HAVE_AVX2
  static const Kernels* k =
      simd::cpu_has_avx2_fma() ? &avx2_kernels_impl() : nullptr;
  return k;
#else
  return nullptr;
#endif
}

bool avx2_available() { return avx2_kernels() != nullptr; }

// --------------------------------------------------------------- dispatch

namespace {

std::atomic<Backend>& backend_override() {
  static std::atomic<Backend> b{Backend::kAuto};
  return b;
}

const Kernels* resolve(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &scalar_kernels();
    case Backend::kAvx2:
      if (const Kernels* k = avx2_kernels()) return k;
      return &scalar_kernels();
    case Backend::kAuto:
    default:
      break;
  }
  if (simd::env_request() == simd::Request::kScalar) return &scalar_kernels();
  if (const Kernels* k = avx2_kernels()) return k;
  return &scalar_kernels();
}

inline const Kernels& active() {
  return *resolve(backend_override().load(std::memory_order_relaxed));
}

}  // namespace

void set_backend(Backend b) {
  backend_override().store(b, std::memory_order_relaxed);
}

Backend ScopedBackend::active_raw() {
  return backend_override().load(std::memory_order_relaxed);
}

Backend active_backend() {
  const Kernels* k = resolve(backend_override().load(std::memory_order_relaxed));
  return k == &scalar_kernels() ? Backend::kScalar : Backend::kAvx2;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAuto:
    default:
      return "auto";
  }
}

// ------------------------------------------------------------- public API

double dot(size_t n, const double* x, const double* y) {
  return active().dot(n, x, y);
}

void axpy(size_t n, double alpha, const double* x, double* y) {
  active().axpy(n, alpha, x, y);
}

void rot(size_t n, double* x, size_t incx, double* y, size_t incy, double c,
         double s) {
  active().rot(n, x, incx, y, incy, c, s);
}

void gemv(size_t m, size_t n, const double* a, size_t lda, const double* x,
          const double* bias, double* y) {
  active().gemv(m, n, a, lda, x, bias, y);
}

void gemv_t(size_t m, size_t n, const double* a, size_t lda, const double* x,
            double* y) {
  active().gemv_t(m, n, a, lda, x, y);
}

void ger(size_t m, size_t n, double alpha, const double* x, const double* y,
         double* a, size_t lda) {
  active().ger(m, n, alpha, x, y, a, lda);
}

void gemm_nt(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, const double* bias, double beta,
             double* c, size_t ldc) {
  active().gemm_nt(m, n, k, a, lda, b, ldb, bias, beta, c, ldc);
}

void gemm_nn(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, double beta, double* c,
             size_t ldc) {
  active().gemm_nn(m, n, k, a, lda, b, ldb, beta, c, ldc);
}

void gemm_tn(size_t m, size_t n, size_t k, double alpha, const double* a,
             size_t lda, const double* b, size_t ldb, double* c, size_t ldc) {
  active().gemm_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

void sigmoid_sweep(size_t n, double* x) { active().sigmoid_sweep(n, x); }
void relu_sweep(size_t n, double* x) { active().relu_sweep(n, x); }
void exp_sweep(size_t n, double* x) { active().exp_sweep(n, x); }

void packed_apply(size_t m, size_t n_pad, size_t k, const double* x,
                  size_t ldx, const double* wt, const double* bias, double* y,
                  size_t ldy) {
  active().packed_apply(m, n_pad, k, x, ldx, wt, bias, y, ldy);
}

void sq_dist(size_t rows, size_t n, const double* x, const double* y,
             size_t ldy, double* out) {
  active().sq_dist(rows, n, x, y, ldy, out);
}

void row_sq_norms(size_t m, size_t n, const double* x, size_t ldx,
                  double* out) {
  const Kernels& k = active();
  for (size_t i = 0; i < m; ++i) {
    const double* row = x + i * ldx;
    out[i] = k.dot(n, row, row);
  }
}

void sq_dist_batch(size_t m, size_t r, size_t n, const double* x, size_t ldx,
                   const double* y, size_t ldy, const double* xn,
                   const double* yn, double* d, size_t ldd) {
  const Kernels& k = active();
  // Crossover heuristic: the expansion's fixed costs (two norm passes, the
  // GEMM setup, the finalize sweep) only amortize across enough query
  // rows; tiny batches go straight to the direct-difference kernel, which
  // is bit-identical to calling sq_dist once per row.
  if (m < kSqDistBatchCrossover) {
    for (size_t i = 0; i < m; ++i) {
      k.sq_dist(r, n, x + i * ldx, y, ldy, d + i * ldd);
    }
    return;
  }
  // Norms first (unless the caller precomputed them), then the cross term
  // as one GEMM: D = -2 * X Y^T, finalized with the norm sums.
  constexpr size_t kMaxStackNorms = 256;
  double xbuf[kMaxStackNorms];
  double ybuf[kMaxStackNorms];
  std::vector<double> xheap, yheap;
  const double* xnorm = xn;
  const double* ynorm = yn;
  if (xnorm == nullptr) {
    double* dst = xbuf;
    if (m > kMaxStackNorms) {
      xheap.resize(m);
      dst = xheap.data();
    }
    for (size_t i = 0; i < m; ++i) {
      const double* row = x + i * ldx;
      dst[i] = k.dot(n, row, row);
    }
    xnorm = dst;
  }
  if (ynorm == nullptr) {
    double* dst = ybuf;
    if (r > kMaxStackNorms) {
      yheap.resize(r);
      dst = yheap.data();
    }
    for (size_t j = 0; j < r; ++j) {
      const double* row = y + j * ldy;
      dst[j] = k.dot(n, row, row);
    }
    ynorm = dst;
  }
  k.gemm_nt(m, r, n, x, ldx, y, ldy, nullptr, 0.0, d, ldd);
  for (size_t i = 0; i < m; ++i) {
    double* di = d + i * ldd;
    const double xi = xnorm[i];
    for (size_t j = 0; j < r; ++j) {
      di[j] = std::max(0.0, xi + ynorm[j] - 2.0 * di[j]);
    }
  }
}

}  // namespace lumen::ml::dense
