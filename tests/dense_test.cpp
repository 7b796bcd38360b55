// Dense-kernel library tests: every kernel against a naive reference across
// odd sizes, alignments, and strides, on every compiled backend (the scalar
// reference path and, when the host can run it, AVX2/FMA); the LUMEN_SIMD
// parsing contract; and batched-vs-per-row score equivalence for each model
// reworked on top of the kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "ml/dense.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp.h"

namespace lumen::ml {
namespace {

using dense::Backend;
using dense::ScopedBackend;

/// Backends compiled into this binary and runnable on this host.
std::vector<Backend> runnable_backends() {
  std::vector<Backend> b = {Backend::kScalar};
  if (dense::avx2_available()) b.push_back(Backend::kAvx2);
  return b;
}

/// |a - b| <= atol + rtol * max(|a|, |b|).
void expect_close(double a, double b, double atol, double rtol,
                  const char* what) {
  const double tol = atol + rtol * std::max(std::fabs(a), std::fabs(b));
  EXPECT_NEAR(a, b, tol) << what;
}

// The sizes exercise every AVX2 remainder path (n % 4 in {0,1,2,3}) plus
// empty and GEMM-panel-crossing shapes.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100, 150};

std::vector<double> random_vec(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

TEST(DenseDispatch, EnvParsing) {
  using simd::Request;
  EXPECT_EQ(simd::parse_request(nullptr), Request::kAuto);
  EXPECT_EQ(simd::parse_request(""), Request::kAuto);
  EXPECT_EQ(simd::parse_request("off"), Request::kScalar);
  EXPECT_EQ(simd::parse_request("scalar"), Request::kScalar);
  EXPECT_EQ(simd::parse_request("0"), Request::kScalar);
  EXPECT_EQ(simd::parse_request("none"), Request::kScalar);
  EXPECT_EQ(simd::parse_request("avx2"), Request::kAvx2);
  EXPECT_EQ(simd::parse_request("on"), Request::kAvx2);
  EXPECT_EQ(simd::parse_request("auto"), Request::kAuto);
  EXPECT_EQ(simd::parse_request("garbage"), Request::kAuto);
}

TEST(DenseDispatch, ScopedBackendForcesScalar) {
  {
    ScopedBackend guard(Backend::kScalar);
    EXPECT_EQ(dense::active_backend(), Backend::kScalar);
  }
  // kAvx2 request falls back to scalar when the host can't run it.
  {
    ScopedBackend guard(Backend::kAvx2);
    if (dense::avx2_available()) {
      EXPECT_EQ(dense::active_backend(), Backend::kAvx2);
    } else {
      EXPECT_EQ(dense::active_backend(), Backend::kScalar);
    }
  }
}

TEST(DenseKernels, DotAxpyAgainstNaive) {
  Rng rng(1);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t n : kSizes) {
      const std::vector<double> x = random_vec(n, rng);
      std::vector<double> y = random_vec(n, rng);
      double ref = 0.0;
      for (size_t i = 0; i < n; ++i) ref += x[i] * y[i];
      expect_close(dense::dot(n, x.data(), y.data()), ref, 1e-12, 1e-12,
                   "dot");

      std::vector<double> y2 = y;
      const double alpha = 0.37;
      for (size_t i = 0; i < n; ++i) y2[i] += alpha * x[i];
      dense::axpy(n, alpha, x.data(), y.data());
      for (size_t i = 0; i < n; ++i) {
        expect_close(y[i], y2[i], 1e-14, 1e-14, "axpy");
      }
    }
  }
}

TEST(DenseKernels, RotContiguousAndStrided) {
  Rng rng(2);
  const double c = std::cos(0.7), s = std::sin(0.7);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t n : kSizes) {
      for (size_t stride : {size_t{1}, size_t{3}}) {
        std::vector<double> x = random_vec(n * stride + 1, rng);
        std::vector<double> y = random_vec(n * stride + 1, rng);
        std::vector<double> xr = x, yr = y;
        for (size_t i = 0; i < n; ++i) {
          const double xv = xr[i * stride];
          const double yv = yr[i * stride];
          xr[i * stride] = c * xv - s * yv;
          yr[i * stride] = s * xv + c * yv;
        }
        dense::rot(n, x.data(), stride, y.data(), stride, c, s);
        for (size_t i = 0; i < x.size(); ++i) {
          expect_close(x[i], xr[i], 1e-14, 1e-14, "rot x");
          expect_close(y[i], yr[i], 1e-14, 1e-14, "rot y");
        }
      }
    }
  }
}

TEST(DenseKernels, GemvAgainstNaive) {
  Rng rng(3);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t m : {size_t{1}, size_t{3}, size_t{17}}) {
      for (size_t n : kSizes) {
        const size_t lda = n + 2;  // padded rows: stride > n
        const std::vector<double> a = random_vec(m * lda, rng);
        const std::vector<double> x = random_vec(n, rng);
        const std::vector<double> bias = random_vec(m, rng);
        std::vector<double> y(m, -1.0), ybias(m, -1.0);
        dense::gemv(m, n, a.data(), lda, x.data(), nullptr, y.data());
        dense::gemv(m, n, a.data(), lda, x.data(), bias.data(), ybias.data());
        for (size_t i = 0; i < m; ++i) {
          double ref = 0.0;
          for (size_t j = 0; j < n; ++j) ref += a[i * lda + j] * x[j];
          expect_close(y[i], ref, 1e-12, 1e-12, "gemv");
          expect_close(ybias[i], ref + bias[i], 1e-12, 1e-12, "gemv bias");
        }

        // Transposed product and rank-1 update on the same shapes.
        const std::vector<double> xm = random_vec(m, rng);
        std::vector<double> yt(n, -1.0);
        dense::gemv_t(m, n, a.data(), lda, xm.data(), yt.data());
        for (size_t j = 0; j < n; ++j) {
          double ref = 0.0;
          for (size_t i = 0; i < m; ++i) ref += a[i * lda + j] * xm[i];
          expect_close(yt[j], ref, 1e-12, 1e-11, "gemv_t");
        }

        std::vector<double> au = a, aref = a;
        const std::vector<double> yv = random_vec(n, rng);
        dense::ger(m, n, 0.21, xm.data(), yv.data(), au.data(), lda);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            aref[i * lda + j] += 0.21 * xm[i] * yv[j];
          }
        }
        for (size_t i = 0; i < au.size(); ++i) {
          expect_close(au[i], aref[i], 1e-13, 1e-13, "ger");
        }
      }
    }
  }
}

TEST(DenseKernels, GemmNtAgainstNaive) {
  Rng rng(4);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t m : {size_t{1}, size_t{2}, size_t{5}, size_t{64}}) {
      for (size_t n : {size_t{1}, size_t{3}, size_t{8}, size_t{33}}) {
        for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{130}}) {
          const size_t lda = k + 1, ldb = k + 3, ldc = n + 2;
          const std::vector<double> a = random_vec(m * lda, rng);
          const std::vector<double> b = random_vec(n * ldb, rng);
          const std::vector<double> bias = random_vec(n, rng);
          std::vector<double> c0(m * ldc, 0.5);
          std::vector<double> cb = c0, cacc = c0;
          dense::gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, nullptr, 0.0,
                         c0.data(), ldc);
          dense::gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, bias.data(),
                         0.0, cb.data(), ldc);
          dense::gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, nullptr, 1.0,
                         cacc.data(), ldc);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double ref = 0.0;
              for (size_t l = 0; l < k; ++l) {
                ref += a[i * lda + l] * b[j * ldb + l];
              }
              expect_close(c0[i * ldc + j], ref, 1e-11, 1e-10, "gemm_nt");
              expect_close(cb[i * ldc + j], ref + bias[j], 1e-11, 1e-10,
                           "gemm_nt bias");
              expect_close(cacc[i * ldc + j], ref + 0.5, 1e-11, 1e-10,
                           "gemm_nt beta=1");
              // Cells beyond column n stay untouched.
              for (size_t j2 = n; j2 < ldc; ++j2) {
                EXPECT_EQ(c0[i * ldc + j2], 0.5);
              }
            }
          }
        }
      }
    }
  }
}

TEST(DenseKernels, GemmNnAndTnAgainstNaive) {
  Rng rng(5);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t m : {size_t{1}, size_t{4}, size_t{19}}) {
      for (size_t n : {size_t{1}, size_t{6}, size_t{41}}) {
        for (size_t k : {size_t{1}, size_t{5}, size_t{32}}) {
          // gemm_nn: C[m x n] = A[m x k] B[k x n].
          const size_t lda = k + 1, ldb = n + 2, ldc = n + 2;
          const std::vector<double> a = random_vec(m * lda, rng);
          const std::vector<double> b = random_vec(k * ldb, rng);
          std::vector<double> c(m * ldc, -2.0);
          dense::gemm_nn(m, n, k, a.data(), lda, b.data(), ldb, 0.0, c.data(),
                         ldc);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double ref = 0.0;
              for (size_t l = 0; l < k; ++l) {
                ref += a[i * lda + l] * b[l * ldb + j];
              }
              expect_close(c[i * ldc + j], ref, 1e-11, 1e-10, "gemm_nn");
            }
          }

          // gemm_tn: C[m x n] += alpha A[k x m]^T B[k x n].
          const size_t lda2 = m + 1;
          const std::vector<double> a2 = random_vec(k * lda2, rng);
          std::vector<double> c2(m * ldc, 0.25), c2ref(m * ldc, 0.25);
          dense::gemm_tn(m, n, k, -0.5, a2.data(), lda2, b.data(), ldb,
                         c2.data(), ldc);
          for (size_t l = 0; l < k; ++l) {
            for (size_t i = 0; i < m; ++i) {
              for (size_t j = 0; j < n; ++j) {
                c2ref[i * ldc + j] += -0.5 * a2[l * lda2 + i] * b[l * ldb + j];
              }
            }
          }
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              expect_close(c2[i * ldc + j], c2ref[i * ldc + j], 1e-11, 1e-10,
                           "gemm_tn");
            }
          }
        }
      }
    }
  }
}

TEST(DenseKernels, ActivationSweeps) {
  Rng rng(6);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t n : kSizes) {
      std::vector<double> x = random_vec(n, rng);
      // Include extreme values to exercise the clamp paths.
      if (n > 2) {
        x[0] = 750.0;
        x[1] = -750.0;
        x[2] = 0.0;
      }
      std::vector<double> sig = x, rel = x, ex = x;
      dense::sigmoid_sweep(n, sig.data());
      dense::relu_sweep(n, rel.data());
      dense::exp_sweep(n, ex.data());
      for (size_t i = 0; i < n; ++i) {
        expect_close(sig[i], 1.0 / (1.0 + std::exp(-x[i])), 1e-12, 1e-9,
                     "sigmoid");
        EXPECT_EQ(rel[i], std::max(0.0, x[i]));
        expect_close(ex[i], std::exp(std::clamp(x[i], -708.0, 708.0)), 0.0,
                     1e-9, "exp");
        EXPECT_TRUE(std::isfinite(ex[i]));
      }
    }
  }
}

TEST(DenseKernels, SqDistAgainstNaive) {
  Rng rng(7);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t n : kSizes) {
      const size_t rows = 9, ldy = n + 3;
      const std::vector<double> x = random_vec(n, rng);
      const std::vector<double> y = random_vec(rows * ldy, rng);
      std::vector<double> out(rows, -1.0);
      dense::sq_dist(rows, n, x.data(), y.data(), ldy, out.data());
      for (size_t r = 0; r < rows; ++r) {
        double ref = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double diff = x[i] - y[r * ldy + i];
          ref += diff * diff;
        }
        expect_close(out[r], ref, 1e-12, 1e-11, "sq_dist");
      }
    }
  }
}

TEST(DenseKernels, SqDistBatchMatchesDirect) {
  Rng rng(8);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t n : {size_t{1}, size_t{5}, size_t{40}}) {
      const size_t m = 11, r = 300;  // r > the stack-norm buffer (256)
      const size_t ldx = n + 1, ldy = n + 2, ldd = r + 3;
      const std::vector<double> x = random_vec(m * ldx, rng);
      const std::vector<double> y = random_vec(r * ldy, rng);
      std::vector<double> d(m * ldd, -1.0);
      dense::sq_dist_batch(m, r, n, x.data(), ldx, y.data(), ldy, nullptr,
                           nullptr, d.data(), ldd);
      // Precomputed norms must give the same answer.
      std::vector<double> xn(m), yn(r);
      dense::row_sq_norms(m, n, x.data(), ldx, xn.data());
      dense::row_sq_norms(r, n, y.data(), ldy, yn.data());
      std::vector<double> d2(m * ldd, -1.0);
      dense::sq_dist_batch(m, r, n, x.data(), ldx, y.data(), ldy, xn.data(),
                           yn.data(), d2.data(), ldd);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < r; ++j) {
          double ref = 0.0;
          for (size_t c = 0; c < n; ++c) {
            const double diff = x[i * ldx + c] - y[j * ldy + c];
            ref += diff * diff;
          }
          // The expansion cancels, so the tolerance scales with the norms.
          const double scale = std::max(1.0, xn[i] + yn[j]);
          EXPECT_NEAR(d[i * ldd + j], ref, 1e-10 * scale) << "sq_dist_batch";
          EXPECT_EQ(d[i * ldd + j], d2[i * ldd + j]);
          EXPECT_GE(d[i * ldd + j], 0.0);
        }
      }
    }
  }
}

TEST(DenseKernels, SqDistBatchSmallBatchesFallBackBitIdentical) {
  // Below the crossover, sq_dist_batch must route through the per-row
  // kernel — bit-identical to calling sq_dist once per query row.
  Rng rng(9);
  static_assert(dense::kSqDistBatchCrossover > 1);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t m : {size_t{1}, size_t{3}, dense::kSqDistBatchCrossover - 1}) {
      const size_t r = 57, n = 23;
      const size_t ldx = n + 1, ldy = n + 2, ldd = r + 1;
      const std::vector<double> x = random_vec(m * ldx, rng);
      const std::vector<double> y = random_vec(r * ldy, rng);
      std::vector<double> d(m * ldd, -1.0);
      dense::sq_dist_batch(m, r, n, x.data(), ldx, y.data(), ldy, nullptr,
                           nullptr, d.data(), ldd);
      std::vector<double> ref(r, -1.0);
      for (size_t i = 0; i < m; ++i) {
        dense::sq_dist(r, n, x.data() + i * ldx, y.data(), ldy, ref.data());
        for (size_t j = 0; j < r; ++j) {
          EXPECT_EQ(d[i * ldd + j], ref[j]) << "m=" << m << " i=" << i;
        }
      }
    }
  }
}

/// A weight panel in the layout packed_apply reads: W (`out x in`, row
/// stride ldw) transposed into `in x padded` with zero padding columns,
/// bias padded likewise.
struct Panel {
  size_t padded = 0;
  std::vector<double> wt, bias;
};

Panel pack_panel(size_t out, size_t in, const double* w, size_t ldw,
                 const double* bias) {
  Panel p;
  p.padded = (out + dense::kPackPad - 1) / dense::kPackPad * dense::kPackPad;
  p.wt.assign(in * p.padded, 0.0);
  p.bias.assign(p.padded, 0.0);
  for (size_t o = 0; o < out; ++o) {
    for (size_t i = 0; i < in; ++i) p.wt[i * p.padded + o] = w[o * ldw + i];
    p.bias[o] = bias[o];
  }
  return p;
}

TEST(DenseKernels, PackedApplyMatchesGemv) {
  Rng rng(10);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    for (size_t out : {size_t{1}, size_t{3}, size_t{8}, size_t{13}}) {
      for (size_t in : {size_t{1}, size_t{7}, size_t{23}}) {
        const size_t ldw = in + 2;
        const std::vector<double> w = random_vec(out * ldw, rng);
        const std::vector<double> bias = random_vec(out, rng);
        const Panel p = pack_panel(out, in, w.data(), ldw, bias.data());
        EXPECT_EQ(p.padded % dense::kPackPad, size_t{0});
        EXPECT_GE(p.padded, out);

        const size_t m = 6, ldx = in + 1, ldy = p.padded;
        const std::vector<double> x = random_vec(m * ldx, rng);
        std::vector<double> y(m * ldy, -1.0);
        dense::packed_apply(m, p.padded, in, x.data(), ldx, p.wt.data(),
                            p.bias.data(), y.data(), ldy);
        for (size_t i = 0; i < m; ++i) {
          for (size_t o = 0; o < out; ++o) {
            double ref = bias[o];
            for (size_t c = 0; c < in; ++c) {
              ref += w[o * ldw + c] * x[i * ldx + c];
            }
            expect_close(y[i * ldy + o], ref, 1e-12, 1e-12, "packed_apply");
          }
          // Padding columns carry zero weights and zero bias.
          for (size_t o = out; o < p.padded; ++o) {
            EXPECT_EQ(y[i * ldy + o], 0.0);
          }
        }
      }
    }
  }
}

TEST(DenseKernels, PackedApplyBatchSizeBitInvariant) {
  // The whole micro-batched live path rests on this: chopping the same
  // rows into different batch sizes must give bit-identical outputs.
  Rng rng(11);
  const size_t out = 11, in = 17, m = 29;
  const std::vector<double> w = random_vec(out * in, rng);
  const std::vector<double> bias = random_vec(out, rng);
  const Panel p = pack_panel(out, in, w.data(), in, bias.data());
  const size_t ldy = p.padded;
  const std::vector<double> x = random_vec(m * in, rng);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    std::vector<double> whole(m * ldy, -1.0);
    dense::packed_apply(m, p.padded, in, x.data(), in, p.wt.data(),
                        p.bias.data(), whole.data(), ldy);
    for (size_t chunk : {size_t{1}, size_t{4}, size_t{5}, size_t{16}}) {
      std::vector<double> piecewise(m * ldy, -2.0);
      for (size_t lo = 0; lo < m; lo += chunk) {
        const size_t nrows = std::min(chunk, m - lo);
        dense::packed_apply(nrows, p.padded, in, x.data() + lo * in, in,
                            p.wt.data(), p.bias.data(),
                            piecewise.data() + lo * ldy, ldy);
      }
      for (size_t i = 0; i < m * ldy; ++i) {
        EXPECT_EQ(whole[i], piecewise[i]) << "chunk=" << chunk << " i=" << i;
      }
    }
  }
}

// ------------------------------------------------- model-level equivalence

FeatureTable labeled_set(size_t rows, size_t dims, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) names.push_back("f" + std::to_string(d));
  FeatureTable t = FeatureTable::make(rows, names);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const bool pos = i % 3 == 0;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(pos ? 2.0 : 0.0, 1.0);
    }
    t.labels[i] = pos ? 1 : 0;
    t.unit_id[i] = static_cast<int64_t>(i);
    t.unit_time[i] = static_cast<double>(i);
  }
  return t;
}

void expect_scores_close(const std::vector<double>& batched,
                         const std::vector<double>& perrow, double atol,
                         double rtol, const char* what) {
  ASSERT_EQ(batched.size(), perrow.size()) << what;
  for (size_t i = 0; i < batched.size(); ++i) {
    expect_close(batched[i], perrow[i], atol, rtol, what);
  }
}

TEST(BatchedEquivalence, Mlp) {
  const FeatureTable X = labeled_set(230, 9, 11);
  MlpConfig cfg;
  cfg.hidden = {16, 8};
  cfg.epochs = 5;
  Mlp model(cfg);
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-9, 1e-9,
                        "Mlp");
  }
}

TEST(BatchedEquivalence, AutoEncoder) {
  const FeatureTable X = labeled_set(200, 7, 12);
  AutoEncoderConfig cfg;
  cfg.epochs = 2;
  AutoEncoderDetector model(cfg);
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-9, 1e-9,
                        "AutoEncoder");
  }
}

TEST(BatchedEquivalence, KitNet) {
  const FeatureTable X = labeled_set(300, 12, 13);
  KitNet::Config cfg;
  cfg.fm_grace = 100;
  cfg.epochs = 1;
  KitNet model(cfg);
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-9, 1e-9,
                        "KitNet");
    const std::vector<double> s = model.score(X);
    KitNet::ScoreScratch scratch;
    for (size_t r = 0; r < X.rows; r += 41) {
      expect_close(model.score_row(X.row(r), scratch), s[r], 1e-9, 1e-9,
                   "KitNet::score_row");
    }
  }
}

TEST(BatchedEquivalence, Knn) {
  const FeatureTable X = labeled_set(240, 6, 14);
  Knn model(KnnConfig{.k = 5, .max_train_rows = 150, .seed = 13});
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-9, 0.0,
                        "Knn");
  }
}

TEST(BatchedEquivalence, OneClassSvm) {
  const FeatureTable X = labeled_set(220, 5, 15);
  OneClassSvm::Config cfg;
  cfg.max_train_rows = 120;
  cfg.iters = 40;
  OneClassSvm model(cfg);
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-8, 1e-6,
                        "OneClassSvm");
  }
}

TEST(BatchedEquivalence, Gmm) {
  const FeatureTable X = labeled_set(260, 6, 16);
  Gmm::Config cfg;
  cfg.components = 3;
  cfg.iters = 15;
  Gmm model(cfg);
  model.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(model.score(X), model.score_perrow(X), 1e-8, 1e-8,
                        "Gmm");
  }
}

TEST(BatchedEquivalence, LinearModels) {
  const FeatureTable X = labeled_set(210, 8, 17);
  LinearSvm svm;
  svm.fit(X);
  LogisticRegression lr;
  lr.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    expect_scores_close(svm.score(X), svm.score_perrow(X), 1e-9, 1e-7,
                        "LinearSvm");
    expect_scores_close(lr.score(X), lr.score_perrow(X), 1e-9, 1e-7,
                        "LogisticRegression");
  }
}

TEST(BatchedEquivalence, NystromTransform) {
  const FeatureTable X = labeled_set(190, 7, 18);
  NystromMap::Config cfg;
  cfg.n_landmarks = 32;
  NystromMap map(cfg);
  map.fit(X);
  for (Backend be : runnable_backends()) {
    ScopedBackend guard(be);
    const FeatureTable a = map.transform(X);
    const FeatureTable b = map.transform_perrow(X);
    ASSERT_EQ(a.rows, b.rows);
    ASSERT_EQ(a.cols, b.cols);
    for (size_t r = 0; r < a.rows; ++r) {
      for (size_t c = 0; c < a.cols; ++c) {
        expect_close(a.at(r, c), b.at(r, c), 1e-8, 1e-6, "NystromTransform");
      }
    }
  }
}

}  // namespace
}  // namespace lumen::ml
