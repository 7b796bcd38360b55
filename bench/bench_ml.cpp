// Model-zoo scoring benchmark: batched (dense-kernel) scoring vs the per-row
// scalar path it replaced, for every reworked model. Each model's gate,
// ml.<model>.batched_vs_perrow, is the per-row time over the batched time
// for the same rows, timed in interleaved pairs (gate_record.h); raw kernel
// throughput per backend is informational. The last stdout line is the
// result record.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gate_record.h"
#include "ml/dense.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp.h"

namespace {

using namespace lumen;
using ml::FeatureTable;
using e2e::Clock;
using e2e::seconds_since;

constexpr int kReps = 5;     // best-of repetitions per kernel
constexpr int kPasses = 4;   // passes over the chunks per model
constexpr size_t kScoreRows = 4000;
constexpr size_t kChunkRows = 250;  // rows scored per timed call
constexpr size_t kCols = 20;

FeatureTable ids_shaped_table(size_t rows, size_t cols) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    names.push_back(std::string("f").append(std::to_string(c)));
  }
  FeatureTable t = FeatureTable::make(rows, names);
  Rng rng(12345);
  for (size_t r = 0; r < rows; ++r) {
    const bool mal = rng.bernoulli(0.2);
    for (size_t c = 0; c < cols; ++c) {
      t.at(r, c) = rng.lognormal(mal ? 1.0 : 0.0, 1.0);
    }
    t.labels[r] = mal ? 1 : 0;
  }
  return t;
}

/// Best-of-kReps wall time of fn(), in seconds.
double best_seconds(const std::function<void()>& fn) {
  double best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Gate of one model: `perrow` under forced-scalar kernels (the honest
/// pre-batching baseline) over `batched` under the active backend, both on
/// this thread (the gate is the kernels' gain, not the pool's). Each pair
/// scores one chunk of the rows both ways.
void bench_model(e2e::Outcome& o, const std::string& name,
                 const std::vector<FeatureTable>& chunks,
                 const std::function<void(const FeatureTable&)>& perrow,
                 const std::function<void(const FeatureTable&)>& batched) {
  SerialGuard serial;
  const auto timed = [](const std::function<void(const FeatureTable&)>& fn,
                        const FeatureTable& t) {
    const Clock::time_point t0 = Clock::now();
    fn(t);
    return seconds_since(t0);
  };
  size_t a = 0, b = 0;
  const double ratio = bench::paired_ratio(
      o, kPasses * static_cast<int>(chunks.size()),
      [&] {
        ml::dense::ScopedBackend scalar(ml::dense::Backend::kScalar);
        return timed(perrow, chunks[a++ % chunks.size()]);
      },
      [&] { return timed(batched, chunks[b++ % chunks.size()]); });
  o.add("ml." + name + ".batched_vs_perrow", ratio, "ratio");
  std::printf("%-14s %8.2fx\n", name.c_str(), ratio);
}

struct KernelResult {
  std::string name;
  std::string backend;
  double gflops = 0.0;
};

KernelResult bench_gemm(ml::dense::Backend be, const char* backend_name) {
  constexpr size_t kM = 256, kN = 256, kK = 256;
  Rng rng(7);
  std::vector<double> a(kM * kK), b(kN * kK), c(kM * kN);
  for (double& v : a) v = rng.normal(0.0, 1.0);
  for (double& v : b) v = rng.normal(0.0, 1.0);
  ml::dense::ScopedBackend guard(be);
  const double secs = best_seconds([&] {
    ml::dense::gemm_nt(kM, kN, kK, a.data(), kK, b.data(), kK, nullptr, 0.0,
                       c.data(), kN);
  });
  KernelResult r;
  r.name = "gemm_nt_256";
  r.backend = backend_name;
  r.gflops = 2.0 * kM * kN * kK / secs / 1e9;
  std::printf("%-14s %-8s %10.2f GFLOP/s\n", r.name.c_str(), backend_name,
              r.gflops);
  return r;
}

KernelResult bench_sq_dist(ml::dense::Backend be, const char* backend_name) {
  constexpr size_t kM = 256, kR = 512, kN = 32;
  Rng rng(8);
  std::vector<double> x(kM * kN), y(kR * kN), d(kM * kR);
  for (double& v : x) v = rng.normal(0.0, 1.0);
  for (double& v : y) v = rng.normal(0.0, 1.0);
  ml::dense::ScopedBackend guard(be);
  const double secs = best_seconds([&] {
    ml::dense::sq_dist_batch(kM, kR, kN, x.data(), kN, y.data(), kN, nullptr,
                             nullptr, d.data(), kR);
  });
  KernelResult r;
  r.name = "sq_dist_batch";
  r.backend = backend_name;
  r.gflops = 2.0 * kM * kR * kN / secs / 1e9;  // GEMM term dominates
  std::printf("%-14s %-8s %10.2f GFLOP/s\n", r.name.c_str(), backend_name,
              r.gflops);
  return r;
}

KernelResult bench_sigmoid(ml::dense::Backend be, const char* backend_name) {
  constexpr size_t kN = 1 << 16;
  Rng rng(9);
  std::vector<double> base(kN), x(kN);
  for (double& v : base) v = rng.normal(0.0, 2.0);
  ml::dense::ScopedBackend guard(be);
  const double secs = best_seconds([&] {
    std::copy(base.begin(), base.end(), x.begin());
    ml::dense::sigmoid_sweep(kN, x.data());
  });
  KernelResult r;
  r.name = "sigmoid_sweep";
  r.backend = backend_name;
  r.gflops = static_cast<double>(kN) / secs / 1e9;  // Gelem/s, not flops
  std::printf("%-14s %-8s %10.2f Gelem/s\n", r.name.c_str(), backend_name,
              r.gflops);
  return r;
}

}  // namespace

int main() {
  std::printf("bench_ml: batched model scoring vs the per-row scalar path\n\n");
  const char* backend =
      ml::dense::backend_name(ml::dense::active_backend());
  std::printf("active kernel backend: %s (LUMEN_SIMD to override)\n", backend);
  std::printf("threads: %zu (pool), %zu (hardware)\n\n",
              ThreadPool::global().size(), ThreadPool::hardware_threads());
  e2e::Outcome o;

  const FeatureTable t = ids_shaped_table(kScoreRows, kCols);
  const FeatureTable train = ids_shaped_table(1500, kCols);
  std::vector<FeatureTable> chunks;
  for (size_t lo = 0; lo < kScoreRows; lo += kChunkRows) {
    FeatureTable c = FeatureTable::make(kChunkRows, t.col_names);
    std::copy(t.data.begin() + lo * kCols,
              t.data.begin() + (lo + kChunkRows) * kCols, c.data.begin());
    chunks.push_back(std::move(c));
  }

  std::printf("%-14s %9s  (per-row time / batched time, median of %zu "
              "pairs of %zu rows)\n",
              "model", "gate", kPasses * chunks.size(), kChunkRows);
  {
    ml::MlpConfig cfg;
    cfg.epochs = 10;
    ml::Mlp m(cfg);
    m.fit(train);
    bench_model(o, "mlp", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::KitNet m;
    m.fit(train);
    bench_model(o, "kitnet", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::AutoEncoderDetector m;
    m.fit(train);
    bench_model(o, "autoencoder", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::Knn m;
    m.fit(train);
    bench_model(o, "knn", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::OneClassSvm m;
    m.fit(train);
    bench_model(o, "ocsvm", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::Gmm m;
    m.fit(train);
    bench_model(o, "gmm", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }
  {
    ml::LinearSvm m;
    m.fit(train);
    bench_model(o, "linear_svm", chunks,
                [&](const FeatureTable& x) { m.score_perrow(x); },
                [&](const FeatureTable& x) { m.score(x); });
  }

  std::printf("\nkernel throughput (best of %d):\n", kReps);
  std::vector<KernelResult> kernels;
  kernels.push_back(bench_gemm(ml::dense::Backend::kScalar, "scalar"));
  kernels.push_back(bench_sq_dist(ml::dense::Backend::kScalar, "scalar"));
  kernels.push_back(bench_sigmoid(ml::dense::Backend::kScalar, "scalar"));
  if (ml::dense::avx2_available()) {
    kernels.push_back(bench_gemm(ml::dense::Backend::kAvx2, "avx2"));
    kernels.push_back(bench_sq_dist(ml::dense::Backend::kAvx2, "avx2"));
    kernels.push_back(bench_sigmoid(ml::dense::Backend::kAvx2, "avx2"));
  }
  for (const KernelResult& k : kernels) {
    o.note("ml.kernel." + k.name + "_" + k.backend, k.gflops,
           k.name == "sigmoid_sweep" ? "Gelem/s" : "GFLOP/s");
  }
  std::printf("\n");
  bench::print_record("bench_ml", o);
  return 0;
}
