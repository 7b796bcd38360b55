// Unsupervised/anomaly-detection model tests: eigensolver correctness,
// Nyström kernel approximation quality, one-class SVMs, k-means/GMM, the
// autoencoders, and KitNET's clustering + detection behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/eigen.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/kitnet.h"
#include "ml/metrics.h"
#include "ml/mlp.h"

namespace lumen::ml {
namespace {

/// Benign cluster at the origin plus far-away anomalies; labels mark the
/// anomalies so AUC is measurable (unsupervised fit uses benign rows only).
FeatureTable anomaly_set(size_t n_benign, size_t n_anomalous, size_t dims,
                         double distance, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) {
    names.push_back(std::string("f").append(std::to_string(d)));
  }
  FeatureTable t = FeatureTable::make(n_benign + n_anomalous, names);
  Rng rng(seed);
  for (size_t i = 0; i < t.rows; ++i) {
    const bool anomaly = i >= n_benign;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(anomaly ? distance : 0.0, 1.0);
    }
    t.labels[i] = anomaly ? 1 : 0;
    t.unit_id[i] = static_cast<int64_t>(i);
    t.unit_time[i] = static_cast<double>(i);
  }
  return t;
}

TEST(JacobiEigen, DiagonalMatrix) {
  const std::vector<double> a = {3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0};
  const SymEigen e = jacobi_eigen(a, 3);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 2.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
}

TEST(JacobiEigen, ReconstructsMatrix) {
  Rng rng(3);
  const size_t n = 8;
  std::vector<double> a(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.normal(0.0, 1.0);
      a[i * n + j] = v;
      a[j * n + i] = v;
    }
  }
  const SymEigen e = jacobi_eigen(a, n);
  // A == V diag(L) V^T.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) {
        acc += e.vectors[i * n + k] * e.values[k] * e.vectors[j * n + k];
      }
      EXPECT_NEAR(acc, a[i * n + j], 1e-8) << i << "," << j;
    }
  }
}

TEST(JacobiEigen, VectorsAreOrthonormal) {
  Rng rng(4);
  const size_t n = 6;
  std::vector<double> a(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a[i * n + j] = a[j * n + i] = rng.uniform(-1.0, 1.0);
    }
  }
  const SymEigen e = jacobi_eigen(a, n);
  for (size_t c1 = 0; c1 < n; ++c1) {
    for (size_t c2 = 0; c2 < n; ++c2) {
      double dot = 0.0;
      for (size_t k = 0; k < n; ++k) {
        dot += e.vectors[k * n + c1] * e.vectors[k * n + c2];
      }
      EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(RbfKernel, BasicProperties) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(rbf_kernel(x, x, 0.5), 1.0);
  EXPECT_NEAR(rbf_kernel(x, y, 0.5), std::exp(-0.5 * 5.0), 1e-12);
  EXPECT_GT(rbf_kernel(x, y, 0.1), rbf_kernel(x, y, 1.0));
}

TEST(NystromMap, ExactWhenLandmarksCoverData) {
  // With every training row as a landmark the Nyström map reproduces the
  // kernel (up to the eigenvalue floor).
  const FeatureTable X = anomaly_set(100, 0, 3, 0.0, 31);
  NystromMap::Config cfg;
  cfg.n_landmarks = 100;
  cfg.gamma = 0.25;
  NystromMap map(cfg);
  map.fit(X);
  const FeatureTable Z = map.transform(X);
  double max_err = 0.0;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      double dot = 0.0;
      for (size_t c = 0; c < Z.cols; ++c) dot += Z.at(i, c) * Z.at(j, c);
      const double k = rbf_kernel(X.row(i), X.row(j), 0.25);
      max_err = std::max(max_err, std::fabs(dot - k));
    }
  }
  EXPECT_LT(max_err, 0.05);
}

TEST(NystromMap, SubsampledLandmarksStillApproximate) {
  const FeatureTable X = anomaly_set(120, 0, 3, 0.0, 31);
  NystromMap::Config cfg;
  cfg.n_landmarks = 64;
  cfg.gamma = 0.25;
  NystromMap map(cfg);
  map.fit(X);
  const FeatureTable Z = map.transform(X);
  double sum_err = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      double dot = 0.0;
      for (size_t c = 0; c < Z.cols; ++c) dot += Z.at(i, c) * Z.at(j, c);
      sum_err += std::fabs(dot - rbf_kernel(X.row(i), X.row(j), 0.25));
      ++n;
    }
  }
  EXPECT_LT(sum_err / static_cast<double>(n), 0.05);  // low mean error
}

TEST(MedianHeuristic, PositiveAndStable) {
  const FeatureTable X = anomaly_set(100, 0, 4, 0.0, 37);
  const double g1 = median_heuristic_gamma(X);
  const double g2 = median_heuristic_gamma(X);
  EXPECT_GT(g1, 0.0);
  EXPECT_DOUBLE_EQ(g1, g2);
}

class OneClassSweep : public ::testing::TestWithParam<double> {};

TEST_P(OneClassSweep, OcsvmRanksAnomaliesHigher) {
  const double dist = GetParam();
  const FeatureTable data = anomaly_set(250, 40, 4, dist, 41);
  OneClassSvm::Config cfg;
  cfg.max_train_rows = 200;
  OneClassSvm m(cfg);
  m.fit(data);
  EXPECT_GT(auc(data.labels, m.score(data)), dist >= 6.0 ? 0.97 : 0.85);
}

INSTANTIATE_TEST_SUITE_P(Distances, OneClassSweep,
                         ::testing::Values(4.0, 6.0, 8.0));

TEST(LinearOneClassSvm, DetectsCollapseTowardOrigin) {
  // The linear one-class SVM separates data from the ORIGIN (its role in
  // Lumen is downstream of the Nyström map, where benign rows land far from
  // the origin and anomalies collapse onto it). Model that geometry: benign
  // around +5 per dim, anomalies near 0.
  Rng rng(43);
  FeatureTable data = FeatureTable::make(350, {"a", "b", "c", "d"});
  for (size_t i = 0; i < data.rows; ++i) {
    const bool anomaly = i >= 300;
    for (size_t d = 0; d < 4; ++d) {
      data.at(i, d) = rng.normal(anomaly ? 0.0 : 5.0, 0.7);
    }
    data.labels[i] = anomaly ? 1 : 0;
  }
  LinearOneClassSvm m;
  m.fit(data);
  EXPECT_GT(auc(data.labels, m.score(data)), 0.95);
}

TEST(LinearOneClassSvm, OnNystromEmbeddingDetectsShiftedOutliers) {
  // End-to-end geometry check: Nyström embed, then linear OCSVM (this is
  // exactly the A09 construction).
  const FeatureTable data = anomaly_set(300, 50, 4, 6.0, 43);
  NystromMap map;
  map.fit(data.select_rows(benign_rows(data)));
  const FeatureTable z = map.transform(data);
  LinearOneClassSvm m;
  m.fit(z);
  EXPECT_GT(auc(z.labels, m.score(z)), 0.9);
}

TEST(KMeans, RecoversBlobCentroids) {
  Rng rng(47);
  FeatureTable t = FeatureTable::make(200, {"x", "y"});
  for (size_t i = 0; i < 200; ++i) {
    const bool second = i >= 100;
    t.at(i, 0) = rng.normal(second ? 10.0 : 0.0, 0.5);
    t.at(i, 1) = rng.normal(second ? 10.0 : 0.0, 0.5);
  }
  std::vector<size_t> rows(200);
  for (size_t i = 0; i < 200; ++i) rows[i] = i;
  KMeans::Config cfg;
  cfg.k = 2;
  KMeans km(cfg);
  km.fit(t, rows);
  ASSERT_EQ(km.k(), 2u);
  // The two centroids are near (0,0) and (10,10) in some order.
  const auto& c = km.centroids();
  const double d0 = std::hypot(c[0], c[1]);
  const double d1 = std::hypot(c[2] - 10.0, c[3] - 10.0);
  const double d0b = std::hypot(c[0] - 10.0, c[1] - 10.0);
  const double d1b = std::hypot(c[2], c[3]);
  EXPECT_TRUE((d0 < 1.0 && d1 < 1.0) || (d0b < 1.0 && d1b < 1.0));
}

TEST(Gmm, OutlierScoresExceedInlierScores) {
  const FeatureTable data = anomaly_set(300, 40, 3, 7.0, 53);
  Gmm m;
  m.fit(data);
  EXPECT_GT(auc(data.labels, m.score(data)), 0.95);
}

TEST(Gmm, FitProducesFiniteLikelihood) {
  const FeatureTable data = anomaly_set(200, 0, 3, 0.0, 59);
  Gmm m;
  m.fit(data);
  EXPECT_TRUE(std::isfinite(m.final_log_likelihood()));
}

TEST(AutoEncoderCore, LearnsToReconstruct) {
  Rng rng(61);
  AutoEncoderCore ae(6, 0.75, 0.2, 99);
  std::vector<double> x(6);
  double first = 0.0;
  double tail_sum = 0.0;
  const int kIters = 4000;
  for (int it = 0; it < kIters; ++it) {
    // Structured input: two independent factors drive all 6 dims.
    const double a = rng.uniform(), b = rng.uniform();
    x = {a, a, a * 0.5 + 0.5 * b, b, b, 0.5 * a};
    const double rmse = ae.train_sample(x);
    if (it == 0) first = rmse;
    if (it >= kIters - 200) tail_sum += rmse;
  }
  const double tail_mean = tail_sum / 200.0;
  EXPECT_LT(tail_mean, first);
  EXPECT_LT(tail_mean, 0.2);
}

TEST(AutoEncoderDetector, FlagsOutOfDistribution) {
  const FeatureTable data = anomaly_set(400, 60, 5, 6.0, 67);
  AutoEncoderDetector m;
  m.fit(data);
  EXPECT_GT(auc(data.labels, m.score(data)), 0.9);
  // The calibrated threshold keeps most benign rows unflagged.
  const std::vector<int> pred = m.predict(data);
  size_t benign_fp = 0, benign_n = 0;
  for (size_t i = 0; i < data.rows; ++i) {
    if (data.labels[i] == 0) {
      ++benign_n;
      benign_fp += pred[i];
    }
  }
  EXPECT_LT(static_cast<double>(benign_fp) / benign_n, 0.1);
}

TEST(KitNet, ClustersRespectSizeCap) {
  const FeatureTable data = anomaly_set(400, 0, 23, 0.0, 71);
  KitNet::Config cfg;
  cfg.max_cluster_size = 5;
  KitNet m(cfg);
  m.fit(data);
  ASSERT_FALSE(m.clusters().empty());
  size_t covered = 0;
  for (const auto& c : m.clusters()) {
    EXPECT_LE(c.size(), 5u);
    covered += c.size();
  }
  EXPECT_EQ(covered, 23u);  // every feature in exactly one cluster
}

TEST(KitNet, DetectsDistributionShift) {
  const FeatureTable data = anomaly_set(500, 80, 10, 8.0, 73);
  KitNet m;
  m.fit(data);
  EXPECT_GT(auc(data.labels, m.score(data)), 0.9);
}

TEST(KitNet, EmptyBenignSetDoesNotCrash) {
  FeatureTable data = anomaly_set(10, 0, 4, 0.0, 79);
  for (int& l : data.labels) l = 1;  // nothing benign to train on
  KitNet m;
  m.fit(data);
  EXPECT_EQ(m.score(data).size(), data.rows);
}

}  // namespace
}  // namespace lumen::ml
