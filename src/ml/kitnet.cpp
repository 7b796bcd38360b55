#include "ml/kitnet.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "features/stats.h"

namespace lumen::ml {

void KitNet::build_feature_map(const FeatureTable& X,
                               const std::vector<size_t>& rows) {
  const size_t d = X.cols;
  const size_t n = std::min(rows.size(), cfg_.fm_grace);

  // Pairwise correlation distance 1 - |rho| over the grace window.
  std::vector<double> mean(d, 0.0), sd(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    features::RunningStats rs;
    for (size_t i = 0; i < n; ++i) rs.add(X.at(rows[i], c));
    mean[c] = rs.mean();
    sd[c] = rs.stddev();
  }
  std::vector<double> dist(d * d, 0.0);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      double cov = 0.0;
      for (size_t i = 0; i < n; ++i) {
        cov += (X.at(rows[i], a) - mean[a]) * (X.at(rows[i], b) - mean[b]);
      }
      cov /= std::max<double>(1.0, static_cast<double>(n - 1));
      const double denom = sd[a] * sd[b];
      const double rho = denom > 1e-12 ? cov / denom : 0.0;
      const double cd = 1.0 - std::fabs(rho);
      dist[a * d + b] = cd;
      dist[b * d + a] = cd;
    }
  }

  // Agglomerative single-linkage clustering with a size cap: repeatedly
  // merge the closest pair of clusters whose combined size fits.
  std::vector<std::vector<size_t>> cl(d);
  for (size_t c = 0; c < d; ++c) cl[c] = {c};
  auto cluster_dist = [&](const std::vector<size_t>& a,
                          const std::vector<size_t>& b) {
    double best = 1e30;
    for (size_t x : a) {
      for (size_t y : b) best = std::min(best, dist[x * d + y]);
    }
    return best;
  };
  for (;;) {
    double best = 1e30;
    int bi = -1, bj = -1;
    for (size_t i = 0; i < cl.size(); ++i) {
      for (size_t j = i + 1; j < cl.size(); ++j) {
        if (cl[i].size() + cl[j].size() > cfg_.max_cluster_size) continue;
        const double cd = cluster_dist(cl[i], cl[j]);
        if (cd < best) {
          best = cd;
          bi = static_cast<int>(i);
          bj = static_cast<int>(j);
        }
      }
    }
    if (bi < 0) break;
    cl[bi].insert(cl[bi].end(), cl[bj].begin(), cl[bj].end());
    cl.erase(cl.begin() + bj);
  }
  for (auto& c : cl) std::sort(c.begin(), c.end());
  clusters_ = std::move(cl);
}

void KitNet::fit(const FeatureTable& X) {
  const std::vector<size_t> rows = benign_rows(X);
  ensemble_.clear();
  output_.reset();
  clusters_.clear();
  plan_.reset();
  if (rows.empty() || X.cols == 0) return;

  build_feature_map(X, rows);

  Rng rng(cfg_.seed);
  std::vector<std::shared_ptr<AutoEncoderCore>> ensemble;
  for (const auto& c : clusters_) {
    ensemble.push_back(std::make_shared<AutoEncoderCore>(
        c.size(), cfg_.hidden_ratio, cfg_.lr, rng.next()));
  }
  auto output = std::make_shared<AutoEncoderCore>(
      clusters_.size(), cfg_.hidden_ratio, cfg_.lr, rng.next());

  // Online training: each benign instance updates the ensemble, then the
  // output AE is trained on the vector of per-cluster RMSEs.
  std::vector<double> sub;
  std::vector<double> rmses(clusters_.size());
  for (size_t e = 0; e < cfg_.epochs; ++e) {
    for (size_t r : rows) {
      const auto x = X.row(r);
      for (size_t k = 0; k < clusters_.size(); ++k) {
        sub.clear();
        for (size_t f : clusters_[k]) sub.push_back(x[f]);
        rmses[k] = ensemble[k]->train_sample(sub);
      }
      output->train_sample(rmses);
    }
  }
  ensemble_.assign(ensemble.begin(), ensemble.end());
  output_ = std::move(output);

  // Lower the trained cores into the f64 plan every score() runs through,
  // and calibrate the threshold on the plan's scores over the benign rows.
  plan_ = compiled::calibrate_kitnet(*this, X, rows, cfg_.quantile);
}

double KitNet::score_row(std::span<const double> x) const {
  ScoreScratch scratch;
  return score_row(x, scratch);
}

double KitNet::score_row(std::span<const double> x,
                         ScoreScratch& scratch) const {
  scratch.rmses.resize(clusters_.size());
  for (size_t k = 0; k < clusters_.size(); ++k) {
    scratch.sub.clear();
    for (size_t f : clusters_[k]) scratch.sub.push_back(x[f]);
    scratch.rmses[k] = ensemble_[k]->score_sample(scratch.sub, scratch.ae);
  }
  return output_->score_sample(scratch.rmses, scratch.ae);
}

std::vector<double> KitNet::score(const FeatureTable& X) const {
  if (!plan_) return std::vector<double>(X.rows, 0.0);
  return compiled::score_table(*plan_, X);
}

std::vector<double> KitNet::score_perrow(const FeatureTable& X) const {
  std::vector<double> out(X.rows, 0.0);
  if (!output_) return out;
  parallel_for(
      0, X.rows,
      [&](size_t r) {
        thread_local ScoreScratch scratch;
        out[r] = score_row(X.row(r), scratch);
      },
      /*min_parallel=*/32);
  return out;
}

std::vector<int> KitNet::predict(const FeatureTable& X) const {
  return threshold_predict(score(X), threshold());
}

}  // namespace lumen::ml
